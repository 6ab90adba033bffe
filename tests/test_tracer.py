import gc
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from hitchin.flags import veronese_flag
from hitchin.fuchsian import (
    BPoint,
    boundary_cross_ratio,
    canonical_adj,
    canonical_mul,
    genus2_surface,
    in_arc,
    mobius,
    points_equal,
    separates,
)
from hitchin.invariants import INFINITY, cross_ratio, cross_ratio_flags
from hitchin.pants import standard_genus2
from hitchin.tracer import (
    EDGE_ENDS,
    FAN_LOCATE_RADIUS,
    FAN_ORDER,
    VERTEX_FANS,
    CountPair,
    EdgeLift,
    PsiEncoding,
    PsiTracer,
    PsiTuple,
    TraceError,
    TriangleLift,
    VertexLift,
    cyclic_equal,
    r_and_s,
    shared_letter,
    validate_psi,
)
from hitchin.linalg import DegenerateError

from conftest import length_spectrum

#: encodings of the benchmark pool's words of length 2 to 4, copied from
#: its reference (an integer is the curve of a closed-leaf word)
GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "tracer.json").read_text()
)["encodings"]

#: words and the letters y whose conjugates y w y^-1 once traced to another
#: encoding: the same-side winding window was guessed at an anchor with
#: entries near 1e8, where the four points of its cross ratio coincide in
#: float precision
LARGE_ANCHOR_CONJUGATES = {
    "BaaDcBBBBDcd": "b",
    "CCddbbaDADbb": "dCD",
    "CaDCadCaadbb": "CD",
    "aCDABDCAcbdd": "ab",
    "cBaCBdBDBaB": "cdD",
    "cBdBBddABca": "dD",
    "cbbADbDcbAbD": "cd",
}


def conj(word, y):
    return y + word + y[::-1].swapcase()


def encode(psi):
    if psi.is_closed_leaf:
        return psi.closed_leaf_curve
    return [[list(tp.pred), list(tp.edge), list(tp.succ), tp.type, tp.t] for tp in psi.tuples]


class TestCounts:
    def test_r_and_s_formula(self):
        tuples = tuple(
            PsiTuple(pred=(0, "ab"), edge=(0, "ac"), succ=(0, "cb"), type="Z", t=t)
            for t in (3, -1, 0)
        )
        counts = r_and_s(PsiEncoding(tuples=tuples))
        assert counts == CountPair(r=3, s=1)

    def test_small_windings_contribute_nothing(self):
        tuples = tuple(
            PsiTuple(pred=(0, "ab"), edge=(0, "ac"), succ=(0, "cb"), type="S", t=t)
            for t in (2, -2, 1, 0)
        )
        assert r_and_s(PsiEncoding(tuples=tuples)).s == 0

    def test_single_tuple_large_t(self):
        tuples = (
            PsiTuple(pred=(0, "ab"), edge=(0, "ac"), succ=(0, "cb"), type="Z", t=5),
        )
        assert r_and_s(PsiEncoding(tuples=tuples)) == CountPair(r=1, s=3)

    def test_empty_encoding_rejected(self):
        with pytest.raises(DegenerateError):
            r_and_s(PsiEncoding(tuples=(), closed_leaf_curve=0))


class TestValidate:
    def test_traced_outputs_pass(self, tracer2):
        for word in ("ab", "bd", "abc"):
            psi = tracer2.trace(word)
            assert validate_psi(psi, tracer2.decomp) == []

    def test_cross_pants_pred_rejected(self):
        decomp = standard_genus2()
        bad = PsiEncoding(
            tuples=(
                PsiTuple(pred=(1, "ab"), edge=(0, "ac"), succ=(0, "cb"), type="Z", t=0),
            )
        )
        assert validate_psi(bad, decomp)

    def test_empty_list_is_a_violation(self):
        decomp = standard_genus2()
        assert validate_psi(PsiEncoding(tuples=()), decomp) == ["empty tuple list"]

    def test_unjoinable_pair_rejected(self):
        decomp = standard_genus2()
        # first tuple leaves through the waist curve (vertex c), second
        # claims to arrive through a handle curve
        bad = PsiEncoding(
            tuples=(
                PsiTuple(pred=(0, "ab"), edge=(0, "ac"), succ=(0, "cb"), type="Z", t=0),
                PsiTuple(pred=(1, "cb"), edge=(1, "ab"), succ=(1, "ac"), type="Z", t=0),
            )
        )
        assert any("joinable" in v for v in validate_psi(bad, decomp))


class TestMesh:
    @pytest.mark.parametrize("curve", [0, 1, 2])
    def test_defining_inequality(self, tracer2, curve):
        spec = tracer2.mesh(curve)
        assert 1.0 <= spec.g_value < math.exp(spec.width)

    def test_inequality_across_dimensions(self, surface):
        for n in (2, 3, 4):
            for curve in (0, 1, 2):
                spec = PsiTracer(surface, n=n).mesh(curve)
                assert 1.0 <= spec.g_value < math.exp(spec.width)

    def test_mesh_width_is_power_length(self, surface, tracer2):
        lens = length_spectrum(surface)
        for curve in (0, 1, 2):
            spec = tracer2.mesh(curve)
            assert spec.width == pytest.approx(lens[curve])

    @pytest.mark.parametrize("curve", [0, 1, 2])
    def test_anchors_are_dimension_independent(self, curve):
        surface = genus2_surface(twist=Fraction(1, 5))
        ref = PsiTracer(surface, n=2).mesh(curve)
        for n in range(3, 9):
            spec = PsiTracer(surface, n=n).mesh(curve)
            assert points_equal(spec.x_point, ref.x_point)
            assert points_equal(spec.y_point, ref.y_point)
            assert 1.0 <= spec.g_value < math.exp(spec.width)


#: rational boundary quadruples as projective points [s:t], t = 0 at infinity
QUADRUPLES = [
    ((0, 1), (1, 1), (3, 1), (2, 1)),
    ((1, 0), (2, 1), (5, 3), (-1, 1)),
    ((1, 2), (-3, 7), (1, 0), (5, 1)),
]


def _classical(pts):
    def w(p, q):
        return Fraction(p[0] * q[1] - p[1] * q[0])

    return w(pts[0], pts[2]) * w(pts[3], pts[1]) / (w(pts[0], pts[1]) * w(pts[3], pts[2]))


class TestClosedFormIdentities:
    """The osculating-flag ratios the Fuchsian closed forms replace."""

    @pytest.mark.parametrize("pts", QUADRUPLES)
    def test_boundary_cross_ratio(self, pts):
        bpts = [INFINITY if t == 0 else BPoint.rational(Fraction(s, t)) for s, t in pts]
        assert boundary_cross_ratio(*bpts) == pytest.approx(float(_classical(pts)), rel=1e-15)

    def test_boundary_cross_ratio_degenerate(self):
        p, q, r = (BPoint.rational(x) for x in (0, 1, 2))
        assert boundary_cross_ratio(p, p, q, r) == math.inf
        with pytest.raises(DegenerateError):
            boundary_cross_ratio(p, p, p, r)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("pts", QUADRUPLES)
    def test_shear_and_mesh_cross_ratios(self, pts, n):
        fa, fb, fc, fd = (veronese_flag(p, n) for p in pts)
        classical = _classical(pts)
        for x in range(1, n):
            base = [(fa, x - 1), (fd, n - x - 1)]
            assert cross_ratio_flags(fa, fb, fc, fd, base) == classical
        meet = fa.subspace(n - 1) & fd.subspace(n - 1)
        lines = [f.subspace(1) for f in (fa, fb, fc, fd)]
        assert cross_ratio(lines, meet) == classical ** (n - 1)


class TestClosedLeafDetection:
    @pytest.mark.parametrize(
        "word,curve", [("a", 0), ("aa", 0), ("AAA", 0), ("c", 1), ("abAB", 2), ("baBA", 2)]
    )
    def test_pants_powers(self, tracer2, word, curve):
        psi = tracer2.trace(word)
        assert psi.is_closed_leaf
        assert psi.closed_leaf_curve == curve

    def test_conjugated_pants_word(self, tracer2):
        psi = tracer2.trace(conj("a", "bd"))
        assert psi.is_closed_leaf and psi.closed_leaf_curve == 0

    def test_non_hyperbolic_rejected(self, tracer2):
        with pytest.raises(TraceError):
            tracer2.trace("aA")

    def test_leaves_of_different_curves_differ(self, tracer2):
        leaf = {curve: PsiEncoding((), closed_leaf_curve=curve) for curve in range(3)}
        assert not cyclic_equal(leaf[0], leaf[2])
        assert cyclic_equal(leaf[1], PsiEncoding((), closed_leaf_curve=1))
        assert cyclic_equal(tracer2.trace("a"), tracer2.trace("AAA"))
        assert not cyclic_equal(tracer2.trace("a"), tracer2.trace("c"))


class TestTrace:
    def test_transversal_crosses_once(self, tracer2):
        psi = tracer2.trace("b")
        counts = r_and_s(psi)
        assert counts.r == 1
        assert psi.tuples[0].edge == (0, "ab")

    def test_conjugation_invariance(self, tracer2):
        for word in ("ab", "bd", "abc"):
            base = tracer2.trace(word)
            for y in ("a", "cA", "db"):
                assert cyclic_equal(base, tracer2.trace(conj(word, y)))

    def test_cyclic_word_invariance(self, tracer2):
        for word in ("abc", "abd"):
            base = tracer2.trace(word)
            for k in (1, 2):
                assert cyclic_equal(base, tracer2.trace(word[k:] + word[:k]))

    def test_square_doubles(self, tracer2):
        for word in ("ab", "bd"):
            single = tracer2.trace(word)
            double = tracer2.trace(word + word)
            assert cyclic_equal(
                double, PsiEncoding(tuples=single.tuples + single.tuples)
            )

    def test_encoding_is_dimension_independent(self, surface, tracer2):
        tr3 = PsiTracer(surface, n=3, depth_cap=64)
        for word in ("ab", "abc"):
            assert cyclic_equal(tracer2.trace(word), tr3.trace(word))

    def test_binodal_count_is_conjugacy_function(self, tracer2):
        # r is constant on the conjugacy class, not on the word spelling
        base = r_and_s(tracer2.trace("abd"))
        for y in ("ba", "cd"):
            assert r_and_s(tracer2.trace(conj("abd", y))) == base

    def test_one_shot_helper(self, surface):
        psi = PsiTracer(surface, n=2).trace("ab")
        assert r_and_s(psi).r == 1

    def test_conjugates_with_large_anchors(self, tracer2):
        for word, letters in LARGE_ANCHOR_CONJUGATES.items():
            base = tracer2.trace(word)
            for y in letters:
                assert cyclic_equal(base, tracer2.trace(conj(word, y))), (word, y)

    def test_golden_short_words(self, tracer2):
        wrong = [w for w, expect in GOLDEN.items() if encode(tracer2.trace(w)) != expect]
        assert wrong == []

    def test_window_guess_from_float_coincident_points(self, tracer2):
        # one winding search meets fixed points and axis endpoints that agree
        # in float precision; it falls back to the exact scan
        psi = tracer2.trace("DcBdBBddABcad")
        assert not validate_psi(psi, tracer2.decomp)
        assert len(psi.tuples) == 21


class TestLiftCaches:
    def test_caches_hold_one_word(self, surface):
        """A long-lived tracer keeps the lift caches of the last word only."""
        shared = PsiTracer(surface, n=2)
        for curve in range(surface.decomp.num_curves):
            shared.mesh(curve)
        for word in ("ab", "bd", "abc", "aabc", "bcd", "adC", "abcd", "bD"):
            shared.trace(word)
            fresh = PsiTracer(surface, n=2)
            fresh._meshes = shared._meshes
            fresh.trace(word)
            assert len(shared._points) == len(fresh._points), word
            assert len(shared._fan_pow) == len(fresh._fan_pow), word

    def test_trace_leaves_no_reference_cycles(self, surface):
        """Tracing frees everything it makes by reference counting: with the
        cyclic collector off, nothing is left for it to find."""
        tracer = PsiTracer(surface, n=2)
        gc.collect()
        gc.disable()
        try:
            for word in GOLDEN:
                tracer.trace(word)
            assert gc.collect() == 0
        finally:
            gc.enable()


def _is_canonical(m):
    entries = m[0] + m[1]
    return (
        all(type(x) is int for x in entries)
        and math.gcd(*entries) == 1
        and next(x for x in entries if x) > 0
    )


class TestCanonicalGamma:
    """Every group element the tracer makes is one primitive integer matrix
    with a positive first nonzero entry."""

    @pytest.mark.parametrize("letter", sorted(FAN_ORDER))
    def test_fan_walk_returns_to_its_start(self, tracer2, letter):
        for pants in range(tracer2.decomp.num_pants):
            start = tracer2.fan_edge(VertexLift(((1, 0), (0, 1)), pants, letter), "ab", 0)
            far = tracer2.fan_edge(start.end(letter), start.kind, 7)
            back = tracer2.fan_edge(far.end(letter), start.kind, -7)
            assert far.gamma != start.gamma
            assert back == start

    def test_edge_lift_ignores_the_sign_of_the_deck_matrix(self, tracer2):
        x = tracer2.surface.matrix("abc")
        minus_x = tuple(tuple(-v for v in row) for row in x)
        for entry in tracer2.trace("abc").lifts:
            e = entry[1]
            moved = EdgeLift(canonical_mul(x, e.gamma), e.pants, e.kind)
            assert moved == EdgeLift(canonical_mul(minus_x, e.gamma), e.pants, e.kind)
            assert moved != e

    @pytest.mark.parametrize("word", ["abc", "bd", "DcBdBBddABcad"])
    def test_trace_holds_only_integer_group_elements(self, tracer2, word):
        psi = tracer2.trace(word)
        gammas = [key[0] for key in tracer2._points]
        for key, powers in tracer2._fan_pow.items():
            gammas += [key[0], *powers.values()]
        gammas += [lift.gamma for entry in psi.lifts for lift in entry]
        for slot in tracer2.surface.slots.values():
            gammas += [slot.mat, slot.inv, slot.conj, slot.transfer]
        gammas += [spec.w for spec in tracer2._meshes.values()]
        assert gammas and all(_is_canonical(g) for g in gammas)


def _orbit(m, point, cap):
    """{k: m^k point} for k in [-cap, cap + 1]."""
    out = {0: point}
    m_inv = canonical_adj(m)
    for k in range(1, cap + 2):
        out[k] = mobius(m, out[k - 1])
        out[-k] = mobius(m_inv, out[1 - k])
    return out


class FullScans:
    """Full-scan oracles for the tracer's orbit-window and fan searches.

    Every k in [-cap, cap] is tested.  Each edge g m^k e is read in the
    frame of its base edge e, against g^-1 of the axis ends: separation
    and the orientation test are unchanged by a Moebius map, so the base
    orbit of each mesh and each fan family is built once.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.cap = tracer.depth_cap
        self._orbits = {}

    def _base_orbit(self, key, m, ends):
        if key not in self._orbits:
            near, far = (_orbit(m, p, self.cap) for p in ends)
            self._orbits[key] = {k: (near[k], far[k]) for k in near}
        return self._orbits[key]

    def winding(self, pending, xm, xp):
        """``_winding``'s signed count of mesh edges crossing the axis, or
        None when the crossing run reaches +-cap."""
        tr = self.tracer
        cid = tr.curve_of_vertex(pending)
        spec = tr.mesh(cid)
        w = tr.surface.matrix(spec.word)
        edges = self._base_orbit(("mesh", cid), w, (spec.x_point, spec.y_point))
        eta_inv = canonical_adj(tr.mesh_anchor(pending))
        xm, xp = mobius(eta_inv, xm), mobius(eta_inv, xp)
        ks = [k for k in range(-self.cap, self.cap + 1) if separates(*edges[k], xm, xp)]
        if not ks:
            return 0
        assert ks == list(range(ks[0], ks[-1] + 1)), "crossing mesh edges are not consecutive"
        if ks[0] == -self.cap or ks[-1] == self.cap:
            return None
        (u0, w0), (u1, _) = edges[ks[0]], edges[ks[0] + 1]
        forward = in_arc(u1, u0, w0) == in_arc(xp, u0, w0)
        return len(ks) if forward else -len(ks)

    def _fan_orbit(self, vp, kind):
        """The fan family ``kind`` at vp in vp's frame: s^k of its base edge."""
        tr = self.tracer
        far_letter = next(l for l in EDGE_ENDS[kind] if l != vp.letter)
        ends = (tr.surface.slots[vp.pants, l].rep for l in (vp.letter, far_letter))
        return self._base_orbit(
            ("fan", vp.pants, vp.letter, kind), tr.surface.slots[vp.pants, vp.letter].mat, ends
        )

    @staticmethod
    def _in_frame(gamma, xm, xp):
        g_inv = canonical_adj(gamma)
        return mobius(g_inv, xm), mobius(g_inv, xp)

    def window_end(self, vp, xm, xp):
        """The least m in [-2 cap, 2 cap - 1] whose fan edge at vp (both
        families in ``FAN_ORDER``) crosses the axis, or None; every larger
        m must cross too."""
        xm, xp = self._in_frame(vp.gamma, xm, xp)

        def crossing(m):
            kind = FAN_ORDER[vp.letter][m % 2]
            return separates(*self._fan_orbit(vp, kind)[m // 2], xm, xp)

        ms = [m for m in range(-2 * self.cap, 2 * self.cap) if crossing(m)]
        if not ms:
            return None
        assert ms == list(range(ms[0], 2 * self.cap)), "crossing fan edges are not a tail"
        return ms[0]

    def fan_locate(self, v, xm, xp):
        """(kind, k) of the first fan edge at v with |k| < FAN_LOCATE_RADIUS
        that separates the axis ends, taken by |k|, then k > 0 first, then
        family order; None when no such edge separates them."""
        xm, xp = self._in_frame(v.gamma, xm, xp)
        radius = FAN_LOCATE_RADIUS
        for k in sorted(range(1 - radius, radius), key=lambda k: (abs(k), -k)):
            for kind in VERTEX_FANS[v.letter]:
                if separates(*self._fan_orbit(v, kind)[k], xm, xp):
                    return kind, k
        return None


class TestWindowOracles:
    def test_windows_match_full_scans(self, surface):
        """Every window search, fan locate and leaf jump met on the golden
        words agrees with its full scan or arc test.

        The golden words wind a few times at most, so a cap of 16 traces
        them all and keeps the scans short.  Both outcomes of the fan
        locate and an exit edge of every (letter, family) occur on them.
        """
        tracer = PsiTracer(surface, n=2, depth_cap=16)
        scans = FullScans(tracer)
        winding, window_end = tracer._winding, tracer._crossing_window_end
        fan_locate, leaf_jump = tracer._fan_locate, tracer._leaf_jump
        calls = {"winding": 0, "window_end": 0, "fan_edge": 0, "fan_triangle": 0}
        exit_pairs = set()

        def checked_winding(pending, xm, xp):
            expect = scans.winding(pending, xm, xp)
            try:
                got = winding(pending, xm, xp)
            except TraceError:
                assert expect is None
                raise
            assert got == expect
            calls["winding"] += 1
            return got

        def checked_window_end(vp, xm, xp):
            got = window_end(vp, xm, xp)
            assert got == scans.window_end(vp, xm, xp)
            calls["window_end"] += 1
            return got

        def checked_fan_locate(v, xm, xp):
            got = fan_locate(v, xm, xp)
            expect = scans.fan_locate(v, xm, xp)
            if expect is None:
                assert isinstance(got, TriangleLift)
                calls["fan_triangle"] += 1
            else:
                assert got == tracer.fan_edge(v, *expect)
                calls["fan_edge"] += 1
            return got

        def checked_leaf_jump(pivot, xm, xp):
            """The exit edge is fan edge m_end, where the pivot leaves vp,
            and pred is the fan edge between it and m_end + 2: its far end
            lies strictly inside their far ends' arc away from vp, and the
            walk from it stays at vp."""
            pred, exit_edge, vp = leaf_jump(pivot, xm, xp)
            m_end = scans.window_end(vp, xm, xp)
            assert exit_edge == tracer.fan_edge_at(vp, m_end)
            ends = [
                tracer.point(tracer.fan_edge_at(vp, m).far_end(vp.letter))
                for m in (m_end, m_end + 2)
            ]
            if in_arc(tracer.point(vp), *ends):
                ends.reverse()
            assert pred.kind != exit_edge.kind
            assert in_arc(tracer.point(pred.far_end(vp.letter)), *ends)
            assert tracer._step(exit_edge, xm, xp)[1].letter != vp.letter
            assert tracer._step(pred, xm, xp)[1].letter == vp.letter
            exit_pairs.add((vp.letter, exit_edge.kind))
            return pred, exit_edge, vp

        tracer._winding = checked_winding
        tracer._crossing_window_end = checked_window_end
        tracer._fan_locate = checked_fan_locate
        tracer._leaf_jump = checked_leaf_jump
        wrong = [w for w, expect in GOLDEN.items() if encode(tracer.trace(w)) != expect]
        assert wrong == []
        assert all(calls.values()), calls
        assert exit_pairs == {(l, kind) for l, kinds in FAN_ORDER.items() for kind in kinds}

    def test_winding_reads_a_local_window(self, surface, monkeypatch):
        """``_winding`` builds the anchors eta w^k outward from k = 0, one
        product each, only as far as its window reaches.  On the golden
        words no call builds more than 16 at the default cap of 64; a
        search that reads k = +-cap builds at least 64."""
        import hitchin.tracer as tracer_module

        tracer = PsiTracer(surface, n=2)
        for curve in range(surface.decomp.num_curves):
            tracer.mesh(curve)
        products, inside = [], [False]

        def counting_mul(m1, m2):
            if inside[0]:
                products[-1] += 1
            return canonical_mul(m1, m2)

        monkeypatch.setattr(tracer_module, "canonical_mul", counting_mul)
        winding = tracer._winding

        def counted_winding(pending, xm, xp):
            products.append(0)
            inside[0] = True
            try:
                return winding(pending, xm, xp)
            finally:
                inside[0] = False

        tracer._winding = counted_winding
        for word in GOLDEN:
            tracer.trace(word)
        assert products and max(products) <= 16


class TestCrossingWalk:
    """When the ends of the leaf at the pending vertex lie on different sides
    of the axis, ``_winding`` walks to the crossing run and along it; when
    they lie on one side, it scans the guessed window."""

    #: the most mesh edges a walked call reads on the golden words (measured:
    #: 6); a window scan reads at least 7, its guess widened by 3 each way
    WALK_READS = 6

    @staticmethod
    def _count_reads(tracer, monkeypatch):
        """Wrap ``tracer._winding``; returns the per-call mesh edge reads of
        walked and of scanned calls, filled as the tracer runs."""
        import hitchin.tracer as tracer_module

        specs = [tracer.mesh(curve) for curve in range(tracer.decomp.num_curves)]
        x_points = {id(spec.x_point) for spec in specs}
        reads = [0]

        def counting_mobius(m, p):
            reads[0] += id(p) in x_points
            return mobius(m, p)

        monkeypatch.setattr(tracer_module, "mobius", counting_mobius)
        winding = tracer._winding
        walked, scanned = [], []

        def counted_winding(pending, xm, xp):
            spec = tracer.mesh(tracer.curve_of_vertex(pending))
            eta = tracer.mesh_anchor(pending)
            sides = {in_arc(mobius(eta, z), xm, xp) for z in (spec.rep, spec.att)}
            reads[0] = 0
            t = winding(pending, xm, xp)
            (walked if len(sides) == 2 else scanned).append(reads[0])
            return t

        tracer._winding = counted_winding
        return walked, scanned

    def test_walk_reads_the_run_and_its_ends(self, surface, monkeypatch):
        tracer = PsiTracer(surface, n=2)
        walked, scanned = self._count_reads(tracer, monkeypatch)
        wrong = [w for w, expect in GOLDEN.items() if encode(tracer.trace(w)) != expect]
        assert wrong == []
        assert walked and scanned
        assert max(walked) <= self.WALK_READS < min(scanned)

    @staticmethod
    def _drop_coordinate(tracer, monkeypatch):
        """Make every float coordinate of ``_winding`` degenerate, once the
        meshes (which read the same cross ratio) are built."""
        import hitchin.tracer as tracer_module

        for curve in range(tracer.decomp.num_curves):
            tracer.mesh(curve)

        def coincident(*points):
            raise DegenerateError("cross ratio of coincident boundary points")

        monkeypatch.setattr(tracer_module, "boundary_cross_ratio", coincident)

    def test_walk_without_a_guess_starts_at_zero(self, surface, monkeypatch):
        """With no float coordinate a scan reads all 2 cap + 1 edges, while a
        walked call starts at k = 0; the leaf anchors of the golden words
        lie near their runs, so it reads no more than with the guess, and
        the counts stay."""
        cap = 16
        tracer = PsiTracer(surface, n=2, depth_cap=cap)
        walked, scanned = self._count_reads(tracer, monkeypatch)
        self._drop_coordinate(tracer, monkeypatch)
        wrong = [w for w, expect in GOLDEN.items() if encode(tracer.trace(w)) != expect]
        assert wrong == []
        assert scanned and set(scanned) == {2 * cap + 1}
        assert walked and max(walked) <= self.WALK_READS

    #: words whose walked runs sit at k = 0..9 (a^k b, a^k B) and at
    #: k = -7..0 (A^k B, A^k b) of their anchors
    CAP_WORDS = [x * k + y for x, y in ("ab", "aB", "AB", "Ab") for k in range(1, 8)]

    @pytest.mark.parametrize("coordinate", (True, False))
    def test_runs_at_the_depth_cap_match_full_scans(self, surface, monkeypatch, coordinate):
        """The winding calls of ``CAP_WORDS``, replayed at caps 1 to 4, meet
        runs that reach k = +-cap from either side, walked toward from the
        float coordinate or from k = 0; each count, or its ``TraceError``,
        matches the full scan."""
        recorder = PsiTracer(surface, n=2)
        calls = []
        winding = recorder._winding

        def recorded_winding(pending, xm, xp):
            calls.append((pending, xm, xp))
            return winding(pending, xm, xp)

        recorder._winding = recorded_winding
        for word in self.CAP_WORDS:
            recorder.trace(word)
        outcomes = set()
        for cap in (1, 2, 3, 4):
            tracer = PsiTracer(surface, n=2, depth_cap=cap)
            tracer._meshes = recorder._meshes
            if not coordinate:
                self._drop_coordinate(tracer, monkeypatch)
            scans = FullScans(tracer)
            for args in calls:
                expect = scans.winding(*args)
                try:
                    got = tracer._winding(*args)
                except TraceError:
                    got = None
                assert got == expect, (cap, args)
                outcomes.add(got is None)
        assert outcomes == {True, False}


class TestFanOrder:
    @pytest.mark.parametrize("letter", sorted(FAN_ORDER))
    def test_neighbours_share_a_triangle(self, tracer2, letter):
        """Fan edges m and m + 1 at a vertex bound one triangle."""

        for pants in range(tracer2.decomp.num_pants):
            v = VertexLift(((1, 0), (0, 1)), pants, letter)
            for m in range(-6, 6):
                t1 = tracer2.adjacent_triangles(tracer2.fan_edge_at(v, m))
                t2 = tracer2.adjacent_triangles(tracer2.fan_edge_at(v, m + 1))
                assert any(a == b for a in t1 for b in t2), (pants, m)


class TestDepthCap:
    """Words that exhaust a small ``depth_cap`` raise ``TraceError``.

    a^k b and c^k d fail exactly when k >= cap; the pool words that also
    fail are listed per cap.
    """

    POWERS = [x * k + y for x, y in ("ab", "cd") for k in range(1, 10)]
    #: the first 16 bench pool words of lengths 6 and 8
    POOL = [
        "BaCacd", "dABCBA", "DcacbC", "adAbba", "bddCbc", "BCABBc", "cacAbD",
        "aaadcB", "DcDcda", "acABAC", "CDaCAC", "BcDcbC", "ABaDcd", "bDBDBa",
        "ADCCbC", "bcaBaD", "AAADbcdc", "AccaBCdC", "aBcdCBDD", "daBdCbca",
        "bcdbABcc", "aaCaDabC", "cdcAACDc", "BdCdBdaa", "DcdBAcAD", "CCdBdbAD",
        "BaBCdcaa", "ccdCBdcD", "CDbDDccD", "adbabCab", "BBDaacDD", "cABDBCBd",
    ]  # fmt: skip
    POOL_FAILING = {
        3: {"AAADbcdc", "aaadcB", "adAbba", "adbabCab"},
        4: {"aaadcB"},
        6: set(),
        8: set(),
        12: set(),
    }

    @pytest.mark.parametrize("cap", sorted(POOL_FAILING))
    def test_failing_words(self, surface, cap):
        tracer = PsiTracer(surface, n=2, depth_cap=cap)
        failing = set()
        for word in self.POWERS + self.POOL:
            try:
                tracer.trace(word)
            except TraceError:
                failing.add(word)
        powers = {w for w in self.POWERS if len(w) - 1 >= cap}
        assert failing == powers | self.POOL_FAILING[cap]


class TestMeshIndependentOfCap:
    @pytest.mark.parametrize("cap", (1, 2, 3, 4))
    def test_small_caps_build_the_default_mesh(self, surface, cap):
        # at cap 1 a depth_cap-sized search on curve 2 missed the (c, ac)
        # minimum g = 8.41 and took (c, cb)'s 74.73
        default = PsiTracer(surface, n=2, depth_cap=64)
        tracer = PsiTracer(surface, n=2, depth_cap=cap)
        for curve in range(3):
            assert tracer.mesh(curve) == default.mesh(curve)


class TestWindingValues:
    def test_reference_windings(self, tracer2):
        # frozen from the exact tracer; the full-scan and windowed search
        # must agree on these (``TestWindowOracles`` checks that they do)
        psi = tracer2.trace("abc")
        assert sorted(tp.t for tp in psi.tuples) == [0, 0, 1, 1, 2]
        psi = tracer2.trace("bd")
        assert sorted(tp.t for tp in psi.tuples) == [-1, 1, 1, 1]

    def test_winding_grows_with_twisting(self, tracer2):
        # multiplying by powers of "a" before closing winds around curve 0
        values = []
        for k in (1, 2, 3, 4):
            psi = tracer2.trace("a" * k + "b")
            counts = r_and_s(psi)
            assert counts.r == 1
            values.append(abs(psi.tuples[0].t))
        assert values == sorted(values)
        assert values[-1] > values[0]


def _common_points(tracer, e1, e2):
    """Endpoints of e1 that are endpoints of e2, by point comparison."""
    ends2 = tracer.edge_points(e2)
    return [p for p in tracer.edge_points(e1) if any(points_equal(p, q) for q in ends2)]


class TestLiftIdentity:
    """Each combinatorial lift answer against the point comparison it replaces."""

    @pytest.mark.parametrize("word", ["bd", "abc", "aaaab", "adC", "DcBdBBddABcad"])
    def test_against_points(self, tracer2, word):
        psi = tracer2.trace(word)
        x_mat = tracer2.surface.matrix(word)
        edges = [e for entry in psi.lifts for e in entry[:3]]
        edges += [EdgeLift(canonical_mul(x_mat, e.gamma), e.pants, e.kind) for e in edges]
        for e1 in edges:
            for e2 in edges:
                by_points = e1.edge_class == e2.edge_class and len(
                    _common_points(tracer2, e1, e2)
                ) == 2
                assert (e1 == e2) == by_points
        for e in edges:
            points = tracer2.edge_points(e)
            for letter in EDGE_ENDS[e.kind]:
                near = tracer2.point(e.end(letter))
                far = tracer2.point(e.far_end(letter))
                assert not points_equal(near, far)
                assert any(points_equal(far, p) for p in points)
            # an end is named by the same letter in both triangles holding it
            for tri in tracer2.adjacent_triangles(e):
                verts = tracer2.triangle_vertices(tri)
                for te in tracer2.triangle_edges(tri):
                    for letter in EDGE_ENDS[te.kind]:
                        vertex = verts["abc".index(letter)]
                        assert points_equal(
                            tracer2.point(te.end(letter)), tracer2.point(vertex)
                        )
        for pred, edge, succ, pivot in psi.lifts:
            (at_succ,) = _common_points(tracer2, edge, succ)
            (at_pred,) = _common_points(tracer2, edge, pred)
            assert points_equal(tracer2.point(pivot), at_succ)
            assert points_equal(tracer2.point(edge.end(shared_letter(edge, succ))), at_succ)
            assert points_equal(tracer2.point(edge.end(shared_letter(pred, edge))), at_pred)
            # the pivot switches at every binodal edge
            assert pivot.letter != shared_letter(pred, edge)
            assert not points_equal(at_succ, at_pred)
