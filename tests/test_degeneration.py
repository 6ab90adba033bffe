import collections
import functools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hitchin import degeneration, invariants, linalg
from hitchin.degeneration import (
    EdgeQuadruple,
    binomial_growth_rate,
    compute_K,
    compute_L,
    count_bound_gamma0,
    count_bound_gamma1,
    crossing_segment_average,
    entropy_upper_bound,
    internal_sequence_scan,
    k_edge,
    length_lower_bound,
    shifted_params,
    winding_segment_lengths,
)
from hitchin.flags import (
    extract_shear_values,
    extract_triple_ratios,
    reconstruct_triple,
    recover_fourth_line_from_values,
    sym_power,
    veronese_flag,
)
from hitchin.fuchsian import (
    fixed_points,
    fuchsian_invariants,
    mat2_mul,
    mobius,
    translation_length,
)
from hitchin.invariants import is_infinite, triple_index_set
from hitchin.linalg import EXACT, FLOAT64, DegenerateError, Flag, Subspace, mat_vec
from hitchin.pants import HitchinParams, PantsInvariants, internal_labels, xi_forward, xi_inverse
from hitchin.tracer import CountPair, EdgeLift, PsiTracer, r_and_s

from conftest import (
    SURFACES,
    apply_flag,
    exact_flag_at,
    growth_exponent,
    growth_rate_windows,
    k_edge_two_branches,
    length_spectrum,
    named_surface,
    plane_cross_ratio,
    random_unimodular,
    segment_lengths_exact_flags,
)

#: exact edge ops on benchmark pool entries for n = 3..6, both kinds; see
#: its "source" field
EXACT_EDGE_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "exact_edge.json").read_text()
)["entries"]


def flag_at(point, n):
    """Float64 osculating flag of the rational normal curve at a boundary point."""
    if is_infinite(point):
        return veronese_flag((1, 0), n, backend=FLOAT64)
    # affine chart z -> [z : 1]
    z = float(point)
    frame = ((z, 0.0), (1.0, 1.0)) if z != 0 else ((0.0, -1.0), (1.0, 0.0))
    rows = sym_power(frame, n)
    return Flag([tuple(float(rows[i][j]) for i in range(n)) for j in range(n)])


@functools.lru_cache(maxsize=None)
def traced(name, word):
    """A word's encoding on a named surface; it does not depend on n
    (``test_tracer``'s ``test_encoding_is_dimension_independent``)."""
    surface = named_surface(name)
    return surface, PsiTracer(surface, n=2).trace(word)


@functools.lru_cache(maxsize=None)
def fuchsian_k_and_l(name, n):
    """K and L at the Fuchsian point of a named surface in dimension n.

    K does not depend on n there: every flag cross ratio in ``k_edge``
    projects to the classical one (``test_fuchsian_k_is_dimension_independent``).
    The n = 2 value is used because ``compute_K`` still fails at n = 7, 8.
    """
    surface = named_surface(name)
    k_val, _ = compute_K(surface.decomp, fuchsian_invariants(surface, 2))
    invs = fuchsian_invariants(surface, n)
    params = xi_forward(surface.decomp, invs, {c: (0.0,) * (n - 1) for c in range(3)})
    return k_val, compute_L(params.boundary, n)


def direct_quadruples(surface, j, n):
    a, b, c = (surface.slots[j, letter].rep for letter in "abc")
    ac = mobius(surface.matrix(surface.slot_words[(j, "A")]), c)
    cb = mobius(surface.matrix(surface.slot_words[(j, "C")]), b)
    ba = mobius(surface.matrix(surface.slot_words[(j, "B")]), a)
    f = lambda p: flag_at(p, n)
    return {
        "ab": EdgeQuadruple(a=f(a), b=f(b), c=f(c), d=f(ac)),
        "ac": EdgeQuadruple(a=f(c), b=f(a), c=f(b), d=f(cb)),
        "cb": EdgeQuadruple(a=f(b), b=f(c), c=f(a), d=f(ba)),
    }


def reconstructed_quadruple(n, tau, shear, taup):
    """Exact edge quadruple on the standard frame from ratio and shear data.

    ``tau`` and ``taup`` give T_{x,y,z} of C and D for every index,
    ``shear`` the cross-ratio value (A, C, D, B) at every level.
    """
    fa = Flag.standard(n, backend=EXACT)
    fb = Flag.reversed_standard(n, backend=EXACT)
    ones = Subspace.span([(Fraction(1),) * n], backend=EXACT)
    fc = reconstruct_triple(fa, fb, ones, tau)
    d_line = recover_fourth_line_from_values(fa, fb, ones, shear)
    fd = reconstruct_triple(fa, fb, d_line, taup)
    return EdgeQuadruple(a=fa, b=fb, c=fc, d=fd)


def exact_frame_k(invariants):
    """K of an invariant set with every edge rebuilt on the exact frame,
    each exp(invariant) taken as ``Fraction(math.exp(.))``."""
    n = invariants[0].n

    def exact_exp(x):
        return Fraction(math.exp(float(x)))

    ks = []
    for inv in invariants:
        for rules in degeneration._EDGE_RULES.values():
            tau, taup = (
                {idx: exact_exp(sign * values[rules["perm"](*idx)]) for idx in triple_index_set(n)}
                for sign, values in ((1, inv.tau), (-1, inv.tau_prime))
            )
            shear = {k: -exact_exp(inv.sigma[rules["shear"](n, k)]) for k in range(1, n)}
            ks.append(k_edge(reconstructed_quadruple(n, tau, shear, taup)))
    return min(ks)


def small_height_quadruple(n, seed):
    """Reconstructed quadruple with positive ratios p/q, 1 <= p, q <= 5."""
    rng = random.Random(seed)
    value = lambda: Fraction(rng.randint(1, 5), rng.randint(1, 5))  # noqa: E731
    tau = {idx: value() for idx in triple_index_set(n)}
    taup = {idx: value() for idx in triple_index_set(n)}
    shear = {k: -value() for k in range(1, n)}
    return reconstructed_quadruple(n, tau, shear, taup)


def off_frame_quadruple(n, seed):
    """``small_height_quadruple`` moved off the coordinate frame.

    One random unimodular map moves all four flags, and each flag's basis
    then takes a random triangular change (v_k -> s v_k + a combination of
    v_1..v_(k-1)), so the bases are far from the levels' RREF rows.
    """
    rng = random.Random(seed)
    m = random_unimodular(rng, n, steps=3 * n)

    def moved(flag):
        basis = [mat_vec(m, v) for v in flag.compatible_basis()]
        out = []
        for k, v in enumerate(basis):
            scale = rng.choice((-2, -1, 1, 3))
            coeffs = [rng.randint(-2, 2) for _ in range(k)]
            out.append(tuple(
                scale * x + sum(c * lower[t] for c, lower in zip(coeffs, basis))
                for t, x in enumerate(v)
            ))
        return Flag(out)

    quad = small_height_quadruple(n, seed)
    return EdgeQuadruple(*(moved(f) for f in (quad.a, quad.b, quad.c, quad.d)))


def veronese_quadruple(surface, n):
    """Exact osculating flags at a, b, c and the far vertex of edge ab."""
    a, b, c = (surface.slots[0, letter].rep for letter in "abc")
    ac = mobius(surface.matrix(surface.slot_words[(0, "A")]), c)
    return EdgeQuadruple(*(exact_flag_at(p, n) for p in (a, b, c, ac)))


class TestKEdge:
    def test_two_dimensional_value(self):
        # classical quadruple with both branch cross ratios equal to 2
        fa = Flag([(1.0, 0.0), (0.0, 1.0)])
        fb = Flag([(0.0, 1.0), (1.0, 0.0)])
        fc = Flag([(1.0, 1.0), (1.0, 0.0)])
        fd = Flag([(-1.0, 1.0), (1.0, 0.0)])
        quad = EdgeQuadruple(a=fa, b=fb, c=fc, d=fd)
        assert k_edge(quad) == pytest.approx(math.log(2))

    def test_endpoint_and_opposite_swaps(self, surface):
        for n in (2, 3):
            quad = direct_quadruples(surface, 0, n)["ab"]
            base = k_edge(quad)
            swapped_ab = EdgeQuadruple(a=quad.b, b=quad.a, c=quad.c, d=quad.d)
            swapped_cd = EdgeQuadruple(a=quad.a, b=quad.b, c=quad.d, d=quad.c)
            assert k_edge(swapped_ab) == pytest.approx(base, abs=1e-9)
            assert k_edge(swapped_cd) == pytest.approx(base, abs=1e-9)

    def test_projective_invariance(self, surface, rng):
        quad = direct_quadruples(surface, 0, 3)["ab"]
        base = k_edge(quad)
        state = np.random.RandomState(5)
        m = state.uniform(-1, 1, (3, 3))
        while abs(np.linalg.det(m)) < 0.3:
            m = state.uniform(-1, 1, (3, 3))
        m /= abs(np.linalg.det(m)) ** (1 / 3)
        moved = EdgeQuadruple(
            a=apply_flag(quad.a, m), b=apply_flag(quad.b, m), c=apply_flag(quad.c, m), d=apply_flag(quad.d, m)
        )
        assert k_edge(moved) == pytest.approx(base, abs=1e-8)


    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_two_branch_oracle(self, surface, n):
        # k_edge reads base rows and moving lines off the flags' bases, the
        # oracle off their reduced levels; off the frame the two differ
        quads = [
            veronese_quadruple(surface, n),
            small_height_quadruple(n, 100 + n),
            off_frame_quadruple(n, 200 + n),
            off_frame_quadruple(n, 300 + n),
        ]
        for quad in quads:
            assert k_edge(quad) == pytest.approx(k_edge_two_branches(quad), rel=1e-12)

    def test_exact_lines_read_off_the_basis(self, monkeypatch):
        # exact k_edge takes its base rows and moving lines from each flag's
        # basis: it reduces no level and memoises no transverse line, in the
        # edge frame and off it
        quads = [small_height_quadruple(5, 105), off_frame_quadruple(5, 105)]
        levels = collections.Counter()
        subspace = Flag.subspace

        def counting_subspace(flag, k):
            levels[k] += 1
            return subspace(flag, k)

        monkeypatch.setattr(Flag, "subspace", counting_subspace)
        for quad in quads:
            flags = (quad.a, quad.b, quad.c, quad.d)
            memos = [dict(flag._transverse) for flag in flags]
            k_edge(quad)
            assert [flag._transverse for flag in flags] == memos
        assert not levels

    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_wedges_stacked_per_base(self, monkeypatch, n):
        # float k_edge takes all wedges of a base from one determinant call,
        # (n-1)^2 calls in all, since the n-1 bases a^i + b^(n-2-i) serve both
        # passes, and sums a base from its first summand's level: one rref per
        # extra summand, one fewer than a sum started at zero
        points = (-1, Fraction(1, 3), Fraction(-1, 3), 1)
        quad = EdgeQuadruple(*(veronese_flag((p, 1), n, backend=FLOAT64) for p in points))
        value = k_edge(quad)  # reduces the levels and builds the moving lines
        det_calls = []
        numpy_det = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: det_calls.append(a.shape) or numpy_det(a))
        rrefs, summands = [], []
        linalg_rref, based = linalg.rref, degeneration.based_lines

        def counting_rref(*args, **kwargs):
            rrefs[-1] += 1
            return linalg_rref(*args, **kwargs)

        def counting_based_lines(flags, base):
            rrefs.append(0)
            summands.append(sum(1 for _, m in base if m))
            return based(flags, base)

        monkeypatch.setattr(linalg, "rref", counting_rref)
        monkeypatch.setattr(degeneration, "based_lines", counting_based_lines)
        assert k_edge(quad) == value
        assert det_calls == [(7, n, n)] * (n - 1) ** 2
        assert len(rrefs) == (n - 1) ** 2 and max(summands) == min(n - 2, 3)
        assert rrefs == [max(k - 1, 0) for k in summands]

    def test_moving_lines_built_once(self):
        # a float moving line depends only on its flag and multiplicity, and
        # the flag keeps it: an edge sharing the float frame's A and B builds
        # no new line for them
        fa, fb = Flag.standard(5, backend=FLOAT64), Flag.reversed_standard(5, backend=FLOAT64)

        def to_float(flag):
            return Flag([tuple(float(x) for x in v) for v in flag.compatible_basis()])

        first, second = (small_height_quadruple(5, seed) for seed in (105, 106))
        fc1, fd1, fc2, fd2 = (to_float(f) for f in (first.c, first.d, second.c, second.d))
        builds = collections.Counter()

        class CountingMemo(dict):
            """A flag's transverse-line memo that counts the lines built into it."""

            def __init__(self, flag):
                super().__init__()
                self.flag = flag

            def __setitem__(self, mult, line):
                builds[(id(self.flag), mult)] += 1
                super().__setitem__(mult, line)

        for flag in (fa, fb, fc1, fd1, fc2, fd2):
            flag._transverse = CountingMemo(flag)
        k_edge(EdgeQuadruple(a=fa, b=fb, c=fc1, d=fd1))
        assert builds and max(builds.values()) == 1
        built = set(builds)
        assert (id(fa), 3) in built and (id(fb), 3) in built
        k_edge(EdgeQuadruple(a=fa, b=fb, c=fc2, d=fd2))
        assert max(builds.values()) == 1
        new = set(builds) - built
        assert new and all(key[0] not in (id(fa), id(fb)) for key in new)

    @pytest.mark.parametrize("entry", EXACT_EDGE_GOLDEN, ids=lambda entry: entry["op"])
    def test_golden_exact_edge(self, entry):
        # K bit for bit and the three exact round trips of one edge op
        def ratios(table):
            return {tuple(map(int, idx.split(","))): Fraction(v) for idx, v in table.items()}

        tau, taup = ratios(entry["tau"]), ratios(entry["tau_prime"])
        shear = {int(x): Fraction(v) for x, v in entry["shear_values"].items()}
        quad = reconstructed_quadruple(int(entry["op"].split("|")[0]), tau, shear, taup)
        round_trips = [
            extract_triple_ratios(quad.a, quad.c, quad.b) == tau,
            extract_triple_ratios(quad.a, quad.d, quad.b) == taup,
            extract_shear_values(quad.a, quad.b, quad.c.subspace(1), quad.d.subspace(1)) == shear,
        ]
        assert round_trips == entry["round_trips"]
        assert float.hex(k_edge(quad)) == entry["k_edge"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_ratio_beyond_float_range(self, n):
        ones = {idx: Fraction(1) for idx in triple_index_set(n)}
        shear = {k: Fraction(-(10**400)) for k in range(1, n)}
        quad = reconstructed_quadruple(n, ones, shear, ones)
        assert math.isfinite(k_edge(quad))


def k_edge_outcome(quad):
    """``k_edge`` as ``float.hex``, or the message of the error it raises."""
    try:
        return k_edge(quad).hex()
    except DegenerateError as exc:
        return str(exc)


class TestFramePath:
    """Exact quadruples in the coordinate edge frame take their cross
    ratios from window minors; every other one takes the general loop."""

    @staticmethod
    def general_outcome(monkeypatch, quad):
        with monkeypatch.context() as patch:
            patch.setattr(degeneration, "_frame_cross_ratios", lambda quad: None)
            return k_edge_outcome(quad)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_general_loop(self, monkeypatch, n):
        # seeded small rationals and Fraction(exp(x)) dyadics, and the
        # +-10^400 shears of test_exact_ratio_beyond_float_range (-10^400
        # gives a value, +10^400 an error)
        rng = random.Random(2300 + n)
        draws = (
            lambda: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
            lambda: Fraction(math.exp(rng.uniform(-2.0, 2.0))),
        )
        quads = []
        for value in draws:
            tau, taup = ({idx: value() for idx in triple_index_set(n)} for _ in range(2))
            shear = {k: -value() for k in range(1, n)}
            quads.append(reconstructed_quadruple(n, tau, shear, taup))
        ones = {idx: Fraction(1) for idx in triple_index_set(n)}
        for big in (-(10**400), 10**400):
            shear = {k: Fraction(big) for k in range(1, n)}
            quads.append(reconstructed_quadruple(n, ones, shear, ones))
        for quad in quads:
            assert degeneration._frame_cross_ratios(quad) is not None
            assert k_edge_outcome(quad) == self.general_outcome(monkeypatch, quad)

    def test_no_reduction_and_no_based_lines(self, monkeypatch):
        calls = collections.Counter()
        reduce, based = invariants.reduce_modulo, degeneration.based_lines

        def counting_reduce(vectors, base):
            calls["reduce_modulo"] += 1
            return reduce(vectors, base)

        def counting_based_lines(flags, base):
            calls["based_lines"] += 1
            return based(flags, base)

        monkeypatch.setattr(invariants, "reduce_modulo", counting_reduce)
        monkeypatch.setattr(degeneration, "based_lines", counting_based_lines)
        k_edge(small_height_quadruple(6, 106))
        assert not calls
        # off the frame, the same counters see the general loop
        k_edge(off_frame_quadruple(6, 106))
        assert calls == {"reduce_modulo": 25, "based_lines": 25}

    def test_zero_window_pivot_takes_the_general_loop(self, monkeypatch):
        # C's line has a zero last entry, so the window run from the last
        # column meets a zero pivot; with C and D swapped, that line is o
        # and its bordered minor there, a denominator, is zero
        fa, fb = Flag.standard(3, backend=EXACT), Flag.reversed_standard(3, backend=EXACT)
        fc = Flag([(1, 1, 0), (1, 2, 1), (0, 0, 1)], backend=EXACT)
        fd = small_height_quadruple(3, 103).d
        c_rows, d_rows = fc.compatible_basis(), fd.compatible_basis()
        assert degeneration._window_minors(c_rows, d_rows[0], 2) is None
        for quad in (EdgeQuadruple(fa, fb, fc, fd), EdgeQuadruple(fa, fb, fd, fc)):
            assert degeneration._frame_cross_ratios(quad) is None
            outcome = k_edge_outcome(quad)
            assert outcome == self.general_outcome(monkeypatch, quad)
            assert outcome == "crossing cross ratio not positive: INFINITY"

    def test_zero_pivot_inside_a_run_takes_the_general_loop_for_its_bases(self, monkeypatch):
        # both lines have no zero entry, but C's first two rows agree on
        # columns 0 and 1, so the run from column 0 stops at its second
        # pivot: the bases i = 0 take the general loop, the bases i = 1 the
        # window minors, and K is the general loop's
        fa, fb = Flag.standard(3, backend=EXACT), Flag.reversed_standard(3, backend=EXACT)
        fc = Flag([(1, 1, 1), (1, 1, 2), (1, 0, 0)], backend=EXACT)
        fd = small_height_quadruple(3, 103).d
        quad = EdgeQuadruple(fa, fb, fc, fd)
        frame = degeneration._frame_cross_ratios(quad)
        assert frame(True, 0, 0) is None and frame(True, 0, 1) is None
        assert frame(True, 1, 0) is not None
        assert k_edge_outcome(quad) == self.general_outcome(monkeypatch, quad)

    def test_first_failing_value_stops_after_its_two_runs(self, monkeypatch):
        # the n = 8 all-ones quadruple with +10^400 shears fails at its first
        # value, which needs the runs of C from columns 0 and 1 only
        n = 8
        ones = {idx: Fraction(1) for idx in triple_index_set(n)}
        shear = {k: Fraction(10**400) for k in range(1, n)}
        quad = reconstructed_quadruple(n, ones, shear, ones)
        runs = []
        window_minors = degeneration._window_minors

        def counting(rows, o, s):
            runs.append(s)
            return window_minors(rows, o, s)

        monkeypatch.setattr(degeneration, "_window_minors", counting)
        outcome = k_edge_outcome(quad)
        assert runs == [0, 1]
        assert outcome.startswith("crossing cross ratio not positive: -")
        assert outcome == self.general_outcome(monkeypatch, quad)
        # an edge that succeeds makes each run once: C's from every column,
        # D's from columns 0..n-2 (its bases with no e part are C's)
        runs.clear()
        k_edge(small_height_quadruple(n, 108))
        assert runs == list(range(n)) + list(range(n - 1))


class TestWindowMinors:
    """One run of ``_window_minors`` against ``det`` of every window."""

    @staticmethod
    def expected(rows, o, s):
        width = len(o) - s
        pivots, bordered = [], []
        for t in range(width):
            cols = range(s, s + t + 1)
            pivot = linalg.det([[rows[r][c] for c in cols] for r in range(t + 1)])
            if not pivot:
                return None
            pivots.append(pivot)
            bordered.append(linalg.det([[rows[r][c] for c in cols] for r in range(t)] + [[o[c] for c in cols]]))
        return pivots, bordered

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_det_of_every_window(self, n):
        # entries in -2..2 make zero pivots at every depth; the 10^50-height
        # rows do not
        rng = random.Random(2520 + n)
        nones = 0
        for height in [2] * 30 + [10**50] * 3:
            rows = tuple(tuple(rng.randint(-height, height) for _ in range(n)) for _ in range(n))
            o = tuple(rng.randint(-height, height) for _ in range(n))
            for s in range(n):
                got = degeneration._window_minors(rows, o, s)
                assert got == self.expected(rows, o, s)
                nones += got is None
        assert nones

    def test_zero_pivot_returns_none(self):
        rows = ((1, 2, 3), (2, 4, 5), (7, 1, 1))
        o = (1, 1, 1)
        assert degeneration._window_minors(rows, o, 0) is None
        assert degeneration._window_minors(rows, o, 1) == ([2, -2], [1, -1])
        assert degeneration._window_minors(((0, 1), (1, 0)), (1, 1), 0) is None

    def test_step_updates_only_from_its_start_column(self):
        # a run passes start c + 1: the pivot column and those before it
        # keep their stale entries, the later ones are the 2 x 2 minors
        for start, cleared in ((0, [0, 2, 2]), (1, [4, 2, 2]), (2, [4, 7, 2])):
            a = [[2, 3, 5], [4, 7, 11]]
            linalg._bareiss_step(a, 0, 0, 1, [1], start)
            assert a == [[2, 3, 5], cleared]


class TestComputeK:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_fuchsian_oracle(self, surface, n):
        invs = fuchsian_invariants(surface, n)
        k_val, per_edge = compute_K(surface.decomp, invs)
        assert k_val > 0
        for j in (0, 1):
            for kind, quad in direct_quadruples(surface, j, n).items():
                assert per_edge[(j, kind)] == pytest.approx(
                    k_edge(quad), abs=1e-8
                ), (j, kind)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_fuchsian_k_is_dimension_independent(self, surface, n):
        k_two, _ = compute_K(surface.decomp, fuchsian_invariants(surface, 2))
        k_val, _ = compute_K(surface.decomp, fuchsian_invariants(surface, n))
        assert k_val == pytest.approx(k_two, rel=1e-12)

    @staticmethod
    def points(surface, n):
        """The Fuchsian point, a point with tau moved in pants 0 only, and a
        pair of pants with the same shears and different tau'."""
        invs = fuchsian_invariants(surface, n)
        base = xi_forward(surface.decomp, invs, {c: (0.0,) * (n - 1) for c in range(3)})
        moved = shifted_params(base, [{("tau", (1, n - 2, 1)): 0.5}, {}], 1)
        twin = PantsInvariants(
            n=n,
            tau=invs[0].tau,
            tau_prime={**invs[0].tau_prime, (1, 1, n - 2): 0.25},
            sigma=invs[0].sigma,
        )
        return {"fuchsian": invs, "shifted": xi_inverse(moved)[0], "twins": [invs[0], twin]}

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_shared_rebuilds_keep_every_edge(self, surface, n):
        # compute_K shares its flags between edges; every per-edge K is the
        # one of an edge rebuilt alone, bit for bit
        for where, invs in self.points(surface, n).items():
            _, per_edge = compute_K(surface.decomp, invs)
            for (j, kind), value in per_edge.items():
                alone = k_edge(degeneration.edge_quadruple_from_invariants(invs[j], kind))
                assert value.hex() == alone.hex(), (where, j, kind)

    @pytest.mark.parametrize("n", [3, 4])
    def test_each_distinct_rebuild_once(self, surface, monkeypatch, n):
        # one flag rebuild per distinct (line, ratios) and one fourth line
        # per distinct shear data, against the rebuilds of edges made alone
        calls = {"flag": [], "line": []}
        rebuild, recover = degeneration.reconstruct_triple, degeneration.recover_fourth_line_from_values

        def counting_rebuild(f, h, g_line, ratios):
            calls["flag"].append((g_line.line_vector(), tuple(ratios.items())))
            return rebuild(f, h, g_line, ratios)

        def counting_recover(a, b, c_line, values):
            calls["line"].append(tuple(values.items()))
            return recover(a, b, c_line, values)

        monkeypatch.setattr(degeneration, "reconstruct_triple", counting_rebuild)
        monkeypatch.setattr(degeneration, "recover_fourth_line_from_values", counting_recover)
        c_flags = {}
        for where, invs in self.points(surface, n).items():
            for kind in ("ab", "ac", "cb"):
                for inv in invs:
                    degeneration.edge_quadruple_from_invariants(inv, kind)
            alone = {what: list(keys) for what, keys in calls.items()}
            for keys in calls.values():
                keys.clear()
            compute_K(surface.decomp, invs)
            assert len(alone["flag"]) == 12 and len(alone["line"]) == 6
            for what, keys in calls.items():
                assert len(keys) == len(set(keys)) == len(set(alone[what])), (where, what)
                assert set(keys) == set(alone[what]), (where, what)
                keys.clear()
            c_flags[where] = {key for key in alone["flag"] if key[0] == (1.0,) * n}
        if n == 3:
            # the only tau index is fixed by every edge's reindexing: C is
            # one flag per pants, and one in all where tau = 0 everywhere
            assert {where: len(keys) for where, keys in c_flags.items()} == {
                "fuchsian": 1,
                "shifted": 2,
                "twins": 1,
            }

    def test_positive_on_deformed_points(self, surface, rng):
        invs = fuchsian_invariants(surface, 3)
        gluing = {c: (0.0, 0.0) for c in range(3)}
        base = xi_forward(surface.decomp, invs, gluing)
        moved = shifted_params(base, {("tau", (1, 1, 1)): 0.7, ("sigma", (2, 1, 0)): -0.3}, 1)
        new_invs, _ = xi_inverse(moved)
        k_val, _ = compute_K(surface.decomp, new_invs)
        assert k_val > 0


class TestComputeL:
    def test_single_curve(self):
        gaps = {0: (math.log(4), math.log(4))}
        assert compute_L(gaps, 3) == pytest.approx(2 * math.log(4) / 3)

    def test_min_over_curves(self):
        gaps = {0: (1.0,), 1: (2.0,), 2: (0.5,)}
        assert compute_L(gaps, 2) == pytest.approx(0.25)

    def test_fuchsian_symmetric_power(self, surface):
        invs = fuchsian_invariants(surface, 3)
        params = xi_forward(surface.decomp, invs, {c: (0.0, 0.0) for c in range(3)})
        lens = length_spectrum(surface)
        expected = min(2 * l / 3 for l in lens.values())
        assert compute_L(params.boundary, 3) == pytest.approx(expected, abs=1e-9)

    def test_rejects_wall(self):
        with pytest.raises(DegenerateError):
            compute_L({0: (0.0, 1.0)}, 3)


class TestSegmentLengths:
    def test_crossing_average_dominates_K(self, surface, tracer2):
        invs = fuchsian_invariants(surface, 2)
        k_val, _ = compute_K(surface.decomp, invs)
        for word in ("ab", "bd", "abc"):
            x_mat = surface.matrix(word)
            xm, xp = fixed_points(x_mat)
            psi = traced("default", word)[1]
            for entry in psi.lifts:
                lhs = crossing_segment_average(tracer2, entry, xm, xp)
                assert lhs >= k_val - 1e-9

    def test_degenerate_segment_has_zero_length(self, surface):
        # a subsegment with equal interior endpoints has cross ratio one
        xm, xp = fixed_points(surface.matrix("ab"))
        first = [exact_flag_at(x, 2).subspace(1) for x in (xm, xp)]
        h = first[0] | first[1]
        mid = exact_flag_at(surface.slots[0, "b"].rep, 2).subspace(1) & h
        val = plane_cross_ratio(first[0], mid, mid, first[1], h)
        assert val == 1
        assert math.log(val) == 0.0

    @pytest.mark.parametrize(
        "name,n,word",
        [(name, n, "bd") for name in SURFACES for n in range(2, 7)]
        + [("default", 7, "abc"), ("default", 8, "bd")],
    )
    def test_closed_form_matches_exact_flags(self, name, n, word):
        surface, psi = traced(name, word)
        tracer = PsiTracer(surface, n=n)
        x_mat = surface.matrix(word)
        xm, xp = fixed_points(x_mat)
        # the last lift pairs with the deck translate of the first
        wrapped = tuple(
            EdgeLift(mat2_mul(x_mat, e.gamma), e.pants, e.kind)
            if isinstance(e, EdgeLift)
            else e
            for e in psi.lifts[0]
        )
        for entry, next_entry in zip(psi.lifts, psi.lifts[1:] + (wrapped,)):
            crossing, winding = segment_lengths_exact_flags(
                tracer, entry, next_entry, xm, xp
            )
            assert crossing_segment_average(tracer, entry, xm, xp) == pytest.approx(
                crossing, abs=1e-12
            )
            assert winding_segment_lengths(
                tracer, entry, next_entry, xm, xp
            ) == pytest.approx(winding, abs=1e-12)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_crossing_average_scales_with_n(self, n):
        for name in SURFACES:
            surface, psi = traced(name, "abc")
            xm, xp = fixed_points(surface.matrix("abc"))
            two, high = PsiTracer(surface, n=2), PsiTracer(surface, n=n)
            for entry in psi.lifts:
                assert crossing_segment_average(high, entry, xm, xp) == pytest.approx(
                    (n - 1) * crossing_segment_average(two, entry, xm, xp), rel=1e-12
                )


class TestWindingSegments:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_segment_check_both_inequalities(self, n):
        from hitchin.degeneration import segment_length_check

        for name in SURFACES:
            k_val, l_val = fuchsian_k_and_l(name, n)
            for word in ("abc", "bd", "aabd"):
                surface, psi = traced(name, word)
                tracer = PsiTracer(surface, n=n)
                x_mat = surface.matrix(word)
                for i in range(len(psi.tuples)):
                    crossing, winding = segment_length_check(
                        tracer, psi, i, x_mat, k_val, l_val
                    )
                    assert crossing[0] >= crossing[1] - 1e-9, (name, word, i)
                    assert winding[0] >= winding[1] - 1e-9, (name, word, i)

    def test_small_windings_have_zero_rhs(self, surface, tracer2):
        from hitchin.degeneration import segment_length_check

        x_mat = surface.matrix("abc")
        psi = traced("default", "abc")[1]
        small = [i for i, tp in enumerate(psi.tuples) if abs(tp.t) <= 1]
        assert small
        for i in small:
            same_type = (
                psi.tuples[i].type == psi.tuples[(i + 1) % len(psi.tuples)].type
            )
            _, winding = segment_length_check(tracer2, psi, i, x_mat, 1.0, 1.0)
            if not same_type:
                assert winding[1] == 0.0
                assert winding[0] >= -1e-9


class TestLengthBound:
    def test_formula(self):
        assert length_lower_bound(CountPair(2, 0), 11.0, 11.0) == pytest.approx(2.0)
        assert length_lower_bound(CountPair(3, 1), 11.0, 22.0) == pytest.approx(5.0)

    def test_requires_crossing(self):
        with pytest.raises(DegenerateError):
            length_lower_bound(CountPair(0, 0), 1.0, 1.0)

    def test_fuchsian_lengths_dominate(self, surface, tracer2):
        invs = fuchsian_invariants(surface, 2)
        k_val, _ = compute_K(surface.decomp, invs)
        params = xi_forward(surface.decomp, invs, {c: (0.0,) for c in range(3)})
        l_val = compute_L(params.boundary, 2)
        words = ["b", "d", "ab", "ad", "bd", "abc", "abd", "bc", "abcd", "aabd"]
        for word in words:
            psi = traced("default", word)[1]
            counts = r_and_s(psi)
            bound = length_lower_bound(counts, k_val, l_val)
            length = translation_length(surface.matrix(word))
            assert length >= bound - 1e-9, (word, length, bound)


class TestCountBounds:
    def test_gamma0_below_length(self):
        assert count_bound_gamma0(Fraction(1, 2), 1, 2).value == 1

    def test_gamma0_reference(self):
        assert count_bound_gamma0(10, 1, 2).value == 61
        assert count_bound_gamma0(20, 1, 2).value == 121

    def test_gamma1_empty_sum(self):
        assert count_bound_gamma1(Fraction(1, 11), 2, 1, 2).value == 0

    def test_gamma1_single_term(self):
        # 11T = 2.2, K = 2: one term a=1 with budget floor(0.2) = 0
        assert count_bound_gamma1(Fraction(2, 10), 2, 1, 2).value == 120

    def test_gamma1_monotonicity_grid(self):
        ts = [Fraction(5), Fraction(8), Fraction(11)]
        ks = [Fraction(3), Fraction(5), Fraction(9)]
        ls = [Fraction(1), Fraction(2), Fraction(4)]
        for l in ls:
            for k in ks:
                vals = [count_bound_gamma1(t, k, l, 2).value for t in ts]
                assert vals == sorted(vals)
        for t in ts:
            for l in ls:
                vals = [count_bound_gamma1(t, k, l, 2).value for k in ks]
                assert vals == sorted(vals, reverse=True)
        for t in ts:
            for k in ks:
                vals = [count_bound_gamma1(t, k, l, 2).value for l in ls]
                assert vals == sorted(vals, reverse=True)


class TestEntropyBound:
    def test_growth_rate_endpoints_vanish(self):
        # the exponent is zero at q = 0 and q = 1/K, so the rate is an
        # interior maximum, above every point near the ends
        K, L = 5.0, 1.0
        assert growth_exponent(0.0, K, L) == 0.0
        assert growth_exponent(1.0 / K, K, L) == 0.0
        val = binomial_growth_rate(K, L)
        ends = [growth_exponent(q, K, L) for q in (1e-9, 1.0 / K - 1e-9)]
        assert all(0.0 < e < 1e-7 for e in ends)
        assert val > 0.1

    @pytest.mark.parametrize("K", [0.25, 1.0, 6.0, 1e4])
    def test_equal_costs_give_log_two(self, K):
        # K = L puts the maximum at q = 1/(2L), where m = q and the
        # binomial is central: the rate is log(2)/L
        assert binomial_growth_rate(K, K) == pytest.approx(math.log(2.0) / K, rel=1e-12)

    @pytest.mark.parametrize("L", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("ratio", [10.0**k for k in range(-3, 7)])
    def test_matches_window_oracle(self, ratio, L):
        # one search over [0, 1/K] finds what the 11 windows find, since the
        # exponent is strictly concave; K/L from 1e-3 to 1e6 (K = 1e6 at L = 1)
        K = ratio * L
        assert binomial_growth_rate(K, L) == pytest.approx(growth_rate_windows(K, L), rel=1e-12)

    def test_monotone_in_K(self):
        assert entropy_upper_bound(1e4, 1.0, 2) < entropy_upper_bound(1e2, 1.0, 2)

    def test_limit_reference(self):
        values = [entropy_upper_bound(10.0**k, 1.0, 2) for k in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_brute_grid_oracle(self):
        # coarse grid maximization must not beat the golden-section result
        for K, L in ((3.0, 1.0), (10.0, 0.5), (42.0, 2.0)):
            fine = binomial_growth_rate(K, L)
            grid = 0.0
            for i in range(1, 4000):
                q = i / 4000.0 / K
                m = (1.0 - q * K) / L
                term = (
                    (m + q) * math.log(m + q)
                    - (m * math.log(m) if m > 0 else 0.0)
                    - q * math.log(q)
                )
                grid = max(grid, term)
            assert fine >= grid - 1e-9
            assert fine == pytest.approx(grid, abs=1e-4)


class TestScan:
    def test_row_count_and_zero_direction(self, surface):
        invs = fuchsian_invariants(surface, 3)
        base = xi_forward(surface.decomp, invs, {c: (0.0, 0.0) for c in range(3)})
        rows = internal_sequence_scan(base, {("tau", (1, 1, 1)): 0.0}, 10)
        assert len(rows) == 11
        ks = [r.K for r in rows]
        assert max(ks) - min(ks) < 1e-12

    def test_documented_ray(self, surface):
        invs = fuchsian_invariants(surface, 3)
        base = xi_forward(surface.decomp, invs, {c: (0.0, 0.0) for c in range(3)})
        rows = internal_sequence_scan(base, {("tau", (1, 1, 1)): 1.0}, 10)
        assert all(r.flags_ok for r in rows)
        ks = [r.K for r in rows]
        es = [r.entropy_bound for r in rows]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert all(a > b for a, b in zip(es, es[1:]))
        ls = [r.L for r in rows]
        assert max(ls) - min(ls) < 1e-12  # boundary held fixed

    def test_overflow_row_names_the_coordinate_and_edge(self, surface):
        # a row whose exp(tau) leaves float64's range is a failure row that
        # says where it failed, and the scan goes on past it
        invs = fuchsian_invariants(surface, 3)
        base = xi_forward(surface.decomp, invs, {c: (0.0, 0.0) for c in range(3)})
        rows = internal_sequence_scan(base, {("tau", (1, 1, 1)): 400.0}, 3)
        assert len(rows) == 4 and rows[0].flags_ok
        assert [(r.flags_ok, r.error) for r in rows[2:]] == [
            (False, f"exp(tau(1,1,1) = {value}) overflows float64 on edge ab")
            for value in (800, 1200)
        ]

    @pytest.mark.parametrize("sign, last", [(1.0, 16), (-1.0, 27)])
    def test_shear_ray_matches_exact_frame(self, surface, sign, last):
        # the float fourth line is the edge-frame closed form, so the shear
        # rays at n = 3 get past the steps where the hyperplane elimination
        # failed (+: step 12, -: step 21), and each K is the one of the same
        # invariants rebuilt on the exact frame
        invs = fuchsian_invariants(surface, 3)
        base = xi_forward(surface.decomp, invs, {c: (0.0, 0.0) for c in range(3)})
        direction = {("sigma", (2, 1, 0)): sign}
        rows = internal_sequence_scan(base, direction, last)
        assert [r.error for r in rows if not r.flags_ok] == []
        ks = [r.K for r in rows]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        for step, k_val in enumerate(ks):
            exact_invs, _ = xi_inverse(shifted_params(base, direction, step))
            assert k_val == pytest.approx(exact_frame_k(exact_invs), rel=1e-12), step

    def test_exhausted_flag_completion_is_a_failure_row(self, surface):
        # closed-form Fuchsian point at n=6: tau = tau' = 0, every sigma the
        # n=2 shear and every boundary gap the n=2 length.  Step 24 along
        # -tau(1,4,1) leaves reconstruct_triple with no coordinate vector
        # that completes the flag; the scan must report that row, not abort.
        n = 6
        inv2 = fuchsian_invariants(surface, 2)
        params2 = xi_forward(surface.decomp, inv2, {c: (0.0,) for c in range(3)})
        base = HitchinParams(
            n=n,
            decomp=surface.decomp,
            boundary={c: (gaps[0],) * (n - 1) for c, gaps in params2.boundary.items()},
            internal=tuple(
                {
                    label: inv.sigma[(1, 1, 0)] if label[0] == "sigma" else 0.0
                    for label in internal_labels(n)
                }
                for inv in inv2
            ),
            gluing={c: (0.0,) * (n - 1) for c in range(3)},
        )
        direction = {("tau", (1, 4, 1)): -1.0}
        [row] = internal_sequence_scan(shifted_params(base, direction, 24), direction, 0)
        assert not row.flags_ok
        assert row.error.startswith("reconstructed level 5")
