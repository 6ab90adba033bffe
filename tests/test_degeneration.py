import functools
import math
import random
from fractions import Fraction

import pytest

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
from hitchin.linalg import EXACT, FLOAT64, DegenerateError, Flag, Subspace
from hitchin.pants import HitchinParams, internal_labels, xi_forward, xi_inverse
from hitchin.tracer import CountPair, EdgeLift, PsiTracer, r_and_s

from conftest import (
    SURFACES,
    exact_flag_at,
    k_edge_two_branches,
    named_surface,
    plane_cross_ratio,
    segment_lengths_exact_flags,
)


def flag_at(point, n):
    """Float64 osculating flag of the rational normal curve at a boundary point."""
    if is_infinite(point):
        return veronese_flag((1, 0), n, backend=FLOAT64)
    # affine chart z -> [z : 1]
    z = float(point)
    frame = ((z, 0.0), (1.0, 1.0)) if z != 0 else ((0.0, -1.0), (1.0, 0.0))
    rows = sym_power(frame, n)
    return Flag.from_basis([tuple(float(rows[i][j]) for i in range(n)) for j in range(n)])


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
    a = surface.base_vertex(j, "a")
    b = surface.base_vertex(j, "b")
    c = surface.base_vertex(j, "c")
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


def small_height_quadruple(n, seed):
    """Reconstructed quadruple with positive ratios p/q, 1 <= p, q <= 5."""
    rng = random.Random(seed)
    value = lambda: Fraction(rng.randint(1, 5), rng.randint(1, 5))  # noqa: E731
    tau = {idx: value() for idx in triple_index_set(n)}
    taup = {idx: value() for idx in triple_index_set(n)}
    shear = {k: -value() for k in range(1, n)}
    return reconstructed_quadruple(n, tau, shear, taup)


def veronese_quadruple(surface, n):
    """Exact osculating flags at a, b, c and the far vertex of edge ab."""
    a, b, c = (surface.base_vertex(0, letter) for letter in "abc")
    ac = mobius(surface.matrix(surface.slot_words[(0, "A")]), c)
    return EdgeQuadruple(*(exact_flag_at(p, n) for p in (a, b, c, ac)))


class TestKEdge:
    def test_two_dimensional_value(self):
        # classical quadruple with both branch cross ratios equal to 2
        fa = Flag.from_basis([(1.0, 0.0), (0.0, 1.0)])
        fb = Flag.from_basis([(0.0, 1.0), (1.0, 0.0)])
        fc = Flag.from_basis([(1.0, 1.0), (1.0, 0.0)])
        fd = Flag.from_basis([(-1.0, 1.0), (1.0, 0.0)])
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
        import numpy as np

        quad = direct_quadruples(surface, 0, 3)["ab"]
        base = k_edge(quad)
        state = np.random.RandomState(5)
        m = state.uniform(-1, 1, (3, 3))
        while abs(np.linalg.det(m)) < 0.3:
            m = state.uniform(-1, 1, (3, 3))
        m /= abs(np.linalg.det(m)) ** (1 / 3)
        moved = EdgeQuadruple(
            a=quad.a.apply(m), b=quad.b.apply(m), c=quad.c.apply(m), d=quad.d.apply(m)
        )
        assert k_edge(moved) == pytest.approx(base, abs=1e-8)


    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_two_branch_oracle(self, surface, n):
        quads = [veronese_quadruple(surface, n), small_height_quadruple(n, 100 + n)]
        for quad in quads:
            assert k_edge(quad) == pytest.approx(k_edge_two_branches(quad), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exact_ratio_beyond_float_range(self, n):
        ones = {idx: Fraction(1) for idx in triple_index_set(n)}
        shear = {k: Fraction(-(10**400)) for k in range(1, n)}
        quad = reconstructed_quadruple(n, ones, shear, ones)
        assert math.isfinite(k_edge(quad))


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
        lens = surface.length_spectrum()
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
        mid = exact_flag_at(surface.base_vertex(0, "b"), 2).subspace(1) & h
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
        # the q -> 0 and q -> 1/K limits contribute nothing
        val = binomial_growth_rate(5.0, 1.0)
        assert val > 0
        # at q = 0 the expression is identically zero
        assert 0.0 == pytest.approx(0.0)

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
