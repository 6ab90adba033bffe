import math
from fractions import Fraction

import pytest

from hitchin.fuchsian import (
    BPoint,
    SurfaceError,
    cmp_points,
    cyclic_order,
    edges_cross,
    fixed_points,
    fuchsian_invariants,
    genus2_surface,
    in_arc,
    is_hyperbolic,
    mat2_mul,
    mat2_trace,
    mobius,
    points_equal,
    separates,
    translation_length,
)
from hitchin.invariants import INFINITY
from hitchin.pants import check_closed_leaf, lambda_gaps_from_invariants

from conftest import SURFACES, fuchsian_invariants_exact_flags


class TestBPoint:
    def test_square_folding(self):
        p = BPoint.make(1, 2, 9)  # 1 + 2*3
        assert p.is_rational() and p.a == 7

    def test_square_factor_reduction(self):
        p = BPoint.make(0, 1, 8)  # sqrt(8) = 2 sqrt(2)
        assert p.d == 2 and p.b == 2

    def test_sign(self):
        assert BPoint.make(-1, 1, 2).sign() == 1  # sqrt(2) > 1
        assert BPoint.make(-2, 1, 2).sign() == -1
        assert BPoint.make(3, -1, 2).sign() == 1
        assert BPoint.make(1, -1, 2).sign() == -1

    def test_cross_field_comparison(self):
        assert cmp_points(BPoint.make(0, 1, 2), BPoint.make(0, 1, 3)) == -1
        assert cmp_points(BPoint.make(0, 1, 3), BPoint.make(0, 1, 2)) == 1
        # sqrt(8) == 2 sqrt(2) across representations
        assert points_equal(BPoint.make(0, 1, 8), BPoint.make(0, 2, 2))
        # 1 + sqrt(2) vs sqrt(6): 2.414 vs 2.449
        assert cmp_points(BPoint.make(1, 1, 2), BPoint.make(0, 1, 6)) == -1

    def test_cyclic_order_with_infinity(self):
        a, b = BPoint.rational(0), BPoint.rational(1)
        assert cyclic_order(a, b, INFINITY) == 1
        assert cyclic_order(b, a, INFINITY) == -1
        assert in_arc(b, a, INFINITY)
        assert not in_arc(a, b, INFINITY)

    def test_separation(self):
        pts = [BPoint.rational(x) for x in (0, 1, 2, 3)]
        assert separates(pts[0], pts[2], pts[1], pts[3])
        assert not separates(pts[0], pts[1], pts[2], pts[3])
        assert edges_cross((pts[0], pts[2]), (pts[1], pts[3]))


class TestMoebius:
    def test_action_matches_float(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        p = BPoint.make(Fraction(1, 2), Fraction(1, 3), 5)
        q = mobius(m, p)
        zf = float(p)
        expected = (2 * zf + 1) / (zf + 1)
        assert float(q) == pytest.approx(expected)

    def test_pole_goes_to_infinity(self):
        m = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
        assert mobius(m, BPoint.rational(0)) == INFINITY

    def test_fixed_points_are_fixed(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        rep, att = fixed_points(m)
        assert points_equal(mobius(m, att), att)
        assert points_equal(mobius(m, rep), rep)

    def test_attracting_dynamics(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        rep, att = fixed_points(m)
        z = BPoint.rational(100)
        for _ in range(40):
            z = mobius(m, z)
        assert abs(float(z) - float(att)) < 1e-6

    def test_translation_length(self):
        m = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
        assert translation_length(m) == pytest.approx(2 * math.log(2))


class TestGenus2Surface:
    def test_relation_holds_exactly(self, surface):
        rel = mat2_mul(surface.matrix("abAB"), surface.matrix("cdCD"))
        assert rel == ((1, 0), (0, 1)) or rel == ((-1, 0), (0, -1))

    def test_pants_words_hyperbolic(self, surface):
        for (j, s), word in surface.slot_words.items():
            m = surface.matrix(word)
            assert is_hyperbolic(m)
            assert abs(mat2_trace(m)) > 2

    def test_pants_relation(self, surface):
        for j in (0, 1):
            a = surface.matrix(surface.slot_words[(j, "A")])
            b = surface.matrix(surface.slot_words[(j, "B")])
            c = surface.matrix(surface.slot_words[(j, "C")])
            prod = mat2_mul(mat2_mul(b, a), c)
            assert prod in (((1, 0), (0, 1)), ((-1, 0), (0, -1)))

    def test_handle_curves_have_equal_length(self, surface):
        lens = surface.length_spectrum()
        assert lens[0] == pytest.approx(lens[1])
        assert lens[0] == pytest.approx(2 * math.acosh(1.5))
        assert lens[2] == pytest.approx(2 * math.acosh(4.5))

    def test_twist_deformation(self):
        s = genus2_surface(twist=Fraction(1, 5))
        assert s.length_spectrum()[2] == pytest.approx(2 * math.acosh(4.5))

    def test_rejects_thin_input(self):
        # tr[a,b] = -2 at the cusp: not a closed one-holed torus
        with pytest.raises(SurfaceError):
            genus2_surface(a1=((2, 1), (1, 1)), b1=((1, 1), (1, 2)))

    def test_rejects_twist_outside_axis(self):
        with pytest.raises(SurfaceError):
            genus2_surface(twist=Fraction(100))

    def test_triangulation_orbit_non_crossing(self, surface):
        # 1-ball sample of edge lifts: exact non-crossing check
        letters = "abcdABCD"
        words = [""] + [ch for ch in letters]
        base = []
        for j in (0, 1):
            av = surface.base_vertex(j, "a")
            bv = surface.base_vertex(j, "b")
            cv = surface.base_vertex(j, "c")
            base += [(av, bv), (av, cv), (cv, bv)]
            for l in "abc":
                base.append(
                    (surface.base_vertex(j, l), surface.slot_vertex_attracting(j, l))
                )
        edges = []
        for w in words:
            m = surface.matrix(w)
            edges += [(mobius(m, u), mobius(m, v)) for u, v in base]
        for i in range(len(edges)):
            for k in range(i + 1, len(edges)):
                e1, e2 = edges[i], edges[k]
                if any(points_equal(p, q) for p in e1 for q in e2):
                    continue
                assert not edges_cross(e1, e2)


class TestFuchsianInvariants:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_triangle_invariants_vanish(self, surface, n):
        for inv in fuchsian_invariants(surface, n):
            for v in list(inv.tau.values()) + list(inv.tau_prime.values()):
                assert v == 0

    @pytest.mark.parametrize(
        "name,n",
        [(name, n) for name in SURFACES for n in range(2, 7)]
        + [("default", 7), ("default", 8)],
    )
    def test_matches_exact_flag_oracle(self, name, n):
        surface = genus2_surface(**SURFACES[name])
        closed = fuchsian_invariants(surface, n)
        oracle = fuchsian_invariants_exact_flags(surface, n)
        for inv, ref in zip(closed, oracle):
            assert inv.tau == ref.tau and inv.tau_prime == ref.tau_prime
            assert inv.sigma.keys() == ref.sigma.keys()
            for idx, value in ref.sigma.items():
                assert inv.sigma[idx] == pytest.approx(value, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_closed_leaf_relations(self, n):
        for kwargs in SURFACES.values():
            surface = genus2_surface(**kwargs)
            report = check_closed_leaf(surface.decomp, fuchsian_invariants(surface, n))
            assert report.max_residual() < 1e-12
            assert report.inequalities_strict(tol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gaps_match_symmetric_power_spectrum(self, surface, n):
        # consecutive eigenvalue gaps of the power representation all equal
        # the curve length; cross-checked against the Jordan projection
        import numpy as np

        from hitchin.flags import sym_power
        from hitchin.linalg import jordan_projection

        invs = fuchsian_invariants(surface, n)
        for j, inv in enumerate(invs):
            gaps = lambda_gaps_from_invariants(inv)[0]
            word = surface.slot_words[(j, "A")]
            big = sym_power(surface.matrix(word), n)
            jp = jordan_projection([[float(x) for x in row] for row in big])
            # the float eigensolver loses digits on the huge conjugated
            # entries as n grows; the exact-length check below is the sharp one
            assert list(gaps) == pytest.approx(list(jp.gaps()), abs=10.0 ** (2 * n - 14))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gaps_equal_curve_length(self, surface, n):
        lens = surface.length_spectrum()
        for inv in fuchsian_invariants(surface, n):
            for g in lambda_gaps_from_invariants(inv)[0]:
                assert g == pytest.approx(lens[0], abs=1e-12)
