from fractions import Fraction

import numpy as np
import pytest

from hitchin.invariants import (
    INFINITY,
    cross_ratio,
    cross_ratio_flags,
    eigen_gap_check,
    is_infinite,
    project_curve_point,
    triple_index_set,
    triple_ratio,
)
from hitchin.flags import veronese_flag
from hitchin.fuchsian import BPoint, boundary_cross_ratio
from hitchin.linalg import DegenerateError, Flag, is_generic_triple, mat_vec

from conftest import eigen_gap_oracle, plane_cross_ratio, random_flag, random_unimodular


def random_config(rng, n, count):
    """Random lines and a base with all needed wedges nonzero."""
    while True:
        lines = [
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)) for _ in range(count)
        ]
        base = [
            tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n - 2)
        ]
        try:
            vals = []
            for i in range(count - 3):
                v = cross_ratio(lines[i : i + 4], base)
                if is_infinite(v) or v == 0 or v == 1:
                    raise DegenerateError("resample")
                vals.append(v)
            return lines, base
        except DegenerateError:
            continue


class TestCrossRatio:
    def test_classical_example(self):
        # direct determinant evaluation of the wedge formula
        assert cross_ratio([(1, 0), (1, 1), (1, 2), (0, 1)], []) == 2

    def test_repeated_middle_gives_one(self):
        assert cross_ratio([(1, 0), (1, 1), (1, 1), (0, 1)], []) == 1

    def test_repeated_first_gives_infinity(self):
        v = cross_ratio([(1, 0), (1, 0), (1, 1), (0, 1)], [])
        assert is_infinite(v)
        assert v == INFINITY

    def test_infinity_is_not_a_float(self):
        assert not isinstance(INFINITY, float)

    def test_base_dimension_checked(self):
        with pytest.raises(DegenerateError):
            cross_ratio([(1, 0, 0), (1, 1, 0), (1, 2, 0), (0, 1, 0)], [])

    def test_unimodular_invariance(self, rng):
        for n in (2, 3, 4):
            lines, base = random_config(rng, n, 4)
            v = cross_ratio(lines, base)
            g = random_unimodular(rng, n)
            glines = [mat_vec(g, l) for l in lines]
            gbase = [mat_vec(g, b) for b in base]
            assert cross_ratio(glines, gbase) == v

    def test_swap_identity(self, rng):
        for _ in range(30):
            lines, base = random_config(rng, 3, 4)
            v = cross_ratio(lines, base)
            w = cross_ratio([lines[1], lines[0], lines[2], lines[3]], base)
            assert v == 1 - w

    def test_reversal_identity(self, rng):
        for _ in range(30):
            lines, base = random_config(rng, 4, 4)
            assert cross_ratio(lines, base) == cross_ratio(lines[::-1], base)

    def test_cocycle_identity(self, rng):
        for _ in range(30):
            lines, base = random_config(rng, 3, 5)
            l1, l2, l3, l4, l5 = lines
            a = cross_ratio([l1, l2, l3, l5], base)
            b = cross_ratio([l1, l3, l4, l5], base)
            c = cross_ratio([l1, l2, l4, l5], base)
            if any(is_infinite(x) for x in (a, b, c)):
                continue
            assert a * b == c

    def test_coplanar_base_independence(self, rng):
        # four lines in a plane: the value ignores the admissible base
        for _ in range(20):
            u = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
            w = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
            lines = []
            for _ in range(4):
                a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                lines.append(tuple(a * x + b * y for x, y in zip(u, w)))
            try:
                base1 = [
                    tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
                    for _ in range(2)
                ]
                base2 = [
                    tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
                    for _ in range(2)
                ]
                v1 = cross_ratio(lines, base1)
                v2 = cross_ratio(lines, base2)
            except DegenerateError:
                continue
            if is_infinite(v1) or is_infinite(v2):
                assert v1 == v2
            else:
                assert v1 == v2

    def test_float_backend_matches_exact(self, rng):
        for _ in range(25):
            lines, base = random_config(rng, 3, 4)
            v = cross_ratio(lines, base)
            w = cross_ratio(
                [tuple(map(float, l)) for l in lines],
                [tuple(map(float, b)) for b in base],
            )
            assert abs(float(v) - w) <= 1e-9 * max(1.0, abs(w))


class TestCrossRatioFlags:
    def test_moving_subspace_choice_independent(self, rng):
        n = 4
        while True:
            a, b, c, d = (random_flag(rng, n) for _ in range(4))
            base = [(a, 1), (b, 1)]
            try:
                v1 = cross_ratio_flags(a, c, d, b, base)
                break
            except DegenerateError:
                continue
        np_rng = np.random.default_rng(3)
        v2 = cross_ratio_flags(a, c, d, b, base, rng=np_rng)
        assert v1 == v2

    def test_multiplicities_must_fill(self, rng):
        a, b, c, d = (random_flag(rng, 4) for _ in range(4))
        with pytest.raises(DegenerateError):
            cross_ratio_flags(a, b, c, d, [(a, 1)])

    def test_interleaving_gives_value_above_one(self, rng):
        # circle-ordered rational points on the conic: (A,B,C,D)_M > 1
        for n in (3, 4):
            pts = sorted(rng.sample(range(-20, 20), 5))
            flags = [veronese_flag((Fraction(p), Fraction(1)), n) for p in pts]
            a, b, c, d, m = flags
            v = cross_ratio_flags(a, b, c, d, [(m, n - 2)])
            assert v > 1


class TestMonotonicityBank:
    def test_ordered_six_point_inequalities(self, rng):
        # all five interval inequalities on ordered rational samples
        for n in (3, 4, 5):
            for _ in range(40):
                pts = sorted(rng.sample(range(-30, 30), 7))
                a, u, b, c, v, d, m = [
                    veronese_flag((Fraction(p), Fraction(1)), n) for p in pts
                ]
                base = [(m, n - 2)]
                abcd = cross_ratio_flags(a, b, c, d, base)
                assert abcd > 1
                assert abcd < cross_ratio_flags(u, b, c, d, base)
                assert abcd < cross_ratio_flags(a, u, c, d, base)
                assert abcd < cross_ratio_flags(a, b, v, d, base)
                assert abcd < cross_ratio_flags(a, b, c, v, base)


class TestEigenGap:
    def test_diagonal_example(self):
        g = [[4, 0, 0], [0, 2, 0], [0, 0, 1]]
        v = eigen_gap_check(g, 1, 3, (1, 1, 1))
        assert float(v) == pytest.approx(4.0)

    def test_scaled_identity_is_trivial(self):
        g = [[3, 0], [0, 3]]
        v = eigen_gap_check(g, 1, 2, (1, 1))
        assert float(v) == pytest.approx(1.0)

    def test_random_split_matrices(self):
        state = np.random.RandomState(11)
        for n in (3, 4, 5):
            for _ in range(20):
                evals = np.sort(state.uniform(0.3, 3.0, n))[::-1]
                while np.min(np.abs(np.diff(np.log(evals)))) < 0.05:
                    evals = np.sort(state.uniform(0.3, 3.0, n))[::-1]
                p = state.uniform(-1, 1, (n, n))
                if abs(np.linalg.det(p)) < 0.05:
                    continue
                g = p @ np.diag(evals) @ np.linalg.inv(p)
                i, j = 1, n
                line = tuple(state.uniform(-1, 1, n))
                v = eigen_gap_check(g, i, j, line)
                assert float(v) == pytest.approx(
                    eigen_gap_oracle(g, i, j), rel=1e-8
                )


class TestTripleRatio:
    def test_reference_half(self):
        f = Flag.standard(3)
        h = Flag.reversed_standard(3)
        g = Flag.from_basis([(1, 1, 1), (1, 0, -2), (1, 0, 0)])
        assert triple_ratio(f, g, h, (1, 1, 1)) == Fraction(1, 2)

    def test_brute_force_oracle(self, rng):
        # independent evaluation via numpy determinants
        n = 4
        while True:
            f, g, h = (random_flag(rng, n) for _ in range(3))
            if is_generic_triple(f, g, h):
                break
        fb = [list(map(float, v)) for v in f.compatible_basis()]
        gb = [list(map(float, v)) for v in g.compatible_basis()]
        hb = [list(map(float, v)) for v in h.compatible_basis()]

        def wedge(x, y, z):
            return np.linalg.det(np.array(fb[:x] + gb[:y] + hb[:z]))

        for idx in triple_index_set(n):
            x, y, z = idx
            oracle = (
                wedge(x, y - 1, z + 1)
                * wedge(x + 1, y, z - 1)
                * wedge(x - 1, y + 1, z)
            ) / (
                wedge(x, y + 1, z - 1)
                * wedge(x - 1, y, z + 1)
                * wedge(x + 1, y - 1, z)
            )
            assert float(triple_ratio(f, g, h, idx)) == pytest.approx(oracle)

    def test_cyclic_symmetry(self, rng):
        for n in (3, 4, 5):
            while True:
                f, g, h = (random_flag(rng, n) for _ in range(3))
                if is_generic_triple(f, g, h):
                    break
            for x, y, z in triple_index_set(n):
                v = triple_ratio(f, g, h, (x, y, z))
                assert v == triple_ratio(g, h, f, (y, z, x))
                assert v == triple_ratio(h, f, g, (z, x, y))

    def test_transposition_inverts(self, rng):
        n = 4
        while True:
            f, g, h = (random_flag(rng, n) for _ in range(3))
            if is_generic_triple(f, g, h):
                break
        for x, y, z in triple_index_set(n):
            assert triple_ratio(f, g, h, (x, y, z)) * triple_ratio(
                f, h, g, (x, z, y)
            ) == 1

    def test_unimodular_invariance(self, rng):
        n = 3
        while True:
            f, g, h = (random_flag(rng, n) for _ in range(3))
            if is_generic_triple(f, g, h):
                break
        m = random_unimodular(rng, n)
        v = triple_ratio(f, g, h, (1, 1, 1))
        assert triple_ratio(f.apply(m), g.apply(m), h.apply(m), (1, 1, 1)) == v

    def test_index_validation(self):
        f = Flag.standard(3)
        h = Flag.reversed_standard(3)
        g = Flag.from_basis([(1, 1, 1), (1, 0, -2), (1, 0, 0)])
        with pytest.raises(DegenerateError):
            triple_ratio(f, g, h, (2, 2, 2))


class TestProjection:
    def test_projection_of_target_is_its_line(self):
        n = 3
        a = veronese_flag((Fraction(0), Fraction(1)), n)
        b = veronese_flag((Fraction(1), Fraction(0)), n)
        m = veronese_flag((Fraction(1), Fraction(1)), n)
        img = project_curve_point(a, [(m, 1)], (a, b), m=1)
        assert img == a.subspace(1)

    def test_trivial_case_n2(self):
        a = veronese_flag((Fraction(0), Fraction(1)), 2)
        b = veronese_flag((Fraction(1), Fraction(0)), 2)
        e = veronese_flag((Fraction(3), Fraction(1)), 2)
        img = project_curve_point(e, [], (a, b), m=1)
        assert img == e.subspace(1)

    def test_monotone_along_arc(self):
        # images of ordered samples stay ordered on the target line
        n = 4
        a = veronese_flag((Fraction(-50), Fraction(1)), n)
        b = veronese_flag((Fraction(50), Fraction(1)), n)
        m1 = veronese_flag((Fraction(-60), Fraction(1)), n)
        m2 = veronese_flag((Fraction(60), Fraction(1)), n)
        plane = a.subspace(1) | b.subspace(1)
        images = []
        for t in range(-10, 11, 1):
            e = veronese_flag((Fraction(t), Fraction(1)), n)
            images.append(
                project_curve_point(e, [(m1, 1), (m2, 1)], (a, b), m=1)
            )
        values = []
        for img in images[1:-1]:
            v = plane_cross_ratio(
                a.subspace(1), images[0], img, b.subspace(1), plane
            )
            values.append(float(v))
        assert all(x < y for x, y in zip(values, values[1:]))


class TestExtendedPoints:
    def test_classical_points_cross_ratio(self):
        # wedge convention: (inf, 1, z, 0) = 1/z on the affine chart
        one, zero = BPoint.rational(1), BPoint.rational(0)
        for z, expected in ((Fraction(1, 2), 2), (Fraction(1, 4), 4)):
            value = boundary_cross_ratio(INFINITY, one, BPoint.rational(z), zero)
            assert value == expected
