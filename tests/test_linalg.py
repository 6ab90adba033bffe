import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hitchin.linalg import (
    DRAW_TRIES,
    EXACT,
    FLOAT64,
    BackendError,
    DegenerateError,
    Flag,
    Subspace,
    det,
    draw_generic,
    is_generic_triple,
    matrix_rank,
    reduce_modulo,
    rref,
    wedge_det,
)

from conftest import apply_flag, jordan_projection, random_flag, random_unimodular


class TestWedgeDet:
    def test_identity(self):
        n = 4
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        assert wedge_det(eye) == 1

    def test_transposition_flips_sign(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        swapped = [eye[1], eye[0], eye[2]]
        assert wedge_det(swapped) == -1

    def test_two_by_two_cofactor(self):
        # expansion by hand: 1*4 - 2*3
        assert wedge_det([(1, 2), (3, 4)]) == -2

    def test_dimension_mismatch(self):
        with pytest.raises(BackendError):
            wedge_det([(1, 0, 0), (0, 1, 0)])

    def test_fraction_entries(self):
        assert wedge_det([(Fraction(1, 2), 0), (0, Fraction(2, 3))]) == Fraction(1, 3)

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_multilinearity_first_slot(self, a, b, c):
        v = [(a, b), (c, 5)]
        scaled = [(3 * a, 3 * b), (c, 5)]
        assert wedge_det(scaled) == 3 * wedge_det(v)


class TestSubspaces:
    def test_sum_disjoint_coordinates(self):
        a = Subspace.span([(1, 0, 0)])
        b = Subspace.span([(0, 1, 0)])
        assert (a | b).dim == 2

    def test_sum_idempotent(self):
        a = Subspace.span([(1, 0, 0)])
        assert (a | a) == a

    def test_sum_fills_space(self):
        a = Subspace.span([(1, 0, 0), (0, 1, 0)])
        b = Subspace.span([(1, 1, 1)])
        assert (a | b).dim == 3

    def test_intersection_coordinate_planes(self):
        a = Subspace.span([(1, 0, 0), (0, 1, 0)])
        b = Subspace.span([(0, 1, 0), (0, 0, 1)])
        meet = a & b
        assert meet.dim == 1
        assert meet.contains((0, 1, 0))

    def test_intersection_idempotent(self):
        v = Subspace.span([(1, 2, 3), (0, 1, 1)])
        assert (v & v) == v

    def test_generic_hyperplane_intersection(self):
        # nullspace oracle: the intersection line satisfies both equations
        h1 = Subspace.span([(1, 0, 0), (0, 1, 1)])
        h2 = Subspace.span([(1, 1, 0), (0, 0, 1)])
        line = h1 & h2
        assert line.dim == 1
        assert h1.contains(line.line_vector())
        assert h2.contains(line.line_vector())

    def test_dimension_formula_random(self, rng):
        for _ in range(60):
            n = rng.randint(2, 6)
            a = Subspace.span(
                [
                    tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
                    for _ in range(rng.randint(0, n))
                ]
                or [],
                ambient=n,
                backend=EXACT,
            )
            b = Subspace.span(
                [
                    tuple(Fraction(rng.randint(-4, 4)) for _ in range(n))
                    for _ in range(rng.randint(0, n))
                ]
                or [],
                ambient=n,
                backend=EXACT,
            )
            assert (a | b).dim + (a & b).dim == a.dim + b.dim

    def test_canonical_equality(self):
        a = Subspace.span([(1, 1, 0), (0, 2, 2)])
        b = Subspace.span([(2, 2, 0), (1, 3, 2)])
        assert a == b
        assert a.basis == b.basis


#: rationals with small denominators, and the dyadic values Fraction(float)
#: gives, whose denominators run up to 2**1074
RATIONALS = st.one_of(
    st.integers(-9, 9).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.floats(min_value=-8, max_value=8).map(Fraction),
)


@st.composite
def rational_matrices(draw, square=False):
    """Rational matrices up to 4 x 5, often rank-deficient."""
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 5))
    rows = [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # replace one row by a combination of the others
        i = draw(st.integers(0, m - 1))
        coeffs = draw(st.lists(RATIONALS, min_size=m, max_size=m))
        rows[i] = [
            sum((c * rows[k][j] for k, c in enumerate(coeffs) if k != i), Fraction(0))
            for j in range(n)
        ]
    return rows


def leibniz_det(rows):
    total = Fraction(0)
    n = len(rows)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def minor_rank(rows):
    """Largest k with a nonzero k x k minor."""
    m, n = len(rows), len(rows[0])
    for k in range(min(m, n), 0, -1):
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                if leibniz_det([[rows[i][j] for j in csel] for i in rsel]) != 0:
                    return k
    return 0


class TestExactKernel:
    @given(rational_matrices(square=True))
    @settings(max_examples=150, deadline=None)
    def test_det_matches_leibniz(self, rows):
        value = det(rows, backend=EXACT)
        assert isinstance(value, Fraction)
        assert value == leibniz_det(rows)

    @given(rational_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rref_shape_and_row_space(self, rows):
        n = len(rows[0])
        red, piv = rref(rows, EXACT)
        assert len(red) == len(piv) == minor_rank(rows)
        assert list(piv) == sorted(set(piv))
        for i, (row, c) in enumerate(zip(red, piv)):
            assert len(row) == n
            assert all(x == 0 for x in row[:c])
            assert row[c] == 1
            assert all(other[c] == 0 for k, other in enumerate(red) if k != i)
        # every input row is the combination of the RREF rows read off at the
        # pivots; with equal dimensions the two row spaces coincide
        for row in rows:
            combo = [
                sum((row[c] * r[j] for r, c in zip(red, piv)), Fraction(0))
                for j in range(n)
            ]
            assert combo == list(row)

    @given(rational_matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_contains_matches_rank(self, rows, data):
        n = len(rows[0])
        space = Subspace.span(rows, backend=EXACT)
        if data.draw(st.booleans()):
            # a combination of the spanning rows
            coeffs = data.draw(st.lists(RATIONALS, min_size=len(rows), max_size=len(rows)))
            v = [sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(n)]
        else:
            v = data.draw(st.lists(RATIONALS, min_size=n, max_size=n))
        expected = matrix_rank(list(space.basis) + [tuple(v)], EXACT) == space.dim
        assert space.contains(v) == expected


class TestDrawGeneric:
    def test_returns_the_first_generic_draw(self):
        draws = iter(range(10))

        def sample():
            k = next(draws)
            if k < 3:
                raise DegenerateError(f"draw {k}")
            return k

        assert draw_generic(sample, "value") == 3

    def test_gives_up_and_names_what_never_came_out(self):
        calls = []

        def sample():
            calls.append(1)
            raise DegenerateError("always degenerate")

        with pytest.raises(DegenerateError, match=f"no generic widget in {DRAW_TRIES} draws.*always"):
            draw_generic(sample, "generic widget")
        assert len(calls) == DRAW_TRIES


class TestReduceModulo:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_minors_are_wedges_times_one_factor(self, data):
        """Every k x k minor of the coordinates is the wedge with the base
        times the vectors' own lcms and one factor shared by all of them.

        Some base rows are multiples of unit vectors, up to all of them;
        a drawn defect makes a unit column repeat, a unit row depend on
        two other rows, or a row zero, and a dependent raw base must
        raise its rank.
        """
        n = data.draw(st.integers(2, 8))
        m = data.draw(st.integers(0, n - 1))
        zero_cols = data.draw(st.sets(st.integers(0, n - 1), max_size=n - m))
        n_units = sum(data.draw(st.lists(st.booleans(), min_size=m, max_size=m)))
        unit_cols = data.draw(st.permutations(range(n)))[:n_units]
        defect = data.draw(st.sampled_from((None, "repeat", "dependent unit", "zero row")))
        r = random.Random(data.draw(st.integers(0, 2**32)))
        kinds = (
            lambda: Fraction(r.randint(-9, 9)),
            lambda: Fraction(r.randint(-9, 9), r.randint(1, 12)),
            lambda: Fraction(math.ldexp(r.uniform(-1, 1), r.randint(-1070, 3))),
        )

        def vector(zeros=()):
            return [Fraction(0) if j in zeros else r.choice(kinds)() for j in range(n)]

        def unit(j):
            return [(r.choice(kinds)() or Fraction(1)) if i == j else Fraction(0) for i in range(n)]

        units = [unit(j) for j in unit_cols]
        general = [vector(zero_cols) for _ in range(m - n_units)]
        if defect == "repeat" and n_units >= 2:
            units[-1] = unit(unit_cols[0])
        if defect == "dependent unit" and units and len(general) >= 2:
            # the first unit row is (general[-1] - general[0]) / 3
            general[-1] = [g + 3 * e for g, e in zip(general[0], units[0])]
        rows = units + general
        r.shuffle(rows)
        if defect == "zero row" and rows:
            rows[r.randrange(m)] = [Fraction(0)] * n
        k = n - m
        # the unit vectors include some without an entry at any pivot
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        vectors = [vector() for _ in range(k)] + eye
        rank = matrix_rank(rows, EXACT)
        if rank < m:
            with pytest.raises(DegenerateError, match=f"rank {rank}$"):
                reduce_modulo(vectors, rows)
            return
        if data.draw(st.booleans()):
            # the RREF rows of the base
            rows = list(Subspace.span(rows, ambient=n, backend=EXACT).basis)
        coords = reduce_modulo(vectors, rows)
        assert all(len(c) == k and all(isinstance(x, int) for x in c) for c in coords)
        factors = set()
        for start in range(len(vectors) - k + 1):
            window = range(start, start + k)
            wedge = wedge_det(rows + [vectors[i] for i in window])
            minor = wedge_det([coords[i] for i in window])
            assert (wedge == 0) == (minor == 0)
            if wedge:
                scale = math.prod(
                    math.lcm(*(x.denominator for x in vectors[i])) for i in window
                )
                factors.add(minor / (scale * wedge))
        # a drawn vector can lie in the base's span and leave no window
        # with a nonzero wedge; every minor was checked zero above then
        assert len(factors) <= 1

    def test_dependent_rows_name_the_rank(self):
        cases = [
            ([(1, 2, 3, 4), (2, 4, 6, 8)], 1),
            # a unit column that repeats
            ([(0, 0, 3, 0), (1, 2, 3, 4), (0, 0, -1, 0)], 2),
            # a unit row in the span of the other rows
            ([(1, 1, 0, 0), (0, 5, 0, 0), (1, -1, 0, 0)], 2),
            ([(0, 0, 0, 0), (0, 1, 0, 0)], 1),
        ]
        for rows, rank in cases:
            with pytest.raises(DegenerateError, match=f"rank {rank}$"):
                reduce_modulo([(0, 0, 1, 0)], rows)

    def test_vectors_never_pivot(self):
        # columns 2 and 3 are nonzero only in the vectors, which ride below
        # the base rows; a pivot from a vector would hide the rank deficit
        cases = [
            ([(1, 2, 0, 0), (2, 4, 0, 0)], 1),
            ([(0, 0, 0, 0), (Fraction(1, 3), 1, 0, 0)], 1),
            ([(1, 0, 0, 0), (3, 0, 0, 0), (0, 1, 0, 0)], 2),
        ]
        vectors = [(0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)]
        for rows, rank in cases:
            with pytest.raises(DegenerateError, match=f"rank {rank}$"):
                reduce_modulo(vectors, rows)


class TestFlags:
    def test_nesting_enforced(self):
        # a flag is its basis, so its levels nest by construction; what the
        # constructor enforces is that the vectors are a basis of R^n, n >= 2
        cases = [
            ([(1, 0, 0), (0, 1), (0, 0, 1)], BackendError),
            ([(1, 0, 0), (0, 1, 0)], BackendError),
            ([(1, 0, 0), (2, 0, 0), (0, 0, 1)], DegenerateError),
            ([(1,)], DegenerateError),
            ([], DegenerateError),
        ]
        for backend in (EXACT, FLOAT64):
            good = Flag([(1, 0, 0), (1, 1, 0), (0, 0, 1)], backend=backend)
            assert good.subspace(1).dim == 1
            assert good.subspace(2).contains_subspace(good.subspace(1))
            for vectors, error in cases:
                with pytest.raises(error):
                    Flag([[backend.convert(x) for x in v] for v in vectors], backend=backend)

    def test_compatible_basis_spans_levels(self, rng):
        from hitchin.flags import reconstruct_triple, recover_fourth_line_from_values
        from hitchin.invariants import triple_index_set

        f = random_flag(rng, 5)
        flags = [f, Flag([tuple(map(float, v)) for v in f.compatible_basis()])]
        # exact reconstruct_triple's flags: on edge-frame inputs like the
        # exact_edge pool's, closed-form bases whose levels reduce lazily;
        # with a negative ratio, elimination seeds the levels with its meets
        small = lambda: Fraction(rng.randint(1, 9), rng.randint(1, 9))  # noqa: E731
        dyadic = lambda: Fraction(math.exp(rng.uniform(-2.0, 2.0)))  # noqa: E731
        for n in range(3, 9):
            a, b = Flag.standard(n), Flag.reversed_standard(n)
            ones = Subspace.span([tuple(Fraction(1) for _ in range(n))])
            for value in (small, dyadic):
                d_line = recover_fourth_line_from_values(a, b, ones, {x: -value() for x in range(1, n)})
                for line in (ones, d_line):
                    ratios = {i: value() for i in triple_index_set(n)}
                    flags.append(reconstruct_triple(a, b, line, ratios))
                    ratios[(1, 1, n - 2)] *= -1
                    flags.append(reconstruct_triple(a, b, line, ratios))
        for flag in flags:
            basis = flag.compatible_basis()
            for k in range(1, flag.ambient):
                sub = Subspace.span(basis[:k], ambient=flag.ambient, backend=flag.backend)
                assert flag.subspace(k).basis == sub.basis

    def test_apply_unimodular(self, rng):
        f = random_flag(rng, 4)
        g = random_unimodular(rng, 4)
        image = apply_flag(f, g)
        assert image.subspace(2).dim == 2


@st.composite
def patterned_bases(draw):
    """n rows of length n, each given the column of its last nonzero entry
    (-1 for a zero row): a permutation (triangular up to order) or free
    draws, which repeat a column or leave a zero row."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        lasts = draw(st.permutations(range(n)))
    else:
        lasts = draw(st.lists(st.integers(-1, n - 1), min_size=n, max_size=n))
    entry = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))
    nonzero = entry.filter(bool)
    return [
        [draw(entry) for _ in range(last)] + [draw(nonzero)] * (last >= 0) + [0] * (n - 1 - last)
        for last in lasts
    ]


class TestTriangularShortcut:
    """An exact basis triangular up to order skips the rank elimination;
    every other exact basis and every float basis takes it, with its error."""

    @staticmethod
    def build(rows, backend):
        """(flag or error message, number of matrix_rank calls)."""
        from hitchin import linalg

        calls = []
        rank = linalg.matrix_rank

        def counting(rows, backend):
            calls.append(backend)
            return rank(rows, backend)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "matrix_rank", counting)
            try:
                return Flag(rows, backend=backend), len(calls)
            except DegenerateError as exc:
                return str(exc), len(calls)

    @given(patterned_bases())
    @settings(max_examples=150, deadline=None)
    def test_matches_matrix_rank(self, rows):
        n = len(rows)
        independent = matrix_rank(rows, EXACT) == n
        lasts = [max((j for j, x in enumerate(row) if x), default=-1) for row in rows]
        triangular = sorted(lasts) == list(range(n))
        got, calls = self.build(rows, EXACT)
        assert calls == (0 if triangular else 1)
        if independent:
            assert isinstance(got, Flag)
            # each row stored as the primitive integer row on its line, a
            # positive multiple of the row given
            for row, kept, last in zip(rows, got.compatible_basis(), lasts):
                assert all(type(x) is int for x in kept) and math.gcd(*kept) == 1
                scale = kept[last] / Fraction(row[last])
                assert scale > 0 and [scale * x for x in row] == list(kept)
        else:
            assert not triangular
            assert got == "flag basis is not linearly independent"
        floats = [[float(x) for x in row] for row in rows]
        got, calls = self.build(floats, FLOAT64)
        assert calls == 1
        assert isinstance(got, Flag) if independent else got == "flag basis is not linearly independent"


class TestExactFlagRows:
    """An exact flag stores each basis vector as the primitive integer row
    on its line, whatever exact scalars the vector was given in."""

    @staticmethod
    def assert_primitive_rows(flag, vectors):
        for v, row in zip(vectors, flag.compatible_basis()):
            assert all(type(x) is int for x in row) and math.gcd(*row) == 1
            j = next(i for i, x in enumerate(row) if x)
            scale = row[j] / Fraction(v[j])
            assert scale > 0 and [scale * Fraction(x) for x in v] == list(row)

    def test_int_fraction_and_integral_float_input(self):
        ints = [(4, 6, 0), (0, -3, 9), (5, 0, 10)]
        fractions = [(Fraction(1, 2), Fraction(-3, 4), 0), (0, Fraction(2, 3), 1), (7, 0, 0)]
        floats = [(2.0, 4.0, 6.0), (0.0, -8.0, 0.0), (1.0, 1.0, 2.0)]
        for vectors in (ints, fractions, floats):
            flag = Flag(vectors, backend=EXACT)
            self.assert_primitive_rows(flag, vectors)
        assert Flag(ints).compatible_basis() == ((2, 3, 0), (0, -1, 3), (1, 0, 2))
        for n in range(2, 9):
            eye = [tuple(int(i == j) for j in range(n)) for i in range(n)]
            assert Flag.standard(n).compatible_basis() == tuple(eye)
            assert Flag.reversed_standard(n).compatible_basis() == tuple(eye[::-1])

    def test_veronese_input(self):
        from hitchin.flags import _sl2_moving_frame, sym_power, veronese_flag

        for n in range(2, 9):
            for point in ((Fraction(2, 3), Fraction(1)), (Fraction(-5), Fraction(7, 2)), (0, 1)):
                # the flag's basis: the columns of sym_power of the frame
                cols = list(zip(*sym_power(_sl2_moving_frame(point), n)))
                self.assert_primitive_rows(veronese_flag(point, n), cols)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_rescaled_bases_give_one_flag(self, data):
        n = data.draw(st.integers(2, 6))
        r = random.Random(data.draw(st.integers(0, 2**32)))
        basis = draw_generic(
            lambda: Flag(
                [[Fraction(r.randint(-9, 9), r.randint(1, 5)) for _ in range(n)] for _ in range(n)]
            ),
            "independent basis",
        ).compatible_basis()
        nonzero = st.fractions(-50, 50, max_denominator=50).filter(bool)
        scales = data.draw(st.lists(nonzero, min_size=n, max_size=n))
        flag = Flag(basis)
        scaled = Flag([[c * x for x in v] for c, v in zip(scales, basis)])
        assert scaled == flag
        for c, row, kept in zip(scales, flag.compatible_basis(), scaled.compatible_basis()):
            assert kept == (row if c > 0 else tuple(-x for x in row))

    def test_non_integral_float_is_refused(self):
        with pytest.raises(BackendError, match="non-integral float 0.5"):
            Flag([(1, 0, 0), (0.5, 1, 0), (0, 0, 1)], backend=EXACT)


class TestGenericTriple:
    def test_equal_flags_degenerate(self):
        f = Flag.standard(3)
        assert not is_generic_triple(f, f, Flag.reversed_standard(3))

    def test_standard_configuration(self):
        f = Flag.standard(3)
        h = Flag.reversed_standard(3)
        g = Flag([(1, 1, 1), (1, 0, -2), (1, 0, 0)])
        assert is_generic_triple(f, g, h)

    def test_veronese_triples(self):
        from hitchin.flags import veronese_flag

        for n in (3, 4, 5):
            flags = [veronese_flag((Fraction(t), Fraction(1)), n) for t in (0, 1, 5)]
            assert is_generic_triple(*flags)


class TestProjections:
    def test_jordan_diagonal(self):
        wp = jordan_projection([[2, 0, 0], [0, 1, 0], [0, 0, 0.5]])
        assert wp == pytest.approx((math.log(2), 0.0, -math.log(2)))

    def test_jordan_triangular(self):
        wp = jordan_projection([[2, 1], [0, 0.5]])
        assert wp == pytest.approx((math.log(2), -math.log(2)))

    def test_jordan_similarity_invariance(self, rng):
        d = np.diag([2.0, 1.0, 0.5])
        for _ in range(10):
            p = np.random.RandomState(rng.randint(0, 10**6)).uniform(-1, 1, (3, 3))
            if abs(np.linalg.det(p)) < 0.1:
                continue
            m = p @ d @ np.linalg.inv(p)
            wp = jordan_projection(m)
            assert wp == pytest.approx(
                (math.log(2), 0.0, -math.log(2)), abs=1e-8
            )

