import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hitchin.flags import (
    extract_shear_values,
    extract_triple_ratios,
    recover_fourth_line_from_values,
    reconstruct_triple,
    sym_power,
    veronese_flag,
)
from hitchin.invariants import is_infinite, triple_index_set, triple_ratio
from hitchin.linalg import (
    BackendError,
    DegenerateError,
    Flag,
    Subspace,
    draw_generic,
    mat_mul,
    matrix_rank,
    EXACT,
    FLOAT64,
)

from conftest import (
    HEIGHTS,
    apply_flag,
    generic_triple,
    height_vectors,
    random_flag,
    reconstruct_triple_hyperplanes,
    snake_flag_fractions,
)


def veronese_vector(point, n):
    """Binomially weighted rational normal curve value at [s:t].

    nu_j(s,t) = C(n-1,j) s^(n-1-j) t^j, chosen so that
    nu(m p) = sym_power(m, n) nu(p) exactly.
    """
    s, t = point
    return tuple(math.comb(n - 1, j) * s ** (n - 1 - j) * t ** j for j in range(n))


def rand_sl2(rng):
    while True:
        a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        if a == 0:
            continue
        # complete to determinant one: d = (1 + b c)/a
        d = (1 + b * c) / a
        return ((a, b), (c, d))


class TestSymPower:
    def test_identity(self):
        for n in (2, 3, 5):
            eye = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
            s = sym_power(eye, n)
            assert s == tuple(
                tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)
            )

    def test_diagonal_action(self):
        lam = Fraction(3)
        s = sym_power(((lam, 0), (0, 1 / lam)), 3)
        assert s == ((9, 0, 0), (0, 1, 0), (0, 0, Fraction(1, 9)))

    def test_multiplicative(self, rng):
        for n in (2, 3, 4, 6):
            a, b = rand_sl2(rng), rand_sl2(rng)
            assert mat_mul(sym_power(a, n), sym_power(b, n)) == sym_power(
                mat_mul(a, b), n
            )

    def test_unimodular_image(self, rng):
        from hitchin.linalg import det

        for n in (2, 3, 4, 5):
            m = rand_sl2(rng)
            assert det(sym_power(m, n)) == 1


class TestVeronese:
    def test_base_point_flag(self):
        f = veronese_flag((Fraction(1), Fraction(0)), 3)
        assert f.subspace(1) == Subspace.span([(1, 0, 0)])
        assert f.subspace(2) == Subspace.span([(1, 0, 0), (0, 1, 0)])

    def test_curve_point_on_flag_line(self):
        p = (Fraction(2), Fraction(3))
        for n in (3, 4):
            f = veronese_flag(p, n)
            assert f.subspace(1).contains(veronese_vector(p, n))

    def test_equivariance(self, rng):
        for n in (3, 4, 5):
            m = rand_sl2(rng)
            p = (Fraction(rng.randint(-5, 5)), Fraction(1))
            mp = (m[0][0] * p[0] + m[0][1] * p[1], m[1][0] * p[0] + m[1][1] * p[1])
            left = veronese_flag(mp, n)
            right = apply_flag(veronese_flag(p, n), sym_power(m, n))
            assert left == right

    def test_triple_ratios_are_one(self, rng):
        for n in (3, 4, 5):
            pts = rng.sample(range(-20, 20), 3)
            flags = [veronese_flag((Fraction(t), Fraction(1)), n) for t in pts]
            for idx in triple_index_set(n):
                assert triple_ratio(*flags, idx) == 1

    def test_frenet_sum_condition(self, rng):
        # osculating subspaces of distinct points sum to the whole space
        for n in (3, 4, 5):
            pts = [(Fraction(t), Fraction(1)) for t in (-3, 0, 2, 7)]
            pts[0] = (Fraction(1), Fraction(0))
            flags = [veronese_flag(p, n) for p in pts]
            for parts in range(1, 5):
                for combo in itertools.combinations(range(4), parts):
                    for split in _compositions(n, parts):
                        rows = []
                        for idx, k in zip(combo, split):
                            rows += list(flags[idx].subspace(k).basis)
                        assert matrix_rank(rows, EXACT) == n, (n, combo, split)


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


class TestReconstruction:
    def test_unit_ratios_round_trip(self):
        n = 3
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        ones = Subspace.span([(1, 1, 1)])
        g = reconstruct_triple(f, h, ones, {(1, 1, 1): Fraction(1)})
        assert triple_ratio(f, g, h, (1, 1, 1)) == 1

    def test_prescribed_half(self):
        n = 3
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        ones = Subspace.span([(1, 1, 1)])
        g = reconstruct_triple(f, h, ones, {(1, 1, 1): Fraction(1, 2)})
        assert triple_ratio(f, g, h, (1, 1, 1)) == Fraction(1, 2)

    def test_round_trip_random(self, rng):
        for n in (3, 4, 5):
            for _ in range(4):
                f, g, h = generic_triple(rng, n)
                ratios = extract_triple_ratios(f, g, h)
                g2 = reconstruct_triple(f, h, g.subspace(1), ratios)
                assert g2 == g
                assert extract_triple_ratios(f, g2, h) == ratios

    def test_float_round_trip(self, rng):
        n = 4
        f, g, h = generic_triple(rng, n)
        ff = Flag([tuple(map(float, v)) for v in f.compatible_basis()])
        gf = Flag([tuple(map(float, v)) for v in g.compatible_basis()])
        hf = Flag([tuple(map(float, v)) for v in h.compatible_basis()])
        ratios = extract_triple_ratios(ff, gf, hf)
        g2 = reconstruct_triple(ff, hf, gf.subspace(1), ratios)
        for k in range(1, n):
            # principal-angle distance between the levels (sine form, which
            # stays accurate near zero where arccos floors out)
            a = np.array(gf.subspace(k).basis)
            b = np.array(g2.subspace(k).basis)
            qa, _ = np.linalg.qr(a.T)
            qb, _ = np.linalg.qr(b.T)
            sin_theta = np.linalg.norm(qa - qb @ (qb.T @ qa), 2)
            assert sin_theta < 1e-8


#: the messages of the DegenerateErrors reconstruct_triple raises begin so
RECONSTRUCTION_FAILURES = (
    "coordinate basis",
    "ratio data forces",
    "hyperplane intersection at level",
    "reconstructed level",
)


def reconstruction_outcome(reconstruct, *args):
    """The flag, or the start of the message it fails with."""
    try:
        return reconstruct(*args)
    except DegenerateError as exc:
        prefix = next((p for p in RECONSTRUCTION_FAILURES if str(exc).startswith(p)), None)
        assert prefix is not None, f"unclassified failure: {exc}"
        return prefix


class TestReconstructionMatchesHyperplanes:
    """The exact route equals the hyperplane loop, failures included."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_general_position(self, data):
        height = data.draw(st.sampled_from(sorted(HEIGHTS)))
        # the loop takes seconds at n >= 6 on ~10^50 heights
        n = data.draw(st.integers(2, 5 if height == "huge" else 8))
        vector = height_vectors(data.draw, n, height)
        try:
            f, g, h = (Flag([vector() for _ in range(n)]) for _ in range(3))
            ratios = extract_triple_ratios(f, g, h)
        except DegenerateError:
            assume(False)
        got = reconstruct_triple(f, h, g.subspace(1), ratios)
        assert got == reconstruct_triple_hyperplanes(f, h, g.subspace(1), ratios)
        assert got == g
        assert extract_triple_ratios(f, got, h) == ratios

    @pytest.mark.parametrize("n", (7, 8))
    @pytest.mark.parametrize("kind", ("small", "dyadic"))
    def test_edge_frame(self, n, kind):
        # the standard and reversed flags around the all-ones line and a
        # recovered fourth line, as an exact edge builds them
        r = random.Random(n)
        if kind == "small":
            value = lambda: Fraction(r.randint(1, 9), r.randint(1, 9))  # noqa: E731
        else:
            value = lambda: Fraction(math.exp(r.uniform(-2.0, 2.0)))  # noqa: E731
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        ones = Subspace.span([(Fraction(1),) * n])
        d_line = recover_fourth_line_from_values(f, h, ones, {k: -value() for k in range(1, n)})
        for line in (ones, d_line):
            ratios = {idx: value() for idx in triple_index_set(n)}
            got = reconstruct_triple(f, h, line, ratios)
            assert got == reconstruct_triple_hyperplanes(f, h, line, ratios)
            assert got.subspace(1) == line
            assert extract_triple_ratios(f, got, h) == ratios

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_same_failures_on_degenerate_data(self, data):
        # entries in {-1, 0, 1} and ratios with 0 make every check fire
        n = data.draw(st.integers(2, 5))
        entries = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
        try:
            f, h = (
                Flag([data.draw(entries) for _ in range(n)]) for _ in range(2)
            )
        except DegenerateError:
            assume(False)
        line = tuple(data.draw(entries))
        values = st.sampled_from((0, 1, -1, 2, Fraction(1, 2), Fraction(-3)))
        ratios = {idx: data.draw(values) for idx in triple_index_set(n)}
        got = reconstruction_outcome(reconstruct_triple, f, h, line, ratios)
        assert got == reconstruction_outcome(reconstruct_triple_hyperplanes, f, h, line, ratios)

    @pytest.mark.parametrize(
        "n, line, prefix",
        [
            # G^(1) = F^(1): F^(1) + G^(1) + H^(1) is not a basis
            (3, (1, 0, 0), "coordinate basis"),
            # G^(1) in F^(2): f_2 has no h_1 coefficient (a_top = 0)
            (3, (1, 1, 0), "ratio data forces"),
            # n = 2 has no levels to build, and a zero line is no level 1
            (2, (0, 0), "reconstructed level"),
        ],
    )
    def test_failure_messages(self, n, line, prefix):
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        ratios = {idx: Fraction(2) for idx in triple_index_set(n)}
        for reconstruct in (reconstruct_triple, reconstruct_triple_hyperplanes):
            with pytest.raises(DegenerateError, match=f"^{prefix}"):
                reconstruct(f, h, line, ratios)

    def test_dependent_hyperplanes_fail_the_level(self, monkeypatch):
        # exact data cannot get here: once the coordinate-basis and ratio
        # checks pass, F and H are transverse modulo G^(y0), and in a frame
        # where they are standard and reversed the level's functionals are
        # e_x - beta_x e_(x+1), independent for every beta.  So stand in a
        # meet of the hyperplanes that is too large.  Negative ratios keep
        # the frame off the closed form, which meets no hyperplanes.
        n = 4

        def too_large(self, other):
            return Subspace.full(self.ambient, EXACT)

        monkeypatch.setattr(Subspace, "__and__", too_large)
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        ratios = {idx: Fraction(-2) for idx in triple_index_set(n)}
        with pytest.raises(DegenerateError, match="^hyperplane intersection at level 1"):
            reconstruct_triple(f, h, Subspace.span([(1,) * n]), ratios)


def coordinate_frame_data(data, n):
    """A coordinate frame with each basis vector scaled, a line with nonzero
    entries of mixed signs, positive triple ratios and nonzero shear values
    of mixed signs, all of one height (``small`` or ``dyadic``)."""
    entry = HEIGHTS[data.draw(st.sampled_from(("small", "dyadic")))]
    r = random.Random(data.draw(st.integers(0, 2**32)))

    def nonzero():
        while True:
            value = entry(r)
            if value:
                return value

    f = Flag([[nonzero() if j == i else 0 for j in range(n)] for i in range(n)])
    h = Flag([[nonzero() if j == n - 1 - i else 0 for j in range(n)] for i in range(n)])
    line = tuple(nonzero() for _ in range(n))
    ratios = {idx: abs(nonzero()) for idx in triple_index_set(n)}
    values = {x: nonzero() for x in range(1, n)}
    return f, h, line, ratios, values


class TestCoordinateFrameClosedForm:
    """Positive data in the coordinate frame takes the closed form."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_hyperplanes_and_round_trips(self, data):
        n = data.draw(st.integers(2, 8))
        f, h, line, ratios, values = coordinate_frame_data(data, n)
        got = reconstruct_triple(f, h, line, ratios)
        assert got == reconstruct_triple_hyperplanes(f, h, line, ratios)
        assert got.subspace(1) == Subspace.span([line])
        assert extract_triple_ratios(f, got, h) == ratios
        d_line = recover_fourth_line_from_values(f, h, line, values)
        assert extract_shear_values(f, h, line, d_line) == values

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_nonpositive_data_keeps_the_elimination_outcome(self, data):
        n = data.draw(st.integers(3, 6))
        f, h, line, ratios, values = coordinate_frame_data(data, n)
        idx = data.draw(st.sampled_from(triple_index_set(n)))
        ratios[idx] = data.draw(st.sampled_from((0, -1, Fraction(-2, 3), -ratios[idx])))
        got = reconstruction_outcome(reconstruct_triple, f, h, line, ratios)
        assert got == reconstruction_outcome(reconstruct_triple_hyperplanes, f, h, line, ratios)
        values[data.draw(st.integers(1, n - 1))] = 0
        with pytest.raises(DegenerateError):
            recover_fourth_line_from_values(f, h, line, values)

    def test_closed_form_runs_no_elimination(self, monkeypatch):
        import hitchin.flags

        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(hitchin.flags, "_coordinates", counted("coordinates", hitchin.flags._coordinates))
        monkeypatch.setattr(Subspace, "__and__", counted("meet", Subspace.__and__))
        n = 5
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        line = (Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-1, 5), Fraction(7))
        ratios = {idx: Fraction(k + 1, 3) for k, idx in enumerate(triple_index_set(n))}
        d_line = recover_fourth_line_from_values(f, h, line, {1: -2, 2: 3, 3: Fraction(-1, 2), 4: 5})
        for g_line in (line, d_line):
            reconstruct_triple(f, h, g_line, ratios)
        assert calls == []
        # the counters do see the elimination off the closed form
        ratios[(1, 1, 3)] = Fraction(-1)
        reconstruct_triple(f, h, line, ratios)
        assert {"coordinates", "meet"} <= set(calls)
        # one row reduction per index (x, y, z), for both coefficient ratios
        assert calls.count("coordinates") == len(triple_index_set(n)) == 6


class TestSnakeFlagRows:
    """The closed form's primitive integer rows against the ``Fraction``
    product they replace."""

    DRAWS = {
        "small": lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
        "dyadic": lambda rng: Fraction(math.exp(rng.uniform(-2.0, 2.0))),
        "height50": lambda rng: Fraction(rng.randint(1, 10**50), rng.randint(1, 10**50)),
    }

    @pytest.mark.parametrize("kind", sorted(DRAWS))
    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_fraction_oracle(self, n, kind):
        rng = random.Random(f"snake {n} {kind}")
        draw = self.DRAWS[kind]
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        ones = Subspace.span([tuple(Fraction(1) for _ in range(n))])
        d_line = recover_fourth_line_from_values(f, h, ones, {x: -draw(rng) for x in range(1, n)})
        for line in (ones, d_line):
            ratios = {idx: draw(rng) for idx in triple_index_set(n)}
            got = reconstruct_triple(f, h, line, ratios)
            assert got == snake_flag_fractions(line.line_vector(), ratios)
            for row in got.compatible_basis():
                assert all(type(x) is int for x in row)
                assert math.gcd(*row) == 1

    def test_no_float_entry_in_an_exact_basis(self):
        n = 5
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        line = (Fraction(1), Fraction(-2), Fraction(3, 4), Fraction(-1, 5), Fraction(7))
        ratios = {idx: Fraction(k + 1, 3) for k, idx in enumerate(triple_index_set(n))}
        flags = [
            f,
            h,
            veronese_flag((Fraction(2), Fraction(3)), n),
            Flag([tuple(float(x) for x in v) for v in f.compatible_basis()], backend=EXACT),
            reconstruct_triple(f, h, line, ratios),
        ]
        ratios[(1, 1, 3)] = Fraction(-1)
        flags.append(reconstruct_triple(f, h, line, ratios))
        for flag in flags:
            assert flag.backend is EXACT
            assert all(isinstance(x, (int, Fraction)) for v in flag.compatible_basis() for x in v)


class TestRatioEscape:
    def test_divergent_ratio_merges_hyperplanes(self):
        # boolean classification of the escape: T_(1,1,1) -> infinity iff
        # F^(0)+G^(2)+H^(0) approaches F^(1)+G^(1)+H^(0), and -> 0 iff it
        # approaches F^(0)+G^(1)+H^(1)
        import numpy as np

        n = 3
        f, h = Flag.standard(n), Flag.reversed_standard(n)
        ff = Flag([tuple(map(float, v)) for v in f.compatible_basis()])
        hf = Flag([tuple(map(float, v)) for v in h.compatible_basis()])
        ones = Subspace.span([(1.0, 1.0, 1.0)])

        def plane_gap(t_value, other):
            g = reconstruct_triple(ff, hf, ones, {(1, 1, 1): t_value})
            moving = np.array((g.subspace(2)).basis)  # F^(0)+G^(2)+H^(0)
            qa, _ = np.linalg.qr(moving.T)
            qb, _ = np.linalg.qr(np.array(other.basis).T)
            return float(np.linalg.norm(qa - qb @ (qb.T @ qa), 2))

        merge_up = ff.subspace(1) | Subspace.span([(1.0, 1.0, 1.0)])
        merge_down = hf.subspace(1) | Subspace.span([(1.0, 1.0, 1.0)])
        up = [plane_gap(10.0**k, merge_up) for k in (1, 3, 5)]
        down = [plane_gap(10.0**-k, merge_down) for k in (1, 3, 5)]
        assert up[0] > up[1] > up[2] and up[2] < 1e-4
        assert down[0] > down[1] > down[2] and down[2] < 1e-4
        # and the bounded direction does not merge
        stable = plane_gap(10.0**5, merge_down)
        assert stable > 0.1


class TestFourthLine:
    def test_two_dimensional_example(self):
        a2 = Flag([(1, 0), (0, 1)])
        b2 = Flag([(0, 1), (1, 0)])
        d = recover_fourth_line_from_values(a2, b2, Subspace.span([(1, 1)]), {1: -1})
        assert d == Subspace.span([(-1, 1)])

    def test_round_trip_random(self, rng):
        for n in (3, 4, 5):
            a, b = Flag.standard(n), Flag.reversed_standard(n)

            def sample():
                c, dd = random_flag(rng, n), random_flag(rng, n)
                if not all(c.subspace(1).line_vector()):
                    raise DegenerateError("C line with a zero entry")
                vals = extract_shear_values(a, b, c.subspace(1), dd.subspace(1))
                if any(is_infinite(v) or v == 0 for v in vals.values()):
                    raise DegenerateError("zero or infinite shear value")
                return c, dd, vals

            c, dd, vals = draw_generic(sample, f"edge with finite nonzero shears in R^{n}")
            got = recover_fourth_line_from_values(a, b, c.subspace(1), vals)
            assert got == dd.subspace(1)

    def test_any_shear_vector_is_realized(self):
        # the hyperplane system is exactly determined: a perturbed vector
        # still meets in a line, but a *different* one (and re-extraction
        # returns the perturbed values)
        n = 3
        a, b = Flag.standard(n), Flag.reversed_standard(n)
        c = Subspace.span([(1, 1, 1)])
        vals = {1: Fraction(-1), 2: Fraction(-1)}
        d1 = recover_fourth_line_from_values(a, b, c, vals)
        vals2 = dict(vals)
        vals2[1] = vals2[1] - 10
        d2 = recover_fourth_line_from_values(a, b, c, vals2)
        assert d1 != d2
        assert extract_shear_values(a, b, c, d2) == vals2

    def test_degenerate_intersection_raises(self):
        n = 3
        a, b = Flag.standard(n), Flag.reversed_standard(n)
        c = Subspace.span([(1, 1, 1)])
        # a zero value at level x puts D in the hyperplane A^(x) + B^(n-x-1)
        for values in ({1: 0, 2: 0}, {1: -2, 2: 0}):
            with pytest.raises(DegenerateError, match="^shear data forces a degenerate fourth line"):
                recover_fourth_line_from_values(a, b, c, values)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_float_closed_form_matches_exact(self, n):
        r = random.Random(n)
        # exact values and their float64 images, which are the same numbers
        values = {x: -Fraction(math.exp(r.uniform(-2.0, 2.0))) for x in range(1, n)}
        lines = []
        for backend in (EXACT, FLOAT64):
            a, b = Flag.standard(n, backend), Flag.reversed_standard(n, backend)
            ones = Subspace.span([(backend.one(),) * n], backend=backend)
            vals = {x: backend.convert(v) for x, v in values.items()}
            line = recover_fourth_line_from_values(a, b, ones, vals)
            assert line.backend is backend
            lines.append(np.array(line.line_vector(), dtype=float))
        exact, got = (v / v[0] for v in lines)
        assert np.allclose(got, exact, rtol=1e-13, atol=0)


class TestFourthLineErrors:
    """Input the edge-frame closed form cannot take raises a typed error."""

    @staticmethod
    def frame(n, backend):
        a, b = Flag.standard(n, backend), Flag.reversed_standard(n, backend)
        return a, b, Subspace.span([(backend.one(),) * n], backend=backend)

    @pytest.mark.parametrize("backend", [EXACT, FLOAT64])
    def test_off_frame_pair(self, backend):
        a, b, ones = self.frame(3, backend)
        for pair in ((b, a), (a, a), (a, veronese_flag((1, 1), 3, backend))):
            with pytest.raises(DegenerateError, match="coordinate edge frame"):
                recover_fourth_line_from_values(*pair, ones, {1: -2, 2: -3})

    @pytest.mark.parametrize("backend", [EXACT, FLOAT64])
    def test_zero_entry_of_c(self, backend):
        a, b, _ = self.frame(3, backend)
        line = Subspace.span([(1, 0, 1)], backend=backend)
        with pytest.raises(DegenerateError, match="^edge configuration is not generic"):
            recover_fourth_line_from_values(a, b, line, {1: -2, 2: -3})

    @pytest.mark.parametrize(
        "values",
        [
            {1: 0.0, 2: -3.0},
            # the product underflows to 0 or overflows
            {1: -1e-200, 2: -1e-200},
            {1: -1e200, 2: -1e200},
        ],
    )
    def test_degenerate_float_shear_value(self, values):
        # the exact zero value is TestFourthLine::test_degenerate_intersection_raises
        a, b, ones = self.frame(3, FLOAT64)
        with pytest.raises(DegenerateError, match="^shear data forces a degenerate fourth line"):
            recover_fourth_line_from_values(a, b, ones, values)

    def test_inexact_value_on_exact_flags(self):
        a, b, ones = self.frame(3, EXACT)
        with pytest.raises(BackendError):
            recover_fourth_line_from_values(a, b, ones, {1: -2.5, 2: -3})
