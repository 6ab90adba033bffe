import dataclasses
import itertools
import math
import random
from decimal import Context
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hitchin import fuchsian
from hitchin.fuchsian import (
    BPoint,
    SurfaceError,
    canonical,
    canonical_adj,
    canonical_mul,
    cmp_points,
    cyclic_order,
    fixed_points,
    fuchsian_invariants,
    genus2_surface,
    in_arc,
    is_hyperbolic,
    mat2_adj,
    mat2_det,
    mat2_mul,
    mat2_trace,
    mobius,
    points_equal,
    separates,
    translation_length,
)
from hitchin.invariants import INFINITY, is_infinite
from hitchin.linalg import DegenerateError
from hitchin.pants import check_closed_leaf, lambda_gaps_from_invariants

from conftest import SURFACES, fuchsian_invariants_exact_flags, jordan_projection, length_spectrum


def edges_cross(e1, e2):
    """Two boundary chords cross iff each separates the other's endpoints."""
    return separates(e1[0], e1[1], e2[0], e2[1]) and separates(
        e2[0], e2[1], e1[0], e1[1]
    )


class TestBPoint:
    def test_square_folding(self):
        p = BPoint.make(1, 2, 9)  # 1 + 2*3
        assert p.d == 0 and p.a == 7

    def test_square_factor_reduction(self):
        # make keeps the square factor of 8; the key reads sqrt(8) as 2 sqrt(2)
        p = BPoint.make(0, 1, 8)
        assert p.d == 8 and p.b == 1
        assert p == BPoint.make(0, 2, 2) and hash(p) == hash(BPoint.make(0, 2, 2))

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

    def test_one_point_under_radicands_that_differ_by_a_square(self):
        # a fixed point of ac on the twist-1/5 surface, and the same point
        # with a factor 769^2 moved into its radicand
        p = next(x for x in fixed_points(genus2_surface(twist=Fraction(1, 5)).matrix("ac")) if x.d)
        q = BPoint(p.a, p.b / 769, p.d * 769**2)
        assert p == q and hash(p) == hash(q)
        assert p != BPoint(p.a, -p.b, p.d) and p != BPoint(p.a, p.b / 769, 2)
        assert points_equal(p, q) and points_equal(q, p)
        # the exact comparison reads both radicands
        r = BPoint(p.a + Fraction(1, 10**40), p.b / 769, p.d * 769**2)
        assert fuchsian._cmp_exact(p, q) == fuchsian._cmp_exact(q, p) == 0
        assert fuchsian._cmp_exact(p, r) == -1 and fuchsian._cmp_exact(r, p) == 1

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


#: oracle precision: enough digits for heights up to 10^450 and gaps down
#: to 10^-400 of the magnitude
ORACLE = Context(prec=1200)


def oracle_value(p):
    """a + b sqrt(d) of a finite point to ORACLE precision."""

    def dec(x):
        return ORACLE.divide(x.numerator, x.denominator)

    return ORACLE.add(dec(p.a), ORACLE.multiply(dec(p.b), ORACLE.sqrt(p.d)))


def oracle_cmp(p, q):
    """Sign of p - q at 1200 digits; differences below 10^-1000 of the
    magnitude count as zero (the strategies never make such gaps)."""
    x, y = oracle_value(p), oracle_value(q)
    diff = ORACLE.subtract(x, y)
    scale = max(abs(x), abs(y), ORACLE.create_decimal("1e-330"))
    if abs(diff) <= ORACLE.multiply(scale, ORACLE.create_decimal("1e-1000")):
        return 0
    return 1 if diff > 0 else -1


def oracle_cyclic(p, q, r):
    """Cyclic order from the oracle's sorted order (infinity last)."""
    pts = [p, q, r]

    def key(i):
        return (1, 0) if is_infinite(pts[i]) else (0, oracle_value(pts[i]))

    order = sorted(range(3), key=key)
    return 1 if order in ([0, 1, 2], [1, 2, 0], [2, 0, 1]) else -1


NON_SQUARES = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 101, 9973]


@st.composite
def rationals(draw, lo=-(10**12), hi=10**12, den=10**12):
    return Fraction(draw(st.integers(lo, hi)), draw(st.integers(1, den)))


@st.composite
def points(draw, scale=Fraction(1)):
    """Finite points a + b sqrt(d), a third of them rational."""
    a = draw(rationals()) * scale
    if draw(st.integers(0, 2)) == 0:
        return BPoint.make(a)
    b = draw(rationals().filter(bool)) * scale
    return BPoint.make(a, b, draw(st.sampled_from(NON_SQUARES)))


@st.composite
def near_ties(draw, scale=Fraction(1)):
    """(p, q) with q - p tiny and nonzero: same field shifted by eps, or
    another field with the rational part rounded to k digits of p."""
    p = draw(points(scale))
    k = draw(st.integers(15, 300))
    if draw(st.booleans()):
        eps = Fraction(draw(st.sampled_from([-1, 1])), 10**k) * scale
        return p, BPoint(p.a + eps, p.b, p.d)
    b = draw(rationals().filter(bool)) * scale
    d = draw(st.sampled_from(NON_SQUARES))
    rest = ORACLE.subtract(
        oracle_value(p), ORACLE.multiply(ORACLE.divide(b.numerator, b.denominator), ORACLE.sqrt(d))
    )
    unit = Fraction(1, 10**k) * scale
    a = Fraction(round(Fraction(rest) / unit)) * unit
    return p, BPoint.make(a, b, d)


@st.composite
def equal_pairs(draw, scale=Fraction(1)):
    """One value stored two ways: b sqrt(s^2 d) unreduced against s b sqrt(d)."""
    a = draw(rationals()) * scale
    b = draw(rationals().filter(bool)) * scale
    d = draw(st.sampled_from(NON_SQUARES))
    s = draw(st.integers(2, 9))
    return BPoint(a, b, d * s * s), BPoint(a, s * b, d)


#: heights beyond the float range: the conversion raises OverflowError
HUGE = Fraction(10**400)
#: values at the subnormal scale
SUBNORMAL = Fraction(1, 10**320)

#: Near-ties whose float difference errs against the true sign by 3.98 and
#: 2.99 u (|a_p| + |b_p| sqrt(d_p) + |a_q| + |b_q| sqrt(d_q)), u = 2^-53:
#: every rounding in p errs upward (the conversion of a d beyond 2^53 in the
#: first), and q was searched for a large downward error.  The true
#: difference p - q is negative, about 10^-25 of the magnitude.
ADVERSARIAL = [
    (
        BPoint(
            Fraction(-49, 104857600),
            Fraction(451820068004212951, 450359962737049600),
            18486523820612913193,
        ),
        BPoint(
            Fraction(-48701393120852357211883388279, 10**35),
            Fraction(452062378005681349, 214748364800),
            4198844,
        ),
    ),
    (
        BPoint(
            Fraction(-49, 6710886400),
            Fraction(451308281118499051, 450359962737049600),
            4503600164234487,
        ),
        BPoint(
            Fraction(-77157414295475346057244349, 10**35),
            Fraction(499246895088118049, 13743895347200),
            3427487,
        ),
    ),
]


def check_cmp(p, q):
    expected = oracle_cmp(p, q)
    assert cmp_points(p, q) == expected
    assert cmp_points(q, p) == -expected
    # the fallback on its own, whether or not the filter needed it here
    assert fuchsian._cmp_exact(p, q) == expected


class TestFilteredComparison:
    """``cmp_points`` and ``cyclic_order`` against a 1200-digit oracle."""

    @given(points(), points())
    @settings(max_examples=150, deadline=None)
    def test_random_pairs(self, p, q):
        check_cmp(p, q)

    @given(near_ties())
    @settings(max_examples=150, deadline=None)
    def test_near_ties(self, pair):
        check_cmp(*pair)

    @given(equal_pairs())
    @settings(max_examples=60, deadline=None)
    def test_equal_points_stored_two_ways(self, pair):
        p, q = pair
        assert cmp_points(p, q) == 0 and cmp_points(q, p) == 0
        assert points_equal(p, q)

    def test_equal_radicals(self):
        assert cmp_points(BPoint(Fraction(0), Fraction(1), 8), BPoint.make(0, 2, 2)) == 0
        assert cmp_points(BPoint(Fraction(3), Fraction(0), 5), BPoint.make(3)) == 0

    @given(near_ties(scale=HUGE))
    @settings(max_examples=40, deadline=None)
    def test_heights_beyond_float_range(self, pair):
        check_cmp(*pair)

    def test_radicand_beyond_float_range(self):
        d = 10**400 + 1
        p = BPoint(Fraction(0), Fraction(1), d)
        q = BPoint(Fraction(10**200), Fraction(0), 0)
        assert cmp_points(p, q) == 1 and cmp_points(q, p) == -1

    @given(near_ties(scale=SUBNORMAL))
    @settings(max_examples=100, deadline=None)
    def test_subnormal_near_ties(self, pair):
        check_cmp(*pair)

    @given(equal_pairs(scale=SUBNORMAL))
    @settings(max_examples=40, deadline=None)
    def test_subnormal_equal_points(self, pair):
        assert cmp_points(*pair) == 0

    @pytest.mark.parametrize("pair", ADVERSARIAL)
    def test_adversarial_rounding(self, pair):
        p, q = pair
        assert oracle_cmp(p, q) == -1
        check_cmp(p, q)
        neg = [BPoint(-x.a, -x.b, x.d) for x in pair]
        check_cmp(*neg)

    @given(near_ties(), points(), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_cyclic_order(self, pair, r, slot):
        pts = [*pair, r]
        if slot < 3:
            pts[slot] = INFINITY
        finite = [x for x in pts if not is_infinite(x)]
        tied = any(
            oracle_cmp(x, y) == 0 for i, x in enumerate(finite) for y in finite[i + 1 :]
        )
        if tied:
            with pytest.raises(DegenerateError):
                cyclic_order(*pts)
            return
        expected = oracle_cyclic(*pts)
        assert cyclic_order(*pts) == expected
        assert cyclic_order(pts[1], pts[2], pts[0]) == expected
        assert cyclic_order(pts[1], pts[0], pts[2]) == -expected

    def test_fallback_counter(self):
        separated = [BPoint.make(0, 1, 2), BPoint.make(1, 1, 3), BPoint.rational(Fraction(7, 2))]
        before = fuchsian.exact_fallbacks
        assert cmp_points(separated[0], separated[1]) == -1
        assert cyclic_order(*separated) == 1
        assert fuchsian.exact_fallbacks == before
        # one point under radicands that differ by a square: equal as BPoints
        assert points_equal(BPoint(Fraction(0), Fraction(1), 8), BPoint.make(0, 2, 2))
        assert fuchsian.exact_fallbacks == before
        # make folds a square radicand, so sqrt(53^2) is the rational 53
        assert BPoint.make(0, 1, 53**2) == BPoint.rational(53)
        assert fuchsian.exact_fallbacks == before


class TestMoebius:
    def test_action_matches_float(self):
        m = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        p = BPoint.make(Fraction(1, 2), Fraction(1, 3), 5)
        q = mobius(m, p)
        zf = float(p)
        expected = (2 * zf + 1) / (zf + 1)
        assert float(q) == pytest.approx(expected)

    def test_integer_matrix_acts_like_its_rational_multiple(self):
        m = ((Fraction(2, 3), Fraction(1, 5)), (Fraction(1, 7), Fraction(3, 2)))
        scaled = ((140, 42), (30, 315))  # 210 m: the same projective map
        for p in (BPoint.make(Fraction(1, 2), Fraction(1, 3), 5), BPoint.rational(-4), INFINITY):
            assert mobius(scaled, p) == mobius(m, p)
        # infinity goes to a / c exactly, not through a float quotient
        assert mobius(((1, 0), (3, 1)), INFINITY) == BPoint.rational(Fraction(1, 3))

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

    def test_fixed_points_of_an_integer_upper_triangular_matrix(self):
        # c = 0: the finite fixed point b / (a - d) - here -1/3 - is exact
        rep, att = fixed_points(((5, 1), (0, 2)))
        assert rep == BPoint.rational(Fraction(-1, 3))
        assert att == INFINITY
        assert mobius(((5, 1), (0, 2)), rep) == rep

    def test_translation_length(self):
        m = ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(1, 2)))
        assert translation_length(m) == pytest.approx(2 * math.log(2))


def seeded_matrices(count=300):
    """Nonzero 2x2 matrices with seeded rational or integer entries, some
    zero, of either sign and with a common factor more often than not."""
    rng = random.Random(2305)

    def entry():
        x = rng.choice((-1, 0, 1)) * Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        return x if rng.random() < 0.5 else x.numerator * rng.randint(1, 50)

    out = []
    while len(out) < count:
        m = ((entry(), entry()), (entry(), entry()))
        if any(m[0] + m[1]):
            out.append(m)
    return out


class TestCanonical:
    """``canonical``: the primitive integer matrix of a projective class
    whose first nonzero entry is positive."""

    def test_primitive_integer_with_positive_lead(self):
        for m in seeded_matrices():
            (a, b), (c, d) = fuchsian.canonical(m)
            entries = (a, b, c, d)
            assert all(type(x) is int for x in entries), m
            assert math.gcd(*entries) == 1, m
            assert next(x for x in entries if x) > 0, m

    def test_idempotent(self):
        for m in seeded_matrices():
            once = fuchsian.canonical(m)
            assert fuchsian.canonical(once) == once, m

    def test_projectively_equal_to_the_input(self):
        for m in seeded_matrices():
            (a, b), (c, d) = fuchsian.canonical(m)
            v, w = m[0] + m[1], (a, b, c, d)
            lead = next(i for i, x in enumerate(v) if x)
            scale = Fraction(w[lead]) / v[lead]
            assert scale and all(y == scale * x for x, y in zip(v, w)), m


def det1_matrices(count=200):
    """Seeded hyperbolic SL(2,Q) matrices with entries of height up to 10^4."""
    rng = random.Random(2406)
    out = []
    while len(out) < count:
        a, b, c = (Fraction(rng.randint(-(10**4), 10**4), rng.randint(1, 10**4)) for _ in range(3))
        if a:
            m = ((a, b), (c, (1 + b * c) / a))
            if is_hyperbolic(m):
                out.append(m)
    return out


def det1_words(surface):
    """word -> its det-1 matrix: the product of the generators scaled to
    determinant 1, with adjugates for capital letters, each word extending
    the product of its prefix."""
    gens = {}
    for letter, g in surface.generators.items():
        root = math.isqrt(int(mat2_det(g)))
        gens[letter] = tuple(tuple(Fraction(x) / root for x in row) for row in g)
        gens[letter.upper()] = mat2_adj(gens[letter])
    products = {"": ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))}

    def product(word):
        if word not in products:
            products[word] = mat2_mul(product(word[:-1]), gens[word[-1]])
        return products[word]

    return product


class TestDet1Representative:
    """A canonical matrix gives the fixed points and translation length of
    its det-1 representative, bit for bit."""

    @staticmethod
    def assert_same_reading(m):
        g = canonical(m)
        assert fixed_points(g) == fixed_points(m), m
        assert translation_length(g).hex() == translation_length(m).hex(), m

    def test_seeded_det1_matrices(self):
        for m in det1_matrices():
            self.assert_same_reading(m)

    @pytest.mark.parametrize("name", SURFACES)
    def test_surface_words(self, name):
        surface = genus2_surface(**SURFACES[name])
        words = {*surface.slot_words.values(), *surface.curve_words.values()}
        words |= {"".join(w) for k in range(1, 7) for w in itertools.product("abcd", repeat=k)}
        det1 = det1_words(surface)
        for word in sorted(words):
            m = det1(word)
            assert surface.matrix(word) == canonical(m), word
            self.assert_same_reading(m)


def contracts(m, p):
    """det m / (c p + d)^2 < 1 exactly: the map m, with det m > 0, contracts
    a neighbourhood of its finite fixed point p."""
    (a, b), (c, d) = m
    t = BPoint(c * p.a + d, c * p.b, p.d)
    return BPoint.make(t.a**2 + t.b**2 * t.d - mat2_det(m), 2 * t.a * t.b, t.d).sign() > 0


class TestCanonicalPoint:
    """A point's identity is its key (a, sign b, b^2 d): ``make`` folds a
    square radicand and reduces no other, and ``fixed_points`` reads the
    attracting point off the sign of the trace."""

    @given(
        rationals(),
        rationals(),
        st.one_of(st.integers(1, 10**6), st.integers(1, 10**3).map(lambda r: r * r)),
        st.integers(1, 10**4),
    )
    @settings(max_examples=200, deadline=None)
    def test_make_leaves_no_square_radicand(self, a, b, d, s):
        p = BPoint.make(a, b, d)
        assert p.d == 0 or math.isqrt(p.d) ** 2 != p.d
        if math.isqrt(d) ** 2 == d:
            assert p == BPoint.rational(a + b * math.isqrt(d))
        # one point under radicands that differ by a square
        q, w = BPoint.make(a, b * s, d), BPoint.make(a, b, d * s * s)
        assert q == w and hash(q) == hash(w)

    @pytest.mark.parametrize("k", [-7, -1, 2, 3, 10**12 + 39])
    def test_fixed_points_ignore_scale(self, k):
        surface = genus2_surface(twist=Fraction(1, 5))
        words = ("".join(w) for n in (1, 2, 3) for w in itertools.product("abcdABCD", repeat=n))
        mats = [m for m in map(surface.matrix, words) if is_hyperbolic(m)]
        mats += det1_matrices(50) + [((5, 1), (0, 2)), ((2, 1), (0, 5))]
        for m in mats:
            km = tuple(tuple(k * x for x in row) for row in m)
            assert fixed_points(km) == fixed_points(m), (m, k)

    @pytest.mark.parametrize(
        "m",
        [((2, 1), (1, 1)), ((1, 3), (-2, -5)), ((-2, -1), (-1, -1)), ((5, 1), (0, 2)), ((2, 1), (0, 5))],
        ids=["tr>2", "tr<-2", "tr<-2-negated", "c=0-infinity-attracting", "c=0-finite-attracting"],
    )
    def test_attracting_point_contracts(self, m):
        rep, att = fixed_points(m)
        inv = mat2_adj(m)
        for target, g, g_inv in ((att, m, inv), (rep, inv, m)):
            if not is_infinite(target):
                assert contracts(g, target) and not contracts(g_inv, target)
            z = BPoint.rational(Fraction(1, 7))
            for _ in range(40):
                z = mobius(g, z)
            if is_infinite(target):
                assert abs(float(z)) > 1e12
            else:
                assert abs(float(z) - float(target)) < 1e-12


class TestGenus2Surface:
    def test_relation_holds_exactly(self, surface):
        # the relator is the identity of PSL(2,Q), whose canonical matrix is I
        rel = canonical_mul(surface.matrix("abAB"), surface.matrix("cdCD"))
        assert rel == ((1, 0), (0, 1))

    def test_pants_words_hyperbolic(self, surface):
        for (j, s), word in surface.slot_words.items():
            m = surface.matrix(word)
            root = math.isqrt(mat2_det(m))
            assert is_hyperbolic(m)
            assert root * root == mat2_det(m) and abs(mat2_trace(m)) > 2 * root

    def test_pants_relation(self, surface):
        for j in (0, 1):
            a = surface.matrix(surface.slot_words[(j, "A")])
            b = surface.matrix(surface.slot_words[(j, "B")])
            c = surface.matrix(surface.slot_words[(j, "C")])
            assert canonical_mul(canonical_mul(b, a), c) == ((1, 0), (0, 1))

    @pytest.mark.parametrize("name", SURFACES)
    def test_slot_table_matches_the_words(self, name):
        surface = genus2_surface(**SURFACES[name])
        assert sorted(surface.slots) == sorted((j, s.lower()) for j, s in surface.slot_words)
        for (j, letter), slot in surface.slots.items():
            assert slot.mat == surface.matrix(surface.slot_words[j, letter.upper()])
            assert slot.inv == canonical_adj(slot.mat)
            assert slot.conj == surface.matrix(surface.slot_conjugators[j, letter.upper()])
            assert (slot.rep, slot.att) == fixed_points(slot.mat)
            partner = surface.slots[slot.partner]
            assert partner.partner == (j, letter)
            transfer_inv = canonical_adj(slot.transfer)
            assert canonical_mul(canonical_mul(slot.transfer, partner.mat), transfer_inv) == slot.inv
            assert mobius(slot.transfer, partner.rep) == slot.att

    def test_handle_curves_have_equal_length(self, surface):
        lens = length_spectrum(surface)
        assert lens[0] == pytest.approx(lens[1])
        assert lens[0] == pytest.approx(2 * math.acosh(1.5))
        assert lens[2] == pytest.approx(2 * math.acosh(4.5))

    def test_twist_deformation(self):
        s = genus2_surface(twist=Fraction(1, 5))
        assert length_spectrum(s)[2] == pytest.approx(2 * math.acosh(4.5))

    def test_rejects_thin_input(self):
        # tr[a,b] = -2 at the cusp: not a closed one-holed torus
        with pytest.raises(SurfaceError):
            genus2_surface(a1=((2, 1), (1, 1)), b1=((1, 1), (1, 2)))

    def test_rejects_twist_outside_axis(self):
        with pytest.raises(SurfaceError):
            genus2_surface(twist=Fraction(100))

    @pytest.mark.parametrize(
        "change, message",
        [
            # the inverse commutator is hyperbolic but breaks C = A^-1 B^-1
            ({"slot_words": {(0, "C"): "BAba"}}, "slot words violate"),
            ({"slot_conjugators": {(0, "B"): ""}}, "not the advertised conjugate"),
        ],
    )
    def test_rejects_broken_slot_data(self, surface, change, message):
        changed = {name: {**getattr(surface, name), **entries} for name, entries in change.items()}
        with pytest.raises(SurfaceError, match=message):
            dataclasses.replace(surface, **changed)

    @pytest.mark.parametrize(
        "generator",
        [((2, 0), (0, 1)), ((-1, 0), (0, 4)), ((1, 1), (1, 1)), ((Fraction(1, 2), 1), (1, 3))],
    )
    def test_rejects_generator_of_non_square_determinant(self, surface, generator):
        # determinants 2, -4, 0 and 1/2: only a positive rational square
        # makes a rational multiple of an SL(2,Q) element
        generators = {**surface.generators, "a": generator}
        with pytest.raises(SurfaceError, match="positive square determinant"):
            dataclasses.replace(surface, generators=generators)

    def test_rational_multiples_give_the_same_surface(self, surface):
        scaled = {
            letter: [[Fraction(-2, 3) * x for x in row] for row in g]
            for letter, g in surface.generators.items()
        }
        assert dataclasses.replace(surface, generators=scaled).generators == surface.generators

    def test_tracing_evaluates_only_the_traced_word(self):
        """The surface holds its slot matrices and the tracer builds its
        curve matrices once, so a trace evaluates one word on the surface,
        the traced one, and the surface keeps nothing per word."""
        from hitchin.tracer import PsiTracer

        s = genus2_surface()
        tracer = PsiTracer(s, n=2)
        for curve in range(s.decomp.num_curves):
            tracer.mesh(curve)
        evaluated = []
        matrix = s.matrix

        def counting(word):
            evaluated.append(word)
            return matrix(word)

        rng = random.Random(50)
        words = set()
        while len(words) < 50:
            w = [rng.choice("abcdABCD")]
            while len(w) < rng.randint(2, 3):
                ch = rng.choice("abcdABCD")
                if ch != w[-1].swapcase():
                    w.append(ch)
            word = "".join(w)
            if word[0] != word[-1].swapcase() and is_hyperbolic(s.matrix(word)):
                words.add(word)
        sizes = {k: len(v) for k, v in vars(s).items() if isinstance(v, dict)}
        s.matrix = counting
        for word in sorted(words):
            tracer.trace(word)
        assert evaluated == sorted(words)
        assert {k: len(v) for k, v in vars(s).items() if isinstance(v, dict)} == sizes

    def test_triangulation_orbit_non_crossing(self, surface):
        # 1-ball sample of edge lifts: exact non-crossing check
        letters = "abcdABCD"
        words = [""] + [ch for ch in letters]
        base = []
        for j in (0, 1):
            av, bv, cv = (surface.slots[j, l].rep for l in "abc")
            base += [(av, bv), (av, cv), (cv, bv)]
            base += [(surface.slots[j, l].rep, surface.slots[j, l].att) for l in "abc"]
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
            assert all(v > 1e-12 for v in report.gap_values.values())

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_gaps_match_symmetric_power_spectrum(self, surface, n):
        # consecutive eigenvalue gaps of the power representation all equal
        # the curve length; cross-checked against the Jordan projection
        from hitchin.flags import sym_power

        invs = fuchsian_invariants(surface, n)
        for j, inv in enumerate(invs):
            gaps = lambda_gaps_from_invariants(inv)[0]
            word = surface.slot_words[(j, "A")]
            big = sym_power(surface.matrix(word), n)
            jp = jordan_projection([[float(x) for x in row] for row in big])
            # the float eigensolver loses digits on the huge conjugated
            # entries as n grows; the exact-length check below is the sharp one
            jp_gaps = [jp[k] - jp[k + 1] for k in range(n - 1)]
            assert list(gaps) == pytest.approx(jp_gaps, abs=10.0 ** (2 * n - 14))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_gaps_equal_curve_length(self, surface, n):
        lens = length_spectrum(surface)
        for inv in fuchsian_invariants(surface, n):
            for g in lambda_gaps_from_invariants(inv)[0]:
                assert g == pytest.approx(lens[0], abs=1e-12)
