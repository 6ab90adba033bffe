r"""Exact Fuchsian surface-group machinery on the upper half-plane boundary.

Boundary points are quadratic irrationals a + b sqrt(D) (or the point at
infinity), so every incidence and cyclic-order decision made by the curve
tracer is exact: float-filtered, exact on fallback.  Fixed points of
rational hyperbolic matrices live in real quadratic fields and rational
Moebius maps preserve them; ``cmp_points`` decides a sign in float64 when a
forward error bound proves it and in exact rational arithmetic otherwise.

The default genus-2 group doubles a one-holed torus group <a, b> with
tr[a, b] < -2 across its boundary axis: the half-turn psi about a rational
point of the axis conjugates [a, b] to its inverse, so (a, b, c, d) with
c = psi a psi^-1, d = psi b psi^-1 satisfies the genus-2 relation
[a, b][c, d] = 1 exactly in PSL(2, Q).  The three pants curves are the two
handle curves and the waist [a, b].

Each group element is stored as its canonical integer matrix
(``canonical``), and ``fixed_points`` reads its points off that matrix.
A point's identity is its canonical key (a, sign b, b^2 d): ``make`` folds
a perfect-square radicand into a and reduces no other radicand, so equal
points are equal ``BPoint``s whatever their radicands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .invariants import INFINITY, is_infinite, shear_index_set, triple_index_set
from .linalg import DegenerateError
from .pants import PantsDecomposition, PantsInvariants, standard_genus2


class SurfaceError(ValueError):
    """Invalid surface-group input (non-hyperbolic words, broken relation)."""


@dataclass(frozen=True)
class BPoint:
    """Boundary point a + b sqrt(d) with a, b rational and d a non-square.

    One point has many forms, (b s, d) and (b, d s^2) alike; equality and
    hashing read the key (a, sign b, b^2 d), which every form shares.
    ``make`` folds a square d into a, so it never returns a rational point
    with b != 0.
    """

    a: Fraction
    b: Fraction
    d: int

    @classmethod
    def make(cls, a, b=Fraction(0), d=0):
        a, b = Fraction(a), Fraction(b)
        if b == 0 or d == 0:
            return cls(a, Fraction(0), 0)
        if d < 0:
            raise SurfaceError("boundary points are real")
        r = math.isqrt(d)
        if r * r == d:
            return cls(a + b * r, Fraction(0), 0)
        return cls(a, b, d)

    @classmethod
    def rational(cls, x):
        return cls.make(Fraction(x))

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return _sgn(a)
        if a == 0:
            return _sgn(b)
        if (a > 0) == (b > 0):
            return _sgn(a)
        s = _sgn(a * a - b * b * self.d)
        return s if a > 0 else -s

    def _key(self):
        b = self.b
        return self.a, _sgn(b * self.d), b * b * self.d

    def __eq__(self, other):
        if not isinstance(other, BPoint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        if self.b == 0:
            return f"BPoint({self.a})"
        return f"BPoint({self.a} + {self.b}*sqrt({self.d}))"


def _sgn(x):
    return (x > 0) - (x < 0)


#: exact fallbacks taken by ``cmp_points`` since import (the filtered
#: path never touches it)
exact_fallbacks = 0

_EPS = 2.0**-53
#: the smallest subnormal float, 2 eta with eta = 2^-1075 the largest
#: absolute rounding error below the normal range
_TINY = 2.0**-1074


def cmp_points(p, q):
    r"""Sign of p - q for finite boundary points, always exact.

    A float64 filter decides first.  With u = 2^-53, each rational
    converts correctly rounded (``numerator / denominator``): relative
    error at most u, or absolute error at most eta = 2^-1075 below the
    normal range.  ``math.sqrt(d)`` is within 1.5 u of sqrt(d) (rounding
    of d, then of the root), the product b * sqrt(d) and the sum
    a + b sqrt(d) add one rounding each, and the final subtraction keeps
    the sign.  So each computed point is within

        2 u |a| + 4.5 u |b| sqrt(d) + eta (2 + sqrt(d))

    of its value (eta alone for a rational point), and the sign of the
    float difference is the exact sign once it exceeds

        5 u (|a_p| + |b_p| sqrt(d_p) + |a_q| + |b_q| sqrt(d_q)) + 2^-1074 (2 + sqrt(d_p) + sqrt(d_q)),

    evaluated in floats from the converted values: the factor 5 leaves
    room for the O(u^2) terms and the rounding of the bound itself, and
    the second term is the underflow floor.  An overflowing conversion
    (``OverflowError``), an infinite or NaN difference, or a difference
    inside the bound -- equal points always are -- takes the exact
    branch, which counts itself in ``exact_fallbacks``.
    """
    pa, pb = p.a, p.b
    qa, qb = q.a, q.b
    try:
        sp, sq = math.sqrt(p.d), math.sqrt(q.d)
        xa = pa.numerator / pa.denominator
        xb = pb.numerator / pb.denominator * sp
        ya = qa.numerator / qa.denominator
        yb = qb.numerator / qb.denominator * sq
        diff = (xa + xb) - (ya + yb)
    except OverflowError:
        return _cmp_exact(p, q)
    bound = 5 * _EPS * (abs(xa) + abs(xb) + abs(ya) + abs(yb)) + _TINY * (2 + sp + sq)
    if diff > bound:
        return 1
    if -diff > bound:
        return -1
    return _cmp_exact(p, q)


def _cmp_exact(p, q):
    """Exact sign of p - q in rational arithmetic: the filter's fallback.

    p - q = u + w with u = (a_p - a_q) + b_p sqrt(d_p) and w = -b_q sqrt(d_q).
    When u and w differ in sign, u + w has the sign of u exactly when
    u^2 - w^2, a point over d_p, has a positive sign.  This holds for any
    two radicands, equal ones included."""
    global exact_fallbacks
    exact_fallbacks += 1
    u = BPoint(p.a - q.a, p.b, p.d)
    su, sw = u.sign(), _sgn(-q.b)
    if su == 0:
        return sw
    if sw == 0:
        return su
    if su == sw:
        return su
    diff2 = BPoint.make(
        (p.a - q.a) ** 2 + p.b * p.b * p.d - q.b * q.b * q.d,
        2 * (p.a - q.a) * p.b,
        p.d,
    )
    return su * diff2.sign()


def points_equal(p, q):
    """p and q are the same boundary point, the point at infinity included:
    two points are equal exactly when their canonical keys are."""
    return p == q


def _cmp_circle(p, q):
    """Sign of p - q in the linear order with the infinite point as maximum."""
    if is_infinite(p):
        return 0 if is_infinite(q) else 1
    if is_infinite(q):
        return -1
    return cmp_points(p, q)


def cyclic_order(p, q, r):
    """+1 if p, q, r are in positive cyclic order on R u {inf}, else -1.

    Raises on coincident points -- callers are responsible for the
    transversality preconditions.  Each of the three pairwise comparisons
    runs once: p < q < r and its two rotations are the even orderings,
    so the order is the sign -[p:q][q:r][p:r] of the comparison product.
    """
    pq = _cmp_circle(p, q)
    qr = _cmp_circle(q, r)
    pr = _cmp_circle(p, r)
    if pq == 0 or qr == 0 or pr == 0:
        raise DegenerateError("cyclic order of coincident boundary points")
    return -pq * qr * pr


def in_arc(x, u, v):
    """x lies strictly inside the positively oriented arc from u to v."""
    return cyclic_order(u, x, v) == 1


def separates(u, v, x, y):
    """The chord {u, v} separates x from y on the circle."""
    return in_arc(x, u, v) != in_arc(y, u, v)


def boundary_cross_ratio(p1, p2, p3, p4):
    """Classical cross ratio (p1-p3)(p4-p2) / ((p1-p2)(p4-p3)) in floats.

    The n=2 case of ``invariants.cross_ratio`` on the lines (p, 1): the
    point at infinity is the line (1, 0) and contributes a cancelling
    factor 1.  A vanishing denominator alone gives ``math.inf``.
    """

    def diff(p, q):
        if is_infinite(p) or is_infinite(q):
            return 1.0
        return float(p) - float(q)

    num = diff(p1, p3) * diff(p4, p2)
    den = diff(p1, p2) * diff(p4, p3)
    if den == 0:
        if num == 0:
            raise DegenerateError("cross ratio of coincident boundary points")
        return math.inf
    return num / den


# ---------------------------------------------------------------------------
# 2x2 rational matrices and words


def mat2_mul(m, n):
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def mat2_adj(m):
    """The adjugate, det(m) m^-1: the inverse of a det-1 matrix."""
    (a, b), (c, d) = m
    return ((d, -b), (-c, a))


def mat2_det(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def mat2_trace(m):
    return m[0][0] + m[1][1]


def _det_root(m):
    """The rational r > 0 with det m = r^2, or None."""
    det = Fraction(mat2_det(m))
    r = Fraction(math.isqrt(det.numerator), math.isqrt(det.denominator)) if det > 0 else 0
    return r if r and r * r == det else None


# ---------------------------------------------------------------------------
# group elements up to scale
#
# The Moebius action is projective, so each group element is stored as the one
# primitive integer matrix on its projective line whose first nonzero entry is
# positive: the same element is always the same tuple of ints.


def canonical(m):
    """The canonical integer matrix of a nonzero rational or integer 2x2 matrix."""
    v = m[0] + m[1]
    scale = math.lcm(*(x.denominator for x in v))
    ints = [x.numerator * (scale // x.denominator) for x in v]
    g = math.gcd(*ints)
    if (ints[0] or ints[1] or ints[2] or ints[3]) < 0:
        g = -g
    a, b, c, d = (x // g for x in ints)
    return ((a, b), (c, d))


def canonical_mul(m, n):
    """The canonical matrix of the product m n."""
    return canonical(mat2_mul(m, n))


def canonical_adj(m):
    """The canonical matrix of the adjugate of m, which acts as m^-1."""
    return canonical(mat2_adj(m))


def is_hyperbolic(m):
    tr = mat2_trace(m)
    return tr * tr > 4 * mat2_det(m)


def mobius(m, p):
    """Image of a boundary point under a rational or integer Moebius matrix."""
    (a, b), (c, d) = m
    if is_infinite(p):
        if c == 0:
            return INFINITY
        return BPoint.rational(Fraction(a, c))
    na, nb = a * p.a + b, a * p.b
    da, db = c * p.a + d, c * p.b
    if da == 0 and db == 0:
        return INFINITY
    norm = da * da - db * db * p.d
    # d is a non-square, so the denominator norm vanishes only at zero
    return BPoint.make(
        (na * da - nb * db * p.d) / norm, (nb * da - na * db) / norm, p.d
    )


def fixed_points(m):
    """(repelling, attracting) fixed points of a hyperbolic matrix.

    At a fixed point p, c p + d is the eigenvalue (tr +- sqrt(disc)) / 2 of
    m, and the derivative there is det / (c p + d)^2.  So the attracting
    point is the one whose eigenvalue is the larger in modulus: the root
    whose sqrt(disc) carries the sign of the trace.  Any rational multiple
    of m gives the same points.
    """
    if not is_hyperbolic(m):
        raise SurfaceError("fixed points of a non-hyperbolic matrix")
    (a, b), (c, d) = m
    if c == 0:
        finite = BPoint.rational(Fraction(b) / (d - a))
        # infinity is attracting iff |a| > |d|
        if a * a > d * d:
            return finite, INFINITY
        return INFINITY, finite
    disc = (a - d) ** 2 + 4 * b * c
    q = disc.denominator
    half = Fraction(a - d, 2 * c)
    rad = Fraction(1, 2 * c * q)
    if a + d < 0:
        rad = -rad
    d_int = disc.numerator * q
    return BPoint.make(half, -rad, d_int), BPoint.make(half, rad, d_int)


def translation_length(m):
    """Hyperbolic translation length 2 arccosh(|tr| / (2 sqrt(det)))."""
    # an exact root of det keeps the quotient exact until it is rounded once
    r = _det_root(m) or math.sqrt(float(mat2_det(m)))
    tr = abs(float(mat2_trace(m) / r))
    if tr <= 2:
        raise SurfaceError("translation length of a non-hyperbolic matrix")
    return 2.0 * math.acosh(tr / 2.0)


# ---------------------------------------------------------------------------
# the surface


@dataclass
class FuchsianSurfaceData:
    """A Fuchsian genus-g group with pants words and slot bookkeeping.

    ``generators`` maps lowercase letters to rational multiples of SL(2,Q)
    elements (positive square determinant), kept as canonical matrices;
    capital letters act as inverses in words, whose matrices are canonical
    too.  ``slot_words[(j, s)]`` is the
    boundary word of pants j at slot s, equal in PSL(2,Q) to
    delta * w^(+-1) * delta^(-1) where w is the curve word of the attached
    curve and delta = ``slot_conjugators[(j, s)]``.
    """

    genus: int
    generators: dict
    decomp: PantsDecomposition
    curve_words: dict
    slot_words: dict
    slot_conjugators: dict

    def __post_init__(self):
        self._slot_fixed = {}
        self._validate()

    # -- word evaluation ----------------------------------------------------

    def matrix(self, word):
        m = ((1, 0), (0, 1))
        for ch in word:
            g = self.generators[ch.lower()]
            m = canonical_mul(m, g if ch.islower() else canonical_adj(g))
        return m

    def slot_matrix(self, pants, slot):
        return self.matrix(self.slot_words[(pants, slot)])

    # -- triangulation anchors ----------------------------------------------

    def _slot_fixed_points(self, pants, letter):
        """(repelling, attracting) fixed points of the slot word, cached."""
        key = (pants, letter.upper())
        if key not in self._slot_fixed:
            self._slot_fixed[key] = fixed_points(self.slot_matrix(*key))
        return self._slot_fixed[key]

    def base_vertex(self, pants, letter):
        """Repelling fixed point of the slot word: a_j^-, b_j^-, or c_j^-."""
        return self._slot_fixed_points(pants, letter)[0]

    def slot_vertex_attracting(self, pants, letter):
        """Attracting fixed point of the slot word: a_j^+, b_j^+, or c_j^+."""
        return self._slot_fixed_points(pants, letter)[1]

    # -- validation ----------------------------------------------------------

    def _validate(self):
        for letter, m in self.generators.items():
            m = [[Fraction(x) for x in row] for row in m]
            if _det_root(m) is None:
                raise SurfaceError(f"generator {letter!r} needs a positive square determinant")
            self.generators[letter] = canonical(m)
        for (j, s), word in self.slot_words.items():
            if not is_hyperbolic(self.matrix(word)):
                raise SurfaceError(f"slot word {word!r} is not hyperbolic")
        # pants relation C = A^-1 B^-1 per pants, in PSL(2,Q): every operand here
        # and below is canonical, so projectively equal elements are equal tuples
        for j in range(self.decomp.num_pants):
            a = self.matrix(self.slot_words[(j, "A")])
            b = self.matrix(self.slot_words[(j, "B")])
            c = self.matrix(self.slot_words[(j, "C")])
            if canonical_mul(canonical_adj(a), canonical_adj(b)) != c:
                raise SurfaceError(f"pants {j}: slot words violate C = A^-1 B^-1")
        # slot words must be the advertised conjugates of the curve words
        for (j, s), word in self.slot_words.items():
            cid, aligned = self.decomp.slot_curve(j, s)
            delta = self.matrix(self.slot_conjugators[(j, s)])
            w = self.matrix(self.curve_words[cid])
            if not aligned:
                w = canonical_adj(w)
            expect = canonical_mul(canonical_mul(delta, w), canonical_adj(delta))
            if self.matrix(word) != expect:
                raise SurfaceError(
                    f"slot ({j}, {s}): word is not the advertised conjugate"
                )
        self._validate_embedding()

    def _validate_embedding(self):
        """Cyclic-order sanity of the per-pants vertex pattern.

        Each pants must see its seven marked boundary points in a coherent
        circular pattern (the spinning-triangle picture); all pants must
        share the same chirality.
        """
        chirality = None
        for j in range(self.decomp.num_pants):
            a_m = self.base_vertex(j, "a")
            b_m = self.base_vertex(j, "b")
            c_m = self.base_vertex(j, "c")
            a_p = self.slot_vertex_attracting(j, "a")
            ac_m = mobius(self.matrix(self.slot_words[(j, "A")]), c_m)
            sign = cyclic_order(a_m, c_m, b_m)
            pattern = [a_m, c_m, b_m, ac_m, a_p]
            for i in range(len(pattern) - 2):
                if cyclic_order(pattern[i], pattern[i + 1], pattern[i + 2]) != sign:
                    raise SurfaceError(
                        f"pants {j}: boundary points out of cyclic pattern"
                    )
            if chirality is None:
                chirality = sign
            elif chirality != sign:
                raise SurfaceError("pants have inconsistent chirality")


def fuchsian_invariants(surface, n):
    """Shear and triangle invariants of the n-dimensional Fuchsian point.

    In closed form.  The point is the surface group followed by the
    irreducible representation of PSL(2,R), whose flags are the osculating
    flags of the rational normal curve.  PGL(2,R) moves any three boundary
    points to any other three, so each triple ratio is one constant, 1:
    tau = tau' = 0.  Projecting the curve from the base of a shear cross
    ratio (osculating planes at the edge ends of dimensions one less than
    the two nonzero indices, which sum to n) lowers its degree from n-1 to
    1, a Moebius map: every sigma^(n) is the n=2 shear of its edge.
    """
    invariants = []
    for j in range(surface.decomp.num_pants):
        a, b, c = (surface.base_vertex(j, letter) for letter in "abc")
        edges = {
            "ab": (a, c, mobius(surface.slot_matrix(j, "A"), c), b),
            "ac": (c, b, mobius(surface.slot_matrix(j, "C"), b), a),
            "cb": (b, a, mobius(surface.slot_matrix(j, "B"), a), c),
        }
        shear = {}
        for name, quad in edges.items():
            cr = boundary_cross_ratio(*quad)
            if not cr < 0:
                raise SurfaceError(f"pants {j}, edge {name}: shear cross ratio {cr} >= 0")
            shear[name] = math.log(-cr)
        sigma = {
            (x, y, z): shear["ab" if z == 0 else "ac" if y == 0 else "cb"]
            for (x, y, z) in shear_index_set(n)
        }
        tau = {idx: 0.0 for idx in triple_index_set(n)}
        invariants.append(
            PantsInvariants(n=n, tau=tau, tau_prime=dict(tau), sigma=sigma)
        )
    return invariants


def genus2_surface(a1=None, b1=None, twist=Fraction(0)):
    """The documented genus-2 surface: a doubled one-holed torus.

    ``a1``, ``b1`` generate a one-holed torus group (tr[a1,b1] < -2 is
    required); the second handle is the conjugate of the first by the
    half-turn about the axis point of [a1,b1] at horizontal offset
    ``twist`` from the axis center.  ``a1`` and ``b1`` must have
    determinant 1, and the genus-2 relator's canonical matrix is the
    identity: the relation holds on the nose in PSL(2,Q).
    """
    a1 = [[Fraction(x) for x in row] for row in (((2, 1), (1, 1)) if a1 is None else a1)]
    b1 = [[Fraction(x) for x in row] for row in (((1, 2), (1, 3)) if b1 is None else b1)]
    for name, m in (("a1", a1), ("b1", b1)):
        if mat2_det(m) != 1:
            raise SurfaceError(f"{name} must have determinant 1")
    comm = mat2_mul(mat2_mul(a1, b1), mat2_mul(mat2_adj(a1), mat2_adj(b1)))
    if mat2_trace(comm) >= -2:
        raise SurfaceError(
            f"tr[a1,b1] = {mat2_trace(comm)} >= -2: not a one-holed torus group"
        )
    # the waist axis, a semicircle: real, since comm is hyperbolic
    (p, q), (r, s) = comm
    if r == 0:
        raise SurfaceError("axis through infinity has no finite center")
    center = Fraction(p - s, 2 * r)
    radius2 = center * center + Fraction(q, r)
    u = center + Fraction(twist)
    v2 = radius2 - (u - center) ** 2
    if v2 <= 0:
        raise SurfaceError("twist offset leaves the waist axis")
    psi = ((u, -(u * u + v2)), (1, -u))

    def conj(m):
        return canonical_mul(canonical_mul(psi, m), canonical_adj(psi))

    gens = {"a": canonical(a1), "b": canonical(b1), "c": conj(a1), "d": conj(b1)}
    surface = FuchsianSurfaceData(
        genus=2,
        generators=gens,
        decomp=standard_genus2(),
        curve_words={0: "a", 1: "c", 2: "abAB"},
        slot_words={
            (0, "A"): "A",
            (0, "B"): "baB",
            (0, "C"): "abAB",
            (1, "A"): "C",
            (1, "B"): "dcD",
            (1, "C"): "cdCD",
        },
        slot_conjugators={
            (0, "A"): "",
            (0, "B"): "b",
            (0, "C"): "",
            (1, "A"): "",
            (1, "B"): "d",
            (1, "C"): "",
        },
    )
    if surface.matrix("abABcdCD") != ((1, 0), (0, 1)):
        raise SurfaceError("genus-2 relation failed")  # pragma: no cover
    return surface
