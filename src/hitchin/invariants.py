r"""Projective invariants of flag configurations.

The cross ratio of four lines based at an (n-2)-plane M is the wedge
expression

    (L1, L2, L3, L4)_M = [M^L1^L3][M^L4^L2] / ([M^L1^L2][M^L4^L3])

evaluated through the determinant, with values in R plus a genuine point
at infinity.  The triple ratio T_{x,y,z} of a generic flag triple is the
six-wedge expression on compatible bases.  Both are insensitive to all
basis and representative choices, which the test suite checks rather than
assumes.

Every wedge of one ratio contains the same base: M for a cross ratio,
F^(x-1) + G^(y-1) + H^(z-1) for a triple ratio.  So exact values come from
reducing the moving vectors modulo that base once
(``linalg.reduce_modulo``) and taking 2 x 2 or 3 x 3 minors of their
integer coordinates, the same rationals as the n x n wedges.  Both the
base rows and the moving vectors are read off each exact flag's own
compatible basis, so no flag level is reduced on the way.  Float input
keeps the n x n LU wedges, since the same reduction in floats rounds
differently and moves float64 scan values near the edge of the domain by
up to 7e-9 relative (n = 3, tau(1,1,1) ray), more than the 1e-9 the
recorded float64 references are checked to.  A float cross ratio stacks
its distinct wedges into one ``linalg.dets`` call, which gives each the
bits of its own LU determinant.
"""

from __future__ import annotations

from fractions import Fraction

from .linalg import (
    FLOAT64,
    BackendError,
    DegenerateError,
    Subspace,
    det3,
    dets,
    mat_vec,
    reduce_modulo,
    wedge_det,
)


class Infinity:
    """The point at infinity of the extended cross-ratio line; ``INFINITY``
    is its only instance, so identity is equality."""

    def __repr__(self):
        return "INFINITY"


INFINITY = Infinity()


def is_infinite(value):
    return value is INFINITY


def cross_ratio(lines, base):
    """Cross ratio of four lines based at an (n-2)-dimensional subspace.

    ``lines`` are four 1-dimensional :class:`Subspace` objects (or raw
    vectors), ``base`` a Subspace of dimension n-2 containing none of them,
    or n-2 raw rows.  Returns a scalar or :data:`INFINITY`.

    Exact input is reduced modulo the base (``linalg.reduce_modulo``): in
    R^n / M the four lines are points of a plane, and the value is their
    classical cross ratio from 2 x 2 minors of integer coordinates.  The
    base's own factor and each line's scaling appear as often in the
    numerator as in the denominator, so this is the same rational as the
    n x n wedge formula.  Float input keeps the n x n LU wedge
    determinants, stacked into one ``linalg.dets`` call with the same bits
    as one call each: the reduction in floats rounds differently, and the
    recorded float64 reference values depend on the LU rounding.  A
    rank-deficient exact base raises DegenerateError naming its rank.
    """
    return next(cross_ratios(lines, base, ((0, 1, 2, 3),)))


def cross_ratios(lines, base, orders):
    """:func:`cross_ratio` of the same four lines in several orders.

    ``orders`` holds permutations of (0, 1, 2, 3).  The values come one by
    one, so a caller that checks each sees the errors in order; exact input
    is reduced modulo the base once for all of them, and float input takes
    the distinct wedges of all orders from one stacked determinant call
    (two orders that share a wedge, as ``k_edge``'s do, compute it once).
    """
    if len(lines) != 4:
        raise DegenerateError("cross ratio needs exactly four lines")
    reps = [l.line_vector() if isinstance(l, Subspace) else tuple(l) for l in lines]
    n = len(reps[0])
    if isinstance(base, Subspace):
        mrows = list(base.basis)
        exact = base.backend.exact and _is_exact(reps)
    else:
        mrows = [tuple(v) for v in base]
        exact = _is_exact(reps + mrows)
    if len(mrows) != n - 2:
        raise DegenerateError(
            f"cross ratio base must have dimension {n - 2}, got {len(mrows)}"
        )
    if exact:
        pts = reduce_modulo(reps, mrows)
        for order in orders:
            yield _plane_cross_ratio(*(pts[i] for i in order))
        return
    for v in mrows + reps:
        if len(v) != n:
            raise BackendError(f"wedge of {n} vectors needs dimension {n}, got {len(v)}")
    # the wedges [M^Li^Lj] of all orders, each distinct (i, j) once, from one
    # stacked LU call
    pairs = dict.fromkeys(p for a, b, c, d in orders for p in ((a, c), (d, b), (a, b), (d, c)))
    w = dict(zip(pairs, dets([mrows + [reps[i], reps[j]] for i, j in pairs], FLOAT64)))
    for a, b, c, d in orders:
        num = w[a, c] * w[d, b]
        den = w[a, b] * w[d, c]
        # a denominator at rounding scale is a true infinity
        scale = max(abs(num), abs(den))
        if abs(den) <= 1e-13 * scale:
            if abs(num) <= 1e-13 * scale or scale == 0:
                raise DegenerateError(
                    "cross ratio undefined: three of the hyperplanes M+L_i agree"
                )
            yield INFINITY
        else:
            yield num / den


def _is_exact(rows):
    return all(isinstance(x, (Fraction, int)) for row in rows for x in row)


def _plane_cross_ratio(p1, p2, p3, p4):
    """[p1 p3][p4 p2] / ([p1 p2][p4 p3]) for integer points of the plane."""

    def w(u, v):
        return u[0] * v[1] - u[1] * v[0]

    num = w(p1, p3) * w(p4, p2)
    den = w(p1, p2) * w(p4, p3)
    if den == 0:
        if num == 0:
            raise DegenerateError(
                "cross ratio undefined: three of the hyperplanes M+L_i agree"
            )
        return INFINITY
    return Fraction(num, den)


def based_lines(flags, base):
    """The base M and one moving line per flag.

    ``base`` is a list of (Flag, multiplicity) pairs with multiplicities
    summing to n-2 and a direct sum M of dimension n-2.  A cross ratio
    based at M depends only on M and on the lines modulo M, so a flag
    carrying base multiplicity m (0 if none) may be represented by any
    vector of its level m+1 outside its level m.  Exact flags read both
    off their own basis: the summand (F, m) gives the rows v_1..v_m of
    ``F.compatible_basis()``; :func:`cross_ratio` reduces the stacked rows
    by itself (a sum that is not direct shows there as a rank-deficient
    base), and no level is reduced.  Float flags keep the sum Subspace,
    whose RREF rows the LU wedges use.  Every moving line is the flag's
    ``Flag.moving_line(m)``, on both backends.  The sum starts from the
    first summand's level: reducing an RREF basis again returns it bit for
    bit, so adding it to the zero space first would only repeat that work.
    """
    n = flags[0].ambient
    total = sum(m for _, m in base)
    if total != n - 2:
        raise DegenerateError(
            f"base multiplicities sum to {total}, expected {n - 2}"
        )
    mults = [next((m for bflag, m in base if bflag is flag), 0) for flag in flags]
    backend = flags[0].backend
    if backend.exact:
        m_space = [row for bflag, mult in base for row in bflag.compatible_basis()[:mult]]
    else:
        levels = [bflag.subspace(mult) for bflag, mult in base if mult]
        m_space = levels[0] if levels else Subspace.zero(n, backend)
        for level in levels[1:]:
            m_space = m_space | level
        if m_space.dim != n - 2:
            raise DegenerateError("degenerate configuration: base sum is not direct")
    return m_space, [flag.moving_line(m) for flag, m in zip(flags, mults)]


def cross_ratio_flags(a, b, c, d, base):
    """Cross ratio (A,B,C,D)_M with M a sum of flag subspaces.

    ``base`` is a list of (Flag, multiplicity) pairs with multiplicities
    summing to n-2.  Base flags may coincide with the four argument flags;
    representatives are then chosen transversally, and the value does not
    depend on that choice.
    """
    m_space, lines = based_lines((a, b, c, d), base)
    return cross_ratio(lines, m_space)


def triple_index_set(n):
    """The index set {(x,y,z) in (Z+)^3 : x+y+z = n}."""
    return [
        (x, y, n - x - y)
        for x in range(1, n - 1)
        for y in range(1, n - x)
    ]


def shear_index_set(n):
    """Triples summing to n with exactly one zero coordinate."""
    out = []
    for x in range(1, n):
        out.append((x, n - x, 0))
    for x in range(1, n):
        out.append((x, 0, n - x))
    for y in range(1, n):
        out.append((0, y, n - y))
    return out


def triple_ratio(f, g, h, index):
    """Triple ratio T_{x,y,z}(F, G, H) of a generic flag triple.

    The six wedges [F^(i) ^ G^(j) ^ H^(k)] on compatible bases all contain
    the base F^(x-1) + G^(y-1) + H^(z-1) of dimension n-3.  Exact flags
    reduce the six further basis vectors modulo that base once
    (``linalg.reduce_modulo``) and take each wedge as a 3 x 3 minor of
    their integer coordinates.  Every vector, the base factor and the signs
    of the row permutations that move the base rows first enter the
    numerator and the denominator equally often, so the value is the same
    rational as the n x n wedge formula.  Float flags keep the LU
    wedge determinants, as :func:`cross_ratio` does.  A rank-deficient
    exact base raises DegenerateError naming its rank.
    """
    x, y, z = index
    n = f.ambient
    if x + y + z != n or min(x, y, z) < 1:
        raise DegenerateError(f"index {(x, y, z)} not admissible for n={n}")
    fb, gb, hb = f.compatible_basis(), g.compatible_basis(), h.compatible_basis()

    exact = f.backend.exact and g.backend.exact and h.backend.exact
    if exact:
        base = list(fb[: x - 1]) + list(gb[: y - 1]) + list(hb[: z - 1])
        ext = reduce_modulo([fb[x - 1], fb[x], gb[y - 1], gb[y], hb[z - 1], hb[z]], base)

        def w(i, j, k):
            # the rows of fb[:i] + gb[:j] + hb[:k] beyond the base: a from F,
            # b from G, the rest from H.  Moving the base rows first passes
            # the F rows over y+z-2 base rows and the G rows over z-1, so
            # wedge (a, b) carries the sign (-1)^(a(y+z-2) + b(z-1)); the
            # exponents add up to 3(y+z-2) + 3(z-1) over the numerator's
            # (a, b) = (1, 0), (2, 1), (0, 2) and over the denominator's
            # (1, 2), (0, 1), (2, 0) alike, so the signs cancel and are left out
            a, b = i - x + 1, j - y + 1
            return det3(*(ext[:a] + ext[2 : 2 + b] + ext[4 : 7 - a - b]))

    else:

        def w(i, j, k):
            return wedge_det(list(fb[:i]) + list(gb[:j]) + list(hb[:k]))

    num = w(x, y - 1, z + 1) * w(x + 1, y, z - 1) * w(x - 1, y + 1, z)
    den = w(x, y + 1, z - 1) * w(x - 1, y, z + 1) * w(x + 1, y - 1, z)
    if den == 0:
        raise DegenerateError("triple ratio of a non-generic triple")
    return Fraction(num, den) if exact else num / den


def eigen_gap_check(matrix, i, j, line):
    """Cross ratio (V_j, L, g L, V_i)_M for a real-split matrix g.

    V_i, V_j are the eigenlines for the i-th and j-th largest eigenvalue
    moduli (1-indexed, i < j), M the invariant complement spanned by the
    remaining eigenvectors.  For diagonalizable real-split input the value
    equals exp(lambda_i - lambda_j), where lambda_1 >= ... >= lambda_n are
    the log-moduli of the eigenvalues.
    """
    import numpy as np

    if not i < j:
        raise DegenerateError("need i < j")
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    evals, evecs = np.linalg.eig(a)
    if np.max(np.abs(evals.imag)) > 1e-9 * np.max(np.abs(evals)):
        raise DegenerateError("matrix is not real-split")
    order = np.argsort(-np.abs(evals.real))
    evecs = evecs.real[:, order]
    vi = tuple(evecs[:, i - 1])
    vj = tuple(evecs[:, j - 1])
    m_rows = [tuple(evecs[:, k]) for k in range(n) if k not in (i - 1, j - 1)]
    l_vec = tuple(float(x) for x in line)
    gl = mat_vec([tuple(float(x) for x in row) for row in matrix], l_vec)
    return cross_ratio([vj, l_vec, gl, vi], m_rows)


def project_curve_point(e_flag, bases, target, m=1):
    """Project a flag-curve point onto a projective line through a base.

    Returns P(sum M_i^(n_i) + E^(m)) intersected with P(A^(1) + B^(1)).
    ``bases`` is a list of (Flag, n_i) pairs, ``target`` a pair of flags
    (A, B); the multiplicities must satisfy sum n_i + m = n - 1.  On a
    maximally transverse flag curve this map is a homeomorphism onto the
    target line sending A to A^(1) and B to B^(1).
    """
    a, b = target
    n = e_flag.ambient
    backend = e_flag.backend
    total = sum(k for _, k in bases) + m
    if total != n - 1:
        raise DegenerateError(
            f"projection multiplicities sum to {total}, expected {n - 1}"
        )
    source = e_flag.subspace(m)
    for bflag, k in bases:
        if k:
            source = source | bflag.subspace(k)
    if source.dim != n - 1:
        raise DegenerateError("projection base is not transverse")
    plane = a.subspace(1) | b.subspace(1)
    if plane.dim != 2:
        raise DegenerateError("target points are not distinct")
    image = source & plane
    if image.dim != 1:
        raise DegenerateError("projection image is not a line")
    return image
