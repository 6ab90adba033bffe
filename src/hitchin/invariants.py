r"""Projective invariants of flag configurations.

The cross ratio of four lines based at an (n-2)-plane M is the wedge
expression

    (L1, L2, L3, L4)_M = [M^L1^L3][M^L4^L2] / ([M^L1^L2][M^L4^L3])

evaluated through the determinant, with values in R plus a genuine point
at infinity.  The triple ratio T_{x,y,z} of a generic flag triple is the
six-wedge expression on compatible bases.  Both are insensitive to all
basis and representative choices, which the test suite checks rather than
assumes.
"""

from __future__ import annotations

from .linalg import (
    DegenerateError,
    Subspace,
    jordan_projection,
    mat_vec,
    wedge_det,
)


class Infinity:
    """The point at infinity of the extended cross-ratio line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __eq__(self, other):
        return isinstance(other, Infinity)

    def __hash__(self):
        return hash("hitchin.INFINITY")


INFINITY = Infinity()


def is_infinite(value):
    return isinstance(value, Infinity)


def cross_ratio(lines, base):
    """Cross ratio of four lines based at an (n-2)-dimensional subspace.

    ``lines`` are four 1-dimensional :class:`Subspace` objects (or raw
    vectors), ``base`` a Subspace of dimension n-2 containing none of them.
    Returns a scalar or :data:`INFINITY`.
    """
    if len(lines) != 4:
        raise DegenerateError("cross ratio needs exactly four lines")
    reps = [l.line_vector() if isinstance(l, Subspace) else tuple(l) for l in lines]
    n = len(reps[0])
    if isinstance(base, Subspace):
        mrows = list(base.basis)
    else:
        mrows = [tuple(v) for v in base]
    if len(mrows) != n - 2:
        raise DegenerateError(
            f"cross ratio base must have dimension {n - 2}, got {len(mrows)}"
        )
    l1, l2, l3, l4 = reps

    def w(u, v):
        return wedge_det(mrows + [u, v])

    num = w(l1, l3) * w(l4, l2)
    den = w(l1, l2) * w(l4, l3)
    if isinstance(num, float) or isinstance(den, float):
        # float mode: a denominator at rounding scale is a true infinity
        scale = max(abs(num), abs(den))
        if abs(den) <= 1e-13 * scale:
            if abs(num) <= 1e-13 * scale or scale == 0:
                raise DegenerateError(
                    "cross ratio undefined: three of the hyperplanes M+L_i agree"
                )
            return INFINITY
        return num / den
    if den == 0:
        if num == 0:
            raise DegenerateError(
                "cross ratio undefined: three of the hyperplanes M+L_i agree"
            )
        return INFINITY
    return num / den


def transverse_line(flag, mult, rng=None):
    """Line in F^(mult+1) transverse to F^(mult).

    This is the moving-subspace representative for a point carrying base
    multiplicity ``mult``.  The deterministic rule picks the first
    reduced-basis vector of F^(mult+1) outside F^(mult); passing ``rng``
    adds a random element of F^(mult) to exercise choice-independence in
    tests.
    """
    if mult == 0:
        return flag.subspace(1).line_vector()
    lower = flag.subspace(mult)
    upper = flag.subspace(mult + 1)
    vec = next((v for v in upper.basis if not lower.contains(v)), None)
    if vec is None:
        raise DegenerateError(f"flag level {mult + 1} does not extend level {mult}")
    if rng is not None:
        coeffs = [flag.backend.convert(int(rng.integers(-3, 4))) for _ in lower.basis]
        for c, b in zip(coeffs, lower.basis):
            vec = tuple(x + c * y for x, y in zip(vec, b))
    return vec


def _moving_line(flag, base_flags_mults, rng=None):
    mult = 0
    for bflag, bm in base_flags_mults:
        if bflag is flag:
            mult = bm
            break
    return transverse_line(flag, mult, rng=rng)


def cross_ratio_flags(a, b, c, d, base, rng=None):
    """Cross ratio (A,B,C,D)_M with M a sum of flag subspaces.

    ``base`` is a list of (Flag, multiplicity) pairs with multiplicities
    summing to n-2.  Base flags may coincide with the four argument flags;
    representatives are then chosen transversally, and the value does not
    depend on that choice.
    """
    flags = (a, b, c, d)
    n = a.ambient
    backend = a.backend
    total = sum(m for _, m in base)
    if total != n - 2:
        raise DegenerateError(
            f"base multiplicities sum to {total}, expected {n - 2}"
        )
    m_space = Subspace.zero(n, backend)
    for bflag, mult in base:
        if mult:
            m_space = m_space | bflag.subspace(mult)
    if m_space.dim != n - 2:
        raise DegenerateError("degenerate configuration: base sum is not direct")
    lines = [_moving_line(f, base, rng=rng) for f in flags]
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
    """Triple ratio T_{x,y,z}(F, G, H) of a generic flag triple."""
    x, y, z = index
    n = f.ambient
    if x + y + z != n or min(x, y, z) < 1:
        raise DegenerateError(f"index {(x, y, z)} not admissible for n={n}")
    fb, gb, hb = f.compatible_basis(), g.compatible_basis(), h.compatible_basis()

    def w(i, j, k):
        return wedge_det(list(fb[:i]) + list(gb[:j]) + list(hb[:k]))

    num = w(x, y - 1, z + 1) * w(x + 1, y, z - 1) * w(x - 1, y + 1, z)
    den = w(x, y + 1, z - 1) * w(x - 1, y, z + 1) * w(x + 1, y - 1, z)
    if den == 0:
        raise DegenerateError("triple ratio of a non-generic triple")
    return num / den


def eigen_gap_check(matrix, i, j, line):
    """Cross ratio (V_j, L, g L, V_i)_M for a real-split matrix g.

    V_i, V_j are the eigenlines for the i-th and j-th largest eigenvalue
    moduli (1-indexed, i < j), M the invariant complement spanned by the
    remaining eigenvectors.  For diagonalizable real-split input the value
    equals exp(lambda_i - lambda_j); the caller compares against
    :func:`jordan_projection`.
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


def eigen_gap_oracle(matrix, i, j):
    """exp(lambda_i - lambda_j) straight from the Jordan projection."""
    import math

    lam = jordan_projection(matrix).entries
    return math.exp(lam[i - 1] - lam[j - 1])


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
