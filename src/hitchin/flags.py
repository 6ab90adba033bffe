r"""Constructive flag configurations.

Three constructions feed everything downstream:

* the irreducible n-dimensional image of a 2x2 matrix (action on binary
  forms of degree n-1), together with the rational normal curve and its
  osculating flags -- the exact model of the maximally transverse flag
  curve over the Fuchsian locus;
* rebuilding the middle flag of a generic triple from its triple ratios,
  level by level;
* recovering the fourth line of an edge configuration from its shear
  values.

Both rebuilds have a closed form in the coordinate edge frame: F (or A)
the coordinate flag e_1, ..., e_n and H (or B) the reversed one,
each basis vector up to a nonzero scale, a given line with no zero entry,
and all triple ratios positive or all shear values nonzero.  There the
middle flag is G = D u H, with u the totally positive unipotent product,
over blocks k = 1..n-1 in ascending order and within each over
p = 0..k-1, of I + a(k, p) E_(s, s+1), s = k - p: the reduced word
(1; 2, 1; 3, 2, 1; ...) of the longest permutation (Fock-Goncharov's
snakes, Lusztig's parametrisation).  a(k, 0) = 1 and, for
1 <= y <= k <= n-2, a(k+1, y) = T_(k+1-y, y, n-k-1) a(k, y-1); that is,
T_(x,y,z)(F, u H, H) = a(x+y, y) / a(x+y-1, y-1).  D = diag(l_i /
(u e_n)_i) fixes F, H and every triple ratio and moves G^(1) onto the
line l, so g_j = D u e_(n+1-j).  Positivity makes the triple generic,
so the exact closed form never fails.  It is built on integer rows: a
basis vector's scale is free, D's coordinate scales are not (see
:func:`_snake_flag`), ``Flag`` makes each row primitive, as it does
every exact basis, and the rows are triangular up to order, so it needs
no rank check on them.  The fourth line of an edge is
d_i = c_i values[1] ... values[i-1] on either backend; that is its only
construction, and input it cannot take raises (see
:func:`recover_fourth_line_from_values`).

Every other triple, and every float triple, takes one elimination: it
reads each index's two coefficient ratios off the coordinates of f_(x+1)
and h_(z+1) and meets the hyperplanes they pin down (see
:func:`reconstruct_triple`).

Conventions: a projective-line point [s:t] is the column vector (s, t);
the flag base point is [1:0], whose osculating flag is the standard
coordinate flag.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .linalg import (
    EXACT,
    BackendError,
    DegenerateError,
    Flag,
    Subspace,
    convert_vector,
    rref,
)
from .invariants import based_lines, cross_ratio, triple_index_set, triple_ratio


def _binary_form_product(p, q):
    """Coefficient convolution of two binary forms (x,y)-homogeneous."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def sym_power(matrix, n):
    """Action of a 2x2 matrix on degree-(n-1) binary forms.

    Basis x^(n-1), x^(n-2) y, ..., y^(n-1); the matrix [[a,b],[c,d]] acts by
    the substitution x -> a x + c y, y -> b x + d y, which makes the map
    multiplicative: sym_power(AB) = sym_power(A) sym_power(B).  For det 1
    input the result has determinant 1.
    """
    (a, b), (c, d) = matrix
    cols = []
    for i in range(n):
        # image of x^(n-1-i) y^i
        form = [1]
        for _ in range(n - 1 - i):
            form = _binary_form_product(form, [a, c])
        for _ in range(i):
            form = _binary_form_product(form, [b, d])
        cols.append(form)
    return tuple(tuple(cols[i][j] for i in range(n)) for j in range(n))


def _sl2_moving_frame(point):
    """A determinant-1 matrix sending [1:0] to the given point."""
    s, t = point
    if s != 0:
        return ((Fraction(s), Fraction(0)), (Fraction(t), Fraction(1, 1) / Fraction(s)))
    if t == 0:
        raise DegenerateError("projective point [0:0]")
    return ((Fraction(0), Fraction(-1, 1) / Fraction(t)), (Fraction(t), Fraction(0)))


def veronese_flag(point, n, backend=EXACT):
    """Osculating flag of the rational normal curve at [s:t].

    The flag at [1:0] is the standard coordinate flag, and the family is
    equivariant: veronese_flag(m p) = sym_power(m, n) veronese_flag(p).
    """
    frame = _sl2_moving_frame(point)
    rows = sym_power(frame, n)
    # columns of sym_power(frame) = images of the standard basis vectors
    cols = [tuple(rows[i][j] for i in range(n)) for j in range(n)]
    return Flag(cols, backend=backend)


def reconstruct_triple(f, h, g_line, ratios):
    """The unique flag G with given line G^(1) and triple ratios.

    ``ratios`` maps every index (x,y,z) with x+y+z = n to the prescribed
    value of T_{x,y,z}(F, G, H).  The flag is built by induction on the
    level y0: each index (x, y0, z) pins down the hyperplane
    F^(x-1) + G^(y0+1) + H^(z-1) through a coefficient ratio, and the next
    flag level is the intersection of those hyperplanes.

    With compatible bases f_i, g_j, h_k, expand f_(x+1) and h_(z+1) in the
    basis f_1..f_x, g_1..g_y0, h_1..h_z.  By Cramer's rule, with [u v w]
    the wedge of the base F^(x-1) + G^(y0-1) + H^(z-1) and u, v, w,

        a_mid / a_top = [f_x f_(x+1) h_z] / [f_x g_y0 f_(x+1)]

    (the coefficients of f_(x+1) on g_y0 and on h_z), and

        c_low / c_mid = [h_(z+1) g_y0 h_z] / [f_x h_(z+1) h_z]

    (those of h_(z+1) on f_x and on g_y0).  With beta = -T (a_mid / a_top)
    (c_low / c_mid), the hyperplane spanned by that base, g_y0 and
    beta f_x + h_z contains the next level, which is the meet of the
    n - y0 - 1 hyperplanes of the level.  Both backends solve for the
    coordinates (:func:`_coordinates`) and meet the spanned hyperplanes.

    In the coordinate edge frame with positive ratios and a line with no
    zero entry, exact flags skip all of this for the closed form
    G = D u H (module docstring, :func:`_snake_flag`), which cannot fail;
    zero or negative ratios and any other frame take the elimination.
    Float flags always take the elimination: on the bench scan grid, D u H
    in float64 loses 19 rows that the elimination computes, each failing
    the float rank check of ``Flag`` ("flag basis is not linearly
    independent").
    """
    n = f.ambient
    backend = f.backend
    fb = f.compatible_basis()
    hb = h.compatible_basis()
    g_vec = g_line.line_vector() if isinstance(g_line, Subspace) else tuple(g_line)
    g_basis = [tuple(backend.convert(x) for x in g_vec)]
    if backend.exact and _coordinate_frame(f, h) and all(g_basis[0]):
        t = _exact_values(ratios, triple_index_set(n))
        if t is not None and all(v > 0 for v in t.values()):
            return _snake_flag(g_basis[0], t)

    for y0 in range(1, n - 1):
        hyperplanes = []
        for x in range(1, n - y0):
            z = n - x - y0
            t_val = ratios[(x, y0, z)]
            coords_basis = list(fb[:x]) + g_basis + list(hb[:z])
            alpha, gamma = _coordinates(coords_basis, (fb[x], hb[z]), backend)
            a_top, a_mid = alpha[n - 1], alpha[x + y0 - 1]
            c_mid, c_low = gamma[x + y0 - 1], gamma[x - 1]
            if a_top == 0 or a_mid == 0 or c_mid == 0 or c_low == 0:
                raise DegenerateError(
                    f"ratio data forces a degenerate configuration at level {y0}"
                )
            # T = -(a_n/a_(x+y0)) (beta_x/beta_n) (gamma_(x+y0)/gamma_x)
            beta_ratio = -backend.convert(t_val) * a_mid * c_low / (a_top * c_mid)
            spanning = (
                list(fb[: x - 1])
                + g_basis
                + list(hb[: z - 1])
                + [
                    tuple(
                        beta_ratio * fx + hz
                        for fx, hz in zip(fb[x - 1], hb[z - 1])
                    )
                ]
            )
            hyperplanes.append(Subspace.span(spanning, ambient=n, backend=backend))
        meet = hyperplanes[0]
        for hp in hyperplanes[1:]:
            meet = meet & hp
        if meet.dim != y0 + 1:
            raise DegenerateError(
                f"hyperplane intersection at level {y0} has dimension {meet.dim}"
            )
        current = Subspace.span(g_basis, ambient=n, backend=backend)
        if not meet.contains_subspace(current):
            raise DegenerateError("reconstructed level does not extend the flag")
        new_vec = next((v for v in meet.basis if not current.contains(v)), None)
        if new_vec is None:
            raise DegenerateError(
                f"reconstructed level {y0 + 1} does not extend level {y0}"
            )
        lead = next(x for x in new_vec if x != 0)
        new_vec = tuple(x / lead for x in new_vec)
        g_basis.append(new_vec)

    # the first coordinate vector that completes the flag; Flag's own rank
    # check decides, so the rows are reduced once per vector tried
    for v in Subspace.full(n, backend).basis:
        try:
            return Flag(g_basis + [v], backend=backend)
        except DegenerateError:
            continue
    raise DegenerateError(
        f"reconstructed level {n - 1} is not a hyperplane: no coordinate "
        f"vector completes the flag"
    )


def _coordinate_frame(f, h):
    """Whether F is the coordinate flag e_1, ..., e_n and H the reversed
    one e_n, ..., e_1, on one backend, each basis vector up to a nonzero
    scale.  Each flag reads its axes once (``Flag.coordinate_axes``), so the
    frame pair an edge's rebuilds and ``k_edge`` all ask about is scanned once."""
    n = f.ambient
    if h.ambient != n or h.backend is not f.backend:
        return False
    return f.coordinate_axes() == tuple(range(n)) and h.coordinate_axes() == tuple(
        range(n - 1, -1, -1)
    )


def _exact_values(values, keys):
    """``values`` at ``keys`` as exact scalars, or None when one is missing
    or not exact; the elimination path then raises as it always has."""
    try:
        return {k: EXACT.convert(values[k]) for k in keys}
    except (LookupError, BackendError):
        return None


def _snake_flag(line, ratios):
    """The flag G = D u H of positive ``ratios`` in the coordinate frame,
    u and D as in the module docstring, on integer rows.

    Any nonzero scale of a basis vector leaves the flag alone, but D's
    coordinate scales do not.  So each column of u carries integer entries
    over a denominator of its own through the product, and the rows of G
    drop it; D's entries l_i / (u e_n)_i go over their one lcm, which
    scales every row alike.  ``Flag`` divides each row by the gcd of its
    entries.  Row j ends in coordinate n + 1 - j, so ``Flag`` finds the
    basis triangular up to order and skips its rank check; its levels are
    left to ``Flag.subspace``, which reduces each one when first asked.
    """
    n = len(line)
    # column j of u is cols[j] / dens[j]
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    dens = [1] * n
    a = []
    for k in range(1, n):
        # a(k, 0..k-1) from a(k-1, 0..k-2)
        a = [1] + [ratios[(k - y, y, n - k)] * a[y - 1] for y in range(1, k)]
        for p, c in enumerate(a):
            s = k - p
            # right multiplication by I + c E_(s, s+1) adds c col_s to col_(s+1),
            # cols[s - 1] and cols[s] here, over the lcm of their denominators
            c_den = c.denominator * dens[s - 1]
            m = math.lcm(dens[s], c_den)
            x_scale, y_scale = m // dens[s], c.numerator * (m // c_den)
            cols[s] = [x_scale * x + y_scale * y for x, y in zip(cols[s], cols[s - 1])]
            dens[s] = m
    # D up to the positive factor dens[n - 1]; (u e_n)_i > 0 for positive ratios
    d_dens = [x.denominator * y for x, y in zip(line, cols[-1])]
    lcm = math.lcm(*d_dens)
    scale = [x.numerator * (lcm // y) for x, y in zip(line, d_dens)]
    # g_j = D u e_(n+1-j); col_j is zero below row j
    return Flag([[d * x for d, x in zip(scale, col)] for col in reversed(cols)], backend=EXACT)


def _coordinates(basis, vectors, backend):
    """Coordinates of each of ``vectors`` in ``basis`` (must be a basis of
    R^n), from one row reduction with a right-hand side per vector, on
    either backend; the triple rebuild's coefficient ratios come from them."""
    n = len(basis)
    rows = [tuple(col) for col in zip(*basis, *vectors)]
    red, piv = rref(rows, backend, ncols=n + len(vectors))
    if len(red) != n or piv != tuple(range(n)):
        raise DegenerateError("coordinate basis is degenerate")
    return [tuple(red[i][n + j] for i in range(n)) for j in range(len(vectors))]


def extract_triple_ratios(f, g, h):
    """All triple ratios of a generic triple, keyed by index."""
    return {idx: triple_ratio(f, g, h, idx) for idx in triple_index_set(f.ambient)}


def recover_fourth_line_from_values(a_flag, b_flag, c_line, values):
    """Fourth line of an edge configuration from its cross-ratio values.

    ``values[x]`` = (A, C, D, B)_{A^(x-1)+B^(n-x-1)} for x in 1..n-1; a
    shear sigma gives the value -exp(sigma).  A and B must sit in the
    coordinate edge frame (A standard, B reversed, each basis vector up to
    a nonzero scale), where the level-x quotient is spanned by e_x and
    e_(x+1) and values[x] = (d_(x+1) / d_x) (c_x / c_(x+1)).  So a line C
    with no zero entry and nonzero values give the closed form
    d_i = c_i values[1] ... values[i-1], on the flags' backend: a line
    with no zero entry, transverse to every A^(x-1) + B^(n-x-1).

    Every other input raises: DegenerateError for an off-frame pair
    ("coordinate edge frame"), a zero entry of C ("edge configuration is
    not generic"), or a zero value or a float product that underflows or
    overflows ("shear data forces a degenerate fourth line");
    BackendError for an entry the backend cannot take, such as a
    non-integral float on exact flags.
    """
    n = a_flag.ambient
    backend = a_flag.backend
    if not _coordinate_frame(a_flag, b_flag):
        raise DegenerateError("edge pair is not the coordinate edge frame (A standard, B reversed)")
    c_vec = c_line.line_vector() if isinstance(c_line, Subspace) else tuple(c_line)
    if len(c_vec) != n:
        raise BackendError(f"line C in R^{len(c_vec)} for an edge in R^{n}")
    c_vec = convert_vector(c_vec, backend)
    if not all(c_vec):
        raise DegenerateError("edge configuration is not generic: C has a zero entry")
    v = [backend.convert(values[x]) for x in range(1, n)]
    prods = itertools.accumulate(v, operator.mul, initial=backend.one())
    line = Subspace.span([[c * p for c, p in zip(c_vec, prods)]], ambient=n, backend=backend)
    if line.dim != 1 or not all(line.basis[0]):
        raise DegenerateError("shear data forces a degenerate fourth line")
    return line


def extract_shear_values(a_flag, b_flag, c_line, d_line):
    """Cross-ratio values (A,C,D,B)_{A^(x-1)+B^(n-x-1)} for x = 1..n-1.

    The base and the transverse lines of A and B come from
    ``invariants.based_lines``: on exact flags the base is the summands'
    stacked basis rows and each line the next basis vector, and
    ``cross_ratio`` reduces the rows by itself, so a sum that is not direct
    raises its rank error.
    """
    n = a_flag.ambient
    c_vec = c_line.line_vector() if isinstance(c_line, Subspace) else tuple(c_line)
    d_vec = d_line.line_vector() if isinstance(d_line, Subspace) else tuple(d_line)
    out = {}
    for x in range(1, n):
        m, (a_line, b_line) = based_lines(
            (a_flag, b_flag), [(a_flag, x - 1), (b_flag, n - x - 1)]
        )
        out[x] = cross_ratio([a_line, c_vec, d_vec, b_line], m)
    return out
