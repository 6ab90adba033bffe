r"""Constructive flag configurations.

Three constructions feed everything downstream:

* the irreducible n-dimensional image of a 2x2 matrix (action on binary
  forms of degree n-1), together with the rational normal curve and its
  osculating flags -- the exact model of the maximally transverse flag
  curve over the Fuchsian locus;
* rebuilding the middle flag of a generic triple from its triple ratios,
  level by level;
* recovering the fourth line of an edge configuration from its shear
  values by intersecting the hyperplanes each shear pins down.

Conventions: a projective-line point [s:t] is the column vector (s, t);
the flag base point is [1:0], whose osculating flag is the standard
coordinate flag.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import (
    EXACT,
    DegenerateError,
    Flag,
    Subspace,
    det,
    rref,
    wedge_det,
)
from .invariants import triple_index_set, triple_ratio


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


def veronese_vector(point, n):
    """Binomially weighted rational normal curve value at [s:t].

    nu_j(s,t) = C(n-1,j) s^(n-1-j) t^j, chosen so that
    nu(m p) = sym_power(m, n) nu(p) exactly.
    """
    s, t = point
    return tuple(
        math.comb(n - 1, j) * s ** (n - 1 - j) * t ** j for j in range(n)
    )


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
    cols = [tuple(backend.convert(x) for x in col) for col in cols]
    return Flag.from_basis(cols, backend=backend)


def reconstruct_triple(f, h, g_line, ratios):
    """The unique flag G with given line G^(1) and triple ratios.

    ``ratios`` maps every index (x,y,z) with x+y+z = n to the prescribed
    value of T_{x,y,z}(F, G, H).  The flag is built by induction on the
    level y0: each index (x, y0, z) pins down the hyperplane
    F^(x-1) + G^(y0+1) + H^(z-1) through a coefficient ratio, and the next
    flag level is the intersection of those hyperplanes.
    """
    n = f.ambient
    backend = f.backend
    fb = f.compatible_basis()
    hb = h.compatible_basis()
    g_vec = g_line.line_vector() if isinstance(g_line, Subspace) else tuple(g_line)
    g_basis = [tuple(backend.convert(x) for x in g_vec)]

    for y0 in range(1, n - 1):
        hyperplanes = []
        for x in range(1, n - y0):
            z = n - x - y0
            t_val = ratios[(x, y0, z)]
            coords_basis = list(fb[:x]) + g_basis + list(hb[:z])
            alpha = _coordinates(coords_basis, fb[x], backend)
            gamma = _coordinates(coords_basis, hb[z], backend)
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
        lead = next((x for x in new_vec if x != 0), None)
        if lead is None:
            raise DegenerateError(f"reconstructed level {y0 + 1} has a zero vector")
        new_vec = tuple(x / lead for x in new_vec)
        g_basis.append(new_vec)

    for v in Subspace.full(n, backend).basis:
        if Subspace.span(g_basis + [v], ambient=n, backend=backend).dim == n:
            g_basis.append(v)
            break
    else:
        raise DegenerateError(
            f"reconstructed level {n - 1} is not a hyperplane: no coordinate "
            f"vector completes the flag"
        )
    return Flag.from_basis(g_basis, backend=backend)


def _coordinates(basis, vector, backend):
    """Coordinates of ``vector`` in ``basis`` (must be a basis of R^n)."""
    n = len(vector)
    rows = [tuple(col) for col in zip(*basis, vector)]
    red, piv = rref(rows, backend, ncols=n + 1)
    if len(red) != n or piv != tuple(range(n)):
        raise DegenerateError("coordinate basis is degenerate")
    return tuple(red[i][n] for i in range(n))


def extract_triple_ratios(f, g, h):
    """All triple ratios of a generic triple, keyed by index."""
    return {idx: triple_ratio(f, g, h, idx) for idx in triple_index_set(f.ambient)}


def _partial_wedge_functional(rows, backend):
    """Vector w with det(rows + [d]) = <w, d>, via cofactor expansion."""
    n = len(rows) + 1
    out = []
    for i in range(n):
        minor = [tuple(r[:i]) + tuple(r[i + 1 :]) for r in rows]
        cof = det(minor, backend=backend)
        out.append(cof if (n - 1 + i) % 2 == 0 else -cof)
    return tuple(out)


def recover_fourth_line(a_flag, b_flag, c_line, shears):
    """Fourth line of an edge configuration from its shear values.

    ``shears`` maps x in 1..n-1 to the shear value sigma with
    -exp(sigma) = (A, C, D, B)_{A^(x-1) + B^(n-x-1)}.  Each value pins the
    hyperplane A^(x-1) + B^(n-x-1) + D; the n-1 hyperplanes intersect in
    the line D.  ``shears`` values may be exact scalars (interpreted as
    the cross-ratio value v = -exp(sigma) directly when given via
    ``cross_ratio_values``) -- see ``recover_fourth_line_from_values``.
    """
    values = {x: -math.exp(float(s)) for x, s in shears.items()}
    return recover_fourth_line_from_values(a_flag, b_flag, c_line, values)


def recover_fourth_line_from_values(a_flag, b_flag, c_line, values):
    """Same as :func:`recover_fourth_line` with raw cross-ratio values.

    ``values[x]`` = (A, C, D, B)_{A^(x-1)+B^(n-x-1)}; exact scalars keep
    the whole computation exact.
    """
    from .invariants import transverse_line

    n = a_flag.ambient
    backend = a_flag.backend
    c_vec = c_line.line_vector() if isinstance(c_line, Subspace) else tuple(c_line)
    rows = []
    for x in range(1, n):
        y = n - x
        v = backend.convert(values[x]) if backend.exact else float(values[x])
        m_rows = list(a_flag.subspace(x - 1).basis) + list(
            b_flag.subspace(y - 1).basis
        )
        # A and B carry base multiplicity, so use transverse representatives
        a_line = transverse_line(a_flag, x - 1)
        b_line = transverse_line(b_flag, y - 1)
        # v = [M a d][M b c] / ([M a c][M b d]) is linear in d
        w_ad = _partial_wedge_functional(m_rows + [a_line], backend)
        w_bd = _partial_wedge_functional(m_rows + [b_line], backend)
        k_bc = wedge_det(m_rows + [b_line, c_vec])
        k_ac = wedge_det(m_rows + [a_line, c_vec])
        if k_ac == 0 or k_bc == 0:
            raise DegenerateError("edge configuration is not generic")
        row = tuple(
            wa * k_bc - v * k_ac * wb for wa, wb in zip(w_ad, w_bd)
        )
        rows.append(row)
    from .linalg import nullspace

    kernel = nullspace(rows, backend, n)
    if len(kernel) != 1:
        raise DegenerateError(
            f"shear data is inconsistent: hyperplane intersection has dim {len(kernel)}"
        )
    d_vec = kernel[0]
    # the recovered line must be transverse to every M + A and M + B; in
    # floats, up to rounding at the scale of the kernel vector
    tol = 0 if backend.exact else 1e-12 * max(1.0, max(abs(x) for x in d_vec))
    for x in range(1, n):
        m_rows = list(a_flag.subspace(x - 1).basis) + list(
            b_flag.subspace(n - x - 1).basis
        )
        a_line = transverse_line(a_flag, x - 1)
        b_line = transverse_line(b_flag, n - x - 1)
        for other in (a_line, b_line):
            if abs(wedge_det(m_rows + [other, d_vec])) <= tol:
                raise DegenerateError(
                    "shear data forces a degenerate fourth line"
                )
    return Subspace.span(kernel, ambient=n, backend=backend)


def extract_shear_values(a_flag, b_flag, c_line, d_line):
    """Cross-ratio values (A,C,D,B)_{A^(x-1)+B^(n-x-1)} for x = 1..n-1."""
    from .invariants import cross_ratio, transverse_line

    n = a_flag.ambient
    c_vec = c_line.line_vector() if isinstance(c_line, Subspace) else tuple(c_line)
    d_vec = d_line.line_vector() if isinstance(d_line, Subspace) else tuple(d_line)
    out = {}
    for x in range(1, n):
        m = a_flag.subspace(x - 1) | b_flag.subspace(n - x - 1)
        a_line = transverse_line(a_flag, x - 1)
        b_line = transverse_line(b_flag, n - x - 1)
        out[x] = cross_ratio([a_line, c_vec, d_vec, b_line], m)
    return out
