r"""Exact-rational and float64 multilinear algebra on R^n for small n.

Everything downstream (cross ratios, triple ratios, flag reconstruction,
the degeneration functionals) reduces to wedge determinants, sums and
intersections of subspaces, and rank decisions, on one of two backends;
a computation never mixes them.

* The exact backend works over ``fractions.Fraction``, where identities
  hold on the nose.  Its determinant, rank and RREF (and so its null
  spaces and subspace meets) all come from one fraction-free (Bareiss)
  Gauss-Jordan elimination on integer rows, ``_eliminate``, whose step
  (``_bareiss_step``) also gives ``degeneration.k_edge`` its window minors;
  a window run updates only the columns after its pivot (the step's start
  column), since it reads no finished column again.
  ``reduce_modulo`` reads vectors modulo a base in integer coordinates,
  which turns wedges that share that base into small minors.  A base
  row that is a coordinate vector e_p just drops column p; the vectors
  ride below the other rows through one such elimination, which pivots
  on base rows only, and end holding their coordinates.
* The float64 backend takes determinants from ``numpy.linalg.det``
  (several of one size from one stacked call, ``dets``) and row-reduces
  with partial pivoting, deciding rank with the relative pivot threshold
  ``PIVOT_RTOL``.

Subspaces are stored with a canonical reduced-row-echelon basis, so two
subspaces are equal iff their representations are equal.  A flag is
stored as a compatible basis; it reduces a level to that canonical form
the first time the level is asked for and memoises it; an exact flag
stores each basis vector as a primitive integer row.  An exact basis
that is triangular up to order (each vector's last nonzero entry in a
coordinate of its own) is independent by its zero pattern, so ``Flag``
runs no rank elimination on it; any other basis, and every float one,
is checked by ``matrix_rank``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class BackendError(ValueError):
    """Mixing backends, or input not convertible to the requested backend."""


class DegenerateError(ValueError):
    """A genericity/transversality precondition failed."""


#: draws a sampling loop makes before it gives up
DRAW_TRIES = 100


def draw_generic(sample, what):
    """The first value of ``sample()`` that does not raise DegenerateError.

    Random-sampling loops reject degenerate draws through this, so a fault
    that makes every draw degenerate raises DegenerateError naming ``what``
    after DRAW_TRIES draws instead of looping forever.
    """
    for _ in range(DRAW_TRIES):
        try:
            return sample()
        except DegenerateError as exc:
            last = exc
    raise DegenerateError(f"no {what} in {DRAW_TRIES} draws; the last: {last}")


class Backend:
    """Scalar arithmetic tag: exact rationals or float64."""

    def __init__(self, name):
        self.name = name
        self.exact = name == "exact"

    def __repr__(self):
        return f"Backend({self.name!r})"

    def convert(self, x):
        if self.exact:
            if isinstance(x, Fraction):
                return x
            if isinstance(x, int):
                return Fraction(x)
            if isinstance(x, str):
                return Fraction(x)
            if isinstance(x, float):
                if not x.is_integer():
                    raise BackendError(
                        f"refusing to coerce non-integral float {x!r} to exact"
                    )
                return Fraction(int(x))
            raise BackendError(f"cannot convert {x!r} to exact scalar")
        return float(x)

    def zero(self):
        return Fraction(0) if self.exact else 0.0

    def one(self):
        return Fraction(1) if self.exact else 1.0


EXACT = Backend("exact")
FLOAT64 = Backend("float64")

#: relative pivot threshold for float-mode rank decisions
PIVOT_RTOL = 1e-10


def infer_backend(entries):
    """Guess the backend from raw scalar entries (float wins over int)."""
    for x in entries:
        if isinstance(x, float):
            return FLOAT64
        if isinstance(x, (Fraction, int)):
            continue
        raise BackendError(f"unsupported scalar {x!r}")
    return EXACT


def convert_vector(v, backend):
    return tuple(backend.convert(x) for x in v)


def convert_matrix(rows, backend):
    return tuple(convert_vector(r, backend) for r in rows)


# ---------------------------------------------------------------------------
# exact elimination kernel


def _integer_rows(rows):
    """Integer rows proportional to the given rational rows, and the scale.

    Row i is multiplied by the lcm of its denominators; ``scale`` is the
    product of those multipliers, so det(rows) = det(int_rows) / scale.
    """
    out = []
    scale = 1
    for row in rows:
        m = math.lcm(*(x.denominator for x in row))
        out.append([x.numerator * (m // x.denominator) for x in row] if m > 1 else [*map(int, row)])
        scale *= m
    return out, scale


def _eliminate(a, ncols, reduce_above=True, pivot_rows=None):
    """Fraction-free (Bareiss) Gauss-Jordan elimination of integer rows.

    Works in place on the list of integer rows ``a``, looking for pivots
    in the first ``ncols`` columns and skipping columns without one.
    Returns (pivot_columns, sign), sign being the parity of the row swaps.
    Afterwards row i < rank carries the last pivot d in column
    pivot_columns[i] and zeros in the other pivot columns, so the rows
    divided by d are the RREF, and sign * d is the determinant of a
    nonsingular square input.  A determinant needs only the echelon form:
    ``reduce_above=False`` leaves the rows above each pivot alone, which
    still ends on d and saves about two thirds of the work.

    Pivots come only from the first ``pivot_rows`` rows (default all);
    the rows below are carried, never swapped, and by Sylvester's identity
    each ends holding in column j the minor of the pivot rows and itself on
    the pivot columns and j (``reduce_modulo``'s coordinates).
    """
    m = len(a) if pivot_rows is None else pivot_rows
    piv_cols = []
    sign = 1
    prev = 1
    r = 0
    for c in range(ncols):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        lo = 0 if reduce_above else r + 1
        _bareiss_step(a, r, c, prev, (i for i in range(lo, len(a)) if i != r))
        prev = a[r][c]
        piv_cols.append(c)
        r += 1
    return piv_cols, sign


def _bareiss_step(a, r, c, prev, rows, start=0):
    """Clear column c of ``rows`` with the pivot a[r][c], in place; ``prev``
    is the last step's pivot (1 at first).  After t steps without swaps,
    entry (i, j) of a row i >= t is the minor of rows 0..t-1 and i on the t
    pivot columns and column j (Sylvester), so the division is exact.

    Only the columns from ``start`` on are updated.  An entry's update
    reads only its own column and column c, so a caller that never reads
    an earlier column again, as a window-minor run (start c + 1) does not,
    may leave those columns stale; ``_eliminate`` keeps whole rows."""
    p, pivot_row = a[r][c], a[r][start:]
    for i in rows:
        row = a[i]
        f = row[c]
        row[start:] = [(p * x - f * y) // prev for x, y in zip(row[start:], pivot_row)]


def reduce_modulo(vectors, base):
    """Integer coordinates of exact vectors modulo the span of ``base``.

    ``base`` is a list of m independent rational rows in R^n.  Each
    vector v is reduced modulo the base and read off in the k = n - m
    columns without a pivot:

        coords(v) = c * s_v * (v - sum_i v[p_i] r_i)[free columns],

    where r_i are the RREF rows of the base with pivots p_i, s_v > 0 is the
    lcm of v's denominators and c != 0 is one factor common to all vectors.
    So for k vectors, the k x k determinant of their coordinates is
    [base ^ v_1 ^ ... ^ v_k] times c^k * s_1 * ... * s_k and a nonzero
    factor that depends only on the base.

    The unit rows are set aside first: a row with one nonzero entry, in
    a column p no earlier such row took, spans the coordinate line e_p.
    Then p is a pivot and e_p its RREF row, which is 0 in every free
    column, so reducing modulo it just drops column p.  The vectors ride
    below the other rows through one echelon run of ``_eliminate`` over
    the columns left, pivoting on base rows only, and end holding their
    coordinates (c is the run's last pivot, or 1 when no row is left); in
    a frame where two flags are coordinate flags, that is the third
    flag's rows in the middle columns.  Raises DegenerateError naming the
    rank of the whole base when its rows are dependent.
    """
    ncols = len(vectors[0])
    for v in vectors:
        if len(v) != ncols:
            raise BackendError(f"vector of dimension {len(v)} modulo a base in R^{ncols}")
    units = set()
    rest = []
    for row in base:
        support = [j for j, x in enumerate(row) if x]
        if len(support) == 1 and support[0] not in units:
            units.add(support[0])
        else:
            rest.append(row)
    cols = [j for j in range(ncols) if j not in units]
    # every row is scaled to integers over its whole length
    a = [[row[j] for j in cols] for row in _integer_rows([*rest, *vectors])[0]]
    piv = _eliminate(a, len(cols), reduce_above=False, pivot_rows=len(rest))[0]
    if len(piv) < len(rest):
        raise DegenerateError(
            f"base of {len(base)} rows is rank-deficient: rank {len(units) + len(piv)}"
        )
    free = [j for j in range(len(cols)) if j not in piv]
    return [tuple(row[j] for j in free) for row in a[len(rest):]]


# ---------------------------------------------------------------------------
# determinants


def det3(u, v, w):
    """Determinant of the 3 x 3 matrix with rows u, v, w."""
    return (
        u[0] * (v[1] * w[2] - v[2] * w[1])
        - u[1] * (v[0] * w[2] - v[2] * w[0])
        + u[2] * (v[0] * w[1] - v[1] * w[0])
    )


def det(rows, backend=None):
    """Determinant of a square matrix, backend-aware."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise BackendError("determinant of a non-square matrix")
    if n == 0:
        return 1
    if backend is None:
        backend = infer_backend([x for r in rows for x in r])
    if not backend.exact:
        if n == 1:
            return float(rows[0][0])
        return float(np.linalg.det(np.array(rows, dtype=float)))
    a, scale = _integer_rows(rows)
    piv_cols, sign = _eliminate(a, n, reduce_above=False)
    if len(piv_cols) < n:
        return Fraction(0)
    return Fraction(sign * a[-1][-1], scale)


def dets(matrices, backend):
    """:func:`det` of several k x k matrices, k the same for all.

    Float input takes one stacked ``numpy.linalg.det`` call.  numpy runs
    the same LU routine on every slice of a stack, so each value keeps the
    bits :func:`det` gives it, for the numpy overhead of one call.  1 x 1
    matrices keep :func:`det`'s rule, since a 1 x 1 LU determinant is
    exp(log|x|) with a sign and not always x.  Exact input takes
    :func:`det` one matrix at a time.
    """
    if backend.exact or not matrices or len(matrices[0]) < 2:
        return [det(m, backend=backend) for m in matrices]
    return np.linalg.det(np.array(matrices, dtype=float)).tolist()


def wedge_det(vectors):
    """Evaluate v_1 ^ ... ^ v_n under the determinant identification.

    The input must be exactly n vectors of dimension n; the result is the
    determinant of the matrix whose columns are the inputs (equivalently
    rows -- the value is the same).
    """
    n = len(vectors)
    for v in vectors:
        if len(v) != n:
            raise BackendError(
                f"wedge of {n} vectors needs dimension {n}, got {len(v)}"
            )
    return det([tuple(v) for v in vectors])


# ---------------------------------------------------------------------------
# row reduction


def rref(rows, backend, ncols=None):
    """Reduced row echelon form.

    Returns (rows, pivot_columns); zero rows are dropped.  Float mode uses
    partial pivoting with a relative threshold, exact mode true rank.
    """
    if not rows:
        return (), ()
    n = ncols if ncols is not None else len(rows[0])
    if backend.exact:
        a, _ = _integer_rows(rows)
        piv_cols = _eliminate(a, n)[0]
        red = tuple(
            tuple(Fraction(x, a[i][c]) for x in a[i]) for i, c in enumerate(piv_cols)
        )
        return red, tuple(piv_cols)
    a = [list(r) for r in rows]
    m = len(a)
    scale = max((abs(x) for r in a for x in r), default=0.0)
    piv_cols = []
    r = 0
    for c in range(n):
        if r == m:
            break
        piv = max(range(r, m), key=lambda i: abs(a[i][c]))
        if abs(a[piv][c]) <= PIVOT_RTOL * max(1.0, scale):
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1.0 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        a[r][c] = 1.0
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                a[i][c] = 0.0
        piv_cols.append(c)
        r += 1
    out = tuple(tuple(a[i]) for i in range(r))
    return out, tuple(piv_cols)


def matrix_rank(rows, backend):
    """Rank of a row matrix; exact rows need only the echelon form."""
    if not rows:
        return 0
    if backend.exact:
        a, _ = _integer_rows(rows)
        return len(_eliminate(a, len(a[0]), reduce_above=False)[0])
    return len(rref(rows, backend)[0])


def nullspace(rows, backend, ncols):
    """Basis of the right kernel of the given row matrix."""
    red, piv = rref(rows, backend, ncols=ncols)
    free = [c for c in range(ncols) if c not in piv]
    basis = []
    for f in free:
        v = [backend.zero()] * ncols
        v[f] = backend.one()
        for i, c in enumerate(piv):
            v[c] = -red[i][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# subspaces and flags


class Subspace:
    """Linear subspace of R^n with a canonical reduced-echelon basis."""

    __slots__ = ("ambient", "backend", "basis")

    def __init__(self, ambient, basis, backend):
        self.ambient = ambient
        self.backend = backend
        self.basis = basis  # tuple of RREF rows, canonical

    @classmethod
    def span(cls, vectors, ambient=None, backend=None):
        vectors = [tuple(v) for v in vectors]
        if ambient is None:
            if not vectors:
                raise BackendError("empty span needs an explicit ambient dim")
            ambient = len(vectors[0])
        if backend is None:
            backend = infer_backend([x for v in vectors for x in v])
        vectors = [convert_vector(v, backend) for v in vectors]
        for v in vectors:
            if len(v) != ambient:
                raise BackendError("span of vectors of mixed dimension")
        red, _ = rref(vectors, backend, ncols=ambient)
        return cls(ambient, red, backend)

    @classmethod
    def zero(cls, ambient, backend):
        return cls(ambient, (), backend)

    @classmethod
    def full(cls, ambient, backend):
        rows = []
        for i in range(ambient):
            row = [backend.zero()] * ambient
            row[i] = backend.one()
            rows.append(tuple(row))
        return cls(ambient, tuple(rows), backend)

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient != other.ambient or self.dim != other.dim:
            return False
        if self.backend.exact and other.backend.exact:
            return self.basis == other.basis
        a = np.array(self.basis, dtype=float).reshape(self.dim, self.ambient)
        b = np.array(other.basis, dtype=float).reshape(self.dim, self.ambient)
        return bool(np.allclose(a, b, atol=1e-9))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"

    def contains(self, vector):
        v = convert_vector(vector, self.backend)
        if not self.backend.exact:
            red, _ = rref(list(self.basis) + [v], self.backend, ncols=self.ambient)
            return len(red) == self.dim
        return not any(reduce_modulo([v], self.basis)[0])

    def contains_subspace(self, other):
        return all(self.contains(v) for v in other.basis)

    def __or__(self, other):
        """Span of the union (subspace sum)."""
        self._check(other)
        return Subspace.span(
            list(self.basis) + list(other.basis),
            ambient=self.ambient,
            backend=self.backend,
        )

    def __and__(self, other):
        """Exact intersection via a kernel computation."""
        self._check(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.ambient, self.backend)
        # solve sum a_i u_i = sum b_j v_j; kernel of [U^t | -V^t]
        rows = []
        for k in range(self.ambient):
            row = [u[k] for u in self.basis] + [-v[k] for v in other.basis]
            rows.append(tuple(row))
        ker = nullspace(rows, self.backend, self.dim + other.dim)
        vecs = []
        for coeffs in ker:
            vec = [self.backend.zero()] * self.ambient
            for a, u in zip(coeffs[: self.dim], self.basis):
                vec = [x + a * y for x, y in zip(vec, u)]
            vecs.append(tuple(vec))
        return Subspace.span(vecs or [], ambient=self.ambient, backend=self.backend)

    def line_vector(self):
        if self.dim != 1:
            raise DegenerateError(f"expected a line, got dim {self.dim}")
        return self.basis[0]

    def _check(self, other):
        if self.ambient != other.ambient:
            raise BackendError("subspaces in different ambient dimensions")
        if self.backend is not other.backend:
            raise BackendError("subspaces on different backends")


def subspace_sum(a, b):
    return a | b


def subspace_intersect(a, b):
    return a & b


class Flag:
    """Complete flag F^(1) c F^(2) c ... c F^(n-1) in R^n.

    Stored as a compatible basis v_1..v_n: level k is span(v_1..v_k).  The
    constructor only checks that the n vectors lie in R^n and are
    independent; ``subspace(k)`` reduces level k the first time it is
    asked for and keeps it in ``_levels``.  ``subspace(0)`` is the zero
    space and ``subspace(n)`` all of R^n, so indexing by 0..n always works.
    ``_transverse`` memoises a float flag's ``moving_line`` by multiplicity,
    and ``_axes`` the answer of ``coordinate_axes``.

    An exact basis is stored as primitive integer rows, each a positive
    multiple of its vector (a vector's scale does not change the flag), and
    every exact kernel, down to the window minors of ``degeneration.k_edge``,
    reads those rows as they are.  It skips the rank elimination when it is
    triangular up to order, each vector's last nonzero entry in a
    coordinate of its own: ordered by that coordinate the vectors form a
    triangular matrix with a nonzero diagonal, so they are independent.
    The standard, reversed and snake flags (``flags._snake_flag``) all are.
    Every other exact basis, and every float basis, takes ``matrix_rank``
    and raises on a rank below n: a float rank decision depends on the
    pivot threshold, not only on the zero pattern.
    """

    __slots__ = ("ambient", "backend", "_basis", "_levels", "_transverse", "_axes")

    def __init__(self, vectors, backend=None):
        vectors = [tuple(v) for v in vectors]
        n = len(vectors)
        if n < 2:
            raise DegenerateError(f"a flag needs a basis of R^n with n >= 2, got {n} vectors")
        if backend is None:
            backend = infer_backend([x for v in vectors for x in v])
        for v in vectors:
            if len(v) != n:
                raise BackendError(f"flag basis of {n} vectors needs dimension {n}, got {len(v)}")
        if backend.exact:
            basis = tuple(_primitive_row(v) for v in vectors)
            independent = _triangular(basis) or matrix_rank(basis, backend) == n
        else:
            basis = convert_matrix(vectors, backend)
            independent = matrix_rank(basis, backend) == n
        if not independent:
            raise DegenerateError("flag basis is not linearly independent")
        self.ambient = n
        self.backend = backend
        self._basis = basis
        self._levels = {}
        self._transverse = {}
        self._axes = None

    @classmethod
    def standard(cls, n, backend=EXACT):
        return cls([[int(i == j) for j in range(n)] for i in range(n)], backend=backend)

    @classmethod
    def reversed_standard(cls, n, backend=EXACT):
        return cls([[int(i == j) for j in range(n)] for i in reversed(range(n))], backend=backend)

    def subspace(self, k):
        if k not in self._levels:
            if not 0 <= k <= self.ambient:
                raise DegenerateError(f"flag level {k} out of range in R^{self.ambient}")
            if k == self.ambient:
                level = Subspace.full(self.ambient, self.backend)
            else:
                level = Subspace.span(self._basis[:k], ambient=self.ambient, backend=self.backend)
            self._levels[k] = level
        return self._levels[k]

    def compatible_basis(self):
        """The basis v_1..v_n with F^(k) = span(v_1..v_k) for every k."""
        return self._basis

    def coordinate_axes(self):
        """Per basis vector v_k, the coordinate p with v_k a nonzero multiple
        of e_p, or -1 when v_k has two nonzero entries; worked out once."""
        if self._axes is None:
            supports = ([j for j, x in enumerate(v) if x] for v in self._basis)
            self._axes = tuple(s[0] if len(s) == 1 else -1 for s in supports)
        return self._axes

    def moving_line(self, mult):
        """The flag's line in a cross ratio based at a sum holding F^(mult): an
        exact flag's v_(mult+1); on a float flag the first reduced-basis vector of
        F^(mult+1) outside F^(mult), memoised (another one would round differently)."""
        if self.backend.exact:
            return self._basis[mult]
        if mult not in self._transverse:
            if mult == 0:
                vec = self.subspace(1).line_vector()
            else:
                lower = self.subspace(mult)
                vec = next((v for v in self.subspace(mult + 1).basis if not lower.contains(v)), None)
                if vec is None:
                    raise DegenerateError(f"flag level {mult + 1} does not extend level {mult}")
            self._transverse[mult] = vec
        return self._transverse[mult]

    def __eq__(self, other):
        if not isinstance(other, Flag):
            return NotImplemented
        return self.ambient == other.ambient and all(
            self.subspace(k) == other.subspace(k) for k in range(1, self.ambient)
        )

    def __repr__(self):
        return f"Flag(ambient={self.ambient}, backend={self.backend.name})"


def _primitive_row(v):
    """The primitive integer row on the line of the exact vector v."""
    if not all(type(x) is int for x in v):
        v = _integer_rows([[x if type(x) is int else EXACT.convert(x) for x in v]])[0][0]
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g > 1 else tuple(v)


def _triangular(rows):
    """Whether the last nonzero entries of the n rows of length n sit in n
    different columns (a zero row has none)."""
    n = len(rows)
    lasts = {next((j for j in range(n - 1, -1, -1) if row[j]), -1) for row in rows}
    return len(lasts) == n and -1 not in lasts


def mat_vec(m, v):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) for row in m)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
        for i in range(n)
    )


def is_generic_triple(f, g, h):
    """Check sum-transversality F^(a)+G^(b)+H^(c) = R^n for all a+b+c = n."""
    n = f.ambient
    if g.ambient != n or h.ambient != n:
        raise BackendError("flags in different ambient dimensions")
    backend = f.backend
    for a in range(n + 1):
        for b in range(n + 1 - a):
            c = n - a - b
            rows = (
                list(f.subspace(a).basis)
                + list(g.subspace(b).basis)
                + list(h.subspace(c).basis)
            )
            if matrix_rank(rows, backend) != n:
                return False
    return True

