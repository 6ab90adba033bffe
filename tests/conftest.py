import functools
import math
import random
from fractions import Fraction

import pytest

from hitchin.flags import veronese_flag
from hitchin.fuchsian import genus2_surface, in_arc, mobius, points_equal
from hitchin.invariants import (
    cross_ratio,
    cross_ratio_flags,
    is_infinite,
    shear_index_set,
    triple_index_set,
    triple_ratio,
)
from hitchin.linalg import (
    EXACT,
    DegenerateError,
    Flag,
    Subspace,
    jordan_projection,
    rref,
    subspace_intersect,
)
from hitchin.pants import SLOTS, PantsInvariants, slot_boundary_gaps
from hitchin.tracer import PsiTracer


#: the genus-2 surfaces the Fuchsian-locus tests run on
SURFACES = {
    "default": {},
    "twist": {"twist": Fraction(1, 5)},
    "b1": {"b1": ((1, 3), (1, 4))},
}


@functools.lru_cache(maxsize=None)
def named_surface(name):
    return genus2_surface(**SURFACES[name])


@pytest.fixture(scope="session")
def surface():
    return genus2_surface()


@pytest.fixture(scope="session")
def tracer2(surface):
    return PsiTracer(surface, n=2, depth_cap=64)


def random_flag(rng, n, span=6):
    """A random exact flag with small integer data."""
    while True:
        vecs = [
            [Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)
        ]
        try:
            return Flag.from_basis(vecs)
        except DegenerateError:
            continue


def random_unimodular(rng, n, steps=6):
    """Random integer matrix of determinant one (product of shears)."""
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = Fraction(rng.randint(-2, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


@pytest.fixture
def rng():
    return random.Random(20240809)


def gap_terms(slot, k, n):
    """All invariant labels appearing in the slot identity at level k."""
    terms = []
    if slot == "A":
        terms.append(("sigma", (n - k, k, 0)))
        terms.append(("sigma", (n - k, 0, k)))
        terms += [("tau", (n - k, i, k - i)) for i in range(1, k)]
        terms += [("tau_prime", (n - k, i, k - i)) for i in range(1, k)]
    elif slot == "B":
        terms.append(("sigma", (0, n - k, k)))
        terms.append(("sigma", (k, n - k, 0)))
        terms += [("tau", (k - i, n - k, i)) for i in range(1, k)]
        terms += [("tau_prime", (k - i, n - k, i)) for i in range(1, k)]
    else:
        terms.append(("sigma", (k, 0, n - k)))
        terms.append(("sigma", (0, k, n - k)))
        terms += [("tau", (i, k - i, n - k)) for i in range(1, k)]
        terms += [("tau_prime", (i, k - i, n - k)) for i in range(1, k)]
    return terms


def xi_inverse_dense(params):
    """Independent oracle for ``xi_inverse``: solve each pants densely.

    Sets up the 3(n-1) x (3n-3) system of slot identities in the
    non-parameter invariants and solves it exactly by row-reducing the
    augmented matrix.
    """
    n = params.n
    unknowns = (
        [("sigma", (1, n - 1, 0))]
        + [("sigma", (x, 0, n - x)) for x in range(1, n)]
        + [("sigma", (0, y, n - y)) for y in range(1, n)]
        + [("tau_prime", idx) for idx in triple_index_set(n) if idx[0] == 1]
    )
    col = {u: i for i, u in enumerate(unknowns)}
    width = len(unknowns)
    out = []
    for j in range(params.decomp.num_pants):
        block = params.internal[j]

        def known(kind, idx):
            if kind == "tau":
                return block[("tau", idx)]
            if kind == "tau_prime" and idx[0] > 1:
                return block[("tau_prime", idx)]
            if kind == "sigma" and idx[2] == 0 and idx[0] > 1:
                return block[("sigma", idx)]
            return None

        augmented = []
        for slot in SLOTS:
            gaps = slot_boundary_gaps(params, j, slot)
            for k in range(1, n):
                row = [Fraction(0)] * (width + 1)
                row[width] = Fraction(gaps[k - 1])
                for kind, idx in gap_terms(slot, k, n):
                    v = known(kind, idx)
                    if v is not None:
                        row[width] -= Fraction(v)
                    else:
                        row[col[(kind, idx)]] += 1
                augmented.append(row)
        red, piv = rref(augmented, EXACT)
        if piv[:width] != tuple(range(width)):
            raise DegenerateError("singular reparameterization system")
        if len(piv) > width:
            raise DegenerateError("inconsistent reparameterization system")
        tau = {idx: block[("tau", idx)] for idx in triple_index_set(n)}
        taup = {idx: block[("tau_prime", idx)] for idx in triple_index_set(n) if idx[0] > 1}
        sigma = {(x, n - x, 0): block[("sigma", (x, n - x, 0))] for x in range(2, n)}
        for (kind, idx), row in zip(unknowns, red):
            if kind == "sigma":
                sigma[idx] = row[width]
            else:
                taup[idx] = row[width]
        out.append(PantsInvariants(n=n, tau=tau, tau_prime=taup, sigma=sigma))
    return out


def eigen_gap_oracle(matrix, i, j):
    """exp(lambda_i - lambda_j) straight from the Jordan projection."""
    lam = jordan_projection(matrix).entries
    return math.exp(lam[i - 1] - lam[j - 1])


def _m_collection(fa, fb, fc, p):
    """The bases a^(p-r) + b^(n-p-1) + c^(r-1), r = 1..p."""
    n = fa.ambient
    out = []
    for r in range(1, p + 1):
        base = [(fa, p - r), (fb, n - p - 1), (fc, r - 1)]
        out.append([(f, m) for f, m in base if m > 0])
    return out


def k_edge_two_branches(quad):
    """Oracle for ``k_edge``: each branch built collection by collection.

    Branch one averages over p the largest log (d, a, c, b)_M over
    M_p(a, b, c) u M_(n-1-p)(b, a, d), branch two the largest
    log (b, d, a, c)_M over M_p(a, b, d) u M_(n-1-p)(b, a, c); every
    cross ratio is evaluated from scratch by ``cross_ratio_flags``.
    """
    fa, fb, fc, fd = quad.a, quad.b, quad.c, quad.d
    n = quad.n

    def log_cross(flags, base):
        value = cross_ratio_flags(*flags, base)
        if is_infinite(value) or value <= 0:
            raise DegenerateError(f"crossing cross ratio not positive: {value}")
        return math.log(float(value))

    averages = []
    for order, near, far in (
        ((fd, fa, fc, fb), fc, fd),
        ((fb, fd, fa, fc), fd, fc),
    ):
        total = 0.0
        for p in range(n):
            bases = _m_collection(fa, fb, near, p) + _m_collection(fb, fa, far, n - 1 - p)
            total += max(log_cross(order, base) for base in bases)
        averages.append(total / n)
    return min(averages)


@functools.lru_cache(maxsize=None)
def _exact_flag(key, n):
    return veronese_flag((1, 0) if key == "inf" else (Fraction(key), 1), n)


def exact_flag_at(point, n):
    """Exact osculating flag at the rational point ``Fraction(float(point))``
    next to a boundary point (the standard flag at INFINITY)."""
    return _exact_flag("inf" if is_infinite(point) else float(point), n)


def plane_cross_ratio(p1, p2, p3, p4, plane):
    """Cross ratio of four lines inside a common plane H in R^n.

    The lines are expressed in a basis of H and the classical 2-dimensional
    formula applies; by coplanarity the value is base-independent.
    """
    backend = plane.backend
    u, v = plane.basis

    def coords(line):
        vec = line.line_vector() if isinstance(line, Subspace) else tuple(line)
        # solve vec = alpha u + beta v by elimination on columns (u v vec)
        rows = [tuple(col) for col in zip(u, v, vec)]
        red, piv = rref(rows, backend, ncols=3)
        if len(red) != 2 or piv[:2] != (0, 1):
            raise DegenerateError("line does not lie in the plane")
        return (red[0][2], red[1][2])

    vecs = [coords(p) for p in (p1, p2, p3, p4)]
    return cross_ratio(vecs, [])


def fuchsian_invariants_exact_flags(surface, n):
    """Oracle for ``fuchsian_invariants``: the defining ratios on flags.

    Evaluates the triple ratios and shear cross ratios on exact osculating
    flags of the rational normal curve at the rational points
    ``Fraction(float(p))`` next to the boundary points, in the log
    coordinates ``fuchsian_invariants`` returns.
    """
    out = []
    for j in range(surface.decomp.num_pants):
        a, b, c = (surface.base_vertex(j, letter) for letter in "abc")
        fa, fb, fc = (exact_flag_at(p, n) for p in (a, b, c))
        f_ac = exact_flag_at(mobius(surface.slot_matrix(j, "A"), c), n)
        f_cb = exact_flag_at(mobius(surface.slot_matrix(j, "C"), b), n)
        f_ba = exact_flag_at(mobius(surface.slot_matrix(j, "B"), a), n)
        tau, taup = {}, {}
        for (x, y, z) in triple_index_set(n):
            tau[(x, y, z)] = math.log(triple_ratio(fa, fc, fb, (x, z, y)))
            taup[(x, y, z)] = math.log(triple_ratio(fa, fb, f_ac, (x, y, z)))
        sigma = {}
        for (x, y, z) in shear_index_set(n):
            if z == 0:
                val = cross_ratio_flags(fa, fc, f_ac, fb, [(fa, x - 1), (fb, y - 1)])
            elif y == 0:
                val = cross_ratio_flags(fc, fb, f_cb, fa, [(fc, z - 1), (fa, x - 1)])
            else:
                val = cross_ratio_flags(fb, fa, f_ba, fc, [(fb, y - 1), (fc, z - 1)])
            sigma[(x, y, z)] = math.log(-val)
        out.append(PantsInvariants(n=n, tau=tau, tau_prime=taup, sigma=sigma))
    return out


def segment_lengths_exact_flags(tracer, entry, next_entry, xm, xp):
    """Oracle for the segment-length checks: the hyperplane construction
    on exact osculating flags.

    Each subsegment length is the log of the cross ratio (xm, L-, L+, xp)
    on the plane H of first lines at xm and xp, where L+ and L- are the
    meets of H with the moved hyperplanes Q1^(p) + Q2^(n-p-1).  Returns
    the crossing average of ``entry`` and the winding lengths from
    ``entry`` to ``next_entry``, as ``crossing_segment_average`` and
    ``winding_segment_lengths`` do.
    """
    n = tracer.n
    first = [exact_flag_at(x, n).subspace(1) for x in (xm, xp)]
    h_plane = first[0] | first[1]

    def seg_log(minus, plus, p):
        lines = []
        for q1, q2 in (minus, plus):
            f1, f2 = exact_flag_at(q1, n), exact_flag_at(q2, n)
            line = subspace_intersect(f1.subspace(p) | f2.subspace(n - p - 1), h_plane)
            if line.dim != 1:
                raise DegenerateError("segment endpoints are not transverse")
            lines.append(line)
        val = plane_cross_ratio(first[0], lines[0], lines[1], first[1], h_plane)
        if is_infinite(val) or val <= 0:
            raise DegenerateError("segment cross ratio not positive")
        return math.log(val)

    def moved(entry):
        # edge (a, b) with a on the xm -> xp arc; succ and pred each share
        # one endpoint, and the far ends move the two hyperplanes
        pred_e, edge_e, succ_e, _pivot = entry
        p, q = tracer.edge_points(edge_e)
        a, b = (p, q) if in_arc(p, xm, xp) else (q, p)

        def far(edge, shared):
            u, v = tracer.edge_points(edge)
            return v if points_equal(u, shared) else u

        if any(points_equal(x, a) for x in tracer.edge_points(succ_e)):
            return (far(pred_e, b), b), (a, far(succ_e, a))
        return (a, far(pred_e, a)), (far(succ_e, b), b)

    minus, plus = moved(entry)
    crossing = sum(seg_log(minus, plus, p) for p in range(n)) / n
    _, next_plus = moved(next_entry)
    return crossing, [seg_log(minus, next_plus, p) for p in range(n)]
