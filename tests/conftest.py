import functools
import math
import random
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from hitchin.flags import veronese_flag
from hitchin.fuchsian import genus2_surface, in_arc, mobius, points_equal, translation_length
from hitchin.invariants import (
    INFINITY,
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
    convert_matrix,
    draw_generic,
    is_generic_triple,
    mat_vec,
    rref,
    subspace_intersect,
    wedge_det,
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


#: wall-clock seconds a test may take, more than ten times the slowest
#: one: a defect that stops a computation from shrinking its numbers (a
#: tracer group element whose entries are never reduced, say) then fails
#: the test instead of hanging the suite
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the running test once it passes ``TEST_TIME_LIMIT_S``."""

    def expire(signum, frame):
        pytest.fail(f"test ran past its {TEST_TIME_LIMIT_S} s time limit", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def surface():
    return genus2_surface()


@pytest.fixture(scope="session")
def tracer2(surface):
    return PsiTracer(surface, n=2, depth_cap=64)


def random_flag(rng, n, span=6):
    """A random exact flag with small integer data."""

    def sample():
        vecs = [
            [Fraction(rng.randint(-span, span)) for _ in range(n)] for _ in range(n)
        ]
        return Flag(vecs)

    return draw_generic(sample, f"flag in R^{n}")


def generic_triple(rng, n, span=6):
    """Three random flags (see ``random_flag``) in general position."""

    def sample():
        f, g, h = (random_flag(rng, n, span) for _ in range(3))
        if not is_generic_triple(f, g, h):
            raise DegenerateError("flag triple is not generic")
        return f, g, h

    return draw_generic(sample, f"generic flag triple in R^{n}")


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


#: rationals of three heights: small p/q, dyadics Fraction(float), and
#: numerators and denominators near 10^50
HEIGHTS = {
    "small": lambda r: Fraction(r.randint(-9, 9), r.randint(1, 9)),
    "dyadic": lambda r: Fraction(math.ldexp(r.uniform(-1, 1), r.randint(-40, 3))),
    "huge": lambda r: Fraction(r.randint(-(10**50), 10**50), r.randint(10**49, 10**50)),
}


def height_vectors(draw, n, height=None):
    """A function drawing vectors in R^n of one height; hypothesis picks the
    height, unless given, and the seed, and the seed the entries."""
    entry = HEIGHTS[height or draw(st.sampled_from(sorted(HEIGHTS)))]
    r = random.Random(draw(st.integers(0, 2**32)))

    def vector(zeros=()):
        return tuple(Fraction(0) if j in zeros else entry(r) for j in range(n))

    return vector


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


def cross_ratio_wedges(lines, base):
    """Oracle for ``cross_ratio``: the n x n wedge formula

        [M^L1^L3][M^L4^L2] / ([M^L1^L2][M^L4^L3])

    through one ``wedge_det`` call per wedge, on a Subspace base or raw
    rows.  Exact input gives the same rational as the reduction modulo the
    base; float input gives the bits of the stacked LU wedges.
    """
    reps = [l.line_vector() if isinstance(l, Subspace) else tuple(l) for l in lines]
    mrows = list(base.basis) if isinstance(base, Subspace) else [tuple(v) for v in base]

    def w(u, v):
        return wedge_det(mrows + [u, v])

    l1, l2, l3, l4 = reps
    num = w(l1, l3) * w(l4, l2)
    den = w(l1, l2) * w(l4, l3)
    if den == 0:
        if num == 0:
            raise DegenerateError("cross ratio undefined: 0/0")
        return INFINITY
    return num / den


def triple_ratio_wedges(f, g, h, index):
    """Oracle for exact ``triple_ratio``: six n x n wedges on compatible bases."""
    x, y, z = index
    fb, gb, hb = f.compatible_basis(), g.compatible_basis(), h.compatible_basis()

    def w(i, j, k):
        return wedge_det(list(fb[:i]) + list(gb[:j]) + list(hb[:k]))

    num = w(x, y - 1, z + 1) * w(x + 1, y, z - 1) * w(x - 1, y + 1, z)
    den = w(x, y + 1, z - 1) * w(x - 1, y, z + 1) * w(x + 1, y - 1, z)
    if den == 0:
        raise DegenerateError("triple ratio of a non-generic triple")
    return num / den


def reconstruct_triple_hyperplanes(f, h, g_line, ratios):
    """Oracle for exact ``reconstruct_triple``: the hyperplane loop.

    For each level y0 and each index (x, y0, z) it solves for the
    coordinates of f_(x+1) and h_(z+1) in the basis f_1..f_x, g_1..g_y0,
    h_1..h_z by RREF, spans the hyperplane F^(x-1) + G^(y0) + H^(z-1) +
    (beta f_x + h_z) and meets the hyperplanes of the level; the flag is
    completed by the first coordinate vector outside the last level.
    """
    n = f.ambient
    backend = f.backend
    fb = f.compatible_basis()
    hb = h.compatible_basis()
    g_vec = g_line.line_vector() if isinstance(g_line, Subspace) else tuple(g_line)
    g_basis = [tuple(backend.convert(x) for x in g_vec)]

    def coordinates(basis, vector):
        rows = [tuple(col) for col in zip(*basis, vector)]
        red, piv = rref(rows, backend, ncols=n + 1)
        if len(red) != n or piv != tuple(range(n)):
            raise DegenerateError("coordinate basis is degenerate")
        return tuple(red[i][n] for i in range(n))

    for y0 in range(1, n - 1):
        hyperplanes = []
        for x in range(1, n - y0):
            z = n - x - y0
            t_val = ratios[(x, y0, z)]
            coords_basis = list(fb[:x]) + g_basis + list(hb[:z])
            alpha = coordinates(coords_basis, fb[x])
            gamma = coordinates(coords_basis, hb[z])
            a_top, a_mid = alpha[n - 1], alpha[x + y0 - 1]
            c_mid, c_low = gamma[x + y0 - 1], gamma[x - 1]
            if a_top == 0 or a_mid == 0 or c_mid == 0 or c_low == 0:
                raise DegenerateError(
                    f"ratio data forces a degenerate configuration at level {y0}"
                )
            beta = -backend.convert(t_val) * a_mid * c_low / (a_top * c_mid)
            spanning = (
                list(fb[: x - 1])
                + g_basis
                + list(hb[: z - 1])
                + [tuple(beta * fx + hz for fx, hz in zip(fb[x - 1], hb[z - 1]))]
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
        g_basis.append(tuple(x / lead for x in new_vec))

    for v in Subspace.full(n, backend).basis:
        if Subspace.span(g_basis + [v], ambient=n, backend=backend).dim == n:
            g_basis.append(v)
            break
    else:
        raise DegenerateError(
            f"reconstructed level {n - 1} is not a hyperplane: no coordinate "
            f"vector completes the flag"
        )
    return Flag(g_basis, backend=backend)


def snake_flag_fractions(line, ratios):
    """Oracle for ``flags._snake_flag``: G = D u H in ``Fraction`` arithmetic.

    u is the product of I + a(k, p) E_(s, s+1) taken column by column, D
    = diag(l_i / (u e_n)_i), and the basis g_j = D u e_(n+1-j) keeps every
    scale the product gives it.
    """
    n = len(line)
    cols = [[Fraction(int(i == j)) for i in range(n)] for j in range(n)]
    a = []
    for k in range(1, n):
        a = [Fraction(1)] + [ratios[(k - y, y, n - k)] * a[y - 1] for y in range(1, k)]
        for p, c in enumerate(a):
            s = k - p
            cols[s] = [x + c * y for x, y in zip(cols[s], cols[s - 1][:s])] + cols[s][s:]
    scale = [Fraction(x) / y for x, y in zip(line, cols[-1])]
    basis = [[d * x for d, x in zip(scale, col[:j])] + col[j:] for j, col in enumerate(cols, 1)]
    return Flag(basis[::-1], backend=EXACT)


def jordan_projection(matrix):
    """Sorted log-moduli of a matrix's eigenvalues, shifted to sum zero.

    The shift makes the value projective: scaling the matrix leaves it
    unchanged.
    """
    eigenvalues = np.linalg.eigvals(np.array(matrix, dtype=float))
    logs = sorted(np.log(np.abs(eigenvalues)).tolist(), reverse=True)
    mean = sum(logs) / len(logs)
    return tuple(x - mean for x in logs)


def eigen_gap_oracle(matrix, i, j):
    """exp(lambda_i - lambda_j) straight from the Jordan projection."""
    lam = jordan_projection(matrix)
    return math.exp(lam[i - 1] - lam[j - 1])


def apply_flag(flag, matrix):
    """Image of a flag under an invertible matrix (rows act on the left)."""
    m = convert_matrix(matrix, flag.backend)
    return Flag([mat_vec(m, v) for v in flag.compatible_basis()], backend=flag.backend)


def length_spectrum(surface):
    """Translation length of each pants curve of a surface, keyed by curve id."""
    return {cid: translation_length(surface.matrix(w)) for cid, w in surface.curve_words.items()}


def _m_collection(fa, fb, fc, p):
    """The bases a^(p-r) + b^(n-p-1) + c^(r-1), r = 1..p."""
    n = fa.ambient
    out = []
    for r in range(1, p + 1):
        base = [(fa, p - r), (fb, n - p - 1), (fc, r - 1)]
        out.append([(f, m) for f, m in base if m > 0])
    return out


def _level_line(flag, mult):
    """The moving line read off the levels: the first RREF row of
    F^(mult+1) outside F^(mult)."""
    lower = flag.subspace(mult)
    return next(v for v in flag.subspace(mult + 1).basis if not lower.contains(v))


def k_edge_two_branches(quad):
    """Oracle for ``k_edge``: each branch built collection by collection.

    Branch one averages over p the largest log (d, a, c, b)_M over
    M_p(a, b, c) u M_(n-1-p)(b, a, d), branch two the largest
    log (b, d, a, c)_M over M_p(a, b, d) u M_(n-1-p)(b, a, c).  Every
    cross ratio is evaluated from scratch through n x n wedges
    (``cross_ratio_wedges``) on the levels' representatives: M from the
    RREF rows of the summands' levels and each moving line from
    ``_level_line``, where ``k_edge`` reads both off the flags' bases.
    """
    fa, fb, fc, fd = quad.a, quad.b, quad.c, quad.d
    n = quad.n

    def log_cross(flags, base):
        mrows = [row for flag, mult in base for row in flag.subspace(mult).basis]
        mults = [next((m for bflag, m in base if bflag is flag), 0) for flag in flags]
        value = cross_ratio_wedges([_level_line(f, m) for f, m in zip(flags, mults)], mrows)
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
        sa, sb, sc = (surface.slots[j, letter] for letter in "abc")
        a, b, c = sa.rep, sb.rep, sc.rep
        fa, fb, fc = (exact_flag_at(p, n) for p in (a, b, c))
        f_ac = exact_flag_at(mobius(sa.mat, c), n)
        f_cb = exact_flag_at(mobius(sc.mat, b), n)
        f_ba = exact_flag_at(mobius(sb.mat, a), n)
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


def growth_exponent(q, K, L):
    """The exponent (m+q)log(m+q) - m log m - q log q, m = (1-qK)/L, that
    ``binomial_growth_rate`` maximises over q in [0, 1/K]."""
    m = (1.0 - q * K) / L
    if m < 0 or q < 0:
        return -math.inf

    def xlogx(t):
        return 0.0 if t <= 0 else t * math.log(t)

    return xlogx(m + q) - xlogx(m) - xlogx(q)


def growth_rate_windows(K, L):
    """Oracle for ``binomial_growth_rate``: golden-section searches over
    [0, 1/K] and over each tenth of it, with the endpoints, maximised.

    The windows assume nothing about the exponent's shape; the library
    relies on its concavity and searches [0, 1/K] once."""
    K, L = float(K), float(L)

    def phi(q):
        return growth_exponent(q, K, L)

    def golden(lo, hi, tol=1e-12):
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = phi(c), phi(d)
        while b - a > tol:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = phi(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = phi(d)
        return max(phi((a + b) / 2.0), fc, fd)

    hi = 1.0 / K
    windows = [(0.0, hi)] + [(hi * (i - 1) / 10.0, hi * i / 10.0) for i in range(1, 11)]
    return max([phi(0.0), phi(hi)] + [golden(lo, up) for lo, up in windows])
