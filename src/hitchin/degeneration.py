r"""Degeneration functionals: per-edge crossing costs, K and L, the length
lower bound, orbit-counting bounds, and the entropy upper bound.

The crossing cost of a triangulation edge {a, b} with opposite triangle
vertices c, d is built from cross ratios of the four flags based at the
collections

    M_p(a, b, c) = { a^(p-r) + b^(n-p-1) + c^(r-1) : r = 1..p },

averaged over p and minimized over the two quadruple orderings; K is the
minimum over the six edge classes of the decomposition, L the minimal
boundary width over n.  The two orderings share their bases: a^i + b^j +
e^k (e in {c, d}) can only sit in M_p(a, b, e), where b has multiplicity
n-1-p, or in M_(n-1-p)(b, a, e), where a has multiplicity p.  So it serves
p = n-1-j in one ordering and p = i in the other, and ``k_edge`` builds
each base sum once for both.  Away from the Fuchsian locus the four flags
are reconstructed from the invariant data alone: the edge pair is
normalized to the standard and reversed coordinate flags, the triangle
invariants pin the two opposite flags (after the cyclic/transposition
reindexing that moves the unknown flag into the middle slot), and the
shear values pin the fourth line.

The segment-length checks on the Fuchsian locus build no flag: the
hyperplane Q1^(k1) + Q2^(k2) of osculating subspaces is the zero set of
(z - Q1)^k1 (z - Q2)^k2 on the rational normal curve, so each segment
length is a sum of logs of classical boundary cross ratios, and the
crossing average at n is n - 1 times its n = 2 value.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .flags import (
    reconstruct_triple,
    recover_fourth_line_from_values,
)
from .fuchsian import (
    boundary_cross_ratio,
    fixed_points,
    in_arc,
    mat2_mul,
    points_equal,
)
from .invariants import INFINITY, based_lines, cross_ratio, is_infinite, triple_index_set
from .linalg import DegenerateError, FLOAT64, Flag, Subspace
from .tracer import EdgeLift

#: reindexing that brings each edge's opposite flags into the middle slot;
#: tau' always enters inverted (the fourth vertex sits on the primed side)
_EDGE_RULES = {
    "ab": {
        "tau_perm": lambda p, q, r: (p, r, q),
        "taup_perm": lambda p, q, r: (p, r, q),
        "shear": lambda n, k: (k, n - k, 0),
    },
    "ac": {
        "tau_perm": lambda p, q, r: (r, q, p),
        "taup_perm": lambda p, q, r: (r, q, p),
        "shear": lambda n, k: (n - k, 0, k),
    },
    "cb": {
        "tau_perm": lambda p, q, r: (q, p, r),
        "taup_perm": lambda p, q, r: (q, p, r),
        "shear": lambda n, k: (0, k, n - k),
    },
}


@dataclass
class EdgeQuadruple:
    """Flags at the two edge endpoints and the two opposite vertices."""

    a: Flag
    b: Flag
    c: Flag
    d: Flag

    @property
    def n(self):
        return self.a.ambient


def _log_cross(lines, m_space):
    value = cross_ratio(lines, m_space)
    if is_infinite(value) or value <= 0:
        raise DegenerateError(f"crossing cross ratio not positive: {value}")
    if isinstance(value, Fraction):
        # an exact ratio may lie outside the float range
        return math.log(value.numerator) - math.log(value.denominator)
    return math.log(value)


def k_edge(quad):
    """K[a, b] of one edge quadruple: min of the two branch averages.

    Branch one averages over p the largest log (d, a, c, b)_M over M in
    M_p(a, b, c) u M_(n-1-p)(b, a, d), branch two the largest
    log (b, d, a, c)_M over M_p(a, b, d) u M_(n-1-p)(b, a, c).  A base
    a^i + b^j + e^k sits at p = n-1-j in the branch that pairs M_p with e
    and at p = i in the other (see the module docstring), so one pass over
    (e, i, j) builds each base sum and its moving lines once for both.
    """
    fa, fb, fc, fd = quad.a, quad.b, quad.c, quad.d
    n = quad.n
    k_one = [-math.inf] * n
    k_two = [-math.inf] * n
    for e_is_c, fe in ((True, fc), (False, fd)):
        for i in range(n - 1):
            for j in range(n - 1 - i):
                base = [(f, m) for f, m in ((fa, i), (fb, j), (fe, n - 2 - i - j)) if m]
                m_space, (la, lb, lc, ld) = based_lines((fa, fb, fc, fd), base)
                p_one, p_two = (n - 1 - j, i) if e_is_c else (i, n - 1 - j)
                k_one[p_one] = max(k_one[p_one], _log_cross((ld, la, lc, lb), m_space))
                k_two[p_two] = max(k_two[p_two], _log_cross((lb, ld, la, lc), m_space))
    return min(sum(k_one) / n, sum(k_two) / n)


@functools.cache
def _edge_frame(n):
    """The float64 standard flag, reversed flag and all-ones line of R^n."""
    return (
        Flag.standard(n, backend=FLOAT64),
        Flag.reversed_standard(n, backend=FLOAT64),
        Subspace.span([(1.0,) * n], backend=FLOAT64),
    )


def edge_quadruple_from_invariants(inv, kind):
    """Reconstruct the four flags of one edge class from invariant data.

    The edge endpoints are normalized to the standard and reversed
    coordinate flags; the triangle-side vertex carries the all-ones line
    and its flag comes from the tau data, the opposite vertex's line from
    the shear block and its flag from the tau' data.
    """
    n = inv.n
    rules = _EDGE_RULES[kind]
    fa, fb, ones = _edge_frame(n)

    tau_ratios = {}
    taup_ratios = {}
    for idx in triple_index_set(n):
        tau_ratios[idx] = math.exp(float(inv.tau[rules["tau_perm"](*idx)]))
        taup_ratios[idx] = math.exp(-float(inv.tau_prime[rules["taup_perm"](*idx)]))
    fc = reconstruct_triple(fa, fb, ones, tau_ratios)
    shear_values = {
        k: -math.exp(float(inv.sigma[rules["shear"](n, k)])) for k in range(1, n)
    }
    d_line = recover_fourth_line_from_values(fa, fb, ones, shear_values)
    fd = reconstruct_triple(fa, fb, d_line, taup_ratios)
    return EdgeQuadruple(a=fa, b=fb, c=fc, d=fd)


def compute_K(decomp, invariants):
    """K and the per-edge crossing costs for a full invariant set."""
    per_edge = {}
    for j, inv in enumerate(invariants):
        for kind in ("ab", "ac", "cb"):
            quad = edge_quadruple_from_invariants(inv, kind)
            per_edge[(j, kind)] = k_edge(quad)
    k_min = min(per_edge.values())
    return k_min, per_edge


def compute_L(boundary_gaps, n):
    """Minimal boundary width over n: min over curves of (l_1 - l_n)/n."""
    if not boundary_gaps:
        raise DegenerateError("no boundary data")
    widths = {}
    for cid, gaps in boundary_gaps.items():
        if any(float(g) <= 0 for g in gaps):
            raise DegenerateError(f"curve {cid}: boundary gaps must be positive")
        widths[cid] = sum(float(g) for g in gaps)
    return min(w / n for w in widths.values())


def length_lower_bound(counts, k_val, l_val):
    """r K/11 + s L/11 for a traced curve with r >= 1."""
    if counts.r < 1:
        raise DegenerateError("length bound needs a curve with r >= 1")
    if k_val <= 0 or l_val <= 0:
        raise DegenerateError("length bound needs positive K and L")
    return counts.r * k_val / 11.0 + counts.s * l_val / 11.0


# ---------------------------------------------------------------------------
# counting bounds


@dataclass(frozen=True)
class CountBound:
    T: Fraction
    value: Fraction


def count_bound_gamma0(T, L, genus):
    """(6g-6) floor(T/L) + 1, exactly."""
    T, L = Fraction(T), Fraction(L)
    if T <= 0 or L <= 0 or genus < 2:
        raise DegenerateError("count bound needs positive T, L and genus >= 2")
    return CountBound(T=T, value=Fraction((6 * genus - 6) * math.floor(T / L) + 1))


def count_bound_gamma1(T, K, L, genus):
    """Exact evaluation of the binodal-count bound.

    sum over a = 1..floor(11T/K) of (120g-120)^a / a times
    binom(floor((11T - aK)/L) + a, a); exact rational output.
    """
    T, K, L = Fraction(T), Fraction(K), Fraction(L)
    if K <= 0 or L <= 0 or T <= 0:
        raise DegenerateError("count bound needs positive T, K, L")
    amax = math.floor(11 * T / K)
    total = Fraction(0)
    base = 120 * genus - 120
    for a in range(1, amax + 1):
        budget = math.floor((11 * T - a * K) / L)
        total += Fraction(base**a, a) * math.comb(budget + a, a)
    return CountBound(T=T, value=total)


# ---------------------------------------------------------------------------
# entropy bound


def _xlogx(t):
    return 0.0 if t <= 0 else t * math.log(t)


def binomial_growth_rate(K, L):
    """max over q in [0, 1/K] of the growth exponent of
    binom(floor((1-qK)/L T) + qT, qT).

    The exponent is (m+q)log(m+q) - m log m - q log q with m = (1-qK)/L,
    continuous up to the endpoints where it vanishes.  Golden-section
    search with deterministic restarts guards against flat stretches.
    """
    K, L = float(K), float(L)
    if K <= 0 or L <= 0:
        raise DegenerateError("growth rate needs positive K and L")

    def phi(q):
        m = (1.0 - q * K) / L
        if m < 0 or q < 0:
            return -math.inf
        return _xlogx(m + q) - _xlogx(m) - _xlogx(q)

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
        qm = (a + b) / 2.0
        return max(phi(qm), fc, fd)

    hi = 1.0 / K
    best = max(phi(0.0), phi(hi))
    windows = [(0.0, hi)]
    for i in range(1, 11):
        lo = hi * (i - 1) / 10.0
        windows.append((lo, hi * i / 10.0))
    for lo, up in windows:
        best = max(best, golden(lo, up))
    return best


def entropy_upper_bound(K, L, genus):
    """11 F(K, L) + 11 log(120g - 120)/K."""
    K = float(K)
    if K <= 0 or genus < 2:
        raise DegenerateError("entropy bound needs positive K and genus >= 2")
    return 11.0 * binomial_growth_rate(K, L) + 11.0 * math.log(120 * genus - 120) / K


# ---------------------------------------------------------------------------
# segment-length checks on the Fuchsian locus


def _neighbor_point(tracer, edge_lift, shared_point):
    p, q = tracer.edge_points(edge_lift)
    return q if points_equal(p, shared_point) else p


def _moved_endpoints(tracer, entry, xm, xp):
    """Boundary points (minus, plus) spanning the hyperplanes through the
    backward- and forward-moved points of one traced binodal edge."""
    pred_e, edge_e, succ_e, _pivot = entry
    p, q = tracer.edge_points(edge_e)
    a_pt, b_pt = (p, q) if in_arc(p, xm, xp) else (q, p)
    # succ shares exactly one endpoint of the edge; pred the other
    sp, sq = tracer.edge_points(succ_e)
    if points_equal(sp, a_pt) or points_equal(sq, a_pt):
        # succ pivots at a: the moving endpoint on the b side advances
        succ_far = _neighbor_point(tracer, succ_e, a_pt)
        pred_far = _neighbor_point(tracer, pred_e, b_pt)
        return (pred_far, b_pt), (a_pt, succ_far)
    succ_far = _neighbor_point(tracer, succ_e, b_pt)
    pred_far = _neighbor_point(tracer, pred_e, a_pt)
    return (a_pt, pred_far), (succ_far, b_pt)


def _segment_lengths(xm, xp, minus, plus, n):
    """Lengths of the subsegments p = 0..n-1 from the hyperplanes
    Q1^(p) + Q2^(n-p-1), (Q1, Q2) = minus, to the same for plus.

    Each length is the log of the cross ratio (xm, L-, L+, xp) on the
    plane of the first lines at xm and xp, L± its meet with the two
    hyperplanes.  Q1^(p) + Q2^(n-p-1) is the zero set of
    (z - Q1)^p (z - Q2)^(n-p-1) on the rational normal curve, so the
    cross ratio is r1^p r2^(n-p-1) with ri = rho(plus_i) / rho(minus_i)
    and rho(q) = (xm - q)/(xp - q).  A negative ri puts the two moved
    endpoints on opposite sides of the axis.
    """
    logs = []
    for q_minus, q_plus in zip(minus, plus):
        r_minus, r_plus = (
            boundary_cross_ratio(xm, INFINITY, q, xp) for q in (q_minus, q_plus)
        )
        if 0.0 in (r_minus, r_plus) or math.inf in (r_minus, r_plus):
            raise DegenerateError("segment endpoints are not transverse")
        if r_plus / r_minus < 0:
            raise DegenerateError("segment cross ratio not positive")
        logs.append(math.log(r_plus / r_minus))
    return [p * logs[0] + (n - p - 1) * logs[1] for p in range(n)]


def crossing_segment_average(tracer, entry, xm, xp):
    """(1/n) sum over p of the crossing (p)-subsegment lengths of one edge."""
    minus, plus = _moved_endpoints(tracer, entry, xm, xp)
    return sum(_segment_lengths(xm, xp, minus, plus, tracer.n)) / tracer.n


def winding_segment_lengths(tracer, entry, next_entry, xm, xp):
    """Lengths l(w_p) of the winding subsegments between consecutive
    binodal edges, indexed by p = 0..n-1.

    The segment runs from the backward-moved point of the first edge to
    the forward-moved point of the second.
    """
    minus, _ = _moved_endpoints(tracer, entry, xm, xp)
    _, plus = _moved_endpoints(tracer, next_entry, xm, xp)
    return _segment_lengths(xm, xp, minus, plus, tracer.n)


def segment_length_check(tracer, psi, index, x_mat, k_value, l_value):
    """(lhs, rhs) pairs for one binodal edge of a traced encoding.

    Returns the crossing inequality (average crossing length vs K) and the
    winding inequality toward the next binodal edge (same-type pairs
    average all p and compare against max(0, |t|-2) L; different-type
    pairs use the p = 1 and p = n-2 segments against max(0, |t|-1) L).
    The wrap-around pair translates the first edge by the deck matrix so
    the two lifts are genuinely consecutive along the axis.
    """
    xm, xp = fixed_points(x_mat)
    entry = psi.lifts[index]
    wrap = (index + 1) % len(psi.lifts)
    next_entry = psi.lifts[wrap]
    if wrap <= index:
        next_entry = tuple(
            EdgeLift(mat2_mul(x_mat, e.gamma), e.pants, e.kind)
            if isinstance(e, EdgeLift)
            else e
            for e in next_entry
        )
    crossing = (crossing_segment_average(tracer, entry, xm, xp), k_value)
    t_val = psi.tuples[index].t
    w_lengths = winding_segment_lengths(tracer, entry, next_entry, xm, xp)
    n = tracer.n
    same_type = psi.tuples[index].type == psi.tuples[wrap].type
    if same_type:
        winding = (sum(w_lengths) / n, max(0, abs(t_val) - 2) * l_value)
    else:
        winding = (
            w_lengths[1] + w_lengths[n - 2],
            max(0, abs(t_val) - 1) * l_value,
        )
    return crossing, winding


# ---------------------------------------------------------------------------
# internal-sequence scans


@dataclass
class DegenerationReport:
    step: int
    n: int
    genus: int
    K: float
    L: float
    entropy_bound: float
    min_edge: tuple
    flags_ok: bool
    per_edge: dict = field(default_factory=dict)
    error: str = ""

    def csv_row(self):
        return (
            self.step,
            self.n,
            self.genus,
            f"{self.K:.12g}" if self.flags_ok else "",
            f"{self.L:.12g}" if self.flags_ok else "",
            f"{self.entropy_bound:.12g}" if self.flags_ok else "",
            f"{self.min_edge[0]}:{self.min_edge[1]}" if self.flags_ok else "",
            int(self.flags_ok),
        )


CSV_COLUMNS = ("step", "n", "g", "K", "L", "entropy_bound", "min_edge_id", "flags_ok")


def shifted_params(base, direction, scale):
    """Base point plus scale * direction in the internal coordinates."""
    from .pants import HitchinParams

    internal = []
    for j, block in enumerate(base.internal):
        shift = direction[j] if isinstance(direction, (list, tuple)) else direction
        new = dict(block)
        for label, delta in shift.items():
            new[label] = new[label] + scale * delta
        internal.append(new)
    return HitchinParams(
        n=base.n,
        decomp=base.decomp,
        boundary=dict(base.boundary),
        internal=tuple(internal),
        gluing=dict(base.gluing),
    )


def internal_sequence_scan(base, direction, steps):
    """Reports along base + i*direction, i = 0..steps, boundary held fixed.

    Rows where reconstruction fails are flagged and the scan continues.
    """
    from .pants import xi_inverse

    genus = base.decomp.genus
    rows = []
    for i in range(steps + 1):
        try:
            params = shifted_params(base, direction, i)
            invariants, _ = xi_inverse(params)
            k_val, per_edge = compute_K(base.decomp, invariants)
            l_val = compute_L(params.boundary, base.n)
            ent = entropy_upper_bound(k_val, l_val, genus)
            min_edge = min(per_edge, key=per_edge.get)
            rows.append(
                DegenerationReport(
                    step=i,
                    n=base.n,
                    genus=genus,
                    K=k_val,
                    L=l_val,
                    entropy_bound=ent,
                    min_edge=min_edge,
                    flags_ok=True,
                    per_edge=per_edge,
                )
            )
        except (DegenerateError, ValueError, OverflowError) as exc:
            rows.append(
                DegenerationReport(
                    step=i,
                    n=base.n,
                    genus=genus,
                    K=float("nan"),
                    L=float("nan"),
                    entropy_bound=float("nan"),
                    min_edge=("", ""),
                    flags_ok=False,
                    error=str(exc),
                )
            )
    return rows
