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
each base sum once for both; a base a^i + b^(n-2-i) with no e part is the
same for e = c and e = d, so it is built once in all.  Away from the
Fuchsian locus the four flags are reconstructed from the invariant data
alone: the edge pair is normalized to the standard and reversed
coordinate flags, the triangle invariants pin the two opposite flags
(after the cyclic/transposition reindexing that moves the unknown flag
into the middle slot), and the shear values pin the fourth line.  Edges
of one point often share that data (at n = 3 every edge takes all-ones
ratios wherever tau = 0), so ``compute_K`` rebuilds each distinct flag
once per call.

In that frame, with exact flags, ``k_edge`` reads every cross ratio off
contiguous-window minors of one flag's basis bordered by the other's line
(Fock-Goncharov's snake minors), from one Bareiss run per flag and start
column; any other quadruple takes the general loop, with the same values.

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
from decimal import Decimal
from fractions import Fraction

from .flags import _coordinate_frame, reconstruct_triple, recover_fourth_line_from_values
from .fuchsian import (
    boundary_cross_ratio,
    canonical_mul,
    fixed_points,
    in_arc,
)
from .invariants import INFINITY, based_lines, cross_ratios, is_infinite, triple_index_set
from .linalg import FLOAT64, DegenerateError, Flag, Subspace, _bareiss_step
from .tracer import EdgeLift, shared_letter

#: reindexing that brings each edge's opposite flags into the middle slot;
#: tau' always enters inverted (the fourth vertex sits on the primed side)
_EDGE_RULES = {
    "ab": {
        "perm": lambda p, q, r: (p, r, q),
        "shear": lambda n, k: (k, n - k, 0),
    },
    "ac": {
        "perm": lambda p, q, r: (r, q, p),
        "shear": lambda n, k: (n - k, 0, k),
    },
    "cb": {
        "perm": lambda p, q, r: (q, p, r),
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


def _log_cross(value):
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
    (e, i, j) takes both orderings of each base's four moving lines at
    once.  A base with i + j = n-2 has no e part: the e = d pass meets the
    base and lines of the e = c pass again and reuses their two logs, so an
    edge evaluates (n-1)^2 bases, not n(n-1).

    Exact flags with A, B in the coordinate edge frame take every value
    from window minors (:func:`_frame_cross_ratios`), with no base built,
    each run made when a value first needs it.  Other quadruples, float
    ones, and a frame base whose runs meet a zero pivot or denominator take
    the general loop, which gives the same rationals in the same order:
    each moving line and base row depends only on its flag and
    multiplicity (``invariants.based_lines``), read off an exact flag's
    basis or memoised on a float flag (``Flag.moving_line``).
    """
    fa, fb, fc, fd = flags = (quad.a, quad.b, quad.c, quad.d)
    n = quad.n
    frame = _frame_cross_ratios(quad)
    k_one = [-math.inf] * n
    k_two = [-math.inf] * n
    ab_logs = {}
    for e_is_c, fe in ((True, fc), (False, fd)):
        for i in range(n - 1):
            for j in range(n - 1 - i):
                logs = ab_logs.get((i, j))
                if logs is None:
                    values = frame and frame(e_is_c, i, j)
                    if values is None:
                        base = [(f, m) for f, m in ((fa, i), (fb, j), (fe, n - 2 - i - j)) if m]
                        m_base, moving = based_lines(flags, base)
                        # (d, a, c, b) for branch one, (b, d, a, c) for branch two
                        values = cross_ratios(moving, m_base, ((3, 0, 2, 1), (1, 3, 0, 2)))
                    logs = [_log_cross(value) for value in values]
                    if i + j == n - 2:
                        ab_logs[i, j] = logs
                p_one, p_two = (n - 1 - j, i) if e_is_c else (i, n - 1 - j)
                for k_branch, p, log in zip((k_one, k_two), (p_one, p_two), logs):
                    k_branch[p] = max(k_branch[p], log)
    return min(sum(k_one) / n, sum(k_two) / n)


def _window_minors(rows, o, s):
    """(pivots, bordered) of one no-pivot Bareiss run
    (``linalg._bareiss_step``) on integer ``rows`` 0..n-s-1 over columns
    s..n-1, with o as one more row: before step t, pivots[t] is the minor
    of rows 0..t on columns s..s+t and bordered[t], o's entry in column
    s+t, that of rows 0..t-1 and o.  Those two are read before the step
    and never again, so step t updates only the columns after s+t.  None
    at a zero pivot."""
    width = len(o) - s
    a = [list(row[s:]) for row in rows[:width]] + [list(o[s:])]
    pivots, bordered, prev = [], [], 1
    for t in range(width):
        if not a[t][t]:
            return None
        pivots.append(a[t][t])
        bordered.append(a[-1][t])
        _bareiss_step(a, t, t, prev, range(t + 1, width + 1), t + 1)
        prev = a[t][t]
    return pivots, bordered


def _frame_cross_ratios(quad):
    """The two values of a base from window minors, as a function of the
    base's key (e is c, i, j); None off the frame.

    In the frame the base a^i + b^j + e^k leaves the window of columns
    i..i+k+1, where A's and B's moving lines are the first and last unit
    vectors.  With E the flag carrying e, o the other flag's first basis
    vector (the flags' integer rows), Q(x) and P(x) the minors of
    [E rows 0..k-1; x] on columns i..i+k and i+1..i+k+1, I that of E rows
    0..k-1 on columns i+1..i+k and F that of [E rows 0..k-1; d; c] on the
    window, expanding each wedge along the unit vectors gives

        (d, a, c, b)_M = -F I / (P(d) Q(c)),  (b, d, a, c)_M = F I / (Q(d) P(c)),

    as the general loop's rationals, since every row scale cancels.  One of
    c, d is E's row k and the other o, so the runs from columns i and i+1
    hold every minor.  Each run is made when a base first needs it, so an
    edge that fails at its first value pays for two runs.  The function
    gives None at a zero pivot or denominator, where ``k_edge`` takes the
    general loop for that base.  A zero entry in either line is a zero
    first pivot or o entry of some run, so such a quadruple takes the
    general loop throughout.
    """
    exact = all(f.backend.exact for f in (quad.a, quad.c, quad.d))
    if not (exact and _coordinate_frame(quad.a, quad.b)):
        return None
    c_rows, d_rows = quad.c.compatible_basis(), quad.d.compatible_basis()
    if not (all(c_rows[0]) and all(d_rows[0])):
        return None
    runs = {}

    def run(e_is_c, s):
        if (e_is_c, s) not in runs:
            rows, o = (c_rows, d_rows[0]) if e_is_c else (d_rows, c_rows[0])
            runs[e_is_c, s] = _window_minors(rows, o, s)
        return runs[e_is_c, s]

    def values(e_is_c, i, j):
        q_run, p_run = run(e_is_c, i), run(e_is_c, i + 1)
        if q_run is None or p_run is None:
            return None
        (q_piv, q_bord), (p_piv, p_bord) = q_run, p_run
        k = quad.n - 2 - i - j
        # fi is F I when e = d (d = E's row k, c = o) and -F I when e = c,
        # whose F swaps the last two rows: (one, two) are the values for
        # e = c, (two, one) those for e = d
        fi = q_bord[k + 1] * (p_piv[k - 1] if k else 1)
        one, two = (fi, p_bord[k] * q_piv[k]), (-fi, q_bord[k] * p_piv[k])
        if not (one[1] and two[1]):
            return None
        pair = (Fraction(*one), Fraction(*two))
        return pair if e_is_c else pair[::-1]

    return values


def _exp(table, idx, name, kind, sign=1):
    """exp(sign * table[idx]) in float64; an overflow names the coordinate and edge."""
    value = sign * table[idx]
    try:
        return math.exp(float(value))
    except OverflowError:
        q, label = Fraction(value), f"{name}({','.join(map(str, idx))})"
        shown = format(Decimal(q.numerator) / q.denominator, ".6g")
        raise DegenerateError(f"exp({label} = {shown}) overflows float64 on edge {kind}") from None


@functools.cache
def _edge_frame(n):
    """The float64 standard flag, reversed flag and all-ones line of R^n."""
    return (
        Flag.standard(n, backend=FLOAT64),
        Flag.reversed_standard(n, backend=FLOAT64),
        Subspace.span([(1.0,) * n], backend=FLOAT64),
    )


def edge_quadruple_from_invariants(inv, kind, rebuilt=None):
    """Reconstruct the four flags of one edge class from invariant data.

    The edge endpoints are normalized to the standard and reversed
    coordinate flags; the triangle-side vertex carries the all-ones line
    and its flag comes from the tau data, the opposite vertex's line from
    the shear block and its flag from the tau' data.

    ``rebuilt`` maps the data of each rebuild already made to its result:
    C's ratios, D's shear values, and D's shear values with its ratios.
    A rebuild whose data is there is taken from it.  Every other rebuild
    runs, in the usual order, and is added, so a point that fails still
    fails at the same rebuild with the same message.
    """
    n = inv.n
    rules = _EDGE_RULES[kind]
    fa, fb, ones = _edge_frame(n)
    rebuilt = {} if rebuilt is None else rebuilt

    def once(key, build, *args):
        if key not in rebuilt:
            rebuilt[key] = build(*args)
        return rebuilt[key]

    tau_ratios = {}
    taup_ratios = {}
    for idx in triple_index_set(n):
        moved = rules["perm"](*idx)
        tau_ratios[idx] = _exp(inv.tau, moved, "tau", kind)
        taup_ratios[idx] = _exp(inv.tau_prime, moved, "-tau'", kind, -1)
    fc = once(("c", tuple(tau_ratios.values())), reconstruct_triple, fa, fb, ones, tau_ratios)
    shear_values = {k: -_exp(inv.sigma, rules["shear"](n, k), "sigma", kind) for k in range(1, n)}
    shear_key = tuple(shear_values.values())
    d_line = once(("line", shear_key), recover_fourth_line_from_values, fa, fb, ones, shear_values)
    taup_key = tuple(taup_ratios.values())
    fd = once(("d", shear_key, taup_key), reconstruct_triple, fa, fb, d_line, taup_ratios)
    return EdgeQuadruple(a=fa, b=fb, c=fc, d=fd)


def compute_K(decomp, invariants):
    """K and the per-edge crossing costs for a full invariant set.

    One map of rebuilds, local to the call, goes to every
    ``edge_quadruple_from_invariants``, so each distinct flag and fourth
    line is rebuilt once per call.  Edges that share a flag object share
    its memoised levels and moving lines in ``k_edge`` too.  Every edge
    still takes one ``edge_quadruple_from_invariants`` and one ``k_edge``
    call, looked up by module name.
    """
    per_edge = {}
    rebuilt = {}
    for j, inv in enumerate(invariants):
        for kind in ("ab", "ac", "cb"):
            quad = edge_quadruple_from_invariants(inv, kind, rebuilt)
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

    The exponent is phi(q) = (m+q)log(m+q) - m log m - q log q with
    m = (1-qK)/L, continuous up to the endpoints where it vanishes.  With
    b = K/L, so that dm/dq = -b,

        phi''(q) = (1-b)^2/(m+q) - b^2/m - 1/q <= -4b/(m+q) < 0,

    since b^2/m + 1/q >= (1+b)^2/(m+q) by Cauchy-Schwarz.  So phi is
    strictly concave on (0, 1/K), and one golden-section search over the
    whole interval finds its maximum.
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
    return max(phi(0.0), phi(hi), golden(0.0, hi))


def entropy_upper_bound(K, L, genus):
    """11 F(K, L) + 11 log(120g - 120)/K."""
    K = float(K)
    if K <= 0 or genus < 2:
        raise DegenerateError("entropy bound needs positive K and genus >= 2")
    return 11.0 * binomial_growth_rate(K, L) + 11.0 * math.log(120 * genus - 120) / K


# ---------------------------------------------------------------------------
# segment-length checks on the Fuchsian locus


def _moved_endpoints(tracer, entry, xm, xp):
    """Boundary points (minus, plus) spanning the hyperplanes through the
    backward- and forward-moved points of one traced binodal edge."""
    pred_e, edge_e, succ_e, _pivot = entry
    # succ shares one end of the edge, pred the other
    succ_letter = shared_letter(edge_e, succ_e)
    pivot = tracer.point(edge_e.end(succ_letter))
    other = tracer.point(edge_e.far_end(succ_letter))
    succ_far = tracer.point(succ_e.far_end(succ_letter))
    pred_far = tracer.point(pred_e.far_end(shared_letter(pred_e, edge_e)))
    if in_arc(pivot, xm, xp):
        # succ pivots at the end on the arc from xm to xp: the moving
        # endpoint on the other side advances
        return (pred_far, other), (pivot, succ_far)
    return (other, pred_far), (succ_far, pivot)


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
            EdgeLift(canonical_mul(x_mat, e.gamma), e.pants, e.kind)
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
