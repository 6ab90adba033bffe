r"""Pants decompositions, shear/triangle invariants, and the modified
shear-triangle parameterization.

A pants decomposition of a genus-g surface is stored combinatorially: 2g-2
pants, each with three boundary slots A, B, C, and 3g-3 oriented curves,
each incident to exactly two (pants, slot) pairs with opposite induced
orientations.  Per pants, the invariant data is

* triangle values tau[(x,y,z)] and tau'[(x,y,z)] over x+y+z = n, x,y,z >= 1,
* shear values sigma over the three edge blocks (x,y,0), (x,0,z), (0,y,z).

The eigenvalue-gap identities express lambda_k - lambda_(k+1) of each
boundary slot as the sum of the invariants on the k-th coordinate plane;
summing them with the right weights gives three derived identities whose
back-substitution inverts the parameterization in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .invariants import shear_index_set, triple_index_set
from .linalg import DegenerateError

SLOTS = ("A", "B", "C")
#: closed-leaf residual allowed on float data; exact data must satisfy the
#: relations exactly
CLOSED_LEAF_TOL = 1e-9


class PantsDataError(ValueError):
    """Structurally invalid decomposition or invariant data."""


@dataclass(frozen=True)
class SlotRef:
    pants: int
    slot: str  # 'A' | 'B' | 'C'
    aligned: bool  # slot word conjugate to the curve word (True) or its inverse


@dataclass(frozen=True)
class PantsDecomposition:
    """Incidence data of a pants decomposition of a closed genus-g surface."""

    genus: int
    # curve id -> (SlotRef, SlotRef)
    curves: tuple

    def __post_init__(self):
        g = self.genus
        if g < 2:
            raise PantsDataError("genus must be at least 2")
        if len(self.curves) != 3 * g - 3:
            raise PantsDataError(
                f"genus {g} needs {3 * g - 3} curves, got {len(self.curves)}"
            )
        seen = {}
        for cid, pair in enumerate(self.curves):
            if len(pair) != 2:
                raise PantsDataError(f"curve {cid} must touch exactly two slots")
            for ref in pair:
                if ref.slot not in SLOTS:
                    raise PantsDataError(f"unknown slot {ref.slot!r}")
                key = (ref.pants, ref.slot)
                if key in seen:
                    raise PantsDataError(f"slot {key} used twice")
                seen[key] = cid
            if pair[0].aligned == pair[1].aligned:
                raise PantsDataError(
                    f"curve {cid}: the two sides must induce opposite orientations"
                )
        for j in range(self.num_pants):
            for s in SLOTS:
                if (j, s) not in seen:
                    raise PantsDataError(f"pants {j} slot {s} not attached")
        if not self._connected():
            raise PantsDataError("decomposition graph is not connected")

    @property
    def num_pants(self):
        return 2 * self.genus - 2

    @property
    def num_curves(self):
        return len(self.curves)

    def _connected(self):
        adj = {j: set() for j in range(self.num_pants)}
        for pair in self.curves:
            adj[pair[0].pants].add(pair[1].pants)
            adj[pair[1].pants].add(pair[0].pants)
        seen = {0}
        stack = [0]
        while stack:
            for k in adj[stack.pop()]:
                if k not in seen:
                    seen.add(k)
                    stack.append(k)
        return len(seen) == self.num_pants

    def slot_curve(self, pants, slot):
        """(curve id, aligned) attached to the given slot."""
        for cid, pair in enumerate(self.curves):
            for ref in pair:
                if ref.pants == pants and ref.slot == slot:
                    return cid, ref.aligned
        raise PantsDataError(f"slot ({pants}, {slot}) not attached")

    def edge_ids(self):
        """The 6g-6 non-closed edge classes, one triple per pants."""
        return [
            (j, kind) for j in range(self.num_pants) for kind in ("ab", "ac", "cb")
        ]


def standard_genus2():
    """Dumbbell decomposition: two pants, each self-glued along one handle
    curve, joined along the waist curve."""
    return PantsDecomposition(
        genus=2,
        curves=(
            (SlotRef(0, "A", False), SlotRef(0, "B", True)),
            (SlotRef(1, "A", False), SlotRef(1, "B", True)),
            (SlotRef(0, "C", True), SlotRef(1, "C", False)),
        ),
    )


def chain_decomposition(genus):
    """A chain of pants: loops at both ends, doubled edges inside.

    Gives a valid decomposition for every genus >= 2; genus 2 reproduces
    the dumbbell pattern.
    """
    if genus == 2:
        return standard_genus2()
    npants = 2 * genus - 2
    curves = []
    # loop at pants 0 and at the last pants
    curves.append((SlotRef(0, "A", False), SlotRef(0, "B", True)))
    curves.append((SlotRef(npants - 1, "A", False), SlotRef(npants - 1, "B", True)))
    # chain edges j -> j+1; even inner junctions are doubled to keep valence 3
    slot_use = {j: iter(["C"] if j in (0, npants - 1) else ["A", "B", "C"]) for j in range(npants)}
    for j in range(npants - 1):
        curves.append(
            (SlotRef(j, next(slot_use[j]), True), SlotRef(j + 1, next(slot_use[j + 1]), False))
        )
        if j % 2 == 1:
            curves.append(
                (SlotRef(j, next(slot_use[j]), True), SlotRef(j + 1, next(slot_use[j + 1]), False))
            )
    return PantsDecomposition(genus=genus, curves=tuple(curves))


@dataclass
class PantsInvariants:
    """Triangle and shear invariants of one pair of pants at a given n."""

    n: int
    tau: dict
    tau_prime: dict
    sigma: dict

    def __post_init__(self):
        want = set(triple_index_set(self.n))
        if set(self.tau) != want or set(self.tau_prime) != want:
            raise PantsDataError("triangle invariants must cover the full index set")
        if set(self.sigma) != set(shear_index_set(self.n)):
            raise PantsDataError("shear invariants must cover the three edge blocks")


def lambda_gaps_from_invariants(inv):
    """Eigenvalue gaps (lambda_k - lambda_(k+1)) of the three boundary slots.

    Returns (gaps_A, gaps_B, gaps_C), each a list over k = 1..n-1; entry k
    is the sum of all invariants on the plane x = k (resp. y = k, z = k).
    """
    n = inv.n
    gaps_a, gaps_b, gaps_c = [], [], []
    for k in range(1, n):
        ga = inv.sigma[(n - k, k, 0)] + inv.sigma[(n - k, 0, k)]
        gb = inv.sigma[(0, n - k, k)] + inv.sigma[(k, n - k, 0)]
        gc = inv.sigma[(k, 0, n - k)] + inv.sigma[(0, k, n - k)]
        for i in range(1, k):
            ga = ga + inv.tau[(n - k, i, k - i)] + inv.tau_prime[(n - k, i, k - i)]
            gb = gb + inv.tau[(k - i, n - k, i)] + inv.tau_prime[(k - i, n - k, i)]
            gc = gc + inv.tau[(i, k - i, n - k)] + inv.tau_prime[(i, k - i, n - k)]
        gaps_a.append(ga)
        gaps_b.append(gb)
        gaps_c.append(gc)
    return gaps_a, gaps_b, gaps_c


@dataclass
class ClosedLeafReport:
    """Residuals of the closed leaf equalities and inequality margins."""

    n: int
    # (curve id, k) -> |gap_side1_k - gap_side2_(n-k)|
    equality_residuals: dict
    # (pants, slot, k) -> gap value (must be > 0)
    gap_values: dict

    def max_residual(self):
        return max(self.equality_residuals.values(), default=0)

    def rows(self):
        out = []
        for (cid, k), r in sorted(self.equality_residuals.items()):
            out.append(("curve", cid, "equality", k, r))
        for (j, slot, k), v in sorted(self.gap_values.items()):
            out.append(("pants", j, f"gap_{slot}", k, v))
        return out


def check_closed_leaf(decomp, invariants):
    """Evaluate closed leaf equalities and inequalities as diagnostics."""
    if len(invariants) != decomp.num_pants:
        raise PantsDataError("need one invariant set per pants")
    n = invariants[0].n
    gap_table = {}
    for j, inv in enumerate(invariants):
        if inv.n != n:
            raise PantsDataError("mixed dimensions across pants")
        ga, gb, gc = lambda_gaps_from_invariants(inv)
        for slot, gaps in zip(SLOTS, (ga, gb, gc)):
            for k in range(1, n):
                gap_table[(j, slot, k)] = gaps[k - 1]
    residuals = {}
    for cid, (ref1, ref2) in enumerate(decomp.curves):
        for k in range(1, n):
            g1 = gap_table[(ref1.pants, ref1.slot, k)]
            g2 = gap_table[(ref2.pants, ref2.slot, n - k)]
            residuals[(cid, k)] = abs(g1 - g2)
    return ClosedLeafReport(n=n, equality_residuals=residuals, gap_values=gap_table)


# ---------------------------------------------------------------------------
# the modified parameterization


def internal_labels(n):
    """Ordered labels of the (n-1)(n-2) internal coordinates of one pants."""
    labels = [("tau", idx) for idx in triple_index_set(n)]
    labels += [("tau_prime", idx) for idx in triple_index_set(n) if idx[0] > 1]
    labels += [("sigma", (x, n - x, 0)) for x in range(2, n)]
    assert len(labels) == (n - 1) * (n - 2)
    return labels


@dataclass
class HitchinParams:
    """Boundary invariants + internal parameters + opaque gluing reals."""

    n: int
    decomp: PantsDecomposition
    boundary: dict  # curve id -> gap tuple (length n-1, positive)
    internal: tuple  # per pants: dict label -> value
    gluing: dict  # curve id -> tuple of n-1 reals

    def __post_init__(self):
        g = self.decomp.genus
        n = self.n
        if set(self.boundary) != set(range(self.decomp.num_curves)):
            raise PantsDataError("boundary data must cover every curve")
        for cid, gaps in self.boundary.items():
            if len(gaps) != n - 1:
                raise PantsDataError(f"curve {cid}: expected {n - 1} gaps")
            if any(g_ <= 0 for g_ in gaps):
                raise DegenerateError(
                    f"curve {cid}: boundary invariant not in the open chamber"
                )
        if len(self.internal) != self.decomp.num_pants:
            raise PantsDataError("internal data must cover every pants")
        labels = internal_labels(n)
        for j, block in enumerate(self.internal):
            if set(block) != set(labels):
                raise PantsDataError(f"pants {j}: internal labels mismatch")
        if set(self.gluing) != set(range(self.decomp.num_curves)):
            raise PantsDataError("gluing data must cover every curve")
        for cid, vals in self.gluing.items():
            if len(vals) != n - 1:
                raise PantsDataError(f"curve {cid}: expected {n - 1} gluing reals")
        # dimension audit: (2g-2)(n^2-1) total coordinates
        total = (
            self.decomp.num_curves * (n - 1)
            + self.decomp.num_pants * (n - 1) * (n - 2)
            + self.decomp.num_curves * (n - 1)
        )
        assert total == (2 * g - 2) * (n * n - 1)


def slot_boundary_gaps(params, pants, slot):
    """Gaps of the given slot, reversing when the slot opposes the curve."""
    cid, aligned = params.decomp.slot_curve(pants, slot)
    gaps = params.boundary[cid]
    return list(gaps) if aligned else list(reversed(gaps))


def closed_leaf_tol(invariants):
    """Tolerance of the closed leaf relations on these invariants: 0 when
    every tau, tau_prime and sigma value is rational, else
    ``CLOSED_LEAF_TOL``.  It follows the data, not the config's backend:
    Fuchsian invariants are floats whatever the backend says."""
    exact = all(
        isinstance(v, (Fraction, int))
        for inv in invariants
        for values in (inv.tau, inv.tau_prime, inv.sigma)
        for v in values.values()
    )
    return 0 if exact else CLOSED_LEAF_TOL


def xi_forward(decomp, invariants, gluing):
    """Assemble modified parameters from per-pants invariants.

    Fails if the closed leaf equalities do not hold (within
    :func:`closed_leaf_tol`) or a boundary point leaves the open chamber,
    naming the offending curve.
    """
    report = check_closed_leaf(decomp, invariants)
    n = invariants[0].n
    tol = closed_leaf_tol(invariants)
    for (cid, k), r in report.equality_residuals.items():
        if r > tol:
            raise DegenerateError(
                f"closed leaf equality fails on curve {cid} at k={k}: residual {r}"
            )
    boundary = {}
    for cid, (ref1, ref2) in enumerate(decomp.curves):
        ref = ref1 if ref1.aligned else ref2
        gaps = [report.gap_values[(ref.pants, ref.slot, k)] for k in range(1, n)]
        if any(g_ <= 0 for g_ in gaps):
            raise DegenerateError(
                f"curve {cid}: boundary gaps not strictly positive: {gaps}"
            )
        boundary[cid] = tuple(gaps)
    internal = tuple(
        {(kind, idx): getattr(inv, kind)[idx] for kind, idx in internal_labels(n)}
        for inv in invariants
    )
    return HitchinParams(
        n=n,
        decomp=decomp,
        boundary=boundary,
        internal=internal,
        gluing={cid: tuple(vals) for cid, vals in gluing.items()},
    )


def xi_inverse(params):
    """Solve for the full invariant set from modified parameters.

    Per pants the non-parameter invariants are recovered by the closed-form
    back-substitution: the weighted gap identity pins sigma_(1,n-1,0); the
    slot-A identities pin sigma_(x,0,z) for x > 1; the second weighted
    identity pins sigma_(1,0,n-1); then induction on k alternates between
    the slot-B identity (sigma_(0,n-k,k)) and the slot-C identity
    (tau'_(1,n-k-1,k)).  The output satisfies every closed leaf relation by
    construction.
    """
    n = params.n
    decomp = params.decomp
    invariants = []
    for j in range(decomp.num_pants):
        block = params.internal[j]
        tau = {idx: block[("tau", idx)] for idx in triple_index_set(n)}
        taup = {idx: block[("tau_prime", idx)] for idx in triple_index_set(n) if idx[0] > 1}
        sigma = {}
        for x in range(2, n):
            sigma[(x, n - x, 0)] = block[("sigma", (x, n - x, 0))]

        gaps_a = slot_boundary_gaps(params, j, "A")
        gaps_b = slot_boundary_gaps(params, j, "B")
        gaps_c = slot_boundary_gaps(params, j, "C")

        # weighted identity: n * sum_k sigma_(n-k,k,0) =
        #   sum_k (n-k)(gapA_k + gapB_k) - sum_k k gapC_k
        rhs = sum(
            (n - k) * (gaps_a[k - 1] + gaps_b[k - 1]) - k * gaps_c[k - 1]
            for k in range(1, n)
        )
        sigma[(1, n - 1, 0)] = rhs / n - sum(
            sigma[(x, n - x, 0)] for x in range(2, n)
        )

        # slot-A identity at k < n-1 pins sigma_(n-k,0,k)
        for k in range(1, n - 1):
            acc = gaps_a[k - 1] - sigma[(n - k, k, 0)]
            for i in range(1, k):
                acc = acc - tau[(n - k, i, k - i)] - taup[(n - k, i, k - i)]
            sigma[(n - k, 0, k)] = acc

        # second weighted identity: n * sum_k sigma_(k,0,n-k) =
        #   sum_k (n-k)(gapA_k + gapC_k) - sum_k k gapB_k
        rhs = sum(
            (n - k) * (gaps_a[k - 1] + gaps_c[k - 1]) - k * gaps_b[k - 1]
            for k in range(1, n)
        )
        sigma[(1, 0, n - 1)] = rhs / n - sum(
            sigma[(x, 0, n - x)] for x in range(2, n)
        )

        # induct on k: slot-B pins sigma_(0,n-k,k), slot-C pins
        # tau'_(1,n-k-1,k)
        for k in range(1, n):
            acc = gaps_b[k - 1] - sigma[(k, n - k, 0)]
            for i in range(1, k):
                acc = acc - tau[(k - i, n - k, i)] - taup[(k - i, n - k, i)]
            sigma[(0, n - k, k)] = acc
            if k <= n - 2:
                kc = n - k
                acc = gaps_c[kc - 1] - sigma[(kc, 0, k)] - sigma[(0, kc, k)]
                for i in range(2, kc):
                    acc = acc - taup[(i, kc - i, k)]
                for i in range(1, kc):
                    acc = acc - tau[(i, kc - i, k)]
                taup[(1, n - k - 1, k)] = acc

        invariants.append(PantsInvariants(n=n, tau=tau, tau_prime=taup, sigma=sigma))
    gluing = {cid: tuple(v) for cid, v in params.gluing.items()}
    return invariants, gluing
