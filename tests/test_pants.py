from fractions import Fraction

import numpy as np
import pytest

from hitchin.linalg import DegenerateError
from hitchin.pants import (
    HitchinParams,
    PantsDataError,
    PantsDecomposition,
    PantsInvariants,
    SlotRef,
    chain_decomposition,
    check_closed_leaf,
    internal_labels,
    lambda_gaps_from_invariants,
    standard_genus2,
    xi_forward,
    xi_inverse,
)
from hitchin.invariants import shear_index_set, triple_index_set

from conftest import gap_terms, xi_inverse_dense


def zero_invariants(n):
    """The invariants of one pants with every tau, tau' and sigma zero."""
    tau = {idx: Fraction(0) for idx in triple_index_set(n)}
    sigma = {idx: Fraction(0) for idx in shear_index_set(n)}
    return PantsInvariants(n=n, tau=tau, tau_prime=dict(tau), sigma=sigma)


def random_params(rng, decomp, n, exact=True):
    conv = (lambda x: Fraction(x)) if exact else float
    labels = internal_labels(n)
    boundary = {
        c: tuple(conv(rng.randint(1, 9)) for _ in range(n - 1))
        for c in range(decomp.num_curves)
    }
    internal = tuple(
        {lab: conv(rng.randint(-5, 5)) for lab in labels}
        for _ in range(decomp.num_pants)
    )
    gluing = {
        c: tuple(conv(rng.randint(-3, 3)) for _ in range(n - 1))
        for c in range(decomp.num_curves)
    }
    return HitchinParams(
        n=n, decomp=decomp, boundary=boundary, internal=internal, gluing=gluing
    )


class TestDecomposition:
    def test_standard_genus2_counts(self):
        d = standard_genus2()
        assert d.num_pants == 2
        assert d.num_curves == 3
        assert len(d.edge_ids()) == 6

    @pytest.mark.parametrize("genus", [2, 3, 4, 5])
    def test_chain_cardinalities(self, genus):
        d = chain_decomposition(genus)
        assert d.num_pants == 2 * genus - 2
        assert d.num_curves == 3 * genus - 3
        assert len(d.edge_ids()) == 6 * genus - 6

    def test_opposite_orientations_required(self):
        with pytest.raises(PantsDataError):
            PantsDecomposition(
                genus=2,
                curves=(
                    (SlotRef(0, "A", True), SlotRef(0, "B", True)),
                    (SlotRef(1, "A", False), SlotRef(1, "B", True)),
                    (SlotRef(0, "C", True), SlotRef(1, "C", False)),
                ),
            )

    def test_every_slot_attached(self):
        with pytest.raises(PantsDataError):
            PantsDecomposition(
                genus=2,
                curves=(
                    (SlotRef(0, "A", False), SlotRef(0, "B", True)),
                    (SlotRef(0, "C", False), SlotRef(0, "C", True)),
                    (SlotRef(1, "A", True), SlotRef(1, "B", False)),
                ),
            )


class TestGaps:
    def test_n2_sum(self):
        inv = zero_invariants(2)
        inv.sigma[(1, 1, 0)] = Fraction(1)
        inv.sigma[(1, 0, 1)] = Fraction(2)
        ga, gb, gc = lambda_gaps_from_invariants(inv)
        assert ga == [Fraction(3)]

    def test_zero_invariants_zero_gaps(self):
        inv = zero_invariants(4)
        for gaps in lambda_gaps_from_invariants(inv):
            assert all(g == 0 for g in gaps)

    def test_gap_terms_partition_plane(self):
        # every invariant label appears in exactly one slot identity
        n = 5
        seen = {}
        for slot in "ABC":
            for k in range(1, n):
                for term in gap_terms(slot, k, n):
                    seen.setdefault(term, []).append((slot, k))
        for idx in triple_index_set(n):
            assert len(seen[("tau", idx)]) == 3  # one per slot
        for idx in shear_index_set(n):
            assert len(seen[("sigma", idx)]) == 2


class TestClosedLeaf:
    def test_xi_inverse_output_has_zero_residuals(self, rng):
        for genus in (2, 3):
            decomp = chain_decomposition(genus)
            for n in (2, 3, 4, 5, 6):
                params = random_params(rng, decomp, n)
                invs, _ = xi_inverse(params)
                report = check_closed_leaf(decomp, invs)
                assert report.max_residual() == 0

    def test_perturbation_is_local(self, rng):
        # perturbing sigma_(1,2,0) would shift the A- and B-slot gaps of the
        # self-glued pants coherently, so perturb the (1,0,2) value instead
        decomp = chain_decomposition(2)
        params = random_params(rng, decomp, 3)
        invs, _ = xi_inverse(params)
        invs[0].sigma[(1, 0, 2)] += 1
        report = check_closed_leaf(decomp, invs)
        touched = {cid for (cid, k), r in report.equality_residuals.items() if r != 0}
        # only curves incident to pants 0 can be affected
        incident = {
            cid
            for cid, pair in enumerate(decomp.curves)
            if any(ref.pants == 0 for ref in pair)
        }
        assert touched
        assert touched <= incident


class TestReparameterization:
    def test_round_trips_exact(self, rng):
        for genus in (2, 3):
            decomp = chain_decomposition(genus)
            for n in (2, 3, 4, 5, 6):
                params = random_params(rng, decomp, n)
                invs, gluing = xi_inverse(params)
                back = xi_forward(decomp, invs, gluing)
                assert back.boundary == params.boundary
                assert back.internal == params.internal
                assert back.gluing == params.gluing
                invs2, _ = xi_inverse(back)
                for a, b in zip(invs, invs2):
                    assert a.tau == b.tau
                    assert a.tau_prime == b.tau_prime
                    assert a.sigma == b.sigma

    def test_dense_oracle_agreement(self, rng):
        decomp = chain_decomposition(2)
        for n in (3, 4, 5):
            for _ in range(5):
                params = random_params(rng, decomp, n)
                fast, _ = xi_inverse(params)
                dense = xi_inverse_dense(params)
                for a, b in zip(fast, dense):
                    assert a.sigma == b.sigma
                    assert a.tau_prime == b.tau_prime

    def test_numpy_oracle_agreement(self, rng):
        # independent dense float solve of the per-pants linear system
        decomp = standard_genus2()
        n = 4
        for _ in range(10):
            params = random_params(rng, decomp, n, exact=False)
            invs, _ = xi_inverse(params)
            j = 0
            unknowns = (
                [("sigma", (1, n - 1, 0))]
                + [("sigma", (x, 0, n - x)) for x in range(1, n)]
                + [("sigma", (0, y, n - y)) for y in range(1, n)]
                + [("tau_prime", idx) for idx in triple_index_set(n) if idx[0] == 1]
            )
            col = {u: i for i, u in enumerate(unknowns)}
            rows, rhs = [], []
            from hitchin.pants import slot_boundary_gaps

            block = params.internal[j]
            for slot in "ABC":
                gaps = slot_boundary_gaps(params, j, slot)
                for k in range(1, n):
                    row = [0.0] * len(unknowns)
                    b = float(gaps[k - 1])
                    for kind, idx in gap_terms(slot, k, n):
                        if (kind, idx) in col:
                            row[col[(kind, idx)]] += 1.0
                        elif kind == "tau":
                            b -= float(block[("tau", idx)])
                        elif kind == "tau_prime":
                            b -= float(block[("tau_prime", idx)])
                        else:
                            b -= float(block[("sigma", idx)])
                    rows.append(row)
                    rhs.append(b)
            sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
            for (kind, idx), v in zip(unknowns, sol):
                mine = invs[j].sigma[idx] if kind == "sigma" else invs[j].tau_prime[idx]
                assert abs(float(mine) - v) <= 1e-10

    def test_forward_rejects_broken_equalities(self, rng):
        decomp = standard_genus2()
        params = random_params(rng, decomp, 3)
        invs, gluing = xi_inverse(params)
        invs[0].sigma[(1, 0, 2)] += 1
        with pytest.raises(DegenerateError) as err:
            xi_forward(decomp, invs, gluing)
        assert "curve" in str(err.value)

    def test_forward_rejects_closed_chamber(self):
        decomp = standard_genus2()
        invs = [zero_invariants(3) for _ in range(2)]
        gluing = {c: (0, 0) for c in range(3)}
        with pytest.raises(DegenerateError):
            xi_forward(decomp, invs, gluing)

    def test_chamber_validated_on_construction(self, rng):
        decomp = standard_genus2()
        params = random_params(rng, decomp, 3)
        bad = dict(params.boundary)
        bad[0] = (Fraction(0), Fraction(1))
        with pytest.raises(DegenerateError):
            HitchinParams(
                n=3,
                decomp=decomp,
                boundary=bad,
                internal=params.internal,
                gluing=params.gluing,
            )


class TestDimensionAudit:
    @pytest.mark.parametrize("genus", [2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_parameter_counts(self, rng, genus, n):
        decomp = chain_decomposition(genus)
        params = random_params(rng, decomp, n)
        boundary_count = decomp.num_curves * (n - 1)
        internal_count = sum(len(b) for b in params.internal)
        gluing_count = decomp.num_curves * (n - 1)
        assert internal_count == (2 * genus - 2) * (n - 1) * (n - 2)
        assert boundary_count + internal_count + gluing_count == (2 * genus - 2) * (
            n * n - 1
        )
