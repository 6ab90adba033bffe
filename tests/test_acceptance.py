r"""Acceptance suite: every criterion at its stated tolerance.

Each test prints a single PASS line when its criterion holds; run with
``pytest -s tests/test_acceptance.py`` to see them.  Golden values live in
tests/golden/degeneration.json and were recorded from the first oracle
run of the scan and grid maximizations.
"""

import itertools
import json
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hitchin.degeneration import (
    compute_K,
    compute_L,
    count_bound_gamma1,
    entropy_upper_bound,
    internal_sequence_scan,
    length_lower_bound,
)
from hitchin.flags import (
    extract_triple_ratios,
    reconstruct_triple,
    veronese_flag,
)
from hitchin.fuchsian import fuchsian_invariants, genus2_surface, translation_length
from hitchin.invariants import (
    cross_ratio,
    eigen_gap_check,
    is_infinite,
    triple_index_set,
    triple_ratio,
)
from hitchin.linalg import (
    EXACT,
    DegenerateError,
    is_generic_triple,
    mat_vec,
    matrix_rank,
)
from hitchin.pants import (
    HitchinParams,
    chain_decomposition,
    check_closed_leaf,
    internal_labels,
    xi_forward,
    xi_inverse,
    slot_boundary_gaps,
)
from hitchin.tracer import PsiTracer, cyclic_equal, r_and_s, validate_psi

from conftest import eigen_gap_oracle, gap_terms, random_flag, random_unimodular

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden" / "degeneration.json").read_text()
)


def report(num, message):
    print(f"\nACCEPTANCE {num:2d}: PASS - {message}")


def _random_lines(rng, n, count, span=9):
    return [
        tuple(Fraction(rng.randint(-span, span)) for _ in range(n))
        for _ in range(count)
    ]


def test_01_cross_ratio_identity_bank(rng):
    """Identity bank on 1000 random generic configurations per n in 2..6."""
    t0 = time.time()
    checked = 0
    for n in range(2, 7):
        count = 0
        while count < 1000:
            lines = _random_lines(rng, n, 5, span=7)
            base = _random_lines(rng, n, n - 2, span=7)
            l1, l2, l3, l4, l5 = lines
            try:
                v = cross_ratio([l1, l2, l3, l4], base)
                c1 = cross_ratio([l1, l2, l3, l5], base)
                c2 = cross_ratio([l1, l3, l4, l5], base)
                c3 = cross_ratio([l1, l2, l4, l5], base)
            except DegenerateError:
                continue
            if any(is_infinite(x) or x in (0, 1) for x in (v, c1, c2, c3)):
                continue
            count += 1
            checked += 1
            # (1) unimodular invariance
            g = random_unimodular(rng, n)
            assert (
                cross_ratio([mat_vec(g, l) for l in (l1, l2, l3, l4)],
                            [mat_vec(g, b) for b in base])
                == v
            )
            # (4) & (5) degenerate slots
            assert is_infinite(cross_ratio([l1, l1, l2, l3], base))
            assert cross_ratio([l1, l2, l2, l3], base) == 1
            assert cross_ratio([l1, l2, l3, l1], base) == 1
            # (6) reversal, (7) swap, (8) cocycle -- exact mode
            assert cross_ratio([l4, l3, l2, l1], base) == v
            assert cross_ratio([l2, l1, l3, l4], base) == 1 - v
            assert c1 * c2 == c3
            # float mode at 1e-9
            fl = [tuple(map(float, l)) for l in lines]
            fb = [tuple(map(float, b)) for b in base]
            fv = cross_ratio(fl[:4], fb)
            assert abs(fv - float(v)) <= 1e-9 * max(1.0, abs(float(v)))
            assert abs(
                cross_ratio([fl[1], fl[0], fl[2], fl[3]], fb) - (1 - fv)
            ) <= 1e-9 * max(1.0, abs(1 - fv))
            # (3) coplanar base independence
            if count % 10 == 0:
                plane = _random_lines(rng, n, 2)
                coplanar = []
                for _ in range(4):
                    a, b = rng.randint(-4, 4), rng.randint(-4, 4)
                    coplanar.append(
                        tuple(a * x + b * y for x, y in zip(plane[0], plane[1]))
                    )
                base2 = _random_lines(rng, n, n - 2)
                try:
                    w1 = cross_ratio(coplanar, base)
                    w2 = cross_ratio(coplanar, base2)
                except DegenerateError:
                    continue
                assert (w1 == w2) or (is_infinite(w1) and is_infinite(w2))
    elapsed = time.time() - t0
    assert elapsed < 30, f"identity bank took {elapsed:.1f}s"
    report(1, f"cross-ratio identity bank, {checked} configurations in {elapsed:.1f}s")


def test_02_eigenvalue_recovery():
    """Cross ratio equals exp(lambda_i - lambda_j) to 1e-8 relative."""
    state = np.random.RandomState(42)
    total = 0
    for n in (3, 4, 5):
        done = 0
        while done < 200:
            evals = np.sort(state.uniform(0.2, 4.0, n))[::-1]
            if np.min(np.abs(np.diff(np.log(evals)))) < 0.03:
                continue
            p = state.uniform(-1, 1, (n, n))
            if abs(np.linalg.det(p)) < 0.05:
                continue
            g = p @ np.diag(evals) @ np.linalg.inv(p)
            i = state.randint(1, n)
            j = state.randint(i + 1, n + 1)
            line = tuple(state.uniform(-1, 1, n))
            try:
                value = eigen_gap_check(g, i, j, line)
            except DegenerateError:
                continue
            oracle = eigen_gap_oracle(g, i, j)
            assert abs(float(value) - oracle) <= 1e-8 * abs(oracle)
            done += 1
            total += 1
    report(2, f"eigenvalue recovery on {total} random real-split matrices")


def test_03_triple_symmetry_and_reconstruction(rng):
    """Extract -> reconstruct -> extract is the identity; cyclic symmetry."""
    for n in (3, 4, 5):
        done = 0
        while done < 100:
            f, g, h = (random_flag(rng, n, span=5) for _ in range(3))
            if not is_generic_triple(f, g, h):
                continue
            ratios = extract_triple_ratios(f, g, h)
            for (x, y, z), v in ratios.items():
                assert triple_ratio(g, h, f, (y, z, x)) == v
            g2 = reconstruct_triple(f, h, g.subspace(1), ratios)
            assert g2 == g, "reconstructed flag differs"
            assert extract_triple_ratios(f, g2, h) == ratios
            done += 1
    report(3, "triple-ratio symmetry and reconstruction round trip, 100 per n in 3..5")


def test_04_veronese_oracle(rng):
    """All triple ratios of osculating flags equal one; sum conditions hold."""
    for n in (3, 4, 5):
        pts = rng.sample(range(-40, 40), 3)
        flags = [
            veronese_flag((Fraction(p), Fraction(rng.randint(1, 5))), n) for p in pts
        ]
        for idx in triple_index_set(n):
            assert triple_ratio(*flags, idx) == 1
        # sum condition for up to four distinct points
        sample = [(Fraction(1), Fraction(0))] + [
            (Fraction(t), Fraction(1)) for t in (-2, 1, 4)
        ]
        oflags = [veronese_flag(p, n) for p in sample]
        for parts in range(1, 5):
            for combo in itertools.combinations(range(4), parts):
                for split in _compositions(n, parts):
                    rows = []
                    for idx_, k in zip(combo, split):
                        rows += list(oflags[idx_].subspace(k).basis)
                    assert matrix_rank(rows, EXACT) == n
    report(4, "osculating-flag triple ratios and sum conditions, n in 3..5")


def _compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(1, n - parts + 2):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _random_params(rng, decomp, n, exact=True):
    conv = (lambda x: Fraction(x)) if exact else float
    labels = internal_labels(n)
    return HitchinParams(
        n=n,
        decomp=decomp,
        boundary={
            c: tuple(conv(rng.randint(1, 9)) for _ in range(n - 1))
            for c in range(decomp.num_curves)
        },
        internal=tuple(
            {lab: conv(rng.randint(-5, 5)) for lab in labels}
            for _ in range(decomp.num_pants)
        ),
        gluing={
            c: tuple(conv(0) for _ in range(n - 1)) for c in range(decomp.num_curves)
        },
    )


def test_05_reparameterization(rng):
    """Zero residuals, exact round trips, and dense-solve agreement."""
    for genus in (2, 3):
        decomp = chain_decomposition(genus)
        for n in range(2, 7):
            params = _random_params(rng, decomp, n)
            invs, gluing = xi_inverse(params)
            report_ = check_closed_leaf(decomp, invs)
            assert report_.max_residual() == 0
            back = xi_forward(decomp, invs, gluing)
            assert back.boundary == params.boundary
            assert back.internal == params.internal
    # 50 random float instances against an independent numpy solve
    decomp = chain_decomposition(2)
    done = 0
    while done < 50:
        n = rng.choice([3, 4, 5, 6])
        params = _random_params(rng, decomp, n, exact=False)
        invs, _ = xi_inverse(params)
        j = rng.randrange(decomp.num_pants)
        unknowns = (
            [("sigma", (1, n - 1, 0))]
            + [("sigma", (x, 0, n - x)) for x in range(1, n)]
            + [("sigma", (0, y, n - y)) for y in range(1, n)]
            + [("tau_prime", idx) for idx in triple_index_set(n) if idx[0] == 1]
        )
        col = {u: i for i, u in enumerate(unknowns)}
        block = params.internal[j]
        rows, rhs = [], []
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
        done += 1
    report(5, "reparameterization: residuals, round trips, 50 dense-solve checks")


def test_06_dimension_audit(rng):
    for genus in (2, 3):
        decomp = chain_decomposition(genus)
        for n in range(2, 7):
            params = _random_params(rng, decomp, n)
            boundary_count = decomp.num_curves * (n - 1)
            internal_count = sum(len(b) for b in params.internal)
            gluing_count = decomp.num_curves * (n - 1)
            assert boundary_count + internal_count + gluing_count == (
                2 * genus - 2
            ) * (n * n - 1)
    report(6, "parameter counts match (2g-2)(n^2-1) for n in 2..6, genus 2..3")


def test_07_mesh_inequality():
    configs = 0
    for surface in (
        genus2_surface(),
        genus2_surface(twist=Fraction(1, 5)),
        genus2_surface(b1=((1, 3), (1, 4))),
    ):
        for n in (2, 3, 4) if configs < 18 else (2,):
            tracer = PsiTracer(surface, n=n)
            for curve in (0, 1, 2):
                spec = tracer.mesh(curve)
                assert 1.0 <= spec.g_value < math.exp(spec.width), (curve, n)
                configs += 1
                if configs >= 21:
                    break
            if configs >= 21:
                break
        if configs >= 21:
            break
    assert configs >= 20
    report(7, f"mesh inequality on {configs} Fuchsian configurations")


WORDS_20 = [
    "b", "d", "ab", "ad", "bd", "bc", "abc", "abd", "acd", "bcd",
    "aab", "abcd", "aabc", "abD", "aC", "bD", "bad", "dca", "bbd", "adC",
]


def test_08_psi_conjugacy(surface, tracer2):
    conjugators = ["a", "b", "cA", "db", "Ba"]
    t0 = time.time()
    for word in WORDS_20:
        base = tracer2.trace(word)
        assert validate_psi(base, surface.decomp) == []
        for y in conjugators:
            moved = tracer2.trace(y + word + y[::-1].swapcase())
            assert cyclic_equal(base, moved), (word, y)
    report(
        8,
        f"encoding conjugacy invariance, 20 words x 5 conjugators in {time.time()-t0:.0f}s",
    )


def test_09_length_lower_bound(surface, tracer2):
    invs = fuchsian_invariants(surface, 2)
    k_val, _ = compute_K(surface.decomp, invs)
    params = xi_forward(surface.decomp, invs, {c: (0.0,) for c in range(3)})
    l_val = compute_L(params.boundary, 2)
    checked = 0
    for word in WORDS_20:
        psi = tracer2.trace(word)
        if psi.is_closed_leaf:
            continue
        counts = r_and_s(psi)
        bound = length_lower_bound(counts, k_val, l_val)
        hyperbolic = translation_length(surface.matrix(word))
        assert hyperbolic >= bound - 1e-9, (word, hyperbolic, bound)
        checked += 1
    assert checked >= 15
    report(9, f"hyperbolic length dominates the bound on {checked} traced curves")


def test_10_counting_bound_soundness(surface):
    """Exact bound dominates the exhaustive count of validated encodings."""
    t0 = time.time()
    decomp = surface.decomp
    K, L = Fraction(10), Fraction(1)
    T = Fraction(35, 11)  # 11T = 35: r <= 3 and s <= 5 fit the budget
    bound = count_bound_gamma1(T, K, L, 2).value

    # structural alphabet: (pants, edge kind, pred/succ order, type)
    letters = []
    for j in range(decomp.num_pants):
        for kind in ("ab", "ac", "cb"):
            others = [k for k in ("ab", "ac", "cb") if k != kind]
            for order in (0, 1):
                pred, succ = (others[0], others[1]) if order == 0 else (
                    others[1],
                    others[0],
                )
                for typ in ("Z", "S"):
                    letters.append((j, kind, pred, succ, typ))

    shared = {
        frozenset(("ab", "ac")): "a",
        frozenset(("ab", "cb")): "b",
        frozenset(("ac", "cb")): "c",
    }

    def joinable(l1, l2):
        out_letter = shared[frozenset((l1[1], l1[3]))]
        in_letter = shared[frozenset((l2[2], l2[1]))]
        return (
            decomp.slot_curve(l1[0], out_letter.upper())[0]
            == decomp.slot_curve(l2[0], in_letter.upper())[0]
        )

    def cyclic_words(p):
        out = []
        for word in itertools.product(letters, repeat=p):
            if all(joinable(word[i], word[(i + 1) % p]) for i in range(p)):
                out.append(word)
        return out

    # winding-count weights: 5 values cost nothing, 2 values per unit of s
    def weight_count(length, budget):
        counts = [0] * (budget + 1)
        counts[0] = 1
        for _ in range(length):
            new = [0] * (budget + 1)
            for b in range(budget + 1):
                if counts[b] == 0:
                    continue
                new[b] += counts[b] * 5
                for extra in range(1, budget - b + 1):
                    new[b + extra] += counts[b] * 2
            counts = new
        return sum(counts)

    total = Fraction(0)
    s_max = 5
    for r in (1, 2, 3):
        fixed_sum = Fraction(0)
        for p in (d for d in (1, 2, 3) if r % d == 0):
            phi = sum(1 for j in range(r) if math.gcd(r, j) == p)
            fixed_sum += phi * len(cyclic_words(p)) * weight_count(
                p, (s_max * p) // r
            )
        total += fixed_sum / r
    assert total == int(total), "necklace count must be integral"
    total = int(total)
    assert bound >= total, f"bound {bound} < enumeration {total}"
    elapsed = time.time() - t0
    assert elapsed < 120, f"enumeration took {elapsed:.1f}s"
    report(
        10,
        f"count bound {float(bound):.3g} dominates {total} validated encodings "
        f"(r<=3, s<=5) in {elapsed:.0f}s",
    )


def test_11_degeneration_scan(surface):
    t0 = time.time()
    golden = GOLDEN["scan_n3_g2_tau_ray"]
    invs = fuchsian_invariants(surface, 3)
    base = xi_forward(surface.decomp, invs, {c: (0.0, 0.0) for c in range(3)})
    rows = internal_sequence_scan(base, {("tau", (1, 1, 1)): 1.0}, 10)
    assert len(rows) == 11 and all(r.flags_ok for r in rows)
    ks = [r.K for r in rows]
    es = [r.entropy_bound for r in rows]
    assert all(a < b for a, b in zip(ks, ks[1:])), "K must increase strictly"
    assert all(a > b for a, b in zip(es, es[1:])), "entropy bound must decrease"
    assert es[-1] < 0.2 * es[0], "entropy bound must end below 20% of its start"
    assert ks == pytest.approx(golden["K"], rel=1e-9)
    assert es == pytest.approx(golden["entropy_bound"], rel=1e-9)
    elapsed = time.time() - t0
    assert elapsed < 60, f"scan took {elapsed:.1f}s"
    report(
        11,
        f"internal ray scan: K {ks[0]:.3f} -> {ks[-1]:.3f}, entropy ratio "
        f"{es[-1]/es[0]:.3f} in {elapsed:.1f}s",
    )


def test_12_entropy_limit():
    golden = GOLDEN["entropy_limit"]
    values = [entropy_upper_bound(k, 1.0, 2) for k in golden["K"]]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 0.01
    assert values == pytest.approx(golden["bound"], rel=1e-9)
    report(12, f"entropy bound strictly decreasing to {values[-1]:.2e} at K = 1e6")
