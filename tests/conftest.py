import random
from fractions import Fraction

import pytest

from hitchin.flags import veronese_flag
from hitchin.fuchsian import genus2_surface, mobius
from hitchin.invariants import (
    cross_ratio_flags,
    is_infinite,
    shear_index_set,
    triple_index_set,
    triple_ratio,
)
from hitchin.linalg import EXACT, DegenerateError, Flag, rref
from hitchin.pants import SLOTS, PantsInvariants, slot_boundary_gaps
from hitchin.tracer import PsiTracer


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


def fuchsian_invariants_exact_flags(surface, n):
    """Oracle for ``fuchsian_invariants``: the defining ratios on flags.

    Evaluates the triple ratios and shear cross ratios on exact osculating
    flags of the rational normal curve at the rational points
    ``Fraction(float(p))`` next to the boundary points, in the log
    coordinates ``fuchsian_invariants`` returns.
    """
    import math

    cache = {}

    def flag_at(point):
        key = "inf" if is_infinite(point) else float(point)
        if key not in cache:
            proj = (1, 0) if key == "inf" else (Fraction(key), 1)
            cache[key] = veronese_flag(proj, n)
        return cache[key]

    out = []
    for j in range(surface.decomp.num_pants):
        a, b, c = (surface.base_vertex(j, letter) for letter in "abc")
        fa, fb, fc = flag_at(a), flag_at(b), flag_at(c)
        f_ac = flag_at(mobius(surface.slot_matrix(j, "A"), c))
        f_cb = flag_at(mobius(surface.slot_matrix(j, "C"), b))
        f_ba = flag_at(mobius(surface.slot_matrix(j, "B"), a))
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
