"""Workload ``exact_edge``: exact flag reconstruction of one edge quadruple.

One op starts from the standard flag A, the reversed flag B and the
all-ones line C^(1) on the EXACT backend, builds C with
``reconstruct_triple`` from seeded triple ratios, the line of D with
``recover_fourth_line_from_values`` from seeded shear values, and D with
``reconstruct_triple``.  It checks the result by exact round trips through
``extract_triple_ratios`` and ``extract_shear_values``, then runs
``k_edge`` on the quadruple.

Inputs come from a fixed pool per (n, kind), n in 3..8; the seed picks the
order.  Half the ops draw small-height rationals p/q with 1 <= p, q <= 9,
the other half ``Fraction(exp(x))`` dyadics with x in [-2, 2].
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from common import interleave, load_reference, rel_close, seeded_rng, shuffled_cycle

NS = tuple(range(3, 9))
KINDS = ("small", "dyadic")
#: ops per n in one schedule cycle: about equal run time per n at the seed
#: commit, the median op inside the n=3 band and p90 inside the n=5 band
N_WEIGHTS = {3: 64, 4: 16, 5: 8, 6: 4, 7: 2, 8: 1}
#: pool entries per (n, kind); more than one run draws at every n
POOL = {3: 512, 4: 128, 5: 64, 6: 32, 7: 16, 8: 8}


def pool_entry(n, kind, idx):
    """(tau ratios, tau' ratios, shear values) of one pool entry."""
    from hitchin.invariants import triple_index_set

    rng = random.Random(n * 1_000_000 + KINDS.index(kind) * 100_000 + idx)
    if kind == "small":
        value = lambda: Fraction(rng.randint(1, 9), rng.randint(1, 9))  # noqa: E731
    else:
        value = lambda: Fraction(math.exp(rng.uniform(-2.0, 2.0)))  # noqa: E731
    tau = {i: value() for i in triple_index_set(n)}
    taup = {i: value() for i in triple_index_set(n)}
    shears = {k: -value() for k in range(1, n)}
    return tau, taup, shears


def base_frame(n):
    from hitchin.linalg import EXACT, Flag, Subspace

    fa = Flag.standard(n, backend=EXACT)
    fb = Flag.reversed_standard(n, backend=EXACT)
    ones = Subspace.span([tuple(Fraction(1) for _ in range(n))], backend=EXACT)
    return fa, fb, ones


def edge_op(frame, entry, rec):
    """Build, round-trip and cost one exact edge; returns (ok, output, reason)."""
    from hitchin.degeneration import EdgeQuadruple, k_edge
    from hitchin.flags import (
        extract_shear_values,
        extract_triple_ratios,
        reconstruct_triple,
        recover_fourth_line_from_values,
    )
    from hitchin.linalg import DegenerateError

    fa, fb, ones = frame
    tau, taup, shears = entry
    n = fa.ambient
    try:
        with rec.span("flags.reconstruct_triple"):
            fc = reconstruct_triple(fa, fb, ones, tau)
        with rec.span("flags.recover_fourth_line_from_values"):
            d_line = recover_fourth_line_from_values(fa, fb, ones, shears)
        with rec.span("flags.reconstruct_triple"):
            fd = reconstruct_triple(fa, fb, d_line, taup)
        with rec.span("flags.extract_triple_ratios"):
            round_c = extract_triple_ratios(fa, fc, fb) == tau
        with rec.span("flags.extract_triple_ratios"):
            round_d = extract_triple_ratios(fa, fd, fb) == taup
        with rec.span("flags.extract_shear_values"):
            round_s = extract_shear_values(fa, fb, ones, d_line) == shears
        with rec.span("degeneration.k_edge", tag=("exact", n)):
            k_val = k_edge(EdgeQuadruple(a=fa, b=fb, c=fc, d=fd))
    except (DegenerateError, ValueError, OverflowError, ZeroDivisionError) as exc:
        return False, None, str(exc)
    return True, (k_val, round_c, round_d, round_s), ""


def op_stream(seed):
    """Endless ops (n, kind, pool index) fixed by the seed."""
    streams = {
        (n, kind): shuffled_cycle(range(POOL[n]), seeded_rng(seed, 2, n, i))
        for n in NS
        for i, kind in enumerate(KINDS)
    }
    turn = {n: 0 for n in NS}
    cycle = interleave(N_WEIGHTS)
    while True:
        for n in cycle:
            kind = KINDS[turn[n] % 2]
            turn[n] += 1
            yield (n, kind, next(streams[(n, kind)]))


def layer_metrics(by_tag, results):
    out = {}
    for n in NS:
        s = by_tag.get(("degeneration.k_edge", ("exact", n)))
        out[f"degeneration.k_edge.ms.exact.n{n}"] = 1e3 * s["self_s"] / s["calls"] if s else 0.0
    return out


class ExactEdgeWorkload:
    #: ops in one schedule cycle of ``op_stream``
    cycle_ops = len(interleave(N_WEIGHTS))

    def __init__(self, seed, rec):
        from spans import NullRecorder

        self.seed = seed
        self.frames = {n: base_frame(n) for n in NS}
        self.reference = load_reference("exact_edge")
        edge_op(self.frames[3], pool_entry(3, "small", 0), NullRecorder())

    def ops(self):
        return op_stream(self.seed)

    def run(self, op, rec):
        n, kind, idx = op
        return edge_op(self.frames[n], pool_entry(n, kind, idx), rec)

    def check(self, op, ok, output, reason):
        """(op failed, regressions); every pool edge passed at the reference."""
        if not ok:
            return True, [f"exact_edge {op}: {reason}"]
        k_val, round_c, round_d, round_s = output
        problems = []
        if not (round_c and round_d and round_s):
            problems.append(f"exact_edge {op}: round trip failed {output[1:]}")
        ref = self.reference["k_edge"].get("|".join(map(str, op)))
        if ref is None or not rel_close(k_val, ref):
            problems.append(f"exact_edge {op}: k_edge {k_val} != reference {ref}")
        return bool(problems), problems

    def final_checks(self):
        return []

    def extra_metrics(self):
        """Exact linalg probes."""
        import extras

        return extras.linalg_probes(extras.exact_quad(self.seed), "exact")

    def span_targets(self):
        # every span is opened by edge_op around its own public calls
        return ()

    layer_metrics = staticmethod(layer_metrics)
