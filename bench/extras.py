"""Per-layer metrics of the traced run.

Every traced run reports its spans (a span the workload never enters
reports 0 calls) and the workload's own metrics.  The rest is measured
once, by the workload whose inputs it uses or, where it uses none, by
``scan``: kernel probes (repeated timed calls on inputs taken from the
workloads; linalg float under ``scan``, linalg exact under ``exact_edge``,
fuchsian under ``trace``), domain-health numbers (the closed-leaf residual
of ``fuchsian_invariants`` for n = 2..8) and the wall time and exit code
of each CLI command in a fresh interpreter.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import time

from common import load_reference
from spans import NullRecorder

OP_SPANS = (
    "pants.xi_inverse",
    "degeneration.edge_quadruple_from_invariants",
    "degeneration.k_edge",
    "degeneration.compute_L",
    "degeneration.entropy_upper_bound",
    "flags.reconstruct_triple",
    "flags.recover_fourth_line_from_values",
    "flags.extract_triple_ratios",
    "flags.extract_shear_values",
    "tracer.PsiTracer.trace",
    "tracer.validate_psi",
    "fuchsian.translation_length",
    "degeneration.length_lower_bound",
)
SETUP_SPANS = (
    "import",
    "fuchsian.genus2_surface",
    "fuchsian.fuchsian_invariants",
    "pants.xi_forward",
    "tracer.PsiTracer.mesh",
)
#: (command, extra arguments, config) run by the CLI probe
CLI_COMMANDS = (
    ("invariants", (), "configs/scan_n3_g2.json"),
    ("reparam", ("--direction", "forward"), "configs/scan_n3_g2.json"),
    ("kbound", (), "configs/scan_n3_g2.json"),
    ("entropy-scan", (), "configs/scan_n3_g2.json"),
    ("psi-trace", (), "configs/genus2_surface.json"),
    ("fuchsian-gen", (), "configs/scan_n3_g2.json"),
    ("selftest", (), "configs/scan_n3_g2.json"),
)
PROBE_N = 5
#: scan ops searched for a row whose flags reconstruct, for the float probes
PROBE_SEARCH_OPS = 2000
PROBE_BATCHES = 5
PROBE_BATCH_S = 0.04


def layer_metrics(workload, rec, setup_spans, results, overhead_s):
    out = {}
    summary = rec.summary()
    for name in OP_SPANS:
        s = summary.get(name, {"calls": 0, "self_s": 0.0, "failed": 0})
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"] / s["calls"] if s["calls"] else 0.0
        out[f"{name}.failed"] = s["failed"]
    for name in SETUP_SPANS:
        out[f"setup.{name}.s"] = setup_spans.get(name, {"self_s": 0.0})["self_s"]
    out.update(workload.layer_metrics(rec.summary(by_tag=True), results))
    out.update(workload.extra_metrics())
    out["tracing.overhead_s"] = overhead_s
    return out


# ---------------------------------------------------------------------------
# kernel probes


def _per_call_us(fn):
    """Median over batches of the mean microseconds per call of ``fn``."""
    fn()
    batch_means = []
    for _ in range(PROBE_BATCHES):
        calls = 0
        start = time.perf_counter()
        while True:
            fn()
            calls += 1
            elapsed = time.perf_counter() - start
            if elapsed >= PROBE_BATCH_S:
                break
        batch_means.append(1e6 * elapsed / calls)
    return statistics.median(batch_means)


def float_quad(seed):
    """Edge quadruple of the first successful n=PROBE_N op of the scan schedule."""
    from hitchin.degeneration import edge_quadruple_from_invariants, shifted_params
    from hitchin.linalg import DegenerateError
    from hitchin.pants import xi_inverse

    import wl_scan

    _surface, bases = wl_scan.build_bases(NullRecorder())
    ops = wl_scan.op_stream(seed, load_reference("scan"))
    for n, d, step in itertools.islice(ops, PROBE_SEARCH_OPS):
        if n != PROBE_N:
            continue
        label, sign = wl_scan.directions(n)[d]
        try:
            invariants, _ = xi_inverse(shifted_params(bases[n], {label: sign}, step))
            return edge_quadruple_from_invariants(invariants[0], "ab")
        except (DegenerateError, ValueError, OverflowError, StopIteration):
            continue
    raise RuntimeError(f"no scan row at n={PROBE_N} reconstructs its flags")


def exact_quad(seed):
    """Exact edge quadruple of the first n=PROBE_N op of the exact_edge schedule."""
    from hitchin.degeneration import EdgeQuadruple
    from hitchin.flags import reconstruct_triple, recover_fourth_line_from_values

    import wl_exact_edge

    op = next(op for op in wl_exact_edge.op_stream(seed) if op[0] == PROBE_N)
    fa, fb, ones = wl_exact_edge.base_frame(PROBE_N)
    tau, taup, shears = wl_exact_edge.pool_entry(*op)
    fc = reconstruct_triple(fa, fb, ones, tau)
    d_line = recover_fourth_line_from_values(fa, fb, ones, shears)
    fd = reconstruct_triple(fa, fb, d_line, taup)
    return EdgeQuadruple(a=fa, b=fb, c=fc, d=fd)


def linalg_probes(quad, suffix):
    from hitchin.linalg import subspace_intersect, subspace_sum, wedge_det

    fa, fb, fc, fd = quad.a, quad.b, quad.c, quad.d
    sum_args = (fa.subspace(2), fc.subspace(2))
    meet_args = (fa.subspace(2) | fc.subspace(1), fb.subspace(2) | fd.subspace(1))
    vectors = list(fa.compatible_basis()[:2]) + list(fc.compatible_basis()[:2])
    vectors.append(fd.compatible_basis()[0])
    return {
        f"linalg.subspace_sum.us.{suffix}": _per_call_us(lambda: subspace_sum(*sum_args)),
        f"linalg.subspace_intersect.us.{suffix}": _per_call_us(
            lambda: subspace_intersect(*meet_args)
        ),
        f"linalg.wedge_det.us.{suffix}": _per_call_us(lambda: wedge_det(vectors)),
    }


def _boundary_points(seed):
    """Finite BPoints on the edges of the first length-6 word of the trace schedule."""
    from hitchin.invariants import is_infinite
    from hitchin.tracer import PsiTracer

    import wl_trace

    surface, _k, _l = wl_trace.length_constants(NullRecorder())
    ops = wl_trace.op_stream(seed, surface, load_reference("trace"))
    word = next(w for kind, w, _ in ops if kind == "fresh" and len(w) == 6)
    tracer = PsiTracer(surface, n=2)
    points = [
        p
        for entry in tracer.trace(word).lifts
        for p in tracer.edge_points(entry[1])
        if not is_infinite(p)
    ]
    return surface.matrix(word), points


def fuchsian_probes(seed):
    from hitchin.fuchsian import cmp_points, cyclic_order, mobius, points_equal

    x_mat, points = _boundary_points(seed)
    distinct = []
    for p in points:
        if not any(points_equal(p, q) for q in distinct):
            distinct.append(p)
    pairs = list(zip(distinct, distinct[1:]))
    triples = list(zip(distinct, distinct[1:], distinct[2:]))

    def cmp_all():
        for p, q in pairs:
            cmp_points(p, q)

    def order_all():
        for p, q, r in triples:
            cyclic_order(p, q, r)

    def mobius_all():
        for p in distinct:
            mobius(x_mat, p)

    return {
        "fuchsian.cmp_points.us": _per_call_us(cmp_all) / len(pairs),
        "fuchsian.cyclic_order.us": _per_call_us(order_all) / len(triples),
        "fuchsian.mobius.us": _per_call_us(mobius_all) / len(distinct),
    }


# ---------------------------------------------------------------------------
# domain health and CLI


def closed_leaf_residuals():
    """Max closed-leaf residual of fuchsian_invariants per n.

    An n where ``fuchsian_invariants`` raises reports residual -1, which
    marks it as failed.
    """
    from hitchin.fuchsian import fuchsian_invariants, genus2_surface
    from hitchin.pants import check_closed_leaf

    surface = genus2_surface()
    out = {}
    for n in range(2, 9):
        try:
            report = check_closed_leaf(surface.decomp, fuchsian_invariants(surface, n))
            out[f"fuchsian.closed_leaf_residual.n{n}"] = float(report.max_residual())
        except ValueError:
            out[f"fuchsian.closed_leaf_residual.n{n}"] = -1.0
    return out


def cli_timings():
    """Wall seconds and exit code of each CLI command in a fresh interpreter."""
    out = {}
    for command, extra, config in CLI_COMMANDS:
        argv = [sys.executable, "-m", "hitchin.cli", command, *extra, "--config", config]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=os.environ.copy(), timeout=60)
        out[f"cli.{command}.s"] = time.perf_counter() - start
        out[f"cli.{command}.exit"] = proc.returncode
    return out
