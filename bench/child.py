"""One workload process: set up, run the closed loop, check, report JSON.

Started by ``run.py`` in a fresh interpreter with the environment pinned;
not meant to be run by hand.  ``--mode setup`` stops after set-up and
reports only the set-up time.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from hostspeed import REF_KERNEL_S, HostSpeed, setup_factor
from spans import NullRecorder, SpanRecorder, patched

#: hard cap on the timed loop, so a run always ends well inside 180 s
MAX_LOOP_S = 110.0


def load_workload(name):
    if name == "scan":
        from wl_scan import ScanWorkload

        return ScanWorkload
    if name == "exact_edge":
        from wl_exact_edge import ExactEdgeWorkload

        return ExactEdgeWorkload
    from wl_trace import TraceWorkload

    return TraceWorkload


def import_library(rec):
    """Import hitchin under a span, insisting on the checkout's own source."""
    with rec.span("import"):
        import hitchin
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(hitchin.__file__).startswith(src + os.sep):
        raise SystemExit(f"hitchin imported from {hitchin.__file__}, not from {src}")


def timed_loop(workload, rec, budget_s, min_ok, speed=None):
    """Run whole schedule cycles until the budget is spent and min_ok ops
    were computed (not reported as a failure row) by the library.

    Returns the results, the start and cpu time of each op, the loop's
    wall time and its cpu time.  An op is timed in cpu seconds, so time
    the process spends descheduled is not counted.  A cycle holds the
    workload's full op mix, so every cycle measures the same mix of work.
    With ``speed`` (a ``HostSpeed``) the reference kernel runs between ops.
    """
    results, starts, latencies = [], [], []
    ok_count = 0
    ops = workload.ops()
    cpu_start = time.process_time()
    start = time.perf_counter()
    while True:
        op = next(ops)
        rec.begin_op(len(results))
        t0 = time.perf_counter()
        c0 = time.process_time()
        with rec.span("op"):
            ok, output, reason = workload.run(op, rec)
        cost = time.process_time() - c0
        results.append((op, ok, output, reason))
        ok_count += ok
        starts.append(t0)
        latencies.append(cost)
        if speed is not None:
            speed.top_up(cost)
        if len(results) % workload.cycle_ops:
            continue
        elapsed = time.perf_counter() - start
        if (elapsed >= budget_s and ok_count >= min_ok) or elapsed >= MAX_LOOP_S:
            return results, starts, latencies, elapsed, time.process_time() - cpu_start


def replay(workload, ops):
    """Outputs and wall time of a fixed op list, untraced."""
    rec = NullRecorder()
    start = time.perf_counter()
    results = [(op, *workload.run(op, rec)) for op in ops]
    return results, time.perf_counter() - start


def check_all(workload, results):
    """Problems found and, per op, whether its output failed the checks."""
    problems, failed = [], []
    for op, ok, output, reason in results:
        op_failed, found = workload.check(op, ok, output, reason)
        problems += found
        failed.append(bool(op_failed))
    return problems, failed


def end_to_end(workload, results, starts, latencies, speed, failed):
    """End-to-end metrics of one run.

    A successful op is one the library computed, rather than reported as
    a failure row (rows outside the float path's domain), and whose output
    passed the checks.  Every op time is its cpu time taken at reference
    speed (see ``hostspeed``).  Throughput is successful ops per second of
    op time, failure rows included, over the whole run, which holds whole
    schedule cycles; the latencies are those of the successful ops.
    ``domain_ok_frac`` is the share of ops the library computed.  The
    ``raw_`` figures are the same from unscaled cpu times, for the log only.
    """
    scaled = [lat / speed.factor(t0, t0 + lat) for t0, lat in zip(starts, latencies)]
    good = [r[1] and not bad for r, bad in zip(results, failed)]
    out = {}
    for prefix, times in (("", scaled), ("raw_", latencies)):
        ok_lat = sorted(1e3 * x for x, g in zip(times, good) if g)
        # quantiles needs two points; a run with fewer reports its only value
        qs = statistics.quantiles(ok_lat, n=10) if len(ok_lat) >= 2 else ok_lat * 9
        out[prefix + "throughput_ops_per_s"] = len(ok_lat) / sum(times)
        out[prefix + "latency_p50_ms"] = statistics.median(ok_lat) if ok_lat else 0.0
        out[prefix + "latency_p90_ms"] = qs[8] if qs else 0.0
    out.update(
        latency_samples=len(ok_lat),
        cycles=len(latencies) // workload.cycle_ops,
        host_factor_median=statistics.median(speed.times) / REF_KERNEL_S,
        domain_ok_frac=sum(r[1] for r in results) / len(results),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mode", choices=("run", "setup"), default="run")
    parser.add_argument(
        "--min-ok", type=int, default=100, help="computed ops a timed run needs (10 beyond p90)"
    )
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args()

    rec = SpanRecorder() if args.trace else NullRecorder()
    import_library(rec)
    cls = load_workload(args.workload)
    workload = cls(args.seed, rec)
    raw_setup_s = time.monotonic() - args.t0
    # the set-up at reference speed, rated by kernel calls right after it
    report = {"raw_setup_s": raw_setup_s, "setup_s": raw_setup_s / setup_factor()}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    if not args.trace:
        speed = HostSpeed()
        results, starts, latencies, wall, cpu = timed_loop(
            workload, rec, args.seconds, args.min_ok, speed
        )
        problems, failed = check_all(workload, results)
        problems += workload.final_checks()
        report["metrics"] = end_to_end(workload, results, starts, latencies, speed, failed)
    else:
        # the traced pass takes half the budget; the untraced replay of the
        # same ops takes about the other half
        setup_spans = rec.summary()
        with patched(rec, workload.span_targets()):
            results, _starts, _latencies, wall, cpu = timed_loop(workload, rec, args.seconds / 2, 1)
        problems, failed = check_all(workload, results)
        problems += workload.final_checks()
        fresh = cls(args.seed, NullRecorder())
        replayed, replay_wall = replay(fresh, [r[0] for r in results])
        if replayed != results:
            problems.append("traced outputs differ from the untraced replay")
        from extras import layer_metrics

        report["metrics"] = layer_metrics(workload, rec, setup_spans, results, wall - replay_wall)
        if args.spans_out:
            rec.dump(args.spans_out, {"workload": args.workload, "seed": args.seed})
    report.update(
        loop_wall_s=wall,
        loop_cpu_s=cpu,
        correct=not problems,
        attempted=len(results),
        failed=sum(failed),
        domain_failed=sum(not r[1] for r in results),
        problems=problems[:20],
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
