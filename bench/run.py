"""Layered benchmark of the hitchin package.

Run from the repository root:

    python3 bench/run.py --workload scan --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --selfcheck

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``scan``: rows of the internal-sequence scan on the float64 path;
* ``exact_edge``: exact reconstruction of one edge quadruple and its K;
* ``trace``: the exact curve tracer on seeded words.

Each workload runs in a fresh interpreter (``child.py``) as a closed loop
with one client, no worker pool, and BLAS/OpenMP threads pinned to 1.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; the
set-up time is the median over the run's own set-up and SETUP_REPEATS
more set-ups in fresh interpreters.  Time metrics are taken at reference
speed, which takes out the shared host's swings (``hostspeed.py``); the
log lines give them unscaled as well.  With ``--trace 1`` it holds the
per-layer metrics of a traced run, whose spans are written to
``.bench_out/``.  Every op's output is checked against the reference
outputs in ``bench/reference/`` (re-recorded with ``record_reference.py``);
``correct`` is false if any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 6
CHILD_TIMEOUT_S = 170
WORKLOADS = ("scan", "exact_edge", "trace")


def pinned_env(root):
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), BENCH_DIR]),
    )
    return env


def environment(root, seed):
    from importlib import metadata

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "hitchin")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
    }


def run_child(root, env, args, mode, min_ok, spans_out=""):
    t0 = time.monotonic()
    argv = [
        sys.executable,
        os.path.join(BENCH_DIR, "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
        "--min-ok", str(min_ok),
        "--t0", repr(t0),
    ]
    if spans_out:
        argv += ["--spans-out", spans_out]
    proc = subprocess.run(
        argv, cwd=root, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def benchmark(root, args, min_ok):
    """Run one workload.

    Returns the result line dict, the human-readable lines and the names of
    the metrics the workload measured.
    """
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    env = pinned_env(root)
    spans_out = ""
    if args.trace:
        os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
        spans_out = os.path.join(root, ".bench_out", f"spans-{args.workload}-{args.seed}.json")
    report = run_child(root, env, args, "run", min_ok, spans_out)
    measured = report["metrics"]
    lines = [
        f"# env {json.dumps(environment(root, args.seed), sort_keys=True)}",
        f"# timed loop: {report['loop_wall_s']:.3f} s wall, {report['loop_cpu_s']:.3f} s cpu",
    ]
    if args.trace:
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
        setups = [report] + [run_child(root, env, args, "setup", min_ok) for _ in range(SETUP_REPEATS)]
        measured["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        lines.append(
            "# at host speed (unscaled): throughput"
            f" {measured['raw_throughput_ops_per_s']:.4f} 1/s, p50 {measured['raw_latency_p50_ms']:.4f} ms,"
            f" p90 {measured['raw_latency_p90_ms']:.4f} ms,"
            f" setup {statistics.median(s['raw_setup_s'] for s in setups):.4f} s;"
            f" reference kernel {measured['host_factor_median']:.3f}x slower than reference (median)"
        )
        lines.append(
            f"# latency samples {measured['latency_samples']} (successful ops: computed by the library, passed the checks),"
            f" over {measured['cycles']} whole schedule cycles"
        )
        lines.append(
            f"# failed_frac {report['failed'] / report['attempted']:.6f}"
            f" ({report['failed']} of {report['attempted']} ops failed a check)"
        )
        lines.append(
            f"# library failure rows {report['domain_failed']} of {report['attempted']} ops"
            " (each as at the reference commit)"
        )
    for problem in report["problems"]:
        lines.append(f"# check failed: {problem}")
    metrics = {}
    for m in wanted:
        # every traced run must print every per-layer name; a layer this
        # workload does not measure prints 0 and is marked in the log
        value = measured.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        mark = "" if m["name"] in measured else "  (not measured by this workload)"
        lines.append(f"{m['name']} {value} {m['unit']}{mark}")
    result = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    return result, lines, set(measured)


def selfcheck(root):
    """Tiny runs of every workload, traced and untraced; checks metric names.

    Every end-to-end metric must be measured by every workload, and every
    per-layer metric by at least one.
    """
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    layer_names = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=0, seconds=0.5, trace=trace)
            result, lines, measured = benchmark(root, args, min_ok=3)
            missing = set()
            if trace:
                layer_names -= measured
            else:
                missing = {m["name"] for m in spec["end_to_end"]} - measured
            print("\n".join(lines))
            print(f"== {workload} trace={trace} correct={result['correct']} missing={sorted(missing)}")
            ok = ok and result["correct"] and not missing
    print(f"== per-layer metrics no workload measures: {sorted(layer_names)}")
    return ok and not layer_names


def main():
    parser = argparse.ArgumentParser(description="hitchin layered benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="tiny runs of every workload")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hitchin", "__init__.py")):
        print("bench/run.py: run from a checkout of the repository root (no src/hitchin)", file=sys.stderr)
        return 2
    if args.selfcheck:
        return 0 if selfcheck(root) else 1
    if args.workload is None:
        parser.error("--workload is required")
    result, lines, _measured = benchmark(root, args, min_ok=100)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
