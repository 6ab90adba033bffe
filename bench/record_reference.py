"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the
reference, one workload at a time:

    PYTHONPATH=src python3 bench/record_reference.py scan
    PYTHONPATH=src python3 bench/record_reference.py exact_edge
    PYTHONPATH=src python3 bench/record_reference.py trace

Each writes ``bench/reference/<workload>.json``.  ``--timings PATH``
also writes the wall time of every recorded op, which is how the op mix
weights in the workload modules were chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import REFERENCE_DIR  # noqa: E402
from spans import NullRecorder  # noqa: E402


def record_scan(timings):
    """Every row of the grid: its K, L, entropy bound and min edge, or why it failed."""
    import wl_scan

    _surface, bases = wl_scan.build_bases(NullRecorder())
    rays = {}
    for n in wl_scan.NS:
        for label, sign in wl_scan.directions(n):
            key = f"{n}|{wl_scan.label_str(label)}|{int(sign)}"
            ray = []
            for step in range(wl_scan.RAY_STEPS):
                t0 = time.perf_counter()
                ok, out, reason = wl_scan.scan_row(bases[n], label, sign, step)
                timings.append((key, step, ok, time.perf_counter() - t0))
                ray.append(list(out) if ok else reason)
            rays[key] = ray
        print(f"scan n={n}: {sum(len(r) for k, r in rays.items() if k.startswith(f'{n}|'))} rows")
    return {"ray_steps": wl_scan.RAY_STEPS, "rays": rays}


def record_exact_edge(timings):
    import wl_exact_edge as wl

    values = {}
    for n in wl.NS:
        frame = wl.base_frame(n)
        for kind in wl.KINDS:
            for idx in range(wl.POOL[n]):
                t0 = time.perf_counter()
                ok, out, reason = wl.edge_op(frame, wl.pool_entry(n, kind, idx), NullRecorder())
                timings.append((n, kind, idx, ok, time.perf_counter() - t0))
                if not ok or not all(out[1:]):
                    raise SystemExit(f"exact edge {(n, kind, idx)} failed: {reason or out}")
                values[f"{n}|{kind}|{idx}"] = out[0]
        print(f"exact_edge n={n}: {2 * wl.POOL[n]} edges")
    return {"k_edge": values}


def record_trace(timings):
    """Encodings of the pool words, conjugation outcomes and closed leaves.

    For every pool word w and letter y the conjugate y w y^-1 is traced too;
    the letters whose conjugate encoding is not a rotation of w's are
    recorded, so a run can tell this known tracer defect from a new one.
    """
    from hitchin.tracer import PsiTracer, cyclic_equal

    import wl_trace as wl

    surface, k_val, l_val = wl.length_constants(NullRecorder())
    tracer = PsiTracer(surface, n=2)
    encodings, conj_mismatch = {}, {}
    for length in wl.LENGTHS:
        for word in wl.pool_words(surface, length):
            t0 = time.perf_counter()
            ok, out, reason = wl.trace_op(tracer, word, k_val, l_val, NullRecorder())
            timings.append((word, ok, time.perf_counter() - t0))
            if not ok or out[-1]:
                raise SystemExit(f"trace {word!r} failed: {reason or out}")
            if out[0] == "leaf":
                encodings[word] = out[1]
                continue
            if not out[4] <= out[5]:
                raise SystemExit(f"trace {word!r}: length bound {out[4]} > {out[5]}")
            encodings[word] = out[1]
            base = wl.decode(out[1])
            bad = ""
            for y in wl.LETTERS:
                conj = tracer.trace(y + word + wl.invert(y))
                if not cyclic_equal(conj, base):
                    bad += y
            if bad:
                conj_mismatch[word] = bad
        print(f"trace length {length}: {wl.POOL_PER_LENGTH} words, {len(conj_mismatch)} with conjugate mismatches so far")
    for word, curve in wl.leaf_words():
        psi = tracer.trace(word)
        if psi.closed_leaf_curve != curve:
            raise SystemExit(f"closed-leaf word {word!r}: curve {psi.closed_leaf_curve} != {curve}")
    return {"encodings": encodings, "conj_mismatch": conj_mismatch}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("scan", "exact_edge", "trace"))
    parser.add_argument("--timings", default="")
    args = parser.parse_args()
    timings = []
    recorder = {
        "scan": record_scan,
        "exact_edge": record_exact_edge,
        "trace": record_trace,
    }[args.workload]
    data = recorder(timings)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, f"{args.workload}.json"), "w") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    if args.timings:
        with open(args.timings, "w") as fh:
            json.dump(timings, fh)


if __name__ == "__main__":
    main()
