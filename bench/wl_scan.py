"""Workload ``scan``: rows of the internal-sequence scan on the float64 path.

One op is one row of ``internal_sequence_scan`` at a seeded
(n, direction, step): n in 3..8, direction a +/- coordinate direction over
``internal_labels(n)``, step in 0..RAY_STEPS-1.  The op calls the scan
itself, started at that step for zero further steps.  In the traced run the
library functions the row goes through (``xi_inverse``,
``edge_quadruple_from_invariants``, ``k_edge``, ``compute_L`` and
``entropy_upper_bound``) are wrapped in spans by ``span_targets``.

Base points use the closed-form Fuchsian point: tau = tau' = 0, every
sigma equal to the n=2 shear of its edge block and every boundary gap equal
to the n=2 length, built from ``fuchsian_invariants(surface, 2)`` and
``xi_forward``.
"""

from __future__ import annotations

from common import finite_positive, interleave, load_reference, rel_close, seeded_rng, shuffled_cycle

NS = tuple(range(3, 9))
RAY_STEPS = 32
#: ops per n in one schedule cycle, so that at the seed commit the median
#: successful op sits inside the n=3 band and p90 inside the n=4 band, away
#: from the gap between them, and every n gets run time
N_WEIGHTS = {3: 16, 4: 12, 5: 3, 6: 2, 7: 1, 8: 1}

#: failure reasons grouped by the relation that failed
REASONS = ("level_rank", "coordinate_basis", "fourth_line", "cross_ratio", "other")


def reason_class(message):
    if message.startswith(("hyperplane intersection at level", "reconstructed level", "StopIteration")):
        return "level_rank"
    if message.startswith("coordinate basis"):
        return "coordinate_basis"
    if message.startswith(("shear data", "edge configuration")):
        return "fourth_line"
    if message.startswith("crossing cross ratio"):
        return "cross_ratio"
    return "other"


def label_str(label):
    kind, idx = label
    return f"{kind}:{idx[0]},{idx[1]},{idx[2]}"


def closed_form_base(surface, n, params2, inv2):
    """Fuchsian point at dimension n from the n=2 shears and lengths."""
    from hitchin.pants import HitchinParams, internal_labels

    boundary = {cid: tuple(gaps[0] for _ in range(n - 1)) for cid, gaps in params2.boundary.items()}
    internal = []
    for j in range(surface.decomp.num_pants):
        shear = inv2[j].sigma[(1, 1, 0)]
        internal.append(
            {label: (shear if label[0] == "sigma" else 0.0) for label in internal_labels(n)}
        )
    return HitchinParams(
        n=n,
        decomp=surface.decomp,
        boundary=boundary,
        internal=tuple(internal),
        gluing=zero_gluing(surface.decomp, n),
    )


def zero_gluing(decomp, n):
    return {cid: tuple(0.0 for _ in range(n - 1)) for cid in range(decomp.num_curves)}


def build_bases(rec):
    from hitchin.fuchsian import fuchsian_invariants, genus2_surface
    from hitchin.pants import xi_forward

    with rec.span("fuchsian.genus2_surface"):
        surface = genus2_surface()
    with rec.span("fuchsian.fuchsian_invariants"):
        inv2 = fuchsian_invariants(surface, 2)
    with rec.span("pants.xi_forward"):
        params2 = xi_forward(surface.decomp, inv2, zero_gluing(surface.decomp, 2))
    bases = {n: closed_form_base(surface, n, params2, inv2) for n in NS}
    return surface, bases


def directions(n):
    from hitchin.pants import internal_labels

    return [(label, sign) for label in internal_labels(n) for sign in (1.0, -1.0)]


def scan_row(base, label, sign, step):
    """Row ``step`` of the scan along +/- ``label``; returns (ok, output, reason)."""
    from hitchin.degeneration import internal_sequence_scan, shifted_params

    direction = {label: sign}
    try:
        row = internal_sequence_scan(shifted_params(base, direction, step), direction, 0)[0]
    except StopIteration:
        # reconstruct_triple can exhaust its search for a last basis vector;
        # internal_sequence_scan does not catch this and aborts the whole ray
        return False, None, "StopIteration in reconstruct_triple"
    if not row.flags_ok:
        return False, None, row.error
    return True, (row.K, row.L, row.entropy_bound, f"{row.min_edge[0]}:{row.min_edge[1]}"), ""


def span_targets():
    """The library functions a scan row goes through, for ``spans.patched``.

    ``k_edge`` spans are tagged with n, for the per-n cost.
    """
    import hitchin.degeneration as deg
    import hitchin.pants as pants

    return (
        (pants, "xi_inverse", "pants.xi_inverse", None),
        (deg, "edge_quadruple_from_invariants", "degeneration.edge_quadruple_from_invariants", None),
        (deg, "k_edge", "degeneration.k_edge", lambda quad: quad.n),
        (deg, "compute_L", "degeneration.compute_L", None),
        (deg, "entropy_upper_bound", "degeneration.entropy_upper_bound", None),
    )


def _stratified(strata, rng):
    picks = {ok: shuffled_cycle(rows, rng) for ok, rows in strata.items() if rows}
    order = interleave({ok: len(rows) for ok, rows in strata.items() if rows})
    while True:
        for ok in order:
            yield next(picks[ok])


def op_stream(seed, reference):
    """Endless ops (n, direction index, step) fixed by the seed.

    Per n the grid is split into the rows that succeeded and the rows that
    failed at the reference commit, and the two strata are interleaved in
    their grid proportions, each in seeded order.  Every prefix of a run
    then holds close to the grid's true failure share, which keeps the
    failure share and the success-only latencies steady across seeds.
    """
    rays = reference["rays"]
    streams = {}
    for n in NS:
        strata = {True: [], False: []}
        for d, (label, sign) in enumerate(directions(n)):
            ray = rays[f"{n}|{label_str(label)}|{int(sign)}"]
            for step in range(RAY_STEPS):
                strata[not isinstance(ray[step], str)].append((d, step))
        streams[n] = _stratified(strata, seeded_rng(seed, 1, n))
    cycle = interleave(N_WEIGHTS)
    while True:
        for n in cycle:
            d, step = next(streams[n])
            yield (n, d, step)


def layer_metrics(by_tag, results):
    out = {}
    for n in NS:
        s = by_tag.get(("degeneration.k_edge", n))
        out[f"degeneration.k_edge.ms.n{n}"] = 1e3 * s["self_s"] / s["calls"] if s else 0.0
        out[f"degeneration.rows_failed.n{n}"] = 0
        for r in REASONS:
            out[f"scan.fail_reason.{r}.n{n}"] = 0
    for (n, _d, _step), ok, _output, reason in results:
        if not ok:
            out[f"degeneration.rows_failed.n{n}"] += 1
            out[f"scan.fail_reason.{reason_class(reason)}.n{n}"] += 1
    return out


class ScanWorkload:
    #: ops in one schedule cycle of ``op_stream``
    cycle_ops = len(interleave(N_WEIGHTS))

    def __init__(self, seed, rec):
        self.seed = seed
        self.surface, self.bases = build_bases(rec)
        self.reference = load_reference("scan")
        # warm-up: the cheapest row, untimed
        base = self.bases[3]
        scan_row(base, *directions(3)[0], 0)

    def ops(self):
        return op_stream(self.seed, self.reference)

    def run(self, op, rec):
        n, d, step = op
        label, sign = directions(n)[d]
        return scan_row(self.bases[n], label, sign, step)

    def check(self, op, ok, output, reason):
        """(op failed, regressions against the reference) for one row.

        A failure row where the reference commit also failed reproduces the
        reference and passes; ``domain_ok_frac`` and the per-n failure
        counts report these rows.  A failure row where the reference
        succeeded is a regression.
        """
        n, d, step = op
        label, sign = directions(n)[d]
        ray = self.reference["rays"].get(f"{n}|{label_str(label)}|{int(sign)}")
        ref = ray[step] if ray is not None else None
        if not ok:
            if ref is not None and not isinstance(ref, str):
                return True, [f"scan {op}: row failed ({reason}) but succeeded at the reference"]
            return False, []
        k_val, l_val, ent, _min_edge = output
        if not all(finite_positive(x) for x in (k_val, l_val, ent)):
            return True, [f"scan {op}: non-finite or non-positive row {output}"]
        if ref is None or isinstance(ref, str):
            return False, []
        rk, rl, re_, _rmin = ref
        if not (rel_close(k_val, rk) and rel_close(l_val, rl) and rel_close(ent, re_)):
            return True, [f"scan {op}: row {output} differs from reference {ref}"]
        return False, []

    def final_checks(self):
        """Closed-form base point against xi_forward(fuchsian_invariants) at n=3, 4."""
        from hitchin.fuchsian import fuchsian_invariants
        from hitchin.pants import xi_forward

        problems = []
        for n in (3, 4):
            flagged = xi_forward(
                self.surface.decomp,
                fuchsian_invariants(self.surface, n),
                zero_gluing(self.surface.decomp, n),
            )
            base = self.bases[n]
            diffs = [
                abs(a - b)
                for cid in base.boundary
                for a, b in zip(base.boundary[cid], flagged.boundary[cid])
            ]
            diffs += [
                abs(block[label] - flagged.internal[j][label])
                for j, block in enumerate(base.internal)
                for label in block
            ]
            if max(diffs) > 1e-9:
                problems.append(f"closed-form base point at n={n} off by {max(diffs):.3g}")
        problems += self._golden_check()
        return problems

    def _golden_check(self):
        """Rows 0..10 of the n=3 tau(1,1,1) ray against the repository golden file."""
        import json
        import os

        path = os.path.join("tests", "golden", "degeneration.json")
        with open(path) as fh:
            golden = json.load(fh)["scan_n3_g2_tau_ray"]
        base = self.bases[3]
        problems = []
        for step in range(golden["steps"] + 1):
            ok, out, reason = scan_row(base, ("tau", (1, 1, 1)), 1.0, step)
            if not ok:
                problems.append(f"golden row {step} failed: {reason}")
                continue
            want = (golden["K"][step], golden["L"][step], golden["entropy_bound"][step])
            if not all(rel_close(a, b) for a, b in zip(out[:3], want)):
                problems.append(f"golden row {step}: {out[:3]} != {want}")
        return problems

    def extra_metrics(self):
        """Float linalg probes, closed-leaf residuals and CLI timings."""
        import extras

        out = extras.linalg_probes(extras.float_quad(self.seed), "float")
        out.update(extras.closed_leaf_residuals())
        out.update(extras.cli_timings())
        return out

    span_targets = staticmethod(span_targets)
    layer_metrics = staticmethod(layer_metrics)
