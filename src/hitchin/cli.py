r"""Command-line surface.

Subcommands: invariants, reparam, kbound, entropy-scan, psi-trace,
fuchsian-gen, selftest.  Exit codes: 0 success, 1 mathematical-relation
failure, 2 input or schema failure.  All commands are deterministic given
the config; CSV output is byte-stable apart from the timestamp header
line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time

from . import __version__
from .config import ConfigError, RunConfig, invariants_to_dict, params_to_dict
from .linalg import DegenerateError
from .pants import PantsDataError, check_closed_leaf, closed_leaf_tol, xi_forward, xi_inverse
from .tracer import TraceError

EXIT_OK = 0
EXIT_RELATION = 1
EXIT_SCHEMA = 2


@contextlib.contextmanager
def _output(path):
    """The file at ``path``, or stdout when ``path`` is empty or "-"."""
    if not path or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_csv(path, header, rows, cfg):
    with _output(path) as fh:
        fh.write(f"# tool: hitchin {__version__}\n")
        fh.write(f"# config_hash: {cfg.config_hash()}\n")
        fh.write(f"# generated: {time.strftime('%Y-%m-%dT%H:%M:%S')}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, payload):
    with _output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def cmd_invariants(cfg, args, out):
    invariants = cfg.invariants()
    report = check_closed_leaf(cfg.decomposition(), invariants)
    rows = [
        (kind, ident, relation, k, format(float(v), ".12g"))
        for kind, ident, relation, k, v in report.rows()
    ]
    _write_csv(out, ("kind", "id", "relation", "k", "value"), rows, cfg)
    tol = closed_leaf_tol(invariants)
    for (cid, k), r in sorted(report.equality_residuals.items()):
        if r > tol:
            print(
                f"closed leaf equality fails: curve {cid}, k={k}, residual {float(r):.3g}",
                file=sys.stderr,
            )
            return EXIT_RELATION
    for (j, slot, k), v in sorted(report.gap_values.items()):
        if v <= tol:
            print(
                f"closed leaf inequality fails: pants {j}, slot {slot}, k={k}, value {float(v):.3g}",
                file=sys.stderr,
            )
            return EXIT_RELATION
    return EXIT_OK


def cmd_reparam(cfg, args, out):
    if args.direction == "forward":
        params = xi_forward(cfg.decomposition(), cfg.invariants(), cfg.gluing())
        payload = {"n": cfg.n, "genus": cfg.genus, "parameters": params_to_dict(params)}
    else:
        invariants, gluing = xi_inverse(cfg.hitchin_params())
        payload = {
            "n": cfg.n,
            "genus": cfg.genus,
            "parameters": {
                "invariants": invariants_to_dict(invariants),
                "gluing": {str(c): [str(v) for v in vals] for c, vals in sorted(gluing.items())},
            },
        }
    _write_json(out, payload)
    return EXIT_OK


def cmd_kbound(cfg, args, out):
    from .degeneration import compute_K, compute_L

    params = cfg.hitchin_params()
    invariants, _ = xi_inverse(params)
    k_val, per_edge = compute_K(params.decomp, invariants)
    l_val = compute_L(params.boundary, cfg.n)
    rows = [
        (j, kind, format(v, ".12g")) for (j, kind), v in sorted(per_edge.items())
    ]
    rows.append(("min", "K", format(k_val, ".12g")))
    rows.append(("min", "L", format(l_val, ".12g")))
    _write_csv(out, ("pants", "edge", "value"), rows, cfg)
    return EXIT_OK


def cmd_entropy_scan(cfg, args, out):
    from .degeneration import CSV_COLUMNS, internal_sequence_scan

    rows = internal_sequence_scan(cfg.hitchin_params(), cfg.direction, cfg.steps)
    _write_csv(out, CSV_COLUMNS, [r.csv_row() for r in rows], cfg)
    ok = sum(1 for r in rows if r.flags_ok)
    if ok < 0.9 * len(rows):
        print(f"scan failed on {len(rows) - ok} of {len(rows)} rows", file=sys.stderr)
        return EXIT_RELATION
    return EXIT_OK


def cmd_psi_trace(cfg, args, out):
    from .degeneration import compute_K, compute_L, length_lower_bound
    from .fuchsian import is_hyperbolic
    from .tracer import PsiTracer, r_and_s, validate_psi

    surface = cfg.surface()
    tracer = PsiTracer(surface, n=cfg.n, depth_cap=cfg.depth_cap)
    word = args.word or cfg.word
    if not word:
        raise ConfigError("psi-trace needs a word ([tracer].word or --word)")
    letters = "".join(surface.generators)
    letters += letters.upper()
    bad = next((ch for ch in word if ch not in letters), None)
    if bad is not None:
        raise ConfigError(f"word {word!r} has the letter {bad!r}, not one of {letters!r}")
    if not is_hyperbolic(surface.matrix(word)):
        raise ConfigError(f"word {word!r} is not hyperbolic")
    psi = tracer.trace(word)
    header = ("index", "pred", "edge", "succ", "type", "t")
    if psi.is_closed_leaf:
        _write_csv(out, header, [("closed-leaf", psi.closed_leaf_curve, "", "", "", "")], cfg)
        print(f"word {word!r} is a closed-leaf power (curve {psi.closed_leaf_curve})")
        return EXIT_OK
    decomp = cfg.decomposition()
    violations = validate_psi(psi, decomp)
    if violations:
        for v in violations:
            print(f"encoding violation: {v}", file=sys.stderr)
        return EXIT_RELATION
    counts = r_and_s(psi)
    # r and s depend on the curve's homotopy class only, so the bound at the
    # run's point takes K and L there, as kbound does.  The Fuchsian K does
    # not depend on n, so it is taken where no n-dimensional flag is built.
    params = cfg.hitchin_params()
    invariants = cfg.fuchsian_point(2) if cfg.is_fuchsian else xi_inverse(params)[0]
    k_val, _ = compute_K(decomp, invariants)
    bound = length_lower_bound(counts, k_val, compute_L(params.boundary, cfg.n))
    rows = [
        (i, f"{tp.pred[0]}:{tp.pred[1]}", f"{tp.edge[0]}:{tp.edge[1]}",
         f"{tp.succ[0]}:{tp.succ[1]}", tp.type, tp.t)
        for i, tp in enumerate(psi.tuples)
    ]
    _write_csv(out, header, rows, cfg)
    print(f"r = {counts.r}, s = {counts.s}, length bound = {bound:.9g}")
    return EXIT_OK


def cmd_fuchsian_gen(cfg, args, out):
    invariants = cfg.fuchsian_point()
    params = xi_forward(cfg.decomposition(), invariants, cfg.gluing())
    payload = {
        "n": cfg.n,
        "genus": 2,
        "backend": "float64",
        "decomposition": {"standard_genus": 2},
        "surface": cfg.raw.get("surface", {}),
        "parameters": {"invariants": invariants_to_dict(invariants), **params_to_dict(params)},
    }
    _write_json(out, payload)
    return EXIT_OK


def cmd_selftest(cfg, args, out):
    failures = []
    for name, fn in _selftest_bank():
        try:
            fn()
            print(f"PASS {name}")
        except Exception as exc:  # noqa: BLE001 - report and continue
            failures.append((name, exc))
            print(f"FAIL {name}: {exc}")
    if failures:
        print(f"{len(failures)} selftest failure(s)", file=sys.stderr)
        return EXIT_RELATION
    return EXIT_OK


def _selftest_bank():
    """Named identity checks binding all modules together."""
    import random
    from fractions import Fraction

    from . import invariants as inv_mod
    from .flags import extract_triple_ratios, reconstruct_triple, sym_power, veronese_flag
    from .linalg import Flag, draw_generic, is_generic_triple, wedge_det

    rng = random.Random(0)

    def rand_flag(n):
        def sample():
            vecs = [[Fraction(rng.randint(-6, 6)) for _ in range(n)] for _ in range(n)]
            return Flag(vecs)

        return draw_generic(sample, f"flag in R^{n}")

    def rand_generic_triple(n):
        def sample():
            f, g, h = rand_flag(n), rand_flag(n), rand_flag(n)
            if not is_generic_triple(f, g, h):
                raise DegenerateError("flag triple is not generic")
            return f, g, h

        return draw_generic(sample, f"generic flag triple in R^{n}")

    def rand_lines_and_base(n, count):
        def sample():
            lines = [
                tuple(Fraction(rng.randint(-9, 9)) for _ in range(n)) for _ in range(count)
            ]
            base = [
                tuple(Fraction(rng.randint(-9, 9)) for _ in range(n))
                for _ in range(n - 2)
            ]
            value = inv_mod.cross_ratio([lines[0], lines[1], lines[2], lines[3]], base)
            if inv_mod.is_infinite(value):
                raise DegenerateError("cross ratio is infinite")
            return lines, base

        return draw_generic(sample, f"finite cross ratio in R^{n}")

    def check_wedge_antisymmetry():
        for n in (2, 3, 4, 5):
            vecs = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            d1 = wedge_det(vecs)
            swapped = [vecs[1], vecs[0]] + vecs[2:]
            assert wedge_det(swapped) == -d1, "swap must flip the sign"

    def check_cross_ratio_swap_identity():
        # (L1,L2,L3,L4)_M = 1 - (L2,L1,L3,L4)_M
        for n in (2, 3, 4):
            for _ in range(20):
                lines, base = rand_lines_and_base(n, 4)
                v = inv_mod.cross_ratio(lines, base)
                w = inv_mod.cross_ratio([lines[1], lines[0], lines[2], lines[3]], base)
                if inv_mod.is_infinite(v) or inv_mod.is_infinite(w):
                    continue
                assert v == 1 - w, f"swap identity: {v} != 1 - {w}"

    def check_cross_ratio_reversal_identity():
        for n in (2, 3, 4):
            for _ in range(20):
                lines, base = rand_lines_and_base(n, 4)
                v = inv_mod.cross_ratio(lines, base)
                w = inv_mod.cross_ratio(list(reversed(lines)), base)
                assert v == w, "reversal identity"

    def check_cross_ratio_cocycle():
        for n in (2, 3):
            for _ in range(20):
                lines, base = rand_lines_and_base(n, 5)
                l1, l2, l3, l4, l5 = lines
                try:
                    a = inv_mod.cross_ratio([l1, l2, l3, l5], base)
                    b = inv_mod.cross_ratio([l1, l3, l4, l5], base)
                    c = inv_mod.cross_ratio([l1, l2, l4, l5], base)
                except DegenerateError:
                    continue
                if any(inv_mod.is_infinite(v) for v in (a, b, c)):
                    continue
                assert a * b == c, "cocycle identity"

    def check_triple_cyclic_symmetry():
        for n in (3, 4):
            f, g, h = rand_generic_triple(n)
            for idx in inv_mod.triple_index_set(n):
                x, y, z = idx
                lhs = inv_mod.triple_ratio(f, g, h, idx)
                rhs = inv_mod.triple_ratio(g, h, f, (y, z, x))
                assert lhs == rhs, "cyclic symmetry of the triple ratio"

    def check_reconstruction_round_trip():
        f, g, h = rand_generic_triple(3)
        ratios = extract_triple_ratios(f, g, h)
        g2 = reconstruct_triple(f, h, g.subspace(1), ratios)
        assert g2 == g, "triple reconstruction round trip"

    def check_sym_power_multiplicative():
        a = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
        b = ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3)))
        from .linalg import mat_mul

        ab = mat_mul(a, b)
        for n in (3, 4, 5):
            assert mat_mul(sym_power(a, n), sym_power(b, n)) == sym_power(ab, n)

    def check_veronese_triple_ratios():
        for n in (3, 4):
            flags = [
                veronese_flag((Fraction(t), Fraction(1)), n) for t in (0, 1, 3)
            ]
            for idx in inv_mod.triple_index_set(n):
                assert inv_mod.triple_ratio(*flags, idx) == 1

    def check_fuchsian_closed_form():
        # on the rational normal curve every shear cross ratio is the classical
        # one, and the one based at two osculating hyperplanes its (n-1)-st power
        def w(p, q):
            return Fraction(p[0] * q[1] - p[1] * q[0])

        for pts in (((0, 1), (1, 1), (3, 1), (2, 1)), ((1, 0), (2, 1), (5, 3), (-1, 1))):
            p1, p2, p3, p4 = pts
            classical = w(p1, p3) * w(p4, p2) / (w(p1, p2) * w(p4, p3))
            for n in (2, 3, 4, 5):
                fa, fb, fc, fd = (veronese_flag(p, n) for p in pts)
                for x in range(1, n):
                    shear = inv_mod.cross_ratio_flags(fa, fb, fc, fd, [(fa, x - 1), (fd, n - x - 1)])
                    assert shear == classical, f"shear at n={n}, x={x}"
                meet = fa.subspace(n - 1) & fd.subspace(n - 1)
                mesh = inv_mod.cross_ratio([f.subspace(1) for f in (fa, fb, fc, fd)], meet)
                assert mesh == classical ** (n - 1), f"mesh cross ratio at n={n}"

    def check_reparam_round_trip():
        from .pants import (
            HitchinParams,
            internal_labels,
            standard_genus2,
            xi_forward,
            xi_inverse,
        )

        decomp = standard_genus2()
        n = 4
        labels = internal_labels(n)
        boundary = {
            c: tuple(Fraction(rng.randint(1, 9)) for _ in range(n - 1)) for c in range(3)
        }
        internal = tuple(
            {lab: Fraction(rng.randint(-4, 4)) for lab in labels} for _ in range(2)
        )
        gluing = {c: tuple(Fraction(0) for _ in range(n - 1)) for c in range(3)}
        params = HitchinParams(
            n=n, decomp=decomp, boundary=boundary, internal=internal, gluing=gluing
        )
        invs, glu = xi_inverse(params)
        back = xi_forward(decomp, invs, glu)
        assert back.boundary == params.boundary and back.internal == params.internal

    def check_backend_agreement():
        for _ in range(20):
            lines, base = rand_lines_and_base(3, 4)
            v = inv_mod.cross_ratio(lines, base)
            fl = [tuple(float(x) for x in l) for l in lines]
            fb = [tuple(float(x) for x in b) for b in base]
            w = inv_mod.cross_ratio(fl, fb)
            if inv_mod.is_infinite(v) or inv_mod.is_infinite(w):
                continue
            assert abs(float(v) - w) <= 1e-8 * max(1.0, abs(w)), "backend agreement"

    def check_entropy_monotone():
        from .degeneration import entropy_upper_bound

        values = [entropy_upper_bound(10.0**k, 1.0, 2) for k in range(1, 7)]
        assert all(a > b for a, b in zip(values, values[1:])), "entropy bound monotone"
        assert values[-1] < 0.01, "entropy bound limit"

    return [
        ("wedge antisymmetry", check_wedge_antisymmetry),
        ("cross-ratio swap identity (1 - value)", check_cross_ratio_swap_identity),
        ("cross-ratio reversal identity", check_cross_ratio_reversal_identity),
        ("cross-ratio cocycle identity", check_cross_ratio_cocycle),
        ("triple-ratio cyclic symmetry", check_triple_cyclic_symmetry),
        ("triple reconstruction round trip", check_reconstruction_round_trip),
        ("symmetric power multiplicativity", check_sym_power_multiplicative),
        ("rational-normal-curve triple ratios", check_veronese_triple_ratios),
        ("Fuchsian closed form: shear and mesh cross ratios", check_fuchsian_closed_form),
        ("reparameterization round trip", check_reparam_round_trip),
        ("exact/float backend agreement", check_backend_agreement),
        ("entropy bound monotonicity", check_entropy_monotone),
    ]


COMMANDS = {
    "invariants": cmd_invariants,
    "reparam": cmd_reparam,
    "kbound": cmd_kbound,
    "entropy-scan": cmd_entropy_scan,
    "psi-trace": cmd_psi_trace,
    "fuchsian-gen": cmd_fuchsian_gen,
    "selftest": cmd_selftest,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hitchin",
        description="Flag invariants, pants coordinates, and degeneration bounds",
    )
    parser.add_argument("--version", action="version", version=f"hitchin {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default="", help="path to the JSON config")
        p.add_argument("--backend", choices=("exact", "float64"), default=None)
        p.add_argument("--out", default="", help="output path (default stdout)")
        if name == "reparam":
            p.add_argument(
                "--direction", choices=("forward", "inverse"), required=True
            )
        if name == "psi-trace":
            p.add_argument("--word", default="")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.load(args.config) if args.config else RunConfig.from_dict({})
        if args.backend:
            cfg.backend = args.backend
        return COMMANDS[args.command](cfg, args, args.out or cfg.output_path)
    except (ConfigError, PantsDataError, FileNotFoundError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (DegenerateError, TraceError) as exc:
        print(f"relation failure: {exc}", file=sys.stderr)
        return EXIT_RELATION


if __name__ == "__main__":
    sys.exit(main())
