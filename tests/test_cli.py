import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hitchin.cli import main
from hitchin.config import ConfigError, RunConfig, parse_scalar

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def run_cli(args):
    return main(list(args))


@pytest.fixture
def scan_config(tmp_path):
    cfg = json.loads((CONFIG_DIR / "scan_n3_g2.json").read_text())
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture
def surface_config(tmp_path):
    cfg = json.loads((CONFIG_DIR / "genus2_surface.json").read_text())
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(cfg))
    return path


class TestConfig:
    def test_parse_scalar_fraction_string(self):
        from fractions import Fraction

        assert parse_scalar("3/7", exact=True) == Fraction(3, 7)
        assert parse_scalar("3/7", exact=False) == pytest.approx(3 / 7)
        assert parse_scalar(2, exact=True) == 2

    def test_unknown_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n": 3, "bogus": 1})
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"scan": {"stepz": 3}})
        # nothing is random, so there is no seed key or flag
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps({"n": 3, "seed": 0}))
        assert run_cli(["kbound", "--config", str(seeded)]) == 2
        # the closed-leaf tolerance is fixed by the data, not configured
        tolerant = tmp_path / "tolerances.json"
        tolerant.write_text(json.dumps({"n": 3, "tolerances": {"closed_leaf": 1e-9}}))
        assert run_cli(["invariants", "--config", str(tolerant)]) == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(["kbound", "--seed", "1"])
        assert exc.value.code == 2

    def test_direction_labels_checked_against_n(self, tmp_path, capsys):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n": 4, "scan": {"direction": {"tau:1,1,1": 1}}})
        assert RunConfig.from_dict({"n": 4, "scan": {"direction": {"tau:1,1,2": 1}}})
        cfg = tmp_path / "n3_label.json"
        cfg.write_text(json.dumps({"n": 4, "scan": {"direction": {"tau:1,1,1": 1}}}))
        assert run_cli(["entropy-scan", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "'tau:1,1,1'" in err and "n=4" in err

    def test_decomposition_genus_checked_at_load(self, tmp_path, capsys):
        data = {
            "genus": 2,
            "decomposition": {"standard_genus": 3},
            "parameters": {"fuchsian": True},
        }
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)
        cfg = tmp_path / "genus_mismatch.json"
        cfg.write_text(json.dumps(data))
        for command in ("fuchsian-gen", "kbound"):
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert run_cli(argv) == 2, command
        assert "decomposition genus disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data,command,message",
        [
            ({"tracer": {"depth_cap": 0}}, ["psi-trace", "--word", "ab"], "depth_cap must be at least 1"),
            ({"scan": {"steps": -3}}, ["entropy-scan"], "steps must be non-negative"),
        ],
    )
    def test_search_and_scan_bounds_checked(self, tmp_path, capsys, data, command, message):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data,command,message",
        [
            # int() would truncate 3.7 to 3
            ({"n": 3.7}, ["kbound"], "n must be an integer, got 3.7"),
            # int() would read true as 1
            ({"genus": True}, ["kbound"], "genus must be an integer, got True"),
            (
                {"decomposition": {"standard_genus": "2"}},
                ["kbound"],
                "[decomposition].standard_genus must be an integer, got '2'",
            ),
            (
                {"tracer": {"depth_cap": "x"}},
                ["psi-trace", "--word", "ab"],
                "[tracer].depth_cap must be an integer, got 'x'",
            ),
            ({"scan": {"steps": "3.5"}}, ["entropy-scan"], "[scan].steps must be an integer, got '3.5'"),
            ({"tracer": {"word": 5}}, ["psi-trace"], "[tracer].word must be a string, got 5"),
            # open() would take 7 and true as file descriptors
            ({"output": {"path": 7}}, ["kbound"], "[output].path must be a string, got 7"),
            ({"output": {"path": True}}, ["kbound"], "[output].path must be a string, got True"),
            ({"output": {"path": ["a"]}}, ["kbound"], "[output].path must be a string, got ['a']"),
        ],
    )
    def test_field_types_checked(self, tmp_path, capsys, data, command, message):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(data)
        cfg = tmp_path / "types.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        assert run_cli(command + ["--config", str(cfg), "--out", str(out)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "data,command,message",
        [
            (
                {"n": 3, "parameters": {"boundary": {"0": [1, 1]}, "internal": [{}, {}]}},
                "kbound",
                "boundary data must cover every curve",
            ),
            (
                {"n": 3, "parameters": {"fuchsian": True, "gluing": {"x": [0, 0]}}},
                "kbound",
                "[parameters].gluing key 'x' is not a curve id",
            ),
            (
                {"n": 3, "parameters": {"invariants": [{"tau": {"1,1,1": 0}, "tau_prime": {"1,1,1": 0}, "sigma": {}}] * 2}},
                "invariants",
                "shear invariants must cover the three edge blocks",
            ),
            (
                {"n": 3, "parameters": {"invariants": [{"tau": {"a": 0}, "tau_prime": {"1,1,1": 0}, "sigma": {}}] * 2}},
                "invariants",
                "bad invariant index 'a'",
            ),
            (
                {"n": 3, "parameters": {"boundary": [[1, 1]], "internal": [{}, {}]}},
                "kbound",
                "[parameters].boundary must be an object, got [[1, 1]]",
            ),
            (
                {"n": 3, "parameters": {"boundary": {str(c): [1, 1] for c in range(3)}, "internal": 5}},
                "kbound",
                "[parameters].internal must be a list, got 5",
            ),
            (
                {"n": 3, "parameters": {"fuchsian": True, "gluing": {"0": 5}}},
                "kbound",
                "[parameters].gluing['0'] must be a list, got 5",
            ),
            (
                {"n": 3, "parameters": {"invariants": [5, 5]}},
                "invariants",
                "[parameters].invariants[0] must be an object, got 5",
            ),
            (
                {"n": 3, "parameters": {"invariants": [{"tau": 5, "tau_prime": {"1,1,1": 0}, "sigma": {}}] * 2}},
                "invariants",
                "[parameters].invariants[0].tau must be an object, got 5",
            ),
            ({"n": 3, "surface": {"a1": 5}}, "fuchsian-gen", "[surface].a1 must be a list, got 5"),
            (
                {"n": 3, "surface": {"a1": [5, 6]}},
                "fuchsian-gen",
                "[surface].a1[0] must be a list, got 5",
            ),
            (
                {"n": 3, "surface": {"b1": [[1, 2], [3]]}},
                "fuchsian-gen",
                "[surface].b1 must be a 2 x 2 matrix, got [[1, 2], [3]]",
            ),
            (
                {"n": 3, "scan": {"direction": [1, 2]}},
                "entropy-scan",
                "[scan].direction must be an object, got [1, 2]",
            ),
            # a truthy string would replace explicit data by the Fuchsian point
            (
                {"n": 3, "parameters": {"fuchsian": "false"}},
                "kbound",
                "[parameters].fuchsian must be true or false, got 'false'",
            ),
            # JSON readers take NaN and Infinity; a NaN tau passes the
            # closed-leaf check r > tol, a NaN direction fails every row
            (
                {"n": 3, "parameters": {"invariants": [{"tau": {"1,1,1": math.nan}, "tau_prime": {"1,1,1": 0}, "sigma": {}}] * 2}},
                "invariants",
                "number must be finite, got nan",
            ),
            (
                {"n": 3, "backend": "exact", "parameters": {"invariants": [{"tau": {"1,1,1": math.inf}, "tau_prime": {"1,1,1": 0}, "sigma": {}}] * 2}},
                "invariants",
                "number must be finite, got inf",
            ),
            (
                {"n": 3, "scan": {"direction": {"tau:1,1,1": math.nan}}},
                "entropy-scan",
                "number must be finite, got nan",
            ),
            ({"n": 3, "scan": {"direction": {"tau:1,1": 1}}}, "entropy-scan", "bad coordinate label 'tau:1,1'"),
            ({"n": 3, "scan": {"direction": {"foo:1,1,1": 1}}}, "entropy-scan", "bad coordinate label 'foo:1,1,1'"),
            (
                {"n": 3, "parameters": {"boundary": {str(c): [1, 1] for c in range(3)}, "internal": [{"tau:x": 0}, {}]}},
                "kbound",
                "bad coordinate label 'tau:x'",
            ),
        ],
    )
    def test_malformed_parameters_are_config_errors(self, tmp_path, capsys, data, command, message):
        cfg = tmp_path / "params.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "out.csv"
        assert run_cli([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err and "Traceback" not in err
        assert not out.exists()

    def test_bad_surface_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "identity_a1.json"
        cfg.write_text(json.dumps({"n": 2, "surface": {"a1": [[1, 0], [0, 1]]}}))
        for command in ("fuchsian-gen", "psi-trace"):
            argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
            assert run_cli(argv) == 2, command
            err = capsys.readouterr().err
            assert "config error: bad [surface]: tr[a1,b1] = 2 >= -2" in err, command

    def test_n_range_checked(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n": 9})

    def test_hash_stable(self):
        a = RunConfig.from_dict({"n": 3, "genus": 2})
        b = RunConfig.from_dict({"n": 3, "genus": 2})
        assert a.config_hash() == b.config_hash()


class TestCommands:
    def test_invariants_ok(self, surface_config, tmp_path, capsys):
        out = tmp_path / "resid.csv"
        assert run_cli(["invariants", "--config", str(surface_config), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[3].startswith("kind,")

    def test_invariants_catch_broken_equality(self, tmp_path):
        # perturb one shear in a dumped fuchsian-gen config
        gen = tmp_path / "gen.json"
        assert run_cli(["fuchsian-gen", "--config", str(CONFIG_DIR / "genus2_surface.json"), "--out", str(gen)]) == 0
        data = json.loads(gen.read_text())
        data["parameters"]["invariants"][0]["sigma"]["1,0,1"] = 99.0
        del data["parameters"]["boundary"]
        del data["parameters"]["internal"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run_cli(["invariants", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("name", ("genus2_surface.json", "scan_n3_g2.json"))
    def test_invariants_exact_backend_on_fuchsian_config(self, name, tmp_path):
        # Fuchsian invariants are floats whatever the backend says, so their
        # closed leaf relations hold to rounding, not exactly
        out = tmp_path / "resid.csv"
        argv = ["invariants", "--backend", "exact", "--config", str(CONFIG_DIR / name)]
        assert run_cli(argv + ["--out", str(out)]) == 0

    def test_invariants_exact_data_checked_exactly(self, tmp_path):
        # the exact invariants of an exact parameter file pass; one shear
        # moved by far less than CLOSED_LEAF_TOL breaks an equality
        from fractions import Fraction

        cfg = {
            "n": 3,
            "genus": 2,
            "backend": "exact",
            "decomposition": {"standard_genus": 2},
            "parameters": {
                "boundary": {"0": ["3", "2"], "1": ["1", "5/2"], "2": ["4/3", "1"]},
                "internal": [
                    {"tau:1,1,1": "1/2", "sigma:2,1,0": "-2"},
                    {"tau:1,1,1": "0", "sigma:2,1,0": "7/3"},
                ],
                "gluing": {"0": ["0", "1"], "1": ["2", "0"], "2": ["1/2", "-1"]},
            },
        }
        path = tmp_path / "p.json"
        path.write_text(json.dumps(cfg))
        inv_path = tmp_path / "inv.json"
        argv = ["reparam", "--direction", "inverse", "--config", str(path), "--out", str(inv_path)]
        assert run_cli(argv) == 0
        cfg["parameters"] = json.loads(inv_path.read_text())["parameters"]
        path.write_text(json.dumps(cfg))
        assert run_cli(["invariants", "--config", str(path), "--out", str(tmp_path / "ok.csv")]) == 0
        sigma = cfg["parameters"]["invariants"][0]["sigma"]
        sigma["1,0,2"] = str(Fraction(sigma["1,0,2"]) + Fraction(1, 10**12))
        path.write_text(json.dumps(cfg))
        assert run_cli(["invariants", "--config", str(path), "--out", str(tmp_path / "bad.csv")]) == 1

    def test_invariants_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 3, "parameters": {"invariants": []}}))
        assert run_cli(["invariants", "--config", str(bad)]) == 2

    def test_reparam_round_trip_bit_exact(self, tmp_path):
        # exact inverse then forward reproduces the parameter file verbatim
        decomp_cfg = {
            "n": 3,
            "genus": 2,
            "backend": "exact",
            "decomposition": {"standard_genus": 2},
            "parameters": {
                "boundary": {"0": ["3", "2"], "1": ["1", "5/2"], "2": ["4/3", "1"]},
                "internal": [
                    {"tau:1,1,1": "1/2", "sigma:2,1,0": "-2"},
                    {"tau:1,1,1": "0", "sigma:2,1,0": "7/3"},
                ],
                "gluing": {"0": ["0", "1"], "1": ["2", "0"], "2": ["1/2", "-1"]},
            },
        }
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps(decomp_cfg))
        inv_path = tmp_path / "inv.json"
        assert run_cli([
            "reparam", "--direction", "inverse", "--config", str(cfg_path),
            "--out", str(inv_path),
        ]) == 0
        inv_payload = json.loads(inv_path.read_text())
        forward_cfg = dict(decomp_cfg)
        forward_cfg["parameters"] = inv_payload["parameters"]
        fwd_path = tmp_path / "fwd.json"
        fwd_path.write_text(json.dumps(forward_cfg))
        out_path = tmp_path / "params.json"
        assert run_cli([
            "reparam", "--direction", "forward", "--config", str(fwd_path),
            "--out", str(out_path),
        ]) == 0
        result = json.loads(out_path.read_text())["parameters"]
        assert result["boundary"] == {
            "0": ["3/1", "2/1"], "1": ["1/1", "5/2"], "2": ["4/3", "1/1"],
        }
        assert result["internal"][0]["tau:1,1,1"] == "1/2"
        assert result["internal"][1]["sigma:2,1,0"] == "7/3"

    def test_reparam_exact_default_gluing(self, tmp_path):
        # with no [parameters].gluing the exact backend's gluing is an exact
        # zero, written like the exact invariants beside it, not as "0.0"
        cfg = {
            "n": 3,
            "genus": 2,
            "backend": "exact",
            "decomposition": {"standard_genus": 2},
            "parameters": {
                "boundary": {"0": ["3", "2"], "1": ["1", "5/2"], "2": ["4/3", "1"]},
                "internal": [
                    {"tau:1,1,1": "1/2", "sigma:2,1,0": "-2"},
                    {"tau:1,1,1": "0", "sigma:2,1,0": "7/3"},
                ],
            },
        }
        cfg_path = tmp_path / "p.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "inv.json"
        assert run_cli([
            "reparam", "--direction", "inverse", "--config", str(cfg_path), "--out", str(out),
        ]) == 0
        params = json.loads(out.read_text())["parameters"]
        assert params["gluing"] == {str(c): ["0", "0"] for c in range(3)}
        assert params["invariants"][0]["sigma"]["2,1,0"] == "-2/1"

    def test_reparam_rejects_wall(self, tmp_path):
        cfg = {
            "n": 2,
            "genus": 2,
            "backend": "exact",
            "decomposition": {"standard_genus": 2},
            "parameters": {
                "boundary": {"0": ["0"], "1": ["1"], "2": ["1"]},
                "internal": [{}, {}],
                "gluing": {"0": ["0"], "1": ["0"], "2": ["0"]},
            },
        }
        path = tmp_path / "wall.json"
        path.write_text(json.dumps(cfg))
        assert run_cli(["reparam", "--direction", "inverse", "--config", str(path)]) == 1

    def test_entropy_scan_csv(self, scan_config, tmp_path):
        out = tmp_path / "scan.csv"
        assert run_cli(["entropy-scan", "--config", str(scan_config), "--out", str(out)]) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "step,n,g,K,L,entropy_bound,min_edge_id,flags_ok"
        assert len(lines) == 12

    def test_entropy_scan_deterministic(self, scan_config, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(["entropy-scan", "--config", str(scan_config), "--out", str(out1)])
        run_cli(["entropy-scan", "--config", str(scan_config), "--out", str(out2)])
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("# generated")]
        assert strip(out1) == strip(out2)

    def test_psi_trace(self, surface_config, tmp_path, capsys):
        out = tmp_path / "psi.csv"
        assert run_cli([
            "psi-trace", "--config", str(surface_config), "--word", "abc",
            "--out", str(out),
        ]) == 0
        captured = capsys.readouterr()
        assert "r = 5" in captured.out
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "index,pred,edge,succ,type,t"
        assert len(rows) == 6

    def test_psi_trace_closed_leaf(self, surface_config, tmp_path, capsys):
        assert run_cli([
            "psi-trace", "--config", str(surface_config), "--word", "aa",
            "--out", str(tmp_path / "cl.csv"),
        ]) == 0
        assert "closed-leaf" in capsys.readouterr().out

    def test_psi_trace_conjugate_matches(self, surface_config, tmp_path, capsys):
        run_cli(["psi-trace", "--config", str(surface_config), "--word", "abd",
                 "--out", str(tmp_path / "x.csv")])
        first = capsys.readouterr().out
        run_cli(["psi-trace", "--config", str(surface_config), "--word", "babdB",
                 "--out", str(tmp_path / "y.csv")])
        second = capsys.readouterr().out
        assert first.splitlines()[-1] == second.splitlines()[-1]

    def test_psi_trace_bounds_at_the_run_point(self, tmp_path, capsys):
        # the scan_n3_g2 point moved 5 along +tau(1,1,1), given as boundary +
        # internal + gluing: the bound takes that point's K, 1.02892219218,
        # not the Fuchsian one (r = 5 for abc, 4 for abcD, s = 0)
        gen = tmp_path / "gen.json"
        assert run_cli(["fuchsian-gen", "--config", str(CONFIG_DIR / "scan_n3_g2.json"), "--out", str(gen)]) == 0
        data = json.loads(gen.read_text())
        del data["parameters"]["invariants"]
        for block in data["parameters"]["internal"]:
            block["tau:1,1,1"] += 5
        path = tmp_path / "moved.json"
        path.write_text(json.dumps(data))
        assert run_cli(["kbound", "--config", str(path), "--out", str(tmp_path / "k.csv")]) == 0
        assert "min,K,1.02892219218" in (tmp_path / "k.csv").read_text()
        capsys.readouterr()
        for word, bound in (("abc", "0.467691906"), ("abcD", "0.374153524")):
            argv = ["psi-trace", "--config", str(path), "--word", word, "--out", str(tmp_path / "x.csv")]
            assert run_cli(argv) == 0
            assert capsys.readouterr().out.endswith(f"length bound = {bound}\n")

    def test_psi_trace_non_hyperbolic_word(self, surface_config, tmp_path, capsys):
        argv = ["psi-trace", "--config", str(surface_config), "--word", "aA"]
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 2
        assert "config error: word 'aA' is not hyperbolic" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "backend, value, shown", [("float64", 800, "800"), ("exact", "1e400", "1.00000e+400")]
    )
    def test_kbound_overflow_is_a_relation_failure(self, tmp_path, capsys, backend, value, shown):
        # exp of a coordinate past float64's range names the coordinate and
        # the edge instead of ending in a traceback
        gen = tmp_path / "gen.json"
        assert run_cli(["fuchsian-gen", "--config", str(CONFIG_DIR / "scan_n3_g2.json"), "--out", str(gen)]) == 0
        data = json.loads(gen.read_text())
        data["backend"] = backend
        data["parameters"]["internal"][0]["tau:1,1,1"] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli(["kbound", "--config", str(path), "--out", str(tmp_path / "k.csv")]) == 1
        err = capsys.readouterr().err
        assert err == f"relation failure: exp(tau(1,1,1) = {shown}) overflows float64 on edge ab\n"

    def test_psi_trace_exhausted_depth(self, tmp_path, capsys):
        # a^k b needs a depth cap above k, so it fails at cap 2
        cfg = tmp_path / "shallow.json"
        cfg.write_text(json.dumps({"n": 2, "tracer": {"depth_cap": 2}}))
        argv = ["psi-trace", "--config", str(cfg), "--word", "aaab"]
        assert run_cli(argv + ["--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("relation failure: ")

    def test_fuchsian_gen_round_trips_through_invariants(self, tmp_path):
        gen = tmp_path / "gen.json"
        assert run_cli(["fuchsian-gen", "--config", str(CONFIG_DIR / "scan_n3_g2.json"), "--out", str(gen)]) == 0
        data = json.loads(gen.read_text())
        del data["parameters"]["boundary"]
        del data["parameters"]["internal"]
        cfg2 = tmp_path / "check.json"
        cfg2.write_text(json.dumps(data))
        assert run_cli(["invariants", "--config", str(cfg2)]) == 0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_fuchsian_locus_domain(self, n, tmp_path):
        cfg = {"n": n, "parameters": {"fuchsian": True}}
        # psi-trace takes the Fuchsian K at n = 2, so it runs at every n
        commands = ["fuchsian-gen", "invariants", "psi-trace"]
        if n in (5, 6):
            cfg["scan"] = {"direction": {f"tau:1,1,{n - 2}": 1}, "steps": 3}
            commands += ["kbound", "entropy-scan"]
        path = tmp_path / "fuchsian.json"
        path.write_text(json.dumps(cfg))
        for command in commands:
            out = tmp_path / f"{command}.out"
            argv = [command, "--config", str(path), "--out", str(out)]
            if command == "psi-trace":
                argv += ["--word", "abc"]
            assert run_cli(argv) == 0, command

    def test_selftest_passes(self, capsys):
        assert run_cli(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_selftest_catches_mutant(self, monkeypatch, capsys):
        # deliberate sign flip in the cross-ratio evaluation: the bank must
        # fail and name the broken identity
        from hitchin import invariants as inv_mod

        original = inv_mod.cross_ratio

        def mutant(lines, base):
            value = original(lines, base)
            if isinstance(value, inv_mod.Infinity):
                return value
            return -value

        monkeypatch.setattr(inv_mod, "cross_ratio", mutant)
        assert run_cli(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL cross-ratio swap identity" in out

    def test_selftest_fails_when_no_draw_is_generic(self, monkeypatch, capsys):
        # a fault that makes every random triple degenerate ends the bank's
        # bounded draws with a DegenerateError instead of looping forever
        from hitchin import linalg

        monkeypatch.setattr(linalg, "is_generic_triple", lambda f, g, h: False)
        assert run_cli(["selftest"]) == 1
        out = capsys.readouterr().out
        assert "FAIL triple-ratio cyclic symmetry: no generic flag triple in R^3" in out
        assert "FAIL triple reconstruction round trip: no generic flag triple" in out

    def test_entry_point_installed(self):
        # the child sees the source tree too, so an uninstalled checkout works
        path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
        proc = subprocess.run(
            [sys.executable, "-m", "hitchin.cli", "--version"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
        )
        assert proc.returncode == 0
        assert "hitchin" in proc.stdout


def csv_body(path):
    """A CSV output without its comment header, which names the config."""
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


class TestPointForms:
    """The three ways ``[parameters]`` gives a point: ``fuchsian: true``,
    ``invariants`` + ``gluing`` and ``boundary`` + ``internal`` + ``gluing``."""

    @staticmethod
    def write(tmp_path, name, data):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        return path

    def test_one_point_three_forms_one_output(self, tmp_path):
        base = json.loads((CONFIG_DIR / "scan_n3_g2.json").read_text())
        gen = tmp_path / "gen.json"
        assert run_cli(["fuchsian-gen", "--config", str(CONFIG_DIR / "scan_n3_g2.json"), "--out", str(gen)]) == 0
        params = json.loads(gen.read_text())["parameters"]
        forms = {
            "fuchsian": base,
            "invariants": {**base, "parameters": {k: params[k] for k in ("invariants", "gluing")}},
            "modified": {
                **base,
                "parameters": {k: params[k] for k in ("boundary", "internal", "gluing")},
            },
        }
        for command in ("kbound", "entropy-scan"):
            bodies = set()
            for name, data in forms.items():
                out = tmp_path / f"{name}.{command}.csv"
                argv = [command, "--config", str(self.write(tmp_path, name, data)), "--out", str(out)]
                assert run_cli(argv) == 0, (command, name)
                bodies.add(tuple(csv_body(out)))
            assert len(bodies) == 1, command

    def test_kbound_reads_the_given_invariants(self, tmp_path):
        # the Fuchsian point moved 5 along +tau(1,1,1), given by its invariants
        from hitchin.config import format_scalar, invariants_to_dict
        from hitchin.degeneration import compute_K, shifted_params
        from hitchin.pants import xi_inverse

        base = json.loads((CONFIG_DIR / "scan_n3_g2.json").read_text())
        point = shifted_params(RunConfig.from_dict(base).hitchin_params(), {("tau", (1, 1, 1)): 1}, 5)
        invariants, gluing = xi_inverse(point)
        data = {
            **base,
            "parameters": {
                "invariants": invariants_to_dict(invariants),
                "gluing": {str(c): [format_scalar(v) for v in vals] for c, vals in gluing.items()},
            },
        }
        path = self.write(tmp_path, "moved", data)
        k_val, _ = compute_K(point.decomp, RunConfig.from_dict(data).invariants())
        out = tmp_path / "k.csv"
        assert run_cli(["kbound", "--config", str(path), "--out", str(out)]) == 0
        k_row = next(r for r in csv_body(out) if r.startswith("min,K,"))
        # the CSV carries 12 significant digits; the Fuchsian K is 0.1066
        assert float(k_row.split(",")[2]) == pytest.approx(k_val, rel=1e-11)
        assert k_val == pytest.approx(1.02892219218, rel=1e-11)
        inv_out = tmp_path / "inv.json"
        argv = ["reparam", "--direction", "inverse", "--config", str(path), "--out", str(inv_out)]
        assert run_cli(argv) == 0
        for block in json.loads(inv_out.read_text())["parameters"]["invariants"]:
            assert block["tau"]["1,1,1"] == pytest.approx(5, rel=1e-12)

    def test_invariants_at_genus_3(self, tmp_path):
        # an exact genus-3 point given by its modified coordinates and by the
        # invariants reparam writes for it; no Fuchsian surface is involved
        half = [{"tau:1,1,1": "1/2", "sigma:2,1,0": "0"}, {"tau:1,1,1": "0", "sigma:2,1,0": "7/3"}]
        data = {
            "n": 3,
            "genus": 3,
            "backend": "exact",
            "parameters": {
                "boundary": {str(c): [str(c + 1), "3/2"] for c in range(6)},
                "internal": half + half[::-1],
                "gluing": {str(c): [str(c), "-1/3"] for c in range(6)},
            },
        }
        modified = self.write(tmp_path, "modified", data)
        inv_out = tmp_path / "inv.json"
        argv = ["reparam", "--direction", "inverse", "--config", str(modified), "--out", str(inv_out)]
        assert run_cli(argv) == 0
        data["parameters"] = json.loads(inv_out.read_text())["parameters"]
        given = self.write(tmp_path, "invariants", data)
        bodies = []
        for path in (modified, given):
            out = tmp_path / f"{path.stem}.csv"
            assert run_cli(["kbound", "--config", str(path), "--out", str(out)]) == 0
            bodies.append(csv_body(out))
        assert bodies[0] == bodies[1] and len(bodies[0]) == 1 + 4 * 3 + 2
