"""Command-line behavior: exit codes, determinism, manifests, config files."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab.cli import RunConfig, main, write_csv
from weplab.errors import ConfigError
from weplab.models import TimeGrid, parse_model
from weplab.verifiers import (clt_covariance_convergence, clt_marginal_test, clt_sup_comparison,
                              dg0_upper_check, dyadic_check, feller_sandwich, integral_check,
                              monotone_d_check, prop_d1_d2_check, weight_drift_sampled_check)
from weplab.weights import parse_weight

PINNED_SEED = 20260810


def run_cli(*argv):
    return main(list(argv))


def load_without_timing(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    payload.pop("wall_ms", None)
    return payload


class TestExitCodes:
    def test_all_pass_is_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("verify", "feller", "--out", str(out)) == 0

    def test_check_failure_is_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("verify", "integral", "--weight", "pow:0.5", "--unchecked",
                       "--out", str(out))
        assert code == 1
        payload = load_without_timing(out)
        assert not payload["probes"][0]["pass"]

    def test_unknown_check_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("verify", "not-a-check")
        assert exc.value.code == 2

    def test_missing_model_is_two(self, capsys):
        assert run_cli("simulate") == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [
        ("not_a_key = 1", "not_a_key"),
        ("unchecked = banana", "bad value for --unchecked"),
        ("n = 3000.5", "bad value for --n"),
        ("seed = 1e3", "bad value for --seed"),
    ])
    def test_bad_config_file_is_two(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[run]\n{line}\n")
        assert run_cli("verify", "feller", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json")) == 2
        assert named in capsys.readouterr().err

    def test_clt_sup_needs_a_ks_bound_below_one(self, tmp_path, capsys):
        # the two-sample KS statistic is at most 1, and its bound is below 1
        # only from 4 replications on: with fewer the check could not fail
        argv = ("clt", "sup", "--model", "bm-copula", "--n", "200",
                "--out", str(tmp_path / "r.json"))
        assert run_cli(*argv, "--reps", "3") == 2
        assert "at least 4 replications" in capsys.readouterr().err
        assert run_cli(*argv, "--reps", "4") in (0, 1)

    def test_clt_negative_control_is_one(self, tmp_path):
        code = run_cli("clt", "marginal", "--model", "bm-copula", "--weight", "const:1",
                       "--n", "1", "--reps", "500", "--seed", str(PINNED_SEED),
                       "--out", str(tmp_path / "r.json"))
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ("verify", "envelope", "--model", "bm-copula", "--n", "0"),
        ("verify", "borell", "--n", "0"),
        ("clt", "cov", "--model", "atomic:0.3@0.5", "--reps", "4", "--n-list", "100,200"),
        ("simulate", "--model", "bm-copula", "--n", "0"),
        ("simulate", "--model", "bm-copula", "--level-points", "0"),
        ("simulate", "--model", "bm-copula", "--n", "10", "--clip", "nan"),
        ("simulate", "--model", "bm-copula", "--n", "10", "--clip", "0.5"),
        ("clt", "marginal", "--model", "bm-copula", "--n", "10", "--reps", "500",
         "--y", "nan"),
        ("clt", "marginal", "--model", "bm-copula", "--n", "10", "--reps", "500",
         "--t", "nan"),
        ("verify", "wl", "--model", "bm-copula", "--n", "100", "--theta", "nan"),
        ("verify", "l-cond", "--model", "bm-copula", "--n", "100", "--theta", "nan"),
        ("clt", "cov", "--model", "bm-copula", "--reps", "4", "--n-list", "nan"),
        ("clt", "cov", "--model", "bm-copula", "--reps", "4", "--n-list", ","),
        ("clt", "cov", "--model", "bm-copula", "--reps", "4", "--n-list", "100,100"),
        ("clt", "sup", "--model", "bm-copula", "--n", "10", "--reps", "-3"),
        # a repeated probe time or level
        ("clt", "cov", "--model", "bm-copula", "--reps", "4", "--n-list", "100,200",
         "--times", "1,1"),
        ("clt", "cov", "--model", "bm-copula", "--reps", "4", "--n-list", "100,200",
         "--levels", "0.3,0.3"),
        ("clt", "sup", "--model", "bm-copula", "--n", "200", "--reps", "40",
         "--levels", "0.3,0.3"),
        # a non-finite number in a list, a weight, a model spec or a flag
        ("verify", "integral", "--c-values", "nan"),
        ("verify", "integral", "--c-values", "1,inf"),
        ("verify", "integral", "--weight", "const:nan"),
        ("simulate", "--model", "bm-copula", "--n", "10", "--weight", "const:nan"),
        ("verify", "slowly-varying", "--weight", "pow:0.25:logpow:nan"),
        ("verify", "integral", "--weight", "pow:inf", "--unchecked"),
        ("simulate", "--model", "atomic:0.5@nan", "--n", "10"),
        ("simulate", "--model", "atomic:0.5@inf", "--n", "10"),
        ("clt", "sup", "--model", "bm-copula", "--n", "10", "--reps", "40", "--times", "1,nan"),
        ("verify", "wl", "--model", "bm-copula", "--n", "10", "--b", "inf"),
        # sizes are checked once, also where a command clamps or ignores them
        ("verify", "lemma-m", "--n", "-1", "--time-points", "17"),
        ("verify", "lemma-m", "--n", "500", "--time-points", "17", "--workers", "1"),
        ("verify", "feller", "--n", "0"),
        ("verify", "feller", "--time-points", "1"),
        ("simulate", "--model", "bm-copula", "--n", "10", "--seed", "-1"),
    ])
    def test_bad_input_is_two(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert "weplab: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (("clt", "sup", "--times", "1,1"), "repeated time: 1.0"),
        (("clt", "sup", "--levels", "0.3,0.5,0.3"), "repeated level: 0.3"),
        (("clt", "cov", "--times", "1,2,1", "--levels", "0.3"),
         "repeated cell (t, y): (1.0, 0.3)"),
    ])
    def test_repeated_probe_is_named(self, tmp_path, capsys, argv, named):
        assert run_cli(*argv, "--model", "bm-copula", "--out", str(tmp_path / "out")) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (("simulate", "--model", "bm-copula", "--n", "10", "--workers", "-3"), "--workers"),
        (("clt", "cov", "--model", "bm-copula", "--reps", "0"), "--reps"),
        (("verify", "feller", "--theta", "nan"), "--theta"),
        (("verify", "feller", "--gamma", "inf"), "--gamma"),
    ])
    def test_config_out_of_range_names_the_flag(self, tmp_path, capsys, argv, named):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (("--weight", "pow:0.25", "--gamma", "0.9"), "gamma must lie in (0, 1/2]"),
        (("--weight", "pow:0.6"), "exponent must lie in [0, 1/2)"),
        (("--weight", "pow:abc"), "bad numeric field in weight spec 'pow:abc'"),
    ])
    def test_weight_error_names_the_real_problem(self, tmp_path, capsys, argv, named):
        assert run_cli("verify", "integral", *argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert named in err
        # only a field that is not a number is blamed on the spec's numbers
        assert ("bad numeric field" in err) == ("abc" in argv[1])

    @pytest.mark.parametrize("key,value,named", [
        ("y", float("nan"), "--y must be finite"),
        ("n", 3000.5, "bad value for --n"),
        ("unchecked", "banana", "bad value for --unchecked"),
    ])
    def test_rerun_rejects_a_non_finite_manifest(self, tmp_path, capsys, key, value, named):
        manifest = tmp_path / "m.json"
        assert run_cli("verify", "feller", "--out", str(tmp_path / "r.json"),
                       "--manifest", str(manifest)) == 0
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        payload["config"][key] = value
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("rerun", "--manifest", str(manifest)) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:.*skipped")
    @pytest.mark.parametrize("argv", [
        # theta = 1000 shrinks every time ball of the 36 WL probes to its centre
        ("wl", "--theta", "1000"),
        # on the grid {1.5, 100} no l-cond ball (radius at most 1.1^5) holds a second time
        ("l-cond", "--a", "1.5", "--b", "100", "--time-points", "2", "--t", "1.5"),
    ])
    def test_no_evaluated_probe_is_one(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert run_cli("verify", *argv, "--model", "bm-copula", "--n", "200",
                       "--out", str(out)) == 1
        failed = [p for p in load_without_timing(out)["probes"] if not p["pass"]]
        assert [p["coords"] for p in failed] == [{"stat": "evaluated_probes"}]

    @pytest.mark.filterwarnings("ignore:.*skipped")
    @pytest.mark.parametrize("check", ["lemma-l", "lemma-m"])
    def test_every_window_empty_is_one(self, tmp_path, check):
        # on the grid {1, 1.5, 2} no forward window (t, t + eps], eps <= 0.25, holds a time
        out = tmp_path / "r.json"
        assert run_cli("verify", check, "--time-points", "3", "--n", "1000",
                       "--out", str(out)) == 1
        probes = load_without_timing(out)["probes"]
        skipped = [p for p in probes if "skipped" in p["coords"]]
        assert skipped and all(p["estimate"] is None for p in skipped)
        failed = [p for p in probes if not p["pass"]]
        assert [p["coords"] for p in failed] == [{"stat": "evaluated_probes"}]


class TestSimulate:
    def test_csv_shape_and_closed_form(self, tmp_path):
        out = tmp_path / "field.csv"
        assert run_cli("simulate", "--model", "dependent", "--weight", "const:1",
                       "--n", "1", "--seed", "7", "--time-points", "3",
                       "--level-points", "3", "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[2] == "t,y,nu"
        rows = [line.split(",") for line in lines[3:]]
        assert len(rows) == 9
        # one shared uniform draw: nu is -y below the draw and 1-y above it
        for t, y, nu in rows:
            y, nu = float(y), float(nu)
            assert nu == pytest.approx(-y) or nu == pytest.approx(1.0 - y)

    def test_byte_identical_across_runs_and_workers(self, tmp_path):
        args = ["simulate", "--model", "bm-copula", "--weight", "pow:0.25",
                "--n", "20000", "--seed", "42", "--time-points", "17",
                "--level-points", "9"]
        a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
        assert run_cli(*args, "--workers", "1", "--out", str(a)) == 0
        assert run_cli(*args, "--workers", "1", "--out", str(b)) == 0
        assert run_cli(*args, "--workers", "8", "--out", str(c)) == 0
        assert a.read_bytes() == b.read_bytes() == c.read_bytes()


class TestVerifyReports:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("verify", "borell", "--n", "2000", "--seed", "1",
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"check", "probes", "n", "seed", "wall_ms"}
        for probe in payload["probes"]:
            assert set(probe) == {"coords", "estimate", "stderr", "bound", "c_hat", "pass"}

    def test_only_the_cli_stamps_wall_ms(self, tmp_path):
        assert "wall_ms" not in feller_sandwich().to_json()
        out = tmp_path / "r.json"
        assert run_cli("verify", "dg0-upper", "--model", "bm-copula", "--weight", "pow:0.25",
                       "--n", "2000", "--seed", "1", "--out", str(out)) == 0
        wall_ms = json.loads(out.read_text())["wall_ms"]
        # the command runs a full WL sweep, so its wall time is not 0 ms
        assert isinstance(wall_ms, int) and wall_ms >= 1

    def test_d1_report_carries_no_d2_rows(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli("verify", "d1", "--n", "2000", "--seed", "1", "--out", str(out))
        events = [p["coords"].get("event") for p in json.loads(out.read_text())["probes"]]
        assert "d1" in events
        assert "d2" not in events

    def test_wl_dependent_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("verify", "wl", "--model", "dependent", "--weight", "pow:0.25",
                       "--n", "2000", "--seed", "1", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        stat = [p for p in payload["probes"] if p["coords"].get("stat") == "l_hat_coarse"]
        assert stat[0]["estimate"] == 0.0

    @pytest.mark.parametrize("check,extra", [
        ("dyadic", ("--weight", "pow:0.25")),
        ("slowly-varying", ("--weight", "pow:0.25:expsqrt:1")),
        ("lemma-y", ()),
        ("monotone-d", ("--weight", "pow:0.25")),
        ("weight-drift", ("--weight", "pow:0.25")),
    ])
    def test_cheap_checks_pass(self, tmp_path, check, extra):
        out = tmp_path / "r.json"
        assert run_cli("verify", check, *extra, "--seed", "1", "--out", str(out)) == 0

    def test_report_bytes_deterministic_across_workers(self, tmp_path):
        outs = []
        for workers in ("1", "8", "1"):
            out = tmp_path / f"r{len(outs)}.json"
            assert run_cli("verify", "borell", "--n", "20000", "--seed", "5",
                           "--workers", workers, "--out", str(out)) == 0
            outs.append(load_without_timing(out))
        assert outs[0] == outs[1] == outs[2]


# the arguments of tests/test_digests.py, as flags and as library arguments
DIGEST_FLAGS = ("--n", "2000", "--seed", "5", "--time-points", "17", "--workers", "1")
DIGEST_SAMPLING = {"n": 2000, "seed": 5, "grid": TimeGrid.uniform(1.0, 2.0, 17), "workers": 1}
BM, W_QUARTER = parse_model("bm-copula"), parse_weight("pow:0.25")
MODEL_WEIGHT = ("--model", "bm-copula", "--weight", "pow:0.25")

LIBRARY_CALLS = {
    "integral": (("--weight", "pow:0.25"),
                 lambda: integral_check(W_QUARTER, [0.25, 1.0, 4.0], seed=5)),
    "dyadic": (("--weight", "pow:0.25"), lambda: dyadic_check(W_QUARTER, seed=5)),
    "monotone-d": (("--weight", "pow:0.25"), lambda: monotone_d_check(W_QUARTER, seed=5)),
    "weight-drift": (("--weight", "pow:0.25"),
                     lambda: weight_drift_sampled_check(W_QUARTER, seed=5)),
    "dg0-upper": (MODEL_WEIGHT, lambda: dg0_upper_check(BM, W_QUARTER, 5.0, **DIGEST_SAMPLING)),
    "d1": ((), lambda: prop_d1_d2_check(events=("d1",), **DIGEST_SAMPLING)),
    "d2": ((), lambda: prop_d1_d2_check(events=("d2",), **DIGEST_SAMPLING)),
}

# the clt arguments of tests/test_digests.py; each harness returns (report, columns)
SUP_TIMES, SUP_LEVELS = "1,1.25,1.5,1.75,2", "0.1,0.5,0.9"
COV_CELLS = [(t, y) for t in (1.0, 1.25, 1.5, 2.0) for y in (0.2, 0.4, 0.5, 0.8)]
CLT_CALLS = {
    "clt-marginal": (("marginal", "--seed", "5", "--t", "1.5", "--y", "0.3", "--n", "200",
                      "--reps", "500"),
                     lambda: clt_marginal_test(BM, W_QUARTER, 1.5, 0.3, 200, 500, 5)),
    "clt-cov": (("cov", "--seed", "5", "--reps", "4", "--n-list", "100,500"),
                lambda: clt_covariance_convergence(BM, W_QUARTER, COV_CELLS, [100, 500], 4, 5)),
    "clt-sup": (("sup", "--seed", "3", "--times", SUP_TIMES, "--levels", SUP_LEVELS,
                 "--n", "300", "--reps", "60"),
                lambda: clt_sup_comparison(BM, W_QUARTER, [1.0, 1.25, 1.5, 1.75, 2.0],
                                           [0.1, 0.5, 0.9], 300, 60, 3)),
}


class TestLibraryChecks:
    @pytest.mark.filterwarnings("ignore:.*skipped")
    @pytest.mark.parametrize("check", sorted(LIBRARY_CALLS) + sorted(CLT_CALLS))
    def test_library_call_equals_cli_report(self, tmp_path, check):
        out, csv, library_csv = tmp_path / "r.json", tmp_path / "r.csv", tmp_path / "lib.csv"
        if check in CLT_CALLS:
            args, call = CLT_CALLS[check]
            code = run_cli("clt", *args, *MODEL_WEIGHT, "--workers", "1", "--out", str(out),
                           "--csv", str(csv))
            report, columns = call()
            write_csv(columns, str(library_csv))
            assert library_csv.read_bytes() == csv.read_bytes()
        else:
            flags, call = LIBRARY_CALLS[check]
            code = run_cli("verify", check, *flags, *DIGEST_FLAGS, "--out", str(out))
            report = call()
        assert report.to_json() == load_without_timing(out)
        assert code == (0 if report.passed else 1)

    @pytest.mark.filterwarnings("ignore:.*skipped")
    @pytest.mark.parametrize("check", ["chaining-ab", "dg0-upper", "wl"])
    def test_wl_sweep_that_evaluates_nothing_fails(self, tmp_path, check):
        # on 5 points (spacing 1/4) every WL and chaining time ball is one grid point;
        # wl's refined 9-point sweep evaluates probes, but l_hat reads only the coarse one
        out = tmp_path / "r.json"
        assert run_cli("verify", check, *MODEL_WEIGHT, "--n", "1000", "--time-points", "5",
                       "--out", str(out)) == 1
        probes = load_without_timing(out)["probes"]
        assert {"stat": "evaluated_probes"} in [p["coords"] for p in probes if not p["pass"]]
        if check == "chaining-ab":
            skipped = [p["coords"]["skipped"] for p in probes if "skipped" in p["coords"]]
            assert skipped == ["singleton time ball"] * 2


class TestManifests:
    def test_round_trip_reproduces_report(self, tmp_path):
        out = tmp_path / "report.json"
        manifest = tmp_path / "manifest.json"
        assert run_cli("verify", "borell", "--n", "5000", "--seed", "3",
                       "--out", str(out), "--manifest", str(manifest)) == 0
        first = load_without_timing(out)
        assert run_cli("rerun", "--manifest", str(manifest)) == 0
        assert load_without_timing(out) == first

    def test_manifest_echoes_config(self, tmp_path):
        manifest = tmp_path / "m.json"
        assert run_cli("verify", "feller", "--seed", "9",
                       "--out", str(tmp_path / "r.json"), "--manifest", str(manifest)) == 0
        payload = json.loads(manifest.read_text())
        assert payload["artifact"] == "weplab"
        assert payload["command"] == "verify"
        assert payload["subcommand"] == "feller"
        assert payload["config"]["seed"] == 9

    @pytest.mark.parametrize("key", ["command", "subcommand"])
    def test_unknown_name_in_manifest_is_two(self, tmp_path, capsys, key):
        manifest = tmp_path / "m.json"
        assert run_cli("verify", "feller", "--out", str(tmp_path / "r.json"),
                       "--manifest", str(manifest)) == 0
        payload = json.loads(manifest.read_text())
        payload[key] = "not-a-name"
        manifest.write_text(json.dumps(payload))
        assert run_cli("rerun", "--manifest", str(manifest)) == 2
        assert "not-a-name" in capsys.readouterr().err

    def test_simulate_manifest_round_trip(self, tmp_path):
        out = tmp_path / "f.csv"
        manifest = tmp_path / "m.json"
        args = ["simulate", "--model", "iid-time", "--n", "500", "--seed", "11",
                "--time-points", "5", "--level-points", "3",
                "--out", str(out), "--manifest", str(manifest)]
        assert run_cli(*args) == 0
        first = out.read_bytes()
        assert run_cli("rerun", "--manifest", str(manifest)) == 0
        assert out.read_bytes() == first


class TestWorkerEnvVar:
    def test_default_worker_count_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEPLAB_WORKERS", "8")
        env_out = tmp_path / "env.csv"
        flag_out = tmp_path / "flag.csv"
        args = ["simulate", "--model", "bm-copula", "--n", "10000", "--seed", "3",
                "--time-points", "9", "--level-points", "5"]
        assert run_cli(*args, "--out", str(env_out)) == 0
        monkeypatch.delenv("WEPLAB_WORKERS")
        assert run_cli(*args, "--workers", "1", "--out", str(flag_out)) == 0
        assert env_out.read_bytes() == flag_out.read_bytes()

    @pytest.mark.parametrize("raw,code", [("abc", 2), ("0", 2), ("-3", 2), ("1.5", 2),
                                          ("2", 0)])
    def test_environment_worker_count_is_checked(self, tmp_path, monkeypatch, capsys, raw,
                                                 code):
        # feller never resolves its workers: the configuration checks the variable
        monkeypatch.setenv("WEPLAB_WORKERS", raw)
        assert run_cli("verify", "feller", "--out", str(tmp_path / "r.json")) == code
        assert ("WEPLAB_WORKERS" in capsys.readouterr().err) == (code == 2)

    def test_worker_flag_wins_over_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEPLAB_WORKERS", "abc")
        assert run_cli("verify", "feller", "--workers", "1",
                       "--out", str(tmp_path / "r.json")) == 0


class TestConfigFile:
    def test_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\nmodel = dependent\nseed = 1\nn = 100\n")
        out = tmp_path / "f.csv"
        assert run_cli("simulate", "--config", str(cfg), "--n", "7",
                       "--time-points", "3", "--level-points", "3",
                       "--out", str(out)) == 0
        header = out.read_text().split("\n")[1]
        assert "n=7" in header and "model=dependent" in header


CONFIG_FIELDS = dataclasses.fields(RunConfig)
DECLARED = {"int": int, "float": float, "bool": bool, "str": str}


class TestConfigSpace:
    @given(st.dictionaries(st.sampled_from([f.name for f in CONFIG_FIELDS]),
                           st.one_of(st.integers(), st.floats(), st.text(), st.booleans(),
                                     st.none()), max_size=3))
    @settings(max_examples=300)
    def test_every_value_is_typed_or_a_config_error(self, values):
        # the values a flag, a config file or a replayed manifest can hand over
        try:
            cfg = RunConfig(**values)
        except ConfigError:
            return
        for f in CONFIG_FIELDS:
            value = getattr(cfg, f.name)
            optional = f.type.startswith("Optional[")
            declared = DECLARED[f.type.removeprefix("Optional[").removesuffix("]")]
            assert (optional and value is None) or type(value) is declared, (f.name, value)


class TestCltCommand:
    def test_marginal_with_csv(self, tmp_path):
        out = tmp_path / "r.json"
        csv = tmp_path / "reps.csv"
        code = run_cli("clt", "marginal", "--model", "bm-copula", "--weight", "const:1",
                       "--n", "2000", "--reps", "500", "--seed", str(PINNED_SEED),
                       "--t", "1.5", "--y", "0.3", "--out", str(out), "--csv", str(csv))
        assert code == 0
        lines = csv.read_text().strip().split("\n")
        assert lines[1] == "rep,nu"
        assert len(lines) == 2 + 500

    def test_cov_comonotone(self, tmp_path):
        code = run_cli("clt", "cov", "--model", "dependent", "--weight", "const:1",
                       "--times", "1.5", "--levels", "0.2,0.4", "--n-list", "200,2000",
                       "--reps", "50", "--seed", str(PINNED_SEED),
                       "--out", str(tmp_path / "r.json"))
        assert code == 0


class TestEntryPoint:
    def test_module_invocation(self):
        # the checkout's package, whether or not it is installed
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "weplab.cli", "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "weplab" in proc.stdout
