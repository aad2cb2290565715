"""Command-line behavior: exit codes, determinism, manifests, config files."""

import argparse
import contextlib
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab.cli import CHECKS, CLT, RunConfig, build_parser, main, resolve_config, write_csv
from weplab.clt import clt_covariance_convergence, clt_marginal_test, clt_sup_comparison
from weplab.errors import ConfigError
from weplab.models import TimeGrid, parse_model
from weplab.verifiers import envelope_check, integral_check, l_condition_estimate, wl_estimate
from weplab.weights import parse_weight

PINNED_SEED = 20260810

# checks that no (X, w) could fail, now tests: those that read no process and no
# weight (the normal-law facts are mpmath oracle tests of weplab.numerics, the
# Brownian lemmas tests of the sampler in test_proof_lemmas.py, the two weight-metric
# facts hypothesis tests in test_limits.py), the weight family's dyadic sums and slow
# variation, which every weight that parses has (test_weights.py), and the chaining
# and d_G0 bounds, which read their constant from the same sample
# (test_proof_lemmas.py)
REMOVED_CHECKS = ("feller", "lemma-y", "borell", "lemma-m", "lemma-l", "d1", "d2",
                  "monotone-d", "weight-drift", "dyadic", "slowly-varying", "chaining-ab",
                  "dg0-upper")


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
        assert run_cli("verify", "integral", "--out", str(out)) == 0

    def test_check_failure_is_one(self, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("verify", "integral", "--weight", "pow:0.5", "--unchecked",
                       "--out", str(out))
        assert code == 1
        payload = load_without_timing(out)
        assert not payload["probes"][0]["pass"]

    def test_unknown_check_is_two(self, capsys):
        for check in ("not-a-check", *REMOVED_CHECKS):
            assert run_cli("verify", check) == 2
            assert "invalid choice" in capsys.readouterr().err
        # whatever the weight: this one's window, gamma 1.7e-16, holds nothing to sample
        assert run_cli("verify", "monotone-d", "--weight", "pow:0.25:expsqrt:3") == 2
        assert capsys.readouterr().err.startswith("weplab: error: ")

    def test_missing_model_is_two(self, capsys):
        assert run_cli("simulate") == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("line,named", [
        ("not_a_key = 1", "not_a_key"),
        ("unchecked = banana", "bad value for --unchecked"),
        ("n = 3000.5", "bad value for --n"),
        ("seed = 1e3", "bad value for --seed"),
        # values are literal: the weight is the text %(n)s, not n's value
        ("weight = const:1%", "'const:1%'"),
        ("n = 5\nweight = %(n)s", "'%(n)s'"),
        # [DEFAULT] is a section like any other
        ("n = 100\n[DEFAULT]\nn = 200", "duplicate config key 'n'"),
    ])
    def test_bad_config_file_is_two(self, tmp_path, capsys, line, named):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[run]\n{line}\n")
        assert run_cli("verify", "integral", "--config", str(cfg),
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
        ("verify", "l-cond", "--model", "bm-copula", "--n", "0"),
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
        ("verify", "integral", "--weight", "pow:0.25:logpow:nan"),
        ("verify", "integral", "--weight", "pow:inf", "--unchecked"),
        ("simulate", "--model", "atomic:0.5@nan", "--n", "10"),
        ("simulate", "--model", "atomic:0.5@inf", "--n", "10"),
        ("clt", "sup", "--model", "bm-copula", "--n", "10", "--reps", "40", "--times", "1,nan"),
        ("verify", "wl", "--model", "bm-copula", "--n", "10", "--b", "inf"),
        # sizes are checked once, also where a command clamps or ignores them
        ("verify", "integral", "--weight", "pow:0.25", "--n", "-1", "--time-points", "17"),
        ("verify", "integral", "--n", "0"),
        ("verify", "integral", "--time-points", "1"),
        ("simulate", "--model", "bm-copula", "--n", "10", "--seed", "-1"),
        # every option is parsed with the configuration, also where the command ignores it
        *[("verify", "l-cond", "--model", "bm-copula", "--n", "100", "--time-points", "5",
           flag, value)
          for flag, value in [("--weight", "const:nan"), ("--weight", "garbage"),
                              ("--model", "atomic:0.5@nan"), ("--times", "1,nan"),
                              ("--n-list", "10,x"), ("--c-values", "1,inf")]],
        ("verify", "integral", "--a", "3", "--b", "2"),
        ("verify", "integral", "--weight", "pow:0.25", "--times", "1,nan"),
        # an expsqrt coefficient whose square overflows
        ("verify", "l-cond", "--model", "bm-copula", "--n", "10", "--time-points", "3",
         "--weight", "pow:0.1:expsqrt:1e200"),
        # a weight whose x w(x)^2 overflows on its window
        ("verify", "l-cond", "--model", "bm-copula", "--n", "10", "--time-points", "3",
         "--weight", "const:1e200"),
        # w > 0 also when unchecked: a constant factor of 0 or below
        ("verify", "integral", "--weight", "const:0", "--unchecked"),
        ("verify", "integral", "--weight", "const:-1", "--unchecked"),
        ("clt", "sup", "--model", "bm-copula", "--weight", "const:0", "--unchecked",
         "--n", "10", "--reps", "40"),
        ("clt", "marginal", "--model", "bm-copula", "--n", "10", "--reps", "500",
         "--levels", "abc"),
    ])
    def test_bad_input_is_two(self, tmp_path, capsys, argv):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert "weplab: error:" in capsys.readouterr().err

    def test_envelope_runs_below_a_thousand_paths(self, tmp_path):
        # no row of the envelope report needs a minimum sample size
        assert run_cli("verify", "envelope", "--model", "bm-copula", "--weight", "pow:0.25",
                       "--n", "500", "--time-points", "17", "--workers", "1",
                       "--out", str(tmp_path / "r.json")) == 0

    @pytest.mark.parametrize("argv,named", [
        (("clt", "sup", "--times", "1,1"), "repeated time: 1.0"),
        (("clt", "sup", "--levels", "0.3,0.5,0.3"), "repeated level: 0.3"),
        (("clt", "cov", "--times", "1,2,1", "--levels", "0.3"),
         "repeated cell (t, y): (1.0, 0.3)"),
    ])
    def test_repeated_probe_is_named(self, tmp_path, capsys, argv, named):
        assert run_cli(*argv, "--model", "bm-copula", "--out", str(tmp_path / "out")) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("cov", "--n-list", "10", "--reps", "1"),
                                      ("sup", "--n", "10", "--reps", "40")])
    def test_bad_level_is_named(self, tmp_path, capsys, argv):
        # the weight of a level outside (0, 1) fails too, but must not be blamed
        assert run_cli("clt", *argv, "--model", "bm-copula", "--times", "1.5", "--levels", "1.5",
                       "--out", str(tmp_path / "out")) == 2
        assert "levels must lie strictly inside (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (("simulate", "--model", "bm-copula", "--n", "10", "--workers", "-3"), "--workers"),
        (("clt", "cov", "--model", "bm-copula", "--reps", "0"), "--reps"),
        (("verify", "integral", "--theta", "nan"), "--theta"),
        (("verify", "integral", "--gamma", "inf"), "--gamma"),
        # flags are parsed by RunConfig, as config files and manifests are
        (("verify", "wl", "--n", "3000.5"), "weplab: error: bad value for --n"),
        # from 2^-54 down, the top level 1 - clip rounds to 1
        (("simulate", "--model", "bm-copula", "--n", "10", "--clip", "1e-17"),
         "weplab: error: --clip 1e-17 is too small: 1 - clip rounds to 1"),
        # 4 times from 1 to 2 leave out the probe time 1.5, which the user did not give
        *[(("verify", check, "--model", "bm-copula", "--time-points", "4"),
           f"weplab: error: {source}: time 1.5 is not on the grid of 4 times from 1.0 to 2.0")
          for check, source in [("wl", "wl's built-in probes"), ("l-cond", "--t")]],
    ])
    def test_config_out_of_range_names_the_flag(self, tmp_path, capsys, argv, named):
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("argv,named", [
        (("--weight", "pow:0.25", "--gamma", "0.9"), "gamma must lie in (0, 1/2]"),
        (("--weight", "pow:0.6"), "exponent must lie in [0, 1/2)"),
        (("--weight", "pow:abc"), "bad numeric field in weight spec 'pow:abc'"),
        # a window whose validation grid would start below the normal floats
        (("--weight", "pow:0.25", "--gamma", "1e-310"), "gamma 1e-310 is too small"),
        # automatic windows below the smallest double, exp(-999) and exp(-22500)
        (("--weight", "pow:0.49:logpow:10"), "monotonicity window underflows"),
        (("--weight", "pow:0.4:expsqrt:30"), "monotonicity window underflows"),
    ])
    def test_weight_error_names_the_real_problem(self, tmp_path, capsys, argv, named):
        assert run_cli("verify", "integral", *argv, "--out", str(tmp_path / "out")) == 2
        err = capsys.readouterr().err
        assert named in err
        # only a field that is not a number is blamed on the spec's numbers
        assert ("bad numeric field" in err) == ("abc" in argv[1])

    @pytest.mark.parametrize("argv,warned", [
        (("--weight", "pow:0.6"), "x*w^2 non-decreasing"),
        (("--weight", "pow:0.5"), None),
        # a window whose validation grid would start below the normal floats
        (("--weight", "pow:0.6", "--gamma", "1e-310"), None),
    ])
    def test_unchecked_weight_warns_of_its_first_violation(self, tmp_path, argv, warned):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("verify", "integral", *argv, "--unchecked",
                           "--out", str(tmp_path / "out")) in (0, 1)
        messages = [str(w.message) for w in caught]
        if warned is None:
            assert messages == []
        else:
            assert len(messages) == 1 and messages[0].startswith(
                "unchecked weight violates the monotonicity window")
            assert warned in messages[0]

    @pytest.mark.parametrize("key,value,named", [
        ("y", float("nan"), "--y must be finite"),
        ("n", 3000.5, "bad value for --n"),
        ("unchecked", "banana", "bad value for --unchecked"),
    ])
    def test_rerun_rejects_a_non_finite_manifest(self, tmp_path, capsys, key, value, named):
        manifest = tmp_path / "m.json"
        assert run_cli("verify", "integral", "--out", str(tmp_path / "r.json"),
                       "--manifest", str(manifest)) == 0
        payload = json.loads(manifest.read_text(encoding="utf-8"))
        payload["config"][key] = value
        manifest.write_text(json.dumps(payload), encoding="utf-8")
        assert run_cli("rerun", "--manifest", str(manifest)) == 2
        assert named in capsys.readouterr().err

    # some input fails each gate: the integral diverges for a weight at or beyond the
    # theorem's exponent 1/2, and lambda^2 P(sup_t w(X_t) > lambda) grows in lambda for a weight
    # beyond it, or on 129 independent times, whose sup w(X_t) exceeds 5 with
    # probability 0.999 under pow:0.45; const:1 (w = 1, the case of Kuelbs, Kurtz and
    # Zinn) and pow:0.25 pass the same check on the same process
    @pytest.mark.filterwarnings("ignore:unchecked weight violates")
    @pytest.mark.parametrize("check,model,weight,code", [
        *[("integral", None, weight, 0)
          for weight in ("const:1", "pow:0.25", "pow:0.499", "pow:0.49:logpow:1")],
        *[("integral", None, f"{weight} --unchecked", 1) for weight in ("pow:0.5", "pow:0.7")],
        *[("envelope", model, weight, 0)
          for model in ("bm-copula", "iid-time") for weight in ("const:1", "pow:0.25")],
        ("envelope", "bm-copula", "pow:0.7 --unchecked", 1),
        ("envelope", "iid-time", "pow:0.45", 1),
    ])
    def test_negative_and_positive_controls(self, tmp_path, check, model, weight, code):
        sampled = () if model is None else ("--model", model, "--n", "2000")
        assert run_cli("verify", check, *sampled, "--weight", *weight.split(), "--seed", "0",
                       "--workers", "1", "--out", str(tmp_path / "r.json")) == code

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
        assert run_cli("verify", "l-cond", "--model", "bm-copula", "--n", "2000", "--seed", "1",
                       "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"check", "probes", "n", "seed", "wall_ms"}
        for probe in payload["probes"]:
            assert set(probe) == {"coords", "estimate", "stderr", "bound", "c_hat", "pass"}

    def test_only_the_cli_stamps_wall_ms(self, tmp_path):
        assert "wall_ms" not in wl_estimate(BM, W_QUARTER, 5.0, n=2000, seed=1).to_json()
        out = tmp_path / "r.json"
        assert run_cli("verify", "wl", "--model", "bm-copula", "--weight", "pow:0.25",
                       "--n", "2000", "--seed", "1", "--out", str(out)) == 0
        wall_ms = json.loads(out.read_text())["wall_ms"]
        # the command runs a full WL sweep, so its wall time is not 0 ms
        assert isinstance(wall_ms, int) and wall_ms >= 1

    def test_wl_dependent_zero(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("verify", "wl", "--model", "dependent", "--weight", "pow:0.25",
                       "--n", "2000", "--seed", "1", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        stat = [p for p in payload["probes"] if p["coords"].get("stat") == "l_hat_coarse"]
        assert stat[0]["estimate"] == 0.0

    def test_report_bytes_deterministic_across_workers(self, tmp_path):
        outs = []
        for workers in ("1", "8", "1"):
            out = tmp_path / f"r{len(outs)}.json"
            assert run_cli("verify", "l-cond", "--model", "bm-copula", "--n", "20000",
                           "--seed", "5", "--workers", workers, "--out", str(out)) == 0
            outs.append(load_without_timing(out))
        assert outs[0] == outs[1] == outs[2]


# the arguments of tests/test_digests.py, as flags and as library arguments
DIGEST_FLAGS = ("--n", "2000", "--seed", "5", "--time-points", "17", "--workers", "1")
DIGEST_SAMPLING = {"n": 2000, "seed": 5, "grid": TimeGrid.uniform(1.0, 2.0, 17), "workers": 1}
BM, W_QUARTER = parse_model("bm-copula"), parse_weight("pow:0.25")
MODEL_WEIGHT = ("--model", "bm-copula", "--weight", "pow:0.25")

# every verify check: its CLI flags and the library call that gives the same report
LIBRARY_CALLS = {
    "wl": (MODEL_WEIGHT, lambda: wl_estimate(BM, W_QUARTER, 5.0, **DIGEST_SAMPLING)),
    "l-cond": (("--model", "bm-copula"),
               lambda: l_condition_estimate(BM, 5.0, [(1.5, e) for e in (0.55, 0.7, 1.1)],
                                            **DIGEST_SAMPLING)),
    "envelope": (MODEL_WEIGHT, lambda: envelope_check(BM, W_QUARTER, **DIGEST_SAMPLING)),
    "integral": (("--weight", "pow:0.25"),
                 lambda: integral_check(W_QUARTER, [0.25, 1.0, 4.0], seed=5)),
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
    def test_every_check_has_a_library_call(self):
        assert set(LIBRARY_CALLS) == set(CHECKS)

    def test_readme_lists_every_check(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        names = re.findall(r"`([^`]+)`", readme.split("\nChecks: ", 1)[1].split(". Each", 1)[0])
        assert len(names) == len(set(names)) == len(CHECKS) == 4
        assert set(names) == set(CHECKS)

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

    @pytest.mark.parametrize("check", sorted(CHECKS))
    def test_every_check_reads_the_model_or_the_weight(self, tmp_path, capsys, check):
        # a check that reads neither could not be failed by any (X, w)
        reports = []
        for weight in ("pow:0.25", "pow:0.25:logpow:1"):
            out = tmp_path / f"{weight}.json"
            code = run_cli("verify", check, "--weight", weight, "--n", "1000",
                           "--time-points", "17", "--workers", "1", "--out", str(out))
            if code == 2:
                assert "--model is required" in capsys.readouterr().err
                return
            reports.append(load_without_timing(out))
        assert reports[0] != reports[1]

    @pytest.mark.filterwarnings("ignore:.*skipped")
    def test_wl_sweep_that_evaluates_nothing_fails(self, tmp_path):
        # on 5 points (spacing 1/4) every WL time ball is one grid point; wl's
        # refined 9-point sweep evaluates probes, but l_hat reads only the coarse one
        out = tmp_path / "r.json"
        assert run_cli("verify", "wl", *MODEL_WEIGHT, "--n", "1000", "--time-points", "5",
                       "--out", str(out)) == 1
        probes = load_without_timing(out)["probes"]
        assert {"stat": "evaluated_probes"} in [p["coords"] for p in probes if not p["pass"]]
        # wl evaluates 12 of its 36 fine probes
        skipped = [p["coords"]["skipped"] for p in probes if "skipped" in p["coords"]]
        assert skipped == ["singleton time ball"] * (36 + 24)


class TestManifests:
    def test_round_trip_reproduces_report(self, tmp_path):
        out = tmp_path / "report.json"
        manifest = tmp_path / "manifest.json"
        assert run_cli("verify", "l-cond", "--model", "bm-copula", "--n", "5000", "--seed", "3",
                       "--out", str(out), "--manifest", str(manifest)) == 0
        first = load_without_timing(out)
        assert run_cli("rerun", "--manifest", str(manifest)) == 0
        assert load_without_timing(out) == first

    def test_manifest_echoes_config(self, tmp_path):
        manifest = tmp_path / "m.json"
        assert run_cli("verify", "integral", "--seed", "9",
                       "--out", str(tmp_path / "r.json"), "--manifest", str(manifest)) == 0
        payload = json.loads(manifest.read_text())
        assert payload["artifact"] == "weplab"
        assert payload["command"] == "verify"
        assert payload["subcommand"] == "integral"
        assert payload["config"]["seed"] == 9

    @pytest.mark.parametrize("key,name", [("command", "not-a-name"), ("subcommand", "not-a-name"),
                                          *[("subcommand", c) for c in REMOVED_CHECKS]])
    def test_unknown_name_in_manifest_is_two(self, tmp_path, capsys, key, name):
        manifest = tmp_path / "m.json"
        assert run_cli("verify", "integral", "--out", str(tmp_path / "r.json"),
                       "--manifest", str(manifest)) == 0
        payload = json.loads(manifest.read_text())
        payload[key] = name
        manifest.write_text(json.dumps(payload))
        assert run_cli("rerun", "--manifest", str(manifest)) == 2
        assert repr(name) in capsys.readouterr().err

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
        # integral never reads its workers: the configuration checks the variable
        monkeypatch.setenv("WEPLAB_WORKERS", raw)
        assert run_cli("verify", "integral", "--out", str(tmp_path / "r.json")) == code
        assert ("WEPLAB_WORKERS" in capsys.readouterr().err) == (code == 2)

    def test_worker_flag_wins_over_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WEPLAB_WORKERS", "abc")
        assert run_cli("verify", "integral", "--workers", "1",
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

    @pytest.mark.parametrize("text,expected", [
        ("[DEFAULT]\nn = 123\n", {"n": 123}),
        ("[DEFAULT]\nseed = 3\n[sampling]\nn = 100\n[grid]\ntime-points = 9\n",
         {"seed": 3, "n": 100, "time_points": 9}),
    ])
    def test_default_is_a_section_like_any_other(self, tmp_path, text, expected):
        cfg, manifest = tmp_path / "cfg.ini", tmp_path / "m.json"
        cfg.write_text(text)
        assert run_cli("verify", "integral", "--config", str(cfg), "--out",
                       str(tmp_path / "r.json"), "--manifest", str(manifest)) == 0
        config = json.loads(manifest.read_text())["config"]
        assert {k: config[k] for k in expected} == expected


def _shared_flag_actions(command):
    """The actions of one subcommand's parser, by destination."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


# one valid, non-default value per RunConfig field, as typed
FIELD_TEXT = {"model": "iid-time", "weight": "pow:0.25", "gamma": "0.2", "unchecked": "true",
              "a": "1.5", "b": "3", "time_points": "17", "level_points": "9", "clip": "0.01",
              "theta": "6.5", "n": "500", "reps": "40", "seed": "7", "workers": "1",
              "t": "1.25", "y": "0.4", "n_list": "100,200", "times": "1,2", "levels": "0.3",
              "c_values": "1,2"}


class TestGeneratedFlags:
    @pytest.mark.parametrize("command", ["simulate", "verify", "clt"])
    def test_every_field_has_one_flag_with_help(self, command):
        actions = _shared_flag_actions(command)
        for f in dataclasses.fields(RunConfig):
            action = actions[f.name]
            assert action.option_strings == [f"--{f.name.replace('_', '-')}"]
            # RunConfig parses every value: argparse hands over text (or True)
            assert action.type is None and action.help
        written_by_hand = set(actions) - {f.name for f in dataclasses.fields(RunConfig)}
        assert written_by_hand <= {"help", "config", "out", "csv", "manifest", "check", "mode"}

    def test_flag_config_file_and_manifest_agree(self, tmp_path):
        assert set(FIELD_TEXT) == {f.name for f in dataclasses.fields(RunConfig)}
        flags = [arg for name, text in FIELD_TEXT.items() if name != "unchecked"
                 for arg in (f"--{name.replace('_', '-')}", text)]
        typed = resolve_config(build_parser().parse_args(["simulate", *flags, "--unchecked"]))
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[run]\n" + "".join(f"{k} = {v}\n" for k, v in FIELD_TEXT.items()))
        from_file = resolve_config(build_parser().parse_args(["simulate", "--config", str(cfg)]))
        manifest = tmp_path / "m.json"
        assert run_cli("verify", "integral", "--config", str(cfg),
                       "--out", str(tmp_path / "r.json"), "--manifest", str(manifest)) == 0
        replayed = RunConfig(**json.loads(manifest.read_text())["config"])
        assert typed == from_file == replayed
        # and so are the library inputs built from the text
        for built in (typed, from_file, replayed):
            assert built.parsed_weight == parse_weight("pow:0.25", gamma=0.2, unchecked=True)
            assert built.parsed_model == parse_model("iid-time")
            assert np.array_equal(built.time_grid.points, TimeGrid.uniform(1.5, 3, 17).points)
            assert (built.time_list, built.level_list, built.c_list, built.size_list) == (
                [1.0, 2.0], [0.3], [1.0, 2.0], [100, 200])
            assert all(type(size) is int for size in built.size_list)
        defaults = RunConfig()
        assert all(getattr(typed, name) != getattr(defaults, name) for name in FIELD_TEXT)


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


# in-range values of every RunConfig option, at tiny sizes (clt marginal draws its
# own reps); "true" for unchecked is the bare flag
IN_RANGE = {
    "model": st.sampled_from(["bm-copula", "dependent", "iid-time", "atomic:0.5@0.5"]),
    "weight": st.sampled_from(["const:1", "pow:0.25", "pow:0.3:logpow:1", "pow:0.2:expsqrt:0.5"]),
    "gamma": st.sampled_from(["0.1", "0.2"]),
    "unchecked": st.sampled_from(["true", "false"]),
    "a": st.sampled_from(["1", "1.5"]),
    "b": st.sampled_from(["2", "3"]),
    "time_points": st.integers(2, 9).map(str),
    "level_points": st.integers(1, 9).map(str),
    "clip": st.sampled_from(["0.001", "0.1", "0.3"]),
    "theta": st.sampled_from(["5", "6.5"]),
    "n": st.integers(1, 200).map(str),
    "reps": st.integers(4, 40).map(str),
    "seed": st.integers(0, 2 ** 32).map(str),
    # every worker is a thread: never more than two
    "workers": st.sampled_from(["1", "2"]),
    "t": st.sampled_from(["1", "1.5", "2"]),
    "y": st.sampled_from(["0.1", "0.3", "0.5"]),
    "n_list": st.sampled_from(["50,100", "100,200"]),
    "times": st.sampled_from(["1,1.5", "1,1.25,1.5,2"]),
    "levels": st.sampled_from(["0.3", "0.2,0.5"]),
    "c_values": st.sampled_from(["1", "0.25,1,4"]),
}
OUT_OF_RANGE = st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "-inf", "abc", "1%", "%(n)s"])
COMMANDS = ([("simulate",)] + [("clt", mode) for mode in sorted(CLT)]
            + [("verify", check) for check in sorted(CHECKS)])


@st.composite
def whole_commands(draw):
    """argv and config-file lines: every option in range but at most two, each
    typed as a flag or read from the config file."""
    command = draw(st.sampled_from(COMMANDS))
    values = {name: draw(strategy) for name, strategy in IN_RANGE.items()}
    if command == ("clt", "marginal"):
        values["reps"] = str(draw(st.integers(500, 600)))
    values.update(draw(st.dictionaries(st.sampled_from(sorted(IN_RANGE)), OUT_OF_RANGE,
                                       max_size=2)))
    in_file = draw(st.sets(st.sampled_from(sorted(values))))
    argv, lines = list(command), []
    for name, text in values.items():
        if name in in_file or (name == "unchecked" and text != "true"):
            lines.append(f"{name} = {text}")
        elif name == "unchecked":
            argv.append("--unchecked")
        else:
            argv += [f"--{name.replace('_', '-')}", text]
    return argv, lines


class TestExitContract:
    @pytest.mark.filterwarnings("ignore:.*skipped")
    @pytest.mark.filterwarnings("ignore:unchecked weight violates")
    @given(whole_commands())
    @settings(max_examples=150, deadline=None)
    def test_every_command_exits_zero_one_or_two(self, drawn):
        argv, lines = drawn
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            cfg = Path(tmp, "cfg.ini")
            cfg.write_text("[run]\n" + "".join(f"{line}\n" for line in lines))
            code = main([*argv, "--config", str(cfg), "--out", str(Path(tmp, "out")),
                         *(["--csv", str(Path(tmp, "r.csv"))] if argv[0] == "clt" else [])])
        assert code in (0, 1, 2)
        assert code != 2 or err.getvalue().startswith("weplab: error: ")


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

    def test_csv_rows_are_written_one_at_a_time(self, tmp_path):
        # clt sup's three columns at 16,000 replications; joining the rows first held about 3 MB
        rng = np.random.default_rng(PINNED_SEED)
        columns = {"rep": range(16_000), "empirical_sup": rng.standard_normal(16_000),
                   "limit_sup": rng.standard_normal(16_000)}
        tracemalloc.start()
        try:
            write_csv(columns, str(tmp_path / "reps.csv"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 << 10  # the file object's buffers and a row
        lines = (tmp_path / "reps.csv").read_text(encoding="utf-8").splitlines()
        assert lines[1] == "rep,empirical_sup,limit_sup" and len(lines) == 2 + 16_000
        assert lines[-1] == (f"15999,{float(columns['empirical_sup'][-1])!r},"
                             f"{float(columns['limit_sup'][-1])!r}")

    # an atomic path, like a dependent one, holds one uniform draw at every time
    @pytest.mark.parametrize("spec", ["dependent", "atomic:0.5@0.5"])
    def test_cov_comonotone(self, tmp_path, spec):
        code = run_cli("clt", "cov", "--model", spec, "--weight", "const:1",
                       "--times", "1.5", "--levels", "0.2,0.4", "--n-list", "200,2000",
                       "--reps", "50", "--seed", str(PINNED_SEED),
                       "--out", str(tmp_path / "r.json"))
        assert code == 0


def checkout_env():
    """The environment with the checkout's package first on PYTHONPATH, installed or not."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "weplab.cli", "--version"],
                              capture_output=True, text=True, env=checkout_env())
        assert proc.returncode == 0
        assert "weplab" in proc.stdout

    def test_overflowing_ball_radius_ends_without_traceback(self, tmp_path):
        # 1.1^10000 overflows a float: the eps = 1.1 ball is the whole 5-point grid
        out = tmp_path / "r.json"
        proc = subprocess.run([sys.executable, "-m", "weplab.cli", "verify", "l-cond",
                               "--model", "bm-copula", "--n", "1000", "--time-points", "5",
                               "--theta", "1e4", "--out", str(out)],
                              capture_output=True, text=True, env=checkout_env())
        assert proc.returncode in (0, 1) and "Traceback" not in proc.stderr, proc.stderr
        rows = [p for p in load_without_timing(out)["probes"] if p["coords"]["eps"] == 1.1]
        assert [p["coords"]["ball_points"] for p in rows] == [5]

    def test_runs_without_scipy(self, tmp_path):
        # scipy is a test oracle only: Phi and its inverse are weplab's own
        script = (
            "import sys\n"
            "from weplab.cli import main\n"
            f"out = {str(tmp_path)!r}\n"
            "assert main(['simulate', '--model', 'bm-copula', '--n', '300',"
            " '--time-points', '5', '--out', out + '/sim']) == 0\n"
            "assert main(['clt', 'sup', '--model', 'bm-copula', '--n', '200', '--reps', '8',"
            " '--levels', '0.3,0.7', '--out', out + '/sup']) in (0, 1)\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
            # the Gauss-Legendre nodes come from a table, not from numpy.polynomial's eigensolve
            "assert 'numpy.polynomial' not in sys.modules\n"
            # the verify checks load for verify alone
            "assert 'weplab.verifiers' not in sys.modules\n"
            "assert main(['verify', 'integral', '--weight', 'pow:0.25',"
            " '--out', out + '/integral']) == 0\n"
            "assert 'weplab.verifiers' in sys.modules\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=checkout_env())
        assert proc.returncode == 0, proc.stderr
