"""Acceptance suite: every criterion at its stated tolerance, pinned seeds.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
live).  Monte Carlo criteria are deterministic at the pinned seeds in
``acceptance_manifest.json``; the determinism criterion re-runs them at a
different worker count and compares the reports' ``to_json()`` payloads,
which carry no clock.
"""

import json
import math
from contextlib import contextmanager
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from weplab.models import joint_cdf_matrix, parse_model
from weplab.numerics import std_normal_cdf, std_normal_pdf
from weplab import parallel
from weplab.verifiers import (borell_check, clt_covariance_convergence,
                              clt_marginal_test, clt_sup_comparison, lemma_m_check,
                              prop_d1_d2_check, wl_estimate)
from weplab.weights import WeightSpec, dyadic_sum, integral_condition, parse_weight

from transform_reference import (copula_indicator_identity, normal_df, uniform_atom_mixture,
                                 uniformity_test)

mp.mp.dps = 40

MANIFEST = json.loads((Path(__file__).parent / "acceptance_manifest.json").read_text())
SEED = MANIFEST["seed"]

RESULTS = []


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        RESULTS.append((number, name, False))
        print(f"[FAIL] criterion {number}: {name}")
        raise
    RESULTS.append((number, name, True))
    print(f"[PASS] criterion {number}: {name}")


def teardown_module(module):
    print("\nacceptance summary:")
    for number, name, ok in sorted(RESULTS):
        print(f"  [{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")


# -- shared expensive computations (reused by the determinism criterion) -----

def run_marginal(workers=1):
    p = MANIFEST["marginal"]
    return clt_marginal_test(parse_model("bm-copula"), parse_weight("const:1"),
                             p["t"], p["y"], p["n"], p["reps"], SEED, workers=workers)


def run_covariance(workers=1):
    p = MANIFEST["covariance"]
    cells = [(t, y) for t in p["times"] for y in p["levels"]]
    return clt_covariance_convergence(parse_model("bm-copula"), parse_weight("const:1"),
                                      cells, p["n_list"], p["reps"], SEED,
                                      threshold=p["threshold"], workers=workers)


def run_sup(workers=1):
    p = MANIFEST["sup"]
    return clt_sup_comparison(parse_model("bm-copula"), parse_weight("const:1"),
                              p["times"], p["levels"], p["n"], p["reps"], SEED,
                              workers=workers)


def run_borell(workers=1):
    p = MANIFEST["borell"]
    return borell_check(p["r_values"], n=p["n"], seed=SEED, workers=workers)


def run_lemma_m(workers=1):
    p = MANIFEST["lemma_m"]
    return lemma_m_check(n=p["n"], seed=SEED, t_values=p["t_values"],
                         eps_values=p["eps_values"], workers=workers)


def run_d1d2(workers=1):
    p = MANIFEST["d1d2"]
    probes = [(p["t"], e, x) for e in p["eps_values"] for x in p["x_values"]]
    return prop_d1_d2_check(probes, n=p["n"], seed=SEED, workers=workers,
                            stability_threshold=p["ratio_threshold"])


def run_wl(model_spec, n, workers=1):
    p = MANIFEST["wl"]
    return wl_estimate(parse_model(model_spec), parse_weight(p["weight"]), p["theta"],
                       n=n, seed=SEED, workers=workers)


@pytest.fixture(scope="module")
def marginal_result():
    return run_marginal()


@pytest.fixture(scope="module")
def covariance_result():
    return run_covariance()


@pytest.fixture(scope="module")
def sup_result():
    return run_sup()


@pytest.fixture(scope="module")
def borell_result():
    return run_borell()


@pytest.fixture(scope="module")
def lemma_m_result():
    return run_lemma_m()


@pytest.fixture(scope="module")
def d1d2_result():
    return run_d1d2()


@pytest.fixture(scope="module")
def wl_results():
    p = MANIFEST["wl"]
    return {"bm-copula": run_wl("bm-copula", p["n_bm"]),
            "dependent": run_wl("dependent", p["n_dependent"]),
            "iid-time": run_wl("iid-time", p["n_iid"])}


# -- criteria ----------------------------------------------------------------

def test_criterion_1_feller_sandwich():
    with criterion(1, "normal tail sandwich, exact determinism"):
        ys = (1.5, 2.0, 3.0, 4.0, 5.0)

        def sandwich():
            """One row per y: Phi(-y), phi(y)/y (1 - 1/y^2) and phi(y)/y."""
            return np.array([(std_normal_cdf(-y), std_normal_pdf(y) / y * (1.0 - 1.0 / (y * y)),
                              std_normal_pdf(y) / y) for y in ys])

        rows = sandwich()
        tail, lower, upper = rows.T
        assert np.all(lower <= tail) and np.all(tail <= upper)
        assert np.all(upper / 2.0 <= tail)  # every y exceeds sqrt(2)
        assert np.all((upper - lower) / tail < 4.0 / np.square(ys))  # every y exceeds 1.2
        for y in ys:
            assert abs(std_normal_cdf(-y) - float(mp.ncdf(-y))) <= 1e-12
        assert lower[1] == pytest.approx(0.0202466124, abs=1e-9)
        assert tail[1] == pytest.approx(0.0227501319, abs=1e-9)
        assert upper[1] == pytest.approx(0.0269954833, abs=1e-9)
        assert sandwich().tobytes() == rows.tobytes()


def test_criterion_2_dyadic_sum():
    with criterion(2, "dyadic weight sum matches the geometric series"):
        for alpha in (0.1, 0.25, 0.4):
            w = parse_weight(f"pow:{alpha}")
            r = 4.0 ** (-alpha)
            for theta in (1e-4, 1e-2, 0.2 * w.gamma):
                # geometric-series oracle at the measured term count
                measured = dyadic_sum(w, theta, 60).ratio
                oracle = (1.0 - r ** 60) / (1.0 - r)
                assert abs(measured - oracle) <= 1e-10
                # the limit form is reached to the same tolerance by 200 terms
                settled = dyadic_sum(w, theta, 200).ratio
                assert abs(settled - 1.0 / (1.0 - r)) <= 1e-10


def test_criterion_3_integral_condition():
    with criterion(3, "tail integral: finite value and divergent boundary"):
        entry = integral_condition(parse_weight("const:1"), [1.0], tol=1e-9)[0]
        assert entry.finite
        assert entry.value == pytest.approx(float(mp.e1(2)), abs=1e-6)
        boundary = WeightSpec(alpha=0.5, unchecked=True)
        assert not integral_condition(boundary, [1.0])[0].finite


def test_criterion_4_transform_uniformity():
    with criterion(4, "randomized transform uniformity with negative control"):
        df = uniform_atom_mixture(0.5, 0.5)
        n = MANIFEST["uniformity"]["n"]
        result = uniformity_test(df, n, SEED)
        assert result.ks < 1.63 / math.sqrt(n)
        broken = uniformity_test(df, n, SEED, v_constant=0.0)
        assert not broken.passed


def test_criterion_5_indicator_identity():
    with criterion(5, "copula indicator identity, exhaustive"):
        rng_x = parallel.derive_rng(SEED, 0)
        rng_v = parallel.derive_rng(SEED, 1)
        samples = list(zip(rng_x.standard_normal(10_000), rng_v.random(10_000)))
        violations = copula_indicator_identity(normal_df(), samples,
                                               np.linspace(-2.5, 2.5, 21))
        assert violations == 0


def stat_row(report, stat):
    return next(p for p in report.probes if p.coords.get("stat") == stat)


def test_criterion_6_marginal_clt(marginal_result):
    with criterion(6, "marginal CLT against the limit normal"):
        report, _columns = marginal_result
        ks, variance = stat_row(report, "ks"), stat_row(report, "variance")
        assert ks.estimate < ks.bound
        assert abs(variance.estimate - 0.21) <= 4.0 * variance.stderr


def test_criterion_7_covariance_convergence(covariance_result):
    with criterion(7, "covariance convergence to the closed-form target"):
        distances = covariance_result[1]["frobenius_distance"]
        # the oracle target includes the cross-time value 1/8
        assert joint_cdf_matrix(parse_model("bm-copula"), ((1.0, 0.5), (2.0, 0.5)))[0, 1] \
            - 0.25 == pytest.approx(0.125, abs=1e-8)
        assert distances[-1] < 0.01
        assert distances[-1] < distances[0]


def test_criterion_8_sup_functional(sup_result):
    with criterion(8, "sup-functional agreement with the limit field"):
        ks = stat_row(sup_result[0], "two-sample-ks")
        assert ks.estimate < ks.bound


def test_criterion_9_borell(borell_result):
    with criterion(9, "Gaussian concentration of the scaled-path sup"):
        rows = {p.coords.get("r"): p for p in borell_result.probes if "r" in p.coords}
        assert rows[2.0].bound == pytest.approx(0.13534, abs=1e-5)
        assert rows[3.0].bound == pytest.approx(0.011109, abs=1e-5)
        for r, row in rows.items():
            assert row.estimate <= row.bound + 3.0 * row.stderr


@pytest.mark.filterwarnings("ignore:.*skipped")
def test_criterion_10_increment_envelope(lemma_m_result):
    with criterion(10, "forward-increment sup means under 2 sqrt(2/pi) sqrt(eps)"):
        rows = [p for p in lemma_m_result.probes if "eps" in p.coords]
        assert len(rows) == 12
        # a window that holds no grid time is skipped, not evaluated
        skipped = [p for p in rows if p.coords["window_points"] == 0]
        assert all(p.estimate is None and "skipped" in p.coords for p in skipped)
        rows = [p for p in rows if p not in skipped]
        assert len(rows) == 6
        for row in rows:
            assert row.estimate <= row.bound + 3.0 * row.stderr
        cap = next(p.bound for p in rows if p.coords["eps"] == 0.25)
        assert cap == pytest.approx(0.79788, abs=1e-5)


def test_criterion_11_crossing_shape_stability(d1d2_result):
    with criterion(11, "two-sided crossing bounds: implied constants stable"):
        ratios = [p for p in d1d2_result.probes
                  if p.coords.get("stat") == "eps-stability"]
        assert len(ratios) == 6
        for row in ratios:
            assert row.estimate is not None and math.isfinite(row.estimate)
            assert row.estimate < MANIFEST["d1d2"]["ratio_threshold"]
        for p in d1d2_result.probes:
            if "event" in p.coords and "stat" not in p.coords:
                assert p.c_hat is not None and math.isfinite(p.c_hat)


def test_criterion_12_wl_condition(wl_results):
    with criterion(12, "crossing-probability condition: finite, stable, controls"):
        band = MANIFEST["wl"]["refinement_band"]
        l_hat = {spec: stat_row(report, "l_hat_coarse").estimate
                 for spec, report in wl_results.items()}
        assert 0.0 < l_hat["bm-copula"] < math.inf
        assert stat_row(wl_results["bm-copula"], "refinement_ratio").estimate <= band
        assert l_hat["dependent"] == 0.0
        assert l_hat["iid-time"] >= MANIFEST["wl"]["blowup_factor"] * l_hat["bm-copula"]
        iid_ratio = stat_row(wl_results["iid-time"], "refinement_ratio").estimate
        assert iid_ratio is None or iid_ratio > band  # null is an infinite ratio


def test_clip_refinement_study(sup_result):
    """Halving the level clip twice must not change the sup-CLT conclusion.

    Supporting study for the clipped-level design (not a numbered criterion):
    the comparison grid gains the clip-boundary levels, and the two-sample KS
    verdict must be stable across clip = 1e-3, 5e-4, 2.5e-4.
    """
    p = MANIFEST["sup"]
    verdicts = []
    for clip in (1e-3, 5e-4, 2.5e-4):
        levels = sorted([clip, 1.0 - clip] + list(p["levels"]))
        report, _columns = clt_sup_comparison(parse_model("bm-copula"),
                                              parse_weight("const:1"),
                                              p["times"], levels, 2000, 500, SEED)
        verdicts.append(report.passed)
    assert verdicts[0] and len(set(verdicts)) == 1


@pytest.mark.filterwarnings("ignore:.*skipped")
def test_criterion_13_determinism(marginal_result, covariance_result, sup_result,
                                  borell_result, lemma_m_result, d1d2_result,
                                  wl_results):
    with criterion(13, "byte-identical reports across reruns and worker counts"):
        df = uniform_atom_mixture(0.5, 0.5)
        n = MANIFEST["uniformity"]["n"]
        assert uniformity_test(df, n, SEED) == uniformity_test(df, n, SEED)

        redo, redo_columns = run_marginal(workers=8)
        assert np.array_equal(redo_columns["nu"], marginal_result[1]["nu"])
        assert redo.to_json() == marginal_result[0].to_json()

        assert run_covariance(workers=8)[1]["frobenius_distance"] == \
            covariance_result[1]["frobenius_distance"]

        _report, redo_sup = run_sup(workers=8)
        assert np.array_equal(redo_sup["empirical_sup"], sup_result[1]["empirical_sup"])
        assert np.array_equal(redo_sup["limit_sup"], sup_result[1]["limit_sup"])

        assert run_borell(workers=8).to_json() == borell_result.to_json()
        assert run_lemma_m(workers=8).to_json() == lemma_m_result.to_json()
        assert run_d1d2(workers=8).to_json() == d1d2_result.to_json()

        redo_wl = run_wl("bm-copula", MANIFEST["wl"]["n_bm"], workers=8)
        assert redo_wl.to_json() == wl_results["bm-copula"].to_json()
