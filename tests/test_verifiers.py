"""Verifier behaviors at reduced Monte Carlo sizes, pinned seeds."""

import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from weplab import models, parallel, verifiers
from weplab.clt import clt_covariance_convergence, clt_marginal_test, clt_sup_comparison
from weplab.errors import DomainError
from weplab.models import TimeGrid, map_path_blocks, parse_model, to_uniform
from weplab.verifiers import (envelope_check, integral_check, l_condition_estimate, wl_estimate,
                              _wl_sweep)
from weplab.weights import parse_weight

PINNED_SEED = 20260810

w_const = parse_weight("const:1")
w_quarter = parse_weight("pow:0.25")
bm = parse_model("bm-copula")
dependent = parse_model("dependent")
iid = parse_model("iid-time")


def rows_by(report, **coords):
    out = []
    for p in report.probes:
        if all(p.coords.get(k) == v for k, v in coords.items()):
            out.append(p)
    return out


def stat(report, name):
    return rows_by(report, stat=name)[0].estimate


class TestWlEstimate:
    def test_dependent_zero(self):
        rep = wl_estimate(dependent, w_quarter, 5.0, n=5000, seed=PINNED_SEED)
        assert stat(rep, "l_hat_coarse") == 0.0
        assert stat(rep, "l_hat_fine") == 0.0

    def test_iid_matches_exact_independence(self):
        # freq of {X_t <= x, some other ball point above x} is x (1 - x^K)
        grid = TimeGrid.uniform()
        probes = [(1.5, 0.5, 0.6)]
        n = 50_000
        rows, freqs = _wl_sweep(iid, w_const, 5.0, probes, grid, n, PINNED_SEED, 1)
        k = rows[0].coords["ball_points"] - 1
        exact = 0.5 * (1.0 - 0.5 ** k)
        se = math.sqrt(exact * (1 - exact) / n)
        freq_ts, freq_st = freqs[0]
        assert abs(freq_ts - exact) <= 4 * se
        assert abs(freq_st - exact) <= 4 * se
        rep = wl_estimate(iid, w_const, 5.0, probes, n=n, seed=PINNED_SEED, grid=grid)
        assert rows_by(rep, grid="coarse")[0] == rows[0]

    def test_bm_finite_and_stable(self):
        rep = wl_estimate(bm, w_quarter, 5.0, n=20_000, seed=PINNED_SEED)
        assert 0.0 < stat(rep, "l_hat_coarse") < 10.0
        assert stat(rep, "refinement_ratio") < 1.5

    @pytest.mark.filterwarnings("ignore:.*skipped")
    def test_refinement_ratio_reads_the_probes_both_sweeps_evaluate(self):
        # on 17 points the eps = 0.5 ball is a single grid point, on the 33-point
        # refinement it is not: only the eps = 0.6 probe enters the ratio
        rep = wl_estimate(bm, w_quarter, 5.0, [(1.5, 0.01, 0.5), (1.5, 0.01, 0.6)], n=2000,
                          seed=5, grid=TimeGrid.uniform(1.0, 2.0, 17), workers=1)
        assert [r.c_hat is None for r in rows_by(rep, eps=0.5)] == [True, False]
        assert stat(rep, "l_hat_fine") > stat(rep, "l_hat_coarse")
        assert stat(rep, "refinement_ratio") == 1.0

    def test_singleton_ball_skipped_with_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = wl_estimate(bm, w_quarter, 5.0, [(1.5, 0.1, 0.1)], n=1000, seed=1)
        assert stat(rep, "l_hat_coarse") == 0.0
        assert sum("singleton time ball" in str(w.message) for w in caught) == 2
        rows = rows_by(rep, t=1.5)
        assert [r.coords for r in rows] == [  # coarse and fine sweeps
            {"t": 1.5, "x": 0.1, "eps": 0.1, "grid": grid, "ball_points": 1,
             "skipped": "singleton time ball"} for grid in ("coarse", "fine")]
        assert all(r.estimate is None and r.c_hat is None and r.passed for r in rows)
        assert not rep.passed  # the sweep that l_hat reads evaluated nothing

    def test_theta_domain(self):
        with pytest.raises(DomainError):
            wl_estimate(bm, w_quarter, 4.0, n=100, seed=1)

    @pytest.mark.parametrize("probe, named", [
        ((1.5, math.nan, 0.7), "x=nan"), ((1.5, 0.0, 0.7), "x=0.0"), ((1.5, 1.0, 0.7), "x=1.0"),
        ((math.nan, 0.1, 0.7), "time nan"), ((math.inf, 0.1, 0.7), "time inf"),
        ((1.5001, 0.1, 0.7), "time 1.5001"), ((1.5, 0.1, math.nan), "eps=nan"),
        ((1.5, 0.1, -0.7), "eps=-0.7"), ((1.5, 0.1, 0.0), "eps=0.0"),
        ((1.5, 0.1, math.inf), "eps=inf")])
    def test_invalid_probe_is_a_domain_error(self, probe, named):
        # unchecked, a NaN level counts no crossing and passes with frequency 0 and x null
        with pytest.raises(DomainError, match=re.escape(named)):
            wl_estimate(bm, w_quarter, 5.0, [(1.5, 0.1, 0.7), probe], n=2000, seed=1)

    def test_overflowing_ball_radius_is_the_whole_grid(self):
        # 1.1^10000 overflows a float: rho(s, t) <= 1.1 holds on the whole grid
        rep = wl_estimate(bm, w_quarter, 1e4, [(1.5, 0.1, 1.1)], n=200, seed=1,
                          grid=TimeGrid.uniform(1, 2, 5))
        assert [r.coords["ball_points"] for r in rows_by(rep, t=1.5)] == [5, 9]

    def test_bound_report_schema(self):
        rep = wl_estimate(dependent, w_quarter, 5.0, n=2000, seed=1)
        assert rep.check == "wl"
        payload = rep.to_json()
        assert set(payload) == {"check", "probes", "n", "seed"}
        assert all(set(p) == {"coords", "estimate", "stderr", "bound", "c_hat", "pass"}
                   for p in payload["probes"])
        json.dumps(payload)  # serializable


class TestLCondition:
    def test_large_eps_vacuous(self):
        rep = l_condition_estimate(bm, 5.0, [(1.5, 1.1)], n=2000, seed=PINNED_SEED)
        row = rows_by(rep, t=1.5, eps=1.1)[0]
        assert row.estimate == 0.0

    def test_dependent_zero(self):
        rep = l_condition_estimate(dependent, 5.0, [(1.5, 0.7)], n=2000, seed=PINNED_SEED)
        assert rows_by(rep, t=1.5, eps=0.7)[0].estimate == 0.0

    def test_bm_finite_implied_constant(self):
        rep = l_condition_estimate(bm, 5.0, [(1.5, 0.7)], n=50_000, seed=PINNED_SEED)
        row = rows_by(rep, t=1.5, eps=0.7)[0]
        assert row.c_hat is not None and math.isfinite(row.c_hat)

    @pytest.mark.parametrize("probe, named", [
        ((math.nan, 0.7), "time nan"), ((-math.inf, 0.7), "time -inf"),
        ((1.5001, 0.7), "time 1.5001"), ((1.5, math.nan), "eps=nan"),
        ((1.5, -0.7), "eps=-0.7"), ((1.5, 0.0), "eps=0.0"), ((1.5, math.inf), "eps=inf")])
    def test_invalid_probe_is_a_domain_error(self, probe, named):
        # unchecked, a NaN time or a negative eps gives an empty ball, reported as a
        # "singleton time ball" with ball_points 0
        with pytest.raises(DomainError, match=re.escape(named)):
            l_condition_estimate(bm, 5.0, [(1.5, 0.7), probe], n=2000, seed=1)

    def test_singleton_ball_row_names_its_reason(self):
        # on 17 grid times the ball of radius 0.55^5 around 1.5 holds 1.5 only
        with pytest.warns(UserWarning, match="singleton time ball"):
            rep = l_condition_estimate(bm, 5.0, [(1.5, 0.55), (1.5, 0.7)], n=2000,
                                       seed=PINNED_SEED, grid=TimeGrid.uniform(1, 2, 17))
        row = rows_by(rep, t=1.5, eps=0.55)[0]
        assert row.coords == {"t": 1.5, "eps": 0.55, "ball_points": 1,
                              "skipped": "singleton time ball"}
        assert row.estimate is None and row.c_hat is None
        assert "skipped" not in rows_by(rep, t=1.5, eps=0.7)[0].coords


class TestEnvelope:
    def test_bounded_weight_exact_zero(self):
        rep = envelope_check(dependent, w_const, lambdas=(2.0, 3.0, 4.0), n=5000,
                             seed=PINNED_SEED)
        for lam in (2.0, 3.0, 4.0):
            assert rows_by(rep, **{"lambda": lam})[0].estimate == 0.0

    def test_bm_power_weight_trend(self):
        rep = envelope_check(bm, w_quarter, n=100_000, seed=PINNED_SEED)
        assert rep.passed
        trends = [p for p in rep.probes if "trend" in p.coords]
        assert len(trends) == 2 and all(p.passed for p in trends)

    @pytest.mark.parametrize("model", [bm, iid], ids=["bm-copula", "iid-time"])
    def test_rows_are_the_lambdas_and_their_trends(self, model):
        # every row reads the weight: the bm-copula gets no row of its own
        rep = envelope_check(model, w_quarter, n=5000, seed=PINNED_SEED)
        assert [p.coords for p in rep.probes] == [
            {"lambda": 5.0}, {"lambda": 10.0}, {"lambda": 20.0},
            {"trend": "5->10"}, {"trend": "10->20"}]

    def test_same_rows_at_one_and_two_workers(self):
        # 20,000 paths on 129 times span five seeding blocks, handed over in path slices
        reps = [envelope_check(bm, w_quarter, n=20_000, seed=PINNED_SEED, workers=workers)
                for workers in (1, 2)]
        assert reps[0].probes == reps[1].probes

    @pytest.mark.parametrize("lambdas", [(5.0, 10.0, math.nan), (5.0, 10.0, math.inf),
                                         (5.0, 10.0, -1.0), (0.0, 5.0, 10.0),
                                         (5.0, 10.0, 10.0)])
    def test_rejects_lambdas_before_drawing_a_path(self, monkeypatch, lambdas):
        def no_paths(*args, **kwargs):
            raise AssertionError("a path was drawn")

        monkeypatch.setattr(verifiers, "map_path_blocks", no_paths)
        with pytest.raises(DomainError, match="distinct, positive and finite"):
            envelope_check(bm, w_quarter, lambdas=lambdas, n=2000, seed=PINNED_SEED)


class TestMonteCarloScaling:
    def test_doubling_n_halves_stderr(self):
        # sqrt(n) sanity: stderr at 2n is stderr at n over sqrt(2), within 20%
        reps = {n: envelope_check(iid, w_quarter, n=n, seed=PINNED_SEED) for n in (20_000, 40_000)}
        ses = {n: rows_by(r, **{"lambda": 5.0})[0].stderr for n, r in reps.items()}
        ratio = ses[20_000] / ses[40_000]
        assert abs(ratio - math.sqrt(2.0)) <= 0.2 * math.sqrt(2.0)


class TestWlMirroredEvents:
    def test_bm_copula_event_symmetry_diagnostic(self):
        rep = wl_estimate(bm, w_quarter, 5.0, n=20_000, seed=PINNED_SEED)
        lo, hi = sorted((stat(rep, "l_hat_ts"), stat(rep, "l_hat_st")))
        assert lo > 0.0 and hi / lo < 3.0


class TestCltMarginal:
    def test_normal_limit(self):
        report, _columns = clt_marginal_test(bm, w_const, 1.5, 0.3, n=2000, reps=800,
                                             seed=PINNED_SEED)
        assert rows_by(report, stat="ks")[0].passed
        assert rows_by(report, stat="variance")[0].passed

    def test_single_path_negative_control(self):
        report, _columns = clt_marginal_test(bm, w_const, 1.5, 0.3, n=1, reps=500,
                                             seed=PINNED_SEED)
        assert not rows_by(report, stat="ks")[0].passed

    def test_clip_edge_variance_target(self):
        clip = 1e-3
        report, _columns = clt_marginal_test(bm, w_const, 1.5, clip, n=100, reps=500,
                                             seed=PINNED_SEED)
        assert rows_by(report, stat="variance")[0].bound == \
            pytest.approx(clip * (1.0 - clip), rel=1e-12)

    def test_needs_reps(self):
        with pytest.raises(DomainError):
            clt_marginal_test(bm, w_const, 1.5, 0.3, n=10, reps=100, seed=1)


class TestCltCovariance:
    def test_comonotone_two_cells(self):
        report, _columns = clt_covariance_convergence(dependent, w_const,
                                                      [(1.5, 0.2), (1.5, 0.4)],
                                                      [200, 5000], reps=50, seed=PINNED_SEED)
        assert report.passed

    def test_iid_cross_time(self):
        _report, columns = clt_covariance_convergence(iid, w_const, [(1.0, 0.3), (2.0, 0.3)],
                                                      [200, 5000], reps=50, seed=PINNED_SEED)
        assert columns["frobenius_distance"][-1] < 0.01

    def test_distances_shrink(self):
        _report, columns = clt_covariance_convergence(bm, w_const, [(1.0, 0.5), (2.0, 0.5)],
                                                      [100, 10_000], reps=50, seed=PINNED_SEED)
        distances = columns["frobenius_distance"]
        assert distances[1] < distances[0]


def replication_field(model, grid, ys, w, n, seed, r):
    """The field of replication r, counted on the uniform scale."""
    counts = map_path_blocks(
        model, grid, n, seed,
        lambda v: np.count_nonzero(to_uniform(model, v)[:, :, None] <= ys, axis=1),
        stream=parallel.STREAM_REPLICATION, extra_key=(r,))
    return w(ys) * (counts - n * ys) / math.sqrt(n)


class TestCltSup:
    def test_single_cell_reduces_to_marginal(self):
        report, _columns = clt_sup_comparison(bm, w_const, (1.5,), (0.3,), n=2000, reps=800,
                                              seed=PINNED_SEED)
        assert report.passed

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("weight", [w_const, w_quarter])
    @pytest.mark.parametrize("spec", ["bm-copula", "dependent", "iid-time"])
    def test_one_cell_sup_is_the_marginal_magnitude(self, spec, weight, workers):
        # n = 4500 spans two seeding blocks
        model, n, reps = parse_model(spec), 4500, 500
        _report, marginal = clt_marginal_test(model, weight, 1.5, 0.3, n, reps, 9,
                                              workers=workers)
        _report, sup = clt_sup_comparison(model, weight, (1.5,), (0.3,), n, reps, 9,
                                          workers=workers)
        assert np.array_equal(np.abs(marginal["nu"]), sup["empirical_sup"])

    def test_comonotone_grid(self):
        report, _columns = clt_sup_comparison(dependent, w_const, (1.0, 1.25, 1.5, 2.0),
                                              (0.2, 0.4, 0.5, 0.8), n=2000, reps=800,
                                              seed=PINNED_SEED)
        assert report.passed

    @pytest.mark.parametrize("batch_values", [None, 1])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec,sampled_level", [("bm-copula", False), ("bm-copula", True),
                                                    ("dependent", False), ("iid-time", False)])
    def test_sups_equal_the_per_replication_field(self, monkeypatch, spec, sampled_level,
                                                  workers, batch_values):
        # n = 4500 spans two seeding blocks; 31 replications fill two batches and a part
        if batch_values is not None:
            monkeypatch.setattr(models, "_BATCH_VALUES", batch_values)
        model, n, reps = parse_model(spec), 4500, 31
        times, levels = (2.0, 1.0, 1.5), (0.8, 0.2, 0.5)
        grid = TimeGrid(np.array(sorted(times)))
        if sampled_level:
            # a uniform that replication 0 sampled in its second block (0.58 at t = 2):
            # LevelKernel.count decides an in-band slice of a time-major row in that cell
            first = np.hstack(map_path_blocks(model, grid, n, 9,
                                              lambda v: [to_uniform(model, v)],
                                              stream=parallel.STREAM_REPLICATION,
                                              extra_key=(0,))).T
            levels = (0.8, 0.2, float(first[4158, 2]))
        ys = np.array(sorted(levels))
        fields = [replication_field(model, grid, ys, w_quarter, n, 9, r) for r in range(reps)]
        if sampled_level:
            # and replication 0 takes its sup there, so a wrong decision moves that sup
            assert np.argmax(np.abs(fields[0])) == 2 * len(ys) + 1
        old = [np.max(np.abs(field)) for field in fields]
        _report, columns = clt_sup_comparison(model, w_quarter, times, levels, n, reps, 9,
                                              workers=workers)
        assert np.array_equal(columns["empirical_sup"], np.array(old))

    def test_memory_does_not_grow_with_reps(self):
        # each batch of fields and each block of limit draws folds into its sups as it
        # arrives; holding the (reps x 153) arrays went from 7.6 MB at 2,000 reps to
        # 56.6 MB at 16,000, against about 5 and 10 MB here
        times, levels = [1.0 + i / 16.0 for i in range(17)], [i / 10 for i in range(1, 10)]
        peaks = []
        for reps in (2000, 16_000):
            tracemalloc.start()
            try:
                clt_sup_comparison(dependent, w_quarter, times, levels, 50, reps, PINNED_SEED)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 2.5 * peaks[0]


class TestReportJson:
    def test_all_reports_serializable(self):
        reports = [integral_check(w_quarter, [1.0]),
                   l_condition_estimate(bm, 5.0, [(1.5, 0.7)], n=2000, seed=1)]
        for rep in reports:
            payload = rep.to_json()
            text = json.dumps(payload, sort_keys=True)
            assert payload["check"] in text
