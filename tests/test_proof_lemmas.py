"""The lemmas of the paper's proofs, on weplab's own Brownian sampler.

The sampler streams the bm-copula's scores B_t/sqrt(t); where a lemma needs
the raw path it is read back as B_t = score * sqrt(t).

Borell's concentration of the scaled-path sup, the forward-increment envelope
(lemma M), the one-sided crossing bound (lemma L) and the two-sided crossing
bounds (d1, d2) read no process and no weight, so no input to ``weplab
verify`` could fail them: they test the sampler.  Borell's bound is also
asserted at the radius of the low tail min_t X_t <= 1e-4, where taking the
sup mean the wrong way fails it.  The chaining bound on
level-interval crossings and the inequality d_G0^2 <= 2 d^2 + 4 L rho^2 read
both, but take their constant L from the crossing sweep of the same sample,
so a process that crosses often raises its own bound: they are tests on the
bm-copula with the manifest's WL weight, with L the ``l_hat_coarse`` row of
``wl_estimate``, and with L = 0 each fails.  Each bound is asserted at the
acceptance manifest's seed and sizes, on the default 129-point grid, with
the three-standard-error Monte Carlo allowance of the verify checks, one
test per probe, and every sampled result is the same at one and two workers.
Crossings in a window of one grid time and at a tiny level are rare.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from weplab import parallel
from weplab.models import TimeGrid, map_path_blocks, parse_model, to_uniform
from weplab.numerics import std_normal_pdf, std_normal_quantile
from weplab.verifiers import _crossing_counts, wl_estimate
from weplab.weights import parse_weight

from lemma_reference import dg0_upper_bound_check

MANIFEST = json.loads((Path(__file__).parent / "acceptance_manifest.json").read_text())
SEED = MANIFEST["seed"]
BM = parse_model("bm-copula")
GRID = TimeGrid.uniform()
SQRT_T = np.sqrt(GRID.points)[:, None]
MC_SIGMA = 3.0

# the bm-copula's low tail min_t X_t <= 1e-4 is the event sup_t -B_t/sqrt(t) >= LOW_TAIL_SUP:
# Borell's event at radius r0 = LOW_TAIL_SUP - m, an input after the manifest's radii
LOW_TAIL_SUP = -std_normal_quantile(1e-4)
BORELL_RADII = [*MANIFEST["borell"]["r_values"], "r0"]

# lemma L probes (t, eps, l) and d1/d2 probes (t, eps, x); eps is lemma L's forward
# window (t, t + eps] and the d1/d2 ball's time radius
LEMMA_L_PROBES = [tuple(p) for p in MANIFEST["lemma_l"]["probes"]]
D1D2 = MANIFEST["d1d2"]
D1D2_PROBES = [(D1D2["t"], eps, x) for eps in D1D2["eps_values"] for x in D1D2["x_values"]]

# chaining probes (t, eps, a, b), b inside the weight's window, and the d_G0 probes
# (s, x, t, y) over five times spanning the grid and three levels
WL, CHAINING = MANIFEST["wl"], MANIFEST["chaining"]
THETA, W = WL["theta"], parse_weight(WL["weight"])
CHAINING_PROBES = [tuple(p) for p in CHAINING["probes"]]
DG0_TIMES = np.linspace(GRID.a, GRID.b, 5)
DG0_PROBES = [(s, x, t, y) for s in DG0_TIMES for t in DG0_TIMES
              for x in (0.2, 0.5, 0.8) for y in (0.2, 0.5, 0.8)]
# the dyadic ratio sum_k w(2^-k b)^-2 / w(b)^-2 of a pure power, 1 / (1 - 4^-alpha)
DYADIC_RATIO = -1.0 / math.expm1(-W.alpha * math.log(4.0))


def freq_stderr(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def forward_indices(grid, t, eps):
    """Grid indices with t < s <= t + eps, with a relative slack guard."""
    pts = grid.points
    return np.flatnonzero((pts > t) & (pts <= t + eps * (1.0 + 1e-9)))


@functools.cache
def borell(workers):
    """The sup mean m of -B_t/sqrt(t) on the calibration stream, and the number of paths
    whose sup reaches m + r, per manifest r, then LOW_TAIL_SUP (radius r0)."""
    n = MANIFEST["borell"]["n"]
    total = map_path_blocks(BM, GRID, n, SEED, lambda scores: np.sum(np.max(-scores, axis=0)),
                            workers, stream=parallel.STREAM_CALIBRATION)
    m_hat = total / n
    levels = [m_hat + r for r in MANIFEST["borell"]["r_values"]] + [LOW_TAIL_SUP]

    def exceed(scores):
        sup = np.max(-scores, axis=0)
        return np.array([np.count_nonzero(sup >= level) for level in levels])

    return m_hat, map_path_blocks(BM, GRID, n, SEED, exceed, workers)


@functools.cache
def increments(workers, stream=parallel.STREAM_PATHS):
    """(mean, stderr) over paths of max over s in (t, t + eps] of (B_s - B_t)/sqrt(s), per
    manifest (t, eps) whose window holds a grid time, and of max_t B_t/sqrt(t) (d_env)."""
    p = MANIFEST["lemma_m"]
    windows = [(t, eps, GRID.index_of(t), forward_indices(GRID, t, eps))
               for t in p["t_values"] for eps in p["eps_values"]]
    windows = [w for w in windows if w[3].size]

    def sums(scores):
        b = scores * SQRT_T
        sups = [np.max((b[sel] - b[it]) / SQRT_T[sel], axis=0) for _t, _e, it, sel in windows]
        sups.append(np.max(scores, axis=0))
        return np.array([[np.sum(v), np.sum(v * v)] for v in sups])

    n = p["n"]
    stats = [(s / n, math.sqrt(max(0.0, (sq - s * s / n) / (n - 1)) / n))
             for s, sq in map_path_blocks(BM, GRID, n, SEED, sums, workers, stream=stream)]
    return {(t, eps): m for (t, eps, _it, _sel), m in zip(windows, stats)}, stats[-1]


def m0_hat(workers):
    """The increment mean m0 of lemma L and d1/d2: lemma M's largest mean, on the
    calibration stream."""
    table, _d_env = increments(workers, parallel.STREAM_CALIBRATION)
    return max(mean for mean, _se in table.values())


@functools.cache
def one_sided_crossings(workers):
    """Per lemma L probe, the paths with B_t/sqrt(t) < l <= max over the window of B_s/sqrt(s)."""
    probes = [(GRID.index_of(t), forward_indices(GRID, t, eps), l) for t, eps, l in LEMMA_L_PROBES]

    def counts(scores):
        return np.array([np.count_nonzero((scores[it] < l) & (np.max(scores[sel], axis=0) >= l))
                         if sel.size else 0 for it, sel, l in probes])

    return map_path_blocks(BM, GRID, MANIFEST["lemma_l"]["n"], SEED, counts, workers)


@functools.cache
def two_sided_crossings(workers):
    """Per d1/d2 probe, the counts of the events X_t <= x < max over the ball of X_s (d1)
    and min over the ball of X_s <= x < X_t (d2)."""
    cells = [(GRID.index_of(t), GRID.ball_indices(t, eps), x) for t, eps, x in D1D2_PROBES]
    assert all(ball.size > 1 for _it, ball, _x in cells)
    return _crossing_counts(BM, GRID, cells, D1D2["n"], SEED, workers)


@functools.cache
def crossing_constant(workers):
    """L: the crossing constant of the WL sweep on the grid, at the chaining sample size."""
    report = wl_estimate(BM, W, THETA, n=CHAINING["n"], seed=SEED, workers=workers)
    (row,) = [r for r in report.probes if r.coords.get("stat") == "l_hat_coarse"]
    return row.estimate


@functools.cache
def level_crossings(workers):
    """Per chaining probe (t, eps, a, b), the paths on which X_t lies above a level of the
    grid of (a, b] and some X_s with rho(s, t) <= eps lies at or below the next level
    under X_t."""
    cells = [(GRID.index_of(t), GRID.ball_indices(t, eps ** THETA),
              np.linspace(a, b, CHAINING["levels"] + 1)[1:]) for t, eps, a, b in CHAINING_PROBES]

    def counts(scores):
        out = []
        for it, ball, levels in cells:
            # to_uniform transforms in place: hand it copies
            below = np.searchsorted(levels, to_uniform(BM, scores[[it]])[0]) - 1
            low = to_uniform(BM, scores[ball]).min(axis=0)
            out.append(np.count_nonzero((below >= 0) & (low <= levels[np.maximum(below, 0)])))
        return np.array(out)

    return map_path_blocks(BM, GRID, CHAINING["n"], SEED, counts, workers)


def chaining_bound(probe, l_const):
    """The chaining bound on a probe's crossing frequency: (dyadic ratio) L eps^2 / w(b)^2
    plus the width b - a of the level interval."""
    _t, eps, a, b = CHAINING_PROBES[probe]
    return DYADIC_RATIO * l_const * eps ** 2 / W(b) ** 2 + (b - a)


@pytest.mark.parametrize("r", BORELL_RADII)
def test_borell_concentration(r):
    n = MANIFEST["borell"]["n"]
    m_hat, counts = borell(1)
    p = counts[BORELL_RADII.index(r)] / n
    if r == "r0":
        r = LOW_TAIL_SUP - m_hat
    assert p <= math.exp(-r * r / 2.0) + MC_SIGMA * freq_stderr(p, n)


def test_borell_concentration_fails_with_the_mean_shift_reversed():
    # the sup reaches LOW_TAIL_SUP = m + r0; the radius r0 + 2m measures it from -m
    n = MANIFEST["borell"]["n"]
    m_hat, counts = borell(1)
    p = counts[BORELL_RADII.index("r0")] / n
    r = LOW_TAIL_SUP + m_hat
    assert p > math.exp(-r * r / 2.0) + MC_SIGMA * freq_stderr(p, n)


def test_only_windows_holding_a_grid_time_are_evaluated():
    # t = 2 has no forward window on [1, 2], and (t, t + 0.001] holds no grid time
    table, _d_env = increments(1)
    assert sorted(table) == [(t, eps) for t in (1.0, 1.5) for eps in (0.01, 0.1, 0.25)]


@pytest.mark.parametrize("t, eps", [(t, eps) for t in (1.0, 1.5) for eps in (0.01, 0.1, 0.25)])
def test_increment_envelope(t, eps):
    mean, se = increments(1)[0][(t, eps)]
    assert mean <= 2.0 * math.sqrt(2.0 / math.pi) * math.sqrt(eps) + MC_SIGMA * se


def test_scaled_path_sup_mean_is_positive():
    _table, (d_env, d_env_stderr) = increments(1)
    assert d_env > MC_SIGMA * d_env_stderr


@pytest.mark.parametrize("probe", range(len(LEMMA_L_PROBES)))
def test_one_sided_crossing_constant_is_finite(probe):
    (t, eps, l), c = LEMMA_L_PROBES[probe], one_sided_crossings(1)[probe]
    m0 = m0_hat(1)
    assert l > m0
    if forward_indices(GRID, t, eps).size == 0:
        assert eps == 0.001 and c == 0  # (t, t + 0.001] holds no grid time
    elif l >= 6.0:
        assert c == 0  # vacuous at a level far above the mean
    else:
        shape = math.sqrt(eps) * std_normal_pdf(l - m0) ** ((t + eps) / (t + 2.0 * eps))
        assert shape > 0.0  # so the implied constant c / n / shape is finite


def test_one_sided_crossing_in_a_small_window_is_rare():
    # the window (1.5, 1.501] holds the one grid time 1.5005
    grid = TimeGrid(np.array([1.0, 1.25, 1.5, 1.5005, 1.75, 2.0]))
    (t, eps, l), n = (1.5, 0.001, 1.5), 50_000
    it, sel = grid.index_of(t), forward_indices(grid, t, eps)
    (c,) = map_path_blocks(BM, grid, n, SEED, lambda s: np.array(
        [np.count_nonzero((s[it] < l) & (np.max(s[sel], axis=0) >= l))]))
    shape = math.sqrt(eps) * std_normal_pdf(l - m0_hat(1)) ** ((t + eps) / (t + 2.0 * eps))
    assert 0.0 < c / n <= min(0.01, shape)


@pytest.mark.parametrize("event", ["d1", "d2"])
@pytest.mark.parametrize("x", D1D2["x_values"])
def test_two_sided_crossing_constant_is_stable_in_eps(event, x):
    m0, n = m0_hat(1), D1D2["n"]
    per_eps = []
    for (t, eps, px), counts in zip(D1D2_PROBES, two_sided_crossings(1)):
        if px != x:
            continue
        shape = (math.sqrt(eps) * (x * math.log(1.0 / x))
                 + math.sqrt(eps) * std_normal_pdf(-std_normal_quantile(x) - m0) ** (t / (t + eps)))
        assert shape > 0.0, eps  # so every implied constant c / n / shape is finite
        per_eps.append(counts[("d1", "d2").index(event)] / n / shape)
    assert len(per_eps) == len(D1D2["eps_values"])
    assert min(per_eps) > 0.0 and max(per_eps) / min(per_eps) < D1D2["ratio_threshold"]


def test_two_sided_crossings_at_a_tiny_level_are_rare():
    # the d2 event min over the ball <= x sees the whole ball at the tiny level; same order
    n, x = 100_000, 1e-4
    cells = [(GRID.index_of(D1D2["t"]), GRID.ball_indices(D1D2["t"], 0.1), x)]
    ((d1, d2),) = _crossing_counts(BM, GRID, cells, n, SEED, 1)
    assert d1 < 10 and d2 < 30


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("probe", range(len(CHAINING_PROBES)))
def test_chaining_bound(probe, workers):
    n = CHAINING["n"]
    p = level_crossings(workers)[probe] / n
    assert p <= chaining_bound(probe, crossing_constant(workers)) + MC_SIGMA * freq_stderr(p, n)


@pytest.mark.parametrize("probe", range(len(CHAINING_PROBES)))
def test_chaining_bound_fails_with_no_crossing_constant(probe):
    # with L = 0 the bound is the level interval's width b - a, below the crossing frequency
    n = CHAINING["n"]
    p = level_crossings(1)[probe] / n
    assert p > chaining_bound(probe, 0.0) + MC_SIGMA * freq_stderr(p, n)


@pytest.mark.parametrize("workers", [1, 2])
def test_dg0_bound(workers):
    # with L = 0 it fails on the same probes: test_limits.py's
    # TestDg0Upper::test_returns_first_violating_probe
    assert crossing_constant(workers) > 0.0
    assert dg0_upper_bound_check(BM, W, crossing_constant(workers), DG0_PROBES, THETA) is None


@pytest.mark.parametrize("lemma", [borell, increments, m0_hat, one_sided_crossings,
                                   two_sided_crossings, crossing_constant, level_crossings],
                         ids=lambda lemma: lemma.__name__)
def test_same_at_one_and_two_workers(lemma):
    np.testing.assert_equal(lemma(2), lemma(1))
