"""The level kernel: exact X_t <= y decisions on the native (score) scale.

The oracle is the uniform-space comparison clip(ndtr(z)) <= y.  Frozen
copies of the uniform-space consumer kernels that the level kernel
replaced check every moved consumer on multi-block runs.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special

from weplab import models, numerics, parallel
from weplab.cli import main
from weplab.clt import clt_marginal_test
from weplab.engine import accumulate_cell_moments, evaluate_field_streaming
from weplab.models import TimeGrid, level_kernel, map_path_blocks, parse_model, to_uniform
from weplab.verifiers import DEFAULT_WL_X, _crossing_counts
from weplab.weights import parse_weight

BM = parse_model("bm-copula")
OPEN_LO, OPEN_HI = 5e-324, float(np.nextafter(1.0, 0.0))
KINDS = ("bm-copula", "dependent", "iid-time", "atomic:0.5@0.5")


def uniform_leq(z, y):
    """The oracle: the comparison made on the uniform scale."""
    return np.clip(special.ndtr(z), OPEN_LO, OPEN_HI) <= y


def neighbours(v):
    return [float(np.nextafter(v, -np.inf)), float(v), float(np.nextafter(v, np.inf))]


def with_band_edges(scores, kernel):
    """Scores plus each band edge and its floating-point neighbours."""
    edges = [e for edge in (*kernel.lo, *kernel.hi) for e in neighbours(edge)]
    out = np.concatenate([scores, np.array(edges)])
    return out[np.isfinite(out)]


score_arrays = arrays(np.float64, st.integers(1, 40),
                      elements=st.floats(-40.0, 40.0, allow_nan=False))

special_levels = st.sampled_from([OPEN_LO, OPEN_HI, 1e-300, 2.2250738585072014e-308,
                                  1e-12, 1.0 - 1e-12, 0.5, 1.0 - 1e-9, 1e-9])
tiny = st.floats(0.0, 1e-12)
plain_levels = st.one_of(st.floats(0.0, 1.0), special_levels, tiny,
                         tiny.map(lambda d: 1.0 - d))


@st.composite
def levels_for(draw, scores):
    """A level: plain, near the clip bounds, or a sampled uniform or its neighbour."""
    if draw(st.booleans()):
        return draw(plain_levels)
    u = float(np.clip(special.ndtr(draw(st.sampled_from(list(scores)))), OPEN_LO, OPEN_HI))
    return draw(st.sampled_from(neighbours(u)))


# level counts on both sides of the count's popcount/sort choice
level_counts = st.integers(1, 12)


class TestOracle:
    @given(scores=score_arrays, data=st.data())
    @settings(max_examples=400)
    def test_leq_is_the_uniform_comparison(self, scores, data):
        ys = [data.draw(levels_for(scores)) for _ in range(data.draw(level_counts))]
        kernel = level_kernel(BM, ys)
        z = with_band_edges(scores, kernel)
        for i, y in enumerate(ys):
            assert np.array_equal(kernel.leq(z, i), uniform_leq(z, y))
        # one time row against every level, and every score as a row of width 1
        assert np.array_equal(kernel.count(z[None, :].copy())[0],
                              [np.count_nonzero(uniform_leq(z, y)) for y in ys])
        assert np.array_equal(kernel.count(z[:, None].copy()),
                              uniform_leq(z[:, None], np.array(ys)))

    @given(scores=score_arrays, data=st.data())
    @settings(max_examples=200)
    def test_counts_and_row_tests_are_the_uniform_ones(self, scores, data):
        ys = [data.draw(levels_for(scores)) for _ in range(data.draw(level_counts))]
        kernel = level_kernel(BM, ys)
        z = with_band_edges(scores, kernel)
        u = np.clip(special.ndtr(z), OPEN_LO, OPEN_HI)
        # a time-major block: two time rows
        block = np.stack([z, z[::-1]])
        expected = np.array([[np.count_nonzero(uniform_leq(row, y)) for y in ys]
                             for row in block])
        rows = block.copy()
        assert np.array_equal(kernel.count(rows), expected)
        if len(ys) > models._POPCOUNT_LEVELS:
            # the sort path sorts the rows in place; the popcount path leaves them
            assert np.array_equal(rows, np.sort(block, axis=1))
        # a batch of blocks, as in the CLT harnesses, counts as its slices do
        batch = np.stack([block, block[::-1], -block])
        counts = kernel.count(batch.copy())
        assert np.array_equal(counts, np.stack([kernel.count(b.copy()) for b in batch]))
        assert np.array_equal(kernel.count(z[None, :].copy())[0], expected[0])
        # a ball of three times (rows) over the paths (columns), and a ball of one
        rows = z[: (z.size // 3) * 3].reshape(-1, 3).T
        urows = u[: rows.size].reshape(-1, 3).T
        balls, uballs = [rows, rows[1:2]], [urows, urows[1:2]]
        some = kernel.any_gt_leq(balls, np.stack([b.min(axis=0) for b in balls]),
                                 np.stack([b.max(axis=0) for b in balls]))
        levels = np.array(ys)[:, None, None]
        assert np.array_equal(some[0], np.stack([b.max(axis=0) for b in uballs]) > levels)
        assert np.array_equal(some[1], np.stack([b.min(axis=0) for b in uballs]) <= levels)

    def test_scores_at_the_band_edges(self):
        ys = [OPEN_LO, 1e-300, 1e-12, 0.3, 0.5, 1.0 - 1e-12, OPEN_HI]
        kernel = level_kernel(BM, ys)
        z = with_band_edges(np.array([0.0]), kernel)
        for i, y in enumerate(ys):
            assert np.array_equal(kernel.leq(z, i), uniform_leq(z, y))

    def test_band_is_two_parts_per_billion_of_the_level(self):
        ys = np.array([1e-200, 1e-6, 0.01, 0.3, 0.5, 0.9, 1.0 - 1e-6])
        kernel = level_kernel(BM, ys)
        q = special.ndtri(ys)
        assert np.all(kernel.lo < q) and np.all(q < kernel.hi)
        width = special.ndtr(kernel.hi) - special.ndtr(kernel.lo)
        np.testing.assert_allclose(width, 2e-9 * ys, rtol=1e-4)

    def test_band_rests_on_ndtr_accuracy(self):
        # the band's half-width is 1e-9 in u; ndtr and ndtri must be far better
        rng = np.random.default_rng(20260810)
        ps = np.concatenate([10.0 ** rng.uniform(-300, -0.31, 200),
                             1.0 - 10.0 ** rng.uniform(-15.9, -0.31, 100)])
        with mp.workdps(40):
            for z in rng.uniform(-37.5, 8.3, 300):
                exact = mp.ncdf(mp.mpf(float(z)))
                err = abs(mp.mpf(float(numerics.ndtr(z))) - exact)
                assert err <= (1e-15 if exact > 0.5 else 1e-11 * exact)
            for p in ps:
                err = abs(mp.ncdf(mp.mpf(float(numerics.ndtri(p)))) - mp.mpf(float(p)))
                assert err <= (1e-15 if p >= 0.5 else 1e-11 * p)

    def test_band_widens_to_infinity_at_the_clip_bounds(self):
        kernel = level_kernel(BM, [OPEN_LO, OPEN_HI])
        assert kernel.lo[0] == -np.inf and kernel.hi[1] == np.inf

    @given(spec=st.sampled_from(KINDS[1:]), data=st.data())
    @settings(max_examples=200)
    def test_uniform_kinds_count_plainly(self, spec, data):
        # batches of uniform rows of any width, with levels among the values themselves
        shape = data.draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 40)))
        vals = data.draw(arrays(np.float64, shape,
                                elements=st.floats(OPEN_LO, OPEN_HI, allow_nan=False)))
        ys = [data.draw(st.one_of(st.sampled_from(list(vals.ravel())), st.floats(0.0, 1.0)))
              for _ in range(data.draw(level_counts))]
        counts = level_kernel(parse_model(spec), ys).count(vals.copy())
        expected = np.count_nonzero(vals[..., None] <= np.array(ys), axis=-2)
        assert np.array_equal(counts, expected)

    @pytest.mark.parametrize("spec", KINDS[1:])
    def test_uniform_kinds_compare_plainly(self, spec):
        ys = np.array([0.2, 0.5])
        kernel = level_kernel(parse_model(spec), ys)
        assert np.array_equal(kernel.lo, ys) and np.array_equal(kernel.hi, ys)
        vals = np.array([0.1, 0.2, 0.5, np.nextafter(0.5, 1.0), 0.7])
        for i, y in enumerate(ys):
            assert np.array_equal(kernel.leq(vals, i), vals <= y)

    @pytest.mark.parametrize("k", [models._POPCOUNT_LEVELS, models._POPCOUNT_LEVELS + 1],
                             ids=["popcount", "sort"])
    @pytest.mark.parametrize("shape", [(3, 50), (2, 3, 50)])
    def test_counts_hold_only_their_own_bytes(self, shape, k):
        # the counts a sampler keeps as its partial total must not pin the search array
        counts = level_kernel(BM, np.linspace(0.2, 0.8, k)).count(
            np.random.default_rng(1).standard_normal(shape))
        root = counts
        while root.base is not None:
            root = root.base
        assert root.nbytes == counts.nbytes


# -- frozen copies of the uniform-space consumer kernels replaced by the level kernel


def old_field_counts(levels):
    def block_counts(vals):
        vals.sort(axis=0)
        counts = np.empty((vals.shape[1], levels.size), dtype=np.int64)
        for j in range(vals.shape[1]):
            counts[j] = np.searchsorted(vals[:, j], levels, side="right")
        return counts
    return block_counts


def old_cell_moments(idx, ys):
    def pair_counts(vals):
        ind = (vals[:, idx] <= ys[None, :]).astype(np.int64)
        return np.einsum("pi,pj->ij", ind, ind)
    return pair_counts


def old_crossing_counts(probe_cells):
    def block_fn(vals):
        counts = np.zeros((len(probe_cells), 2), dtype=np.int64)
        for j, (it, ball, x) in enumerate(probe_cells):
            xt = vals[:, it]
            sub = vals[:, ball]
            counts[j, 0] = np.count_nonzero((xt <= x) & (sub.max(axis=1) > x))
            counts[j, 1] = np.count_nonzero((sub.min(axis=1) <= x) & (xt > x))
        return counts
    return block_fn


def old_on_uniforms(model, grid, n, seed, fn, workers, **kwargs):
    """The sum of ``fn`` over the uniform blocks of a run, each seen paths x times."""
    return map_path_blocks(model, grid, n, seed, lambda v: fn(to_uniform(model, v).T),
                           workers, **kwargs)


def sampled_levels(model, grid, n, seed, column, picks):
    """Uniform values that the run itself samples, so scores fall inside the bands."""
    u = np.hstack(map_path_blocks(model, grid, n, seed, lambda v: [to_uniform(model, v)])).T
    ordered = np.sort(u[:, column])
    return [float(ordered[p]) for p in picks]


N = 9000    # three seeding blocks
GRID = TimeGrid.uniform(1, 2, 9)
W = parse_weight("pow:0.25")


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("spec", KINDS)
class TestConsumersMatchTheUniformKernels:
    # 6 levels count by popcount and 9 by sorting
    @pytest.mark.parametrize("plain", [[0.1, 0.5, 0.9], [0.1, 0.2, 0.4, 0.6, 0.8, 0.9]],
                             ids=["6-levels", "9-levels"])
    def test_field(self, spec, workers, plain):
        model = parse_model(spec)
        levels = np.array(sorted(plain + sampled_levels(model, GRID, N, 3, 4,
                                                        [10, 4500, 8990])))
        counts = old_on_uniforms(model, GRID, N, 3, old_field_counts(levels), workers)
        expected = W(levels)[None, :] * (counts - N * levels[None, :]) / math.sqrt(N)
        field = evaluate_field_streaming(model, GRID, levels, W, N, 3, workers=workers)
        assert np.array_equal(field, expected)

    def test_cell_moments(self, spec, workers):
        model = parse_model(spec)
        ys = sampled_levels(model, GRID, N, 4, 2, [100, 6000]) + [0.3, 0.7]
        cells = [(float(GRID.points[j]), y) for j in (2, 6) for y in ys]
        idx = np.array([GRID.index_of(t) for t, _ in cells])
        old = old_on_uniforms(model, GRID, N, 4,
                              old_cell_moments(idx, np.array([y for _, y in cells])), workers)
        new = accumulate_cell_moments(model, cells, GRID, N, 4, workers=workers)
        assert np.array_equal(new, old / N)

    def test_crossing_counts(self, spec, workers):
        model = parse_model(spec)
        xs = sampled_levels(model, GRID, N, 5, 4, [50, 3000]) + [0.05, 0.25]
        probe_cells = [(4, GRID.ball_indices(1.5, r), x) for r in (0.13, 0.26) for x in xs]
        old = old_on_uniforms(model, GRID, N, 5, old_crossing_counts(probe_cells), workers)
        new = _crossing_counts(model, GRID, probe_cells, N, 5, workers)
        assert np.array_equal(old, new)

    @pytest.mark.parametrize("refined", [False, True], ids=["grid", "refined"])
    def test_crossing_counts_of_nested_balls(self, monkeypatch, spec, workers, refined):
        # the default sweep's shape: three probe times, each with three nested balls, and
        # four levels shared by every ball, two of them sampled by the run itself
        model, grid = parse_model(spec), GRID.refined() if refined else GRID
        xs = sampled_levels(model, grid, N, 7, grid.index_of(1.5), [50, 3000]) + [0.05, 0.25]
        probe_cells = [(grid.index_of(t), grid.ball_indices(t, r), x)
                       for t in (1.125, 1.5, 1.875) for x in xs for r in (0.13, 0.26, 0.4)]
        old = old_on_uniforms(model, grid, N, 7, old_crossing_counts(probe_cells), workers)
        # a one-value batch and a tiny slice target: slices of 16 paths on 9 times, 8 on 17
        monkeypatch.setattr(models, "_BATCH_VALUES", 1)
        monkeypatch.setattr(models, "_SLICE_VALUES", 144)
        new = _crossing_counts(model, grid, probe_cells, N, 7, workers)
        assert np.array_equal(old, new)

    @pytest.mark.parametrize("batch_values", [None, 1])
    def test_marginal(self, monkeypatch, spec, workers, batch_values):
        if batch_values is not None:
            monkeypatch.setattr(models, "_BATCH_VALUES", batch_values)
        model, n, reps, t = parse_model(spec), 5000, 500, 1.5
        grid = TimeGrid(np.array([t]))
        # a uniform sampled by replication 0, so at least that replication hits the band
        first = np.hstack(map_path_blocks(model, grid, n, 6, lambda v: [to_uniform(model, v)],
                                          stream=parallel.STREAM_REPLICATION,
                                          extra_key=(0,))).T
        y = float(first[123, 0])
        old = np.empty(reps)
        for r in range(reps):
            count = old_on_uniforms(model, grid, n, 6,
                                    lambda v: np.int64(np.count_nonzero(v[:, 0] <= y)), 1,
                                    stream=parallel.STREAM_REPLICATION, extra_key=(r,))
            old[r] = float(W(y)) * (int(count) - n * y) / math.sqrt(n)
        _report, columns = clt_marginal_test(model, W, t, y, n, reps, 6, workers=workers)
        assert np.array_equal(columns["nu"], old)


# -- ndtr runs only on in-band scores


class RecordingNdtr:
    """The ``ndtr`` that weplab.models calls, recording every score it transforms."""

    def __init__(self):
        self.seen = []

    def __call__(self, z):
        self.seen.append(np.array(z, dtype=float).ravel())
        return numerics.ndtr(z)


def in_some_band(z, levels):
    kernel = level_kernel(BM, levels)
    return bool(np.all(((z[:, None] >= kernel.lo) & (z[:, None] <= kernel.hi)).any(axis=1)))


BM_ARGS = ("--model", "bm-copula", "--seed", "5", "--workers", "1")
CLI_PATHS = {
    "simulate": (["simulate", "--n", "5000", "--time-points", "9", "--level-points", "5"],
                 np.linspace(1e-3, 1 - 1e-3, 5)),
    "wl": (["verify", "wl", "--n", "5000", "--time-points", "17"], DEFAULT_WL_X),
    "clt-sup": (["clt", "sup", "--n", "300", "--reps", "60"], [0.2, 0.4, 0.5, 0.8]),
    "clt-marginal": (["clt", "marginal", "--y", "0.3", "--n", "5000", "--reps", "500"],
                     [0.3]),
    "clt-cov": (["clt", "cov", "--reps", "4", "--n-list", "1000,3000"],
                [0.2, 0.4, 0.5, 0.8]),
}


@pytest.mark.filterwarnings("ignore:.*skipped")
@pytest.mark.parametrize("path", sorted(CLI_PATHS))
def test_ndtr_runs_only_on_in_band_scores(tmp_path, monkeypatch, path):
    argv, levels = CLI_PATHS[path]
    recorder = RecordingNdtr()
    monkeypatch.setattr(models, "ndtr", recorder)
    main([*argv, *BM_ARGS, "--out", str(tmp_path / "out")])
    seen = np.concatenate(recorder.seen) if recorder.seen else np.empty(0)
    assert in_some_band(seen, levels)


def test_the_recorder_sees_in_band_scores(monkeypatch):
    # a level equal to a sampled uniform puts that path's score inside its band
    grid = TimeGrid(np.array([1.5]))
    scores = np.hstack(map_path_blocks(BM, grid, 100, 1, lambda v: [v]))
    y = float(np.clip(special.ndtr(scores[0, 7]), OPEN_LO, OPEN_HI))
    recorder = RecordingNdtr()
    monkeypatch.setattr(models, "ndtr", recorder)
    kernel = level_kernel(BM, [y])
    assert kernel.count(scores.copy())[0, 0] == np.count_nonzero(uniform_leq(scores, y))
    seen = np.concatenate(recorder.seen)
    assert scores[0, 7] in seen and in_some_band(seen, [y])
