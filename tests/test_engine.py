"""Empirical field evaluation, joint-frequency accumulation, covariance assembly."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab import models
from weplab.engine import (accumulate_cell_moments, covariance_from_joint,
                           evaluate_field_streaming, replicated_fields)
from weplab.errors import DomainError
from weplab.models import TimeGrid, map_path_blocks, parse_model, to_uniform
from weplab.weights import parse_weight

PINNED_SEED = 20260810

w_const = parse_weight("const:1")
w_two = parse_weight("const:2")


SINGLE_MODEL = parse_model("dependent")
SINGLE_GRID = TimeGrid.uniform(1, 2, 3)


def single_path_value() -> float:
    """The shared uniform draw of the one dependent path at seed 7."""
    return float(map_path_blocks(SINGLE_MODEL, SINGLE_GRID, 1, 7, lambda v: [v])[0][0, 0])


def uniform_paths(model, grid, n, seed):
    """The run's uniform paths as one (n x grid) matrix."""
    return np.hstack(map_path_blocks(model, grid, n, seed, lambda v: [to_uniform(model, v)])).T


def single_path_field(levels):
    return evaluate_field_streaming(SINGLE_MODEL, SINGLE_GRID, levels, w_const, 1, 7)


class TestEvaluateField:
    def test_single_path_closed_form(self):
        u = single_path_value()
        below, above = u / 2.0, (1.0 + u) / 2.0
        field = single_path_field([below, above])
        assert np.all(np.abs(field[:, 0] + below) <= 1e-15)
        assert np.all(np.abs(field[:, 1] - (1.0 - above)) <= 1e-15)

    def test_weight_linearity_exact(self):
        model, grid = parse_model("bm-copula"), TimeGrid.uniform(1, 2, 9)
        levels = [0.2, 0.5, 0.8]
        base = evaluate_field_streaming(model, grid, levels, w_const, 500, 3)
        doubled = evaluate_field_streaming(model, grid, levels, w_two, 500, 3)
        assert np.array_equal(doubled, 2.0 * base)

    @pytest.mark.parametrize("levels", [[float("nan")], [0.5, float("inf")], [0.0], [0.5, 1.0]])
    def test_rejects_levels_outside_the_open_interval(self, levels):
        # a NaN level would count every path under a sort-and-search kernel
        with pytest.raises(DomainError, match=r"strictly inside \(0, 1\)"):
            single_path_field(levels)

    @pytest.mark.parametrize("spec", ["bm-copula", "dependent", "iid-time"])
    def test_counts_match_broadcast_reference(self, spec):
        model, grid, n, seed = parse_model(spec), TimeGrid.uniform(1, 2, 7), 5000, 11
        paths = uniform_paths(model, grid, n, seed)
        # levels that equal sampled values exactly, one of them repeated
        ordered = np.sort(paths[:, 3])
        levels = np.array([ordered[100], 0.25, ordered[2500], ordered[2500], 0.75,
                           ordered[4800]])
        assert np.any(paths == levels[0])
        counts = (paths[:, :, None] <= levels[None, None, :]).sum(axis=0, dtype=np.int64)
        expected = w_const(levels)[None, :] * (counts - n * levels[None, :]) / math.sqrt(n)
        field = evaluate_field_streaming(model, grid, levels, w_const, n, seed)
        np.testing.assert_array_equal(field, expected)

    def test_needs_levels(self):
        with pytest.raises(DomainError):
            single_path_field([])

    def test_boundary_magnitude_bound(self):
        clip, n = 1e-3, 2000
        field = evaluate_field_streaming(parse_model("iid-time"), TimeGrid.uniform(1, 2, 5),
                                         [clip, 1.0 - clip], w_const, n, 5)
        for j, y in enumerate([clip, 1.0 - clip]):
            cap = math.sqrt(n) * max(y, 1.0 - y)
            assert np.all(np.abs(field[:, j]) <= cap + 1e-12)

    def test_partition_invariance_bit_for_bit(self):
        model = parse_model("bm-copula")
        grid = TimeGrid.uniform(1, 2, 17)
        levels = [0.3, 0.6]
        one = evaluate_field_streaming(model, grid, levels, w_const, 10_000, 5, workers=1)
        eight = evaluate_field_streaming(model, grid, levels, w_const, 10_000, 5, workers=8)
        assert np.array_equal(one, eight)

    def test_memory_does_not_grow_with_n(self):
        # the sampler folds the 129 x 33 counts of each path slice into O(log blocks)
        # partial sums as they stream; keeping every slice's counts would add about 3 MiB here
        model, grid, levels = parse_model("bm-copula"), TimeGrid.uniform(), np.linspace(
            0.02, 0.98, 33)
        peaks = []
        for n in (50_000, 400_000):
            tracemalloc.start()
            try:
                evaluate_field_streaming(model, grid, levels, w_const, n, 3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1 << 20

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", ["bm-copula", "dependent", "iid-time", "atomic:0.5@0.5"])
    def test_sliced_replications_give_the_unsliced_fields(self, monkeypatch, spec, workers):
        # 4500 paths on 9 times arrive as whole replications, three to a batch; under
        # one-value batches and 9 x 512-value slices each arrives in nine path slices
        model, grid, levels = parse_model(spec), TimeGrid.uniform(1, 2, 9), [0.2, 0.5, 0.8]
        w = parse_weight("pow:0.25")
        whole = np.concatenate(list(replicated_fields(model, grid, levels, w, 4500, 5,
                                                      PINNED_SEED, workers)))
        monkeypatch.setattr(models, "_BATCH_VALUES", 1)
        monkeypatch.setattr(models, "_SLICE_VALUES", 9 * 512)
        shapes = np.concatenate(list(models.map_replications(model, grid, 4500, 5, PINNED_SEED,
                                                             lambda paths: [paths.shape[-1]],
                                                             workers)))
        assert list(shapes) == ([512] * 8 + [404]) * 5
        sliced = np.concatenate(list(replicated_fields(model, grid, levels, w, 4500, 5,
                                                       PINNED_SEED, workers)))
        assert np.array_equal(sliced, whole)

    def test_weight_is_evaluated_once_per_run(self):
        # 5 replications of 4500 paths on 9 times arrive in two batches, which share
        # one array of weights
        w, calls = parse_weight("pow:0.25"), []

        def counting(x):
            calls.append(x)
            return w(x)
        fields = list(replicated_fields(parse_model("bm-copula"), TimeGrid.uniform(1, 2, 9),
                                        [0.2, 0.5], counting, 4500, 5, PINNED_SEED))
        assert len(fields) == 2 and len(calls) == 1

    def test_replication_mean_and_variance(self):
        model = parse_model("bm-copula")
        grid = TimeGrid(np.array([1.5]))
        reps, n = 200, 2000
        vals = np.concatenate(list(replicated_fields(model, grid, [0.3], w_const, n, reps,
                                                     PINNED_SEED)))[:, 0, 0]
        se = np.std(vals, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(vals)) <= 4 * se
        assert np.var(vals, ddof=1) == pytest.approx(0.21, abs=0.05)


class TestCellMoments:
    def test_accumulate_worker_invariance(self):
        model = parse_model("bm-copula")
        grid = TimeGrid(np.array([1.0, 2.0]))
        cells = [(1.0, 0.5), (2.0, 0.5)]
        a = accumulate_cell_moments(model, cells, grid, 20_000, 9, workers=1)
        b = accumulate_cell_moments(model, cells, grid, 20_000, 9, workers=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec", ["bm-copula", "dependent", "iid-time", "atomic:0.5@0.5"])
    def test_pair_counts_are_the_brute_force_counts(self, spec, workers):
        # three batches of whole blocks on 3 times; the last, 18,080 paths, ends inside a word
        model, grid, n, seed = parse_model(spec), TimeGrid(np.array([1.0, 1.5, 2.0])), 100_000, 4
        u = uniform_paths(model, grid, n, seed)
        # a sampled uniform as a level puts that path's score inside its band
        y_in_band = float(u[4321, 2])
        # unsorted cells, times 2.0 and 1.0 repeated, time 1.5 with one level
        cells = [(2.0, 0.7), (1.0, 0.3), (2.0, y_in_band), (1.5, 0.5), (2.0, 0.2), (1.0, 0.9)]
        f = np.column_stack([u[:, grid.index_of(t)] <= y for t, y in cells]).astype(np.int64)
        got = accumulate_cell_moments(model, cells, grid, n, seed, workers=workers)
        assert np.array_equal(got, (f.T @ f) / n)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [63, 65, 100_000])
    def test_pair_counts_when_paths_end_inside_a_word(self, n, workers):
        # 100,000 paths end in a 1,696-path block, and their last batch, 34,464 paths,
        # ends inside a word
        model, grid = parse_model("bm-copula"), TimeGrid(np.array([1.0, 2.0]))
        u = uniform_paths(model, grid, n, 11)
        cells = [(1.0, 0.3), (2.0, 0.6), (1.0, 0.8)]
        f = np.column_stack([u[:, grid.index_of(t)] <= y for t, y in cells]).astype(np.int64)
        got = accumulate_cell_moments(model, cells, grid, n, 11, workers=workers)
        assert np.array_equal(got, (f.T @ f) / n)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", [65, 100_000])
    def test_padding_bits_never_count(self, n, workers):
        # X_t <= 1 holds on every path and X_t <= 0 on none: if a word's padding
        # bits counted, the first diagonal would exceed n
        model, grid = parse_model("bm-copula"), TimeGrid(np.array([1.0, 2.0]))
        cells = [(1.0, 1.0), (2.0, 0.0), (2.0, 0.5)]
        got = accumulate_cell_moments(model, cells, grid, n, 3, workers=workers)
        assert got[0, 0] == 1.0 and got[0, 2] == got[2, 0] == got[2, 2]
        assert not got[1].any() and not got[:, 1].any()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_pair_counts_over_more_than_64_cells(self, workers):
        model, grid, n = parse_model("bm-copula"), TimeGrid(np.array([1.0, 1.5, 2.0])), 5000
        u = uniform_paths(model, grid, n, 6)
        cells = [(t, y) for t in (2.0, 1.0, 1.5) for y in np.linspace(0.02, 0.98, 23)]
        f = np.column_stack([u[:, grid.index_of(t)] <= y for t, y in cells]).astype(np.int64)
        got = accumulate_cell_moments(model, cells, grid, n, 6, workers=workers)
        assert len(cells) == 69
        assert np.array_equal(got, (f.T @ f) / n)

    def test_covariance_from_joint_target(self):
        model = parse_model("bm-copula")
        grid = TimeGrid(np.array([1.0, 2.0]))
        cells = [(1.0, 0.5), (2.0, 0.5)]
        joint = accumulate_cell_moments(model, cells, grid, 200_000, PINNED_SEED)
        cov = covariance_from_joint(joint, cells, w_const)
        assert np.array_equal(cov, cov.T)  # the pair counts are mirrored
        assert cov[0, 1] == pytest.approx(0.125, abs=0.005)
        assert cov[0, 0] == pytest.approx(0.25, abs=0.005)


class TestCovarianceBits:
    @given(st.data(), st.sampled_from(["const:1", "const:3", "pow:0.1", "pow:0.25", "pow:0.45"]))
    @settings(max_examples=200, deadline=None)
    def test_row_wise_assembly_has_the_bits_of_the_outer_products(self, data, spec):
        k = data.draw(st.integers(min_value=1, max_value=12))
        ys = data.draw(st.lists(st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
                                min_size=k, max_size=k))
        joint = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                            min_size=k * k, max_size=k * k))).reshape(k, k)
        w = parse_weight(spec)
        wv, y = np.array([float(w(v)) for v in ys]), np.array(ys)
        expected = np.outer(wv, wv) * joint - np.outer(wv * y, wv * y)
        got = covariance_from_joint(joint, [(1.0, v) for v in ys], w)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
