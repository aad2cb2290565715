"""Process models: marginals, joint CDFs, determinism, the scaled-path sup mean."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weplab import models, parallel
from weplab.errors import DomainError
from weplab.models import (TimeGrid, joint_cdf_matrix, map_path_blocks, map_replications,
                           parse_model, to_uniform)
from weplab.numerics import (bvn_cdf, ks_statistic_one_sample, std_normal_cdf,
                             std_normal_quantile)

from lemma_reference import rho_metric
from transform_reference import dist_transform, uniform_atom_mixture

PINNED_SEED = 20260810

uniform_cdf = lambda u: np.clip(u, 0.0, 1.0)


def sample(spec, grid, n, seed, workers=1):
    """All n uniform paths as an (n x grid) matrix, from the streamed time-major batches."""
    model = parse_model(spec)
    return np.hstack(map_path_blocks(model, grid, n, seed, lambda v: [to_uniform(model, v)],
                                     workers)).T


class TestTimeGrid:
    def test_uniform_default(self):
        g = TimeGrid.uniform()
        assert g.a == 1.0 and g.b == 2.0 and len(g) == 129

    def test_requires_positive_start(self):
        with pytest.raises(DomainError):
            TimeGrid(np.array([0.0, 1.0]))
        with pytest.raises(DomainError):
            TimeGrid(np.array([1.0, 1.0]))

    def test_refined_doubles_density(self):
        g = TimeGrid.uniform(1, 2, 9)
        r = g.refined()
        assert len(r) == 17
        assert r.a == g.a and r.b == g.b
        assert set(np.round(g.points, 12)).issubset(set(np.round(r.points, 12)))

    def test_index_and_ball(self):
        g = TimeGrid.uniform(1, 2, 129)
        assert g.index_of(1.5) == 64
        ball = g.ball_indices(1.5, 2.5 / 128)
        assert list(ball) == [62, 63, 64, 65, 66]
        with pytest.raises(DomainError):
            g.index_of(1.5001)
        # every time within 1e-9 of a grid time, as the absolute tolerance had it
        for d in (-0.999e-9, 0.999e-9):
            assert [g.index_of(float(s) + d) for s in g.points] == list(range(129))

    def test_tolerances_scale_with_a_grid_of_tiny_times(self):
        g = TimeGrid.uniform(1e-12, 2e-12, 129)
        assert [g.index_of(float(s)) for s in g.points] == list(range(129))
        for t in (-5e-10, 1.5e-10):
            with pytest.raises(DomainError, match="not on the grid"):
                g.index_of(t)
        # times 7.8e-17 apart: a ball of radius 0 holds its centre alone
        fine = TimeGrid.uniform(1e-14, 2e-14, 129)
        assert list(fine.ball_indices(float(fine.points[64]), 0.0)) == [64]

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_not_on_the_grid(self, t):
        # every distance to a NaN is NaN, so argmin picks index 0 and no tolerance holds
        with pytest.raises(DomainError, match="not on the grid"):
            TimeGrid.uniform(1, 2, 129).index_of(t)


class TestModelParsing:
    def test_kinds(self):
        assert parse_model("bm-copula").kind == "bm-copula"
        assert parse_model("DEPENDENT").kind == "dependent"
        m = parse_model("atomic:0.3@0.6")
        assert m.atom_mass == 0.3 and m.atom_loc == 0.6

    def test_rejects_garbage(self):
        for bad in ("", "bm", "atomic:", "atomic:2@0.5", "atomic:0.5@nan", "atomic:0.5@inf",
                    "atomic:nan@0.5"):
            with pytest.raises(DomainError):
                parse_model(bad)

    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_describe_parses_back(self, mass, loc):
        m = models.ProcessModel("atomic", mass, loc)
        assert parse_model(m.describe()) == m

    def test_describe_keeps_short_specs(self):
        for spec in ("bm-copula", "dependent", "iid-time", "atomic:0.5@0.5"):
            assert parse_model(spec).describe() == spec
        assert parse_model("atomic:0.12345678@1234567").describe() == \
            "atomic:0.12345678@1234567"

    def test_out_of_range_atom_is_named(self):
        # a well-formed spec with a bad value is not blamed on its syntax
        for bad in ("atomic:1.5@0.5", "atomic:0.5@inf"):
            with pytest.raises(DomainError, match=re.escape("atom mass must lie in (0, 1)")):
                parse_model(bad)
        with pytest.raises(DomainError, match="bad atomic model spec"):
            parse_model("atomic:x@0.5")


class TestSampling:
    @pytest.mark.parametrize("spec", ["bm-copula", "dependent", "iid-time",
                                      "atomic:0.5@0.5"])
    def test_marginal_uniformity(self, spec):
        grid = TimeGrid.uniform(1, 2, 17)
        values = sample(spec, grid, 100_000, PINNED_SEED)
        for col in (0, 8, 16):
            d = ks_statistic_one_sample(values[:, col], uniform_cdf)
            assert d < 1.63 / math.sqrt(values.shape[0]), (spec, col, d)

    def test_values_strictly_inside_unit_interval(self):
        grid = TimeGrid.uniform(1, 2, 9)
        values = sample("bm-copula", grid, 20_000, 3)
        assert np.all(values > 0.0)
        assert np.all(values < 1.0)

    def test_dependent_constant_in_time(self):
        values = sample("dependent", TimeGrid.uniform(1, 2, 9), 100, 7)
        assert np.all(values == values[:, :1])

    def test_worker_partition_invariance(self):
        grid = TimeGrid.uniform(1, 2, 33)
        for spec in ("bm-copula", "iid-time", "atomic:0.5@0.5"):
            one = sample(spec, grid, 10_000, 11, workers=1)
            eight = sample(spec, grid, 10_000, 11, workers=8)
            assert np.array_equal(one, eight), spec

    def test_deterministic_across_runs(self):
        grid = TimeGrid.uniform(1, 2, 9)
        a = sample("bm-copula", grid, 5000, 5)
        b = sample("bm-copula", grid, 5000, 5)
        assert np.array_equal(a, b)

    def test_needs_paths(self):
        with pytest.raises(DomainError):
            map_path_blocks(parse_model("dependent"), TimeGrid.uniform(), 0, 1, lambda v: v)

    def test_bm_copula_is_transformed_brownian(self):
        # path values are exactly the normal cdf of the scaled Brownian path
        grid = TimeGrid.uniform(1, 2, 9)
        values = sample("bm-copula", grid, 3000, 13)
        b = path_major_reference(parse_model("bm-copula"), grid, 3000, 13, brownian=True)
        x = np.clip(std_normal_cdf(b / np.sqrt(grid.points)), 5e-324,
                    np.nextafter(1.0, 0.0))
        assert np.array_equal(values, x)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("points", [9, 129, 257])
    def test_bm_copula_native_block_is_the_score(self, points, workers):
        # 7,000 paths are a full and a partial seeding block: on 9 times both come in one
        # batch, on 129 times in 1,024-path slices, on 257 in 512-path slices
        grid = TimeGrid.uniform(1, 2, points)
        model = parse_model("bm-copula")
        scores = np.hstack(map_path_blocks(model, grid, 7000, 13, lambda v: [v], workers))
        assert np.array_equal(scores, path_major_reference(model, grid, 7000, 13).T)

    @pytest.mark.parametrize("spec", ["dependent", "iid-time", "atomic:0.5@0.5"])
    def test_to_uniform_is_the_identity_off_the_bm_copula(self, spec):
        block = np.linspace(0.1, 0.9, 6).reshape(2, 3)
        assert to_uniform(parse_model(spec), block) is block

    @pytest.mark.parametrize("width", [1, 2, 4, 17, 129])
    def test_brownian_cumsum_is_numpy_cumsum(self, width):
        grid = TimeGrid(np.linspace(1.0, 2.0, width))
        sqrt_dt = np.sqrt(np.diff(np.concatenate([[0.0], grid.points])))
        z = np.random.default_rng(width).standard_normal((width, 4097))
        expected = np.cumsum(z * sqrt_dt[:, None], axis=0)
        assert np.array_equal(models._brownian_paths(z.copy(), grid), expected)
        # and on a stack of replications, along the time axis
        stack = z.reshape(1, width, 4097).repeat(3, axis=0)
        assert np.array_equal(models._brownian_paths(stack, grid), np.stack([expected] * 3))


ALL_KINDS = ["bm-copula", "dependent", "iid-time", "atomic:0.5@0.5"]


class TestPathSlices:
    @pytest.mark.parametrize("slice_values,width", [(1, 1), (5 * 512, 512), (5 * 2048, 2048),
                                                    (5 * 2900, 4096), (1 << 20, 4096)])
    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_slices_hold_the_block_values(self, monkeypatch, spec, slice_values, width):
        # both blocks of 5000 paths on 5 times fit one batch; a one-value batch cap streams
        # them block by block, cut into the power-of-two slices nearest the slice cap
        model, grid = parse_model(spec), TimeGrid.uniform(1, 2, 5)
        whole = map_path_blocks(model, grid, 5000, 4, lambda v: [v])
        assert [v.shape for v in whole] == [(5, 5000)]
        monkeypatch.setattr(models, "_BATCH_VALUES", 1)
        monkeypatch.setattr(models, "_SLICE_VALUES", slice_values)
        for workers in (1, 2):
            sliced = map_path_blocks(model, grid, 5000, 4, lambda v: [v], workers)
            assert np.array_equal(np.hstack(sliced), whole[0])
            cuts = [*range(0, 4096, width), *range(4096, 5000, width), 5000]
            assert [v.shape[1] for v in sliced] == [b - a for a, b in zip(cuts, cuts[1:])]

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_wide_blocks_reach_fn_in_power_of_two_slices(self, monkeypatch, spec):
        # 513 x 4096 is 16 x 2^17 values: sixteenths of a block, the partial last one of
        # 2100 paths cut at the same path offsets
        model, grid = parse_model(spec), TimeGrid.uniform(1, 2, 513)
        col_sums = lambda v: [(v.shape, v.sum(axis=0))]
        got = map_path_blocks(model, grid, 6196, 9, col_sums)
        assert [shape for shape, _ in got] == [(513, 256)] * 24 + [(513, 52)]
        monkeypatch.setattr(models, "_SLICE_VALUES", 1 << 30)
        whole = map_path_blocks(model, grid, 6196, 9, col_sums)
        assert [shape for shape, _ in whole] == [(513, 4096), (513, 2100)]
        assert np.array_equal(np.concatenate([s for _, s in got]),
                              np.concatenate([s for _, s in whole]))

    @pytest.mark.parametrize("times,width", [(65, 2048), (129, 1024), (257, 512)])
    def test_block_slices_stay_near_1_mib(self, times, width):
        # 65 x 4096 values arrive in halves, 129 in quarters, 257 in eighths; the last
        # block of 904 paths is cut at the same path offsets
        shapes = map_path_blocks(parse_model("bm-copula"), TimeGrid.uniform(1, 2, times), 5000,
                                 1, lambda v: [v.shape])
        last = [*range(0, 904, width), 904]
        assert shapes == [(times, width)] * (4096 // width) + \
            [(times, b - a) for a, b in zip(last, last[1:])]

    def test_every_array_holds_at_most_sqrt_2_times_the_cap(self, monkeypatch):
        # the rule alone, so the filler draws nothing: whole runs or batches of whole
        # seeding blocks, or path slices of one block cut at multiples of one
        # power-of-two width, each of at most sqrt(2) * 2^17 values
        monkeypatch.setattr(models, "_filler", lambda model, count, words: lambda out, _: out)
        block, model = parallel.BLOCK_SIZE, parse_model("dependent")
        cap = math.sqrt(2) * (1 << 17)
        for times in range(1, 601):
            grid = TimeGrid(np.linspace(1.0, 2.0, times))
            for n in (1, 4095, 4097, 9000):
                sizes = np.concatenate(list(map_replications(model, grid, n, 3, 0,
                                                             lambda v: [v.size])))
                assert sizes.max() <= cap
                widths = map_path_blocks(model, grid, n, 0, lambda v: [v.shape[1]])
                cuts = np.cumsum([0, *widths])
                assert cuts[-1] == n
                for a, b in zip(cuts, cuts[1:]):
                    assert (b - a) * times <= cap
                    if a % block == 0 and (b % block == 0 or b == n):
                        continue
                    assert a // block == (b - 1) // block
                    assert block % widths[0] == 0 and a % widths[0] == 0
                    assert b - a == widths[0] or b == n

    @pytest.mark.parametrize("blocks_per_batch", [None, 2])
    def test_narrow_grids_batch_whole_blocks(self, monkeypatch, blocks_per_batch):
        grid = TimeGrid.uniform(1, 2, 4)
        if blocks_per_batch is not None:
            monkeypatch.setattr(models, "_BATCH_VALUES", blocks_per_batch * 4096 * 4)
        shapes = map_path_blocks(parse_model("bm-copula"), grid, 3 * 4096 + 17, 1,
                                 lambda v: [v.shape])
        # 2^17 values hold 8 blocks of 4096 x 4
        assert shapes == ([(4, 3 * 4096 + 17)] if blocks_per_batch is None
                          else [(4, 2 * 4096), (4, 4096 + 17)])


def path_major_reference(model, grid, n, seed, stream=parallel.STREAM_PATHS, brownian=False):
    """(n x times) native paths, drawn block by block straight from the block generators."""
    sqrt_dt = np.sqrt(np.diff(np.concatenate([[0.0], grid.points])))
    sqrt_t = np.sqrt(grid.points)
    rows = []
    for j, start, stop in parallel.iter_blocks(n):
        rng = parallel.rng_from_words(parallel.seed_words(seed, [(stream, j)])[0])
        count = stop - start
        if brownian or model.kind == "bm-copula":
            b = np.cumsum(rng.standard_normal((count, len(grid))) * sqrt_dt, axis=1)
            rows.append(b if brownian else b / sqrt_t)
        elif model.kind == "iid-time":
            rows.append(rng.random((count, len(grid))))
        else:
            if model.kind == "dependent":
                u = rng.random(count)
            else:
                df = uniform_atom_mixture(model.atom_mass, model.atom_loc)
                v = parallel.rng_from_words(
                    parallel.seed_words(seed, [(parallel.STREAM_RANDOMIZER, j)])[0]).random(count)
                u = np.clip(dist_transform(df, df.sample(count, rng), v),
                            5e-324, np.nextafter(1.0, 0.0))
            rows.append(np.repeat(u[:, None], len(grid), axis=1))
    return np.vstack(rows)


class TestTimeMajorLayout:
    """Every sampler hands ``fn`` time-major arrays holding the path-major block draws."""

    N = 3 * parallel.BLOCK_SIZE + 17

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("grid", [TimeGrid.uniform(1, 2, 4), TimeGrid.uniform().refined()],
                             ids=["4-times", "257-times"])
    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_path_blocks_are_the_block_draws_transposed(self, spec, grid, workers):
        model = parse_model(spec)
        got = map_path_blocks(model, grid, self.N, 8, lambda v: [v], workers)
        # one batch of four blocks on 4 times; eight path slices per full block on 257
        assert len(got) == (1 if len(grid) == 4 else 25)
        assert all(v.shape[0] == len(grid) and v.flags.c_contiguous for v in got)
        assert np.array_equal(np.hstack(got), path_major_reference(model, grid, self.N, 8).T)


class TestAtomicSampler:
    """The atomic model's inline transform draws the reference transform's bits."""

    # the reference DistFn takes a mass within 1e-12 of 1 for a pure atom and refuses it
    @given(st.integers(0, 2**40),
           st.floats(0.0, 1.0 - 1e-12, exclude_min=True, exclude_max=True),
           st.one_of(st.sampled_from([0.0, 1.0, -3.0, 2.5, 1e-300]),
                     st.floats(allow_nan=False, allow_infinity=False)),
           st.integers(1, 2 * parallel.BLOCK_SIZE + 5))
    @settings(max_examples=60)
    def test_blocks_are_the_reference_transform(self, seed, mass, loc, n):
        model, grid = models.ProcessModel("atomic", mass, loc), TimeGrid(np.array([1.0, 2.0]))
        got = np.hstack(map_path_blocks(model, grid, n, seed, lambda v: [v]))
        want = path_major_reference(model, grid, n, seed).T
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_mass_next_to_one_samples(self):
        # beyond the reference's reach, yet a valid model: almost every draw is the atom
        n = 4000
        u = sample("atomic:0.9999999999999999@0.5", TimeGrid(np.array([1.0, 2.0])), n, 3)
        assert np.all((u > 0.0) & (u < 1.0))
        assert ks_statistic_one_sample(u[:, 0], uniform_cdf) < 1.63 / math.sqrt(n)


class TestMergeOrder:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_block_results_are_added_in_stream_order(self, workers):
        # float column sums round by the order of their additions, so the sampler's
        # total is the left fold of its results in block order at every worker count.
        # On 33 times each call is one whole block
        model, grid = parse_model("bm-copula"), TimeGrid.uniform(1, 2, 33)
        n = 4 * parallel.BLOCK_SIZE + 17
        returned = []

        def column_sums(v):
            sums = v.sum(axis=1)
            returned.append(sums)
            return sums

        got = map_path_blocks(model, grid, n, 5, column_sums, workers)
        parts = map_path_blocks(model, grid, n, 5, lambda v: [v.sum(axis=1)], workers)
        assert len(parts) == 5
        assert np.array_equal(got, functools.reduce(np.add, parts))
        # never added in place: every array the consumer returned still holds its own sum
        assert sorted(a.tobytes() for a in returned) == sorted(p.tobytes() for p in parts)


def replications_by_block(model, grid, n, reps, seed):
    """(reps x times x n): replication r as ``map_path_blocks`` streams it with key (r,)."""
    return np.stack([np.hstack(map_path_blocks(model, grid, n, seed, lambda v: [v],
                                               stream=parallel.STREAM_REPLICATION,
                                               extra_key=(r,)))
                     for r in range(reps)])


class Joined(np.ndarray):
    """An array whose ``+`` joins paths: a consumer returning it gets back whole replications."""

    def __add__(self, other):
        return np.concatenate([self, other], axis=-1).view(Joined)


class TestMapReplications:
    @pytest.mark.parametrize("batch_values", [None, 1, 3])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n,times", [(1, (1.5,)), (1, (1.0, 1.5, 2.0)),
                                         (4096, (1.0, 1.5, 2.0)),
                                         (4097, (1.0, 1.25, 1.5, 1.75, 2.0))])
    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_replication_equals_its_blocks(self, monkeypatch, spec, n, times, workers,
                                           batch_values):
        if batch_values is not None:
            monkeypatch.setattr(models, "_BATCH_VALUES", batch_values)
        model, grid = parse_model(spec), TimeGrid(np.array(times))
        wide = n * len(grid) > models._BATCH_VALUES
        batch = 1 if wide else models._BATCH_VALUES // (n * len(grid))
        # two batches and a part, or one part of a batch when batches are huge
        reps = 2 * batch + 1 if batch <= 32 else 7
        sizes = np.concatenate(list(map_replications(model, grid, n, reps, 17,
                                                     lambda paths: [len(paths)], workers)))
        # a replication wider than the cap arrives one seeding block at a time
        assert list(sizes) == ([1] * -(-n // 4096) * reps if wide else
                               [min(batch, reps - i) for i in range(0, reps, batch)])
        got = np.concatenate(list(map_replications(model, grid, n, reps, 17,
                                                   lambda paths: paths.copy().view(Joined),
                                                   workers)))
        # batches are time-major, as the path blocks are
        assert got.shape == (reps, len(grid), n)
        assert np.array_equal(got, replications_by_block(model, grid, n, reps, 17))

    def test_batch_holds_at_most_the_cap(self):
        grid = TimeGrid.uniform(1, 2, 4)
        sizes = np.concatenate(list(map_replications(parse_model("bm-copula"), grid, 5000, 40, 3,
                                                     lambda paths: [paths.size])))
        # 2^17 values hold 6 replications of 5000 x 4
        assert list(sizes) == [6 * 5000 * 4] * 6 + [4 * 5000 * 4]
        assert max(sizes) <= models._BATCH_VALUES

    def test_wide_replications_arrive_in_path_slices(self):
        # 5000 x 129 values exceed the cap: each replication arrives in the path
        # slices of map_path_blocks, and the results add up per replication
        model, grid = parse_model("bm-copula"), TimeGrid.uniform()
        shapes = np.concatenate(list(map_replications(model, grid, 5000, 2, 3,
                                                      lambda paths: [paths.shape])))
        assert [tuple(s) for s in shapes] == [(1, 129, 1024)] * 4 + [(1, 129, 904)] + \
            [(1, 129, 1024)] * 4 + [(1, 129, 904)]
        counts = np.concatenate(list(map_replications(model, grid, 5000, 2, 3,
                                                      lambda paths: np.array([1]))))
        assert list(counts) == [5, 5]

    def test_needs_paths_and_replications(self):
        model, grid = parse_model("bm-copula"), TimeGrid.uniform(1, 2, 4)
        for n, reps in ((0, 5), (5, 0), (5, -3)):
            with pytest.raises(DomainError):
                np.concatenate(list(map_replications(model, grid, n, reps, 1,
                                                     lambda paths: paths)))


class TestJointCdf:
    def test_equal_times_comonotone(self):
        m = parse_model("bm-copula")
        assert joint_cdf_matrix(m, ((1.5, 0.3), (1.5, 0.7)))[0, 1] == 0.3

    def test_wide_grid_sheppard(self):
        m = parse_model("bm-copula")
        assert joint_cdf_matrix(m, ((1.0, 0.5), (4.0, 0.5)))[0, 1] == pytest.approx(
            1.0 / 3.0, abs=1e-9)

    def test_dependent_and_iid(self):
        cells = ((1.0, 0.2), (1.5, 0.4))
        assert joint_cdf_matrix(parse_model("dependent"), cells)[0, 1] == 0.2
        assert joint_cdf_matrix(parse_model("iid-time"), cells)[0, 1] == pytest.approx(0.08)

    def test_exchange_symmetry(self):
        m = parse_model("bm-copula")
        for (s, t, x, y) in [(1.0, 1.7, 0.2, 0.6), (1.2, 1.9, 0.8, 0.3)]:
            assert joint_cdf_matrix(m, ((s, x), (t, y)))[0, 1] == pytest.approx(
                joint_cdf_matrix(m, ((t, y), (s, x)))[0, 1], abs=1e-14)

    def test_atomic_is_comonotone(self):
        # an atomic path holds one uniform draw at every time
        m = parse_model("atomic:0.5@0.5")
        assert joint_cdf_matrix(m, ((1.0, 0.2), (1.5, 0.4)))[0, 1] == 0.2
        assert joint_cdf_matrix(m, ((2.0, 0.7), (1.0, 0.5)))[0, 1] == 0.5

    @pytest.mark.parametrize("spec", ALL_KINDS)
    def test_agrees_with_monte_carlo(self, spec):
        m = parse_model(spec)
        times = (1.0, 1.4, 2.0)
        grid = TimeGrid(np.array(times))
        n = 100_000
        values = sample(spec, grid, n, PINNED_SEED)
        levels = (0.2, 0.5, 0.8)
        cells = [(i, x) for i in range(len(times)) for x in levels]
        joint = joint_cdf_matrix(m, [(times[i], x) for i, x in cells])
        for a, (i, x) in enumerate(cells):
            for b, (j, y) in enumerate(cells):
                p_hat = float(np.mean((values[:, i] <= x) & (values[:, j] <= y)))
                p = joint[a, b]
                se = math.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(p_hat - p) <= 4 * se, (times[i], times[j], x, y)


def scalar_joint(kind, s, t, x, y):
    """The per-pair closed form, one scalar quantile and bvn_cdf call per pair."""
    if kind in ("dependent", "atomic:0.5@0.5"):
        return min(x, y)
    if kind == "iid-time":
        return min(x, y) if s == t else x * y
    if s == t:
        return min(x, y)
    rho = math.sqrt(min(s, t) / max(s, t))
    return bvn_cdf(std_normal_quantile(x), std_normal_quantile(y), rho)


def scalar_joint_matrix(kind, cells):
    k = len(cells)
    out = np.empty((k, k))
    for i, (s, x) in enumerate(cells):
        for j in range(i, k):
            t, y = cells[j]
            out[i, j] = out[j, i] = scalar_joint(kind, s, t, x, y)
    return out


# sqrt(s/t) over these times falls below 0.3, in [0.3, 0.75), in [0.75, 0.925)
# and at or above 0.925
SWEEP_TIMES = (0.05, 0.5, 0.7, 1.0, 1.1, 2.0)
SWEEP_LEVELS = (0.001, 0.1, 0.3, 0.5, 0.97, 0.999)
CLOSED_FORM_KINDS = ("bm-copula", "dependent", "iid-time", "atomic:0.5@0.5")


class TestJointCdfMatrix:
    @given(st.sampled_from(CLOSED_FORM_KINDS),
           st.lists(st.tuples(st.sampled_from(SWEEP_TIMES) | st.floats(0.01, 4.0),
                              st.sampled_from(SWEEP_LEVELS) | st.floats(1e-4, 1 - 1e-4)),
                    min_size=1, max_size=14))
    @settings(max_examples=150)
    def test_matches_scalar_double_loop_bits(self, kind, cells):
        m = parse_model(kind)
        expected = scalar_joint_matrix(kind, cells)
        np.testing.assert_array_equal(joint_cdf_matrix(m, cells), expected)
        # an entry does not depend on the other cells
        assert joint_cdf_matrix(m, [cells[0], cells[-1]])[0, 1] == expected[0, -1]

    @pytest.mark.parametrize("kind", CLOSED_FORM_KINDS)
    def test_every_band_and_repeated_levels(self, kind):
        # 30 x 30 pairs span several 256-pair batches
        cells = [(t, y) for t in SWEEP_TIMES for y in SWEEP_LEVELS[:4] + (0.3,)]
        rhos = {math.sqrt(s / t) for s in SWEEP_TIMES for t in SWEEP_TIMES if s < t}
        assert min(rhos) < 0.3 and max(rhos) >= 0.925
        assert any(0.3 <= r < 0.75 for r in rhos) and any(0.75 <= r < 0.925 for r in rhos)
        got = joint_cdf_matrix(parse_model(kind), cells)
        np.testing.assert_array_equal(got, scalar_joint_matrix(kind, cells))
        np.testing.assert_array_equal(got, got.T)

    def test_domain(self):
        m = parse_model("bm-copula")
        with pytest.raises(DomainError):
            joint_cdf_matrix(m, [(1.0, 0.5), (1.5, 1.0)])
        with pytest.raises(DomainError):
            joint_cdf_matrix(m, [(0.0, 0.5)])
        cells = [(1.0, 0.5), (1.5, 0.2), (2.0, 0.9)]
        np.testing.assert_array_equal(joint_cdf_matrix(parse_model("atomic:0.5@0.5"), cells),
                                      [[0.5, 0.2, 0.5], [0.2, 0.2, 0.2], [0.5, 0.2, 0.9]])


class TestRhoMetric:
    def test_examples(self):
        assert rho_metric(1.3, 1.3, 5.0) == 0.0
        assert rho_metric(1.0, 2.0, 7.0) == 1.0
        assert rho_metric(1.0, 1.01, 5.0) == pytest.approx(0.01 ** 0.2, rel=1e-12)

    def test_domain(self):
        for theta in (4.0, float("nan")):
            with pytest.raises(DomainError):
                rho_metric(1.0, 1.5, theta)
