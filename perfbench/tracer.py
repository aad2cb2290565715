"""Per-layer spans recorded from outside the weplab package.

``Tracer`` replaces public weplab functions with wrappers that record a span
(name, parent, start, end) around each call.  ``from .x import y`` binds a
copy of the name in the importing module, so every module attribute that
holds the original function object is replaced, not only the defining one.
A layer is the weplab module a span belongs to; its self time is the span's
duration minus the time its child spans cover.

Span nesting uses one stack, so it is exact only when weplab runs on one
thread (``--workers 1``).  ``ParallelProbe`` is the thread-safe counterpart
for runs with more workers: it only times ``parallel.map_blocks`` and the
block functions it runs.

A function that a later version of weplab no longer has is skipped, and its
metrics read 0; ROADMAP item 4 plans to delete some of the wrapped ones.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

_clock = time.perf_counter


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _rebind(orig, wrapped) -> None:
    """Replace ``orig`` by ``wrapped`` wherever a weplab module binds it.

    ``wrapped.__wrapped__`` is set, so a later wrapper of the same function
    still sees the original signature.
    """
    wrapped.__wrapped__ = orig
    for name, module in list(sys.modules.items()):
        if name != "weplab" and not name.startswith("weplab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, wrapped)


class _Params:
    """Reads and replaces a function's arguments by parameter name.

    ``inspect.Signature.bind`` does the same at about 20 us a call, which
    is too slow for the thousands of calls a workload makes.
    """

    def __init__(self, fn):
        params = inspect.signature(fn).parameters
        self._index = {name: i for i, name in enumerate(params)}
        self._default = {name: p.default for name, p in params.items()}

    def get(self, args, kwargs, name):
        i = self._index[name]
        return args[i] if i < len(args) else kwargs.get(name, self._default[name])

    def replace(self, args, kwargs, name, value):
        i = self._index[name]
        if i < len(args):
            return args[:i] + (value,) + args[i + 1:], kwargs
        return args, {**kwargs, name: value}


class Tracer:
    """Spans and counters around weplab's public functions, one thread only."""

    def __init__(self):
        self.spans: list[tuple] = []      # (name, id, parent id or -1, start, end)
        self._open: list[int] = [-1]      # ids of the open spans
        self._ids = itertools.count()
        self.counts: dict[str, int] = defaultdict(int)
        self.rep_ms: list[float] = []     # evaluate_field_streaming latencies
        self.jitter = 0.0
        self.probe = ParallelProbe()      # parallel.map_s and parallel.busy_s

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records a span called ``name``."""
        spans, stack, ids = self.spans, self._open, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((name, span_id, parent, start, _clock()))
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _callback(self, fn):
        """A block or consumer callback, attributed to the module defining it."""
        return self.span(f"{_layer(getattr(fn, '__module__', None) or 'other')}.callback", fn)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every measured layer.

        ``transforms`` is only exercised by the atomic model and is left
        unmeasured.
        """
        from weplab import cli, engine, limits, models, numerics, parallel, verifiers, weights

        plain = [
            (numerics, ("std_normal_cdf", "std_normal_quantile", "bvn_cdf",
                        "ks_statistic_one_sample", "ks_statistic_two_sample")),
            (models, ("joint_cdf",)),
            (parallel, ("derive_rng", "tree_reduce")),
            (limits, ("sample_limit_field",)),
            (verifiers, ("wl_estimate", "clt_marginal_test", "clt_covariance_convergence",
                         "clt_sup_comparison")),
            (cli, ("write_json", "write_csv")),
        ]
        hooks = [
            (models, "sample_paths", self._sample_paths),
            (models, "map_path_blocks", self._stream),
            (models, "map_brownian_blocks", self._stream),
            (parallel, "map_blocks", self._map_blocks),
            (engine, "evaluate_field", self._evaluate_field),
            (engine, "evaluate_field_streaming", self._evaluate_field_streaming),
            (engine, "accumulate_cell_moments", self._accumulate_cell_moments),
            (engine, "export_field_csv", self._export_field_csv),
            (limits, "build_limit_model", self._build_limit_model),
        ]
        hooks += [(module, name, self.span) for module, names in plain for name in names]
        for module, name, hook in hooks:
            orig = getattr(module, name, None)
            if orig is not None:
                _rebind(orig, hook(f"{_layer(module.__name__)}.{name}", orig))

        weights.WeightSpec.__call__ = self.span("weights.eval", weights.WeightSpec.__call__)
        self.probe.install()

    # Each hook returns the wrapper installed for one function.

    def _sample_paths(self, name, orig):
        traced = self.span(name, orig)
        p = _Params(orig)

        def hook(*args, **kwargs):
            batch = traced(*args, **kwargs)
            self.counts["stream_calls"] += 1
            self.counts["values"] += p.get(args, kwargs, "n") * len(p.get(args, kwargs, "grid"))
            self.counts["batch_bytes"] += batch.values.nbytes
            return batch

        return hook

    def _stream(self, name, orig):
        traced = self.span(name, orig)
        p = _Params(orig)

        def hook(*args, **kwargs):
            self.counts["stream_calls"] += 1
            self.counts["values"] += p.get(args, kwargs, "n") * len(p.get(args, kwargs, "grid"))
            args, kwargs = p.replace(args, kwargs, "fn",
                                     self._callback(p.get(args, kwargs, "fn")))
            return traced(*args, **kwargs)

        return hook

    def _map_blocks(self, name, orig):
        traced = self.span(name, orig)
        p = _Params(orig)

        def hook(*args, **kwargs):
            self.counts["blocks"] += math.ceil(p.get(args, kwargs, "n")
                                               / p.get(args, kwargs, "block_size"))
            args, kwargs = p.replace(args, kwargs, "fn",
                                     self._callback(p.get(args, kwargs, "fn")))
            return traced(*args, **kwargs)

        return hook

    def _evaluate_field(self, name, orig):
        traced = self.span(name, orig)
        p = _Params(orig)

        def hook(*args, **kwargs):
            batch = p.get(args, kwargs, "batch")
            self.counts["counted"] += (batch.n * len(batch.grid)
                                       * len(p.get(args, kwargs, "levels")))
            return traced(*args, **kwargs)

        return hook

    def _evaluate_field_streaming(self, name, orig):
        traced = self.span(name, orig)
        p = _Params(orig)

        def hook(*args, **kwargs):
            self.counts["counted"] += (p.get(args, kwargs, "n") * len(p.get(args, kwargs, "grid"))
                                       * len(p.get(args, kwargs, "levels")))
            t0 = _clock()
            field = traced(*args, **kwargs)
            self.rep_ms.append((_clock() - t0) * 1e3)
            return field

        return hook

    def _accumulate_cell_moments(self, name, orig):
        traced = self.span(name, orig)
        p = _Params(orig)

        def hook(*args, **kwargs):
            self.counts["counted"] += p.get(args, kwargs, "n") * len(p.get(args, kwargs, "cells"))
            return traced(*args, **kwargs)

        return hook

    def _export_field_csv(self, name, orig):
        traced = self.span(name, orig)
        p = _Params(orig)

        def hook(*args, **kwargs):
            traced(*args, **kwargs)
            self.counts["export_bytes"] += os.path.getsize(p.get(args, kwargs, "path"))

        return hook

    def _build_limit_model(self, name, orig):
        traced = self.span(name, orig)

        def hook(*args, **kwargs):
            limit = traced(*args, **kwargs)
            self.counts["limit_cells"] += limit.size
            self.jitter = max(self.jitter, float(limit.jitter))
            return limit

        return hook

    # -- summary -----------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        covered: dict[int, float] = defaultdict(float)
        for _name, _id, parent, start, end in self.spans:
            covered[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total": 0.0,
                                                                "self": 0.0})
        for name, span_id, _parent, start, end in self.spans:
            entry = out[name]
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - covered[span_id]
        return dict(out)

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer; the layers partition the traced time."""
        out: dict[str, float] = defaultdict(float)
        for name, entry in self.span_totals().items():
            out[name.split(".", 1)[0]] += entry["self"]
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; see perfbench/README.md for each definition."""
        spans = self.span_totals()

        def get(name, key="total"):
            return spans.get(name, {}).get(key, 0)

        sample_s = sum(get(n, "self") for n in ("models.sample_paths", "models.map_path_blocks",
                                                 "models.map_brownian_blocks", "models.callback"))
        reps = sorted(self.rep_ms)
        return {
            "models.sample_s": sample_s,
            "models.stream_calls": self.counts["stream_calls"],
            "models.values": self.counts["values"],
            "models.values_per_s": self.counts["values"] / sample_s if sample_s else 0.0,
            "models.batch_bytes": self.counts["batch_bytes"],
            "models.joint_cdf_s": get("models.joint_cdf"),
            "models.joint_cdf_calls": get("models.joint_cdf", "calls"),
            "numerics.phi_s": get("numerics.std_normal_cdf"),
            "numerics.phi_calls": get("numerics.std_normal_cdf", "calls"),
            "numerics.quantile_s": get("numerics.std_normal_quantile"),
            "numerics.quantile_calls": get("numerics.std_normal_quantile", "calls"),
            "numerics.bvn_s": get("numerics.bvn_cdf"),
            "numerics.bvn_calls": get("numerics.bvn_cdf", "calls"),
            "numerics.ks_s": (get("numerics.ks_statistic_one_sample", "self")
                              + get("numerics.ks_statistic_two_sample", "self")),
            "numerics.ks_calls": (get("numerics.ks_statistic_one_sample", "calls")
                                  + get("numerics.ks_statistic_two_sample", "calls")),
            "engine.count_s": get("engine.callback", "self"),
            "engine.counted": self.counts["counted"],
            "engine.rep_calls": len(reps),
            "engine.rep_p50_ms": statistics.median(reps) if reps else 0.0,
            "engine.rep_p99_ms": reps[math.ceil(0.99 * len(reps)) - 1] if reps else 0.0,
            "engine.export_s": get("engine.export_field_csv"),
            "engine.export_bytes": self.counts["export_bytes"],
            "limits.build_s": get("limits.build_limit_model"),
            "limits.factor_s": get("limits.build_limit_model", "self"),
            "limits.sample_s": get("limits.sample_limit_field"),
            "limits.cells": self.counts["limit_cells"],
            "limits.jitter": self.jitter,
            "parallel.map_calls": get("parallel.map_blocks", "calls"),
            "parallel.blocks": self.counts["blocks"],
            # one worker, so the probe's capacity is the time in map_blocks
            "parallel.map_s": self.probe.capacity_s,
            "parallel.busy_s": self.probe.busy_s,
            "parallel.derive_rng_s": get("parallel.derive_rng"),
            "parallel.derive_rng_calls": get("parallel.derive_rng", "calls"),
            "parallel.reduce_s": get("parallel.tree_reduce"),
            "verifiers.kernel_s": get("verifiers.callback", "self"),
            "verifiers.self_s": sum(get(f"verifiers.{n}", "self") for n in (
                "wl_estimate", "clt_marginal_test", "clt_covariance_convergence",
                "clt_sup_comparison")),
            "weights.eval_s": get("weights.eval"),
            "weights.eval_calls": get("weights.eval", "calls"),
            "cli.output_s": get("cli.write_json") + get("cli.write_csv"),
        }


class ParallelProbe:
    """Busy time of top-level ``parallel.map_blocks`` calls, thread-safe.

    ``Tracer`` installs one after its own wrappers; on its own it is the
    only instrumentation of a run at ``--workers nproc``.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy_s = 0.0
        self.capacity_s = 0.0     # sum of map duration x workers

    def install(self) -> None:
        from weplab import parallel

        orig = parallel.map_blocks
        p = _Params(orig)

        def hook(*args, **kwargs):
            if getattr(self._local, "in_block", False):
                return orig(*args, **kwargs)
            fn = p.get(args, kwargs, "fn")

            @functools.wraps(fn)      # keeps fn.__module__ for Tracer's callback spans
            def timed(*block):
                self._local.in_block = True
                t0 = _clock()
                try:
                    return fn(*block)
                finally:
                    dt = _clock() - t0
                    self._local.in_block = False
                    with self._lock:
                        self.busy_s += dt

            workers = max(1, int(p.get(args, kwargs, "workers")))
            args, kwargs = p.replace(args, kwargs, "fn", timed)
            t0 = _clock()
            try:
                return orig(*args, **kwargs)
            finally:
                self.capacity_s += (_clock() - t0) * workers

        _rebind(orig, hook)

    def busy_frac(self) -> float:
        return self.busy_s / self.capacity_s if self.capacity_s else 0.0
