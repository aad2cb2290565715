"""weplab benchmark: time the weplab CLI on one workload and print its metrics.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 55 --trace 0

Run from the root of a checkout; ``src/weplab`` is imported from source.
Every sample is a fresh interpreter (``child.py``) that runs the workload's
commands one after another through ``weplab.cli.main``: a closed loop with
one client.  Samples repeat until another one would overrun ``--seconds``.

``--trace 0`` prints the end-to-end metrics, medians over samples at
``--workers 1``.  ``--trace 1`` runs rounds of four samples (untraced and
traced at ``--workers 1``; untraced and with the parallel layer probed at
``--workers nproc``) and prints the per-layer metrics.

Every run also checks outputs.  A smoke-size pass at the reference seed, at
workers=1 and workers=nproc, must match the digests in ``reference.json``;
each timed command's digest (exit code, report JSON without ``wall_ms``,
CSVs) must be the same in every sample, traced or not, at every worker
count, and must match ``reference.json`` when ``--seed`` is the reference
seed.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0          # the weplab CLI's default --seed
HARD_LIMIT_S = 170.0        # the whole run, set-up included, ends before this

# wall time at workers=nproc spread by about a fifth between runs on a
# 2-core shared machine, so it is the per-layer parallel.wall_nproc_s.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics printed in the result line, in order, with their units.
# Times a workload cannot produce (the layer is not on its path, so the value
# would be a constant 0) are printed in the table only: see TABLE_ONLY.
PER_LAYER = {
    "models.sample_s": "s", "models.stream_calls": "count", "models.values": "count",
    "models.values_per_s": "1/s", "models.batch_bytes": "B",
    "models.joint_cdf_s": "s", "models.joint_cdf_calls": "count",
    "numerics.phi_s": "s", "numerics.phi_calls": "count",
    "numerics.quantile_s": "s", "numerics.quantile_calls": "count",
    "numerics.bvn_s": "s", "numerics.bvn_calls": "count", "numerics.ks_calls": "count",
    "engine.count_s": "s", "engine.counted": "count", "engine.rep_calls": "count",
    "engine.export_bytes": "B",
    "limits.cells": "count", "limits.jitter": "1",
    "parallel.wall_nproc_s": "s",
    "parallel.map_calls": "count", "parallel.blocks": "count", "parallel.map_s": "s",
    "parallel.busy_s": "s", "parallel.busy_frac_nproc": "1",
    "parallel.derive_rng_s": "s", "parallel.derive_rng_calls": "count",
    "parallel.reduce_s": "s",
    "verifiers.kernel_s": "s", "verifiers.self_s": "s",
    "weights.eval_s": "s", "weights.eval_calls": "count",
    "cli.output_s": "s",
    "trace.overhead_s": "s",
}
TABLE_ONLY = {
    "numerics.ks_s": "s", "engine.rep_p50_ms": "ms", "engine.rep_p99_ms": "ms",
    "engine.export_s": "s", "limits.build_s": "s", "limits.factor_s": "s",
    "limits.sample_s": "s",
}


class Bench:
    """One benchmark run: spawns samples and keeps what they report."""

    def __init__(self, workload: str, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.start = time.monotonic()
        self.setups: list[float] = []
        self.executions: list[dict] = []   # one per command run, with its sample's tags
        self.crashed = 0                   # commands lost with a child that gave no result
        self.facts: dict = {}

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.start)

    def sample(self, workers: int, size: str = "full", seed: int | None = None,
               trace: str = "none", facts: bool = False) -> dict | None:
        """Run the workload once in a fresh interpreter; None if it gave no result."""
        seed = self.seed if seed is None else seed
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", self.workload,
               "--seed", str(seed), "--workers", str(workers), "--size", size,
               "--trace", trace, "--workdir", self.workdir]
        if facts:
            cmd.append("--facts")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
        env.pop("WEPLAB_WORKERS", None)
        n_commands = len(workloads.commands(self.workload, size, seed))
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            print(f"sample timed out: {' '.join(cmd)}", file=sys.stderr)
            self.crashed += n_commands
            return None
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None:
            print(f"sample failed (exit {proc.returncode}):\n{proc.stderr}", file=sys.stderr)
            self.crashed += n_commands
            return None
        self.setups.append(result["ready"] - spawned)
        for c in result["commands"]:
            self.executions.append(dict(c, size=size, seed=seed, workers=workers, trace=trace))
        self.facts = result.get("facts", self.facts)
        result["wall_s"] = sum(c["seconds"] for c in result["commands"])
        return result

    def judge(self, reference: dict) -> tuple[int, int]:
        """(attempted, failed) over every command run so far.

        A command fails when it crashed or exited with neither 0 (checks
        passed) nor 1 (a statistical check rejected), or when its digest
        differs from the expected one: the stored reference where one
        exists for this size and seed, else the first run of that command.
        """
        expected: dict[tuple, str | None] = {}
        for size, seed in {(e["size"], e["seed"]) for e in self.executions}:
            if seed == reference.get("seed"):
                for label, digest in reference.get(size, {}).get(self.workload, {}).items():
                    expected[(size, seed, label)] = digest
        failed = self.crashed
        for e in self.executions:
            key = (e["size"], e["seed"], e["label"])
            expected.setdefault(key, e["digest"])
            if e["rc"] not in (0, 1) or e["digest"] is None or e["digest"] != expected[key]:
                failed += 1
                print(f"failed: {e['label']} size={e['size']} seed={e['seed']} "
                      f"workers={e['workers']} trace={e['trace']} rc={e['rc']}",
                      file=sys.stderr)
        return len(self.executions) + self.crashed, failed


def _collect(bench: Bench, seconds: float, plan) -> dict[str, list[dict]]:
    """Run rounds of samples, one per (key, workers, trace) in ``plan``, until
    another round would overrun ``seconds``; at least one round."""
    data: dict[str, list[dict]] = {key: [] for key, _, _ in plan}
    t0 = time.monotonic()
    rounds = 0
    while True:
        for key, workers, trace in plan:
            r = bench.sample(workers, trace=trace)
            if r is not None:
                data[key].append(r)
        rounds += 1
        elapsed = time.monotonic() - t0
        per_round = elapsed / rounds
        if elapsed + per_round > seconds or bench.remaining() < 2.0 * per_round:
            return data


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "weplab", "cli.py")):
        print("perfbench: no weplab sources under src/; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    nproc = len(os.sched_getaffinity(0))
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        bench = Bench(args.workload, args.seed, workdir)
        for workers in sorted({1, nproc}):
            bench.sample(workers, size="smoke", seed=REFERENCE_SEED, facts=True)
        plan = [("samples", 1, "none")]
        if args.trace:
            plan += [("traced", 1, "layers"), ("nproc", nproc, "none"),
                     ("probed", nproc, "parallel")]
        data = _collect(bench, args.seconds, plan)
        attempted, failed = bench.judge(reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not all(data.values()):
        print("perfbench: no complete samples", file=sys.stderr)
        return 1

    f = bench.facts
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} reference_seed={REFERENCE_SEED}")
    print(f"machine: nproc={f.get('nproc')} cpu={f.get('cpu')!r} python={f.get('python')} "
          f"numpy={f.get('numpy')} scipy={f.get('scipy')} blas={f.get('blas')} "
          f"blas_threads={f.get('blas_threads')}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} commands failed)")
    samples = data["samples"]
    wall_s = median([r["wall_s"] for r in samples])
    print(f"wall_s {wall_s:.6g} s (median of {len(samples)} samples at workers=1)")
    labels = [c["label"] for c in samples[0]["commands"]]
    per_command = {f"cli.{label}_s": median([r["commands"][i]["seconds"] for r in samples])
                   for i, label in enumerate(labels)}

    if args.trace:
        traced = data["traced"]
        layers = {k: median([t["layers"][k] for t in traced]) for k in traced[0]["layers"]}
        layers["parallel.wall_nproc_s"] = median([r["wall_s"] for r in data["nproc"]])
        layers["parallel.busy_frac_nproc"] = median([r["busy_frac"] for r in data["probed"]])
        layers["trace.overhead_s"] = median([t["wall_s"] for t in traced]) - wall_s
        self_s = {k: median([t["layer_self_s"].get(k, 0.0) for t in traced])
                  for k in traced[0]["layer_self_s"]}
        print(f"traced wall_s {wall_s + layers['trace.overhead_s']:.6g} s "
              f"(median of {len(traced)}); {len(data['nproc'])} untraced and "
              f"{len(data['probed'])} probed samples at workers={nproc}")
        print("layer self time: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in sorted(self_s.items(), key=lambda kv: -kv[1])))
        for name, unit in PER_LAYER.items():
            print(f"  {name:28s} {_fmt(layers[name]):>14s} {unit}")
        print("table only (0 where the layer is not on this workload's path):")
        for name, unit in TABLE_ONLY.items():
            print(f"  {name:28s} {_fmt(layers[name]):>14s} {unit}")
        for name, value in per_command.items():
            print(f"  {name:28s} {_fmt(value):>14s} s   (untraced, workers=1)")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {"wall_s": wall_s, "setup_s": median(bench.setups),
                  "peak_rss_mb": median([r["maxrss_kb"] / 1024.0 for r in samples])}
        print(f"setup_s {values['setup_s']:.6g} s (median of {len(bench.setups)} interpreters)")
        print(f"peak_rss_mb {values['peak_rss_mb']:.6g} MB (median of {len(samples)} samples)")
        print("per command at workers=1: " + ", ".join(
            f"{k} {v:.4g} s" for k, v in per_command.items()))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
