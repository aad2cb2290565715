"""Self-check of the benchmark; exits 0 when every check passes.

    python3 perfbench/selfcheck.py                      # about a minute
    python3 perfbench/selfcheck.py --write-reference    # refresh reference.json

Checks, from the root of a checkout:

1. The metric names ``run.py`` prints are exactly those of BENCHMARK.json,
   with the same units, for ``--trace 0`` and ``--trace 1``, and the
   workload names agree (one real run of the cheapest workload per mode).
2. A smoke-size pass of every workload, at workers=1, workers=nproc and
   traced, has no failed command, matches the stored digests, and the
   traced sample reports every per-layer metric.
3. A command that exits 1 without writing its outputs counts as failed,
   even where an earlier run of the same command left them in the workdir.
4. ``run.py`` exits non-zero without printing a result in a directory that
   holds only BENCHMARK.json and the benchmark's own files.

``--write-reference`` runs every workload at full and smoke size at the
reference seed, requires workers=1 and workers=nproc to agree, and writes
the digests to ``reference.json``.  Do that only in a change that alters
sampled values on purpose, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

NPROC = len(os.sched_getaffinity(0))


def _workdir() -> str:
    scratch = os.path.join(run.ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    return tempfile.mkdtemp(prefix="selfcheck-", dir=scratch)


def write_reference() -> None:
    out: dict = {"seed": run.REFERENCE_SEED}
    workdir = _workdir()
    try:
        for size in workloads.SIZES:
            out[size] = {}
            for w in workloads.WORKLOADS:
                bench = run.Bench(w, run.REFERENCE_SEED, workdir)
                digests = []
                for workers in sorted({1, NPROC}):
                    r = bench.sample(workers, size=size)
                    if r is None or any(c["rc"] not in (0, 1) for c in r["commands"]):
                        sys.exit(f"{w} {size} workers={workers}: a command failed")
                    digests.append({c["label"]: c["digest"] for c in r["commands"]})
                if any(d != digests[0] for d in digests):
                    sys.exit(f"{w} {size}: outputs differ between worker counts")
                out[size][w] = digests[0]
                print(f"{size:5s} {w}: {digests[0]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
        fh.write("\n")


def check_names(problems: list[str]) -> None:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from BENCHMARK.json")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               "clt-reps", "--seed", "1", "--seconds", "1",
                               "--trace", str(trace)], cwd=run.ROOT, capture_output=True,
                              text=True, timeout=180)
        if proc.returncode != 0:
            problems.append(f"run.py --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                problems.append(f"--trace {trace}: {name} is {got.get(name)!r} in the output "
                                f"and {want.get(name)!r} in BENCHMARK.json")
        if not result["correct"] or result["failed"]:
            problems.append(f"run.py --trace {trace}: {result['failed']} failed commands")
        print(f"names --trace {trace}: {len(got)} metrics checked")


def check_smoke(problems: list[str]) -> None:
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    workdir = _workdir()
    try:
        for w in workloads.WORKLOADS:
            bench = run.Bench(w, run.REFERENCE_SEED, workdir)
            for workers in sorted({1, NPROC}):
                bench.sample(workers, size="smoke")
            traced = bench.sample(1, size="smoke", trace="layers")
            attempted, failed = bench.judge(reference)
            if failed:
                problems.append(f"smoke {w}: failed_frac = {failed}/{attempted}")
            missing = set(run.PER_LAYER) | set(run.TABLE_ONLY)
            # run.py computes these from whole samples, not from the tracer
            missing -= {"parallel.wall_nproc_s", "parallel.busy_frac_nproc", "trace.overhead_s"}
            missing -= set(traced["layers"]) if traced else set()
            if missing:
                problems.append(f"smoke {w}: traced sample lacks {sorted(missing)}")
            print(f"smoke {w}: failed_frac = {failed}/{attempted}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_missing_output(problems: list[str]) -> None:
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import child  # imports weplab.cli

    label, argv = workloads.commands("clt-reps", "smoke", run.REFERENCE_SEED)[0]
    workdir = _workdir()
    try:
        bench = run.Bench("clt-reps", run.REFERENCE_SEED, workdir)
        for fake in (None, lambda argv: 1):     # the real command, then one that writes nothing
            e = child.execute(fake or child.cli.main, label, argv, workdir, 1)
            bench.executions.append(dict(e, size="smoke", seed=run.REFERENCE_SEED,
                                         workers=1, trace="none"))
        attempted, failed = bench.judge({})
        if bench.executions[-1]["digest"] is not None or failed != 1:
            problems.append(f"missing output: {failed} of {attempted} failed, expected 1")
        print(f"missing output: {failed} of {attempted} commands failed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_bare_directory(problems: list[str]) -> None:
    bare = _workdir()
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                               "--workload", "large-n", "--seed", "1", "--seconds", "1"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("run.py in a directory without sources did not fail cleanly")
        print(f"bare directory: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    p = argparse.ArgumentParser(description="benchmark self-check")
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args()
    if args.write_reference:
        write_reference()
        return 0
    problems: list[str] = []
    check_bare_directory(problems)
    check_missing_output(problems)
    check_smoke(problems)
    check_names(problems)
    for line in problems:
        print(f"FAIL {line}")
    print("self-check passed" if not problems else f"self-check: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
