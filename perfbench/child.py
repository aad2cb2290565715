"""One workload sample in a fresh interpreter; prints one JSON object.

``run.py`` starts this script once per sample with ``src`` on PYTHONPATH.
The first thing it does is import ``weplab.cli`` and build the parser, and
it reports the monotonic clock at that point, so the parent can time
interpreter start-up plus import as the user's fixed cost per command.
Then it issues the workload's commands one after another through
``weplab.cli.main`` (a closed loop with one client), hashes every output and
reports its own peak resident set size.  Each command's outputs are
deleted before it runs, so a digest never covers a file from an earlier run.

    PYTHONPATH=src python3 perfbench/child.py --workload large-n --seed 0 \
        --workers 1 --size full --trace none --workdir DIR [--facts]
"""

import time

import weplab.cli as cli

cli.build_parser()
READY = time.monotonic()

import argparse  # noqa: E402  (imports after the timed set-up on purpose)
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import ParallelProbe, Tracer  # noqa: E402


def output_digest(rc, paths: list[str]) -> str:
    """SHA-256 over the exit code, each report without ``wall_ms``, and each CSV."""
    h = hashlib.sha256(f"rc={rc}\n".encode())
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        if path.endswith(".json"):
            report = json.loads(data)
            report.pop("wall_ms", None)
            data = json.dumps(report, sort_keys=True).encode()
        h.update(os.path.basename(path).encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS loaded by numpy, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def execute(run, label: str, argv: list[str], workdir: str, workers: int) -> dict:
    """Run one command through ``run`` (``cli.main`` or its traced wrapper).

    The command's output files are deleted first, so a command that fails
    before writing them has no digest and counts as failed, instead of
    hashing what an earlier sample left behind.
    """
    names = workloads.output_files(argv)
    outputs = [os.path.join(workdir, name) for name in names]
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    argv = [os.path.join(workdir, a) if a in names else a
            for a in argv] + ["--workers", str(workers)]
    t0 = time.perf_counter()
    try:
        rc = run(argv)
    except SystemExit as exc:          # argparse usage errors
        rc = exc.code
    except Exception:                  # a crash is a failed command; keep going
        traceback.print_exc()
        rc = None
    seconds = time.perf_counter() - t0
    try:
        digest = output_digest(rc, outputs) if rc is not None else None
    except (OSError, ValueError):
        traceback.print_exc()
        digest = None
    return {"label": label, "rc": rc, "seconds": seconds, "digest": digest}


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--size", choices=workloads.SIZES, default="full")
    p.add_argument("--trace", choices=("none", "layers", "parallel"), default="none")
    p.add_argument("--workdir", required=True)
    p.add_argument("--facts", action="store_true")
    args = p.parse_args()

    run = cli.main
    tracer = None
    probe = None
    if args.trace == "layers":
        tracer = Tracer()
        tracer.install()
        run = tracer.span("cli.main", cli.main)
    elif args.trace == "parallel":
        probe = ParallelProbe()
        probe.install()

    results = [execute(run, label, argv, args.workdir, args.workers)
               for label, argv in workloads.commands(args.workload, args.size, args.seed)]

    out = {"ready": READY, "commands": results,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["layer_self_s"] = tracer.layer_self_s()
    if probe is not None:
        out["busy_frac"] = probe.busy_frac()
    if args.facts:
        out["facts"] = machine_facts()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
