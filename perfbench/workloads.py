"""The benchmark's workloads: fixed sequences of ``weplab`` CLI commands.

Each workload is a list of commands, and each command is a label plus the
argv handed to ``weplab.cli.main``.  Every model is ``bm-copula`` and every
command seed is the benchmark's own ``--seed``.  Output paths are relative
names that the caller places in a scratch directory.

``full`` sizes are the ones timed.  ``smoke`` sizes keep the same command
shapes at a tiny cost; they back the per-run reference-digest check and the
self-check.
"""

from __future__ import annotations

WORKLOADS = ("large-n", "clt-reps")
SIZES = ("full", "smoke")

# 17 equispaced times on [1, 2] and the levels 0.1, ..., 0.9: k = 153 cells.
LATTICE_TIMES = ",".join(repr(1.0 + i / 16.0) for i in range(17))
LATTICE_LEVELS = ",".join(f"{i / 10:g}" for i in range(1, 10))
SMOKE_TIMES = "1,1.25,1.5,1.75,2"
SMOKE_LEVELS = "0.1,0.5,0.9"


def commands(workload: str, size: str, seed: int) -> list[tuple[str, list[str]]]:
    """(label, argv) pairs of one workload; outputs are bare file names."""
    full = size == "full"
    s = ["--model", "bm-copula", "--seed", str(seed)]
    if workload == "large-n":
        n = "100000" if full else "5000"
        return [
            ("simulate", ["simulate", *s, "--weight", "pow:0.25", "--n", n,
                          "--out", "field.csv"]),
            ("verify_wl", ["verify", "wl", *s, "--weight", "pow:0.25", "--theta", "5",
                           "--n", n, "--out", "wl.json"]),
            ("clt_cov", ["clt", "cov", *s, "--weight", "const:1",
                         "--reps", "200" if full else "4",
                         "--n-list", "1000,20000" if full else "1000,5000",
                         "--out", "cov.json", "--csv", "cov.csv"]),
        ]
    if workload == "clt-reps":
        return [
            ("clt_sup", ["clt", "sup", *s, "--weight", "const:1",
                         "--n", "5000" if full else "500",
                         "--reps", "2000" if full else "100",
                         "--out", "sup.json", "--csv", "sup.csv"]),
            ("clt_marginal", ["clt", "marginal", *s, "--weight", "const:1",
                              "--t", "1.5", "--y", "0.3",
                              "--n", "2000" if full else "200", "--reps", "2000" if full else "500",
                              "--out", "marginal.json", "--csv", "marginal.csv"]),
            # k = 153 cells: building the limit model dominates this command
            ("clt_sup_lattice", ["clt", "sup", *s, "--weight", "pow:0.25",
                                 "--times", LATTICE_TIMES if full else SMOKE_TIMES,
                                 "--levels", LATTICE_LEVELS if full else SMOKE_LEVELS,
                                 "--n", "2000" if full else "500",
                                 "--reps", "500" if full else "100",
                                 "--out", "lattice.json", "--csv", "lattice.csv"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def output_files(argv: list[str]) -> list[str]:
    """The file names a command writes, in argv order."""
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--csv")]
