"""Command-line front end.

Three commands: ``simulate`` writes an empirical-field CSV, ``verify``
runs one named checker and writes a JSON report, ``clt`` runs a convergence
harness and writes a JSON report and a per-replication CSV.  This module
only parses, dispatches and writes: every check is built in ``verifiers``
and every harness in ``weplab.clt``.  Checks and CLT modes are dispatched
from one table each (``CHECKS``, ``CLT``) of direct library calls, and every
command, typed or replayed, runs through ``run_command``, which loads
``verifiers`` for a ``verify`` check alone.  Each check tests a hypothesis
of the theorem on the run's model or weight; a fact that holds for every
model and weight, such as an inequality of the proofs, is a test, not a check.
Library reports carry no clock: the JSON written here adds ``wall_ms``, the
wall time of the whole command.  Every run can emit a manifest echoing the
fully resolved configuration; ``rerun`` replays a manifest and reproduces
the outputs byte-for-byte apart from ``wall_ms``.

Configuration: flat key-value files with sections (INI style), overridden
by flags; flags win.  Exit codes: 0 all checks passed, 1 a check failed,
2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, parallel
from .clt import clt_covariance_convergence, clt_marginal_test, clt_sup_comparison
from .engine import evaluate_field_streaming, export_field_csv
from .errors import ConfigError, DomainError, WeplabError
from .models import ProcessModel, TimeGrid, parse_model
from .weights import parse_weight


MAX_TIME_POINTS = 1_000_000    # RunConfig builds the grid: 8 MB at most


def _option(default, help: str):
    """A ``RunConfig`` field: its default and the help text of its flag."""
    return dataclasses.field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    """Fully resolved run parameters; serialized verbatim into manifests.

    Each field is one shared flag (``--time-points`` for ``time_points``) and
    one config-file key; ``_coerce`` parses it from every source.  It also
    builds every library input (``parsed_weight``, ``parsed_model``, ``time_grid``,
    the ``*_list`` comma lists and ``worker_count``) as attributes, not fields.
    """

    model: Optional[str] = _option(None, "bm-copula | dependent | iid-time | atomic:<mass>@<loc>")
    weight: str = _option("const:1", "const:<v> | pow:<a>[:logpow:<b>|:expsqrt:<c>]")
    gamma: Optional[float] = _option(None, "monotonicity window override")
    unchecked: bool = _option(False, "skip weight validation (negative tests)")
    a: float = _option(1.0, "grid start (> 0)")
    b: float = _option(2.0, "grid end")
    time_points: int = _option(129, "equispaced grid times, a to b")
    level_points: int = _option(33, "equispaced field levels, clip to 1 - clip (simulate)")
    clip: float = _option(1e-3, "level clip delta")
    theta: float = _option(5.0, "time metric exponent (> 4)")
    n: int = _option(10_000, "paths per run")
    reps: int = _option(2000, "replications")
    seed: int = _option(0, "base seed of every stream")
    workers: int = _option(0, "worker count (default $WEPLAB_WORKERS or 1)")
    t: float = _option(1.5, "probe time")
    y: float = _option(0.3, "probe level")
    n_list: str = _option("1000,100000", "comma list of sample sizes (clt cov)")
    times: str = _option("1,1.25,1.5,2", "comma list of probe times")
    levels: str = _option("0.2,0.4,0.5,0.8", "comma list of probe levels")
    c_values: str = _option("0.25,1,4", "comma list of integral constants")

    def __post_init__(self):
        for name, raw in dataclasses.asdict(self).items():
            value = _coerce(name, raw)
            setattr(self, name, value)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{name.replace('_', '-')} must be finite")
        if (self.n < 1 or not 2 <= self.time_points <= MAX_TIME_POINTS or self.level_points < 1
                or self.reps < 1 or self.workers < 0 or self.seed < 0 or not 0 < self.clip < 0.5):
            raise ConfigError(f"need --n >= 1, --time-points in [2, {MAX_TIME_POINTS}], "
                              "--level-points >= 1, --reps >= 1, --workers >= 0, --seed >= 0 "
                              "and --clip in (0, 0.5)")
        if not 1.0 - self.clip < 1.0:  # from 2^-54 down
            raise ConfigError(f"--clip {self.clip!r} is too small: 1 - clip rounds to 1")
        try:
            self.parsed_weight = parse_weight(self.weight, self.gamma, self.unchecked)
            self.parsed_model = None if self.model is None else parse_model(self.model)
            self.time_grid = TimeGrid.uniform(self.a, self.b, self.time_points)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc
        self.time_list, self.level_list, self.c_list = (
            _number_list(name, getattr(self, name)) for name in ("times", "levels", "c_values"))
        self.size_list = _number_list("n_list", self.n_list, int)
        self.worker_count = self.workers or parallel.default_workers()

    def model_spec(self) -> ProcessModel:
        if self.parsed_model is None:
            raise ConfigError("--model is required for this command")
        return self.parsed_model


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Read a flat key-value file with sections; unknown keys are rejected.

    Values are literal text (no ``%`` interpolation), and ``[DEFAULT]`` is a
    section like any other: no header can name the empty default section.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error in {path}: {exc}") from exc
    values: dict = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            name = key.replace("-", "_")
            if name not in _CONFIG_FIELDS:
                raise ConfigError(f"unknown config key {key!r} in [{section}] of {path}")
            if name in values:
                raise ConfigError(f"duplicate config key {key!r} in {path}")
            values[name] = raw
    return values


def _coerce(name: str, raw):
    """``raw`` from a flag, a config file or a manifest as the field's declared type."""
    kind = _CONFIG_FIELDS[name].type
    flag = f"--{name.replace('_', '-')}"
    if raw is None:
        if kind.startswith("Optional"):
            return None
        raise ConfigError(f"{flag} needs a value")
    try:
        if kind == "bool":
            return configparser.ConfigParser.BOOLEAN_STATES[str(raw).strip().lower()]
        if kind == "int":
            return int(raw) if isinstance(raw, float) and raw.is_integer() else int(str(raw))
        if kind in ("float", "Optional[float]"):
            return float(str(raw))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {flag}: {raw!r}") from exc
    if not isinstance(raw, str):
        raise ConfigError(f"{flag} must be text, not {raw!r}")
    return raw


def _number_list(name: str, raw: str, kind=float) -> list:
    """A comma list option as finite numbers of ``kind``."""
    try:
        values = [float(v) for v in raw.split(",") if v.strip()]
        if all(math.isfinite(v) and kind(v) == v for v in values):
            return [kind(v) for v in values]
    except ValueError:
        pass
    raise ConfigError(f"--{name.replace('_', '-')} needs a comma list of finite "
                      f"{'integers' if kind is int else 'numbers'}, not {raw!r}")


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """defaults < config file < explicit flags; ``RunConfig`` coerces them all."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    values.update((name, getattr(args, name)) for name in _CONFIG_FIELDS
                  if getattr(args, name, None) is not None)
    return RunConfig(**values)


# ---------------------------------------------------------------------------
# dispatch tables
# ---------------------------------------------------------------------------

def _sampling(cfg: RunConfig) -> dict:
    """Keyword arguments shared by the Monte Carlo checks."""
    return {"n": cfg.n, "seed": cfg.seed, "grid": cfg.time_grid, "workers": cfg.worker_count}


def _probing(cfg: RunConfig, times, source: str) -> dict:
    """``_sampling(cfg)``, or a ConfigError naming ``source`` if a probe time is off the grid."""
    try:
        for t in times:
            cfg.time_grid.index_of(t)
    except DomainError as exc:
        raise ConfigError(f"{source}: {exc} (--time-points, --a, --b)") from None
    return _sampling(cfg)


# each check takes the ``verifiers`` module, which run_command loads for ``verify`` alone
CHECKS = {
    "wl": lambda v, cfg: v.wl_estimate(cfg.model_spec(), cfg.parsed_weight, cfg.theta,
                                       **_probing(cfg, v.DEFAULT_WL_T, "wl's built-in probes")),
    "l-cond": lambda v, cfg: v.l_condition_estimate(cfg.model_spec(), cfg.theta,
                                                    [(cfg.t, e) for e in (0.55, 0.7, 1.1)],
                                                    **_probing(cfg, [cfg.t], "--t")),
    "integral": lambda v, cfg: v.integral_check(cfg.parsed_weight, cfg.c_list, cfg.seed),
    "envelope": lambda v, cfg: v.envelope_check(cfg.model_spec(), cfg.parsed_weight,
                                                **_sampling(cfg)),
}


CLT = {
    "marginal": lambda cfg: clt_marginal_test(cfg.model_spec(), cfg.parsed_weight, cfg.t, cfg.y,
                                              cfg.n, cfg.reps, cfg.seed, cfg.worker_count),
    "cov": lambda cfg: clt_covariance_convergence(
        cfg.model_spec(), cfg.parsed_weight,
        [(t, y) for t in cfg.time_list for y in cfg.level_list], cfg.size_list, cfg.reps,
        cfg.seed, workers=cfg.worker_count),
    "sup": lambda cfg: clt_sup_comparison(cfg.model_spec(), cfg.parsed_weight,
                                          cfg.time_list, cfg.level_list,
                                          cfg.n, cfg.reps, cfg.seed, cfg.worker_count),
}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def write_json(obj: dict, path: Optional[str]) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def write_csv(columns: dict, path: str) -> None:
    """One row per entry of the columns, under a header of their names, written a row at a time."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# weplab clt v{__version__}\n{','.join(columns)}\n")
        fh.writelines(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row) + "\n"
                      for row in zip(*columns.values()))


def write_manifest(path: str, command: str, sub: Optional[str], cfg: RunConfig,
                   outputs: dict) -> None:
    manifest = {
        "artifact": "weplab",
        "version": __version__,
        "command": command,
        "subcommand": sub,
        "config": dataclasses.asdict(cfg),
        "outputs": outputs,
        "seed": cfg.seed,
    }
    write_json(manifest, path)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser) -> None:
    """``--config`` and one flag per ``RunConfig`` field, each read as text for ``_coerce``."""
    p.add_argument("--config", help="key-value config file; flags win")
    for name, f in _CONFIG_FIELDS.items():
        bare = {"action": "store_const", "const": True} if f.type == "bool" else {}
        p.add_argument(f"--{name.replace('_', '-')}", help=f.metadata["help"], **bare)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors take ``main``'s one exit-2 path."""

    def error(self, message):
        raise ConfigError(f"{message} (see '{self.prog} --help')")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="weplab",
        description="simulate weighted empirical fields and verify their limit bounds")
    p.add_argument("--version", action="version", version=f"weplab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample paths and write the field CSV")
    _add_config_flags(sim)
    sim.add_argument("--out", default="field.csv", help="field CSV path")
    sim.add_argument("--manifest", help="manifest JSON path")

    ver = sub.add_parser("verify", help="run one verifier and write a JSON report")
    ver.add_argument("check", choices=CHECKS)
    _add_config_flags(ver)
    ver.add_argument("--out", help="report JSON path (default: stdout)")
    ver.add_argument("--manifest", help="manifest JSON path")

    clt = sub.add_parser("clt", help="run a CLT harness")
    clt.add_argument("mode", choices=CLT)
    _add_config_flags(clt)
    clt.add_argument("--out", help="report JSON path (default: stdout)")
    clt.add_argument("--csv", help="per-replication CSV path")
    clt.add_argument("--manifest", help="manifest JSON path")

    rer = sub.add_parser("rerun", help="replay a recorded manifest")
    rer.add_argument("--manifest", required=True)
    return p


def _simulate(cfg: RunConfig, out: str) -> int:
    levels = np.linspace(cfg.clip, 1.0 - cfg.clip, cfg.level_points)
    model, grid, w = cfg.model_spec(), cfg.time_grid, cfg.parsed_weight
    values = evaluate_field_streaming(model, grid, levels, w, cfg.n, cfg.seed, cfg.worker_count)
    export_field_csv(values, grid, levels, out, model, w, cfg.n, cfg.seed)
    return 0


def run_command(command: str, sub: Optional[str], cfg: RunConfig, outputs: dict) -> int:
    """Run one command and write its outputs; returns the exit code.

    ``verify`` and ``clt`` write the report JSON, stamped with the command's
    wall time in ``wall_ms``; ``clt`` also writes the per-replication CSV.
    """
    t0 = time.monotonic()
    if command == "simulate":
        return _simulate(cfg, outputs.get("out", "field.csv"))
    if command == "verify" and sub in CHECKS:
        from . import verifiers  # the largest module: simulate and clt never load it
        report, columns = CHECKS[sub](verifiers, cfg), None
    elif command == "clt" and sub in CLT:
        report, columns = CLT[sub](cfg)
    else:
        raise ConfigError(f"unknown command {command!r} {sub!r}")
    payload = report.to_json()
    payload["wall_ms"] = int((time.monotonic() - t0) * 1000.0)
    write_json(payload, outputs.get("out"))
    if columns is not None and outputs.get("csv"):
        write_csv(columns, outputs["csv"])
    return 0 if report.passed else 1


def _rerun(manifest_path: str) -> int:
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load manifest {manifest_path}: {exc}") from exc
    try:
        cfg = RunConfig(**manifest["config"])
        command = manifest["command"]
        sub = manifest.get("subcommand")
        outputs = manifest.get("outputs", {})
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed manifest {manifest_path}: {exc}") from exc
    return run_command(command, sub, cfg, outputs)


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "rerun":
            return _rerun(args.manifest)
        cfg = resolve_config(args)
        sub = getattr(args, "check", None) or getattr(args, "mode", None)
        outputs = {k: getattr(args, k) for k in ("out", "csv") if hasattr(args, k)}
        code = run_command(args.command, sub, cfg, outputs)
        if args.manifest:
            write_manifest(args.manifest, args.command, sub, cfg, outputs)
        return code
    except (ConfigError, DomainError) as exc:
        print(f"weplab: error: {exc}", file=sys.stderr)
        return 2
    except WeplabError as exc:
        print(f"weplab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
