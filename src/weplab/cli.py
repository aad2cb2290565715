"""Command-line front end.

Three commands: ``simulate`` writes an empirical-field CSV, ``verify``
runs one named checker and writes a JSON report, ``clt`` runs a convergence
harness and writes a JSON report and a per-replication CSV.  This module
only parses, dispatches and writes: every report is built in ``verifiers``.
Checks and CLT modes are dispatched from one table each (``CHECKS``,
``CLT``) of direct library calls, and every command, typed or replayed,
runs through ``run_command``.  Library reports carry no clock: the JSON
written here adds ``wall_ms``, the wall time of the whole command.  Every
run can emit a manifest echoing the fully resolved configuration; ``rerun``
replays a manifest and reproduces the outputs byte-for-byte apart from
``wall_ms``.

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
from .engine import evaluate_field_streaming, export_field_csv
from .errors import ConfigError, DomainError, UnsupportedModelError, WeplabError
from .models import ProcessModel, TimeGrid, parse_model
from .verifiers import (borell_check, chaining_ab_check, clt_covariance_convergence,
                        clt_marginal_test, clt_sup_comparison, dg0_upper_check, dyadic_check,
                        envelope_check, feller_sandwich, integral_check, l_condition_estimate,
                        lemma_l_check, lemma_m_check, lemma_y_check, monotone_d_check,
                        prop_d1_d2_check, slowly_varying_check, weight_drift_sampled_check,
                        wl_estimate)
from .weights import WeightSpec, parse_weight


@dataclass
class RunConfig:
    """Fully resolved run parameters; serialized verbatim into manifests."""

    model: Optional[str] = None
    weight: str = "const:1"
    gamma: Optional[float] = None
    unchecked: bool = False
    a: float = 1.0
    b: float = 2.0
    time_points: int = 129
    level_points: int = 33
    clip: float = 1e-3
    theta: float = 5.0
    n: int = 10_000
    reps: int = 2000
    seed: int = 0
    workers: int = 0          # 0 means: use WEPLAB_WORKERS or 1
    t: float = 1.5
    y: float = 0.3
    n_list: str = "1000,100000"
    times: str = "1,1.25,1.5,2"
    levels: str = "0.2,0.4,0.5,0.8"
    c_values: str = "0.25,1,4"

    def __post_init__(self):
        for name, raw in dataclasses.asdict(self).items():
            value = _coerce(name, raw)
            setattr(self, name, value)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{name.replace('_', '-')} must be finite")
        if (self.n < 1 or self.time_points < 2 or self.level_points < 1 or self.reps < 1
                or self.workers < 0 or self.seed < 0 or not 0.0 < self.clip < 0.5):
            raise ConfigError("need --n >= 1, --time-points >= 2, --level-points >= 1, "
                              "--reps >= 1, --workers >= 0, --seed >= 0 and --clip in (0, 0.5)")
        if self.workers == 0:
            parallel.default_workers()

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else parallel.default_workers()

    def grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.a, self.b, self.time_points)

    def weight_spec(self) -> WeightSpec:
        return parse_weight(self.weight, gamma=self.gamma, unchecked=self.unchecked)

    def model_spec(self) -> ProcessModel:
        if self.model is None:
            raise ConfigError("--model is required for this command")
        return parse_model(self.model)

    def float_list(self, name: str) -> list[float]:
        raw = getattr(self, name)
        try:
            values = [float(v) for v in str(raw).split(",") if v.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad numeric list for {name}: {raw!r}") from exc
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"non-finite value in {name}: {raw!r}")
        return values

    def int_list(self, name: str) -> list[int]:
        values = self.float_list(name)
        if not all(v.is_integer() for v in values):
            raise ConfigError(f"bad integer list for {name}: {getattr(self, name)!r}")
        return [int(v) for v in values]


_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def load_config_file(path: str) -> dict:
    """Read a flat key-value file with sections; unknown keys are rejected."""
    parser = configparser.ConfigParser()
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
    return {"n": cfg.n, "seed": cfg.seed, "grid": cfg.grid(),
            "workers": cfg.resolved_workers()}


CHECKS = {
    "wl": lambda cfg: wl_estimate(cfg.model_spec(), cfg.weight_spec(), cfg.theta,
                                  **_sampling(cfg)).to_bound_report(),
    "l-cond": lambda cfg: l_condition_estimate(cfg.model_spec(), cfg.theta,
                                               [(cfg.t, e) for e in (0.55, 0.7, 1.1)],
                                               **_sampling(cfg)),
    "integral": lambda cfg: integral_check(cfg.weight_spec(), cfg.float_list("c_values"),
                                           cfg.seed),
    "dyadic": lambda cfg: dyadic_check(cfg.weight_spec(), cfg.seed),
    "envelope": lambda cfg: envelope_check(cfg.model_spec(), cfg.weight_spec(),
                                           **_sampling(cfg)),
    "feller": lambda cfg: feller_sandwich(),
    "borell": lambda cfg: borell_check(**_sampling(cfg)),
    "slowly-varying": lambda cfg: slowly_varying_check(cfg.weight_spec()),
    "lemma-y": lambda cfg: lemma_y_check(),
    "lemma-m": lambda cfg: lemma_m_check(**_sampling(cfg)),
    "lemma-l": lambda cfg: lemma_l_check(**_sampling(cfg)),
    "d1": lambda cfg: prop_d1_d2_check(events=("d1",), **_sampling(cfg)),
    "d2": lambda cfg: prop_d1_d2_check(events=("d2",), **_sampling(cfg)),
    "chaining-ab": lambda cfg: chaining_ab_check(cfg.model_spec(), cfg.weight_spec(),
                                                 cfg.theta, **_sampling(cfg)),
    "monotone-d": lambda cfg: monotone_d_check(cfg.weight_spec(), cfg.seed),
    "dg0-upper": lambda cfg: dg0_upper_check(cfg.model_spec(), cfg.weight_spec(), cfg.theta,
                                             **_sampling(cfg)),
    "weight-drift": lambda cfg: weight_drift_sampled_check(cfg.weight_spec(), cfg.seed),
}


CLT = {
    "marginal": lambda cfg: clt_marginal_test(cfg.model_spec(), cfg.weight_spec(), cfg.t, cfg.y,
                                              cfg.n, cfg.reps, cfg.seed, cfg.resolved_workers()),
    "cov": lambda cfg: clt_covariance_convergence(
        cfg.model_spec(), cfg.weight_spec(),
        [(t, y) for t in cfg.float_list("times") for y in cfg.float_list("levels")],
        cfg.int_list("n_list"), cfg.reps, cfg.seed, workers=cfg.resolved_workers()),
    "sup": lambda cfg: clt_sup_comparison(cfg.model_spec(), cfg.weight_spec(),
                                          cfg.float_list("times"), cfg.float_list("levels"),
                                          cfg.n, cfg.reps, cfg.seed, cfg.resolved_workers()),
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
    """One row per entry of the columns, under a header of their names."""
    lines = [f"# weplab clt v{__version__}", ",".join(columns)]
    lines += [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
              for row in zip(*columns.values())]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
    p.add_argument("--config", help="key-value config file; flags win")
    p.add_argument("--model", help="bm-copula | dependent | iid-time | atomic:<mass>@<loc>")
    p.add_argument("--weight", help="const:<v> | pow:<a>[:logpow:<b>|:expsqrt:<c>]")
    p.add_argument("--gamma", type=float, help="monotonicity window override")
    p.add_argument("--unchecked", action="store_const", const=True, default=None,
                   help="skip weight validation (negative tests)")
    p.add_argument("--a", type=float, help="grid start (> 0)")
    p.add_argument("--b", type=float, help="grid end")
    p.add_argument("--time-points", dest="time_points", type=int)
    p.add_argument("--level-points", dest="level_points", type=int)
    p.add_argument("--clip", type=float, help="level clip delta")
    p.add_argument("--theta", type=float, help="time metric exponent (> 4)")
    p.add_argument("--n", type=int, help="paths per run")
    p.add_argument("--reps", type=int, help="replications")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int, help="worker count (default $WEPLAB_WORKERS or 1)")
    p.add_argument("--t", type=float, help="probe time")
    p.add_argument("--y", type=float, help="probe level")
    p.add_argument("--n-list", dest="n_list", help="comma list of sample sizes (clt cov)")
    p.add_argument("--times", help="comma list of probe times")
    p.add_argument("--levels", help="comma list of probe levels")
    p.add_argument("--c-values", dest="c_values", help="comma list of integral constants")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
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
    field = evaluate_field_streaming(cfg.model_spec(), cfg.grid(), levels, cfg.weight_spec(),
                                     cfg.n, cfg.seed, clip=cfg.clip,
                                     workers=cfg.resolved_workers())
    export_field_csv(field, out)
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
        report, columns = CHECKS[sub](cfg), None
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
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            return _rerun(args.manifest)
        cfg = resolve_config(args)
        sub = getattr(args, "check", None) or getattr(args, "mode", None)
        outputs = {k: getattr(args, k) for k in ("out", "csv") if hasattr(args, k)}
        code = run_command(args.command, sub, cfg, outputs)
        if args.manifest:
            write_manifest(args.manifest, args.command, sub, cfg, outputs)
        return code
    except (ConfigError, DomainError, UnsupportedModelError) as exc:
        print(f"weplab: error: {exc}", file=sys.stderr)
        return 2
    except WeplabError as exc:
        print(f"weplab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
