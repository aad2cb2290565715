"""The report records every ``verify`` check and ``clt`` harness returns.

A ``BoundReport`` names its check and holds a tuple of ``ProbeResult``
rows; it passes when every row passes.  ``to_json()`` writes non-finite
floats as null, so a report's JSON is plain and byte-identical across
reruns at a pinned seed.  This module reads no check and no harness, so
each command loads only the code it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def _jsonable(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


@dataclass(frozen=True)
class ProbeResult:
    coords: dict
    estimate: Optional[float]
    stderr: Optional[float]
    bound: Optional[float]
    c_hat: Optional[float]
    passed: bool

    def to_json(self) -> dict:
        return {"coords": _jsonable(self.coords), "estimate": _jsonable(self.estimate),
                "stderr": _jsonable(self.stderr), "bound": _jsonable(self.bound),
                "c_hat": _jsonable(self.c_hat), "pass": bool(self.passed)}


@dataclass(frozen=True)
class BoundReport:
    check: str
    probes: tuple[ProbeResult, ...]
    n: int
    seed: int

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.probes)

    def to_json(self) -> dict:
        return {"check": self.check, "probes": [p.to_json() for p in self.probes],
                "n": self.n, "seed": self.seed}
