"""Pinned output bytes: SHA-256 digests of simulate CSVs and a calibration covariance.

The digests were recorded once and must never change: any change to the
sampler, the seeding, the counting kernel or the covariance assembly that
moves a single output bit fails here.
"""

import hashlib

import pytest

from weplab.cli import main
from weplab.engine import accumulate_cell_moments
from weplab.limits import build_limit_model, export_covariance_csv
from weplab.models import TimeGrid, parse_model
from weplab.weights import parse_weight

SIMULATE_DIGESTS = {
    "bm-copula": "7a7c688c5197f2b773a8c0ced9d93eed0de81256a767bbcbdea09e77ced76f79",
    "dependent": "a78b1dd5df4bd11537be57db1e23b267d72f2d9f1638932196979be5e3b47cef",
    "iid-time": "4dca8e4f5ac2c55211310d8785518ef6a38bb9aec69d7ef625a899330418ac07",
    "atomic:0.5@0.5": "d3c1bb9871fa69e6dcc9a6a45e5dd9e5b740b36bce218a9a23ae95541bdb22ea",
}

CALIBRATION_COV_DIGEST = "c3ba99a3097b92119327e4608fb0dde6d8368cb9da19b654e8fb48478e863135"


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(SIMULATE_DIGESTS))
def test_simulate_csv_digest(tmp_path, spec, workers):
    # n = 5000 spans two seeding blocks, so two workers really split the run
    out = tmp_path / "field.csv"
    assert main(["simulate", "--model", spec, "--weight", "pow:0.25", "--n", "5000",
                 "--seed", "7", "--time-points", "17", "--level-points", "9",
                 "--workers", workers, "--out", str(out)]) == 0
    assert sha256_of(out) == SIMULATE_DIGESTS[spec]


def test_calibration_covariance_digest(tmp_path):
    model = parse_model("atomic:0.5@0.5")
    grid = TimeGrid.uniform(1, 2, 5)
    cells = [(t, y) for t in (1.0, 1.5, 2.0) for y in (0.3, 0.6)]
    calibration = accumulate_cell_moments(model, cells, grid, 50_000, 999)
    lm = build_limit_model(model, cells, parse_weight("pow:0.25"), calibration=calibration)
    out = tmp_path / "cov.csv"
    export_covariance_csv(lm, str(out))
    assert sha256_of(out) == CALIBRATION_COV_DIGEST
