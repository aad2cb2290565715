"""Pinned output bytes: SHA-256 digests of simulate CSVs, clt sup outputs and covariances.

The digests were recorded once and must never change: any change to the
sampler, the seeding, the counting kernel or the covariance assembly that
moves a single output bit fails here.
"""

import hashlib
import json

import pytest

from weplab.cli import RunConfig, main
from weplab.engine import accumulate_cell_moments
from weplab.limits import build_limit_model, export_covariance_csv
from weplab.models import TimeGrid, parse_model
from weplab.verifiers import _covariance_target
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


# clt sup on the 5x3 lattice and the benchmark's 17x9 lattice (k = 153 cells)
CLT_SUP_LATTICES = {
    "5x3": ("1,1.25,1.5,1.75,2", "0.1,0.5,0.9"),
    "17x9": (",".join(repr(1.0 + i / 16.0) for i in range(17)),
             ",".join(f"{i / 10:g}" for i in range(1, 10))),
}

CLT_SUP_DIGESTS = {
    "5x3": ("7256ad74a12d51dfc0370c38dc841ff680d14768a6cd77e151be060ea410f606",
            "ea1738dc3632068a10c0425d0ecee2183ed0706ab07cc2e7461addfc73ed3b20"),
    "17x9": ("e9205ceb51edc8aa9d5f3ab9f33738ed55a70609157391d8fa7387aedf4e6772",
             "06bc8eee517cb347e83fbec0761c7f33c3743a4454013346448e8612e36ca113"),
}

COVARIANCE_TARGET_DIGESTS = {
    "bm-copula": "f2a53a3bee4d2766b86c5388f3b94c88fb115301aea2a70468c5fb921f44b34f",
    "dependent": "8517133bccdbd443857ea8f9c12340e415993a57075afc91033c709c2b29a676",
    "iid-time": "c3ab6c3fc047076be416729d45abba8377db7107375fa9169451909a8b6bc1e1",
}


def report_digest(path) -> str:
    """Digest of a JSON report with its timing field dropped."""
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("wall_ms", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("lattice", sorted(CLT_SUP_LATTICES))
def test_clt_sup_digest(tmp_path, lattice):
    times, levels = CLT_SUP_LATTICES[lattice]
    report, csv = tmp_path / "sup.json", tmp_path / "sup.csv"
    assert main(["clt", "sup", "--model", "bm-copula", "--weight", "pow:0.25", "--seed", "3",
                 "--times", times, "--levels", levels, "--n", "300", "--reps", "60",
                 "--workers", "1", "--out", str(report), "--csv", str(csv)]) in (0, 1)
    assert (report_digest(report), sha256_of(csv)) == CLT_SUP_DIGESTS[lattice]


@pytest.mark.parametrize("spec", sorted(COVARIANCE_TARGET_DIGESTS))
def test_clt_cov_target_digest(spec):
    cfg = RunConfig(weight="pow:0.25")
    cells = [(t, y) for t in cfg.float_list("times") for y in cfg.float_list("levels")]
    target = _covariance_target(parse_model(spec), cells, cfg.weight_spec())
    assert hashlib.sha256(target.tobytes()).hexdigest() == COVARIANCE_TARGET_DIGESTS[spec]
