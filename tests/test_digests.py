"""Pinned output bytes: SHA-256 digests of simulate CSVs, verify and clt outputs and covariances.

The digests were recorded once and must never change: any change to the
sampler, the seeding, the counting kernel or the covariance assembly that
moves a single output bit fails here.
"""

import hashlib
import json

import pytest

from weplab.cli import RunConfig, main
from weplab.limits import limit_covariance
from weplab.models import parse_model

SIMULATE_DIGESTS = {
    "bm-copula": "7a7c688c5197f2b773a8c0ced9d93eed0de81256a767bbcbdea09e77ced76f79",
    "dependent": "a78b1dd5df4bd11537be57db1e23b267d72f2d9f1638932196979be5e3b47cef",
    "iid-time": "4dca8e4f5ac2c55211310d8785518ef6a38bb9aec69d7ef625a899330418ac07",
    "atomic:0.5@0.5": "d3c1bb9871fa69e6dcc9a6a45e5dd9e5b740b36bce218a9a23ae95541bdb22ea",
}


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
    "bm-copula": "f56d17bd170cf6e88f2b4c3ce327fe5aa48140184d84bd62aac41ccf93143bbf",
    "dependent": "afea6d31c78ad0ef498f9947df61a297fcaa7099a02ebe3a09bfe56563a54f16",
    "iid-time": "5ec549749584315edd434a76c9cf54756d80ddd2d426890e630632e673cc9d26",
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
    cells = [(t, y) for t in cfg.time_list for y in cfg.level_list]
    target = limit_covariance(parse_model(spec), cells, cfg.parsed_weight)
    assert hashlib.sha256(target.tobytes()).hexdigest() == COVARIANCE_TARGET_DIGESTS[spec]


# every verify check at small n on a 17-point grid: (exit code, report digest)
VERIFY_ARGS = ("--n", "2000", "--seed", "5", "--time-points", "17", "--workers", "1")

VERIFY_CASES = {
    "wl": ("--model", "bm-copula", "--weight", "pow:0.25"),
    "l-cond": ("--model", "bm-copula"),
    "integral": ("--weight", "pow:0.25"),
    "envelope": ("--model", "bm-copula", "--weight", "pow:0.25"),
}

VERIFY_DIGESTS = {
    "wl": (0, "913fc43f63386f1a889592db3ef5481908147a5b6c431ae54563e8cad0c84cd6"),
    "l-cond": (0, "85162fec92659fccde884f71cce648fe835f262d2ce3dc24abdf988df8fface3"),
    "integral": (0, "4663eac85da976c9611dbb7e2d630f8a8678a2f936ee95d4ae4dd8154cdace4d"),
    "envelope": (0, "4b309fc2a15834c75ecb81e1c19aabefd491495872819ac75ac0984478dbb32b"),
}


@pytest.mark.filterwarnings("ignore:.*skipped")
@pytest.mark.parametrize("check", sorted(VERIFY_CASES))
def test_verify_report_digest(tmp_path, check):
    out = tmp_path / "r.json"
    code = main(["verify", check, *VERIFY_CASES[check], *VERIFY_ARGS, "--out", str(out)])
    assert (code, report_digest(out)) == VERIFY_DIGESTS[check]


# l-cond on the default 129-point grid at theta 4.01, whose probes at eps 0.55 and
# 0.7 count 13 and 9 of the 20,000 paths: (exit code, report digest), the same at one
# and two workers
L_COND_EVENTS_DIGEST = (0, "7ed04d0536dd874f3ba8e31b15a5ce6eb3bf586d9964f23b058571bc4665f168")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_l_cond_events_digest(tmp_path, workers):
    out = tmp_path / "r.json"
    code = main(["verify", "l-cond", "--model", "bm-copula", "--theta", "4.01", "--n", "20000",
                 "--seed", "5", "--workers", workers, "--out", str(out)])
    assert (code, report_digest(out)) == L_COND_EVENTS_DIGEST


# wl on the atomic model, one uniform draw a path, so every crossing frequency is 0,
# with the VERIFY_ARGS sizes: (exit code, report digest), the same at one and two
# workers; the coarse sweep evaluates 24 of its 36 probes, the fine sweep all 36
ATOMIC_WL_DIGEST = (0, "e7cd97ea8d55601944ad0b1637209f4f7749ca9c210cbec7e59ce2d1f0099285")


@pytest.mark.filterwarnings("ignore:.*skipped")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_atomic_wl_digest(tmp_path, workers):
    out = tmp_path / "r.json"
    code = main(["verify", "wl", "--model", "atomic:0.5@0.5", "--weight", "pow:0.25",
                 "--n", "2000", "--seed", "5", "--time-points", "17", "--workers", workers,
                 "--out", str(out)])
    assert (code, report_digest(out)) == ATOMIC_WL_DIGEST


# clt marginal and cov at small sizes: (exit code, report digest, CSV digest)
CLT_CASES = {
    "marginal": ("--t", "1.5", "--y", "0.3", "--n", "200", "--reps", "500"),
    "cov": ("--reps", "4", "--n-list", "100,500"),
}

CLT_DIGESTS = {
    "marginal": (1, "5f6cd86ce92e5c088dec8b63458d855fab5f82ccffa0c6da4b5d35004caacd7d",
                 "46228f720ddf1698d2c2210dbee4702a9bdf53bc997ad93556ab53ed76728de9"),
    "cov": (1, "6d4320c12270b40fbdd963d3d7cc9f85ac6297fdccd5b929f2ef6f502d65679b",
            "40101235132f04fc1e88928e26389c51e2afce3c7959fc3e22f233e78bdcb53e"),
}


@pytest.mark.parametrize("mode", sorted(CLT_CASES))
def test_clt_report_digest(tmp_path, mode):
    report, csv = tmp_path / "r.json", tmp_path / "r.csv"
    code = main(["clt", mode, "--model", "bm-copula", "--weight", "pow:0.25", "--seed", "5",
                 "--workers", "1", *CLT_CASES[mode], "--out", str(report), "--csv", str(csv)])
    assert (code, report_digest(report), sha256_of(csv)) == CLT_DIGESTS[mode]


# replications of n = 4500 paths span two seeding blocks each:
# (exit code, report digest, CSV digest), the same at one and two workers;
# the atomic model's limit has a closed form, min(x, y), as the dependent one's
CLT_MULTIBLOCK_CASES = {
    "sup": ("sup", "--model", "bm-copula", "--n", "4500", "--reps", "40"),
    "marginal": ("marginal", "--model", "bm-copula", "--t", "1.5", "--y", "0.3",
                 "--n", "4500", "--reps", "500"),
    "sup-atomic": ("sup", "--model", "atomic:0.5@0.5", "--n", "4500", "--reps", "40"),
}

CLT_MULTIBLOCK_DIGESTS = {
    "sup": (0, "9e10c1159b309aa8539dcc0853b52d9ca8431d09975908ab6283175ce4159b11",
            "335016e0b5cd21705cfdc3dd0450889d45fb39715f49f7320696044f80460314"),
    "marginal": (0, "63b962dbb01a1fe1514f13a214ad14a326a9ee3908b9e7b05f61581afd707768",
                 "57693e739dc7eedab9286477b3ea600c8e1a60b38463649f49a85a550b6ac526"),
    "sup-atomic": (0, "6497cdff3c2c6f0b8e471b94af611a94d3bad0be56aad4b9f08a4039773b3076",
                   "f9de7af6c53e3175bbd4a5cfdb350c497b4c0c0ad53a8ce6797ef3314e7c462b"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CLT_MULTIBLOCK_CASES))
def test_clt_multiblock_digest(tmp_path, case, workers):
    report, csv = tmp_path / "r.json", tmp_path / "r.csv"
    code = main(["clt", *CLT_MULTIBLOCK_CASES[case], "--weight", "pow:0.25", "--seed", "5",
                 "--workers", workers, "--out", str(report), "--csv", str(csv)])
    assert (code, report_digest(report), sha256_of(csv)) == CLT_MULTIBLOCK_DIGESTS[case]


# a 4,096-path block on 300 times, or on the 129 and 257 times of verify wl's
# two sweeps, exceeds the 2^17-value batch (models._BATCH_VALUES), so these runs
# reach their consumers in block-aligned path slices of about 2^17 values
# (models._SLICE_VALUES): eighths on 300 and 257 times, quarters on 129.
# (exit code and) digest, the same at one and two workers
WIDE_SIMULATE_DIGESTS = {
    "bm-copula": "0d7e2f790b67c9b20fc91a8ffe59847e07d5273aa397c9240ccab591205c4c96",
    "dependent": "d75655d59f32ce5095f1042f45c85ad115aa43404e27c155134cee5054b897e0",
    "iid-time": "3db91e3758f4581bc9aee010eb005080f43c731296d414d5c6a542b3987a74de",
    "atomic:0.5@0.5": "ef70f18e35c220ac8b15f60738e302257b525440e8764d65a02e93640727cf36",
}

WIDE_WL_DIGESTS = {
    "bm-copula": (0, "3595965340f72082fba34bd19d16a17f54f144015678cb5792ad5e6014355d0a"),
    "dependent": (0, "d2bb07bcf30a8f9dda683b52412af40da26d31076043e8729d3d45333bc6a42a"),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(WIDE_SIMULATE_DIGESTS))
def test_wide_simulate_csv_digest(tmp_path, spec, workers):
    out = tmp_path / "field.csv"
    assert main(["simulate", "--model", spec, "--weight", "pow:0.25", "--n", "5000",
                 "--seed", "7", "--time-points", "300", "--level-points", "9",
                 "--workers", workers, "--out", str(out)]) == 0
    assert sha256_of(out) == WIDE_SIMULATE_DIGESTS[spec]


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(WIDE_WL_DIGESTS))
def test_wide_wl_report_digest(tmp_path, spec, workers):
    # the default 129-point grid; the refinement study runs on 257 points
    out = tmp_path / "r.json"
    code = main(["verify", "wl", "--model", spec, "--weight", "pow:0.25", "--n", "5000",
                 "--seed", "5", "--workers", workers, "--out", str(out)])
    assert (code, report_digest(out)) == WIDE_WL_DIGESTS[spec]
