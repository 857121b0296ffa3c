"""Golden reports: every method's run on tiny blobs, pinned bit for bit.

``golden/reports.json`` holds the reports of all seven methods for two
seeds, once with an explicit coefficient (``lam=2.0`` through the
library) and once with each method's default coefficient (no
``--lambda`` through ``deepkm suite``). Assignments, configs and
metric mappings must match exactly; centroids, loss series and the
ACC/NMI values to a relative 1e-12. The tolerance is fixed: a change
that moves a run further than that changes what the lab computes.

Regenerate only when a change is meant to alter results:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import json
from pathlib import Path

import pytest

from deepkm.cli import main
from deepkm.data import make_blobs
from deepkm.harness import METHODS, TrainConfig, run_method

from helpers import assert_report_matches, strip_wall_clock

GOLDEN = Path(__file__).parent / "golden" / "reports.json"
SEEDS = (0, 1)
BLOBS = dict(n=20, k=3, dim=6, sep=6.0, noise=1.0, seed=5)
TRAIN = dict(k=3, pretrain_epochs=2, finetune_epochs=3, batch_size=16,
             latent_dim=2, hidden_dims=(8,))
EXPLICIT_LAM = 2.0


def _data():
    return make_blobs(BLOBS["n"], BLOBS["k"], BLOBS["dim"], separation=BLOBS["sep"],
                      noise_sigma=BLOBS["noise"], seed=BLOBS["seed"])


def explicit_lam_reports() -> dict:
    data = _data()
    out = {}
    for method in METHODS:
        for seed in SEEDS:
            cfg = TrainConfig(method=method, seed=seed, lam=EXPLICIT_LAM, **TRAIN)
            report = run_method(data, cfg).to_json_dict()
            out[f"explicit_lam/{method}/seed{seed}"] = strip_wall_clock(report)
    return out


def default_lam_reports(out_dir: Path) -> dict:
    spec = "blobs:" + ",".join(f"{k}={v}" for k, v in BLOBS.items())
    code = main([
        "suite", "--dataset", spec, "--methods", ",".join(METHODS),
        "--seeds", ",".join(map(str, SEEDS)), "--k", str(TRAIN["k"]),
        "--pretrain-epochs", str(TRAIN["pretrain_epochs"]),
        "--epochs", str(TRAIN["finetune_epochs"]),
        "--batch-size", str(TRAIN["batch_size"]),
        "--latent-dim", str(TRAIN["latent_dim"]),
        "--hidden-dims", ",".join(map(str, TRAIN["hidden_dims"])),
        "--out", str(out_dir),
    ])
    assert code == 0
    out = {}
    for method in METHODS:
        for seed in SEEDS:
            path = out_dir / f"{method}_seed{seed}.json"
            out[f"default_lam/{method}/seed{seed}"] = strip_wall_clock(json.loads(path.read_text()))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_method_twice(golden):
    assert len(golden) == 2 * len(METHODS) * len(SEEDS)
    assert {report["method"] for report in golden.values()} == set(METHODS)


def test_explicit_lam_reports_match_golden(golden):
    got = explicit_lam_reports()
    for key, report in got.items():
        assert_report_matches(report, golden[key], key)


def test_default_lam_reports_match_golden(golden, tmp_path):
    got = default_lam_reports(tmp_path)
    for key, report in got.items():
        assert_report_matches(report, golden[key], key)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        reports = explicit_lam_reports() | default_lam_reports(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(reports, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(reports)} reports to {GOLDEN}")
