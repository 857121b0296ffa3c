"""A paper-shaped run, pinned bit for bit.

``golden/paper_reports.json`` holds the reports of ``ours``,
``dkm_rein`` and ``dcn`` on 4,200 rows of 784-d image-like data, through
a 784-48-700-10 mirrored net at batch 256 with 1 pretraining and 2
finetuning epochs. Unlike the tiny golden runs, these take the paths of
paper-sized nets: layers of at least ``nn._BLOCK`` weights, a flat
vector of several optimizer blocks, and full-data encodes of more than
one ``nn._ENCODE_ROWS`` block at the real block height. The reports
must match the fixture as ``test_golden`` matches its own (rel 1e-12),
and each run must give the same bits with the helper thread on and off.

Regenerate only when a change is meant to alter results:
``PYTHONPATH=src python tests/test_paper_pin.py``.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from deepkm import nn
from deepkm.data import Dataset
from deepkm.harness import TrainConfig, run_method

from helpers import assert_report_matches, run_python, strip_wall_clock

GOLDEN = Path(__file__).parent / "golden" / "paper_reports.json"
METHODS = ("ours", "dkm_rein", "dcn")
ROWS, DIM, K = 4200, 784, 10
TRAIN = dict(k=K, seed=3, pretrain_epochs=1, finetune_epochs=2, batch_size=256, lam=1.0,
             latent_dim=10, hidden_dims=(48, 700), learning_rate=5e-4)


def paper_rows(seed=11) -> Dataset:
    """Rows in [0, 1]: a sparse prototype per class, some rows blended
    toward another class's prototype, then multiplicative noise."""
    rng = np.random.default_rng(seed)
    protos = (rng.random((K, DIM)) < 0.15) * rng.uniform(0.5, 1.0, (K, DIM))
    labels = np.arange(ROWS) % K
    other = (labels + rng.integers(1, K, ROWS)) % K
    share = rng.uniform(0.2, 0.8, (ROWS, 1)) * (rng.random((ROWS, 1)) < 0.4)
    rows = (1.0 - share) * protos[labels] + share * protos[other]
    rows *= 1.0 + 0.4 * rng.standard_normal(rows.shape)
    return Dataset(np.clip(rows, 0.0, 1.0), labels, name="paper_rows")


def paper_reports(methods=METHODS, helper=None) -> dict:
    """Each method's report without ``wall_clock``; ``helper`` is the
    executor ``nn._helper`` gives (None: no helper thread)."""
    data = paper_rows()
    with mock.patch.object(nn, "_helper", lambda: helper):
        return {method: strip_wall_clock(run_method(data, TrainConfig(method=method, **TRAIN))
                                         .to_json_dict())
                for method in methods}


@pytest.fixture(scope="module")
def reports():
    return paper_reports()


def test_the_runs_take_the_paths_of_paper_sized_nets():
    params = nn.init_autoencoder(*nn.mirrored_spec(DIM, TRAIN["latent_dim"],
                                                   TRAIN["hidden_dims"]), 0)
    layers = params.encoder + params.decoder
    assert sum(layer.weight.size >= nn._BLOCK for layer in layers[1:]) == 3
    assert params.flat.size > 4 * nn._BLOCK
    assert ROWS > nn._ENCODE_ROWS


def test_full_data_encodes_run_in_blocks_of_4096_rows():
    # BLAS rounds some rows of the 48-700 and 700-10 products differently
    # at another block height, so the height is part of every run's bits;
    # the reports' tolerance cannot see a latent's last bit
    params = nn.init_autoencoder(*nn.mirrored_spec(DIM, TRAIN["latent_dim"],
                                                   TRAIN["hidden_dims"]), 0)
    rows = paper_rows().features
    want = np.vstack([nn.encode(params, rows[start : start + 4096])
                      for start in range(0, ROWS, 4096)])
    assert np.array_equal(nn.encode_blocks(params, rows), want)


def test_reports_match_golden(reports):
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(METHODS)
    for method in METHODS:
        assert_report_matches(reports[method], golden[method], method)


def test_the_helper_thread_changes_no_bit(reports):
    # dcn reads the parameters between steps, to move its centroids
    with ThreadPoolExecutor(1) as pool:
        assert paper_reports(("dcn",), pool) == {"dcn": reports["dcn"]}


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="the helper runs only where a second CPU is free")
def test_the_real_helper_changes_no_bit(reports):
    # at one BLAS thread on two CPUs nn makes its own helper. BLAS rounds
    # some GEMMs differently at another thread count, so the run with no
    # helper to compare against is made in the same process
    proc = run_python("""
        import json
        from deepkm import nn
        from deepkm.harness import TrainConfig, run_method
        from test_paper_pin import TRAIN, paper_reports, paper_rows

        assert nn._helper() is not None
        report = run_method(paper_rows(), TrainConfig(method="ours", **TRAIN)).to_json_dict()
        print(json.dumps([report, paper_reports(("ours",))["ours"]]))
    """, OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    helped, alone = json.loads(proc.stdout)
    assert strip_wall_clock(helped) == alone
    assert_report_matches(alone, reports["ours"], "ours at one BLAS thread")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(paper_reports(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(METHODS)} reports to {GOLDEN}")
