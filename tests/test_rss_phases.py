"""tools/rss_phases.py, the per-phase resident-memory probe, on a tiny net."""

import importlib.util
import os
import time
from pathlib import Path

import pytest

from deepkm import harness

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("rss_phases", ROOT / "tools" / "rss_phases.py")
rss_phases = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rss_phases)


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"), reason="needs /proc/self/statm")
def test_tiny_run_has_a_line_per_phase(capsys):
    epoch, encode_blocks = harness._epoch, harness.encode_blocks
    start = time.perf_counter()
    assert rss_phases.main(["--input", "12", "--latent", "2", "--hidden", "8,6", "--rows", "60",
                            "--k", "3", "--pretrain", "2", "--finetune", "2", "--batch", "16"]) == 0
    assert time.perf_counter() - start < 1.0
    assert (harness._epoch, harness.encode_blocks) == (epoch, encode_blocks)
    lines = capsys.readouterr().out.splitlines()
    assert "OPENBLAS_NUM_THREADS=" in lines[0]
    assert "encoder 12-8-6-2" in lines[1]
    assert lines[2].split() == ["phase", "seconds", "peak_rss_mb"]
    rows = [line.rsplit(maxsplit=2) for line in lines[3:-1]]
    # in the order first entered: the two pretraining epochs are one phase,
    # then the initial fit's encode, and an epoch and a refit's encode per
    # finetuning epoch
    assert [r[0] for r in rows] == ["other", "pretrain", "encode 0", "finetune epoch 0",
                                    "encode 1", "finetune epoch 1", "encode 2"]
    assert all(float(r[1]) >= 0.0 and float(r[2]) > 0.0 for r in rows)
    name, peak = lines[-1].rsplit(maxsplit=1)
    assert name == "process (ru_maxrss)" and float(peak) > 0.0
