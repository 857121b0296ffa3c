"""tools/gemm_splits.py, the row-split GEMM probe, on a tiny net."""

import importlib.util
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("gemm_splits", ROOT / "tools" / "gemm_splits.py")
gemm_splits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gemm_splits)


def test_tiny_net_table_has_one_row_per_layer_and_block(capsys):
    start = time.perf_counter()
    assert gemm_splits.main(["--input", "12", "--latent", "2", "--hidden", "8,6",
                             "--rows", "40,33", "--chunks", "7,16,40"]) == 0
    assert time.perf_counter() - start < 1.0
    lines = capsys.readouterr().out.splitlines()
    assert "OPENBLAS_NUM_THREADS=" in lines[0]
    assert lines[1].split() == ["layer", "rows", "7", "16", "40"]
    rows = [line.split() for line in lines[2:]]
    # 12-8-6-2-6-8-12: six layers, each at 40 and 33 rows
    assert [(r[0], r[1]) for r in rows] == [
        (layer, n) for layer in ("12x8", "8x6", "6x2", "2x6", "6x8", "8x12") for n in ("40", "33")
    ]
    for r in rows:
        assert set(r[2:]) <= {"same", "differs"}
        if r[1] == "40":  # one 40-row chunk is the whole product
            assert r[4] == "same"
