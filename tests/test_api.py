"""The package's public surface."""

import importlib
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import deepkm
from deepkm import harness

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    assert len(set(deepkm.__all__)) == len(deepkm.__all__)
    for name in deepkm.__all__:
        assert hasattr(deepkm, name), name


def test_public_names_are_pinned():
    assert deepkm.__all__ == [
        "KMeansResult", "assign", "kmeans", "kmeans_plus_plus_init", "lloyd_step",
        "Dataset", "concat_datasets", "load_delimited", "load_idx", "make_blobs", "save_idx",
        "METHODS", "RunReport", "SuiteResult", "TrainConfig", "run_method", "run_suite",
        "CombinedResult", "LossConfig", "combined_objective", "ct_loss", "ct_weights",
        "dcn_penalty", "dkm_loss", "dkm_weights",
        "MetricsReport", "evaluate", "hungarian",
        "AutoencoderParams", "LayerSpec", "Workspace", "backward", "encode", "forward",
        "init_autoencoder", "make_optimizer", "mirrored_spec", "optimizer_step",
        "__version__",
    ]


def test_every_traced_function_resolves():
    # the benchmark's tracer looks each name up in its home module; a
    # missing one would first show as a failed traced run
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for span, home, attr in tracing.TRACED:
        assert callable(getattr(importlib.import_module(home), attr, None)), span


def test_method_order_is_pinned():
    # Suites and the benchmark iterate METHODS: its order fixes the order
    # of reports, the bytes of suite.tsv and the summation order of means.
    assert harness.METHODS == ("km", "aekm", "dcn", "dkm", "dkm_rein", "ours", "ours_norein")
    assert deepkm.METHODS is harness.METHODS


def test_scipy_is_not_a_runtime_import(tmp_path):
    # scipy is only the tests' oracle for the label matching; importing it
    # would add about half a second and 45 MB to every process
    (tmp_path / "pred.txt").write_text("0\n0\n1\n2\n")
    (tmp_path / "truth.txt").write_text("1\n1\n0\n0\n")
    script = textwrap.dedent(f"""
        import sys
        import deepkm
        assert "scipy" not in sys.modules, "import deepkm loaded scipy"
        from deepkm.cli import main
        assert main(["eval", "--pred", {str(tmp_path / "pred.txt")!r},
                     "--truth", {str(tmp_path / "truth.txt")!r}]) == 0
        assert "scipy" not in sys.modules, "deepkm eval loaded scipy"
    """)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "acc" in proc.stdout
