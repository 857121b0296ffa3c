"""The package's public surface."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import deepkm
from deepkm import harness


def test_every_public_name_resolves():
    assert len(set(deepkm.__all__)) == len(deepkm.__all__)
    for name in deepkm.__all__:
        assert hasattr(deepkm, name), name


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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "acc" in proc.stdout
