"""Process set-up shared by the benchmark entry point and its tests.

Both steps must run before numpy is first imported: OpenBLAS reads
OPENBLAS_NUM_THREADS once, when the library loads, and the benchmark
must measure the package in this checkout, never an installed copy.
"""

import os
import sys
from pathlib import Path

BLAS_THREADS = "1"
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def pin_blas_threads() -> None:
    """One BLAS thread: on a small shared host a second thread adds more
    spread than speed (see README.md)."""
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS


def use_checkout_src() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises FileNotFoundError when the package sources are not there, so
    the benchmark fails instead of timing some other copy of deepkm.
    """
    if not (SRC / "deepkm" / "__init__.py").is_file():
        raise FileNotFoundError(f"no deepkm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import deepkm

    if Path(deepkm.__file__).resolve().parent != SRC / "deepkm":
        raise ImportError(f"deepkm was imported from {deepkm.__file__}, not {SRC}")
