"""Run the suite at the benchmark's BLAS setting: one OpenBLAS thread.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, when numpy first loads, so
this must run before any test module imports numpy. At one BLAS thread
on two or more CPUs, ``deepkm.nn`` runs its helper thread, the path that
``bench/run.py`` times; the tests that patch ``nn._helper`` to None keep
the helper-off path covered. A thread count set by the caller is kept.
"""

import os
import sys

if "OPENBLAS_NUM_THREADS" not in os.environ:
    if "numpy" in sys.modules:
        raise RuntimeError(
            "numpy was imported before tests/conftest.py could set OPENBLAS_NUM_THREADS=1; "
            "set it in the environment, or find the plugin that imports numpy"
        )
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
