"""Dataset round-trips: IDX image files and delimited text tables.

Writes both formats into a temporary directory, reads them back, and
shows the loader guarantees (pixel scaling, label attachment, header
skipping, min-max scaling).
"""

import atexit
import shutil
import tempfile
from pathlib import Path

import numpy as np

from deepkm.data import Dataset, load_delimited, load_idx, save_idx

workdir = Path(tempfile.mkdtemp(prefix="deepkm-demo-"))
atexit.register(shutil.rmtree, workdir, ignore_errors=True)
print(f"working in {workdir} (removed on exit)\n")

# --- IDX: the classic big-endian image format ---------------------------
rng = np.random.default_rng(0)
digits = Dataset(rng.uniform(0, 1, size=(12, 16)), labels=rng.integers(0, 10, size=12))
# 16 features per row: written as square 4x4 images
save_idx(digits, workdir / "demo-images.idx", workdir / "demo-labels.idx")

back = load_idx(workdir / "demo-images.idx", workdir / "demo-labels.idx")
print(f"IDX round trip: {back.n} images, {back.m} pixels each, in [0,1]")
print(f"largest quantization error: {np.abs(back.features - digits.features).max():.5f}"
      f" (half of 1/255 = {0.5 / 255:.5f})")
print(f"labels preserved exactly: {np.array_equal(back.labels, digits.labels)}")

# --- delimited text ------------------------------------------------------
csv = workdir / "table.csv"
csv.write_text(
    "height,weight,class\n"
    "150,50,0\n"
    "160,60,0\n"
    "180,90,1\n"
    "190,85,1\n"
)
table = load_delimited(csv, label_column=-1, skip_header=1, minmax_scale=True)
print(f"\nCSV: {table.n} rows, features scaled to [0,1]:")
print(table.features)
print(f"labels: {table.labels.tolist()}")

# malformed input points at the offending line
bad = workdir / "bad.csv"
bad.write_text("1,2\n3,oops\n")
try:
    load_delimited(bad)
except ValueError as exc:
    print(f"\nbad file rejected with location: {exc}")
