"""Dataset ingestion: IDX image files, delimited numeric text, label
files, synthetic blobs.

Feature matrices are float64, one row per sample, images flattened
row-major. Image pixels are scaled to [0,1]; text data is left as-is
unless min-max scaling is requested. Loaders preserve file order.
"""

from __future__ import annotations

import gzip
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .clustering import squared_distances
from .nn import _integer, _real, _seed

IDX_IMAGES_MAGIC = 0x00000803  # unsigned byte, rank 3
IDX_LABELS_MAGIC = 0x00000801  # unsigned byte, rank 1

# Rows per block when load_delimited peels the label column off in place.
_PEEL_ROWS = 4096


class IdxFormatError(ValueError):
    """Malformed IDX content; messages point at the byte offset."""


def integer_labels(values, what: str = "labels") -> np.ndarray:
    """``values`` as int64. Integral floats such as 2.0 are accepted; a
    ValueError names the first entry that is not a finite integer or
    lies beyond the int64 range."""
    values = np.asarray(values)
    if values.dtype.kind in "ib":
        return values.astype(np.int64)
    if values.dtype.kind == "u":
        inside = values <= np.iinfo(np.int64).max
    else:
        values = np.asarray(values, dtype=np.float64)
        whole = np.isfinite(values) & (values == np.rint(values))
        if not whole.all():
            index = int(np.argmin(whole.ravel()))
            raise ValueError(
                f"non-integer {what}: entry {index} is {float(values.ravel()[index])}"
            )
        inside = (values >= -(2.0**63)) & (values < 2.0**63)
    if not inside.all():
        index = int(np.argmin(inside.ravel()))
        raise ValueError(f"{what} beyond int64: entry {index} is {values.ravel()[index].item()}")
    return values.astype(np.int64)


@dataclass
class Dataset:
    features: np.ndarray  # (N, m) float64
    labels: np.ndarray | None = None  # (N,) int64
    name: str = "dataset"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] == 0:
            raise ValueError(
                f"features must be a non-empty 2-d array, got shape {self.features.shape}"
            )
        if not np.isfinite(self.features).all():
            row, col = np.argwhere(~np.isfinite(self.features))[0]
            raise ValueError(
                f"features contain non-finite values: row {row}, column {col} "
                f"is {self.features[row, col]}"
            )
        if self.labels is not None:
            self.labels = integer_labels(self.labels)
            if self.labels.shape != (self.features.shape[0],):
                raise ValueError(
                    f"labels shape {self.labels.shape} does not match "
                    f"{self.features.shape[0]} samples"
                )
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be non-negative")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def m(self) -> int:
        return self.features.shape[1]

    def take(self, n: int) -> "Dataset":
        """First n samples, preserving order, named ``<name>[:n]``."""
        n = _integer("n", n)
        if not 1 <= n <= self.n:
            raise ValueError(f"take(n) needs 1 <= n <= {self.n}, got {n}")
        return Dataset(
            features=self.features[:n].copy(),
            labels=None if self.labels is None else self.labels[:n].copy(),
            name=f"{self.name}[:{n}]",
        )


def _read_bytes(path: str) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as fh:
        return fh.read()


def _parse_idx(raw: bytes, path: str, magic: int, rank: int) -> np.ndarray:
    if len(raw) < 4:
        raise IdxFormatError(f"{path}: truncated header, need 4 magic bytes at offset 0")
    got = int.from_bytes(raw[0:4], "big")
    if got != magic:
        raise IdxFormatError(
            f"{path}: bad magic 0x{got:08x} at offset 0, expected 0x{magic:08x}"
        )
    header_end = 4 + 4 * rank
    if len(raw) < header_end:
        raise IdxFormatError(
            f"{path}: truncated header, need {rank} dimension words ending at offset {header_end}"
        )
    dims = [int.from_bytes(raw[4 + 4 * i : 8 + 4 * i], "big") for i in range(rank)]
    count = math.prod(dims)
    if len(raw) < header_end + count:
        raise IdxFormatError(
            f"{path}: truncated data, expected {count} bytes at offset {header_end}, "
            f"found {len(raw) - header_end}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header_end)
    return data.reshape(dims)


def load_idx(images_path: str, labels_path: str | None = None) -> Dataset:
    """Load big-endian IDX images (magic 0x00000803) scaled to [0,1].

    Images of h x w are flattened row-major to h*w features. If
    ``labels_path`` is given it must be a rank-1 label file (magic
    0x00000801) with a matching sample count. ``.gz`` paths are
    decompressed transparently.
    """
    images = _parse_idx(_read_bytes(images_path), str(images_path), IDX_IMAGES_MAGIC, 3)
    n = images.shape[0]
    features = images.reshape(n, -1).astype(np.float64) / 255.0
    labels = None
    if labels_path is not None:
        labels = _parse_idx(_read_bytes(labels_path), str(labels_path), IDX_LABELS_MAGIC, 1)
        if labels.shape[0] != n:
            raise IdxFormatError(
                f"{labels_path}: label count {labels.shape[0]} does not match "
                f"{n} images in {images_path}"
            )
        labels = labels.astype(np.int64)
    return Dataset(features=features, labels=labels, name=str(images_path))


def save_idx(dataset: Dataset, images_path: str, labels_path: str | None = None) -> None:
    """Write a Dataset as an IDX pair of square images, quantizing
    features back to bytes.

    The feature count must be a square, side*side; each row is written
    as one side x side image. Features are assumed to lie in [0,1] (they
    are clipped); reloading reproduces them to within 1/255.
    """
    n, m = dataset.features.shape
    side = math.isqrt(m)
    if side * side != m:
        raise ValueError(f"feature dim {m} is not square")
    if labels_path is not None:
        if dataset.labels is None:
            raise ValueError("dataset has no labels to write")
        if dataset.labels.max() > 255:
            row = int(np.argmax(dataset.labels > 255))
            raise ValueError(
                f"IDX labels are single bytes; label {int(dataset.labels[row])} "
                f"at row {row} exceeds 255"
            )
    pixels = np.clip(np.rint(dataset.features * 255.0), 0, 255).astype(np.uint8)
    with open(images_path, "wb") as fh:
        fh.write(IDX_IMAGES_MAGIC.to_bytes(4, "big"))
        for d in (n, side, side):
            fh.write(int(d).to_bytes(4, "big"))
        fh.write(pixels.tobytes())
    if labels_path is not None:
        with open(labels_path, "wb") as fh:
            fh.write(IDX_LABELS_MAGIC.to_bytes(4, "big"))
            fh.write(int(n).to_bytes(4, "big"))
            fh.write(dataset.labels.astype(np.uint8).tobytes())


def concat_datasets(parts: list[Dataset], name: str = "concat") -> Dataset:
    """Stack datasets row-wise (e.g. a train file plus a test file). The
    result has labels when every part has them, and none when no part
    has; a mix is an error naming the first unlabelled part."""
    if not parts:
        raise ValueError("nothing to concatenate")
    m = parts[0].m
    for p in parts[1:]:
        if p.m != m:
            raise ValueError(f"feature dims differ: {m} vs {p.m}")
    unlabelled = [i for i, p in enumerate(parts) if p.labels is None]
    if unlabelled and len(unlabelled) < len(parts):
        i = unlabelled[0]
        raise ValueError(f"part {i} ({parts[i].name!r}) has no labels, but other parts do")
    return Dataset(
        features=np.concatenate([p.features for p in parts], axis=0),
        labels=None if unlabelled else np.concatenate([p.labels for p in parts]),
        name=name,
    )


def load_delimited(
    path: str,
    delimiter: str = ",",
    label_column: int | None = None,
    skip_header: int = 0,
    minmax_scale: bool = False,
    name: str | None = None,
) -> Dataset:
    """Parse a rectangular numeric table; optionally peel off a label column.

    Labels are read from ``label_column`` (negative indices count from
    the end) and must be integers below 2^53 in magnitude, past which the
    float64 table cannot keep them apart. Errors carry 1-based line numbers.
    ``minmax_scale`` rescales each feature to [0,1] (constant columns
    become 0). A single-character delimiter lets numpy's C reader parse
    the file; whatever it refuses goes through the per-line parser, which
    decides what is accepted and how errors read.
    """
    if label_column is not None:
        label_column = _integer("label_column", label_column)
    skip_header = _integer("skip_header", skip_header)
    if skip_header < 0:
        raise ValueError(f"skip_header must be >= 0, got {skip_header}")
    table = None
    if _c_reader_agrees(path, delimiter):
        table = _loadtxt_rows(path, delimiter=delimiter, skiprows=skip_header, ndmin=2)
    if table is None:
        table = _parse_lines(path, delimiter, skip_header, float, np.float64)
    labels = None
    if label_column is not None:
        col = label_column if label_column >= 0 else table.shape[1] + label_column
        if not 0 <= col < table.shape[1]:
            raise ValueError(
                f"label column {label_column} out of range for {table.shape[1]} columns"
            )
        what = f"labels in {path} column {label_column}"
        labels = integer_labels(table[:, col], what)
        # Past 2^53 the float64 table has merged neighbouring integers.
        inexact = np.flatnonzero(np.abs(table[:, col]) >= 2.0**53)
        if inexact.size:
            raise ValueError(f"{what} reach 2^53, past which float64 merges integers: "
                             f"entry {inexact[0]} reads {labels[inexact[0]]}")
        table = _drop_column(table, col)
    if minmax_scale:
        lo = table.min(axis=0)
        span = table.max(axis=0) - lo
        span[span == 0.0] = 1.0
        table -= lo
        table /= span
    return Dataset(features=table, labels=labels, name=name or str(path))


def _drop_column(table: np.ndarray, col: int) -> np.ndarray:
    """The (n, m) ``table`` without column ``col``, as a C-contiguous view
    of the table's own buffer (whose last n values go unused). Block by
    block over rows, row i's other values move to offset i*(m-1), which
    never overtakes a row not yet read, so only one block at a time is
    copied out."""
    n, m = table.shape
    flat = table.reshape(-1)
    for start in range(0, n, _PEEL_ROWS):
        rows = np.delete(table[start : start + _PEEL_ROWS], col, axis=1)
        flat[start * (m - 1) : start * (m - 1) + rows.size] = rows.ravel()
    return flat[: n * (m - 1)].reshape(n, m - 1)


# numpy's reader strips these from cells, as str.isspace does; float() keeps them.
_UNSTRIPPED_BY_FLOAT = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _c_reader_agrees(path: str, delimiter: str) -> bool:
    """Whether ``_loadtxt_rows`` can only accept a table the per-line
    parser gives too: the delimiter is one character and the file holds
    none of the ASCII separators 0x1c-0x1f."""
    if not (isinstance(delimiter, str) and len(delimiter) == 1 and delimiter not in "\r\n"):
        return False
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            if any(sep in chunk for sep in _UNSTRIPPED_BY_FLOAT):
                return False
    return True


def _loadtxt_rows(path: str, **kwargs) -> np.ndarray | None:
    """``np.loadtxt`` of a utf-8 text file, parsed in C without a Python
    object per cell; None if it refuses the file or finds no rows.

    Callers then run ``_parse_lines``: it accepts what loadtxt refuses
    (whitespace-only lines, ``1_0``, Unicode digits) and raises the
    errors, with 1-based line numbers. The file goes in as a handle, so a
    ``.gz`` path is not decompressed, as by ``_parse_lines``.
    """
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(fh, comments=None, **kwargs)
        except ValueError:
            return None
    return table if table.shape[0] else None


def _parse_lines(path: str, delimiter: str, skip_header: int, convert, dtype) -> np.ndarray:
    """The stripped, non-blank lines past ``skip_header``, split at
    ``delimiter``, as a ``dtype`` table of ``convert`` of each cell. A
    ValueError names the path and the 1-based line."""
    rows: list[list] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno <= skip_header:
                continue
            line = line.strip()
            if not line:
                continue
            cells = line.split(delimiter)
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(
                    f"{path}: line {lineno} has {len(cells)} fields, expected {width}"
                )
            try:
                rows.append([convert(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.asarray(rows, dtype=dtype)


def _label_cell(cell: str) -> int:
    try:
        label = int(cell)
    except ValueError:
        raise ValueError(f"not an integer label: {cell!r}") from None
    if not -(2**63) <= label < 2**63:
        raise ValueError(f"label {cell!r} is beyond int64")
    return label


def load_labels(path: str) -> np.ndarray:
    """int64 labels, one per line, as ``deepkm eval`` reads them: numpy's
    C reader first, then, for whatever it refuses or reads as more than
    one column, the per-line parser, which decides what is accepted
    (blank lines, ``1_0``, Unicode digits) and names the line of an
    error."""
    labels = _loadtxt_rows(path, dtype=np.int64, ndmin=2)
    if labels is None or labels.shape[1] != 1:
        # A stripped line holds no newline, so each line is one cell.
        labels = _parse_lines(path, "\n", 0, _label_cell, np.int64)
    return labels[:, 0]


def make_blobs(
    n_per_cluster: int,
    k: int,
    dim: int,
    separation: float,
    noise_sigma: float,
    seed: int,
) -> Dataset:
    """K isotropic Gaussian clusters with centers at pairwise distance
    >= separation (the closest pair sits exactly at it). Points are laid
    out cluster-major; labels are the cluster ids. Deterministic per seed."""
    n_per_cluster = _integer("n_per_cluster", n_per_cluster)
    k, dim = _integer("k", k), _integer("dim", dim)
    separation, noise_sigma = _real("separation", separation), _real("noise_sigma", noise_sigma)
    seed = _seed(seed)
    if n_per_cluster < 1 or k < 1 or dim < 1:
        raise ValueError("n_per_cluster, k and dim must be positive")
    if separation <= 0 or noise_sigma < 0:
        raise ValueError("separation must be positive and noise_sigma non-negative")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim))
    if k > 1:
        dists = np.sqrt(squared_distances(centers, centers))
        closest = dists[np.triu_indices(k, 1)].min()
        if closest <= 0.0:
            raise ValueError("degenerate random centers; try another seed")
        centers *= separation / closest
    features = np.repeat(centers, n_per_cluster, axis=0)
    if noise_sigma > 0:
        features = features + noise_sigma * rng.standard_normal(features.shape)
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_cluster)
    return Dataset(features=features, labels=labels, name=f"blobs(k={k},dim={dim},seed={seed})")
