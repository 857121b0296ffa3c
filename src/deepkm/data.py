"""Dataset ingestion: IDX image files, delimited numeric text, synthetic blobs.

Feature matrices are float64, one row per sample, images flattened
row-major. Image pixels are scaled to [0,1]; text data is left as-is
unless min-max scaling is requested. Loaders preserve file order.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803  # unsigned byte, rank 3
IDX_LABELS_MAGIC = 0x00000801  # unsigned byte, rank 1


class IdxFormatError(ValueError):
    """Malformed IDX content; messages point at the byte offset."""


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
            raise ValueError("features contain non-finite values")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
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

    def take(self, n: int, name: str | None = None) -> "Dataset":
        """First n samples, preserving order."""
        if not 1 <= n <= self.n:
            raise ValueError(f"take(n) needs 1 <= n <= {self.n}, got {n}")
        return Dataset(
            features=self.features[:n].copy(),
            labels=None if self.labels is None else self.labels[:n].copy(),
            name=name if name is not None else f"{self.name}[:{n}]",
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
    count = int(np.prod(dims))
    if len(raw) < header_end + count:
        raise IdxFormatError(
            f"{path}: truncated data, expected {count} bytes at offset {header_end}, "
            f"found {len(raw) - header_end}"
        )
    data = np.frombuffer(raw, dtype=np.uint8, count=count, offset=header_end)
    return data.reshape(dims)


def load_idx(images_path: str, labels_path: str | None = None, name: str | None = None) -> Dataset:
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
    return Dataset(features=features, labels=labels, name=name or str(images_path))


def save_idx(dataset: Dataset, images_path: str, labels_path: str | None = None,
             height: int | None = None, width: int | None = None) -> None:
    """Write a Dataset as an IDX pair, quantizing features back to bytes.

    Features are assumed to lie in [0,1] (they are clipped); reloading
    reproduces them to within 1/255. Feature count must factor as
    height*width; square images are inferred when possible.
    """
    n, m = dataset.features.shape
    if height is None or width is None:
        side = int(round(np.sqrt(m)))
        if side * side != m:
            raise ValueError(f"feature dim {m} is not square; pass height and width")
        height = width = side
    if height * width != m:
        raise ValueError(f"height*width = {height * width} does not match feature dim {m}")
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
        for d in (n, height, width):
            fh.write(int(d).to_bytes(4, "big"))
        fh.write(pixels.tobytes())
    if labels_path is not None:
        with open(labels_path, "wb") as fh:
            fh.write(IDX_LABELS_MAGIC.to_bytes(4, "big"))
            fh.write(int(n).to_bytes(4, "big"))
            fh.write(dataset.labels.astype(np.uint8).tobytes())


def concat_datasets(parts: list[Dataset], name: str = "concat") -> Dataset:
    """Stack datasets row-wise (e.g. a train file plus a test file)."""
    if not parts:
        raise ValueError("nothing to concatenate")
    m = parts[0].m
    for p in parts[1:]:
        if p.m != m:
            raise ValueError(f"feature dims differ: {m} vs {p.m}")
    has_labels = all(p.labels is not None for p in parts)
    return Dataset(
        features=np.concatenate([p.features for p in parts], axis=0),
        labels=np.concatenate([p.labels for p in parts]) if has_labels else None,
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
    the end) and must be integers. Errors carry 1-based line numbers.
    ``minmax_scale`` rescales each feature to [0,1] (constant columns
    become 0).
    """
    rows: list[list[float]] = []
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
                rows.append([float(c) for c in cells])
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    table = np.asarray(rows, dtype=np.float64)
    labels = None
    if label_column is not None:
        col = label_column if label_column >= 0 else table.shape[1] + label_column
        if not 0 <= col < table.shape[1]:
            raise ValueError(
                f"label column {label_column} out of range for {table.shape[1]} columns"
            )
        raw = table[:, col]
        if not np.all(raw == np.rint(raw)):
            raise ValueError(f"{path}: label column {label_column} has non-integer values")
        labels = raw.astype(np.int64)
        table = np.delete(table, col, axis=1)
    if minmax_scale:
        lo = table.min(axis=0)
        span = table.max(axis=0) - lo
        span[span == 0.0] = 1.0
        table = (table - lo) / span
    return Dataset(features=table, labels=labels, name=name or str(path))


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
    if n_per_cluster < 1 or k < 1 or dim < 1:
        raise ValueError("n_per_cluster, k and dim must be positive")
    if separation <= 0 or noise_sigma < 0:
        raise ValueError("separation must be positive and noise_sigma non-negative")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, dim))
    if k > 1:
        diff = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
        closest = dists[np.triu_indices(k, 1)].min()
        if closest <= 0.0:
            raise ValueError("degenerate random centers; try another seed")
        centers *= separation / closest
    features = np.repeat(centers, n_per_cluster, axis=0)
    if noise_sigma > 0:
        features = features + noise_sigma * rng.standard_normal(features.shape)
    labels = np.repeat(np.arange(k, dtype=np.int64), n_per_cluster)
    return Dataset(features=features, labels=labels, name=f"blobs(k={k},dim={dim},seed={seed})")
