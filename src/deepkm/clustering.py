"""Classical K-means: D^2-weighted seeding, Lloyd iterations, repair rules.

All tie-breaks are deterministic (lowest index wins) so that a fixed
seed reproduces runs bit for bit. ``squared_distances`` is the one exact
definition of distance: differences taken in float64 and squared, block
by block to bound peak memory. Nearest-center labels are found in two
passes. A screen ranks the centers per point by ``|c|^2 - 2 x.c`` from
one matrix product, which never forms the (N, K, dim) differences.
Rows whose best and second-best centers lie within the screen's
rounding bound of each other, and rows that could overflow, are
recomputed with ``squared_distances``. So every label is the first
minimum of the exact distances, the same bits the exact path alone
gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_BLOCK_ELEMS = 2**24  # ~128 MiB of float64 scratch per distance block
_EPS = np.finfo(np.float64).eps
_TINY = np.finfo(np.float64).tiny
_HUGE = np.finfo(np.float64).max / 4


@dataclass
class KMeansResult:
    centers: np.ndarray  # (K, dim)
    labels: np.ndarray  # (N,) int
    objective: float  # sum of squared distances to assigned centers
    iterations: int
    converged: bool


def _check_points(points: np.ndarray, what: str = "points") -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError(f"{what} must be a non-empty 2-d array, got shape {points.shape}")
    if not np.isfinite(points).all():
        raise ValueError(f"{what} contains non-finite values")
    return points


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Exact (N, K) squared euclidean distances, computed blockwise."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n, dim = points.shape
    k = centers.shape[0]
    out = np.empty((n, k))
    block = max(1, _BLOCK_ELEMS // max(1, k * dim))
    for start in range(0, n, block):
        diff = points[start : start + block, None, :] - centers[None, :, :]
        out[start : start + block] = np.einsum("nkd,nkd->nk", diff, diff)
    return out


def _nearest(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Bit for bit ``np.argmin(squared_distances(points, centers), axis=1)``,
    without the (N, K, dim) differences for rows the screen settles."""
    dim = points.shape[1]
    cc = np.einsum("kd,kd->k", centers, centers)
    # s[i, j] = |c_j|^2 - 2 x_i.c_j = |x_i - c_j|^2 - |x_i|^2, rounded.
    # Scaling by -2 is exact.
    s = points @ (-2.0 * centers).T
    s += cc
    labels = np.argmin(s, axis=1)
    # With u = eps/2 and scale = |x|^2 + max_j |c_j|^2, in any summation
    # order: s_ij is within (2 gamma_d + 2u) * scale ~ (d+1) eps * scale
    # of its exact value (the gamma_d dot-product error, as |2 x.c| <=
    # scale), and the exact path's own rounding of |x - c_j|^2 <= 2 scale
    # is at most 2 gamma_{d+2} * scale ~ (d+2) eps * scale. tau is about
    # twice their sum; the tiny term covers gradual underflow. If every
    # other s_ij exceeds the row's smallest by more than 2 tau, the exact
    # distances keep the same center strictly first.
    scale = np.einsum("nd,nd->n", points, points) + cc.max()
    tau = 4 * (dim + 4) * _EPS * scale + _TINY
    best = np.take_along_axis(s, labels[:, None], axis=1)[:, 0]
    # ~(s > bound) rather than s <= bound: a NaN, which argmin picks and
    # passes on to the bound, makes every center of its row close.
    close = ~(s > (best + 2.0 * tau)[:, None])
    # Past _HUGE either pass may overflow (|x - c|^2 <= 2 scale).
    ambiguous = np.flatnonzero(
        (np.count_nonzero(close, axis=1) > 1) | ~(scale < _HUGE)
    )
    if ambiguous.size:
        labels[ambiguous] = np.argmin(
            squared_distances(points[ambiguous], centers), axis=1
        )
    return labels


def assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center per point; ties go to the lowest index."""
    points = _check_points(points)
    centers = _check_points(centers, "centers")
    if points.shape[1] != centers.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {points.shape[1]}-d, "
            f"centers are {centers.shape[1]}-d"
        )
    return _nearest(points, centers)


def kmeans_plus_plus_init(
    points: np.ndarray, k: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Seed K centers: first uniform, the rest D^2-weighted on squared
    distance to the nearest already-chosen center. ``seed`` may be an
    int or an existing Generator."""
    rng = np.random.default_rng(seed)
    points = _check_points(points)
    n = points.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n_points, got k={k}, n={n}")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = rng.integers(n)
    d2 = squared_distances(points, points[chosen[0]][None, :])[:, 0]
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # All mass sits on already-chosen coordinates; any point is as
            # good as any other.
            chosen[i] = rng.integers(n)
        else:
            r = rng.random() * total
            chosen[i] = np.searchsorted(np.cumsum(d2), r, side="right")
        new_d2 = squared_distances(points, points[chosen[i]][None, :])[:, 0]
        np.minimum(d2, new_d2, out=d2)
    return points[chosen].copy()


def _assign_repaired(
    points: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nearest-center labels with every empty cluster given the point
    farthest from its current center.

    Returns (labels, centers, counts per cluster). Clusters are repaired
    in ascending index order; among equally far points the lowest index
    wins. A point alone in its cluster is never taken, so no repair
    empties another cluster, and donor points are removed from the pool
    so two empty clusters never grab the same point.
    """
    k = centers.shape[0]
    labels = _nearest(points, centers)
    counts = np.bincount(labels, minlength=k)
    if counts.all():
        return labels, centers, counts
    d2 = squared_distances(points, centers)
    own_d2 = d2[np.arange(points.shape[0]), labels]
    centers = centers.copy()
    for cluster in np.flatnonzero(counts == 0):
        # first max = lowest index on ties
        donor = int(np.argmax(np.where(counts[labels] > 1, own_d2, -np.inf)))
        counts[labels[donor]] -= 1
        counts[cluster] += 1
        centers[cluster] = points[donor]
        labels[donor] = cluster
        own_d2[donor] = -np.inf
    return labels, centers, counts


def lloyd_step(
    points: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """One Lloyd iteration: assign, repair empties, recompute means.

    Returns (new_centers, labels, objective) where the objective is the
    sum of squared distances from each point to the center it was just
    assigned to, i.e. evaluated before the mean update. This makes the
    sequence of objectives across steps non-increasing.
    """
    points = _check_points(points)
    centers = _check_points(centers, "centers")
    labels, centers, counts = _assign_repaired(points, centers)
    diff = points - centers[labels]
    objective = float(np.einsum("nd,nd->", diff, diff))
    # bincount adds each cluster's rows in index order, from 0.0, so the
    # sums are the bits that np.add.at gives.
    sums = np.stack(
        [np.bincount(labels, weights=points[:, a], minlength=centers.shape[0])
         for a in range(points.shape[1])],
        axis=1,
    )
    return sums / counts[:, None], labels, objective


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int | np.random.Generator,
    max_iters: int = 100,
    tol: float = 1e-6,
    init_centers: np.ndarray | None = None,
) -> KMeansResult:
    """Full K-means: k-means++ seeding (unless centers are given) then
    Lloyd iterations until the largest center shift drops below ``tol``.

    The returned labels and objective are consistent with the returned
    centers: both are recomputed after the final update.
    """
    points = _check_points(points)
    if init_centers is not None:
        centers = _check_points(init_centers, "init_centers").copy()
        if centers.shape != (k, points.shape[1]):
            raise ValueError(
                f"init_centers shape {centers.shape} does not match "
                f"(k={k}, dim={points.shape[1]})"
            )
    else:
        centers = kmeans_plus_plus_init(points, k, seed)
    converged = False
    iterations = 0
    for _ in range(max_iters):
        new_centers, _, _ = lloyd_step(points, centers)
        iterations += 1
        shift = float(np.max(np.abs(new_centers - centers)))
        centers = new_centers
        if shift < tol:
            converged = True
            break
    labels, centers, _ = _assign_repaired(points, centers)
    diff = points - centers[labels]
    objective = float(np.einsum("nd,nd->", diff, diff))
    return KMeansResult(
        centers=centers,
        labels=labels,
        objective=objective,
        iterations=iterations,
        converged=converged,
    )
