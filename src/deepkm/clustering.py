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
gives. One routine, ``_label``, runs the screen over blocks of rows to
bound its (rows, K) scratch, for ``assign`` and for every labelling of
``kmeans`` and ``lloyd_step``; a block's product may round differently
from the whole one, but the screen only routes rows, so no label changes.

``kmeans`` runs its Lloyd steps in one loop that also keeps Hamerly's
bounds ("Making k-means even faster", SDM 2010): per row, a lower bound
on its distance to the second-nearest center minus its distance to its
own. The screen gives each screened row that margin, widened by the
screen's own rounding bound. After each step the margin shrinks by the
own center's shift plus the largest shift of any other center (the
triangle inequality), and by an outward slack for the rounding of that
update. A row whose margin still exceeds the rounding of the exact path
keeps a label that the exact distances put strictly first, so it is not
screened again; every other row is. A tie never separates (its margin
is at most 0), so a kept label is still the exact first minimum. Only
labels feed the means, which sum each cluster's rows in index order, so
every center, label, objective and iteration count is the one plain
Lloyd steps give. After a repair moves a point to an empty cluster,
every row is screened again. Where |x|^2 could overflow, no bounds are
kept, and every row is screened at every step.

The loop ends with one more labelling, of its final centers, with
repairs, under the same bounds: a converged fit screens few rows there.
Those labels and repaired centers are ``kmeans``' result, and
``lloyd_step`` is the same loop run for no steps plus one mean update,
so the two share every labelling by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nn import _integer, _real, _seed

_BLOCK_ELEMS = 2**17  # 1 MiB of float64 scratch per distance block
_SCREEN_ELEMS = 2**14  # float64 values in each of a screen block's arrays
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


def _check_seed(seed) -> int | np.random.Generator:
    """A Generator as given, else ``seed`` as an integer >= 0."""
    return seed if isinstance(seed, np.random.Generator) else _seed(seed)


def _check_k(k, n: int) -> int:
    """``k`` as an int, an error unless it is an integer in [1, n]."""
    k = _integer("k", k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n_points, got k={k}, n={n}")
    return k


def differences(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(N, K, dim) differences ``points - centers`` and their (N, K)
    squared norms: the one definition of distance, for float64 inputs."""
    diff = points[:, None, :] - centers[None, :, :]
    return diff, np.einsum("nkd,nkd->nk", diff, diff)


def squared_distances(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Exact (N, K) squared euclidean distances, computed blockwise."""
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n, dim = points.shape
    k = centers.shape[0]
    out = np.empty((n, k))
    block = max(1, _BLOCK_ELEMS // max(1, k * dim))
    for start in range(0, n, block):
        out[start : start + block] = differences(points[start : start + block], centers)[1]
    return out


def _screen(points: np.ndarray, centers: np.ndarray, cc: np.ndarray,
            gap: np.ndarray | None = None) -> np.ndarray:
    """Nearest-center labels of a block of rows, bit for bit those of
    ``np.argmin(squared_distances(points, centers), axis=1)``. ``cc`` holds
    the centers' squared norms. Given ``gap``, one value per row, write
    there a lower bound on each row's distance to its second-nearest
    center minus its distance to its own."""
    dim = points.shape[1]
    # s[j, i] = |c_j|^2 - 2 x_i.c_j = |x_i - c_j|^2 - |x_i|^2, rounded,
    # center-major so that each reduction runs along contiguous rows.
    # Scaling by -2 is exact.
    s = (-2.0 * centers) @ points.T
    s += cc[:, None]
    best = s.min(axis=0)
    # With u = eps/2 and scale = |x|^2 + max_j |c_j|^2, in any summation
    # order: s_ji is within (2 gamma_d + 2u) * scale ~ (d+1) eps * scale
    # of its exact value (the gamma_d dot-product error, as |2 x.c| <=
    # scale), and the exact path's own rounding of |x - c_j|^2 <= 2 scale
    # is at most 2 gamma_{d+2} * scale ~ (d+2) eps * scale. tau is about
    # twice their sum; the tiny term covers gradual underflow. If every
    # other s_ji exceeds the row's smallest by more than 2 tau, the exact
    # distances keep the same center strictly first.
    xx = np.einsum("nd,nd->n", points, points)
    scale = xx + cc.max()
    tau = 4 * (dim + 4) * _EPS * scale + _TINY
    # ~(s > bound) rather than s <= bound: a NaN, which the minimum passes
    # on to the bound, makes every center of its row close.
    close = ~(s > best + 2.0 * tau)
    # A row's smallest s is close; where it is the only close one, its
    # index is the row's label.
    labels = np.arange(centers.shape[0]) @ close
    # Past _HUGE either pass may overflow (|x - c|^2 <= 2 scale).
    ambiguous = np.flatnonzero(
        (np.count_nonzero(close, axis=0) > 1) | ~(scale < _HUGE)
    )
    if ambiguous.size:
        labels[ambiguous] = np.argmin(
            squared_distances(points[ambiguous], centers), axis=1
        )
    if gap is not None:
        # s_ji + |x_i|^2 is within tau of the true |x_i - c_j|^2; on a
        # settled row the one close center is the row's own.
        np.copyto(s, np.inf, where=close)
        second = s.min(axis=0)
        second += xx
        second -= tau
        best += xx
        best += tau
        gap[:] = np.sqrt(np.maximum(second, 0.0)) - np.sqrt(best)
        gap[ambiguous] = -np.inf
    return labels


def _label(points: np.ndarray, centers: np.ndarray, rows: np.ndarray,
           labels: np.ndarray, gap: np.ndarray | None = None) -> None:
    """Write the nearest-center labels of ``points[rows]`` to
    ``labels[rows]``, screened over blocks of rows; given ``gap``, write
    each row's bound from ``_screen`` to ``gap[rows]``."""
    n, dim = points.shape
    cc = np.einsum("kd,kd->k", centers, centers)
    block = max(1, _SCREEN_ELEMS // max(centers.shape[0], dim))  # rows are gathered: (rows, dim)
    for start in range(0, rows.size, block):
        # Repeated up to a power of two, so that a fit's scratch comes in
        # few sizes: with every size, desk's resident peak read 1.6 MB
        # higher. A repeated row gets the same label and bound.
        part = rows[start : start + block]
        part = np.resize(part, min(block, n, 1 << (part.size - 1).bit_length()))
        fresh = None if gap is None else np.empty(part.size)
        labels[part] = _screen(points[part], centers, cc, fresh)
        if gap is not None:
            gap[part] = fresh


def _check_pair(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both checked with ``_check_points``, and of one dimension."""
    points = _check_points(points)
    centers = _check_points(centers, "centers")
    if points.shape[1] != centers.shape[1]:
        raise ValueError(
            f"dimension mismatch: points are {points.shape[1]}-d, "
            f"centers are {centers.shape[1]}-d"
        )
    return points, centers


def assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center per point; ties go to the lowest index."""
    points, centers = _check_pair(points, centers)
    labels = np.empty(points.shape[0], dtype=np.intp)
    _label(points, centers, np.arange(points.shape[0]), labels)
    return labels


def kmeans_plus_plus_init(
    points: np.ndarray, k: int, seed: int | np.random.Generator
) -> np.ndarray:
    """Seed K centers: first uniform, the rest D^2-weighted on squared
    distance to the nearest already-chosen center. ``seed`` may be an
    integer >= 0 or an existing Generator.

    A draw is ``rng.random()`` times the weights' sum, located in their
    cumulative sums. Where it lands past the last of them, which rounding
    allows and which every draw does once the sum overflows, it takes the
    last point with positive weight."""
    rng = np.random.default_rng(_check_seed(seed))
    points = _check_points(points)
    n = points.shape[0]
    k = _check_k(k, n)
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
            index = np.searchsorted(np.cumsum(d2), r, side="right")
            chosen[i] = index if index < n else np.flatnonzero(d2)[-1]
        new_d2 = squared_distances(points, points[chosen[i]][None, :])[:, 0]
        np.minimum(d2, new_d2, out=d2)
    return points[chosen].copy()


def _repair(points: np.ndarray, centers: np.ndarray, labels: np.ndarray,
            counts: np.ndarray) -> np.ndarray:
    """Give every empty cluster the point farthest from its current
    center; ``labels`` and ``counts`` change in place, and the repaired
    centers are returned as a copy.

    Clusters are repaired in ascending index order; among equally far
    points the lowest index wins. A point alone in its cluster is never
    taken, so no repair empties another cluster, and donor points are
    removed from the pool so two empty clusters never grab the same point.
    """
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
    return centers


def _objective(points: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances from each point to its center, from one
    (N, dim) buffer."""
    diff = centers[labels]
    np.subtract(points, diff, out=diff)
    return float(np.einsum("nd,nd->", diff, diff))


def _means(points: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """(K, dim) cluster means.

    bincount adds each cluster's rows in index order, from 0.0, so the
    sums are the bits that np.add.at gives."""
    sums = np.stack(
        [np.bincount(labels, weights=column, minlength=counts.size) for column in points.T],
        axis=1,
    )
    return sums / counts[:, None]


def lloyd_step(
    points: np.ndarray, centers: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """One Lloyd iteration: assign, repair empties, recompute means.

    Returns (new_centers, labels, objective) where the objective is the
    sum of squared distances from each point to the center it was just
    assigned to, i.e. evaluated before the mean update. This makes the
    sequence of objectives across steps non-increasing. There may be no
    more centers than points, so that every cluster can be repaired. The
    labelling is ``kmeans``' own: ``_lloyd`` run for no steps.
    """
    points, centers = _check_pair(points, centers)
    if centers.shape[0] > points.shape[0]:
        raise ValueError(
            f"need no more centers than points, got {centers.shape[0]} centers "
            f"for {points.shape[0]} points"
        )
    centers, labels, counts, _, _ = _lloyd(points, centers, 0, 0.0)
    return _means(points, labels, counts), labels, _objective(points, centers, labels)


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iters: int, tol: float
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, bool]:
    """Lloyd iterations from ``centers`` until the largest center shift
    drops below ``tol`` or ``max_iters`` steps have run, then one last
    labelling of the final centers. Returns that labelling's repaired
    centers, labels and counts per cluster, then (iterations, converged).
    Every labelling and repair is that of ``lloyd_step``; a row whose
    bounds show that it keeps its label is not screened again."""
    n, dim = points.shape
    k = centers.shape[0]
    sq_radius = float(np.einsum("nd,nd->n", points, points).max())
    radius = np.sqrt(sq_radius)
    # Every center is a mean of points or a point, so no distance exceeds
    # about 2 * radius. ``unit`` is at least twice the rounding of one
    # bound update, ~(d + 10) eps * radius (two shift norms, two sums and
    # a difference), and of one fresh bound; ``settled`` adds twice the
    # margin below which the exact path's rounding of two squared
    # distances, ~2 gamma_{d+2} * 4 radius^2, could still swap their
    # order. The power of two covers gradual underflow. Past _HUGE / 4 a
    # distance may overflow: no bounds are kept, and every row is screened.
    unit = 4 * (dim + 8) * _EPS * radius + 2.0**-500
    settled = 4.0 * np.sqrt((dim + 4) * _EPS) * radius + unit
    labels = np.zeros(n, dtype=np.intp)
    # A lower bound on each row's margin; -inf: screen it.
    gap = np.full(n, -np.inf) if sq_radius < _HUGE / 4 else None
    rows = np.arange(n)
    converged = False
    iterations = 0
    while True:
        if gap is not None:
            # A tie gives a margin <= 0, so it is always screened.
            rows = np.flatnonzero(~(gap > settled))
        _label(points, centers, rows, labels, gap)
        counts = np.bincount(labels, minlength=k)
        repaired = centers
        if not counts.all():
            repaired = _repair(points, centers, labels, counts)
            if gap is not None:
                gap[:] = -np.inf  # donors keep no nearest-center bound
        if converged or iterations == max_iters:
            return repaired, labels, counts, iterations, converged
        new_centers = _means(points, labels, counts)
        iterations += 1
        # From the centers before any repair, as chained lloyd_step calls do.
        step = new_centers - centers
        converged = float(np.max(np.abs(step))) < tol
        centers = new_centers
        if gap is not None:
            # Hamerly's update: a row's own center comes nearer by at most
            # its shift, every other center by at most the largest other
            # shift.
            norms = np.sqrt(np.einsum("kd,kd->k", step, step))
            top = int(np.argmax(norms))
            moved = np.full(k, norms[top])
            moved[top] = np.max(np.delete(norms, top), initial=0.0)
            moved += norms + unit
            gap -= moved[labels]


def kmeans(
    points: np.ndarray,
    k: int,
    seed: int | np.random.Generator,
    max_iters: int = 100,
    tol: float = 1e-6,
) -> KMeansResult:
    """Full K-means: k-means++ seeding then Lloyd iterations until the
    largest center shift drops below ``tol``; a shift equal to ``tol``
    does not stop it, so at ``tol=0`` the fit runs all ``max_iters``
    iterations and reports ``converged=False``.

    Every step's labels, means and repairs are those of ``lloyd_step``
    (see the module docstring for the rows it does not screen again). The
    returned labels and objective are consistent with the returned
    centers: the loop labels the final centers once more, repairing any
    empty cluster, and the objective is taken against those labels. ``k``
    must be an integer in [1, n_points], ``seed`` an integer >= 0 or a
    Generator, ``max_iters`` an integer >= 0 and ``tol`` a real >= 0;
    each is checked before any work.
    """
    points = _check_points(points)
    k = _check_k(k, points.shape[0])
    seed = _check_seed(seed)
    max_iters = _integer("max_iters", max_iters)
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    tol = _real("tol", tol, at_least=0)
    centers = kmeans_plus_plus_init(points, k, seed)
    centers, labels, _, iterations, converged = _lloyd(points, centers, max_iters, tol)
    return KMeansResult(
        centers=centers,
        labels=labels,
        objective=_objective(points, centers, labels),
        iterations=iterations,
        converged=converged,
    )
