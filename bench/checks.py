"""Correctness checks computed apart from deepkm.

Nothing here imports the package. Scores, distances and cluster means
are recomputed with plain numpy and Python from a run's outputs, and
compared with what the run reported. Each check returns a list of
problems; an empty list means the check passed.
"""

from __future__ import annotations

import math

import numpy as np

SCORE_TOL = 1e-12  # ACC and NMI must match the recomputation this closely
TIE_REL = 1e-9  # a distance this close to the minimum counts as a tie
MEAN_CENTROID_METHODS = ("km", "aekm", "ours", "dkm_rein")
PRETRAINED = ("aekm", "dcn", "dkm", "dkm_rein", "ours", "ours_norein")
FINETUNED = ("dcn", "dkm", "dkm_rein", "ours", "ours_norein")


def contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """counts[i, j]: points in predicted cluster i with true label j."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    kp, kt = int(pred.max()) + 1, int(truth.max()) + 1
    return np.bincount(pred * kt + truth, minlength=kp * kt).reshape(kp, kt)


def matched_count(counts: np.ndarray) -> int:
    """Largest agreement over one-to-one cluster-to-label matchings.

    Exact dynamic programming over subsets of the (padded) columns:
    best[mask] is the best total that gives the first popcount(mask)
    rows the columns in mask.
    """
    side = max(counts.shape)
    if side > 16:
        raise ValueError(f"matching over {side} clusters is too large for the subset search")
    square = [[0] * side for _ in range(side)]
    for i in range(counts.shape[0]):
        for j in range(counts.shape[1]):
            square[i][j] = int(counts[i, j])
    best = [-1] * (1 << side)
    best[0] = 0
    for mask in range(1 << side):
        if best[mask] < 0:
            continue
        row = bin(mask).count("1")
        if row == side:
            continue
        for col in range(side):
            if not mask >> col & 1:
                total = best[mask] + square[row][col]
                if total > best[mask | 1 << col]:
                    best[mask | 1 << col] = total
    return best[-1]


def nmi_from_counts(counts: np.ndarray) -> float:
    """2 I(C;Y) / (H(C) + H(Y)) from joint probabilities p_ij, with
    I = sum p_ij log(p_ij / (p_i p_j)); 0 when both sides are constant."""
    n = int(counts.sum())
    rows = [int(c) for c in counts.sum(axis=1)]
    cols = [int(c) for c in counts.sum(axis=0)]
    h_pred = -sum(c / n * math.log(c / n) for c in rows if c)
    h_truth = -sum(c / n * math.log(c / n) for c in cols if c)
    if h_pred + h_truth <= 0.0:
        return 0.0
    mutual = 0.0
    for i, ci in enumerate(rows):
        for j, cj in enumerate(cols):
            cij = int(counts[i, j])
            if cij:
                mutual += cij / n * math.log(cij * n / (ci * cj))
    return min(max(2.0 * mutual / (h_pred + h_truth), 0.0), 1.0)


def squared_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(n, k) squared euclidean distances, one centroid at a time."""
    return np.stack([((points - c) ** 2).sum(axis=1) for c in centroids], axis=1)


def nearest_violations(points: np.ndarray, centroids: np.ndarray,
                       assignment: np.ndarray) -> int:
    """Points whose label is not a nearest centroid, ties within rounding excepted."""
    d = squared_distances(points, centroids)
    own = d[np.arange(points.shape[0]), assignment]
    best = d.min(axis=1)
    return int(np.count_nonzero(own > best * (1.0 + TIE_REL) + 1e-300))


def centroid_mean_error(points: np.ndarray, assignment: np.ndarray,
                        centroids: np.ndarray) -> float:
    """Largest |mean of a cluster's points - its centroid|; inf for an empty cluster."""
    worst = 0.0
    for j, centroid in enumerate(centroids):
        members = points[assignment == j]
        if members.shape[0] == 0:
            return math.inf
        worst = max(worst, float(np.abs(members.mean(axis=0) - centroid).max()))
    return worst


def check_run(report, truth: np.ndarray, config: dict) -> list[str]:
    """Every per-run check on one run report; ``config`` is its training config."""
    where = f"{report.method} seed={report.seed}"
    points = np.asarray(report.latents, dtype=np.float64)
    centroids = np.asarray(report.centroids, dtype=np.float64)
    assignment = np.asarray(report.assignment)
    k = int(config["k"])
    if assignment.shape != (points.shape[0],) or centroids.shape != (k, points.shape[1]):
        return [f"{where}: output shapes assignment {assignment.shape}, centroids "
                f"{centroids.shape} do not fit {points.shape[0]} points and k={k}"]
    if assignment.min() < 0 or assignment.max() >= k:
        return [f"{where}: labels outside [0, {k})"]
    problems = []

    counts = contingency(assignment, truth)
    acc = matched_count(counts) / points.shape[0]
    nmi = nmi_from_counts(counts)
    if abs(acc - report.metrics.acc) > SCORE_TOL:
        problems.append(f"{where}: reported ACC {report.metrics.acc!r}, recomputed {acc!r}")
    if abs(nmi - report.metrics.nmi) > SCORE_TOL:
        problems.append(f"{where}: reported NMI {report.metrics.nmi!r}, recomputed {nmi!r}")

    wrong = nearest_violations(points, centroids, assignment)
    if wrong:
        problems.append(f"{where}: {wrong} points are not labelled with their nearest centroid")

    if report.method in MEAN_CENTROID_METHODS:
        tol = float(config["kmeans_tol"]) + 1e-9 * max(1.0, float(np.abs(points).max()))
        err = centroid_mean_error(points, assignment, centroids)
        if not err <= tol:
            problems.append(f"{where}: a centroid is {err!r} from its cluster mean (tolerance {tol!r})")

    expected = {
        "pretrain_losses": config["pretrain_epochs"] if report.method in PRETRAINED else 0,
        "reconstruction_losses": config["finetune_epochs"] if report.method in FINETUNED else 0,
        "clustering_losses": config["finetune_epochs"] if report.method in FINETUNED else 0,
    }
    for name, length in expected.items():
        series = np.asarray(getattr(report, name), dtype=np.float64)
        if series.shape != (length,):
            problems.append(f"{where}: {name} has {series.shape[0]} epochs, expected {length}")
        elif not np.isfinite(series).all():
            problems.append(f"{where}: {name} is not finite")
    return problems


def same_run(first, again) -> bool:
    """True when a repeated run (same data, config and seed) is bit-identical."""
    return (
        first.method == again.method
        and first.seed == again.seed
        and np.array_equal(first.assignment, again.assignment)
        and np.array_equal(first.centroids, again.centroids)
        and first.pretrain_losses == again.pretrain_losses
        and first.reconstruction_losses == again.reconstruction_losses
        and first.clustering_losses == again.clustering_losses
        and first.metrics.acc == again.metrics.acc
        and first.metrics.nmi == again.metrics.nmi
    )


def ablation_order(mean_nmi: dict[str, float]) -> list[str]:
    """The paper's ablation: the full scheme beats pretrain-then-cluster
    and the frozen-centroid variant on mean NMI."""
    return [
        f"mean NMI of ours {mean_nmi['ours']!r} is below {other} {mean_nmi[other]!r}"
        for other in ("aekm", "ours_norein")
        if mean_nmi["ours"] < mean_nmi[other]
    ]


def mean_predictor_loss(features: np.ndarray) -> float:
    """Reconstruction loss (row sum of squares, mean over rows) of
    predicting every row by the column means."""
    resid = features - features.mean(axis=0)
    return float((resid * resid).sum(axis=1).mean())


def beats_mean_predictor(recon_loss: float, features: np.ndarray) -> list[str]:
    baseline = mean_predictor_loss(features)
    if recon_loss < baseline:
        return []
    return [f"final reconstruction loss {recon_loss!r} does not beat the "
            f"mean predictor's {baseline!r}"]


def csv_round_trip(loaded_features: np.ndarray, loaded_labels: np.ndarray,
                   features: np.ndarray, labels: np.ndarray, decimals: int) -> list[str]:
    """The loaded table equals the generated one to the printed precision."""
    if loaded_features.shape != features.shape or not np.array_equal(loaded_labels, labels):
        return [f"loaded table {loaded_features.shape} or its labels differ from the generated one"]
    half_unit = 0.5 * 10.0 ** -decimals
    err = float(np.abs(loaded_features - features).max())
    if err > half_unit * (1.0 + 1e-6):
        return [f"loaded values differ from the generated ones by {err!r} (> {half_unit!r})"]
    return []
