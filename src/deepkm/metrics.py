"""Clustering quality scores: accuracy under optimal label matching, NMI.

``evaluate`` is the one scoring entry: it validates the labels once,
builds one contingency table and reads both scores from it. Cluster ids
carry no meaning, so accuracy maximizes agreement over one-to-one
mappings between predicted clusters and true labels, solved as a
min-cost assignment on the negated contingency table. NMI is
2*I(C;Y) / (H(C)+H(Y)) with natural-log entropies; 0/0 is defined as 0.

The assignment is the shortest-augmenting-path algorithm of Crouse ("On
implementing 2D rectangular assignment algorithms", IEEE TAES 2016), the
one behind ``scipy.optimize.linear_sum_assignment``, ported to numpy with
scipy's exact rules: each row's Dijkstra scan visits the remaining
columns in scipy's order (all columns in reverse at the start, a picked
column swapped out for the last one), among equal path costs it takes
the last unassigned column in that order, else the first column, and
the duals are updated and the path augmented in scipy's order. So the
permutation is the one scipy returns, ties included. Each scan step is
a handful of numpy calls, about 0.6 ms for a whole 10x10 table. Large
sides cost more than scipy's compiled loop (one core, numpy 2.4): side
300 takes 20 ms on a table of 6,000 random labels (scipy 1.2 ms), side
1000 0.11 s on 20,000 random labels (scipy 14 ms) and 57 ms on 2M
skewed ones (scipy 9 ms). A cost that is no contingency table, such as
i*j, forces long scans: 1.2 s at side 300 and 17 s at side 1000 (scipy
21 ms and 0.7 s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import integer_labels


@dataclass
class MetricsReport:
    acc: float
    nmi: float
    mapping: dict[int, int]  # predicted cluster id -> matched true label


def _check_labels(pred, truth) -> tuple[np.ndarray, np.ndarray]:
    pred = integer_labels(pred, "predicted labels")
    truth = integer_labels(truth, "true labels")
    if pred.ndim != 1 or truth.ndim != 1:
        raise ValueError("label arrays must be 1-d")
    if pred.shape[0] != truth.shape[0]:
        raise ValueError(
            f"length mismatch: {pred.shape[0]} predictions vs {truth.shape[0]} labels"
        )
    if pred.shape[0] == 0:
        raise ValueError("need at least one point")
    if pred.min() < 0 or truth.min() < 0:
        raise ValueError("labels must be non-negative integers")
    return pred, truth


def contingency_table(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """counts[i, j] = number of points with predicted cluster i, true label j."""
    pred, truth = _check_labels(pred, truth)
    kp = int(pred.max()) + 1
    kt = int(truth.max()) + 1
    return np.bincount(pred * kt + truth, minlength=kp * kt).reshape(kp, kt)


def hungarian(cost: np.ndarray) -> np.ndarray:
    """Permutation p minimizing sum_i cost[i, p[i]] over a square matrix."""
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost must be square, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    return _shortest_augmenting_path(cost)


def _shortest_augmenting_path(cost: np.ndarray) -> np.ndarray:
    """Crouse's algorithm on a finite square cost, row by row: a Dijkstra
    scan from the row to the nearest unassigned column over reduced costs,
    a dual update, then augmentation along the path found."""
    n = cost.shape[0]
    u = np.zeros(n)
    v = np.zeros(n)
    path = np.full(n, -1, dtype=np.int64)
    col4row = np.full(n, -1, dtype=np.int64)
    row4col = np.full(n, -1, dtype=np.int64)
    reversed_cols = np.arange(n - 1, -1, -1)  # scan order: a constant cost gives the identity
    remaining = np.empty(n, dtype=np.int64)
    shortest = np.empty(n)
    scanned_rows = np.empty(n, dtype=bool)
    scanned_cols = np.empty(n, dtype=bool)
    for row in range(n):
        remaining[:] = reversed_cols
        num_remaining = n
        shortest.fill(np.inf)
        scanned_rows.fill(False)
        scanned_cols.fill(False)
        min_val = 0.0
        i = row
        sink = -1
        while sink == -1:
            scanned_rows[i] = True
            cols = remaining[:num_remaining]
            reduced = min_val + cost[i, cols] - u[i] - v[cols]
            known = shortest[cols]
            closer = reduced < known
            path[cols[closer]] = i
            np.copyto(known, reduced, where=closer)
            shortest[cols] = known
            min_val = known.min()
            if not np.isfinite(min_val):
                raise ValueError("cost matrix entries overflow float64 in the reduced costs")
            # Among equal path costs: the last unassigned column, else the first.
            ties = np.flatnonzero(known == min_val)
            free = ties[row4col[cols[ties]] == -1]
            index = int(free[-1]) if free.size else int(ties[0])
            j = int(cols[index])
            if row4col[j] == -1:
                sink = j
            else:
                i = int(row4col[j])
            scanned_cols[j] = True
            num_remaining -= 1
            remaining[index] = remaining[num_remaining]

        u[row] += min_val
        scanned_rows[row] = False
        u[scanned_rows] += min_val - shortest[col4row[scanned_rows]]
        v[scanned_cols] -= min_val - shortest[scanned_cols]

        j = sink
        while True:
            i = int(path[j])
            row4col[j] = i
            col4row[i], j = j, int(col4row[i])
            if i == row:
                break
    return col4row


def _accuracy(counts: np.ndarray) -> tuple[float, dict[int, int]]:
    """Best-mapping agreement fraction of a contingency table, plus the
    mapping that achieves it.

    The table is padded to square so the matching stays one-to-one when
    cluster and label counts differ; padded rows or columns contribute
    nothing.
    """
    side = max(counts.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: counts.shape[0], : counts.shape[1]] = counts
    perm = hungarian(-padded.astype(np.float64))
    matched = int(padded[np.arange(side), perm].sum())
    mapping = {i: int(perm[i]) for i in range(counts.shape[0])}
    return matched / int(counts.sum()), mapping


def _entropy(counts: np.ndarray, n: int) -> float:
    """H = ln n - (1/n) sum c ln c over non-zero counts; exact at c = n."""
    c = counts[counts > 0].astype(np.float64)
    return float(np.log(n) - (c * np.log(c)).sum() / n)


def _nmi(counts: np.ndarray) -> float:
    """2*I(C;Y) / (H(C)+H(Y)) of a contingency table, clipped to [0,1];
    0 when both labelings are constant."""
    n = int(counts.sum())
    h_pred = _entropy(counts.sum(axis=1), n)
    h_truth = _entropy(counts.sum(axis=0), n)
    denom = h_pred + h_truth
    if denom <= 0.0:
        return 0.0
    h_joint = _entropy(counts.ravel(), n)
    mutual = h_pred + h_truth - h_joint
    return float(min(max(2.0 * mutual / denom, 0.0), 1.0))


def evaluate(pred, truth) -> MetricsReport:
    """Accuracy, its mapping and NMI of predicted clusters against true
    labels, from one validation and one table."""
    counts = contingency_table(pred, truth)
    acc, mapping = _accuracy(counts)
    return MetricsReport(acc=acc, nmi=_nmi(counts), mapping=mapping)
