"""Shared test oracles, written independently of the package internals.

Everything here recomputes expected values from first principles
(finite differences, exhaustive enumeration, plug-in formulas) so the
tests never trust the code under test to judge itself.
"""

import itertools
import math
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np

from deepkm.losses import combined_objective
from deepkm.nn import Workspace, forward, init_autoencoder, mirrored_spec

TESTS = Path(__file__).resolve().parent

# Golden reports: assignments, configs and metric mappings must match
# exactly; centroids, loss series and ACC/NMI to this relative tolerance.
# It is fixed: a change that moves a run further changes what the lab computes.
RTOL = 1e-12
CLOSE_FIELDS = ("centroids", "pretrain_losses", "reconstruction_losses", "clustering_losses")


def strip_wall_clock(report: dict) -> dict:
    """A report's JSON dict without its one non-deterministic field."""
    report = dict(report)
    report.pop("wall_clock")
    return report


def assert_report_matches(got: dict, want: dict, key: str) -> None:
    """``got`` equals the pinned report ``want`` to ``RTOL``."""
    assert sorted(got) == sorted(want), key
    for name in ("method", "seed", "config", "assignment"):
        assert got[name] == want[name], f"{key}: {name} differs"
    for name in CLOSE_FIELDS:
        a, b = np.asarray(got[name], dtype=float), np.asarray(want[name], dtype=float)
        assert a.shape == b.shape, f"{key}: {name} shape {a.shape} != {b.shape}"
        np.testing.assert_allclose(a, b, rtol=RTOL, atol=0.0, err_msg=f"{key}: {name}")
    assert got["metrics"]["mapping"] == want["metrics"]["mapping"], key
    for name in ("acc", "nmi"):
        np.testing.assert_allclose(got["metrics"][name], want["metrics"][name],
                                   rtol=RTOL, atol=0.0, err_msg=f"{key}: {name}")


def run_python(script, **blas_env):
    """``script`` in a new interpreter that imports deepkm from this
    checkout and these helpers' directory, and whose only BLAS thread
    settings are ``blas_env``."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]), **blas_env)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)


def num_grad(f, x, step=1e-5):
    """Central-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        xp = x.copy()
        xp[idx] = orig + step
        xm = x.copy()
        xm[idx] = orig - step
        g[idx] = (f(xp) - f(xm)) / (2.0 * step)
        it.iternext()
    return g


def num_grad_inplace(f, arr, step=1e-5):
    """Central differences by perturbing ``arr`` in place; f takes no args.

    Used for parameter tensors living inside a params object.
    """
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        fp = f()
        arr[idx] = orig - step
        fm = f()
        arr[idx] = orig
        g[idx] = (fp - fm) / (2.0 * step)
        it.iternext()
    return g


def fresh_forward(params, batch):
    """``forward`` into a new workspace sized to ``batch``: the workspace."""
    return forward(params, batch, Workspace(params, len(batch)))


def fresh_objective_grads(batch, params, centroids, config):
    """``combined_objective`` into a new workspace sized to ``batch``: its
    result and the workspace's parameter gradients."""
    workspace = Workspace(params, len(batch))
    return combined_objective(batch, params, centroids, config, workspace), workspace.grads


def fresh_objective(batch, params, centroids, config):
    """``combined_objective`` into a new workspace sized to ``batch``."""
    return fresh_objective_grads(batch, params, centroids, config)[0]


def relu_kink_margin(params, batch):
    """Distance of the nearest relu pre-activation to its kink at zero.

    Finite differences are only trustworthy when no pre-activation sits
    within the FD step of zero (zero-initialized biases can park a dead
    sample exactly on the kink). The workspace keeps layer outputs, so
    each pre-activation is recomputed from its layer's input.
    """
    outputs = [out[: len(batch)] for out in fresh_forward(params, batch).outputs]
    vals = [np.inf]
    for layer, x in zip(params.encoder + params.decoder, [batch] + outputs[:-1]):
        if layer.activation == "relu":
            vals.append(float(np.abs(x @ layer.weight + layer.bias).min()))
    return min(vals)


def draw_smooth_net(rng, m=None, latent=None, hidden=None, batch_size=None, margin=1e-3):
    """Random small net + batch, redrawn until FD is well-defined.

    Biases get a small jitter so relu kinks cannot coincide with the
    evaluation point; the draw is rejected while any pre-activation is
    within ``margin`` of a kink.
    """
    for _ in range(100):
        m_ = m if m is not None else int(rng.integers(2, 8))
        latent_ = latent if latent is not None else int(rng.integers(1, 5))
        hidden_ = hidden if hidden is not None else tuple(
            int(rng.integers(2, 8)) for _ in range(int(rng.integers(0, 3)))
        )
        b_ = batch_size if batch_size is not None else int(rng.integers(1, 5))
        enc, dec = mirrored_spec(m_, latent_, hidden_)
        params = init_autoencoder(enc, dec, seed=int(rng.integers(1 << 30)))
        for layer in params.encoder + params.decoder:
            layer.bias[...] += rng.uniform(-0.3, 0.3, size=layer.bias.shape)
        batch = rng.standard_normal((b_, m_))
        if relu_kink_margin(params, batch) > margin:
            return params, batch
    raise RuntimeError("could not draw a kink-free instance")


def grads_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    """True when every entry matches within rtol relative or atol absolute."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    diff = np.abs(analytic - numeric)
    return bool(np.all(diff <= atol + rtol * np.abs(numeric)))


def brute_force_min_assignment(cost):
    """Exhaustive scan over all permutations; returns (best_cost, best_perm)."""
    n = cost.shape[0]
    best = (math.inf, None)
    for perm in itertools.permutations(range(n)):
        total = sum(cost[i, perm[i]] for i in range(n))
        if total < best[0]:
            best = (total, perm)
    return best


def brute_force_accuracy(pred, truth):
    """Max agreement fraction over all one-to-one label mappings."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pred_ids = sorted(set(pred.tolist()))
    truth_ids = sorted(set(truth.tolist()))
    side = max(len(pred_ids), len(truth_ids))
    # pad both sides so the mapping stays injective
    pred_pos = {c: i for i, c in enumerate(pred_ids)}
    truth_pos = {c: i for i, c in enumerate(truth_ids)}
    best = 0
    for perm in itertools.permutations(range(side)):
        agree = sum(
            1
            for p, t in zip(pred.tolist(), truth.tolist())
            if perm[pred_pos[p]] == truth_pos[t]
        )
        best = max(best, agree)
    return best / pred.shape[0]


def nmi_direct(pred, truth):
    """Plug-in 2*I/(H+H) with natural logs, straight from the definitions."""
    pred = list(pred)
    truth = list(truth)
    n = len(pred)
    pc = Counter(pred)
    tc = Counter(truth)
    jc = Counter(zip(pred, truth))
    h_p = -sum((c / n) * math.log(c / n) for c in pc.values())
    h_t = -sum((c / n) * math.log(c / n) for c in tc.values())
    mutual = 0.0
    for (a, b), c in jc.items():
        mutual += (c / n) * math.log((c / n) / ((pc[a] / n) * (tc[b] / n)))
    if h_p + h_t <= 0.0:
        return 0.0
    return 2.0 * mutual / (h_p + h_t)


def best_bipartition_objective(points):
    """Global 2-means optimum by enumerating every bipartition.

    Objective: sum of squared distances to each side's mean. Point 0 is
    pinned to side 0, halving the enumeration.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    best = math.inf
    for mask in range(1, 2 ** (n - 1)):
        side = np.array([(mask >> i) & 1 for i in range(n - 1)], dtype=bool)
        side = np.concatenate([[False], side])
        if side.all() or not side.any():
            continue
        a, b = points[~side], points[side]
        obj = ((a - a.mean(axis=0)) ** 2).sum() + ((b - b.mean(axis=0)) ** 2).sum()
        best = min(best, obj)
    return best


def two_clump_points(rng, separation=6.0, sigma=0.8):
    """Two balanced gaussian clumps in the plane, 6 to 12 points total.

    Calibrated so a single k-means run lands on the enumerated optimum
    for well over 90% of draws; lopsided or overlapping clumps drag that
    rate down into territory where Lloyd's local optima dominate.
    """
    n = int(rng.integers(6, 13))
    n1 = n // 2
    base = rng.standard_normal(2) * 0.5
    offset = rng.standard_normal(2)
    offset = separation * offset / np.linalg.norm(offset)
    return np.concatenate([
        base + sigma * rng.standard_normal((n1, 2)),
        base + offset + sigma * rng.standard_normal((n - n1, 2)),
    ])


def idx_images_bytes(images):
    """Serialize a (n, h, w) uint8 array as IDX image-file bytes."""
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    out = (0x00000803).to_bytes(4, "big")
    out += n.to_bytes(4, "big") + h.to_bytes(4, "big") + w.to_bytes(4, "big")
    return out + images.tobytes()


def idx_labels_bytes(labels):
    """Serialize a (n,) uint8 array as IDX label-file bytes."""
    labels = np.asarray(labels, dtype=np.uint8)
    out = (0x00000801).to_bytes(4, "big")
    out += labels.shape[0].to_bytes(4, "big")
    return out + labels.tobytes()


_MNIST_IMAGE_NAMES = ("train-images-idx3-ubyte", "train-images.idx3-ubyte")
_MNIST_LABEL_NAMES = ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte")


def find_mnist():
    """Locate MNIST training IDX files, or None when unavailable.

    Looks in $DEEPKM_MNIST, then ./data/mnist relative to the repo root.
    Accepts plain or .gz files under the usual names.
    """
    candidates = []
    if os.environ.get("DEEPKM_MNIST"):
        candidates.append(Path(os.environ["DEEPKM_MNIST"]))
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "mnist")
    for root in candidates:
        if not root.is_dir():
            continue
        images = labels = None
        for name in _MNIST_IMAGE_NAMES:
            for suffix in ("", ".gz"):
                if (root / (name + suffix)).is_file():
                    images = root / (name + suffix)
        for name in _MNIST_LABEL_NAMES:
            for suffix in ("", ".gz"):
                if (root / (name + suffix)).is_file():
                    labels = root / (name + suffix)
        if images is not None and labels is not None:
            return str(images), str(labels)
    return None
