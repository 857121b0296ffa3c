"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; each prints measured numbers (rates, margins, runtimes) so the
claims stay auditable. The two checks that need real image data skip
with an explicit message when no IDX files are available (point
``DEEPKM_MNIST`` at a directory holding them to enable).
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from deepkm.clustering import assign, kmeans
from deepkm.cli import emit_report
from deepkm.data import load_idx, make_blobs
from deepkm.harness import TrainConfig, run_method
from deepkm.losses import (
    LossConfig,
    ct_loss,
    ct_weights,
    dcn_penalty,
    dkm_loss,
    dkm_weights,
    reconstruction_loss,
)
from deepkm.metrics import evaluate, hungarian
from deepkm.nn import iter_grad_arrays, iter_param_arrays
from helpers import (
    best_bipartition_objective,
    brute_force_accuracy,
    brute_force_min_assignment,
    draw_smooth_net,
    find_mnist,
    fresh_forward,
    fresh_objective,
    fresh_objective_grads,
    grads_close,
    nmi_direct,
    num_grad,
    num_grad_inplace,
    two_clump_points,
)

MNIST_SKIP = (
    "MNIST IDX files not found (set DEEPKM_MNIST to a directory with "
    "train-images-idx3-ubyte / train-labels-idx1-ubyte, optionally gzipped)"
)


def _verdict(line):
    print(f"\n{line}")


# --------------------------------------------------------------------------
# 1. gradient exactness


def test_criterion_1_gradient_exactness():
    """>=100 random small instances; every analytic gradient within
    1e-4 relative / 1e-7 absolute of central finite differences."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    objectives = ("recon", "ct", "dkm", "dcn")
    instances = 112  # 28 per objective
    checked = 0
    for i in range(instances):
        kind = objectives[i % 4]
        m = int(rng.integers(2, 9))
        latent = int(rng.integers(1, 5))
        hidden = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(0, 3))))
        b = int(rng.integers(1, 5))
        params, batch = draw_smooth_net(rng, m=m, latent=latent, hidden=hidden, batch_size=b)
        k = int(rng.integers(1, 5))
        if kind == "dcn":
            # park centroids far to one side so the argmin never flips
            # across an FD step
            base = fresh_forward(params, batch).latent
            centroids = base.mean(axis=0) + 30.0 * (1.0 + np.arange(k))[:, None] * np.ones(latent)
            centroids = np.asarray(centroids, dtype=np.float64)
        else:
            centroids = rng.standard_normal((k, latent))

        if kind == "recon":
            config = LossConfig("ct", lam=0.0, alpha=3.0)
        else:
            config = LossConfig(kind, lam=2.5, alpha=3.0)
        _, result_grads = fresh_objective_grads(batch, params, centroids, config)

        def total():
            return fresh_objective(batch, params, centroids, config).total

        grads = dict(iter_grad_arrays(result_grads))
        for name, arr in iter_param_arrays(params):
            numeric = num_grad_inplace(total, arr)
            assert grads_close(grads[name], numeric, rtol=1e-4, atol=1e-7), (
                f"instance {i} ({kind}): parameter gradient {name} off"
            )
            checked += 1

        # the clustering terms also expose direct latent / centroid grads
        latent_pts = fresh_forward(params, batch).latent
        if kind == "ct":
            _, g = ct_loss(latent_pts, centroids, config)
            fd = num_grad(lambda z: ct_loss(z, centroids, config)[0], latent_pts)
            assert grads_close(g, fd, rtol=1e-4, atol=1e-7), f"instance {i}: ct latent grad"
        elif kind == "dkm":
            _, gz, gr = dkm_loss(latent_pts, centroids, config)
            fd_z = num_grad(lambda z: dkm_loss(z, centroids, config)[0], latent_pts)
            fd_r = num_grad(lambda r: dkm_loss(latent_pts, r, config)[0], centroids)
            assert grads_close(gz, fd_z, rtol=1e-4, atol=1e-7), f"instance {i}: dkm latent grad"
            assert grads_close(gr, fd_r, rtol=1e-4, atol=1e-7), f"instance {i}: dkm centroid grad"
        elif kind == "dcn":
            labels = assign(latent_pts, centroids)
            _, g = dcn_penalty(latent_pts, centroids, labels)
            fd = num_grad(lambda z: dcn_penalty(z, centroids, labels)[0], latent_pts)
            assert grads_close(g, fd, rtol=1e-4, atol=1e-7), f"instance {i}: dcn latent grad"
        else:
            val, g = reconstruction_loss(batch, fresh_forward(params, batch).reconstruction)
            assert np.isfinite(val)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 1 min"
    _verdict(
        f"criterion 1: PASS — {instances} instances, {checked} parameter tensors "
        f"FD-checked across recon/ct/dkm/dcn, {elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# 2. oracle equivalence


def test_criterion_2_oracle_equivalence():
    """(a) matching vs permutation scan, (b) k-means vs exhaustive
    bipartitions with the local-optimum rate reported, (c) scores vs
    plug-in formulas."""
    started = time.perf_counter()

    # (a) 200 cost matrices, K<=6: integer costs must agree exactly,
    # float costs within accumulation noise
    rng = np.random.default_rng(7101)
    for trial in range(200):
        k = int(rng.integers(2, 7))
        if trial % 2 == 0:
            cost = rng.integers(0, 100, size=(k, k)).astype(np.float64)
            tol = 0.0
        else:
            cost = rng.standard_normal((k, k))
            tol = 1e-12
        perm = hungarian(cost)
        achieved = float(cost[np.arange(k), perm].sum())
        best, _ = brute_force_min_assignment(cost)
        assert abs(achieved - best) <= tol, f"matrix {trial}: {achieved} vs {best}"

    # (b) single k-means run vs exhaustive 2-partition optimum
    rng = np.random.default_rng(7102)
    trials, hits = 60, 0
    for trial in range(trials):
        points = two_clump_points(rng)
        best = best_bipartition_objective(points)
        result = kmeans(points, 2, trial)
        assert result.objective >= best - 1e-9, "beat the exhaustive optimum"
        if result.objective <= best + 1e-9:
            hits += 1
    rate = hits / trials
    assert rate >= 0.9, f"k-means matched the optimum on only {rate:.0%} of instances"

    # (c) ACC and NMI vs independent plug-in implementations
    rng = np.random.default_rng(7103)
    for _ in range(100):
        n = int(rng.integers(4, 30))
        pred = rng.integers(0, 4, size=n)
        truth = rng.integers(0, 4, size=n)
        report = evaluate(pred, truth)
        assert abs(report.acc - brute_force_accuracy(pred, truth)) <= 1e-12
        assert abs(report.nmi - nmi_direct(pred, truth)) <= 1e-12

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"criterion 2 runtime {elapsed:.1f}s exceeds 2 min"
    _verdict(
        "criterion 2: PASS — matching exact on 200 matrices; k-means hit the "
        f"exhaustive optimum on {hits}/{trials} instances ({rate:.0%}, floor 90%); "
        f"scores within 1e-12 on 100 label pairs; {elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# 3. membership-weight properties


def test_criterion_3_weight_properties():
    started = time.perf_counter()
    rng = np.random.default_rng(555)
    worst_row_err = 0.0
    margin_rows = 0
    for _ in range(1000):
        b = int(rng.integers(1, 9))
        k = int(rng.integers(2, 7))
        dim = int(rng.integers(1, 9))
        latent = rng.standard_normal((b, dim))
        centroids = rng.standard_normal((k, dim))
        w = ct_weights(latent, centroids, alpha=float(rng.uniform(0.5, 8.0)))
        g = dkm_weights(latent, centroids, alpha_dkm=float(rng.uniform(0.5, 8.0)))
        for rows in (w, g):
            worst_row_err = max(worst_row_err, float(np.abs(rows.sum(axis=1) - 1.0).max()))
        assert worst_row_err <= 1e-9

        # hard-assignment limit, on rows whose two nearest distances are
        # separated by more than 1%
        d = ((latent[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        two = np.sort(d, axis=1)[:, :2]
        clear = two[:, 1] > two[:, 0] * 1.01
        if clear.any():
            labels = assign(latent, centroids)
            sharp = ct_weights(latent, centroids, alpha=64.0)
            assert np.array_equal(sharp.argmax(axis=1)[clear], labels[clear])
            sharp_dkm = dkm_weights(latent, centroids, alpha_dkm=64.0)
            assert np.array_equal(sharp_dkm.argmax(axis=1)[clear], labels[clear])
            margin_rows += int(clear.sum())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"criterion 3 runtime {elapsed:.1f}s exceeds 10 s"
    _verdict(
        f"criterion 3: PASS — worst row-sum error {worst_row_err:.2e} over 1000 "
        f"instances; hard-limit argmax agreed on all {margin_rows} clear-margin rows; "
        f"{elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# 4. alternation mechanics


def test_criterion_4_alternation_mechanics():
    data = make_blobs(30, 2, 6, separation=8.0, noise_sigma=1.0, seed=11)
    cfg = TrainConfig(
        method="ours", k=2, seed=0, pretrain_epochs=1, finetune_epochs=3,
        batch_size=16, lam=10.0, latent_dim=2, hidden_dims=(8,),
    )

    seen = {}
    run_method(data, cfg, on_batch=lambda e, b, c: seen.setdefault(e, []).append(c))
    for epoch, batches in seen.items():
        for c in batches[1:]:
            assert np.array_equal(c, batches[0]), f"centroids moved inside epoch {epoch}"
    boundary_moves = sum(
        not np.array_equal(seen[e][0], seen[e + 1][0]) for e in range(len(seen) - 1)
    )
    assert boundary_moves == len(seen) - 1, "a refresh left the centroids untouched"

    dkm_seen = []
    dkm_cfg = TrainConfig(
        method="dkm", k=2, seed=0, pretrain_epochs=1, finetune_epochs=1,
        batch_size=16, lam=1.0, latent_dim=2, hidden_dims=(8,),
    )
    run_method(data, dkm_cfg, on_batch=lambda e, b, c: dkm_seen.append(c))
    per_batch_moves = sum(
        not np.array_equal(a, b) for a, b in zip(dkm_seen, dkm_seen[1:])
    )
    assert per_batch_moves == len(dkm_seen) - 1, "jointly trained centroids stalled"

    degen = TrainConfig(
        method="ours", k=2, seed=3, pretrain_epochs=2, finetune_epochs=0,
        batch_size=16, lam=0.0, latent_dim=2, hidden_dims=(8,),
    )
    collapsed = run_method(data, degen)
    baseline = run_method(data, dataclasses.replace(degen, method="aekm"))
    assert np.array_equal(collapsed.assignment, baseline.assignment)
    assert np.array_equal(collapsed.centroids, baseline.centroids)

    _verdict(
        "criterion 4: PASS — centroids frozen within epochs, refreshed at all "
        f"{boundary_moves} boundaries; joint training moved them on every one of "
        f"{len(dkm_seen)} batches; the degenerate run replays the pretrain+kmeans "
        "baseline bitwise"
    )


# --------------------------------------------------------------------------
# 5. desk-scale ablation ordering


def test_criterion_5_desk_scale_ablation():
    started = time.perf_counter()
    data = make_blobs(500, 4, 50, separation=4.0, noise_sigma=1.0, seed=123)
    base = dict(
        k=4, pretrain_epochs=3, finetune_epochs=40, batch_size=256,
        lam=10.0, alpha=3.0, latent_dim=5, hidden_dims=(64, 32),
    )
    seeds = range(5)
    scores = {"ours": [], "aekm": [], "ours_norein": []}
    for seed in seeds:
        scores["ours"].append(
            run_method(data, TrainConfig(method="ours", seed=seed, **base)).metrics.nmi
        )
        scores["aekm"].append(
            run_method(data, TrainConfig(method="aekm", seed=seed, **base)).metrics.nmi
        )
        scores["ours_norein"].append(
            run_method(
                data, TrainConfig(method="ours_norein", seed=seed, **base)
            ).metrics.nmi
        )
    means = {m: float(np.mean(v)) for m, v in scores.items()}
    elapsed = time.perf_counter() - started
    assert means["ours"] >= means["aekm"], f"ablation order broken: {means}"
    assert means["ours"] >= means["ours_norein"], f"ablation order broken: {means}"
    assert elapsed < 600.0, f"criterion 5 runtime {elapsed:.1f}s exceeds 10 min"
    _verdict(
        "criterion 5: PASS — mean NMI over 5 shared seeds: full scheme "
        f"{means['ours']:.3f}, frozen-centroid variant {means['ours_norein']:.3f}, "
        f"pretrain-only baseline {means['aekm']:.3f}; {elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# 6 + 8. image-data checks (shared runs, skipped without local IDX files)


@pytest.fixture(scope="module")
def mnist_runs():
    found = find_mnist()
    if found is None:
        pytest.skip(MNIST_SKIP)
    images, labels = found
    data = load_idx(images, labels).take(10000)
    base = dict(
        k=10, pretrain_epochs=20, finetune_epochs=30, batch_size=256,
        lam=10.0, alpha=3.0, latent_dim=10, hidden_dims=(500, 500, 2000),
    )
    runs = []
    for seed in (0, 1, 2):
        ours = run_method(data, TrainConfig(method="ours", seed=seed, **base))
        aekm = run_method(data, TrainConfig(method="aekm", seed=seed, **base))
        runs.append((seed, ours, aekm))
    return runs


def test_criterion_6_image_subset_margin(mnist_runs):
    margins = [(seed, ours.metrics.nmi - aekm.metrics.nmi) for seed, ours, aekm in mnist_runs]
    wins = sum(1 for _, gap in margins if gap >= 0.05)
    assert wins >= 2, f"NMI gains {margins} clear 5 points on only {wins}/3 seeds"
    _verdict(
        "criterion 6: PASS — alternating scheme beat the pretrain-only baseline "
        f"by >=5 NMI points on {wins}/3 seeds: "
        + ", ".join(f"seed {s}: +{g * 100:.1f}" for s, g in margins)
    )


def test_criterion_8_loss_curve_shape(mnist_runs):
    def rel_decrease(series):
        return (series[0] - series[-1]) / abs(series[0])

    wins = 0
    details = []
    for seed, ours, _ in mnist_runs:
        clust = rel_decrease(ours.clustering_losses)
        recon = rel_decrease(ours.reconstruction_losses)
        details.append(f"seed {seed}: clustering {clust:.1%} vs reconstruction {recon:.1%}")
        if clust > recon:
            wins += 1
    assert wins >= 2, f"clustering loss fell faster on only {wins}/3 seeds ({details})"
    _verdict("criterion 8: PASS — " + "; ".join(details))


# --------------------------------------------------------------------------
# 7. determinism of emitted reports


def test_criterion_7_emitted_json_determinism(tmp_path):
    data = make_blobs(25, 2, 5, separation=8.0, noise_sigma=1.0, seed=4)
    cfg = TrainConfig(
        method="ours", k=2, seed=9, pretrain_epochs=1, finetune_epochs=2,
        batch_size=16, latent_dim=2, hidden_dims=(6,),
    )
    paths_a = emit_report(run_method(data, cfg), tmp_path / "a")
    paths_b = emit_report(run_method(data, cfg), tmp_path / "b")

    raw_a = paths_a[0].read_text().splitlines()
    raw_b = paths_b[0].read_text().splitlines()
    assert len(raw_a) == len(raw_b)
    diffs = [
        (la, lb) for la, lb in zip(raw_a, raw_b) if la != lb
    ]
    assert all("wall_clock" in la for la, _ in diffs), (
        f"non-clock fields differ between identical runs: {diffs[:3]}"
    )

    a = json.loads(paths_a[0].read_text())
    b = json.loads(paths_b[0].read_text())
    a.pop("wall_clock")
    b.pop("wall_clock")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    # the loss table has no clock field at all, so it must match bytewise
    assert paths_a[1].read_bytes() == paths_b[1].read_bytes()
    _verdict(
        "criterion 7: PASS — repeated runs emit byte-identical reports apart "
        "from the wall-clock field"
    )
