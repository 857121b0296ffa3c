"""Clustering objectives checked against closed forms and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepkm.clustering import assign
from deepkm.losses import (
    DISTANCE_FLOOR,
    LossConfig,
    combined_objective,
    ct_loss,
    ct_weights,
    dcn_penalty,
    dkm_loss,
    dkm_weights,
    reconstruction_loss,
)
from deepkm.nn import (
    Workspace,
    backward,
    init_autoencoder,
    iter_grad_arrays,
    iter_param_arrays,
    make_optimizer,
    mirrored_spec,
    optimizer_step,
)
from helpers import (
    draw_smooth_net,
    fresh_forward,
    fresh_objective,
    fresh_objective_grads,
    grads_close,
    num_grad,
    num_grad_inplace,
)


class TestLossConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variant": "soft"},
            {"lam": -0.5},
            {"alpha": 0.0},
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
            {"lam": True},
            {"lam": "1"},
            {"alpha": np.bool_(True)},
            {"alpha": None},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LossConfig(**{"variant": "ct", "lam": 10.0, "alpha": 3.0, **kwargs})


class TestCtWeights:
    def test_equidistant_rows_are_uniform(self):
        latent = np.zeros((3, 2))
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        w = ct_weights(latent, centroids, alpha=3.0)
        np.testing.assert_allclose(w, 0.25, atol=1e-15)

    def test_matches_inverse_power_formula(self):
        # two samples, three centroids, weights recomputed by hand from
        # w_k = d_k^-alpha / sum_j d_j^-alpha
        latent = np.array([[0.0, 0.0], [1.0, 1.0]])
        centroids = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
        alpha = 3.0
        w = ct_weights(latent, centroids, alpha)
        d = ((latent[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        for b in range(2):
            inv = [d[b, k] ** -alpha for k in range(3)]
            expect = [v / sum(inv) for v in inv]
            np.testing.assert_allclose(w[b], expect, rtol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        latent = rng.standard_normal((100, 4))
        centroids = rng.standard_normal((7, 4))
        w = ct_weights(latent, centroids, alpha=3.0)
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)

    def test_sharpness_grows_with_alpha(self):
        latent = np.array([[0.2, 0.0]])
        centroids = np.array([[0.0, 0.0], [1.0, 0.0]])
        w1 = ct_weights(latent, centroids, alpha=1.0)[0, 0]
        w4 = ct_weights(latent, centroids, alpha=4.0)[0, 0]
        w16 = ct_weights(latent, centroids, alpha=16.0)[0, 0]
        assert w1 < w4 < w16 < 1.0 + 1e-15

    def test_point_on_centroid_takes_all_weight(self):
        latent = np.array([[1.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [0.0, 3.0]])
        w = ct_weights(latent, centroids, alpha=3.0)
        assert w[0, 0] > 1.0 - 1e-9

    def test_large_alpha_matches_hard_assignment(self):
        rng = np.random.default_rng(1)
        latent = rng.standard_normal((64, 3))
        centroids = rng.standard_normal((5, 3))
        w = ct_weights(latent, centroids, alpha=64.0)
        assert np.array_equal(w.argmax(axis=1), assign(latent, centroids))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ct_weights(np.zeros((2, 3)), np.zeros((2, 4)), alpha=3.0)


class TestDkmWeights:
    def test_equidistant_rows_are_uniform(self):
        latent = np.zeros((2, 2))
        centroids = np.array([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(dkm_weights(latent, centroids, 5.0), 0.5, atol=1e-15)

    def test_matches_softmax_formula(self):
        latent = np.array([[0.5, -0.5]])
        centroids = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        alpha = 2.0
        d = ((latent[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)[0]
        raw = [math.exp(-alpha * dk) for dk in d]
        expect = [v / sum(raw) for v in raw]
        np.testing.assert_allclose(dkm_weights(latent, centroids, alpha)[0], expect, rtol=1e-12)

    def test_hard_limit(self):
        rng = np.random.default_rng(2)
        latent = rng.standard_normal((40, 3))
        centroids = rng.standard_normal((4, 3))
        g = dkm_weights(latent, centroids, 1e4)
        assert np.array_equal(g.argmax(axis=1), assign(latent, centroids))
        # winners essentially carry the whole row
        assert g.max(axis=1).min() > 0.999

    def test_no_overflow_for_huge_distances(self):
        latent = np.array([[1e4, 0.0]])
        centroids = np.array([[0.0, 0.0], [2e4, 0.0]])
        g = dkm_weights(latent, centroids, 100.0)
        assert np.all(np.isfinite(g))
        np.testing.assert_allclose(g.sum(axis=1), 1.0, atol=1e-12)


@st.composite
def latents_and_centroids(draw):
    """Centroids, and latent rows that are free, exactly on a centroid
    (ct's distance floor) or about 1e3 times farther out (large logits)."""
    dim, k, b = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 8))
    point = st.lists(st.floats(-1e3, 1e3), min_size=dim, max_size=dim)
    centroids = np.array(draw(st.lists(point, min_size=k, max_size=k)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["free", "on", "far"]), min_size=b, max_size=b)):
        if kind == "on":
            rows.append(centroids[draw(st.integers(0, k - 1))])
        else:
            rows.append(np.array(draw(point)) * (1e3 if kind == "far" else 1.0))
    return np.array(rows), centroids


class TestWeightRows:
    @settings(max_examples=300, deadline=None)
    @given(latents_and_centroids(), st.floats(1e-3, 64.0), st.sampled_from([ct_weights, dkm_weights]))
    def test_rows_are_non_negative_and_sum_to_one(self, points, alpha, weights):
        latent, centroids = points
        w = weights(latent, centroids, alpha)
        assert w.shape == (latent.shape[0], centroids.shape[0])
        assert np.all(w >= 0.0)
        assert np.all(np.abs(w.sum(axis=1) - 1.0) <= 1e-12)


class TestCtLoss:
    def test_variant_guard(self):
        with pytest.raises(ValueError):
            ct_loss(np.zeros((1, 2)), np.zeros((1, 2)), LossConfig("dkm", lam=10.0, alpha=3.0))

    def test_single_centroid_closed_form(self):
        # K=1 forces w=1, so the loss is the mean squared distance and the
        # weight term of the gradient vanishes
        latent = np.array([[1.0, 2.0], [3.0, -1.0]])
        centroids = np.array([[0.0, 0.0]])
        value, grad = ct_loss(latent, centroids, LossConfig("ct", lam=10.0, alpha=3.0))
        assert value == pytest.approx((5.0 + 10.0) / 2.0, abs=1e-12)
        np.testing.assert_allclose(grad, 2.0 * latent / 2.0, atol=1e-12)

    def test_point_on_single_centroid_is_flat_zero(self):
        latent = np.array([[0.5, 0.5]])
        value, grad = ct_loss(latent, latent.copy(), LossConfig("ct", lam=10.0, alpha=3.0))
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=0)

    def test_symmetric_midpoint(self):
        # equidistant from both centroids: value is the common distance and
        # the pulls cancel exactly
        latent = np.array([[0.0]])
        centroids = np.array([[-1.0], [1.0]])
        value, grad = ct_loss(latent, centroids, LossConfig("ct", lam=10.0, alpha=3.0))
        assert value == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        config = LossConfig("ct", lam=10.0, alpha=3.0)
        for _ in range(5):
            latent = rng.standard_normal((4, 3))
            centroids = rng.standard_normal((3, 3))
            _, grad = ct_loss(latent, centroids, config)
            numeric = num_grad(lambda z: ct_loss(z, centroids, config)[0], latent)
            assert grads_close(grad, numeric)

    def test_centroid_order_irrelevant(self):
        rng = np.random.default_rng(5)
        latent = rng.standard_normal((6, 3))
        centroids = rng.standard_normal((4, 3))
        config = LossConfig("ct", lam=10.0, alpha=3.0)
        v1, g1 = ct_loss(latent, centroids, config)
        v2, g2 = ct_loss(latent, centroids[::-1].copy(), config)
        assert v1 == pytest.approx(v2, rel=1e-14)
        np.testing.assert_allclose(g1, g2, rtol=1e-12)


class TestDkmLoss:
    def test_variant_guard(self):
        with pytest.raises(ValueError):
            dkm_loss(np.zeros((1, 2)), np.zeros((1, 2)), LossConfig("ct", lam=10.0, alpha=3.0))

    def test_symmetric_midpoint_value(self):
        value, grad_z, _ = dkm_loss(
            np.array([[0.0]]), np.array([[-1.0], [1.0]]), LossConfig("dkm", lam=10.0, alpha=3.0)
        )
        assert value == pytest.approx(1.0, abs=1e-15)
        np.testing.assert_allclose(grad_z, 0.0, atol=1e-15)

    def test_single_centroid_closed_form(self):
        latent = np.array([[2.0], [4.0]])
        centroids = np.array([[1.0]])
        value, grad_z, grad_r = dkm_loss(latent, centroids, LossConfig("dkm", lam=10.0, alpha=3.0))
        assert value == pytest.approx((1.0 + 9.0) / 2.0, abs=1e-12)
        np.testing.assert_allclose(grad_z, [[1.0], [3.0]], atol=1e-12)
        # centroid pulled toward the batch mean
        np.testing.assert_allclose(grad_r, [[-4.0]], atol=1e-12)

    def test_both_gradients_match_finite_differences(self):
        rng = np.random.default_rng(6)
        config = LossConfig("dkm", lam=10.0, alpha=3.0)
        for _ in range(5):
            latent = rng.standard_normal((4, 2))
            centroids = rng.standard_normal((3, 2))
            _, grad_z, grad_r = dkm_loss(latent, centroids, config)
            fd_z = num_grad(lambda z: dkm_loss(z, centroids, config)[0], latent)
            fd_r = num_grad(lambda r: dkm_loss(latent, r, config)[0], centroids)
            assert grads_close(grad_z, fd_z)
            assert grads_close(grad_r, fd_r)


class TestDcnPenalty:
    def test_hand_example(self):
        value, grad = dcn_penalty(
            np.array([[3.0]]), np.array([[1.0]]), np.array([0])
        )
        assert value == pytest.approx(2.0, abs=1e-15)
        np.testing.assert_allclose(grad, [[2.0]], atol=1e-15)

    def test_two_clusters(self):
        latent = np.array([[0.0, 0.0], [4.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [5.0, 0.0]])
        value, grad = dcn_penalty(latent, centroids, np.array([0, 1]))
        assert value == pytest.approx(0.5 * (1.0 + 1.0) / 2.0, abs=1e-15)
        np.testing.assert_allclose(grad, [[-0.5, 0.0], [-0.5, 0.0]], atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        latent = rng.standard_normal((6, 3))
        centroids = 10.0 * rng.standard_normal((3, 3))  # far apart: labels stable under FD step
        labels = assign(latent, centroids)
        _, grad = dcn_penalty(latent, centroids, labels)
        numeric = num_grad(lambda z: dcn_penalty(z, centroids, labels)[0], latent)
        assert grads_close(grad, numeric)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            dcn_penalty(np.zeros((2, 2)), np.zeros((3, 2)), np.array([0, 3]))

    def test_wrong_assignment_shape_rejected(self):
        with pytest.raises(ValueError):
            dcn_penalty(np.zeros((2, 2)), np.zeros((3, 2)), np.array([0]))

    @pytest.mark.parametrize("labels", [[True, False], [1.0, 0.0], [0.5, 0.0]])
    def test_bool_or_non_integer_labels_rejected_by_name(self, labels):
        # [True, False] once indexed as a mask and scored labels [0, 0]
        latent = np.array([[0.0, 0.0], [4.0, 0.0]])
        centroids = np.array([[1.0, 0.0], [5.0, 0.0]])
        assert dcn_penalty(latent, centroids, np.array([1, 0]))[0] == 8.5
        with pytest.raises(ValueError, match="^assignment must hold integer labels, got dtype "):
            dcn_penalty(latent, centroids, np.array(labels))


class TestReconstructionLoss:
    def test_perfect_reconstruction(self):
        batch = np.random.default_rng(8).standard_normal((3, 4))
        value, grad = reconstruction_loss(batch, batch.copy())
        assert value == 0.0
        np.testing.assert_allclose(grad, 0.0, atol=0)

    def test_hand_example(self):
        value, grad = reconstruction_loss(np.array([[0.0]]), np.array([[2.0]]))
        assert value == pytest.approx(4.0, abs=1e-15)
        np.testing.assert_allclose(grad, [[4.0]], atol=1e-15)

    def test_mean_over_batch_sum_over_features(self):
        batch = np.zeros((2, 3))
        recon = np.ones((2, 3))
        value, _ = reconstruction_loss(batch, recon)
        assert value == pytest.approx(3.0, abs=1e-15)


class TestCombinedObjective:
    def test_total_is_recon_plus_lam_times_clustering(self):
        rng = np.random.default_rng(9)
        params, batch = draw_smooth_net(rng, m=5, latent=2, hidden=(6,), batch_size=4)
        centroids = rng.standard_normal((3, 2))
        for variant in ("ct", "dkm", "dcn"):
            config = LossConfig(variant, lam=7.0, alpha=3.0)
            result = fresh_objective(batch, params, centroids, config)
            assert result.total == result.reconstruction + 7.0 * result.clustering

    @pytest.mark.parametrize("variant", ["ct", "dkm", "dcn"])
    def test_lam_zero_is_bitwise_pure_reconstruction(self, variant):
        rng = np.random.default_rng(10)
        params, batch = draw_smooth_net(rng, m=4, latent=2, hidden=(5,), batch_size=3)
        centroids = rng.standard_normal((2, 2))
        config = LossConfig(variant, lam=0.0, alpha=3.0)
        result, result_grads = fresh_objective_grads(batch, params, centroids, config)
        no_term, no_term_grads = fresh_objective_grads(batch, params, None, None)
        ws = fresh_forward(params, batch)
        _, grad_recon = reconstruction_loss(batch, ws.reconstruction)
        pure = backward(params, ws, grad_recon)
        for got in (result_grads, no_term_grads):
            for (_, a), (_, b) in zip(iter_grad_arrays(got), iter_grad_arrays(pure)):
                assert np.array_equal(a, b)
        assert result.reconstruction == no_term.reconstruction
        assert result.total == no_term.total == no_term.reconstruction
        assert (no_term.clustering, no_term.centroid_grads, no_term.assignment) == (0.0, None, None)

    @pytest.mark.parametrize("centroids, config", [
        (np.zeros((2, 2)), None), (None, LossConfig("ct", lam=10.0, alpha=3.0)),
    ])
    def test_a_term_needs_both_centroids_and_config(self, centroids, config):
        rng = np.random.default_rng(10)
        params, batch = draw_smooth_net(rng, m=4, latent=2, hidden=(5,), batch_size=3)
        with pytest.raises(ValueError, match="both be given, or both be None"):
            fresh_objective(batch, params, centroids, config)

    def test_lam_zero_dkm_freezes_centroids(self):
        rng = np.random.default_rng(11)
        params, batch = draw_smooth_net(rng, m=4, latent=2, batch_size=3)
        centroids = rng.standard_normal((2, 2))
        result = fresh_objective(
            batch, params, centroids, LossConfig("dkm", lam=0.0, alpha=3.0)
        )
        assert result.centroid_grads is not None
        np.testing.assert_allclose(result.centroid_grads, 0.0, atol=0)

    def test_doubling_lam_doubles_the_clustering_share(self):
        rng = np.random.default_rng(12)
        params, batch = draw_smooth_net(rng, m=5, latent=3, batch_size=4)
        centroids = rng.standard_normal((3, 3))
        r1 = fresh_objective(batch, params, centroids, LossConfig("ct", lam=10.0, alpha=3.0))
        r2 = fresh_objective(batch, params, centroids, LossConfig("ct", lam=20.0, alpha=3.0))
        assert r2.total - r2.reconstruction == 2.0 * (r1.total - r1.reconstruction)

    def test_dkm_centroid_grads_scale_with_lam(self):
        rng = np.random.default_rng(13)
        params, batch = draw_smooth_net(rng, m=4, latent=2, batch_size=5)
        centroids = rng.standard_normal((3, 2))
        g1 = fresh_objective(
            batch, params, centroids, LossConfig("dkm", lam=1.0, alpha=3.0)
        ).centroid_grads
        g4 = fresh_objective(
            batch, params, centroids, LossConfig("dkm", lam=4.0, alpha=3.0)
        ).centroid_grads
        np.testing.assert_array_equal(g4, 4.0 * g1)

    def test_dcn_reports_hard_assignment(self):
        rng = np.random.default_rng(14)
        params, batch = draw_smooth_net(rng, m=4, latent=2, batch_size=6)
        centroids = rng.standard_normal((3, 2))
        config = LossConfig("dcn", lam=10.0, alpha=3.0)
        result = fresh_objective(batch, params, centroids, config)
        latent = fresh_forward(params, batch).latent
        assert np.array_equal(result.assignment, assign(latent, centroids))

    @pytest.mark.parametrize("variant", ["ct", "dkm", "dcn"])
    def test_reused_workspace_matches_a_fresh_one_bitwise(self, variant):
        rng = np.random.default_rng(16)
        params = init_autoencoder(*mirrored_spec(6, 2, (8, 5)), seed=3)
        rows = rng.standard_normal((23, 6))
        centroids = rng.standard_normal((3, 2))
        config = LossConfig(variant, lam=2.0, alpha=3.0)
        state = make_optimizer("adam", learning_rate=1e-2)
        workspace = Workspace(params, 10)
        for start in range(0, 23, 10):  # 10, 10, then the 3-row remainder
            batch = rows[start : start + 10]
            got = combined_objective(batch, params, centroids, config, workspace)
            fresh, fresh_grads = fresh_objective_grads(batch, params, centroids, config)
            assert (got.total, got.reconstruction, got.clustering) == (
                fresh.total, fresh.reconstruction, fresh.clustering)
            assert np.array_equal(workspace.grads.flat, fresh_grads.flat)
            for a, b in ((got.centroid_grads, fresh.centroid_grads),
                         (got.assignment, fresh.assignment)):
                assert (a is None and b is None) or np.array_equal(a, b)
            optimizer_step(params, workspace, state)

    @pytest.mark.parametrize("variant", ["ct", "dkm"])
    def test_parameter_gradients_match_finite_differences(self, variant):
        rng = np.random.default_rng(15)
        params, batch = draw_smooth_net(rng, m=4, latent=2, hidden=(5,), batch_size=3)
        centroids = rng.standard_normal((3, 2))
        config = LossConfig(variant, lam=2.5, alpha=3.0)
        _, result_grads = fresh_objective_grads(batch, params, centroids, config)

        def total():
            return fresh_objective(batch, params, centroids, config).total

        grads = dict(iter_grad_arrays(result_grads))
        for name, arr in iter_param_arrays(params):
            numeric = num_grad_inplace(total, arr)
            assert grads_close(grads[name], numeric), name

    def test_dcn_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(16)
        # spread-out centroids keep the argmin stable across the FD step
        params, batch = draw_smooth_net(rng, m=4, latent=2, hidden=(5,), batch_size=3)
        latent = fresh_forward(params, batch).latent
        # both centroids off to one side so the decision boundary sits far
        # from every latent point
        centroids = np.array([latent.mean(axis=0) + [50.0, 0.0], latent.mean(axis=0) + [80.0, 0.0]])
        config = LossConfig("dcn", lam=2.0, alpha=3.0)
        _, result_grads = fresh_objective_grads(batch, params, centroids, config)

        def total():
            return fresh_objective(batch, params, centroids, config).total

        grads = dict(iter_grad_arrays(result_grads))
        for name, arr in iter_param_arrays(params):
            numeric = num_grad_inplace(total, arr)
            assert grads_close(grads[name], numeric), name


def _reference_weighted(latent, centroids, alpha, epsilon=None):
    """ct_loss (epsilon given) or dkm_loss (epsilon None) as the separate
    copies they were before sharing one core: (value, d/dz, d/dc)."""
    diff = latent[:, None, :] - centroids[None, :, :]
    d = np.einsum("bkl,bkl->bk", diff, diff)
    b = d.shape[0]
    if epsilon is None:
        logits = -alpha * d
    else:
        d_floor = np.maximum(d, epsilon)
        logits = -alpha * np.log(d_floor)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    s = np.einsum("bk,bk->b", d, w)
    if epsilon is None:
        coef = w * (d - s[:, None])
    else:
        coef = w * (d - s[:, None]) / d_floor * (d > epsilon)
    return (
        float(s.sum() / b),
        (2.0 * np.einsum("bk,bkl->bl", w, diff)
         - 2.0 * alpha * np.einsum("bk,bkl->bl", coef, diff)) / b,
        (-2.0 * np.einsum("bk,bkl->kl", w, diff)
         + 2.0 * alpha * np.einsum("bk,bkl->kl", coef, diff)) / b,
    )


class TestOneCoreBits:
    def test_matches_the_separate_copies_bitwise(self):
        rng = np.random.default_rng(2024)
        for case in range(300):
            b, k, dim = (int(v) for v in rng.integers(1, [301, 13, 13]))
            scale = 10.0 ** rng.uniform(-3, 3)
            latent = rng.standard_normal((b, dim)) * scale
            centroids = rng.standard_normal((k, dim)) * scale
            if case % 3 == 0:  # points sitting exactly on a centroid
                on = rng.integers(0, b, size=max(1, b // 4))
                latent[on] = centroids[rng.integers(0, k, size=on.size)]
            alpha = float(rng.uniform(0.5, 5.0))
            ct = LossConfig("ct", lam=10.0, alpha=alpha)
            dkm = LossConfig("dkm", lam=10.0, alpha=alpha / scale**2)
            got = {
                "ct": ct_loss(latent, centroids, ct),
                "dkm": dkm_loss(latent, centroids, dkm),
            }
            want = {
                # ct's d/dc is never applied, so only value and d/dz are pinned
                "ct": _reference_weighted(latent, centroids, ct.alpha, DISTANCE_FLOOR)[:2],
                "dkm": _reference_weighted(latent, centroids, dkm.alpha),
            }
            for variant in got:
                for name, g, w in zip(("value", "d/dz", "d/dc"), got[variant], want[variant]):
                    assert np.array_equal(g, w), f"case {case}: {variant} {name}"

    def test_shape_mismatch_still_rejected(self):
        with pytest.raises(ValueError, match="not compatible 2-d arrays"):
            ct_loss(np.zeros((3, 2)), np.zeros((2, 3)), LossConfig("ct", lam=10.0, alpha=3.0))
