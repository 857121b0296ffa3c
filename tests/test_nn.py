import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepkm import nn
from deepkm.nn import (
    AutoencoderParams,
    Gradients,
    Layer,
    LayerSpec,
    Workspace,
    backward,
    encode,
    forward,
    init_autoencoder,
    iter_grad_arrays,
    iter_param_arrays,
    make_optimizer,
    mirrored_spec,
    optimizer_step,
    step_array,
)
from deepkm.losses import LossConfig, combined_objective, reconstruction_loss

from helpers import draw_smooth_net, grads_close, num_grad_inplace


def tiny_net(seed=7, m=4, latent=2, hidden=(3,)):
    enc, dec = mirrored_spec(m, latent, hidden)
    return init_autoencoder(enc, dec, seed)


def linear_net(enc_weight, dec_weight):
    """A fresh one-layer-per-side linear net, its weights written in."""
    m = len(enc_weight)
    params = AutoencoderParams([LayerSpec(m, m, "linear")], [LayerSpec(m, m, "linear")])
    params.encoder[0].weight[...] = enc_weight
    params.decoder[0].weight[...] = dec_weight
    return params


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = tiny_net(seed=7)
        b = tiny_net(seed=7)
        for (na, pa), (nb, pb) in zip(iter_param_arrays(a), iter_param_arrays(b)):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = tiny_net(seed=1)
        b = tiny_net(seed=2)
        assert any(
            not np.array_equal(pa, pb)
            for (_, pa), (_, pb) in zip(iter_param_arrays(a), iter_param_arrays(b))
        )

    def test_shape_contract_roundtrip(self):
        params = tiny_net(seed=3, m=4, latent=2, hidden=())
        batch = np.random.default_rng(0).standard_normal((5, 4))
        cache = forward(params, batch)
        assert cache.latent.shape == (5, 2)
        assert cache.reconstruction.shape == (5, 4)

    def test_biases_zero_weights_bounded(self):
        params = tiny_net(seed=11, m=6, latent=3, hidden=(5,))
        for layer in params.encoder + params.decoder:
            fan_in = layer.weight.shape[0]
            lim = 1.0 / np.sqrt(fan_in)
            assert np.all(np.abs(layer.weight) <= lim)
            assert np.all(layer.bias == 0.0)

    def test_chain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            init_autoencoder(
                [LayerSpec(4, 3, "relu"), LayerSpec(2, 2, "linear")],
                [LayerSpec(2, 4, "linear")],
                seed=0,
            )
        with pytest.raises(ValueError):
            # decoder does not start at the latent dim
            init_autoencoder(
                [LayerSpec(4, 2, "linear")],
                [LayerSpec(3, 4, "linear")],
                seed=0,
            )

    def test_bad_activation_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec(3, 3, "tanh")

    def test_peak_memory_is_one_net_and_one_layer_draw(self):
        enc, dec = mirrored_spec(784, 10, (500, 500, 2000))
        tiny_net()  # the RNG's first use imports modules; that is not init's
        tracemalloc.start()
        try:
            params = init_autoencoder(enc, dec, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(a.nbytes for _, a in iter_param_arrays(params))
        assert peak <= params.flat.nbytes + largest + 2**20, peak


class TestEncodeDecode:
    def test_zero_params_zero_output(self):
        params = tiny_net(seed=0, m=4, latent=2, hidden=(3,))
        for layer in params.encoder + params.decoder:
            layer.weight[:] = 0.0
        batch = np.random.default_rng(1).standard_normal((3, 4))
        assert np.all(encode(params, batch) == 0.0)
        assert np.all(nn._run_layers(params.decoder, np.ones((3, 2))) == 0.0)

    def test_identity_linear_layer(self):
        m = 3
        params = linear_net(np.eye(m), np.eye(m))
        batch = np.random.default_rng(2).standard_normal((4, m))
        np.testing.assert_array_equal(encode(params, batch), batch)
        np.testing.assert_array_equal(nn._run_layers(params.decoder, batch), batch)
        np.testing.assert_array_equal(forward(params, batch).reconstruction, batch)

    def test_batch_equals_per_row_loop(self):
        params = tiny_net(seed=5, m=6, latent=3, hidden=(4,))
        batch = np.random.default_rng(3).standard_normal((3, 6))
        whole = encode(params, batch)
        for i in range(3):
            row = encode(params, batch[i : i + 1])[0]
            np.testing.assert_allclose(whole[i], row, rtol=0, atol=1e-12)
        latent = np.random.default_rng(4).standard_normal((3, 3))
        whole = nn._run_layers(params.decoder, latent)
        for i in range(3):
            row = nn._run_layers(params.decoder, latent[i : i + 1])[0]
            np.testing.assert_allclose(whole[i], row, rtol=0, atol=1e-12)

    def test_purity_repeat_bitwise(self):
        params = tiny_net(seed=9)
        batch = np.random.default_rng(5).standard_normal((2, 4))
        assert np.array_equal(encode(params, batch), encode(params, batch))

    def test_dimension_mismatch_rejected(self):
        params = tiny_net(seed=9, m=4, latent=2)
        with pytest.raises(ValueError):
            encode(params, np.zeros((3, 5)))


def reference_layers(layers, x):
    """The forward formula before in-place bias and ReLU: (outputs, pres)."""
    pres = []
    for layer in layers:
        pre = x @ layer.weight + layer.bias
        pres.append(pre)
        x = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
    return x, pres


class TestInPlaceForwardBits:
    """Adding the bias and applying the ReLU in place keeps every bit."""

    @pytest.fixture(scope="class")
    def paper_net(self):
        enc, dec = mirrored_spec(784, 10, (500, 500, 2000))
        params = init_autoencoder(enc, dec, seed=3)
        rows = np.random.default_rng(4).random((300, 784))
        return params, rows

    def test_encode_and_encode_blocks(self, paper_net, monkeypatch):
        params, rows = paper_net
        want, _ = reference_layers(params.encoder, rows)
        np.testing.assert_array_equal(encode(params, rows), want)
        np.testing.assert_array_equal(nn.encode_blocks(params, rows), want)
        # row blocks of another height may round differently in BLAS, so
        # the reference runs over the same blocks
        blocked = np.vstack([reference_layers(params.encoder, rows[i : i + 128])[0]
                             for i in range(0, rows.shape[0], 128)])
        monkeypatch.setattr(nn, "_ENCODE_ROWS", 128)
        np.testing.assert_array_equal(nn.encode_blocks(params, rows), blocked)

    def test_forward_keeps_layer_outputs_for_backward(self, paper_net):
        params, rows = paper_net
        batch = rows[:256]
        latent, enc_pre = reference_layers(params.encoder, batch)
        recon, dec_pre = reference_layers(params.decoder, latent)
        cache = forward(params, batch)
        np.testing.assert_array_equal(cache.latent, latent)
        np.testing.assert_array_equal(cache.reconstruction, recon)
        outputs = cache.encoder_outputs + cache.decoder_outputs
        assert len(outputs) == 8
        for layer, got, pre in zip(params.encoder + params.decoder, outputs, enc_pre + dec_pre):
            want = np.maximum(pre, 0.0) if layer.activation == "relu" else pre
            np.testing.assert_array_equal(got, want)
            assert np.shares_memory(got, cache.workspace.arena)


class TestBackward:
    def test_zero_upstream_zero_grads(self):
        params = tiny_net(seed=1)
        batch = np.random.default_rng(6).standard_normal((3, 4))
        cache = forward(params, batch)
        grads = backward(params, cache, np.zeros_like(cache.reconstruction))
        for _, g in iter_grad_arrays(grads):
            assert np.all(g == 0.0)

    def test_single_linear_layer_closed_form(self):
        # loss = ||Wx + b - t||^2 on one sample; dW = 2 (Wx+b-t) x^T
        m = 3
        rng = np.random.default_rng(7)
        w = rng.standard_normal((m, m))
        params = linear_net(np.eye(m), w)
        x = rng.standard_normal((1, m))
        t = rng.standard_normal((1, m))
        cache = forward(params, x)
        resid = cache.reconstruction - t
        grads = backward(params, cache, 2.0 * resid)
        expected_dw = x.T @ (2.0 * resid)
        got = dict(iter_grad_arrays(grads))
        np.testing.assert_allclose(got["decoder[0].weight"], expected_dw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got["decoder[0].bias"], (2.0 * resid)[0], rtol=0, atol=1e-12)

    def test_two_layer_net_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for trial in range(5):
            params, batch = draw_smooth_net(rng, m=5, latent=3, hidden=(4,), batch_size=3)

            def loss():
                cache = forward(params, batch)
                return reconstruction_loss(batch, cache.reconstruction)[0]

            cache = forward(params, batch)
            _, grad_out = reconstruction_loss(batch, cache.reconstruction)
            grads = backward(params, cache, grad_out)
            analytic = dict(iter_grad_arrays(grads))
            for name, arr in iter_param_arrays(params):
                numeric = num_grad_inplace(loss, arr)
                assert grads_close(analytic[name], numeric), name

    def test_injected_latent_gradient_matches_finite_differences(self):
        # add c * sum(latent^2) to the loss; its latent gradient is 2c*latent
        c = 0.7
        params, batch = draw_smooth_net(
            np.random.default_rng(9), m=5, latent=3, hidden=(4,), batch_size=2
        )

        def loss():
            cache = forward(params, batch)
            rec = reconstruction_loss(batch, cache.reconstruction)[0]
            return rec + c * float((cache.latent**2).sum())

        cache = forward(params, batch)
        _, grad_out = reconstruction_loss(batch, cache.reconstruction)
        grads = backward(params, cache, grad_out, grad_latent=2.0 * c * cache.latent)
        analytic = dict(iter_grad_arrays(grads))
        for name, arr in iter_param_arrays(params):
            numeric = num_grad_inplace(loss, arr)
            assert grads_close(analytic[name], numeric), name

    def test_missing_cache_rejected(self):
        params = tiny_net(seed=1)
        with pytest.raises(ValueError):
            backward(params, None, np.zeros((2, 4)))

    def test_mismatched_cache_rejected(self):
        params = tiny_net(seed=1)
        other = tiny_net(seed=2, m=4, latent=2, hidden=(3, 3))
        cache = forward(other, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros((2, 4)))

    def test_wrong_grad_shapes_rejected(self):
        params = tiny_net(seed=1)
        cache = forward(params, np.zeros((2, 4)))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            backward(params, cache, np.zeros((2, 4)), grad_latent=np.zeros((2, 9)))


def zero_grads_like(params):
    return Gradients(params.layout, np.zeros_like(params.flat))


def grad_view(grads, name):
    return dict(iter_grad_arrays(grads))[name]


class TestOptimizer:
    def test_sgd_arithmetic(self):
        params = linear_net([[1.0]], [[1.0]])
        grads = zero_grads_like(params)
        grad_view(grads, "encoder[0].weight")[...] = 2.0
        state = make_optimizer("sgd", learning_rate=0.1)
        params, state = optimizer_step(params, grads, state)
        assert params.encoder[0].weight[0, 0] == pytest.approx(0.8, abs=0)

    def test_zero_gradients_leave_params_unchanged(self):
        for kind in ("sgd", "adam"):
            params = tiny_net(seed=13)
            before = [p.copy() for _, p in iter_param_arrays(params)]
            state = make_optimizer(kind, learning_rate=0.5)
            params, state = optimizer_step(params, zero_grads_like(params), state)
            after = [p for _, p in iter_param_arrays(params)]
            for b, a in zip(before, after):
                assert np.array_equal(b, a), kind

    def test_adam_single_step_hand_formula(self):
        # p=0, g=1: m_hat = 1, v_hat = 1 -> p = -lr / (sqrt(1) + eps)
        params = linear_net([[0.0]], [[0.0]])
        grads = zero_grads_like(params)
        grad_view(grads, "encoder[0].weight")[...] = 1.0
        state = make_optimizer("adam", learning_rate=1e-3)
        params, state = optimizer_step(params, grads, state)
        expected = -1e-3 / (1.0 + 1e-8)
        assert params.encoder[0].weight[0, 0] == pytest.approx(expected, rel=1e-15)

    def test_nonfinite_gradient_names_tensor(self):
        params = tiny_net(seed=13)
        grads = zero_grads_like(params)
        grad_view(grads, "decoder[1].bias")[...] = np.nan
        state = make_optimizer("sgd", learning_rate=0.1)
        with pytest.raises(FloatingPointError, match=r"decoder\[1\]\.bias"):
            optimizer_step(params, grads, state)

    def test_small_sgd_step_does_not_increase_convex_loss(self):
        # single linear layer each side: the per-batch objective is convex
        rng = np.random.default_rng(14)
        params = tiny_net(seed=15, m=4, latent=4, hidden=())
        batch = rng.standard_normal((6, 4))
        cache = forward(params, batch)
        before, grad_out = reconstruction_loss(batch, cache.reconstruction)
        grads = backward(params, cache, grad_out)
        state = make_optimizer("sgd", learning_rate=1e-4)
        params, state = optimizer_step(params, grads, state)
        after = reconstruction_loss(batch, forward(params, batch).reconstruction)[0]
        assert after <= before + 1e-12

    def test_bad_optimizer_kind_rejected(self):
        with pytest.raises(ValueError):
            make_optimizer("rmsprop", learning_rate=1e-3)


class TestGradientExactnessSweep:
    def test_random_small_nets_match_finite_differences(self):
        # random architectures (<=3 layers per side, dims <=8), random batches
        rng = np.random.default_rng(99)
        for trial in range(8):
            params, batch = draw_smooth_net(rng)

            def loss():
                cache = forward(params, batch)
                return reconstruction_loss(batch, cache.reconstruction)[0]

            cache = forward(params, batch)
            _, grad_out = reconstruction_loss(batch, cache.reconstruction)
            analytic = dict(iter_grad_arrays(backward(params, cache, grad_out)))
            for name, arr in iter_param_arrays(params):
                numeric = num_grad_inplace(loss, arr)
                assert grads_close(analytic[name], numeric), (trial, name)


def reference_step(param_arrays, grad_arrays, state, ref):
    """The per-tensor SGD/Adam loop that the flat kernel replaced, verbatim
    but for its state: ``ref`` holds ``m``, ``v`` lists and ``t``."""
    lr = state.learning_rate
    if state.kind == "sgd":
        for p, g in zip(param_arrays, grad_arrays):
            p -= lr * g
        return
    if not ref["m"]:
        ref["m"] = [np.zeros_like(p) for p in param_arrays]
        ref["v"] = [np.zeros_like(p) for p in param_arrays]
    ref["t"] += 1
    t = ref["t"]
    b1, b2 = nn.ADAM_BETA1, nn.ADAM_BETA2
    for i, (p, g) in enumerate(zip(param_arrays, grad_arrays)):
        ref["m"][i] = b1 * ref["m"][i] + (1.0 - b1) * g
        ref["v"][i] = b2 * ref["v"][i] + (1.0 - b2) * g * g
        m_hat = ref["m"][i] / (1.0 - b1**t)
        v_hat = ref["v"][i] / (1.0 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + nn.ADAM_EPS)


def several_block_net(seed=21):
    # 60-200-150-5 mirrored: 86,265 parameters, 2.6 blocks of 32,768
    enc, dec = mirrored_spec(60, 5, (200, 150))
    return init_autoencoder(enc, dec, seed)


class TestFlatOptimizerBits:
    def test_net_spans_several_blocks_with_a_ragged_last_one(self):
        n = several_block_net().flat.size
        assert n > 2 * nn._BLOCK and n % nn._BLOCK != 0

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_five_steps_match_the_per_tensor_loop_bitwise(self, kind):
        params = several_block_net()
        ref_params = [p.copy() for _, p in iter_param_arrays(params)]
        state = make_optimizer(kind, learning_rate=1e-2)
        ref = {"m": [], "v": [], "t": 0}
        rng = np.random.default_rng(22)
        for _ in range(5):
            batch = rng.standard_normal((17, 60))
            cache = forward(params, batch)
            _, grad_out = reconstruction_loss(batch, cache.reconstruction)
            grads = backward(params, cache, grad_out, grad_latent=rng.standard_normal((17, 5)))
            reference_step(ref_params, [g.copy() for _, g in iter_grad_arrays(grads)], state, ref)
            params, state = optimizer_step(params, grads, state)
        for (name, p), r in zip(iter_param_arrays(params), ref_params):
            assert np.array_equal(p, r), name
        if kind == "adam":
            assert np.array_equal(state.m, np.concatenate([m.ravel() for m in ref["m"]]))
            assert np.array_equal(state.v, np.concatenate([v.ravel() for v in ref["v"]]))
            assert state.step_count == ref["t"] == 5

    def test_array_step_matches_the_per_tensor_loop_bitwise(self):
        rng = np.random.default_rng(23)
        centroids = rng.standard_normal((10, 4))
        ref_centroids = centroids.copy()
        state = make_optimizer("adam", learning_rate=1e-3)
        ref = {"m": [], "v": [], "t": 0}
        for _ in range(5):
            grad = rng.standard_normal((10, 4))
            reference_step([ref_centroids], [grad], state, ref)
            step_array(centroids, grad, state)
        assert np.array_equal(centroids, ref_centroids)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 3000),
        block=st.integers(1, 1024),
        kind=st.sampled_from(["adam", "sgd"]),
        steps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_size_does_not_change_the_bits(self, n, block, kind, steps, seed):
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(n)
        grads = rng.standard_normal((steps, n)) * rng.uniform(1e-3, 1e3)
        results = []
        for size in (block, n):
            p = start.copy()
            state = make_optimizer(kind, learning_rate=1e-2)
            with mock.patch.object(nn, "_BLOCK", size):
                for g in grads:
                    nn._update(p, g, state)
            results.append((p, state.m, state.v))
        (p1, m1, v1), (p2, m2, v2) = results
        assert np.array_equal(p1, p2)
        if kind == "adam":
            assert np.array_equal(m1, m2) and np.array_equal(v1, v2)


class TestFlatLayout:
    def test_every_tensor_is_a_view_of_the_one_vector_in_order(self):
        params = tiny_net(seed=3, m=5, latent=2, hidden=(4, 3))
        offset = 0
        for name, p in iter_param_arrays(params):
            assert np.shares_memory(p, params.flat), name
            np.testing.assert_array_equal(params.flat[offset : offset + p.size], p.ravel())
            offset += p.size
        assert offset == params.flat.size
        params.flat[:] = 0.5
        assert all(np.all(p == 0.5) for _, p in iter_param_arrays(params))

    def test_copy_shares_no_memory(self):
        params = tiny_net(seed=3)
        twin = params.copy()
        assert not np.shares_memory(twin.flat, params.flat)
        np.testing.assert_array_equal(twin.flat, params.flat)
        for (name, a), (_, b) in zip(iter_param_arrays(twin), iter_param_arrays(params)):
            assert np.shares_memory(a, twin.flat), name
            assert not np.shares_memory(a, b), name

    def test_views_cannot_be_rebound_but_take_writes(self):
        params = tiny_net(seed=3, m=5, latent=2, hidden=(4, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.encoder[1].weight = params.encoder[1].weight.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.flat = params.flat.copy()
        params.encoder[1].weight[...] = 0.25
        offset = params.encoder[0].weight.size + params.encoder[0].bias.size
        assert np.all(params.flat[offset : offset + params.encoder[1].weight.size] == 0.25)

    def test_layers_cannot_be_replaced_or_handed_in(self):
        params = tiny_net(seed=3)
        layer = Layer(np.eye(4, 3), np.zeros(3), "relu")
        with pytest.raises(TypeError):
            params.encoder[0] = layer
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.encoder = (layer,) + params.encoder[1:]
        with pytest.raises(TypeError):
            AutoencoderParams(encoder=[layer], decoder=[layer])
        with pytest.raises(ValueError, match=f"vector of {params.flat.size} values"):
            Gradients(params.layout, np.zeros(params.flat.size - 1))

    def test_gradients_of_two_backward_calls_do_not_alias(self):
        # without a workspace, each forward builds its own
        params = tiny_net(seed=4)
        batch = np.random.default_rng(24).standard_normal((3, 4))
        first = backward(params, forward(params, batch), np.ones((3, 4)))
        second = backward(params, forward(params, batch), np.ones((3, 4)))
        assert not np.shares_memory(first.flat, second.flat)
        for (name, a), (_, b) in zip(iter_grad_arrays(first), iter_grad_arrays(second)):
            assert np.shares_memory(a, first.flat), name
            assert not np.shares_memory(a, b), name
            assert np.array_equal(a, b), name

    def test_gradients_of_another_architecture_move_nothing(self):
        params = tiny_net(seed=4, m=4, latent=2, hidden=(3,))
        other = tiny_net(seed=4, m=4, latent=2, hidden=(3, 3))
        batch = np.random.default_rng(25).standard_normal((3, 4))
        state = make_optimizer("adam", learning_rate=1e-2)
        cache = forward(params, batch)
        optimizer_step(params, backward(params, cache, np.ones_like(cache.reconstruction)), state)
        before = params.flat.copy(), state.m.copy(), state.v.copy(), state.step_count
        cache = forward(other, batch)
        foreign = backward(other, cache, np.ones_like(cache.reconstruction))
        with pytest.raises(ValueError, match=r"encoder\[1\]\.weight: shape \(3, 2\) vs \(3, 3\)"):
            optimizer_step(params, foreign, state)
        assert np.array_equal(params.flat, before[0])
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert state.step_count == before[3] == 1


class TestWorkspace:
    """A training step writes into one preallocated workspace."""

    def test_reused_workspace_matches_fresh_passes_bitwise(self):
        rng = np.random.default_rng(31)
        params = init_autoencoder(*mirrored_spec(20, 4, (16, 12)), seed=5)
        rows = rng.standard_normal((70, 20))
        state = make_optimizer("adam", learning_rate=1e-2)
        workspace = Workspace(params, 32)
        for start in range(0, 70, 32):  # 32, 32, then the 6-row remainder
            batch = rows[start : start + 32]
            b = batch.shape[0]
            grad_latent = rng.standard_normal((b, 4))
            cache = forward(params, batch, workspace)
            value, grad = reconstruction_loss(cache.batch, cache.reconstruction,
                                              workspace.residual[:b])
            grads = backward(params, cache, grad, grad_latent)
            fresh = forward(params, batch)
            fresh_value, fresh_grad = reconstruction_loss(batch, fresh.reconstruction)
            fresh_grads = backward(params, fresh, fresh_grad, grad_latent)
            assert fresh.workspace is not workspace
            assert value == fresh_value
            assert np.array_equal(cache.reconstruction, fresh.reconstruction)
            assert np.array_equal(grads.flat, fresh_grads.flat)
            optimizer_step(params, grads, state)
        assert state.step_count == 3

    def test_backward_on_one_workspace_reuses_its_gradient_vector(self):
        params = tiny_net(seed=4)
        batch = np.random.default_rng(24).standard_normal((3, 4))
        workspace = Workspace(params, 3)
        first = backward(params, forward(params, batch, workspace), np.ones((3, 4)))
        kept = first.flat.copy()
        second = backward(params, forward(params, 2.0 * batch, workspace), np.ones((3, 4)))
        assert first is second is workspace.grads
        assert np.shares_memory(first.flat, workspace.arena)
        assert not np.array_equal(second.flat, kept)

    def test_workspace_of_another_net_or_too_few_rows_rejected(self):
        params = tiny_net(seed=4)
        other = tiny_net(seed=4, m=4, latent=2, hidden=(5,))
        batch = np.zeros((3, 4))
        with pytest.raises(ValueError, match="another architecture"):
            forward(params, batch, Workspace(other, 3))
        with pytest.raises(ValueError, match="2 rows cannot hold a 3-row batch"):
            forward(params, batch, Workspace(params, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                           2.2250738585072014e-308, -2.2250738585072014e-308]),
        min_size=1, max_size=40,
    ))
    def test_mask_after_the_in_place_relu_equals_pre_before_it(self, values):
        pre = np.array(values, dtype=np.float64)
        out = pre.copy()
        np.maximum(out, 0.0, out=out)
        assert np.array_equal(out > 0.0, pre > 0.0)
        # the same through a layer: its output's mask against a linear twin's
        # pre-activations, weights holding the values and a -0.0 bias
        w = pre[None, :]
        relu = AutoencoderParams([LayerSpec(1, w.size, "relu")], [LayerSpec(w.size, 1, "linear")])
        linear = AutoencoderParams([LayerSpec(1, w.size, "linear")],
                                   [LayerSpec(w.size, 1, "linear")])
        for net in (relu, linear):
            net.encoder[0].weight[...] = w
            net.encoder[0].bias[...] = -0.0
        with np.errstate(invalid="ignore", over="ignore"):
            got = forward(relu, np.ones((1, 1))).encoder_outputs[0]
            want = forward(linear, np.ones((1, 1))).encoder_outputs[0]
        assert np.array_equal(got > 0.0, want > 0.0)

    @staticmethod
    def paper_net_step_peak(variant):
        """tracemalloc's peak over one paper-net step at batch 256, after a
        warm-up step: ``combined_objective`` with the ``variant`` term (None:
        no term) into a workspace, then ``optimizer_step``."""
        params = init_autoencoder(*mirrored_spec(784, 10, (500, 500, 2000)), seed=0)
        rng = np.random.default_rng(8)
        batch = rng.random((256, 784))
        centroids = None if variant is None else rng.standard_normal((10, 10))
        config = None if variant is None else LossConfig(variant, lam=1.0, alpha=3.0)
        state = make_optimizer("adam", learning_rate=5e-4)
        workspace = Workspace(params, 256)

        def step():
            out = combined_objective(batch, params, centroids, config, workspace)
            optimizer_step(params, out.param_grads, state)

        step()  # warm-up: Adam's moments and first-call imports
        tracemalloc.start()
        try:
            step()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_paper_net_step_allocates_under_four_mib(self):
        peak = self.paper_net_step_peak("ct")
        assert peak < 4 * 2**20, peak

    @pytest.mark.parametrize("variant", [None, "ct"])
    def test_paper_net_step_allocates_under_one_mib(self, variant):
        # Adam's two block-sized scratch buffers take 0.5 MiB; no buffer
        # the size of the parameters (3.3 MB) may be made, the finiteness
        # check's included
        peak = self.paper_net_step_peak(variant)
        assert peak < 2**20, peak


class TestOptimizerInputs:
    def test_moments_of_another_size_rejected_before_any_change(self):
        params = tiny_net(seed=13)
        before = params.flat.copy()
        state = make_optimizer("adam", learning_rate=0.1)
        state.m, state.v = np.zeros(1), np.zeros(1)
        with pytest.raises(ValueError, match="moments"):
            optimizer_step(params, zero_grads_like(params), state)
        assert np.array_equal(params.flat, before)
        assert state.step_count == 0

    def test_non_finite_last_gradient_moves_no_parameter(self):
        params = tiny_net(seed=13)
        before = params.flat.copy()
        grads = zero_grads_like(params)
        for name, g in iter_grad_arrays(grads):
            if name.endswith(".weight"):
                g[...] = 1.0
        grad_view(grads, "decoder[1].bias")[...] = [1.0, np.inf, 1.0, 1.0]
        state = make_optimizer("adam", learning_rate=0.1)
        with pytest.raises(FloatingPointError, match=r"decoder\[1\]\.bias"):
            optimizer_step(params, grads, state)
        assert np.array_equal(params.flat, before)
        assert state.step_count == 0 and state.m is None

    @pytest.mark.parametrize("bad", [0, 4, 5, 11, -1])
    def test_non_finite_entry_in_any_block_moves_nothing(self, bad):
        # blocks of 5: every block is checked before the first is updated
        params = tiny_net(seed=13)
        before = params.flat.copy()
        grads = Gradients(params.layout, np.ones_like(params.flat))
        grads.flat[bad] = np.nan
        name = next(name for name, g in iter_grad_arrays(grads) if np.isnan(g).any())
        name = re.escape(name)
        state = make_optimizer("adam", learning_rate=0.1)
        with mock.patch.object(nn, "_BLOCK", 5):
            with pytest.raises(FloatingPointError, match=f"^non-finite gradient in {name}$"):
                optimizer_step(params, grads, state)
        assert np.array_equal(params.flat, before)
        assert state.step_count == 0 and state.m is None

    def test_huge_finite_gradients_still_step(self):
        params = tiny_net(seed=13)
        grads = zero_grads_like(params)
        grad_view(grads, "encoder[0].weight")[...] = 1e308
        state = make_optimizer("sgd", learning_rate=1e-310)
        optimizer_step(params, grads, state)
        assert np.isfinite(params.flat).all()

    def test_array_step_checks_its_inputs(self):
        state = make_optimizer("adam", learning_rate=1e-3)
        with pytest.raises(ValueError, match="shape"):
            step_array(np.zeros((2, 3)), np.zeros((3, 2)), state)
        with pytest.raises(ValueError, match="contiguous"):
            step_array(np.zeros((3, 2)).T, np.zeros((2, 3)), state)
        with pytest.raises(FloatingPointError, match="centroids"):
            step_array(np.zeros(2), np.array([0.0, np.nan]), state)
