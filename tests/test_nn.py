import contextlib
import dataclasses
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
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

ROOT = Path(__file__).resolve().parents[1]


def tiny_net(seed=7, m=4, latent=2, hidden=(3,)):
    enc, dec = mirrored_spec(m, latent, hidden)
    return init_autoencoder(enc, dec, seed)


@pytest.fixture(scope="module")
def helper_pool():
    with ThreadPoolExecutor(1) as pool:
        yield pool


@contextlib.contextmanager
def with_helper(pool):
    """``nn._helper`` patched to give ``pool`` (None: no helper); yields a
    mock counting the jobs submitted to it."""
    submit = mock.Mock(side_effect=None if pool is None else pool.submit)
    helper = None if pool is None else mock.Mock(submit=submit)
    with mock.patch.object(nn, "_helper", lambda: helper):
        yield submit


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

    @pytest.mark.parametrize("dims, name", [
        ((2.5, 3), "input_dim"), ((True, 3), "input_dim"), ((3, np.float64(2.0)), "output_dim"),
        ((3, np.bool_(True)), "output_dim"), ((3, "4"), "output_dim"), ((None, 4), "input_dim"),
    ])
    def test_non_integer_dims_rejected_by_name(self, dims, name):
        with pytest.raises(ValueError, match=f"LayerSpec.{name} must be an integer"):
            LayerSpec(*dims, "relu")

    def test_numpy_integer_dims_are_stored_as_ints(self):
        spec = LayerSpec(np.int64(3), np.uint8(4), "relu")
        assert (type(spec.input_dim), type(spec.output_dim)) == (int, int)
        params = AutoencoderParams([spec], [LayerSpec(4, np.int32(3), "linear")])
        assert all(type(n) is int for _, shape in params.layout for n in shape)
        assert params.layout == tiny_net(m=3, latent=4, hidden=()).layout

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
        n=st.integers(2, 3000),
        block=st.integers(1, 1024),
        kind=st.sampled_from(["adam", "sgd"]),
        steps=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_size_does_not_change_the_bits(self, helper_pool, n, block, kind, steps, seed):
        # n > block: with the helper, both threads claim the vector's
        # blocks from one counter, each into its own scratch
        block = min(block, n - 1)
        rng = np.random.default_rng(seed)
        start = rng.standard_normal(n)
        grads = rng.standard_normal((steps, n)) * rng.uniform(1e-3, 1e3)
        results = []
        for size, pool in ((block, None), (block, helper_pool), (n, helper_pool)):
            p = start.copy()
            state = make_optimizer(kind, learning_rate=1e-2)
            with mock.patch.object(nn, "_BLOCK", size), with_helper(pool) as submits:
                for g in grads:
                    nn._update(p, g, state)
            assert submits.call_count == (steps if pool and n > size else 0)
            results.append((p, state.m, state.v))
        (p1, m1, v1), *others = results
        for p2, m2, v2 in others:
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
        no term) into a workspace held by a ``with`` block, as an epoch
        holds it, then ``optimizer_step``. With the helper, the step's
        forward applies the warm-up's deferred update."""
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

        with workspace:
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
        # Adam's scratch blocks live in the workspace; no buffer the size
        # of the parameters (3.3 MB) may be made, the finiteness check's
        # included
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


def helper_net(seed=31):
    # 200-200-300-5 mirrored: more than _BLOCK values, so the helper forms
    # the weight gradient of every layer past encoder 0, and the flat
    # vector spans several optimizer blocks
    return init_autoencoder(*mirrored_spec(200, 5, (200, 300)), seed)


HELPER_LAYERS = 5


@contextlib.contextmanager
def slowed_blocks(slow="caller", raising=None):
    """``nn._Step.block`` patched: blocks run by ``slow`` ("caller" or
    "helper") start 50 ms late, and a block run by ``raising`` raises
    instead, once the other thread is inside a block (or after 1 s).
    Yields the list of (block, run by the helper) in the order the
    blocks started."""
    block = nn._Step.block
    ran = []
    entered = threading.Event()

    def patched(step, j, scratch):
        role = "caller" if threading.current_thread() is threading.main_thread() else "helper"
        if role == raising:
            entered.wait(1.0)
            raise RuntimeError(f"block on the {role}")
        entered.set()
        if role == slow:
            time.sleep(0.05)
        ran.append((j, role == "helper"))
        block(step, j, scratch)

    with mock.patch.object(nn._Step, "block", patched):
        yield ran


def run_subprocess(script, **blas_env):
    """``script`` in a new interpreter whose only BLAS thread settings are
    ``blas_env``."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env.update(PYTHONPATH=str(ROOT / "src"), **blas_env)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)


needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="the helper runs only where a second CPU is free",
)


class TestHelperThread:
    """The helper thread changes which CPU runs a GEMM or an optimizer half,
    never a bit, and never outlives the call that gave it the work."""

    def test_layer_sizes(self):
        net = helper_net()
        assert len(net.encoder + net.decoder) - 1 == HELPER_LAYERS
        assert net.flat.size > 4 * nn._BLOCK

    def test_backward_gradients_are_the_same_bits(self, helper_pool):
        params = helper_net()
        rng = np.random.default_rng(32)
        batch = rng.standard_normal((64, 200))
        grad_latent = rng.standard_normal((64, 5))
        grads = []
        for pool in (None, helper_pool):
            cache = forward(params, batch)
            _, grad_out = reconstruction_loss(batch, cache.reconstruction)
            with with_helper(pool) as submits:
                grads.append(backward(params, cache, grad_out, grad_latent).flat)
            assert submits.call_count == (HELPER_LAYERS if pool else 0)
        assert np.array_equal(*grads)

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_optimizer_steps_are_the_same_bits(self, helper_pool, kind):
        rng = np.random.default_rng(33)
        batches = rng.standard_normal((4, 32, 200))
        results = []
        for pool in (None, helper_pool):
            params = helper_net()
            state = make_optimizer(kind, learning_rate=1e-2)
            workspace = Workspace(params, 32)
            with with_helper(pool) as submits:
                for batch in batches:
                    cache = forward(params, batch, workspace)
                    _, grad_out = reconstruction_loss(batch, cache.reconstruction)
                    optimizer_step(params, backward(params, cache, grad_out), state)
            assert submits.call_count == (len(batches) * (HELPER_LAYERS + 1) if pool else 0)
            results.append((params.flat, state.m, state.v))
        (p1, m1, v1), (p2, m2, v2) = results
        assert np.array_equal(p1, p2)
        if kind == "adam":
            assert np.array_equal(m1, m2) and np.array_equal(v1, v2)

    def test_overflow_raises_on_the_helper_under_the_callers_errstate(self, helper_pool):
        # g*g overflows only in the last block; the caller's first block is
        # slowed, so the helper claims the rest
        for pool in (None, helper_pool):
            p, g = np.zeros(4 * nn._BLOCK), np.zeros(4 * nn._BLOCK)
            g[-1] = 1e200
            with with_helper(pool), slowed_blocks() as ran:
                with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
                    nn._update(p, g, make_optimizer("adam", learning_rate=1e-3))
            assert (3, pool is not None) in ran

    @pytest.mark.parametrize("raiser", ["caller", "helper"])
    def test_no_gemm_writes_the_workspace_after_backward_raises(self, helper_pool, raiser):
        # every GEMM on the other thread is slowed, so one that outlived
        # backward would land in the arena after the snapshot
        params = helper_net()
        rng = np.random.default_rng(34)
        batch = rng.standard_normal((64, 200))
        cache = forward(params, batch)
        _, grad_out = reconstruction_loss(batch, cache.reconstruction)
        matmul = np.matmul
        finished = []

        def gemm(*args, **kwargs):
            if (threading.current_thread() is threading.main_thread()) == (raiser == "caller"):
                raise RuntimeError(raiser)
            time.sleep(0.05)
            finished.append(matmul(*args, **kwargs))
            return finished[-1]

        with with_helper(helper_pool), mock.patch.object(np, "matmul", gemm):
            with pytest.raises(RuntimeError, match=raiser):
                backward(params, cache, grad_out)
        # the helper's first GEMM, or the caller's input gradients of the
        # last two layers, formed before it joins that GEMM
        assert len(finished) == (1 if raiser == "caller" else 2)
        arena = cache.workspace.arena.copy()
        time.sleep(0.1)
        assert np.array_equal(cache.workspace.arena, arena)

    def test_no_gemm_writes_the_gradients_after_backward_returns(self, helper_pool):
        params = helper_net()
        rng = np.random.default_rng(35)
        batch = rng.standard_normal((64, 200))
        cache = forward(params, batch)
        _, grad_out = reconstruction_loss(batch, cache.reconstruction)

        def slow_submit(fn, *args, **kwargs):
            return helper_pool.submit(lambda: (time.sleep(0.05), fn(*args, **kwargs))[1])

        with mock.patch.object(nn, "_helper", lambda: mock.Mock(submit=slow_submit)):
            grads = backward(params, cache, grad_out).flat.copy()
        time.sleep(0.1)
        assert np.array_equal(cache.workspace.grads.flat, grads)

    def test_slowed_weight_gradients_read_their_own_buffers(self, helper_pool):
        # each weight-gradient GEMM starts 50 ms late: an input gradient
        # written into the buffer it reads before it ran would change bits
        params = helper_net()
        rng = np.random.default_rng(38)
        batch = rng.standard_normal((64, 200))
        grad_latent = rng.standard_normal((64, 5))
        cache = forward(params, batch)
        _, grad_out = reconstruction_loss(batch, cache.reconstruction)
        with with_helper(None):
            want = backward(params, cache, grad_out, grad_latent).flat.copy()

        def slow_submit(fn, *args, **kwargs):
            return helper_pool.submit(lambda: (time.sleep(0.05), fn(*args, **kwargs))[1])

        with mock.patch.object(nn, "_helper", lambda: mock.Mock(submit=slow_submit)):
            got = backward(params, cache, grad_out, grad_latent).flat
        assert np.array_equal(got, want)

    def test_callers_on_more_threads_than_cpus_share_one_helper(self, helper_pool):
        # four training threads, each on its own net and workspace, queue
        # on the one helper, with updates deferred; a job run for the wrong
        # caller or lost would change bits
        rng = np.random.default_rng(37)
        batches = rng.standard_normal((3, 32, 200))

        def train(seed, out):
            params = helper_net(seed)
            state = make_optimizer("adam", learning_rate=1e-2)
            with Workspace(params, 32) as workspace:
                for batch in batches:
                    cache = forward(params, batch, workspace)
                    _, grad_out = reconstruction_loss(batch, cache.reconstruction)
                    optimizer_step(params, backward(params, cache, grad_out), state)
            out[seed] = params.flat

        want, got = {}, {}
        with with_helper(None):
            for seed in range(4):
                train(seed, want)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with with_helper(helper_pool):
                threads = [threading.Thread(target=train, args=(seed, got)) for seed in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == sorted(want)
        for seed in want:
            assert np.array_equal(got[seed], want[seed]), seed

    @pytest.mark.parametrize("variant", [None, "ct"])
    def test_paper_net_step_with_the_helper_allocates_under_one_mib(self, helper_pool, variant):
        # the step's forward applies the warm-up's deferred update, each
        # thread into its own scratch blocks in the workspace
        with with_helper(helper_pool) as submits:
            peak = TestWorkspace.paper_net_step_peak(variant)
        assert submits.call_count > 0
        assert peak < 2**20, peak

    def test_a_desk_net_step_starts_no_thread(self):
        params = init_autoencoder(*mirrored_spec(50, 5, (64, 32)), seed=0)
        rng = np.random.default_rng(36)
        batch = rng.random((256, 50))
        state = make_optimizer("adam", learning_rate=1e-3)
        threads = threading.active_count()
        before = params.flat.copy()
        with ThreadPoolExecutor(1) as pool, with_helper(pool) as submits:
            with Workspace(params, 256) as workspace:
                out = combined_objective(batch, params, rng.standard_normal((4, 5)),
                                         LossConfig("ct", lam=1.0, alpha=3.0), workspace)
                optimizer_step(params, out.param_grads, state)
                assert not np.array_equal(params.flat, before)  # applied, not deferred
                assert workspace._slot.step is None and params._pending == [None]
                assert len(workspace.backprop) == 2 and workspace._slot.scratch is None
            assert threading.active_count() == threads
        assert submits.call_count == 0

    @needs_two_cpus
    def test_a_forked_child_makes_its_own_helper(self):
        # an executor copied across fork has no thread: a child that used
        # it would wait for ever, so the alarm ends it
        proc = run_subprocess("""
            import os, signal, sys
            import numpy as np
            from deepkm import nn
            from deepkm.losses import combined_objective

            params = nn.init_autoencoder(*nn.mirrored_spec(784, 10, (500, 500, 2000)), 0)
            batch = np.random.default_rng(0).random((256, 784))
            state = nn.make_optimizer("adam", 1e-3)
            workspace = nn.Workspace(params, 256)

            def step():
                out = combined_objective(batch, params, None, None, workspace)
                nn.optimizer_step(params, out.param_grads, state)

            with workspace:
                step()
                parent_helper = nn._helper()
                assert parent_helper is not None and params._pending[0] is not None
                pid = os.fork()
                if pid == 0:
                    # the child applies the pending update with its own helper
                    signal.alarm(60)
                    step()
                    os._exit(0 if nn._helper() not in (None, parent_helper) else 3)
                step()
            sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
        """, OPENBLAS_NUM_THREADS="1")
        assert proc.returncode == 0, (proc.returncode, proc.stderr)

    @needs_two_cpus
    @pytest.mark.parametrize("cpus, env, helper", [
        (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
        (2, {"OPENBLAS_NUM_THREADS": "2"}, False),
        (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
        (2, {"OMP_NUM_THREADS": "1"}, True),
        (2, {}, False),
    ])
    def test_helper_only_where_blas_leaves_a_cpu_free(self, cpus, env, helper):
        # two concurrent GEMMs at two BLAS threads each were slower than
        # the same two in turn, so the helper must stay off there
        proc = run_subprocess(f"""
            import os
            os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:{cpus}])
            from deepkm import nn
            print(nn._helper() is not None)
        """, **env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str(helper)


class TestDeferredUpdate:
    """Inside a workspace's ``with`` block, with the helper, on a net
    larger than one block, ``optimizer_step`` leaves its checked update
    pending; the next ``forward`` applies it, each layer's values before
    that layer runs, and leaving the block applies the rest."""

    @staticmethod
    def step(params, batch, workspace, state):
        cache = forward(params, batch, workspace)
        _, grad_out = reconstruction_loss(batch, cache.reconstruction)
        return optimizer_step(params, backward(params, cache, grad_out), state)

    @staticmethod
    def eager_twin(batches, steps, kind="adam"):
        """helper_net's params and optimizer after ``steps`` steps, each
        applied at once."""
        params, state = helper_net(), make_optimizer(kind, learning_rate=1e-2)
        with with_helper(None):
            for batch in batches[:steps]:
                TestDeferredUpdate.step(params, batch, None, state)
        return params, state

    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    def test_params_are_stale_until_the_next_forward_or_the_end_of_the_block(
            self, helper_pool, kind):
        batches = np.random.default_rng(40).standard_normal((3, 32, 200))
        params, state = helper_net(), make_optimizer(kind, learning_rate=1e-2)
        with with_helper(helper_pool), Workspace(params, 32) as workspace:
            for steps, batch in enumerate(batches):
                before = params.flat.copy()
                self.step(params, batch, workspace, state)
                # checked and counted, not yet applied
                assert np.array_equal(params.flat, before)
                assert state.step_count == steps + 1
                assert params._pending[0] is workspace._slot.step is not None
                if steps < 2:
                    forward(params, batches[steps + 1], workspace)
                    want, _ = self.eager_twin(batches, steps + 1, kind)
                    assert np.array_equal(params.flat, want.flat)
                    assert params._pending == [None]
        want, want_state = self.eager_twin(batches, 3, kind)
        assert np.array_equal(params.flat, want.flat)
        if kind == "adam":
            assert np.array_equal(state.m, want_state.m) and np.array_equal(state.v, want_state.v)
        assert workspace._slot.step is None

    @pytest.mark.parametrize("reader", ["encode", "encode_blocks", "copy", "backward",
                                        "optimizer_step"])
    def test_every_reader_sees_the_applied_update(self, helper_pool, reader):
        rng = np.random.default_rng(42)
        batch, other_batch = rng.standard_normal((2, 32, 200))
        want, want_state = self.eager_twin(batch[None], 1)
        params, state = helper_net(), make_optimizer("adam", learning_rate=1e-2)
        got = expected = None
        with with_helper(helper_pool), Workspace(params, 32) as workspace, \
                Workspace(params, 32) as other:
            # gradients of another batch on another workspace, made first
            other_cache = forward(params, other_batch, other)
            _, other_grad = reconstruction_loss(other_batch, other_cache.reconstruction)
            other_grads = backward(params, other_cache, other_grad)
            cache = forward(params, batch, workspace)
            _, grad_out = reconstruction_loss(batch, cache.reconstruction)
            optimizer_step(params, backward(params, cache, grad_out), state)
            first = params._pending[0]
            assert first is workspace._slot.step is not None
            if reader == "encode":
                got, expected = encode(params, batch), encode(want, batch)
            elif reader == "encode_blocks":
                got, expected = nn.encode_blocks(params, batch), encode(want, batch)
            elif reader == "copy":
                got, expected = params.copy().flat, want.flat
            elif reader == "backward":
                # a stale cache's backward reads the weights: the applied ones
                got = backward(params, cache, grad_out).flat.copy()
                with with_helper(None):
                    twin = dataclasses.replace(forward(want, batch),
                                               encoder_outputs=cache.encoder_outputs,
                                               decoder_outputs=cache.decoder_outputs)
                    expected = backward(want, twin, grad_out).flat
            else:
                # a step on the other workspace's gradients applies the
                # first, pending in this one, then defers in its own
                optimizer_step(params, other_grads, state)
                assert params._pending[0] is other._slot.step not in (None, first)
                with with_helper(None):
                    optimizer_step(want, Gradients(want.layout, other_grads.flat.copy()),
                                   want_state)
            if reader != "optimizer_step":
                assert params._pending == [None]
        if got is not None:
            assert np.array_equal(got, expected)
        assert np.array_equal(params.flat, want.flat)

    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_gradient_written_after_backward_moves_nothing(
            self, helper_pool, where, bad):
        rng = np.random.default_rng(43)
        batches = rng.standard_normal((2, 32, 200))
        params, state = helper_net(), make_optimizer("adam", learning_rate=1e-2)
        with with_helper(helper_pool), Workspace(params, 32) as workspace:
            self.step(params, batches[0], workspace, state)
            cache = forward(params, batches[1], workspace)  # applies step 1
            _, grad_out = reconstruction_loss(batches[1], cache.reconstruction)
            grads = backward(params, cache, grad_out)
            grads.flat[0 if where == "first" else -1] = bad
            name = "encoder[0].weight" if where == "first" else "decoder[2].bias"
            before = params.flat.copy(), state.m.copy(), state.v.copy()
            with pytest.raises(FloatingPointError, match=re.escape(f"gradient in {name}")):
                optimizer_step(params, grads, state)
            assert params._pending == [None] and workspace._slot.step is None
            forward(params, batches[1], workspace)
        assert np.array_equal(params.flat, before[0])
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert state.step_count == 1

    @pytest.mark.parametrize("raiser", ["caller", "helper"])
    def test_an_error_in_the_drain_ends_both_threads_first(self, helper_pool, raiser):
        # blocks on the other thread are slowed, so one that outlived the
        # error would land after the snapshot
        rng = np.random.default_rng(44)
        batches = rng.standard_normal((2, 32, 200))
        params, state = helper_net(), make_optimizer("adam", learning_rate=1e-2)
        other = {"caller": "helper", "helper": "caller"}[raiser]
        with with_helper(helper_pool), Workspace(params, 32) as workspace:
            self.step(params, batches[0], workspace, state)
            with slowed_blocks(slow=other, raising=raiser) as ran:
                with pytest.raises(RuntimeError, match=f"block on the {raiser}"):
                    forward(params, batches[1], workspace)
            if raiser == "caller":
                # the helper stops claiming once the caller has failed
                assert len(ran) <= 2
            snapshot = [a.copy() for a in (params.flat, state.m, state.v, workspace.arena)]
            time.sleep(0.15)
            for a, b in zip((params.flat, state.m, state.v, workspace.arena), snapshot):
                assert np.array_equal(a, b)
            # nothing is left pending for the end of the block to apply
            assert params._pending == [None] and workspace._slot.step is None

    def test_overflow_follows_the_errstate_of_the_caller_that_applies(self, helper_pool):
        params, state = helper_net(), make_optimizer("adam", learning_rate=1e-2)
        batch = np.random.default_rng(45).standard_normal((32, 200))
        last = (params.flat.size - 1) // nn._BLOCK
        with with_helper(helper_pool), Workspace(params, 32) as workspace:
            for step_state, apply_state in (("ignore", "raise"), ("raise", "ignore")):
                workspace.grads.flat[...] = 0.0
                workspace.grads.flat[-1] = 1e200  # g*g overflows in the last block
                with np.errstate(over=step_state):
                    optimizer_step(params, workspace.grads, state)
                assert params._pending[0] is not None
                # the caller's blocks are slowed: the helper claims the last
                with np.errstate(over=apply_state), slowed_blocks() as ran:
                    if apply_state == "raise":
                        with pytest.raises(FloatingPointError, match="overflow"):
                            forward(params, batch, workspace)
                    else:
                        forward(params, batch, workspace)
                assert (last, True) in ran
