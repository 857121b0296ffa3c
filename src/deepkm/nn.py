"""Minimal fully-connected autoencoder with analytic gradients.

Dense layers only, float64 end to end. ``encode`` and ``encode_blocks``
map rows to latent codes; the decoder runs only inside ``forward``,
which keeps every layer's output so ``backward`` can return exact
parameter gradients for any scalar objective, given upstream gradients
on the reconstruction and, optionally, on the latent code. The latent
hook is what lets a clustering loss pull on the embedding without a
general autodiff graph.

Memory layout: one list of named shapes, ``layout``, computed once from
the layer specs (encoder layers, then decoder layers, each weight before
its bias), lays out both stores. A net's one store is ``params.flat``: a
new ``AutoencoderParams`` allocates it zero-filled, and every weight and
bias is a view of it that cannot be rebound, so values are only ever
written in place. A training step's store is a ``Workspace``: one
float64 arena, sized from the net and a batch height, whose views hold
each layer's output, two ping-pong buffers for backprop, the
reconstruction residual and the ``Gradients`` vector, laid out like
``params.flat``; a bool buffer holds the ReLU masks. ``forward`` writes
into the workspace it is given (a new one sized to the batch if none is)
and ``backward`` writes into the one its cache names, so a step on a
reused workspace allocates nothing the size of a layer or of the net,
and the gradients it returns are overwritten by the next step. So
``optimizer_step`` checks once that the two layouts agree and updates
the whole net with one SGD or Adam kernel, ``_update``: in-place ufuncs
over the two flat vectors, walked in blocks of ``_BLOCK`` elements so
that the slices and two block-sized scratch buffers stay in cache. Each
element goes through the same operations in the same order as the
textbook per-tensor formulas, so the bits do not depend on the layout or
the block size. ``step_array`` runs the same kernel on the dkm
centroids.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass, field
from typing import Iterator, Sequence

import numpy as np

ACTIVATIONS = ("relu", "linear")

# Elements per block of the optimizer kernel: four 256 KB slices and two
# scratch buffers of this size fit in a core's L2 cache.
_BLOCK = 32768

# Adam's moment decay rates and the floor under its step's denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Rows per block of encode_blocks. BLAS may round a GEMM row differently
# with another block height, so this value is part of every run's bits.
_ENCODE_ROWS = 4096


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity of one dense layer."""

    input_dim: int
    output_dim: int
    activation: str

    def __post_init__(self):
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError(
                f"layer dims must be >= 1, got {self.input_dim}x{self.output_dim}"
            )
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


def mirrored_spec(
    input_dim: int,
    latent_dim: int,
    hidden_dims: Sequence[int],
) -> tuple[list[LayerSpec], list[LayerSpec]]:
    """Build encoder/decoder specs: ReLU hidden stack, linear final layers.

    The decoder mirrors the encoder, so the full net is
    input -> h1 -> ... -> hk -> latent -> hk -> ... -> h1 -> input.
    """
    hidden = list(hidden_dims)
    enc_dims = [input_dim] + hidden + [latent_dim]
    encoder = [
        LayerSpec(a, b, "relu") for a, b in zip(enc_dims[:-2], enc_dims[1:-1])
    ] + [LayerSpec(enc_dims[-2], enc_dims[-1], "linear")]
    dec_dims = [latent_dim] + hidden[::-1] + [input_dim]
    decoder = [
        LayerSpec(a, b, "relu") for a, b in zip(dec_dims[:-2], dec_dims[1:-1])
    ] + [LayerSpec(dec_dims[-2], dec_dims[-1], "linear")]
    return encoder, decoder


@dataclass(frozen=True)
class Layer:
    """One dense layer: ``out = act(x @ weight + bias)``."""

    weight: np.ndarray  # (input_dim, output_dim)
    bias: np.ndarray  # (output_dim,)
    activation: str


# (name, shape) of every tensor, in the order of the flat vector.
Layout = tuple[tuple[str, tuple[int, ...]], ...]


def _layout(encoder_spec: Sequence[LayerSpec], decoder_spec: Sequence[LayerSpec]) -> Layout:
    return tuple(
        (f"{side}[{i}].{part}", shape)
        for side, specs in (("encoder", encoder_spec), ("decoder", decoder_spec))
        for i, s in enumerate(specs)
        for part, shape in (("weight", (s.input_dim, s.output_dim)), ("bias", (s.output_dim,)))
    )


def _views(flat: np.ndarray, layout: Layout) -> tuple[np.ndarray, ...]:
    """Consecutive views of the 1-d float64 ``flat``, one per tensor."""
    sizes = [math.prod(shape) for _, shape in layout]
    if flat.dtype != np.float64 or flat.shape != (sum(sizes),):
        raise ValueError(
            f"expected a 1-d float64 vector of {sum(sizes)} values, "
            f"got {flat.dtype} of shape {flat.shape}"
        )
    ends = itertools.accumulate(sizes)
    return tuple(flat[end - size : end].reshape(shape)
                 for (_, shape), size, end in zip(layout, sizes, ends))


def _validate_chain(spec: Sequence[LayerSpec], what: str) -> None:
    if not spec:
        raise ValueError(f"{what} spec is empty")
    for i, (a, b) in enumerate(zip(spec, spec[1:])):
        if a.output_dim != b.input_dim:
            raise ValueError(
                f"{what} layers {i} and {i + 1} do not chain: "
                f"{a.output_dim} -> {b.input_dim}"
            )


@dataclass(frozen=True, eq=False)
class AutoencoderParams:
    """A zero-filled net for the given architecture. The bottleneck is the
    latent space.

    ``flat`` is the one store: ``arrays`` holds its view per tensor of
    ``layout``, and each ``Layer`` of ``encoder`` and ``decoder`` holds
    its weight and bias views. Values are written into the views; no
    view, layer or attribute can be rebound.
    """

    encoder_spec: tuple[LayerSpec, ...]
    decoder_spec: tuple[LayerSpec, ...]
    layout: Layout = field(init=False, repr=False)
    flat: np.ndarray = field(init=False, repr=False)
    arrays: tuple[np.ndarray, ...] = field(init=False, repr=False)
    encoder: tuple[Layer, ...] = field(init=False, repr=False)
    decoder: tuple[Layer, ...] = field(init=False, repr=False)

    def __post_init__(self):
        encoder_spec, decoder_spec = tuple(self.encoder_spec), tuple(self.decoder_spec)
        _validate_chain(encoder_spec, "encoder")
        _validate_chain(decoder_spec, "decoder")
        if encoder_spec[-1].output_dim != decoder_spec[0].input_dim:
            raise ValueError(
                f"latent dim mismatch: encoder ends at {encoder_spec[-1].output_dim}, "
                f"decoder starts at {decoder_spec[0].input_dim}"
            )
        if decoder_spec[-1].output_dim != encoder_spec[0].input_dim:
            raise ValueError(
                f"decoder output {decoder_spec[-1].output_dim} does not match "
                f"encoder input {encoder_spec[0].input_dim}"
            )
        layout = _layout(encoder_spec, decoder_spec)
        flat = np.zeros(sum(math.prod(shape) for _, shape in layout))
        arrays = _views(flat, layout)
        layers = tuple(Layer(w, b, s.activation) for w, b, s in
                       zip(arrays[::2], arrays[1::2], encoder_spec + decoder_spec))
        split = len(encoder_spec)
        for name, value in (("encoder_spec", encoder_spec), ("decoder_spec", decoder_spec),
                            ("layout", layout), ("flat", flat), ("arrays", arrays),
                            ("encoder", layers[:split]), ("decoder", layers[split:])):
            object.__setattr__(self, name, value)

    @property
    def input_dim(self) -> int:
        return self.encoder_spec[0].input_dim

    @property
    def latent_dim(self) -> int:
        return self.encoder_spec[-1].output_dim

    def copy(self) -> "AutoencoderParams":
        """Independent params: a new net holding a copy of ``flat``."""
        twin = AutoencoderParams(self.encoder_spec, self.decoder_spec)
        twin.flat[...] = self.flat
        return twin


@dataclass(frozen=True, eq=False)
class Gradients:
    """dLoss/dparams: ``flat``, a vector laid out as the parameters'
    ``layout``, and ``arrays``, its view per tensor."""

    layout: Layout
    flat: np.ndarray = field(repr=False)
    arrays: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "arrays", _views(self.flat, self.layout))


def init_autoencoder(
    encoder_spec: Sequence[LayerSpec],
    decoder_spec: Sequence[LayerSpec],
    seed: int,
) -> AutoencoderParams:
    """Deterministically initialize parameters for the given architecture.

    Weights are uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)], biases zero.
    The decoder must map the encoder's latent dim back to its input dim.
    Each layer's draw is written into its view of the new net's ``flat``.
    """
    params = AutoencoderParams(encoder_spec, decoder_spec)
    rng = np.random.default_rng(seed)
    for layer in params.encoder + params.decoder:
        fan_in = layer.weight.shape[0]
        lim = 1.0 / np.sqrt(fan_in)
        layer.weight[...] = rng.uniform(-lim, lim, size=layer.weight.shape)
    return params


def _run_layers(
    layers: Sequence[Layer],
    x: np.ndarray,
    outputs: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """``x`` through ``layers``: the product, then the bias and the ReLU in
    place. Layer i's output is written into ``outputs[i]`` when given,
    else into a new array."""
    for i, layer in enumerate(layers):
        x = np.matmul(x, layer.weight, out=None if outputs is None else outputs[i])
        x += layer.bias
        if layer.activation == "relu":
            np.maximum(x, 0.0, out=x)
    return x


def _check_batch(batch: np.ndarray, dim: int, what: str) -> np.ndarray:
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != dim:
        raise ValueError(
            f"{what} expects a 2-d array with {dim} columns, got shape {batch.shape}"
        )
    return batch


def encode(params: AutoencoderParams, batch: np.ndarray) -> np.ndarray:
    """Map a (B, input_dim) batch to its (B, latent_dim) embedding."""
    batch = _check_batch(batch, params.input_dim, "encode")
    return _run_layers(params.encoder, batch)


def encode_blocks(params: AutoencoderParams, features: np.ndarray) -> np.ndarray:
    """encode() over blocks of ``_ENCODE_ROWS`` rows, bounding peak memory
    on wide hidden layers."""
    features = _check_batch(features, params.input_dim, "encode")
    block = _ENCODE_ROWS
    if features.shape[0] <= block:
        return encode(params, features)
    out = np.empty((features.shape[0], params.latent_dim))
    for start in range(0, features.shape[0], block):
        out[start : start + block] = encode(params, features[start : start + block])
    return out


def _rows(buffer: np.ndarray, b: int, width: int) -> np.ndarray:
    """The leading ``b * width`` elements of the 1-d ``buffer`` as a
    C-contiguous (b, width) view."""
    return buffer[: b * width].reshape(b, width)


@dataclass(frozen=True, eq=False)
class Workspace:
    """Every buffer of a training step on batches of up to ``rows`` rows
    through ``params``' architecture.

    ``arena`` is one float64 block; ``outputs`` (each layer's
    (rows, output_dim) output, encoder layers then decoder layers),
    ``backprop`` (two 1-d ping-pong buffers of rows * the widest layer),
    ``residual`` ((rows, input_dim), the reconstruction residual and then
    its gradient) and ``grads`` (laid out like ``params.flat``) are views
    of it. ``mask`` is a bool buffer of rows * the widest layer for the
    ReLU masks. A batch of b < rows rows uses the leading b rows of each
    view. The workspace holds one step at a time: the next ``forward``
    into it overwrites the last one's outputs and gradients.
    """

    params: InitVar[AutoencoderParams]
    rows: int
    layout: Layout = field(init=False, repr=False)
    arena: np.ndarray = field(init=False, repr=False)
    outputs: tuple[np.ndarray, ...] = field(init=False, repr=False)
    backprop: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False)
    residual: np.ndarray = field(init=False, repr=False)
    grads: Gradients = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, params: AutoencoderParams):
        rows = int(self.rows)
        if rows < 0:
            raise ValueError(f"workspace rows must be >= 0, got {rows}")
        widths = [s.output_dim for s in params.encoder_spec + params.decoder_spec]
        wide = max(widths)
        sizes = [params.flat.size, *(rows * w for w in widths), rows * wide, rows * wide,
                 rows * params.input_dim]
        arena = np.empty(sum(sizes))
        views = [arena[end - size : end]
                 for size, end in zip(sizes, itertools.accumulate(sizes))]
        outputs = tuple(_rows(v, rows, w) for v, w in zip(views[1:], widths))
        for name, value in (
            ("rows", rows), ("layout", params.layout), ("arena", arena),
            ("grads", Gradients(params.layout, views[0])), ("outputs", outputs),
            ("backprop", tuple(views[-3:-1])),
            ("residual", _rows(views[-1], rows, params.input_dim)),
            ("mask", np.empty(rows * wide, dtype=bool)),
        ):
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False)
class ForwardCache:
    """One forward pass, consumed by ``backward``: the batch and every
    layer's output, views of ``workspace``."""

    batch: np.ndarray
    encoder_outputs: tuple[np.ndarray, ...]
    decoder_outputs: tuple[np.ndarray, ...]
    workspace: Workspace

    @property
    def latent(self) -> np.ndarray:
        return self.encoder_outputs[-1]

    @property
    def reconstruction(self) -> np.ndarray:
        return self.decoder_outputs[-1]


def forward(
    params: AutoencoderParams,
    batch: np.ndarray,
    workspace: Workspace | None = None,
) -> ForwardCache:
    """Full encode+decode pass, keeping every layer's output for ``backward``.

    The outputs are written into ``workspace`` (a new one sized to the
    batch when omitted), overwriting its previous step: a cache from an
    earlier call on the same workspace is then stale.
    """
    batch = _check_batch(batch, params.input_dim, "forward")
    b = batch.shape[0]
    if workspace is None:
        workspace = Workspace(params, b)
    elif workspace.layout != params.layout:
        raise ValueError("the workspace was built for another architecture")
    elif b > workspace.rows:
        raise ValueError(f"a workspace of {workspace.rows} rows cannot hold a {b}-row batch")
    outputs = [out[:b] for out in workspace.outputs]
    _run_layers(params.encoder + params.decoder, batch, outputs)
    split = len(params.encoder)
    return ForwardCache(batch, tuple(outputs[:split]), tuple(outputs[split:]), workspace)


def backward(
    params: AutoencoderParams,
    cache: ForwardCache,
    grad_reconstruction: np.ndarray,
    grad_latent: np.ndarray | None = None,
) -> Gradients:
    """Exact gradients of a scalar loss w.r.t. every parameter.

    ``grad_reconstruction`` is dLoss/dReconstruction; ``grad_latent``, if
    given, is an extra dLoss/dLatent term added where the decoder's
    backward pass reaches the bottleneck (clustering losses use this).
    A ReLU layer passes the gradient where its output is positive, which
    is where its pre-activation was. The result is the cache's
    ``workspace.grads``, written in place: the next step on that
    workspace overwrites it, so a caller that keeps one step's gradients
    copies them. The input gradient of encoder layer 0 is never formed.
    """
    if not isinstance(cache, ForwardCache):
        raise ValueError("backward requires the ForwardCache of a prior forward() call")
    workspace = cache.workspace
    if workspace.layout != params.layout:
        raise ValueError("forward cache does not match this architecture")
    grad_reconstruction = np.asarray(grad_reconstruction, dtype=np.float64)
    if grad_reconstruction.shape != cache.reconstruction.shape:
        raise ValueError(
            f"grad_reconstruction shape {grad_reconstruction.shape} does not match "
            f"reconstruction {cache.reconstruction.shape}"
        )
    if grad_latent is not None:
        grad_latent = np.asarray(grad_latent, dtype=np.float64)
        if grad_latent.shape != cache.latent.shape:
            raise ValueError(
                f"grad_latent shape {grad_latent.shape} does not match latent {cache.latent.shape}"
            )
    layers = params.encoder + params.decoder
    outputs = cache.encoder_outputs + cache.decoder_outputs
    inputs = (cache.batch,) + outputs[:-1]
    grads = workspace.grads.arrays
    b = cache.batch.shape[0]
    # g is the upstream gradient or lies in ``here``; the next is written to ``there``.
    here, there = workspace.backprop
    g = grad_reconstruction
    for i in range(len(layers) - 1, -1, -1):
        layer = layers[i]
        if layer.activation == "relu":
            mask = _rows(workspace.mask, b, layer.bias.size)
            np.greater(outputs[i], 0.0, out=mask)
            g = np.multiply(g, mask, out=_rows(here, b, layer.bias.size))
        np.matmul(inputs[i].T, g, out=grads[2 * i])
        g.sum(axis=0, out=grads[2 * i + 1])
        if i == 0:
            break
        g = np.matmul(g, layer.weight.T, out=_rows(there, b, layer.weight.shape[0]))
        here, there = there, here
        if i == len(params.encoder) and grad_latent is not None:
            g += grad_latent
    return workspace.grads


def _named(layout: Layout, arrays: Sequence[np.ndarray]) -> Iterator[tuple[str, np.ndarray]]:
    return ((name, a) for (name, _), a in zip(layout, arrays))


def iter_param_arrays(params: AutoencoderParams) -> Iterator[tuple[str, np.ndarray]]:
    """Flat, stable iteration over named parameter tensors."""
    return _named(params.layout, params.arrays)


def iter_grad_arrays(grads: Gradients) -> Iterator[tuple[str, np.ndarray]]:
    """Flat iteration over gradient tensors, aligned with iter_param_arrays."""
    return _named(grads.layout, grads.arrays)


@dataclass
class OptimizerState:
    """SGD or Adam state; Adam keeps its two moment vectors, laid out as
    the flat parameters (or the array) it updates."""

    kind: str
    learning_rate: float
    step_count: int = field(init=False, default=0)
    m: np.ndarray | None = field(init=False, default=None)
    v: np.ndarray | None = field(init=False, default=None)


def make_optimizer(kind: str, learning_rate: float) -> OptimizerState:
    if kind not in ("sgd", "adam"):
        raise ValueError(f"unknown optimizer kind {kind!r}")
    if not 0 < learning_rate < math.inf:
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate}")
    return OptimizerState(kind=kind, learning_rate=learning_rate)


def _update(p: np.ndarray, g: np.ndarray, state: OptimizerState) -> None:
    """One SGD or Adam step on the 1-d float64 vector ``p``, in place.

    Every element goes through the operations of the per-tensor formulas,
    in their order:

        SGD:  p -= lr * g
        Adam: m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
              p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)

    as in-place ufuncs over ``_BLOCK``-element slices, with two scratch
    buffers of that size; so the result does not depend on the block size.
    """
    adam = state.kind == "adam"
    if adam:
        if state.m is None:
            state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        if state.m.shape != p.shape or state.v.shape != p.shape:
            raise ValueError(
                f"optimizer moments of shapes {state.m.shape} and {state.v.shape} "
                f"do not match the {p.size} values being updated"
            )
    state.step_count += 1
    t, lr = state.step_count, state.learning_rate
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1, c2 = 1.0 - b1**t, 1.0 - b2**t
    scratch_a, scratch_b = np.empty((2, min(p.size, _BLOCK)))
    for start in range(0, p.size, _BLOCK):
        pb, gb = p[start : start + _BLOCK], g[start : start + _BLOCK]
        a = scratch_a[: pb.size]
        if not adam:
            np.multiply(gb, lr, out=a)
            np.subtract(pb, a, out=pb)
            continue
        mb, vb = state.m[start : start + _BLOCK], state.v[start : start + _BLOCK]
        b = scratch_b[: pb.size]
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, 1.0 - b1, out=a)
        np.add(mb, a, out=mb)
        np.multiply(vb, b2, out=vb)
        np.multiply(gb, 1.0 - b2, out=a)
        np.multiply(a, gb, out=a)
        np.add(vb, a, out=vb)
        np.divide(mb, c1, out=a)
        np.divide(vb, c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, eps, out=b)
        np.multiply(a, lr, out=a)
        np.divide(a, b, out=a)
        np.subtract(pb, a, out=pb)


def optimizer_step(
    params: AutoencoderParams,
    grads: Gradients,
    state: OptimizerState,
) -> tuple[AutoencoderParams, OptimizerState]:
    """Apply one in-place update. SGD: p -= lr*g; Adam: bias-corrected moments.

    The gradients' layout (a ValueError names the first tensor that differs)
    and finiteness (block by block into one block-sized mask; a
    FloatingPointError names the first tensor holding a NaN or inf) are
    checked before any parameter or moment moves; then one ``_update``
    runs over ``params.flat``.
    """
    if grads.layout != params.layout:
        p, g = next(pair for pair in itertools.zip_longest(params.layout, grads.layout)
                    if pair[0] != pair[1])
        raise ValueError(
            f"gradients do not match the parameters at {(p or g)[0]}: "
            f"shape {p and p[1]} vs {g and g[1]}"
        )
    finite = np.empty(min(grads.flat.size, _BLOCK), dtype=bool)
    for start in range(0, grads.flat.size, _BLOCK):
        block = grads.flat[start : start + _BLOCK]
        if not np.isfinite(block, out=finite[: block.size]).all():
            name = next(name for name, g in iter_grad_arrays(grads) if not np.isfinite(g).all())
            raise FloatingPointError(f"non-finite gradient in {name}")
    _update(params.flat, grads.flat, state)
    return params, state


def step_array(array: np.ndarray, grad: np.ndarray, state: OptimizerState) -> None:
    """One in-place SGD or Adam step on the dkm centroids, a C-contiguous
    float64 ``array``, with the kernel of ``optimizer_step``."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != array.shape:
        raise ValueError(f"gradient shape mismatch for centroids: {array.shape} vs {grad.shape}")
    if array.dtype != np.float64 or not array.flags.c_contiguous:
        raise ValueError("centroids must be a C-contiguous float64 array to be updated in place")
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient in centroids")
    _update(array.reshape(-1), grad.ravel(), state)
