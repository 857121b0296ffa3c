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
each layer's output, the backprop buffers, the reconstruction residual,
the ``Gradients`` vector, laid out like ``params.flat``, and the
optimizer's scratch; a bool buffer holds the ReLU masks. ``forward``
writes into the workspace it is given (a new one sized to the batch if
none is) and ``backward`` writes into the one its cache names, so a step
on a reused workspace allocates nothing the size of a layer or of the
net, and the gradients it returns are overwritten by the next step. So
``optimizer_step`` checks once that the two layouts agree and that every
gradient is finite, and updates the whole net with one SGD or Adam
kernel, ``_Step.block``: in-place ufuncs over one ``_BLOCK``-element
block of the two flat vectors, so that the slices and two block-sized
scratch buffers stay in cache. Each element goes through the same
operations in the same order as the textbook per-tensor formulas, so the
bits depend neither on the layout nor on the block size, nor on which
thread applies a block or when. ``step_array`` runs the same kernel on
the dkm centroids.

A second CPU: when the process may run on more CPUs than BLAS has
threads (by ``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else
every CPU, as OpenBLAS counts them when it loads), one helper thread
shares each step of a net larger than ``_BLOCK`` values with the caller,
as one schedule:

* ``backward`` sends the weight-gradient GEMM of every layer past the
  first to the helper while the caller forms the bias sum and the input
  gradient. Input gradients rotate through three backprop buffers, and
  the caller waits for a GEMM only before it overwrites the buffer that
  GEMM reads, two layers later.
* ``optimizer_step`` checks the gradients, then, for the gradients of a
  workspace held by a ``with`` block, leaves the update pending in that
  workspace, with Adam's step count fixed. The next ``forward`` applies
  it: both threads claim blocks in forward order from one counter, and
  the caller runs a layer's GEMM once that layer's blocks are done,
  applying blocks itself while it waits. Leaving the ``with`` block
  applies what is still pending, on both threads, as an update outside
  such a block is applied at once.

Every BLAS call and every ufunc keeps its operands, shapes and order, so
only the thread that runs it, and when, changes: not a bit of any
result. Both threads have stopped before a call returns or raises, and
jobs run under the numpy error state of the caller that applies them.
While an update is pending, ``params.flat`` and its views hold the
values before it: ``forward``, ``backward``, ``encode``,
``encode_blocks``, ``AutoencoderParams.copy`` and the next
``optimizer_step`` apply it before they read them, but code that reads
the arrays directly inside the ``with`` block sees them stale. Small
nets and the dkm centroids never reach the helper, nor defer. The
helper is made on first use, and again in a forked child, which inherits
no threads.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import os
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Future, ThreadPoolExecutor

ACTIVATIONS = ("relu", "linear")

# Elements per block of the optimizer kernel: four 256 KB slices and two
# scratch buffers of this size fit in a core's L2 cache.
_BLOCK = 32768

# Adam's moment decay rates and the floor under its step's denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _blas_threads() -> int:
    """The BLAS thread count as OpenBLAS reads it when it loads."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return len(os.sched_getaffinity(0))


# Read once, at import, as numpy's OpenBLAS read it when numpy loaded.
_BLAS_THREADS = _blas_threads() if hasattr(os, "sched_getaffinity") else None


@functools.cache
def _helper() -> ThreadPoolExecutor | None:
    """The one helper thread's executor, or None when BLAS already has a
    thread for every CPU this process may use. The thread starts with
    the first job."""
    if _BLAS_THREADS is None or len(os.sched_getaffinity(0)) <= _BLAS_THREADS:
        return None
    # imported here: a process that never needs the helper never loads it
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(1, thread_name_prefix="deepkm-nn")


# A forked child has no copy of the helper's thread: it makes its own.
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_helper.cache_clear)


def _start(helper: ThreadPoolExecutor | None, fn, *args, **kwargs) -> Future | None:
    """``fn(*args, **kwargs)``: run now without a helper, else sent to it
    under the caller's numpy error state. Pass the result to ``_join``
    in a ``finally``, so that the job has ended whatever the caller does."""
    if helper is None:
        fn(*args, **kwargs)
        return None
    return helper.submit(contextvars.copy_context().run, fn, *args, **kwargs)


def _join(*jobs: Future | None) -> None:
    """Wait for every job of ``_start`` to end, then raise the first
    exception among them."""
    for error in [job.exception() for job in jobs if job is not None]:
        if error is not None:
            raise error


# Rows per block of encode_blocks. BLAS may round a GEMM row differently
# with another block height, so this value is part of every run's bits.
_ENCODE_ROWS = 4096


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool, float or other non-integer is an error."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class LayerSpec:
    """Shape and nonlinearity of one dense layer."""

    input_dim: int
    output_dim: int
    activation: str

    def __post_init__(self):
        for name in ("input_dim", "output_dim"):
            object.__setattr__(self, name, _integer(f"LayerSpec.{name}", getattr(self, name)))
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
    # [the _Step deferred onto these values, or None]
    _pending: list = field(init=False, repr=False)

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
                            ("encoder", layers[:split]), ("decoder", layers[split:]),
                            ("_pending", [None])):
            object.__setattr__(self, name, value)

    @property
    def input_dim(self) -> int:
        return self.encoder_spec[0].input_dim

    @property
    def latent_dim(self) -> int:
        return self.encoder_spec[-1].output_dim

    def copy(self) -> "AutoencoderParams":
        """Independent params: a new net holding a copy of ``flat``, with
        any pending update applied first."""
        _settle(self._pending[0])
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
    # the _Slot of the workspace these gradients live in, if any
    _slot: _Slot | None = field(init=False, repr=False, default=None)

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
    ready: Callable[[int], None] | None = None,
) -> np.ndarray:
    """``x`` through ``layers``: the product, then the bias and the ReLU in
    place. Layer i's output is written into ``outputs[i]`` when given,
    else into a new array; ``ready(i)``, when given, is called before
    layer i reads its weight and bias."""
    for i, layer in enumerate(layers):
        if ready is not None:
            ready(i)
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
    """Map a (B, input_dim) batch to its (B, latent_dim) embedding, with
    any pending update applied first."""
    batch = _check_batch(batch, params.input_dim, "encode")
    _settle(params._pending[0])
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


class _Slot:
    """What a workspace shares with its ``Gradients`` for the helper's
    schedule: whether a ``with`` block holds the workspace, the step
    deferred onto its gradients, and each thread's two scratch blocks of
    the optimizer kernel (None on a net of one block)."""

    __slots__ = ("in_use", "step", "scratch")

    def __init__(self, scratch: np.ndarray | None):
        self.in_use, self.step, self.scratch = False, None, scratch


@dataclass(frozen=True, eq=False)
class Workspace:
    """Every buffer of a training step on batches of up to ``rows`` rows
    through ``params``' architecture.

    ``arena`` is one float64 block; ``outputs`` (each layer's
    (rows, output_dim) output, encoder layers then decoder layers),
    ``backprop`` (1-d buffers of rows * the widest layer: two, or three
    on a net larger than ``_BLOCK``, whose weight gradients the helper
    forms), ``residual`` ((rows, input_dim), the reconstruction residual
    and then its gradient) and ``grads`` (laid out like ``params.flat``)
    are views of it, and so, on a net larger than ``_BLOCK``, are the
    optimizer kernel's scratch blocks. ``mask`` is a bool buffer of
    rows * the widest layer for the ReLU masks. A batch of b < rows rows
    uses the leading b rows of each view. The workspace holds one step at
    a time: the next ``forward`` into it overwrites the last one's
    outputs and gradients.

    Used as a context manager, the workspace lets ``optimizer_step``
    defer an update of its gradients to the next ``forward``; leaving
    the ``with`` block applies what is still pending.
    """

    params: InitVar[AutoencoderParams]
    rows: int
    layout: Layout = field(init=False, repr=False)
    arena: np.ndarray = field(init=False, repr=False)
    outputs: tuple[np.ndarray, ...] = field(init=False, repr=False)
    backprop: tuple[np.ndarray, ...] = field(init=False, repr=False)
    residual: np.ndarray = field(init=False, repr=False)
    grads: Gradients = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)
    _slot: _Slot = field(init=False, repr=False)

    def __post_init__(self, params: AutoencoderParams):
        rows = int(self.rows)
        if rows < 0:
            raise ValueError(f"workspace rows must be >= 0, got {rows}")
        widths = [s.output_dim for s in params.encoder_spec + params.decoder_spec]
        wide = max(widths)
        shared = params.flat.size > _BLOCK
        buffers = 3 if shared else 2
        sizes = [params.flat.size, *(rows * w for w in widths), *[rows * wide] * buffers,
                 rows * params.input_dim, 4 * _BLOCK if shared else 0]
        arena = np.empty(sum(sizes))
        views = [arena[end - size : end]
                 for size, end in zip(sizes, itertools.accumulate(sizes))]
        outputs = tuple(_rows(v, rows, w) for v, w in zip(views[1:], widths))
        slot = _Slot(views[-1].reshape(2, 2, _BLOCK) if shared else None)
        grads = Gradients(params.layout, views[0])
        object.__setattr__(grads, "_slot", slot)
        for name, value in (
            ("rows", rows), ("layout", params.layout), ("arena", arena),
            ("grads", grads), ("outputs", outputs),
            ("backprop", tuple(views[-2 - buffers : -2])),
            ("residual", _rows(views[-2], rows, params.input_dim)),
            ("mask", np.empty(rows * wide, dtype=bool)), ("_slot", slot),
        ):
            object.__setattr__(self, name, value)

    def __enter__(self) -> Workspace:
        self._slot.in_use = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._slot.in_use = False
        _settle(self._slot.step)


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
    earlier call on the same workspace is then stale. An update pending
    on ``params`` is applied on the way, each layer's values before that
    layer runs.
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
    layers = params.encoder + params.decoder
    step = params._pending[0]
    if step is None:
        _run_layers(layers, batch, outputs)
    else:
        # layer i reads the flat vector up to the end of its bias
        ends = list(itertools.accumulate(math.prod(shape) for _, shape in params.layout))[1::2]
        _apply(step, lambda ready: _run_layers(layers, batch, outputs,
                                               lambda i: ready(ends[i])))
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
    # the weights read here, and the gradients about to be overwritten,
    # must have no update pending on them
    _settle(params._pending[0])
    _settle(workspace._slot.step)
    layers = params.encoder + params.decoder
    outputs = cache.encoder_outputs + cache.decoder_outputs
    inputs = (cache.batch,) + outputs[:-1]
    grads = workspace.grads.arrays
    b = cache.batch.shape[0]
    helper = _helper() if params.flat.size > _BLOCK else None
    # g is the upstream gradient, or lies in buffers[here]; each input
    # gradient goes to the next buffer in turn, once the weight-gradient
    # job reading that buffer has ended
    buffers = workspace.backprop
    readers: list[Future | None] = [None] * len(buffers)
    here = 0
    g = grad_reconstruction
    try:
        for i in range(len(layers) - 1, -1, -1):
            layer = layers[i]
            if layer.activation == "relu":
                mask = _rows(workspace.mask, b, layer.bias.size)
                np.greater(outputs[i], 0.0, out=mask)
                g = np.multiply(g, mask, out=_rows(buffers[here], b, layer.bias.size))
            if i == 0:
                np.matmul(inputs[0].T, g, out=grads[0])
                g.sum(axis=0, out=grads[1])
                break
            readers[here] = _start(helper, np.matmul, inputs[i].T, g, out=grads[2 * i])
            g.sum(axis=0, out=grads[2 * i + 1])
            here = (here + 1) % len(buffers)
            _join(readers[here])
            g = np.matmul(g, layer.weight.T, out=_rows(buffers[here], b, layer.weight.shape[0]))
            if i == len(params.encoder) and grad_latent is not None:
                g += grad_latent
    finally:
        _join(*readers)
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


class _Step:
    """One checked SGD or Adam step of the 1-d float64 vector ``p`` by the
    gradient ``g``, applied by ``block`` in ``_BLOCK``-element blocks.

    Adam's moments are made or checked, its step count advanced and ``t``,
    ``c1`` and ``c2`` fixed when the step is made. Every element goes
    through the operations of the per-tensor formulas, in their order:

        SGD:  p -= lr * g
        Adam: m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
              p -= lr * (m / (1-b1**t)) / (sqrt(v / (1-b2**t)) + eps)

    as in-place ufuncs over the block's slices with two block-sized
    scratch buffers, so the result depends neither on the block size nor
    on the order or thread in which blocks are applied. ``scratch`` is
    the gradients' workspace's (one pair of buffers per thread), or None.
    ``params`` and ``slot`` are set while the step is deferred.
    """

    __slots__ = ("p", "g", "m", "v", "lr", "c1", "c2", "size", "blocks", "scratch",
                 "params", "slot")

    def __init__(self, p: np.ndarray, g: np.ndarray, state: OptimizerState,
                 scratch: np.ndarray | None):
        if state.kind == "adam":
            if state.m is None:
                state.m, state.v = np.zeros_like(p), np.zeros_like(p)
            if state.m.shape != p.shape or state.v.shape != p.shape:
                raise ValueError(
                    f"optimizer moments of shapes {state.m.shape} and {state.v.shape} "
                    f"do not match the {p.size} values being updated"
                )
        state.step_count += 1
        t = state.step_count
        self.p, self.g, self.m, self.v = p, g, state.m, state.v
        self.lr, self.c1, self.c2 = state.learning_rate, 1.0 - ADAM_BETA1**t, 1.0 - ADAM_BETA2**t
        self.size, self.scratch = _BLOCK, scratch
        self.blocks = -(-p.size // _BLOCK)
        self.params = self.slot = None

    def block(self, j: int, scratch: np.ndarray) -> None:
        """Apply block ``j``, with ``scratch``'s two rows as the buffers."""
        start, stop = j * self.size, min((j + 1) * self.size, self.p.size)
        pb, gb = self.p[start:stop], self.g[start:stop]
        a = scratch[0, : pb.size]
        if self.m is None:
            np.multiply(gb, self.lr, out=a)
            np.subtract(pb, a, out=pb)
            return
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        mb, vb = self.m[start:stop], self.v[start:stop]
        b = scratch[1, : pb.size]
        np.multiply(mb, b1, out=mb)
        np.multiply(gb, 1.0 - b1, out=a)
        np.add(mb, a, out=mb)
        np.multiply(vb, b2, out=vb)
        np.multiply(gb, 1.0 - b2, out=a)
        np.multiply(a, gb, out=a)
        np.add(vb, a, out=vb)
        np.divide(mb, self.c1, out=a)
        np.divide(vb, self.c2, out=b)
        np.sqrt(b, out=b)
        np.add(b, ADAM_EPS, out=b)
        np.multiply(a, self.lr, out=a)
        np.divide(a, b, out=a)
        np.subtract(pb, a, out=pb)

    def defer(self, params: AutoencoderParams, slot: _Slot) -> None:
        """Leave the step pending on ``params`` and in ``slot``."""
        self.params, self.slot = params, slot
        params._pending[0] = slot.step = self

    def detach(self) -> None:
        """Take the step out of wherever it is pending."""
        if self.slot is not None:
            self.params._pending[0] = self.slot.step = None
            self.params = self.slot = None


def _apply(step: _Step, work: Callable[[Callable[[int], None]], None] | None = None) -> None:
    """Apply every block of ``step``, taken out of wherever it was pending.

    With the helper, on more than one block, both threads claim blocks in
    order from one counter. ``work(ready)``, when given, is the caller's
    other work: it calls ``ready(end)`` before it reads the vector's
    first ``end`` values, and the caller applies blocks until those are
    done, joining the helper only when it holds the last of them. Both
    threads have stopped when this returns or raises; after an error
    the helper claims no more blocks. Without the helper the caller
    applies every block first, then runs ``work``.
    """
    step.detach()
    helper = _helper() if step.blocks > 1 else None
    scratch = step.scratch
    if scratch is None:
        scratch = np.empty((1 if helper is None else 2, 2, min(step.p.size, step.size)))
    if helper is None:
        for j in range(step.blocks):
            step.block(j, scratch[0])
        if work is not None:
            work(lambda end: None)
        return
    # The threads share only these: a claim is one call of a C iterator,
    # and each block's flag and the failure list are written by single
    # operations, so the interpreter lock orders them without a lock.
    claim = itertools.count().__next__
    done = bytearray(step.blocks)
    failed = []

    def claims(own: np.ndarray) -> None:
        while not failed and (j := claim()) < step.blocks:
            step.block(j, own)
            done[j] = 1

    frontier = 0

    def ready(end: int) -> None:
        nonlocal frontier
        need = -(-end // step.size)
        while frontier < need:
            if done[frontier]:
                frontier += 1
            elif (j := claim()) < step.blocks:
                step.block(j, scratch[0])
                done[j] = 1
            else:
                _join(job)  # every block is claimed: the helper holds the rest

    job = _start(helper, claims, scratch[1])
    try:
        if work is not None:
            work(ready)
        ready(step.p.size)
    except BaseException:
        failed.append(True)
        raise
    finally:
        if not job.cancel():
            _join(job)


def _settle(step: _Step | None) -> None:
    """Apply ``step`` now, if there is one."""
    if step is not None:
        _apply(step)


def _update(p: np.ndarray, g: np.ndarray, state: OptimizerState) -> None:
    """One SGD or Adam step on the 1-d float64 vector ``p``, in place, now."""
    _apply(_Step(p, g, state, None))


def optimizer_step(
    params: AutoencoderParams,
    grads: Gradients,
    state: OptimizerState,
) -> tuple[AutoencoderParams, OptimizerState]:
    """Apply one in-place update. SGD: p -= lr*g; Adam: bias-corrected moments.

    An update still pending on ``params`` or on ``grads`` is applied
    first. The gradients' layout (a ValueError names the first tensor that
    differs) and finiteness (block by block into one block-sized mask; a
    FloatingPointError names the first tensor holding a NaN or inf) are
    then checked before any parameter or moment moves. The update runs
    now, unless ``grads`` are those of a workspace held by a ``with``
    block, the net is larger than ``_BLOCK`` and the helper thread
    exists: then it is left pending, and the next ``forward`` applies it
    (any other reader of ``params`` in this module first applies it too).
    """
    _settle(params._pending[0])
    slot = grads._slot
    if slot is not None:
        _settle(slot.step)
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
    step = _Step(params.flat, grads.flat, state, None if slot is None else slot.scratch)
    if (slot is not None and slot.in_use and params.flat.size > _BLOCK
            and _helper() is not None):
        step.defer(params, slot)
    else:
        _apply(step)
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
