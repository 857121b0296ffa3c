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
written in place. A training step's store is a ``Workspace``, built for
one net, which it keeps: one float64 arena, sized from the net and a
batch height, whose views hold each layer's output, three backprop
buffers, the reconstruction residual, the ``Gradients`` vector, laid
out like ``params.flat``, and the optimizer's scratch blocks; a bool
buffer holds the ReLU masks and the finiteness mask. Every net gets this one layout. The workspace is
also the step's one record: ``forward`` writes every layer's output into
the workspace it is given and records its batch there, ``latent`` and
``reconstruction`` read that pass, and ``backward`` differentiates it,
writing into the same workspace. A workspace holds one pass at a time:
the next ``forward`` replaces it, and one that holds none (new, or
after a ``forward`` that raised) makes ``backward`` raise. ``forward``,
``backward`` and ``optimizer_step`` refuse a workspace of another net.
So a step on a reused workspace allocates nothing the size of a layer
or of the net, and its gradients are overwritten by the next step.
``optimizer_step(params, workspace, state)`` steps the net by the
workspace's gradients: it checks once that every gradient is finite,
and updates the whole net with one SGD or Adam kernel, ``_Step.block``:
in-place ufuncs over one ``_BLOCK``-element block of the two flat
vectors, so that the slices and two block-sized scratch buffers stay in
cache. Each element goes through the same operations in the same order
as the textbook per-tensor formulas, so the bits depend neither on the
layout nor on the block size, nor on which thread applies a block or
when. ``step_array`` runs the same kernel on the dkm centroids.

Encodes: ``encode`` (the batch as one block) and ``encode_blocks``
(blocks of ``_ENCODE_ROWS`` rows) share one routine, which makes one
scratch array per call: two buffers of one block's rows, as wide as the
widest even-indexed and the widest odd-indexed hidden layer. The hidden
layers write into them in turn and the last layer writes each block's
codes into the result, so no GEMM allocates its product. The scratch
is freed on return, never cached: kept, its 82 MB on the paper net
(4096 rows of 2000 + 500 values) would sit beside the 55 MB training
workspace and raise the peak. One array that size is mapped and
unmapped whole, where a fresh 16 MB array per layer of every block
left freed memory in the heap through the next epoch. A paper-shaped
run peaks in a refit's encode: the data (50.2 MB), the parameters
(26.6 MB), Adam's moments (53.2 MB), this scratch and the BLAS buffers.

A second CPU: every step runs one schedule, and the helper thread is
the only thing that differs between nets. When the process may run on
more CPUs than BLAS has threads (by ``OPENBLAS_NUM_THREADS``, else
``OMP_NUM_THREADS``, else every CPU, as OpenBLAS counts them when it
loads), one helper thread shares the work of a net (or vector) larger
than ``_BLOCK`` values with the caller; otherwise the caller runs the
helper's jobs itself, at once:

* ``backward`` sends the weight-gradient GEMM of every layer past the
  first to the helper while the caller forms the bias sum and the input
  gradient. Input gradients rotate through three backprop buffers, and
  the caller waits for a GEMM only before it overwrites the buffer that
  GEMM reads, two layers later.
* ``optimizer_step`` checks the gradients, then, with the helper, on a
  workspace held by a ``with`` block, leaves the update pending on the
  net, with Adam's step count fixed: ``params._pending`` is its one
  record. The next ``forward`` applies it: both threads claim blocks in
  forward order from one counter, and the caller runs a layer's GEMM
  once that layer's blocks are done, applying blocks itself while it
  waits. Leaving the ``with`` block applies the update pending on the
  workspace's net, on both threads, as any other update is applied at
  once; without the helper, the caller claims every block in order
  through the same counter.

Every BLAS call and every ufunc keeps its operands, shapes and order, so
only the thread that runs it, and when, changes: not a bit of any
result. Both threads have stopped before a call returns or raises, and
jobs run under the numpy error state of the caller that applies them.
While an update is pending, ``params.flat`` and its views hold the
values before it: ``forward``, ``backward``, ``encode``,
``encode_blocks``, ``AutoencoderParams.copy`` and the next
``optimizer_step`` apply it before they read them, but code that reads
the arrays directly inside the ``with`` block sees them stale. Small
nets and the dkm centroids never reach the helper, nor defer, and a
step on a reused workspace allocates only a few small Python objects
(1.7 KiB at ``optimizer_step``'s peak on a 50-64-32-5 net). The helper is
made on first use, and again in a forked child, which inherits no
threads.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import math
import numbers
import os
from dataclasses import dataclass, field
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


def _helper_for(size: int) -> ThreadPoolExecutor | None:
    """The helper, for the work of a net or vector of ``size`` values:
    only one larger than ``_BLOCK`` shares its work."""
    return _helper() if size > _BLOCK else None


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


def _seed(value) -> int:
    """``value`` as a seed: an integer >= 0."""
    seed = _integer("seed", value)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return seed


def _real(name: str, value, at_least: float | None = None) -> float:
    """``value`` as a real number: a Python int or float as given, a numpy
    one as a float. A bool or any other value is an error, and so is one
    not ``>= at_least`` (NaN included) when ``at_least`` is given."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or (at_least is not None and not value >= at_least)):
        bound = "" if at_least is None else f" >= {at_least}"
        raise ValueError(f"{name} must be a real number{bound}, got {value!r}")
    return value if type(value) in (int, float) else float(value)


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
        _settle(self)
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
    seed = _seed(seed)
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
    outputs: Sequence[np.ndarray],
    ready: Callable[[int], None] | None = None,
) -> np.ndarray:
    """``x`` through ``layers``: the product into ``outputs[i]``, then the
    bias and the ReLU in place; ``ready(i)``, when given, is called before
    layer i reads its weight and bias."""
    for i, layer in enumerate(layers):
        if ready is not None:
            ready(i)
        x = np.matmul(x, layer.weight, out=outputs[i])
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


def _encode(params: AutoencoderParams, batch: np.ndarray, block: int) -> np.ndarray:
    """The (n, latent_dim) codes of the checked ``batch``, ``block`` rows
    at a time through one scratch array (see Encodes above), with any
    pending update applied first."""
    _settle(params)
    # the result first: a scratch small enough for the heap then lies
    # above it, where freeing it can shrink the heap again
    out = np.empty((batch.shape[0], params.latent_dim))
    widths = [layer.bias.size for layer in params.encoder[:-1]]
    sizes = [block * max(widths[parity::2], default=0) for parity in (0, 1)]
    buffers = np.split(np.empty(sum(sizes)), [sizes[0]])
    for start in range(0, batch.shape[0], max(block, 1)):
        rows = batch[start : start + block]
        outputs = [_rows(buffers[i % 2], rows.shape[0], w) for i, w in enumerate(widths)]
        _run_layers(params.encoder, rows, outputs + [out[start : start + block]])
    return out


def encode(params: AutoencoderParams, batch: np.ndarray) -> np.ndarray:
    """Map a (B, input_dim) batch to its (B, latent_dim) embedding, as one
    block, with any pending update applied first."""
    batch = _check_batch(batch, params.input_dim, "encode")
    return _encode(params, batch, batch.shape[0])


def encode_blocks(params: AutoencoderParams, features: np.ndarray) -> np.ndarray:
    """encode() over blocks of ``_ENCODE_ROWS`` rows, bounding peak memory
    on wide hidden layers."""
    features = _check_batch(features, params.input_dim, "encode")
    return _encode(params, features, min(features.shape[0], _ENCODE_ROWS))


def _rows(buffer: np.ndarray, b: int, width: int) -> np.ndarray:
    """The leading ``b * width`` elements of the 1-d ``buffer`` as a
    C-contiguous (b, width) view."""
    return buffer[: b * width].reshape(b, width)


class _Slot:
    """The mutable part of a workspace: whether a ``with`` block holds it,
    and the batch of the forward pass its outputs hold (None: they hold
    none)."""

    __slots__ = ("in_use", "batch")

    def __init__(self):
        self.in_use, self.batch = False, None


@dataclass(frozen=True, eq=False)
class Workspace:
    """Every buffer of a training step of ``params`` on batches of up to
    ``rows`` rows, and the record of its forward pass.

    Every net gets one layout. ``arena`` is one float64 block;
    ``outputs`` (each layer's (rows, output_dim) output, encoder layers
    then decoder layers), ``backprop`` (three 1-d buffers of rows * the
    widest layer, through which input gradients rotate), ``residual``
    ((rows, input_dim), the reconstruction residual and then its
    gradient), ``grads`` (laid out like ``params.flat``) and ``scratch``
    (the optimizer kernel's two blocks per thread, each of
    ``min(params.flat.size, _BLOCK)`` values) are views of it. ``mask``
    is a bool buffer of rows * the widest layer values, and no shorter
    than one scratch block, for the ReLU masks and ``optimizer_step``'s
    finiteness mask.
    A batch of b < rows rows uses the leading b rows of each view. The
    workspace holds one step at a time: the next ``forward`` into it
    overwrites the last one's outputs and gradients. ``latent`` and
    ``reconstruction`` read the pass it holds, and raise a ValueError
    when it holds none. ``forward``, ``backward`` and ``optimizer_step``
    refuse a workspace built for another net.

    Used as a context manager, the workspace lets ``optimizer_step``
    defer an update of ``params`` by its gradients to the next
    ``forward``; leaving the ``with`` block applies the update pending on
    ``params``.
    """

    params: AutoencoderParams = field(repr=False)
    rows: int
    arena: np.ndarray = field(init=False, repr=False)
    outputs: tuple[np.ndarray, ...] = field(init=False, repr=False)
    backprop: tuple[np.ndarray, ...] = field(init=False, repr=False)
    residual: np.ndarray = field(init=False, repr=False)
    grads: Gradients = field(init=False, repr=False)
    scratch: np.ndarray = field(init=False, repr=False)
    mask: np.ndarray = field(init=False, repr=False)
    _slot: _Slot = field(init=False, repr=False)
    _latent: int = field(init=False, repr=False)  # the latent's index in outputs

    def __post_init__(self):
        params = self.params
        if not isinstance(params, AutoencoderParams):
            raise ValueError(f"params must be an AutoencoderParams, got {type(params).__name__}")
        rows = _integer("rows", self.rows)
        if rows < 0:
            raise ValueError(f"workspace rows must be >= 0, got {rows}")
        widths = [s.output_dim for s in params.encoder_spec + params.decoder_spec]
        wide = max(widths)
        block = min(params.flat.size, _BLOCK)
        sizes = [params.flat.size, *(rows * w for w in widths), *[rows * wide] * 3,
                 rows * params.input_dim, 4 * block]
        arena = np.empty(sum(sizes))
        views = [arena[end - size : end]
                 for size, end in zip(sizes, itertools.accumulate(sizes))]
        outputs = tuple(_rows(v, rows, w) for v, w in zip(views[1:], widths))
        for name, value in (
            ("rows", rows), ("arena", arena), ("grads", Gradients(params.layout, views[0])),
            ("outputs", outputs), ("backprop", tuple(views[-5:-2])),
            ("residual", _rows(views[-2], rows, params.input_dim)),
            ("scratch", views[-1].reshape(2, 2, block)),
            ("mask", np.empty(max(rows * wide, block), dtype=bool)),
            ("_slot", _Slot()), ("_latent", len(params.encoder) - 1),
        ):
            object.__setattr__(self, name, value)

    def __enter__(self) -> Workspace:
        self._slot.in_use = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._slot.in_use = False
        _settle(self.params)

    @property
    def reconstruction(self) -> np.ndarray:
        """The (b, input_dim) reconstruction of the pass the workspace holds."""
        if self._slot.batch is None:
            raise ValueError("the workspace holds no forward pass: call forward() first")
        return self.outputs[-1][: self._slot.batch.shape[0]]

    @property
    def latent(self) -> np.ndarray:
        """The (b, latent_dim) codes of the pass the workspace holds."""
        return self.outputs[self._latent][: len(self.reconstruction)]


def _check_workspace(params: AutoencoderParams, workspace: Workspace, what: str) -> None:
    """Refuse anything but a workspace built for ``params``."""
    if not isinstance(workspace, Workspace):
        raise ValueError(f"{what} requires a Workspace, got {type(workspace).__name__}")
    if workspace.params is not params:
        raise ValueError(f"{what} was given the workspace of another net")


def forward(
    params: AutoencoderParams,
    batch: np.ndarray,
    workspace: Workspace,
) -> Workspace:
    """Full encode+decode pass into ``workspace``, which it returns.

    Every layer's output is written into the workspace, and the batch is
    recorded there for ``backward``: the pass replaces the one the
    workspace held. An update pending on ``params`` is applied on the
    way, each layer's values before that layer runs. If the pass raises,
    the workspace holds no pass.
    """
    batch = _check_batch(batch, params.input_dim, "forward")
    b = batch.shape[0]
    _check_workspace(params, workspace, "forward")
    if b > workspace.rows:
        raise ValueError(f"a workspace of {workspace.rows} rows cannot hold a {b}-row batch")
    workspace._slot.batch = None
    outputs = [out[:b] for out in workspace.outputs]
    layers = params.encoder + params.decoder
    if params._pending[0] is None:
        _run_layers(layers, batch, outputs)
    else:
        # layer i reads the flat vector up to the end of its bias
        ends = list(itertools.accumulate(math.prod(shape) for _, shape in params.layout))[1::2]
        _settle(params, lambda ready: _run_layers(layers, batch, outputs,
                                                  lambda i: ready(ends[i])))
    workspace._slot.batch = batch
    return workspace


def backward(
    params: AutoencoderParams,
    workspace: Workspace,
    grad_reconstruction: np.ndarray,
    grad_latent: np.ndarray | None = None,
) -> Gradients:
    """Exact gradients of a scalar loss w.r.t. every parameter, through the
    forward pass that ``workspace`` holds (a ValueError if it holds none).

    ``grad_reconstruction`` is dLoss/dReconstruction; ``grad_latent``, if
    given, is an extra dLoss/dLatent term added where the decoder's
    backward pass reaches the bottleneck (clustering losses use this).
    A ReLU layer passes the gradient where its output is positive, which
    is where its pre-activation was. The result is ``workspace.grads``,
    written in place: the next step on that workspace overwrites it, so a
    caller that keeps one step's gradients copies them. The input
    gradient of encoder layer 0 is never formed.
    """
    _check_workspace(params, workspace, "backward")
    reconstruction, latent = workspace.reconstruction, workspace.latent  # raise without a pass
    grad_reconstruction = np.asarray(grad_reconstruction, dtype=np.float64)
    if grad_reconstruction.shape != reconstruction.shape:
        raise ValueError(
            f"grad_reconstruction shape {grad_reconstruction.shape} does not match "
            f"reconstruction {reconstruction.shape}"
        )
    if grad_latent is not None:
        grad_latent = np.asarray(grad_latent, dtype=np.float64)
        if grad_latent.shape != latent.shape:
            raise ValueError(
                f"grad_latent shape {grad_latent.shape} does not match latent {latent.shape}"
            )
    # the weights read here, and the gradients about to be overwritten,
    # must have no update pending on them
    _settle(params)
    layers = params.encoder + params.decoder
    b = reconstruction.shape[0]
    outputs = [out[:b] for out in workspace.outputs]
    inputs = [workspace._slot.batch] + outputs[:-1]
    grads = workspace.grads.arrays
    helper = _helper_for(params.flat.size)
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
    learning_rate = _real("learning_rate", learning_rate)
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
    on the order or thread in which blocks are applied. ``scratch`` holds
    one pair of buffers per thread.
    """

    __slots__ = ("p", "g", "m", "v", "lr", "c1", "c2", "size", "blocks", "scratch")

    def __init__(self, p: np.ndarray, g: np.ndarray, state: OptimizerState,
                 scratch: np.ndarray):
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


def _apply(step: _Step, work: Callable[[Callable[[int], None]], None] | None = None) -> None:
    """Apply every block of ``step``.

    Threads claim blocks in order from one counter: the helper's job, run
    at once on the caller when there is no helper, claims blocks until
    none is left. ``work(ready)``, when given, is the caller's other
    work: it calls ``ready(end)`` before it reads the vector's first
    ``end`` values, and the caller applies blocks until those are done,
    joining the helper only when it holds the last of them. Both threads
    have stopped when this returns or raises; after an error the helper
    claims no more blocks.
    """
    scratch = step.scratch
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

    job = _start(_helper_for(step.p.size), claims, scratch[1])
    try:
        if work is not None:
            work(ready)
        ready(step.p.size)
    except BaseException:
        failed.append(True)
        raise
    finally:
        if job is not None and not job.cancel():
            _join(job)


def _settle(params: AutoencoderParams,
            work: Callable[[Callable[[int], None]], None] | None = None) -> None:
    """Apply the update pending on ``params``, if any, taken out of its
    record first; ``work`` runs beside it as for ``_apply``."""
    step, params._pending[0] = params._pending[0], None
    if step is not None:
        _apply(step, work)


def optimizer_step(
    params: AutoencoderParams,
    workspace: Workspace,
    state: OptimizerState,
) -> tuple[AutoencoderParams, OptimizerState]:
    """Apply one in-place update of ``params`` by the gradients of
    ``workspace``, which must be built for ``params``. SGD: p -= lr*g;
    Adam: bias-corrected moments.

    An update still pending on ``params`` is applied first. The
    gradients' finiteness (block by block into the workspace's mask; a
    FloatingPointError names the first tensor holding a NaN or inf) is
    then checked before any parameter or moment moves. The update runs
    now, unless a ``with`` block holds the workspace, the net is larger
    than ``_BLOCK`` and the helper thread exists: then it is left pending
    on ``params``, and the next ``forward`` applies it (any other reader
    of ``params`` in this module first applies it too).
    """
    _check_workspace(params, workspace, "optimizer_step")
    _settle(params)
    grads = workspace.grads
    for start in range(0, grads.flat.size, _BLOCK):
        block = grads.flat[start : start + _BLOCK]
        if not np.isfinite(block, out=workspace.mask[: block.size]).all():
            name = next(name for name, g in iter_grad_arrays(grads) if not np.isfinite(g).all())
            raise FloatingPointError(f"non-finite gradient in {name}")
    step = _Step(params.flat, grads.flat, state, workspace.scratch)
    if workspace._slot.in_use and _helper_for(params.flat.size) is not None:
        params._pending[0] = step
    else:
        _apply(step)
    return params, state


def step_array(array: np.ndarray, grad: np.ndarray, state: OptimizerState) -> None:
    """One in-place SGD or Adam step on the dkm centroids, a C-contiguous
    float64 ``array``, with the kernel of ``optimizer_step``, now."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != array.shape:
        raise ValueError(f"gradient shape mismatch for centroids: {array.shape} vs {grad.shape}")
    if array.dtype != np.float64 or not array.flags.c_contiguous:
        raise ValueError("centroids must be a C-contiguous float64 array to be updated in place")
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient in centroids")
    scratch = np.empty((2, 2, min(array.size, _BLOCK)))
    _apply(_Step(array.reshape(-1), grad.ravel(), state, scratch))
