"""Training loops for every compared method, under one seeded protocol.

A private table maps each method to a clustering-term variant and a
centroid schedule. ``run_method`` is the protocol, top to bottom:
pretrain, fit K-means on the latents, then finetuning epochs, each
followed by a K-means refit when the method refits, then the labels,
metrics and report. Every minibatch epoch, pretraining included, is one
function, ``_epoch``, whose step is ``losses.combined_objective``: a
pretraining epoch is the step with no clustering term.

* ``km``          — K-means on raw features, no network (the one run
                    that skips the network phases).
* ``aekm``        — reconstruction-only pretraining, then K-means on
                    latents: the loop with zero finetune epochs.
* ``ours``        — pretrain, then alternate: SGD epochs on
                    reconstruction + lam * ct term with centroids FROZEN,
                    and a full K-means refresh of the centroids on
                    all-data latents at every epoch boundary.
* ``ours_norein`` — same loss, but centroids stay at their initial
                    K-means values for the whole finetuning phase.
* ``dkm``         — softmax-weighted loss, centroids trained jointly by
                    the optimizer every batch.
* ``dkm_rein``    — dkm plus the per-epoch K-means centroid refresh.
* ``dcn``         — hard assignments per batch, gradient step on the
                    0.5*||z-r||^2 penalty, then running-mean centroid
                    updates with per-cluster counts.

An unset ``TrainConfig.lam`` means the method's own coefficient
(``default_lambda``); reports record the coefficient actually used.

Randomness is split into named streams (parameter init, pretrain
shuffling, initial K-means, finetune shuffling, per-epoch refresh
K-means) derived from one seed, so methods that share a phase consume
identical random numbers and degenerate configurations collapse onto
each other bit for bit.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, fields
from typing import Callable, Iterable, Sequence

import numpy as np

from .clustering import KMeansResult, assign, kmeans
from .data import Dataset
from .losses import LossConfig, combined_objective
from .metrics import MetricsReport, evaluate
from .nn import (
    AutoencoderParams,
    OptimizerState,
    Workspace,
    _integer,
    _real,
    encode_blocks,
    init_autoencoder,
    make_optimizer,
    mirrored_spec,
    optimizer_step,
    step_array,
)

# method -> (clustering-term variant, K-means refit at every epoch end).
# km (None) trains no network; aekm (variant None) finetunes for zero epochs.
_METHOD_TABLE: dict[str, tuple[str | None, bool] | None] = {
    "km": None,
    "aekm": (None, False),
    "dcn": ("dcn", False),
    "dkm": ("dkm", False),
    "dkm_rein": ("dkm", True),
    "ours": ("ct", True),
    "ours_norein": ("ct", False),
}
METHODS = tuple(_METHOD_TABLE)

# Batch hook for instrumentation: (epoch, batch_index, centroids copy).
BatchHook = Callable[[int, int, np.ndarray], None]


def default_lambda(method: str) -> float:
    """Per-method default clustering coefficient."""
    return 1.0 if method in ("dkm", "dkm_rein") else 10.0


@dataclass
class TrainConfig:
    method: str = "ours"
    k: int = 10
    seed: int = 0
    pretrain_epochs: int = 50
    finetune_epochs: int = 100
    batch_size: int = 256
    lam: float | None = None  # None: the method's default_lambda
    alpha: float = 3.0
    latent_dim: int = 10
    hidden_dims: tuple[int, ...] = (500, 500, 2000)
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.method, str) or self.method.lower() not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        self.method = self.method.lower()
        for name in (f.name for f in fields(self) if f.type == "int"):
            setattr(self, name, _integer(name, getattr(self, name)))
        hidden = self.hidden_dims
        if isinstance(hidden, (str, bytes)) or not isinstance(hidden, Iterable):
            raise ValueError(f"hidden_dims must be a sequence of integers, got {hidden!r}")
        self.hidden_dims = tuple(_integer("hidden_dims", h) for h in hidden)
        for name in (f.name for f in fields(self) if f.type == "float"):
            setattr(self, name, _real(name, getattr(self, name)))
        if self.lam is not None:
            self.lam = _real("lam", self.lam)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.k < 1 or self.batch_size < 1 or self.latent_dim < 1:
            raise ValueError("k, batch_size and latent_dim must be positive")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        LossConfig("ct", self.effective_lam, self.alpha)  # its lam and alpha checks, not a copy
        if self.kmeans_max_iters < 1:
            raise ValueError(f"kmeans_max_iters must be >= 1, got {self.kmeans_max_iters}")
        if not self.kmeans_tol >= 0:
            raise ValueError(f"kmeans_tol must be >= 0, got {self.kmeans_tol}")
        if any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden widths must be positive, got {self.hidden_dims}")
        make_optimizer(self.optimizer, self.learning_rate)  # its checks, not a copy

    @property
    def effective_lam(self) -> float:
        """The clustering coefficient a run uses: ``lam``, or the method's default."""
        return default_lambda(self.method) if self.lam is None else self.lam


@dataclass
class RunReport:
    """Everything one run produces. Loss series are per-epoch means over
    batches; ``clustering_losses`` stores the raw clustering term, the
    lam scaling excluded. ``wall_clock`` is the only non-deterministic
    field."""

    method: str
    seed: int
    config: dict
    pretrain_losses: list[float]
    reconstruction_losses: list[float]
    clustering_losses: list[float]
    assignment: np.ndarray
    centroids: np.ndarray
    metrics: MetricsReport | None
    wall_clock: float
    latents: np.ndarray  # in-memory only, never serialized

    def to_json_dict(self) -> dict:
        """Stable-order plain-python form for serialization."""
        return {
            "method": self.method,
            "seed": self.seed,
            "config": dict(sorted(self.config.items())),
            "pretrain_losses": [float(v) for v in self.pretrain_losses],
            "reconstruction_losses": [float(v) for v in self.reconstruction_losses],
            "clustering_losses": [float(v) for v in self.clustering_losses],
            "assignment": [int(v) for v in self.assignment],
            "centroids": [[float(v) for v in row] for row in self.centroids],
            "metrics": None
            if self.metrics is None
            else {
                "acc": float(self.metrics.acc),
                "nmi": float(self.metrics.nmi),
                "mapping": {str(k): int(v) for k, v in sorted(self.metrics.mapping.items())},
            },
            "wall_clock": float(self.wall_clock),
        }


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled fixed-size batches; the short remainder batch is kept."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _pretrained(dataset: Dataset, config: TrainConfig, init_ss: np.random.SeedSequence,
                pretrain_rng: np.random.Generator) -> tuple[AutoencoderParams, list[float]]:
    """The parameters, drawn from ``init_ss``, after reconstruction-only
    minibatch training for ``pretrain_epochs``, and its per-epoch losses."""
    enc, dec = mirrored_spec(dataset.m, config.latent_dim, config.hidden_dims)
    params = init_autoencoder(enc, dec, int(init_ss.generate_state(1, dtype=np.uint64)[0]))
    opt = make_optimizer(config.optimizer, config.learning_rate)
    losses = [_epoch(dataset, config, params, opt, pretrain_rng, epoch, None)[0]
              for epoch in range(config.pretrain_epochs)]
    return params, losses


@dataclass
class _Term:
    """A finetuning run's clustering term and the state its batches move:
    the centroids, dkm's centroid optimizer, dcn's per-cluster counts,
    and the hook called after every batch."""

    config: LossConfig
    centroids: np.ndarray
    centroid_opt: OptimizerState
    counts: np.ndarray
    on_batch: BatchHook | None


def _epoch(dataset: Dataset, config: TrainConfig, params: AutoencoderParams,
           opt: OptimizerState, rng: np.random.Generator, epoch: int,
           term: _Term | None) -> tuple[float, float]:
    """One minibatch epoch, in place: its mean reconstruction and clustering
    terms over batches. Without ``term`` it is a pretraining epoch on
    reconstruction alone; with it, a finetuning epoch whose batches also
    move ``term.centroids`` as the variant says: frozen for ct, optimizer
    steps for dkm, running means for dcn. ``opt`` steps the net by the
    gradients of one workspace, which every step of the epoch shares and
    which is freed on return: before any full-data encode. Within the
    epoch a step's update may still be pending on the net (see
    ``nn.optimizer_step``); leaving the ``with`` block applies it when the
    epoch ends or fails."""
    recon_sum, clust_sum, batches = 0.0, 0.0, 0
    with Workspace(params, min(config.batch_size, dataset.n)) as workspace:
        for idx in _batches(dataset.n, config.batch_size, rng):
            batch = dataset.features[idx]
            centroids, loss_cfg = (None, None) if term is None else (term.centroids, term.config)
            out = combined_objective(batch, params, centroids, loss_cfg, workspace)
            if not np.isfinite(out.total):
                what = "reconstruction loss at pretrain" if term is None else "loss at finetune"
                raise FloatingPointError(f"non-finite {what} epoch {epoch}, batch {batches}")
            optimizer_step(params, workspace, opt)
            recon_sum += out.reconstruction
            clust_sum += out.clustering
            batches += 1
            if term is None:
                continue
            if loss_cfg.variant == "dkm":
                # In place: nothing else holds this refit's centre array.
                step_array(centroids, out.centroid_grads, term.centroid_opt)
            elif loss_cfg.variant == "dcn":
                term.centroids = _dcn_center_update(params, batch, out.assignment, centroids,
                                                    term.counts)
            if term.on_batch is not None:
                term.on_batch(epoch, batches - 1, term.centroids.copy())
    return recon_sum / batches, clust_sum / batches


def _kmeans(points: np.ndarray, config: TrainConfig, rng: np.random.Generator,
            when: str) -> KMeansResult:
    """K-means with the run's settings; warns when the fit stopped at
    max_iters short of converging."""
    result = kmeans(points, config.k, rng, max_iters=config.kmeans_max_iters, tol=config.kmeans_tol)
    if not result.converged:
        warnings.warn(
            f"{config.method}: K-means {when} stopped at {result.iterations} "
            "iterations without converging (raise kmeans_max_iters)",
            RuntimeWarning,
            stacklevel=2,
        )
    return result


def _dcn_center_update(
    params: AutoencoderParams,
    batch: np.ndarray,
    assignment: np.ndarray,
    centroids: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Running-mean centroid update: each assigned point pulls its center
    toward the point's (post-step) latent code with weight 1/count.

    The means are sequential, so the loop runs on Python floats: the same
    per-element operations in the same order as numpy row updates, at a
    fraction of their per-call cost. ``counts`` is updated in place."""
    latent = encode_blocks(params, batch)
    rows = centroids.tolist()
    totals = counts.tolist()
    for c, point in zip(assignment.tolist(), latent.tolist()):
        totals[c] += 1.0
        count = totals[c]
        center = rows[c]
        for e, z_e in enumerate(point):
            center[e] -= (center[e] - z_e) / count
    counts[:] = totals
    return np.array(rows, dtype=np.float64)


def run_method(dataset: Dataset, config: TrainConfig,
               on_batch: BatchHook | None = None) -> RunReport:
    """Run ``config.method`` under the shared protocol. km fits K-means on
    the raw features. Every other method pretrains, fits K-means on the
    latents, then runs its finetuning epochs: its variant's term moves the
    centroids within an epoch, and a refitting method replaces them with a
    fresh K-means fit on the full-data latents after each epoch. Each
    point is labelled by its nearest centroid. ``on_batch(epoch, batch,
    centroids)`` is called after every finetuning batch with a copy of
    the centroids."""
    if not 1 <= config.k <= dataset.n:
        raise ValueError(f"need 1 <= k <= n_points, got k={config.k}, n={dataset.n}")
    started = time.perf_counter()
    # One stream per phase, spawned in the same order for every method, so
    # ours with lam=0 and zero finetune epochs replays aekm exactly.
    init_ss, pretrain_ss, kmeans0_ss, finetune_ss, refit_ss = (
        np.random.SeedSequence(config.seed).spawn(5))
    spec = _METHOD_TABLE[config.method]
    pre_losses: list[float] = []
    recon_losses: list[float] = []
    clust_losses: list[float] = []
    if spec is None:
        latents = dataset.features
        centroids = _kmeans(latents, config, np.random.default_rng(kmeans0_ss), "fit").centers
    else:
        params, pre_losses = _pretrained(dataset, config, init_ss,
                                         np.random.default_rng(pretrain_ss))
        latents = encode_blocks(params, dataset.features)
        km0 = _kmeans(latents, config, np.random.default_rng(kmeans0_ss), "initial fit")
        centroids = km0.centers
    variant, reinit = spec or (None, False)
    if variant is not None:
        term = _Term(LossConfig(variant=variant, lam=config.effective_lam, alpha=config.alpha),
                     centroids, make_optimizer(config.optimizer, config.learning_rate),
                     np.bincount(km0.labels, minlength=config.k).astype(np.float64), on_batch)
        opt = make_optimizer(config.optimizer, config.learning_rate)
        finetune_rng = np.random.default_rng(finetune_ss)
        epochs = config.finetune_epochs
        refit_seeds = refit_ss.spawn(epochs) if reinit else []
        for epoch in range(epochs):
            recon, clust = _epoch(dataset, config, params, opt, finetune_rng, epoch, term)
            recon_losses.append(recon)
            clust_losses.append(clust)
            if reinit:
                latents = encode_blocks(params, dataset.features)
                rng = np.random.default_rng(refit_seeds[epoch])
                term.centroids = _kmeans(latents, config, rng, f"refit at epoch {epoch}").centers
                if variant == "dkm":
                    term.centroid_opt = make_optimizer(config.optimizer, config.learning_rate)
        if epochs and not reinit:
            # Otherwise no step has changed the parameters since the last encode.
            latents = encode_blocks(params, dataset.features)
        centroids = term.centroids
    assignment = assign(latents, centroids)
    return RunReport(
        method=config.method,
        seed=config.seed,
        config=asdict(config) | {"hidden_dims": list(config.hidden_dims),
                                 "lam": config.effective_lam},
        pretrain_losses=pre_losses,
        reconstruction_losses=recon_losses,
        clustering_losses=clust_losses,
        assignment=assignment,
        centroids=centroids,
        metrics=None if dataset.labels is None else evaluate(assignment, dataset.labels),
        wall_clock=time.perf_counter() - started,
        latents=latents,
    )


@dataclass
class SuiteRow:
    method: str
    acc_mean: float
    acc_std: float
    nmi_mean: float
    nmi_std: float


@dataclass
class SuiteResult:
    rows: list[SuiteRow]
    reports: list[RunReport]
    failures: list[tuple[str, int, str]]  # (method, seed, error message)


def run_suite(
    dataset: Dataset,
    base_config: TrainConfig,
    seeds: Sequence[int],
    methods: Sequence[str],
) -> SuiteResult:
    """Run every (method, seed) pair with the SAME seed list per method.

    Rows aggregate ACC/NMI as mean and population standard deviation.
    A run that fails numerically or on its data (``ValueError``,
    ``ArithmeticError``, ``LinAlgError``) is recorded and the suite keeps
    going; failed runs are excluded from that method's aggregates. Any
    other exception is a programming error and propagates. An unset
    ``lam`` gives each method its own default. Every run's config is
    built first, so a bad method or seed raises before any run.
    """
    if not seeds or not methods:
        raise ValueError("need at least one seed and one method")
    if dataset.labels is None:
        raise ValueError(f"suite aggregation requires ground-truth labels; "
                         f"dataset {dataset.name!r} has none")
    rows: list[SuiteRow] = []
    reports: list[RunReport] = []
    failures: list[tuple[str, int, str]] = []
    base = asdict(base_config)
    grid = [[TrainConfig(**{**base, "method": method, "seed": int(seed)}) for seed in seeds]
            for method in methods]
    for method, configs in zip(methods, grid):
        accs, nmis = [], []
        for cfg in configs:
            try:
                report = run_method(dataset, cfg)
            except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
                failures.append((method, cfg.seed, f"{type(exc).__name__}: {exc}"))
                continue
            reports.append(report)
            accs.append(report.metrics.acc)
            nmis.append(report.metrics.nmi)
        if accs:
            rows.append(SuiteRow(
                method=method,
                acc_mean=float(np.mean(accs)),
                acc_std=float(np.std(accs)),
                nmi_mean=float(np.mean(nmis)),
                nmi_std=float(np.std(nmis)),
            ))
    return SuiteResult(rows=rows, reports=reports, failures=failures)
