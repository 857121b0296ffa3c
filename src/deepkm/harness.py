"""Training loops for every compared method, under one seeded protocol.

Methods:

* ``km``          — K-means on raw features, no network.
* ``aekm``        — reconstruction-only pretraining, then K-means on latents.
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

Randomness is split into named streams (parameter init, pretrain
shuffling, initial K-means, finetune shuffling, per-epoch refresh
K-means) derived from one seed, so methods that share a phase consume
identical random numbers and degenerate configurations collapse onto
each other bit for bit.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable, Sequence

import numpy as np

from .clustering import KMeansResult, assign, kmeans
from .data import Dataset
from .losses import CombinedResult, LossConfig, combined_objective, reconstruction_loss
from .metrics import MetricsReport, evaluate
from .nn import (
    AutoencoderParams,
    backward,
    encode_blocks,
    forward,
    init_autoencoder,
    make_optimizer,
    mirrored_spec,
    optimizer_step,
    step_array,
)

METHODS = ("km", "aekm", "dcn", "dkm", "dkm_rein", "ours", "ours_norein")

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
    lam: float = 10.0
    alpha: float = 3.0
    latent_dim: int = 10
    hidden_dims: tuple[int, ...] = (500, 500, 2000)
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    kmeans_max_iters: int = 100
    kmeans_tol: float = 1e-6

    def __post_init__(self):
        self.method = self.method.lower()
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.k < 1 or self.batch_size < 1 or self.latent_dim < 1:
            raise ValueError("k, batch_size and latent_dim must be positive")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.kmeans_max_iters < 1 or self.kmeans_tol < 0:
            raise ValueError("bad kmeans settings")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)


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
    latents: np.ndarray | None = None  # in-memory only, never serialized

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


def _seed_streams(config: TrainConfig) -> dict:
    """Named random streams derived from the run seed.

    Every method draws the streams it needs in the same order, so e.g.
    ours with lam=0 and zero finetune epochs replays aekm exactly.
    """
    root = np.random.SeedSequence(config.seed)
    init_ss, pre_ss, km0_ss, tune_ss, rein_ss = root.spawn(5)
    return {
        "init_seed": int(init_ss.generate_state(1, dtype=np.uint64)[0]),
        "pretrain_rng": np.random.default_rng(pre_ss),
        "kmeans0_rng": np.random.default_rng(km0_ss),
        "finetune_rng": np.random.default_rng(tune_ss),
        "rein_seeds": rein_ss,
    }


def _init_params(dataset: Dataset, config: TrainConfig, init_seed: int) -> AutoencoderParams:
    enc, dec = mirrored_spec(dataset.m, config.latent_dim, config.hidden_dims)
    return init_autoencoder(enc, dec, init_seed)


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    """Shuffled fixed-size batches; the short remainder batch is kept."""
    perm = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield perm[start : start + batch_size]


def _pretrain_loop(
    dataset: Dataset,
    config: TrainConfig,
    params: AutoencoderParams,
    rng: np.random.Generator,
) -> list[float]:
    opt = make_optimizer(config.optimizer, config.learning_rate)
    losses = []
    for epoch in range(config.pretrain_epochs):
        total, batches = 0.0, 0
        for idx in _batches(dataset.n, config.batch_size, rng):
            batch = dataset.features[idx]
            cache = forward(params, batch)
            value, grad = reconstruction_loss(cache.batch, cache.reconstruction)
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite reconstruction loss at pretrain epoch {epoch}, batch {batches}"
                )
            grads = backward(params, cache, grad)
            params, opt = optimizer_step(params, grads, opt)
            total += value
            batches += 1
        losses.append(total / batches)
    return losses


def pretrain(dataset: Dataset, config: TrainConfig,
             loss_record: list[float] | None = None) -> AutoencoderParams:
    """Reconstruction-only minibatch training for ``pretrain_epochs``.

    Per-epoch mean losses are appended to ``loss_record`` when given.
    Zero epochs returns the freshly initialized parameters unchanged.
    """
    streams = _seed_streams(config)
    params = _init_params(dataset, config, streams["init_seed"])
    losses = _pretrain_loop(dataset, config, params, streams["pretrain_rng"])
    if loss_record is not None:
        loss_record.extend(losses)
    return params


def _warn_unconverged(result: KMeansResult, method: str, when: str) -> None:
    """Say so when a K-means fit stopped at max_iters short of converging."""
    if not result.converged:
        warnings.warn(
            f"{method}: K-means {when} stopped at {result.iterations} "
            "iterations without converging (raise kmeans_max_iters)",
            RuntimeWarning,
            stacklevel=2,
        )


def _finish(
    method: str,
    config: TrainConfig,
    started: float,
    dataset: Dataset,
    assignment: np.ndarray,
    centroids: np.ndarray,
    pretrain_losses: list[float],
    recon_losses: list[float],
    clust_losses: list[float],
    latents: np.ndarray | None = None,
) -> RunReport:
    metrics = None if dataset.labels is None else evaluate(assignment, dataset.labels)
    return RunReport(
        method=method,
        seed=config.seed,
        config=asdict(config) | {"hidden_dims": list(config.hidden_dims)},
        pretrain_losses=pretrain_losses,
        reconstruction_losses=recon_losses,
        clustering_losses=clust_losses,
        assignment=assignment,
        centroids=centroids,
        metrics=metrics,
        wall_clock=time.perf_counter() - started,
        latents=latents,
    )


def run_baseline_km(dataset: Dataset, config: TrainConfig) -> RunReport:
    """K-means directly on the raw feature space."""
    started = time.perf_counter()
    streams = _seed_streams(config)
    result = kmeans(
        dataset.features, config.k, streams["kmeans0_rng"],
        max_iters=config.kmeans_max_iters, tol=config.kmeans_tol,
    )
    _warn_unconverged(result, "km", "fit")
    labels = assign(dataset.features, result.centers)
    return _finish("km", config, started, dataset, labels, result.centers,
                   [], [], [], latents=dataset.features)


def run_baseline_aekm(dataset: Dataset, config: TrainConfig) -> RunReport:
    """Pretrain the autoencoder, then K-means once on the latent codes."""
    started = time.perf_counter()
    streams = _seed_streams(config)
    params = _init_params(dataset, config, streams["init_seed"])
    pre_losses = _pretrain_loop(dataset, config, params, streams["pretrain_rng"])
    latents = encode_blocks(params, dataset.features)
    result = kmeans(
        latents, config.k, streams["kmeans0_rng"],
        max_iters=config.kmeans_max_iters, tol=config.kmeans_tol,
    )
    _warn_unconverged(result, "aekm", "fit")
    labels = assign(latents, result.centers)
    return _finish("aekm", config, started, dataset, labels, result.centers,
                   pre_losses, [], [], latents=latents)


def _finetune(
    dataset: Dataset,
    config: TrainConfig,
    variant: str,
    reinit: bool,
    on_batch: BatchHook | None = None,
) -> RunReport:
    """Shared alternating loop behind ours / ours_norein / dkm / dkm_rein / dcn.

    ``variant`` picks the clustering term; ``reinit`` replaces the
    centroids with a fresh K-means solution on full-data latents at each
    epoch end. Centroid motion WITHIN an epoch depends on the variant:
    frozen for ct, optimizer steps for dkm, running means for dcn.
    """
    started = time.perf_counter()
    method = {
        ("ct", True): "ours",
        ("ct", False): "ours_norein",
        ("dkm", True): "dkm_rein",
        ("dkm", False): "dkm",
        ("dcn", False): "dcn",
    }[(variant, reinit)]
    streams = _seed_streams(config)
    params = _init_params(dataset, config, streams["init_seed"])
    pre_losses = _pretrain_loop(dataset, config, params, streams["pretrain_rng"])

    latents = encode_blocks(params, dataset.features)
    km0 = kmeans(
        latents, config.k, streams["kmeans0_rng"],
        max_iters=config.kmeans_max_iters, tol=config.kmeans_tol,
    )
    _warn_unconverged(km0, method, "initial fit")
    centroids = km0.centers
    loss_cfg = LossConfig(variant=variant, lam=config.lam, alpha=config.alpha)
    opt = make_optimizer(config.optimizer, config.learning_rate)
    centroid_opt = make_optimizer(config.optimizer, config.learning_rate)
    counts = np.bincount(km0.labels, minlength=config.k).astype(np.float64)
    rein_seeds = streams["rein_seeds"].spawn(config.finetune_epochs) if reinit else []
    tune_rng = streams["finetune_rng"]

    recon_losses: list[float] = []
    clust_losses: list[float] = []
    for epoch in range(config.finetune_epochs):
        recon_sum, clust_sum, batches = 0.0, 0.0, 0
        for idx in _batches(dataset.n, config.batch_size, tune_rng):
            batch = dataset.features[idx]
            out: CombinedResult = combined_objective(batch, params, centroids, loss_cfg)
            if not np.isfinite(out.total):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {batches}"
                )
            params, opt = optimizer_step(params, out.param_grads, opt)
            if variant == "dkm":
                # In place: nothing else holds this refit's centre array.
                step_array(centroids, out.centroid_grads, centroid_opt, "centroids")
            elif variant == "dcn":
                centroids = _dcn_center_update(
                    params, batch, out.assignment, centroids, counts
                )
            recon_sum += out.reconstruction
            clust_sum += out.clustering
            batches += 1
            if on_batch is not None:
                on_batch(epoch, batches - 1, centroids.copy())
        recon_losses.append(recon_sum / batches)
        clust_losses.append(clust_sum / batches)
        if reinit:
            latents = encode_blocks(params, dataset.features)
            km = kmeans(
                latents, config.k, np.random.default_rng(rein_seeds[epoch]),
                max_iters=config.kmeans_max_iters, tol=config.kmeans_tol,
            )
            _warn_unconverged(km, method, f"refit at epoch {epoch}")
            centroids = km.centers
            if variant == "dkm":
                centroid_opt = make_optimizer(config.optimizer, config.learning_rate)

    if config.finetune_epochs and not reinit:
        # Otherwise no step has changed the parameters since the last encode.
        latents = encode_blocks(params, dataset.features)
    labels = assign(latents, centroids)
    return _finish(
        method, config, started, dataset, labels, centroids,
        pre_losses, recon_losses, clust_losses, latents=latents,
    )


def _dcn_center_update(
    params: AutoencoderParams,
    batch: np.ndarray,
    assignment: np.ndarray,
    centroids: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Running-mean centroid update: each assigned point pulls its center
    toward the point's (post-step) latent code with weight 1/count."""
    latent = encode_blocks(params, batch)
    centroids = centroids.copy()
    for i in range(latent.shape[0]):
        c = assignment[i]
        counts[c] += 1.0
        centroids[c] -= (centroids[c] - latent[i]) / counts[c]
    return centroids


def run_ours(dataset: Dataset, config: TrainConfig, on_batch: BatchHook | None = None) -> RunReport:
    """Alternating scheme: ct-loss SGD epochs with frozen centroids,
    K-means centroid refresh on full-data latents at every epoch end."""
    return _finetune(dataset, config, "ct", reinit=True, on_batch=on_batch)


def run_ours_norein(dataset: Dataset, config: TrainConfig,
                    on_batch: BatchHook | None = None) -> RunReport:
    """Like run_ours but the initial centroids are kept throughout."""
    return _finetune(dataset, config, "ct", reinit=False, on_batch=on_batch)


def run_dkm(dataset: Dataset, config: TrainConfig, reinit: bool = False,
            on_batch: BatchHook | None = None) -> RunReport:
    """Softmax-weighted objective; optimizer trains centroids each batch.
    With ``reinit`` the centroids are additionally re-seeded by K-means
    (and their optimizer state reset) at each epoch boundary."""
    return _finetune(dataset, config, "dkm", reinit=reinit, on_batch=on_batch)


def run_dcn(dataset: Dataset, config: TrainConfig, on_batch: BatchHook | None = None) -> RunReport:
    """Hard-assignment penalty with running-mean centroid updates."""
    return _finetune(dataset, config, "dcn", reinit=False, on_batch=on_batch)


def run_method(dataset: Dataset, config: TrainConfig) -> RunReport:
    """Dispatch on config.method."""
    method = config.method
    if method == "km":
        return run_baseline_km(dataset, config)
    if method == "aekm":
        return run_baseline_aekm(dataset, config)
    if method == "ours":
        return run_ours(dataset, config)
    if method == "ours_norein":
        return run_ours_norein(dataset, config)
    if method == "dkm":
        return run_dkm(dataset, config, reinit=False)
    if method == "dkm_rein":
        return run_dkm(dataset, config, reinit=True)
    if method == "dcn":
        return run_dcn(dataset, config)
    raise ValueError(f"unknown method {method!r}")


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
    A failed run is recorded and the suite keeps going; failed runs are
    excluded from that method's aggregates.
    """
    if not seeds or not methods:
        raise ValueError("need at least one seed and one method")
    if dataset.labels is None:
        raise ValueError("suite aggregation requires ground-truth labels")
    rows: list[SuiteRow] = []
    reports: list[RunReport] = []
    failures: list[tuple[str, int, str]] = []
    base = asdict(base_config)
    for method in methods:
        accs, nmis = [], []
        for seed in seeds:
            cfg = TrainConfig(**{**base, "method": method, "seed": int(seed)})
            try:
                report = run_method(dataset, cfg)
            except Exception as exc:  # noqa: BLE001 - suite must survive any run
                failures.append((method, int(seed), f"{type(exc).__name__}: {exc}"))
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
