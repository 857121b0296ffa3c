"""The benchmark's workloads: their inputs, one round of training runs,
and the checks that need the whole round.

A round is the unit of measured work: every method of the workload over
the same run seeds, then the reports written with ``cli.emit_report``,
as ``deepkm suite`` does. Rounds of one process repeat identical work,
so their outputs must be identical and their times comparable.

deepkm is called through module attributes (``harness.run_suite``,
``data.load_delimited``...) so that a traced run sees its patched
functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from deepkm import cli, harness
from deepkm import data as dk_data
from deepkm.data import Dataset

CSV_DECIMALS = 6
DESK_DATA_SEED = 123  # the criterion-5 data set, the same in every run


@dataclass(frozen=True)
class Spec:
    """Size and training set-up of one workload."""

    name: str
    methods: tuple[str, ...]
    runs: int  # run seeds per round, shared by every method
    n: int  # rows, cluster-major, n // k per cluster
    dim: int
    k: int
    train: dict = field(default_factory=dict)  # TrainConfig fields; no "lam" -> per-method default
    rerun: bool = True  # repeat one run after the timed rounds (not on paper_net: one run is a round)


SPECS = {
    spec.name: spec
    for spec in (
        Spec("desk", harness.METHODS, runs=6, n=2000, dim=50, k=4, train=dict(
            pretrain_epochs=3, finetune_epochs=40, batch_size=256, alpha=3.0,
            latent_dim=5, hidden_dims=(64, 32))),
        Spec("paper_net", ("ours",), runs=1, n=8000, dim=784, k=10, train=dict(
            pretrain_epochs=2, finetune_epochs=2, batch_size=256, lam=1.0, alpha=3.0,
            latent_dim=10, hidden_dims=(500, 500, 2000), learning_rate=5e-4), rerun=False),
        Spec("large_n", ("ours",), runs=10, n=30000, dim=16, k=10, train=dict(
            pretrain_epochs=1, finetune_epochs=4, batch_size=256, lam=1.0, alpha=3.0,
            latent_dim=10, hidden_dims=(32,), kmeans_max_iters=300)),
    )
}


def seeds(spec: Spec, seed: int) -> tuple[int, list[int]]:
    """Data seed and run seeds, all drawn from the workload seed."""
    state = np.random.SeedSequence(seed).generate_state(spec.runs + 1)
    data_seed = DESK_DATA_SEED if spec.name == "desk" else int(state[0])
    return data_seed, [int(s) for s in state[1:]]


def image_rows(spec: Spec, data_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Image-like rows in [0, 1]: one sparse prototype per class, 40% of
    rows blended 20-80% toward another class's prototype, then 40%
    multiplicative and 0.03 additive noise.

    The blended rows overlap between classes, which keeps ACC below 1.0
    however good the embedding, while the prototypes are learnt within
    a couple of epochs. The multiplicative noise cannot be reconstructed
    from a 10-d code; it sets a floor under the reconstruction loss, so
    the final loss varies little between seeds.
    """
    rng = np.random.default_rng(data_seed)
    protos = (rng.random((spec.k, spec.dim)) < 0.15) * rng.uniform(0.5, 1.0, (spec.k, spec.dim))
    labels = np.repeat(np.arange(spec.k), spec.n // spec.k)
    other = (labels + rng.integers(1, spec.k, labels.size)) % spec.k
    share = rng.uniform(0.2, 0.8, (labels.size, 1)) * (rng.random((labels.size, 1)) < 0.4)
    rows = (1.0 - share) * protos[labels] + share * protos[other]
    rows += 0.03 * rng.standard_normal(rows.shape)
    rows *= 1.0 + 0.4 * rng.standard_normal(rows.shape)
    return np.clip(rows, 0.0, 1.0), labels


def gaussian_rows(spec: Spec, data_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Isotropic unit-variance clusters around centres that are all 8
    apart (scaled basis vectors under a random rotation, so needs
    dim >= k).

    Equal gaps give every seed the same cluster geometry: a seed changes
    the rotation and the draws, not how hard the clusters are to
    separate, which keeps K-means work per refit alike across seeds.
    """
    rng = np.random.default_rng(data_seed)
    rotation = np.linalg.qr(rng.standard_normal((spec.dim, spec.dim)))[0]
    centres = 8.0 / np.sqrt(2.0) * np.eye(spec.k, spec.dim) @ rotation
    labels = np.repeat(np.arange(spec.k), spec.n // spec.k)
    return centres[labels] + rng.standard_normal((labels.size, spec.dim)), labels


def csv_path(workdir: Path) -> Path:
    return workdir / "rows.csv"


def prepare(spec: Spec, seed: int, workdir: Path) -> None:
    """Input generation outside set-up time: large_n's CSV file."""
    if spec.name == "large_n":
        rows, labels = gaussian_rows(spec, seeds(spec, seed)[0])
        table = np.column_stack([rows, labels])
        fmt = [f"%.{CSV_DECIMALS}f"] * spec.dim + ["%d"]
        np.savetxt(csv_path(workdir), table, fmt=fmt, delimiter=",")


def load(spec: Spec, seed: int, workdir: Path) -> Dataset:
    """Build or load the workload's dataset: the timed part of set-up."""
    data_seed = seeds(spec, seed)[0]
    if spec.name == "desk":
        return dk_data.make_blobs(spec.n // spec.k, spec.k, spec.dim, separation=4.0,
                                  noise_sigma=1.0, seed=data_seed)
    if spec.name == "paper_net":
        return Dataset(*image_rows(spec, data_seed), name="paper_net")
    if spec.name == "large_n":
        return dk_data.load_delimited(str(csv_path(workdir)), label_column=-1, name="large_n")
    raise ValueError(f"unknown workload {spec.name!r}")


def train_config(spec: Spec, method: str, seed: int) -> harness.TrainConfig:
    fields = dict(spec.train)
    if "lam" not in fields:
        fields["lam"] = harness.default_lambda(method)
    return harness.TrainConfig(method=method, seed=seed, k=spec.k, **fields)


def run_round(spec: Spec, dataset: Dataset, run_seeds: list[int], out_dir: Path) -> harness.SuiteResult:
    """Every method over the shared run seeds, then the written reports."""
    result = harness.SuiteResult(rows=[], reports=[], failures=[])
    for method in spec.methods:
        part = harness.run_suite(dataset, train_config(spec, method, run_seeds[0]), run_seeds, [method])
        result.rows.extend(part.rows)
        result.reports.extend(part.reports)
        result.failures.extend(part.failures)
    cli.emit_report(result.reports, out_dir, suite=result)
    return result


def run_one(spec: Spec, dataset: Dataset, method: str, seed: int) -> harness.RunReport:
    """One training run of the workload, as ``run_round`` makes it."""
    return harness.run_method(dataset, train_config(spec, method, seed))


def quality(reports: list) -> dict[str, float]:
    """The end-to-end quality metrics of one round."""
    ours = [r for r in reports if r.method == "ours"]
    return {
        "acc_ours": float(np.mean([r.metrics.acc for r in ours])),
        "nmi_ours": float(np.mean([r.metrics.nmi for r in ours])),
        "nmi_mean": float(np.mean([r.metrics.nmi for r in reports])),
        "recon_loss": float(np.mean([r.reconstruction_losses[-1] for r in ours])),
    }


def workload_problems(spec: Spec, seed: int, dataset: Dataset, reports: list) -> list[str]:
    """Checks on a whole round, made apart from the program."""
    if spec.name == "desk":
        by_method = {m: [r.metrics.nmi for r in reports if r.method == m]
                     for m in ("ours", "aekm", "ours_norein")}
        if not all(by_method.values()):
            return ["the ablation order needs ours, aekm and ours_norein runs"]
        return checks.ablation_order({m: float(np.mean(v)) for m, v in by_method.items()})
    if spec.name == "paper_net":
        return checks.beats_mean_predictor(quality(reports)["recon_loss"], dataset.features)
    if spec.name == "large_n":
        rows, labels = gaussian_rows(spec, seeds(spec, seed)[0])
        return checks.csv_round_trip(dataset.features, dataset.labels, rows, labels, CSV_DECIMALS)
    raise ValueError(f"unknown workload {spec.name!r}")
