"""Tests of the benchmark itself: each check fails on a corrupted output,
and every workload runs end to end at a tiny size.

    python3 -m pytest bench
"""

import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from env import ROOT, pin_blas_threads, use_checkout_src

pin_blas_threads()
use_checkout_src()

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from deepkm.data import make_blobs  # noqa: E402
from deepkm.harness import TrainConfig, run_method  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_TRAIN = dict(pretrain_epochs=2, finetune_epochs=3, batch_size=32, alpha=3.0,
                  latent_dim=3, hidden_dims=(16,))


@pytest.fixture(scope="module")
def tiny_runs():
    data = make_blobs(30, 3, 6, separation=6.0, noise_sigma=1.0, seed=4)
    runs = {}
    for method in ("km", "aekm", "ours", "dcn"):
        config = TrainConfig(method=method, seed=1, k=3, lam=1.0, **TINY_TRAIN)
        runs[method] = (run_method(data, config), vars(config))
    return data, runs


def test_checks_pass_on_real_runs(tiny_runs):
    data, runs = tiny_runs
    for report, config in runs.values():
        assert checks.check_run(report, data.labels, config) == []


@pytest.mark.parametrize("method", ["km", "ours"])
def test_corrupted_assignment_fails(tiny_runs, method):
    data, runs = tiny_runs
    report, config = runs[method]
    assignment = report.assignment.copy()
    assignment[0] = (assignment[0] + 1) % config["k"]
    bad = dataclasses.replace(report, assignment=assignment)
    assert any("nearest centroid" in p for p in checks.check_run(bad, data.labels, config))


@pytest.mark.parametrize("method", ["km", "ours"])
def test_permuted_labels_fail(tiny_runs, method):
    data, runs = tiny_runs
    report, config = runs[method]
    assignment = np.random.default_rng(0).permutation(report.assignment)
    bad = dataclasses.replace(report, assignment=assignment)
    problems = checks.check_run(bad, data.labels, config)
    assert any("nearest centroid" in p for p in problems)
    assert any("reported ACC" in p for p in problems)


@pytest.mark.parametrize("method", ["km", "aekm", "ours"])
def test_moved_centroid_fails(tiny_runs, method):
    data, runs = tiny_runs
    report, config = runs[method]
    centroids = report.centroids.copy()
    centroids[0] += 1e-4
    bad = dataclasses.replace(report, centroids=centroids)
    assert any("cluster mean" in p for p in checks.check_run(bad, data.labels, config))


def test_non_finite_loss_fails(tiny_runs):
    data, runs = tiny_runs
    report, config = runs["ours"]
    bad = dataclasses.replace(report, clustering_losses=[*report.clustering_losses[:-1], float("nan")])
    assert any("not finite" in p for p in checks.check_run(bad, data.labels, config))


def test_rerun_differs_is_caught(tiny_runs):
    _, runs = tiny_runs
    report, _ = runs["dcn"]
    assert checks.same_run(report, dataclasses.replace(report))
    shifted = dataclasses.replace(report, reconstruction_losses=[
        float(np.nextafter(v, np.inf)) for v in report.reconstruction_losses])
    assert not checks.same_run(report, shifted)


def test_changed_repeat_run_is_caught(tiny_runs, monkeypatch):
    data, runs = tiny_runs
    report, _ = runs["ours"]
    first = SimpleNamespace(reports=[runs["km"][0], report])
    spec = workloads.SPECS["desk"]
    monkeypatch.setattr(workloads, "run_one", lambda *args: dataclasses.replace(report))
    assert run._rerun_problems(spec, data, first, None) == (("ours", report.seed), [])
    moved = dataclasses.replace(report, centroids=report.centroids + 1e-12)
    monkeypatch.setattr(workloads, "run_one", lambda *args: moved)
    key, problems = run._rerun_problems(spec, data, first, None)
    assert key == ("ours", report.seed) and "differs" in problems[0]


def test_matching_equals_exhaustive_search():
    rng = np.random.default_rng(3)
    for _ in range(20):
        k = int(rng.integers(1, 6))
        counts = rng.integers(0, 9, size=(k, int(rng.integers(1, 6))))
        side = max(counts.shape)
        square = np.zeros((side, side), dtype=int)
        square[: counts.shape[0], : counts.shape[1]] = counts
        best = max(sum(square[i, p[i]] for i in range(side))
                   for p in itertools.permutations(range(side)))
        assert checks.matched_count(counts) == best


def test_workload_checks_bite():
    assert checks.ablation_order({"ours": 0.8, "aekm": 0.3, "ours_norein": 0.5}) == []
    assert len(checks.ablation_order({"ours": 0.4, "aekm": 0.5, "ours_norein": 0.6})) == 2
    rows = np.random.default_rng(0).random((50, 4))
    baseline = checks.mean_predictor_loss(rows)
    assert checks.beats_mean_predictor(0.5 * baseline, rows) == []
    assert checks.beats_mean_predictor(baseline, rows)
    labels = np.arange(50) % 3
    printed = np.round(rows, 6)
    assert checks.csv_round_trip(printed, labels, rows, labels, 6) == []
    printed[3, 2] += 1e-6
    assert checks.csv_round_trip(printed, labels, rows, labels, 6)
    assert checks.csv_round_trip(np.round(rows, 6), labels[::-1], rows, labels, 6)


TINY = {
    "desk": dict(n=160, dim=20, runs=1, train=dict(TINY_TRAIN, finetune_epochs=10,
                                                 hidden_dims=(16, 8))),
    "paper_net": dict(n=200, runs=1, train=dict(workloads.SPECS["paper_net"].train, batch_size=8,
                                                hidden_dims=(32, 32, 64), pretrain_epochs=4,
                                                finetune_epochs=2, learning_rate=2e-3)),
    "large_n": dict(n=400, runs=2, train=dict(workloads.SPECS["large_n"].train, batch_size=64,
                                              hidden_dims=(8,))),
}


@pytest.mark.parametrize("name", sorted(workloads.SPECS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_clean(name, trace, tmp_path):
    spec = dataclasses.replace(workloads.SPECS[name], **TINY[name])
    result = run.measure(spec, seed=5, seconds=0.0, trace=trace, workdir=tmp_path, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(spec.methods) * spec.runs
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert (tmp_path / "trace.jsonl").is_file()


def test_benchmark_file_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.SPECS)


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
