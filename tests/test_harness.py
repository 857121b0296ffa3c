"""Training-loop behavior: seeding, centroid schedules, aggregation."""

import json
import warnings

import numpy as np
import pytest

import deepkm.harness as harness
from deepkm.clustering import assign
from deepkm.data import Dataset, make_blobs
from deepkm.harness import (
    METHODS,
    RunReport,
    TrainConfig,
    default_lambda,
    pretrain,
    run_baseline_aekm,
    run_baseline_km,
    run_dcn,
    run_dkm,
    run_method,
    run_ours,
    run_ours_norein,
    run_suite,
)


def tiny_config(**overrides):
    base = dict(
        method="ours",
        k=2,
        seed=0,
        pretrain_epochs=1,
        finetune_epochs=3,
        batch_size=16,
        lam=10.0,
        latent_dim=2,
        hidden_dims=(8,),
    )
    base.update(overrides)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_blobs():
    return make_blobs(30, 2, 6, separation=8.0, noise_sigma=1.0, seed=11)


class TestTrainConfig:
    def test_method_normalized_to_lowercase(self):
        assert TrainConfig(method="OURS").method == "ours"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"method": "magic"},
            {"k": 0},
            {"batch_size": 0},
            {"pretrain_epochs": -1},
            {"lam": -2.0},
            {"alpha": 0.0},
            {"kmeans_max_iters": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_default_lambda_per_method(self):
        assert default_lambda("dkm") == 1.0
        assert default_lambda("dkm_rein") == 1.0
        assert default_lambda("ours") == 10.0
        assert default_lambda("dcn") == 10.0


class TestPretrain:
    def test_zero_epochs_is_deterministic_init(self, small_blobs):
        cfg = tiny_config(pretrain_epochs=0)
        record = []
        a = pretrain(small_blobs, cfg, record)
        b = pretrain(small_blobs, cfg)
        assert record == []
        for la, lb in zip(a.encoder + a.decoder, b.encoder + b.decoder):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_training_changes_parameters(self, small_blobs):
        frozen = pretrain(small_blobs, tiny_config(pretrain_epochs=0))
        trained = pretrain(small_blobs, tiny_config(pretrain_epochs=1))
        assert not np.array_equal(frozen.encoder[0].weight, trained.encoder[0].weight)

    def test_loss_record_shrinks(self, small_blobs):
        record = []
        pretrain(small_blobs, tiny_config(pretrain_epochs=8), record)
        assert len(record) == 8
        assert record[-1] < record[0]


class TestRunReports:
    def test_series_lengths_and_shapes(self, small_blobs):
        cfg = tiny_config(pretrain_epochs=2, finetune_epochs=4)
        report = run_ours(small_blobs, cfg)
        assert len(report.pretrain_losses) == 2
        assert len(report.reconstruction_losses) == 4
        assert len(report.clustering_losses) == 4
        assert report.assignment.shape == (small_blobs.n,)
        assert set(report.assignment.tolist()) <= {0, 1}
        assert report.centroids.shape == (2, cfg.latent_dim)
        assert report.metrics is not None
        assert report.latents.shape == (small_blobs.n, cfg.latent_dim)

    def test_unlabeled_data_skips_metrics(self, small_blobs):
        unlabeled = Dataset(small_blobs.features.copy(), name="anon")
        report = run_ours(unlabeled, tiny_config(finetune_epochs=1))
        assert report.metrics is None

    def test_every_method_dispatches(self, small_blobs):
        for method in METHODS:
            cfg = tiny_config(method=method, finetune_epochs=1)
            report = run_method(small_blobs, cfg)
            assert isinstance(report, RunReport)
            assert report.method == method

    def test_json_dict_is_plain_and_stable(self, small_blobs):
        cfg = tiny_config(finetune_epochs=2)
        a = run_ours(small_blobs, cfg).to_json_dict()
        b = run_ours(small_blobs, cfg).to_json_dict()
        json.dumps(a)  # must not contain numpy scalars or arrays
        a.pop("wall_clock")
        b.pop("wall_clock")
        assert a == b

    def test_latents_never_serialized(self, small_blobs):
        report = run_ours(small_blobs, tiny_config(finetune_epochs=1))
        assert "latents" not in report.to_json_dict()

    @pytest.mark.parametrize("method,encodes", [("ours", 4), ("dkm_rein", 4), ("ours_norein", 2)])
    def test_final_encode_only_when_parameters_changed(self, small_blobs, monkeypatch,
                                                       method, encodes):
        # 3 finetune epochs: refitting methods encode once up front and once
        # per epoch, and their last encode already holds the final latents
        calls = []
        real = harness.encode_blocks

        def counting(params, features):
            calls.append(features.shape[0])
            return real(params, features)

        monkeypatch.setattr(harness, "encode_blocks", counting)
        report = run_method(small_blobs, tiny_config(method=method))
        assert calls == [small_blobs.n] * encodes
        monkeypatch.undo()
        np.testing.assert_array_equal(
            report.assignment, assign(report.latents, report.centroids)
        )

    def test_unconverged_kmeans_warns(self, small_blobs):
        cfg = tiny_config(kmeans_max_iters=1, kmeans_tol=0.0)
        with pytest.warns(RuntimeWarning) as record:
            run_ours(small_blobs, cfg)
        messages = [str(w.message) for w in record]
        assert any("ours: K-means initial fit stopped at 1 iterations" in m for m in messages)
        assert any("ours: K-means refit at epoch 2 stopped at 1 iterations" in m
                   for m in messages)

    def test_converged_kmeans_is_silent(self, small_blobs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_ours(small_blobs, tiny_config())


class TestCentroidSchedules:
    def test_degenerate_run_collapses_onto_aekm(self, small_blobs):
        # lam=0 kills the clustering gradient and zero finetune epochs kill
        # the refresh, so the whole pipeline replays the pretrain+kmeans
        # baseline bit for bit
        cfg = tiny_config(lam=0.0, finetune_epochs=0, pretrain_epochs=2)
        ours = run_ours(small_blobs, cfg)
        base = run_baseline_aekm(small_blobs, cfg)
        assert np.array_equal(ours.assignment, base.assignment)
        assert np.array_equal(ours.centroids, base.centroids)

    def test_norein_centroids_never_move(self, small_blobs):
        seen = []
        report = run_ours_norein(
            small_blobs, tiny_config(finetune_epochs=3),
            on_batch=lambda e, b, c: seen.append(c),
        )
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])
        assert np.array_equal(report.centroids, seen[0])

    def test_refresh_moves_centroids_only_at_epoch_boundaries(self, small_blobs):
        seen = {}
        run_ours(
            small_blobs, tiny_config(finetune_epochs=3),
            on_batch=lambda e, b, c: seen.setdefault(e, []).append(c),
        )
        for epoch, batches in seen.items():
            for c in batches[1:]:
                assert np.array_equal(c, batches[0]), f"moved inside epoch {epoch}"
        assert not np.array_equal(seen[0][0], seen[1][0])
        assert not np.array_equal(seen[1][0], seen[2][0])

    def test_jointly_trained_centroids_move_every_batch(self, small_blobs):
        seen = []
        run_dkm(
            small_blobs, tiny_config(method="dkm", lam=1.0, finetune_epochs=1),
            on_batch=lambda e, b, c: seen.append(c),
        )
        for prev, cur in zip(seen, seen[1:]):
            assert not np.array_equal(prev, cur)

    def test_lam_zero_freezes_jointly_trained_centroids(self, small_blobs):
        seen = []
        run_dkm(
            small_blobs, tiny_config(method="dkm", lam=0.0, finetune_epochs=2),
            on_batch=lambda e, b, c: seen.append(c),
        )
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])

    def test_running_mean_centroids_track_assigned_latents(self, small_blobs):
        seen = []
        report = run_dcn(
            small_blobs, tiny_config(method="dcn", lam=0.1, finetune_epochs=2),
            on_batch=lambda e, b, c: seen.append(c),
        )
        # every batch nudges the centers, and the final report carries the
        # last nudged value
        for prev, cur in zip(seen, seen[1:]):
            assert not np.array_equal(prev, cur)
        assert np.array_equal(report.centroids, seen[-1])


class TestTrainingProgress:
    def test_finetuning_improves_the_joint_objective(self, small_blobs):
        cfg = tiny_config(method="dcn", lam=0.1, pretrain_epochs=3, finetune_epochs=8)
        report = run_dcn(small_blobs, cfg)
        first = report.reconstruction_losses[0] + cfg.lam * report.clustering_losses[0]
        last = report.reconstruction_losses[-1] + cfg.lam * report.clustering_losses[-1]
        assert last < first

    def test_km_recovers_separated_blobs(self):
        data = make_blobs(30, 3, 5, separation=20.0, noise_sigma=1.0, seed=7)
        report = run_baseline_km(data, tiny_config(method="km", k=3))
        assert report.metrics.acc == 1.0

    def test_aekm_matches_km_on_easy_data_through_a_linear_code(self):
        # identity-capable code (latent dim = input dim, no hidden layers)
        # keeps the geometry, so both pipelines solve the same easy problem
        data = make_blobs(25, 3, 4, separation=25.0, noise_sigma=0.5, seed=9)
        cfg = TrainConfig(
            method="aekm", k=3, seed=1, pretrain_epochs=20, finetune_epochs=0,
            batch_size=25, latent_dim=4, hidden_dims=(),
        )
        ae = run_baseline_aekm(data, cfg)
        km = run_baseline_km(data, cfg)
        assert km.metrics.acc == 1.0
        assert ae.metrics.acc == 1.0

    def test_alternating_scheme_beats_plain_pretraining_here(self):
        # modest pretraining on noisy blobs: the refresh-driven run has a
        # reliable margin over kmeans on frozen pretrained latents
        data = make_blobs(500, 4, 50, separation=4.0, noise_sigma=1.0, seed=123)
        cfg = TrainConfig(
            method="ours", k=4, seed=0, pretrain_epochs=3, finetune_epochs=40,
            batch_size=256, lam=10.0, alpha=3.0, latent_dim=5, hidden_dims=(64, 32),
        )
        ours = run_ours(data, cfg)
        base = run_baseline_aekm(data, cfg)
        assert ours.metrics.nmi > base.metrics.nmi


class TestSuite:
    def test_aggregates_recompute_from_reports(self, small_blobs):
        cfg = tiny_config(finetune_epochs=1)
        suite = run_suite(small_blobs, cfg, seeds=[0, 1], methods=["km", "aekm"])
        assert [r.method for r in suite.rows] == ["km", "aekm"]
        assert suite.failures == []
        for row in suite.rows:
            accs = [r.metrics.acc for r in suite.reports if r.method == row.method]
            nmis = [r.metrics.nmi for r in suite.reports if r.method == row.method]
            assert row.acc_mean == pytest.approx(np.mean(accs), abs=1e-15)
            assert row.acc_std == pytest.approx(np.std(accs), abs=1e-15)
            assert row.nmi_mean == pytest.approx(np.mean(nmis), abs=1e-15)
            assert row.nmi_std == pytest.approx(np.std(nmis), abs=1e-15)

    def test_repeated_seed_gives_zero_std(self, small_blobs):
        suite = run_suite(small_blobs, tiny_config(), seeds=[3, 3], methods=["km"])
        assert suite.rows[0].acc_std == 0.0
        assert suite.rows[0].nmi_std == 0.0

    def test_every_method_sees_the_same_seeds(self, small_blobs):
        suite = run_suite(
            small_blobs, tiny_config(finetune_epochs=1),
            seeds=[5, 6], methods=["km", "ours_norein"],
        )
        by_method = {}
        for r in suite.reports:
            by_method.setdefault(r.method, []).append(r.seed)
        assert by_method == {"km": [5, 6], "ours_norein": [5, 6]}

    def test_failures_recorded_without_aborting(self, small_blobs):
        # k exceeds the sample count, so every run of the method fails
        suite = run_suite(
            small_blobs.take(10), tiny_config(k=50), seeds=[0, 1], methods=["km"]
        )
        assert suite.rows == []
        assert len(suite.failures) == 2
        method, seed, message = suite.failures[0]
        assert method == "km" and seed == 0
        assert "ValueError" in message

    def test_requires_labels(self, small_blobs):
        unlabeled = Dataset(small_blobs.features.copy())
        with pytest.raises(ValueError):
            run_suite(unlabeled, tiny_config(), seeds=[0], methods=["km"])

    def test_requires_nonempty_seeds_and_methods(self, small_blobs):
        with pytest.raises(ValueError):
            run_suite(small_blobs, tiny_config(), seeds=[], methods=["km"])
        with pytest.raises(ValueError):
            run_suite(small_blobs, tiny_config(), seeds=[0], methods=[])
