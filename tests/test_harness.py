"""Training-loop behavior: seeding, centroid schedules, aggregation."""

import dataclasses
import json
import re
import warnings
import weakref

import numpy as np
import pytest

import deepkm.harness as harness
from deepkm.clustering import assign
from deepkm.data import Dataset, make_blobs
from deepkm.nn import Workspace, encode_blocks, init_autoencoder, mirrored_spec
from deepkm.harness import (
    METHODS,
    RunReport,
    TrainConfig,
    default_lambda,
    run_method,
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
            {"optimizer": "rmsprop"},
            {"learning_rate": 0.0},
            {"hidden_dims": (8, 0)},
            {"lam": float("nan")},
            {"lam": float("inf")},
            {"alpha": float("nan")},
            {"seed": -1},
            {"kmeans_tol": float("nan")},
            {"learning_rate": float("inf")},
            {"k": 2.5},
            {"seed": 1.5},
            {"pretrain_epochs": 1.5},
            {"k": True},
            {"batch_size": float("nan")},
            {"hidden_dims": (4.7,)},
            {"latent_dim": 2.0},
            {"finetune_epochs": np.float64(3.0)},
            {"kmeans_max_iters": float("nan")},
            {"hidden_dims": (8, False)},
            {"lam": True},
            {"alpha": True},
            {"learning_rate": True},
            {"kmeans_tol": False},
            {"lam": "1"},
            {"alpha": np.bool_(True)},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    @pytest.mark.parametrize("name, value", [
        ("k", True), ("batch_size", float("nan")), ("hidden_dims", (4.7,)),
    ])
    def test_non_integer_setting_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("lam", True), ("lam", "1"), ("alpha", True), ("learning_rate", True),
        ("kmeans_tol", False), ("alpha", None),
    ])
    def test_non_real_setting_is_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
            TrainConfig(**{name: value})

    def test_numpy_floats_are_accepted_as_floats(self):
        names = ("lam", "alpha", "learning_rate", "kmeans_tol")
        values = (0.5, 2.0, 1e-3, 1e-6)
        cfg = TrainConfig(**{n: np.float32(v) if n == "lam" else np.float64(v)
                             for n, v in zip(names, values)})
        assert cfg == TrainConfig(lam=float(np.float32(0.5)), alpha=2.0,
                                  learning_rate=1e-3, kmeans_tol=1e-6)
        assert all(type(getattr(cfg, n)) is float for n in names)

    def test_numpy_integers_are_accepted_as_ints(self):
        cfg = TrainConfig(k=np.int64(3), seed=np.uint32(2), hidden_dims=(np.int64(4),))
        assert cfg == TrainConfig(k=3, seed=2, hidden_dims=(4,))
        assert type(cfg.k) is int and type(cfg.hidden_dims[0]) is int

    def test_default_lambda_per_method(self):
        assert default_lambda("dkm") == 1.0
        assert default_lambda("dkm_rein") == 1.0
        assert default_lambda("ours") == 10.0
        assert default_lambda("dcn") == 10.0

    def test_unset_lam_means_the_methods_default(self):
        assert TrainConfig(method="dkm").lam is None
        assert TrainConfig(method="dkm").effective_lam == 1.0
        assert TrainConfig(method="ours").effective_lam == 10.0
        assert TrainConfig(method="dkm", lam=2.5).effective_lam == 2.5
        assert TrainConfig(method="dkm", lam=0.0).effective_lam == 0.0

    def test_unset_lam_runs_as_the_explicit_default(self, small_blobs):
        unset = run_method(small_blobs, tiny_config(method="dkm", lam=None)).to_json_dict()
        explicit = run_method(small_blobs, tiny_config(method="dkm", lam=1.0)).to_json_dict()
        unset.pop("wall_clock")
        explicit.pop("wall_clock")
        assert unset == explicit
        assert unset["config"]["lam"] == 1.0


def pretrained(dataset, config):
    """``_pretrained`` on the run's first two seed streams, as ``run_method`` spawns them."""
    init_ss, pretrain_ss = np.random.SeedSequence(config.seed).spawn(2)
    return harness._pretrained(dataset, config, init_ss, np.random.default_rng(pretrain_ss))


class TestPretrain:
    def test_zero_epochs_is_deterministic_init(self, small_blobs):
        cfg = tiny_config(pretrain_epochs=0)
        a, record = pretrained(small_blobs, cfg)
        b, _ = pretrained(small_blobs, cfg)
        assert record == []
        for la, lb in zip(a.encoder + a.decoder, b.encoder + b.decoder):
            assert np.array_equal(la.weight, lb.weight)
            assert np.array_equal(la.bias, lb.bias)

    def test_training_changes_parameters(self, small_blobs):
        frozen, _ = pretrained(small_blobs, tiny_config(pretrain_epochs=0))
        trained, _ = pretrained(small_blobs, tiny_config(pretrain_epochs=1))
        assert not np.array_equal(frozen.encoder[0].weight, trained.encoder[0].weight)

    def test_loss_record_shrinks(self, small_blobs):
        record = run_method(small_blobs, tiny_config(method="aekm", pretrain_epochs=8)).pretrain_losses
        assert len(record) == 8
        assert record[-1] < record[0]


class TestRunReports:
    def test_series_lengths_and_shapes(self, small_blobs):
        cfg = tiny_config(pretrain_epochs=2, finetune_epochs=4)
        report = run_method(small_blobs, cfg)
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
        report = run_method(unlabeled, tiny_config(finetune_epochs=1))
        assert report.metrics is None

    def test_every_method_dispatches(self, small_blobs):
        for method in METHODS:
            cfg = tiny_config(method=method, finetune_epochs=1)
            report = run_method(small_blobs, cfg)
            assert isinstance(report, RunReport)
            assert report.method == method

    def test_json_dict_is_plain_and_stable(self, small_blobs):
        cfg = tiny_config(finetune_epochs=2)
        a = run_method(small_blobs, cfg).to_json_dict()
        b = run_method(small_blobs, cfg).to_json_dict()
        json.dumps(a)  # must not contain numpy scalars or arrays
        a.pop("wall_clock")
        b.pop("wall_clock")
        assert a == b

    def test_latents_never_serialized(self, small_blobs):
        report = run_method(small_blobs, tiny_config(finetune_epochs=1))
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

    @pytest.mark.parametrize("method", METHODS)
    def test_k_above_the_row_count_fails_before_any_training(self, small_blobs, monkeypatch,
                                                              method):
        calls = []
        monkeypatch.setattr(harness, "optimizer_step", lambda *a: calls.append("step"))
        monkeypatch.setattr(harness, "encode_blocks", lambda *a: calls.append("encode"))
        n = small_blobs.n
        with pytest.raises(ValueError, match=rf"^need 1 <= k <= n_points, got k={n + 1}, n={n}$"):
            run_method(small_blobs, tiny_config(method=method, k=n + 1))
        assert calls == []

    def test_unconverged_kmeans_warns(self, small_blobs):
        cfg = tiny_config(kmeans_max_iters=1, kmeans_tol=0.0)
        with pytest.warns(RuntimeWarning) as record:
            run_method(small_blobs, cfg)
        messages = [str(w.message) for w in record]
        assert any("ours: K-means initial fit stopped at 1 iterations" in m for m in messages)
        assert any("ours: K-means refit at epoch 2 stopped at 1 iterations" in m
                   for m in messages)

    def test_converged_kmeans_is_silent(self, small_blobs):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_method(small_blobs, tiny_config())


class TestCentroidSchedules:
    def test_degenerate_run_collapses_onto_aekm(self, small_blobs):
        # lam=0 kills the clustering gradient and zero finetune epochs kill
        # the refresh, so the whole pipeline replays the pretrain+kmeans
        # baseline bit for bit
        cfg = tiny_config(lam=0.0, finetune_epochs=0, pretrain_epochs=2)
        ours = run_method(small_blobs, cfg)
        base = run_method(small_blobs, dataclasses.replace(cfg, method="aekm"))
        assert np.array_equal(ours.assignment, base.assignment)
        assert np.array_equal(ours.centroids, base.centroids)

    def test_norein_centroids_never_move(self, small_blobs):
        seen = []
        report = run_method(
            small_blobs, tiny_config(method="ours_norein", finetune_epochs=3),
            on_batch=lambda e, b, c: seen.append(c),
        )
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])
        assert np.array_equal(report.centroids, seen[0])

    def test_refresh_moves_centroids_only_at_epoch_boundaries(self, small_blobs):
        seen = {}
        run_method(
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
        run_method(
            small_blobs, tiny_config(method="dkm", lam=1.0, finetune_epochs=1),
            on_batch=lambda e, b, c: seen.append(c),
        )
        for prev, cur in zip(seen, seen[1:]):
            assert not np.array_equal(prev, cur)

    def test_lam_zero_freezes_jointly_trained_centroids(self, small_blobs):
        seen = []
        run_method(
            small_blobs, tiny_config(method="dkm", lam=0.0, finetune_epochs=2),
            on_batch=lambda e, b, c: seen.append(c),
        )
        for c in seen[1:]:
            assert np.array_equal(c, seen[0])

    def test_running_mean_centroids_track_assigned_latents(self, small_blobs):
        seen = []
        report = run_method(
            small_blobs, tiny_config(method="dcn", lam=0.1, finetune_epochs=2),
            on_batch=lambda e, b, c: seen.append(c),
        )
        # every batch nudges the centers, and the final report carries the
        # last nudged value
        for prev, cur in zip(seen, seen[1:]):
            assert not np.array_equal(prev, cur)
        assert np.array_equal(report.centroids, seen[-1])


def numpy_row_running_means(latent, assignment, centroids, counts):
    """The dcn update as numpy row operations, one sample at a time."""
    centroids = centroids.copy()
    for i in range(latent.shape[0]):
        c = assignment[i]
        counts[c] += 1.0
        centroids[c] -= (centroids[c] - latent[i]) / counts[c]
    return centroids


class TestWorkspaceLifetime:
    @pytest.mark.parametrize("method, full_encodes", [
        ("ours", 4), ("dkm_rein", 4), ("ours_norein", 2),
    ])
    def test_no_workspace_is_alive_during_a_full_data_encode(
        self, small_blobs, monkeypatch, method, full_encodes,
    ):
        arenas = []  # a weak reference to every epoch's arena

        def tracked(params, rows):
            workspace = Workspace(params, rows)
            arenas.append(weakref.ref(workspace.arena))
            return workspace

        alive = []  # live arenas at each full-data encode

        def encode(params, features):
            if features.shape[0] == small_blobs.n:
                alive.append(sum(ref() is not None for ref in arenas))
            return encode_blocks(params, features)

        monkeypatch.setattr(harness, "Workspace", tracked)
        monkeypatch.setattr(harness, "encode_blocks", encode)
        run_method(small_blobs, tiny_config(method=method, pretrain_epochs=2, finetune_epochs=3))
        assert len(arenas) == 5  # one per epoch
        assert alive == [0] * full_encodes


class TestDcnCenterUpdate:
    @pytest.mark.parametrize("batch_size", [1, 2, 37, 256])
    def test_equals_numpy_row_loop(self, batch_size):
        enc, dec = mirrored_spec(6, 5, (8,))
        params = init_autoencoder(enc, dec, 3)
        rng = np.random.default_rng(batch_size)
        for draw in range(5):
            batch = rng.standard_normal((batch_size, 6))
            # draw 0 sends every sample to one cluster
            k = 1 if draw == 0 else 4
            assignment = rng.integers(0, k, size=batch_size)
            centroids = rng.standard_normal((4, 5)) * 10.0 ** draw
            counts = rng.integers(1, 50, size=4).astype(np.float64)
            want_counts = counts.copy()
            want = numpy_row_running_means(
                encode_blocks(params, batch), assignment, centroids, want_counts
            )
            before = centroids.copy()
            got = harness._dcn_center_update(params, batch, assignment, centroids, counts)
            assert np.array_equal(got, want)
            assert got.dtype == np.float64 and got.shape == (4, 5)
            assert np.array_equal(counts, want_counts)  # updated in place
            assert np.array_equal(centroids, before)  # the input is not written


class TestTrainingProgress:
    def test_finetuning_improves_the_joint_objective(self, small_blobs):
        cfg = tiny_config(method="dcn", lam=0.1, pretrain_epochs=3, finetune_epochs=8)
        report = run_method(small_blobs, cfg)
        first = report.reconstruction_losses[0] + cfg.lam * report.clustering_losses[0]
        last = report.reconstruction_losses[-1] + cfg.lam * report.clustering_losses[-1]
        assert last < first

    def test_km_recovers_separated_blobs(self):
        data = make_blobs(30, 3, 5, separation=20.0, noise_sigma=1.0, seed=7)
        report = run_method(data, tiny_config(method="km", k=3))
        assert report.metrics.acc == 1.0

    def test_aekm_matches_km_on_easy_data_through_a_linear_code(self):
        # identity-capable code (latent dim = input dim, no hidden layers)
        # keeps the geometry, so both pipelines solve the same easy problem
        data = make_blobs(25, 3, 4, separation=25.0, noise_sigma=0.5, seed=9)
        cfg = TrainConfig(
            method="aekm", k=3, seed=1, pretrain_epochs=20, finetune_epochs=0,
            batch_size=25, latent_dim=4, hidden_dims=(),
        )
        ae = run_method(data, cfg)
        km = run_method(data, dataclasses.replace(cfg, method="km"))
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
        ours = run_method(data, cfg)
        base = run_method(data, dataclasses.replace(cfg, method="aekm"))
        assert ours.metrics.nmi > base.metrics.nmi


# SGD applies the raw gradient, so one huge step makes the next batch's
# loss overflow: the second batch of the first epoch of either phase.
_NON_FINITE = {
    "pretrain": ({"optimizer": "sgd", "learning_rate": 1e150},
                 "non-finite reconstruction loss at pretrain epoch 0, batch 1"),
    "finetune": ({"optimizer": "sgd", "lam": 1e300},
                 "non-finite loss at finetune epoch 0, batch 1"),
}


class TestNonFiniteLoss:
    @pytest.mark.parametrize("phase", sorted(_NON_FINITE))
    def test_message_names_the_phase_epoch_and_batch(self, small_blobs, phase):
        overrides, message = _NON_FINITE[phase]
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}$"):
                run_method(small_blobs, tiny_config(**overrides))

    @pytest.mark.parametrize("phase", sorted(_NON_FINITE))
    def test_suite_records_the_failure_and_keeps_going(self, small_blobs, phase):
        overrides, message = _NON_FINITE[phase]
        with np.errstate(all="ignore"):
            suite = run_suite(small_blobs, tiny_config(**overrides), seeds=[0, 1],
                              methods=["ours", "km"])
        assert [(m, s) for m, s, _ in suite.failures] == [("ours", 0), ("ours", 1)]
        assert suite.failures[0][2] == f"FloatingPointError: {message}"
        assert [(r.method, r.seed) for r in suite.reports] == [("km", 0), ("km", 1)]
        assert [row.method for row in suite.rows] == ["km"]


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

    def test_bad_seed_or_method_fails_before_any_run(self, small_blobs, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "run_method",
                            lambda dataset, config, on_batch=None: calls.append(config))
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            run_suite(small_blobs, tiny_config(), seeds=[0, -1], methods=["km"])
        with pytest.raises(ValueError, match="unknown method 'magic'"):
            run_suite(small_blobs, tiny_config(), seeds=[0], methods=["km", "magic"])
        assert calls == []

    def test_unset_lam_gives_each_method_its_default(self, small_blobs):
        base = tiny_config(lam=None, finetune_epochs=1)
        suite = run_suite(small_blobs, base, seeds=[0], methods=["dkm", "ours"])
        assert {r.method: r.config["lam"] for r in suite.reports} == {"dkm": 1.0, "ours": 10.0}
        assert base.lam is None

    @pytest.mark.parametrize("error", [ValueError, FloatingPointError, np.linalg.LinAlgError])
    def test_numerical_and_data_failures_recorded(self, small_blobs, monkeypatch, error):
        def failing(dataset, config, on_batch=None):
            raise error("diverged")

        monkeypatch.setattr(harness, "run_method", failing)
        suite = run_suite(small_blobs, tiny_config(), seeds=[0], methods=["km"])
        assert suite.failures == [("km", 0, f"{error.__name__}: diverged")]

    @pytest.mark.parametrize("error", [TypeError, AttributeError, KeyError])
    def test_programming_errors_propagate(self, small_blobs, monkeypatch, error):
        def broken(dataset, config, on_batch=None):
            raise error("bug in the method lookup")

        monkeypatch.setattr(harness, "run_method", broken)
        with pytest.raises(error, match="bug in the method lookup"):
            run_suite(small_blobs, tiny_config(), seeds=[0], methods=["km"])

    def test_requires_labels(self, small_blobs):
        unlabeled = Dataset(small_blobs.features.copy())
        with pytest.raises(ValueError):
            run_suite(unlabeled, tiny_config(), seeds=[0], methods=["km"])

    def test_requires_nonempty_seeds_and_methods(self, small_blobs):
        with pytest.raises(ValueError):
            run_suite(small_blobs, tiny_config(), seeds=[], methods=["km"])
        with pytest.raises(ValueError):
            run_suite(small_blobs, tiny_config(), seeds=[0], methods=[])
