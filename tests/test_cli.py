"""Argument resolution, dataset specs, emission formats, projections."""

import json

import numpy as np
import pytest

from deepkm import cli
from deepkm.cli import (
    SUITE_HEADER,
    emit_report,
    main,
    parse_cli,
    parse_dataset_spec,
    project_2d,
    resolve_out_dir,
    write_projection,
)
from deepkm.data import Dataset, make_blobs
from deepkm.harness import TrainConfig, run_method, run_suite
from deepkm.metrics import evaluate
from helpers import idx_images_bytes, idx_labels_bytes

FAST = [
    "--pretrain-epochs", "1", "--epochs", "1", "--batch-size", "16",
    "--latent-dim", "2", "--hidden-dims", "4", "--k", "2",
]


class TestDatasetSpec:
    def test_blobs_with_options(self):
        ds = parse_dataset_spec("blobs:n=10,k=2,dim=3,sep=5.0,noise=0.5,seed=1")
        assert ds.features.shape == (20, 3)
        assert ds.labels.tolist() == [0] * 10 + [1] * 10

    def test_blobs_unknown_option(self):
        with pytest.raises(ValueError, match="unknown blobs option"):
            parse_dataset_spec("blobs:radius=3")

    def test_idx_bare_path(self, tmp_path):
        p = tmp_path / "img.idx"
        imgs = np.zeros((4, 2, 2), dtype=np.uint8)
        p.write_bytes(idx_images_bytes(imgs))
        ds = parse_dataset_spec(f"idx:{p}")
        assert ds.n == 4 and ds.labels is None

    def test_idx_with_labels_and_take(self, tmp_path):
        imgs = tmp_path / "img.idx"
        labs = tmp_path / "lab.idx"
        imgs.write_bytes(idx_images_bytes(np.zeros((4, 2, 2), dtype=np.uint8)))
        labs.write_bytes(idx_labels_bytes(np.array([3, 1, 4, 1], dtype=np.uint8)))
        ds = parse_dataset_spec(f"idx:images={imgs},labels={labs},take=3")
        assert ds.n == 3
        assert ds.labels.tolist() == [3, 1, 4]

    def test_idx_two_file_pairs_concatenated(self, tmp_path):
        files = {}
        for tag, count in (("", 2), ("2", 3)):
            ip = tmp_path / f"img{tag or '1'}.idx"
            lp = tmp_path / f"lab{tag or '1'}.idx"
            ip.write_bytes(idx_images_bytes(np.zeros((count, 2, 2), dtype=np.uint8)))
            lp.write_bytes(idx_labels_bytes(np.arange(count, dtype=np.uint8)))
            files[tag] = (ip, lp)
        spec = (
            f"idx:images={files[''][0]},labels={files[''][1]},"
            f"images2={files['2'][0]},labels2={files['2'][1]}"
        )
        ds = parse_dataset_spec(spec)
        assert ds.n == 5
        assert ds.labels.tolist() == [0, 1, 0, 1, 2]

    def test_idx_unknown_option(self, tmp_path):
        p = tmp_path / "img.idx"
        p.write_bytes(idx_images_bytes(np.zeros((1, 2, 2), dtype=np.uint8)))
        with pytest.raises(ValueError, match="unknown idx option"):
            parse_dataset_spec(f"idx:images={p},stride=2")

    def test_csv_bare_path(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("1,2\n3,4\n")
        ds = parse_dataset_spec(f"csv:{p}")
        assert ds.features.shape == (2, 2)

    def test_csv_full_form(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("h\ta\tb\n0\t1\t2\n1\t3\t4\n")
        ds = parse_dataset_spec(f"csv:path={p},delimiter=tab,label=0,skip=1")
        assert ds.labels.tolist() == [0, 1]
        assert ds.features.shape == (2, 2)

    def test_csv_minmax(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("0,1\n10,1\n")
        ds = parse_dataset_spec(f"csv:path={p},minmax=true")
        assert ds.features[:, 0].tolist() == [0.0, 1.0]

    def test_csv_bad_delimiter_name(self, tmp_path):
        with pytest.raises(ValueError, match="delimiter"):
            parse_dataset_spec("csv:path=x.csv,delimiter=pipe")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown dataset source"):
            parse_dataset_spec("hdf5:x")


class TestParseCli:
    def test_run_defaults(self):
        args = parse_cli(["run", "--dataset", "blobs:n=5,k=2,dim=2"])
        assert args.command == "run"
        assert args.train == TrainConfig()
        assert args.train.lam is None

    def test_flags_collected(self):
        args = parse_cli([
            "run", "--dataset", "blobs:n=5,k=2,dim=2", "--method", "dkm",
            "--seed", "7", "--k", "3", "--lambda", "2.5", "--epochs", "4",
            "--hidden-dims", "16,8",
        ])
        assert args.train == TrainConfig(method="dkm", seed=7, k=3, lam=2.5,
                                         finetune_epochs=4, hidden_dims=(16, 8))

    def test_lambda_default_tracks_method(self):
        args = parse_cli(["run", "--dataset", "blobs:n=5,k=2,dim=2", "--method", "dkm"])
        assert args.train.effective_lam == 1.0
        args = parse_cli(["run", "--dataset", "blobs:n=5,k=2,dim=2", "--method", "ours"])
        assert args.train.effective_lam == 10.0

    def test_suite_lists(self):
        args = parse_cli([
            "suite", "--dataset", "blobs:n=5,k=2,dim=2",
            "--methods", "km,aekm", "--seeds", "0,1,2",
        ])
        assert args.methods == ["km", "aekm"]
        assert args.seeds == [0, 1, 2]

    def test_suite_requires_methods(self):
        with pytest.raises(SystemExit):
            parse_cli(["suite", "--dataset", "blobs:n=5,k=2,dim=2"])

    def test_suite_rejects_unknown_method(self):
        with pytest.raises(SystemExit):
            parse_cli([
                "suite", "--dataset", "blobs:n=5,k=2,dim=2", "--methods", "km,magic",
            ])

    def test_dataset_required(self):
        with pytest.raises(SystemExit):
            parse_cli(["run"])

    def test_invalid_train_values_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            parse_cli(["run", "--dataset", "blobs:n=5,k=2,dim=2", "--lambda", "-1"])

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key, flag, value, message", [
        ("learning_rate", "--learning-rate", "-1", "learning_rate must be positive"),
        ("hidden_dims", "--hidden-dims", "4,0", "hidden widths must be positive"),
        ("optimizer", "--optimizer", "rmsprop", "'rmsprop'"),
        ("finetune_epochs", "--epochs", "x", "argument --epochs: invalid int value: 'x'"),
        ("learning_rate", "--learning-rate", "inf",
         "learning_rate must be positive and finite, got inf"),
    ], ids=["learning_rate", "hidden_dims", "optimizer", "epochs", "learning_rate_inf"])
    def test_out_of_range_settings_rejected_at_parse_time(
        self, tmp_path, capsys, source, key, flag, value, message,
    ):
        ini = tmp_path / "exp.ini"
        ini.write_text("[dataset]\nsource = blobs:n=5,k=2,dim=2\n"
                       + (f"[train]\n{key} = {value}\n" if source == "file" else ""))
        argv = ["run", "--config", str(ini)] + ([flag, value] if source == "flag" else [])
        with pytest.raises(SystemExit) as exc:
            parse_cli(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_eval_passthrough(self):
        args = parse_cli(["eval", "--pred", "a.txt", "--truth", "b.txt"])
        assert args.command == "eval"
        assert args.pred == "a.txt"
        assert args.truth == "b.txt"

    def test_config_file_supplies_everything(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text(
            "[dataset]\nsource = blobs:n=5,k=2,dim=2\n"
            "[train]\nk = 2\nlambda = 1.5\nmethod = dcn\n"
            "[suite]\nmethods = km,dcn\nseeds = 4,5\n"
            "[output]\ndir = somewhere\n"
        )
        args = parse_cli(["suite", "--config", str(ini)])
        assert args.dataset == "blobs:n=5,k=2,dim=2"
        assert args.methods == ["km", "dcn"]
        assert args.seeds == [4, 5]
        assert args.train == TrainConfig(method="km", seed=4, k=2, lam=1.5)
        assert args.out == "somewhere"

    def test_flags_override_config_file(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[dataset]\nsource = blobs:n=5,k=2,dim=2\n[train]\nlambda = 1\nseed = 3\n")
        args = parse_cli(["run", "--config", str(ini), "--lambda", "10", "--seed", "8"])
        assert args.train.lam == 10.0
        assert args.train.seed == 8

    def test_unknown_config_key_rejected(self, tmp_path):
        ini = tmp_path / "exp.ini"
        ini.write_text("[train]\nmomentum = 0.9\n")
        with pytest.raises(SystemExit):
            parse_cli(["run", "--config", str(ini), "--dataset", "blobs:n=5,k=2,dim=2"])

    def test_missing_config_file_rejected(self):
        with pytest.raises(SystemExit):
            parse_cli(["run", "--config", "/no/such/file.ini",
                       "--dataset", "blobs:n=5,k=2,dim=2"])


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    data = make_blobs(20, 2, 4, separation=10.0, noise_sigma=1.0, seed=0)
    cfg = TrainConfig(
        method="ours", k=2, seed=1, pretrain_epochs=1, finetune_epochs=3,
        batch_size=16, lam=10.0, latent_dim=2, hidden_dims=(6,),
    )
    report = run_method(data, cfg)
    out = tmp_path_factory.mktemp("emit")
    paths = emit_report(report, out)
    return data, cfg, report, out, paths


class TestEmitReport:
    def test_file_names_and_count(self, emitted):
        _, _, _, out, paths = emitted
        assert [p.name for p in paths] == ["ours_seed1.json", "ours_seed1_losses.tsv"]
        assert all(p.parent == out for p in paths)

    def test_json_round_trips_config(self, emitted):
        _, cfg, report, _, paths = emitted
        loaded = json.loads(paths[0].read_text())
        rebuilt = TrainConfig(**loaded["config"])
        assert rebuilt == cfg
        assert loaded["method"] == "ours"
        assert loaded["seed"] == 1
        assert loaded["metrics"]["acc"] == report.metrics.acc

    def test_loss_tsv_layout(self, emitted):
        _, cfg, report, _, paths = emitted
        lines = paths[1].read_text().splitlines()
        assert lines[0] == "epoch\treconstruction\tclustering"
        assert len(lines) == 1 + cfg.finetune_epochs
        first = lines[1].split("\t")
        assert int(first[0]) == 0
        # repr round-trips exactly
        assert float(first[1]) == report.reconstruction_losses[0]
        assert float(first[2]) == report.clustering_losses[0]

    def test_reemission_is_byte_identical(self, emitted, tmp_path):
        _, _, report, _, paths = emitted
        again = emit_report(report, tmp_path)
        assert again[0].read_bytes() == paths[0].read_bytes()
        assert again[1].read_bytes() == paths[1].read_bytes()

    def test_suite_table_format(self, tmp_path):
        data = make_blobs(15, 2, 3, separation=10.0, noise_sigma=1.0, seed=2)
        cfg = TrainConfig(method="km", k=2, seed=0, pretrain_epochs=0,
                          finetune_epochs=0, latent_dim=2, hidden_dims=(4,))
        suite = run_suite(data, cfg, seeds=[0, 1], methods=["km"])
        paths = emit_report(suite.reports, tmp_path, suite=suite)
        suite_tsv = [p for p in paths if p.name == "suite.tsv"]
        assert len(suite_tsv) == 1
        lines = suite_tsv[0].read_text().splitlines()
        assert lines[0] == SUITE_HEADER
        cells = lines[1].split("\t")
        assert cells[0] == "km"
        assert float(cells[1]) == suite.rows[0].acc_mean
        assert float(cells[4]) == suite.rows[0].nmi_std


class TestProjection:
    def test_planar_data_distances_preserved(self):
        rng = np.random.default_rng(0)
        coords = rng.standard_normal((30, 2))
        basis, _ = np.linalg.qr(rng.standard_normal((5, 2)))
        points = coords @ basis.T + rng.standard_normal(5)
        projected = project_2d(points)

        def pairwise(a):
            diff = a[:, None, :] - a[None, :, :]
            return np.sqrt((diff**2).sum(axis=2))

        np.testing.assert_allclose(pairwise(projected), pairwise(coords), atol=1e-9)

    def test_column_variances_are_top_eigenvalues(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((40, 6)) * np.array([5, 3, 1, 1, 1, 1])
        projected = project_2d(points)
        eigvals = np.linalg.eigvalsh(np.cov(points, rowvar=False))[::-1]
        np.testing.assert_allclose(projected.var(axis=0, ddof=1), eigvals[:2], rtol=1e-9)

    def test_rank_one_data_flattens_second_axis(self):
        t = np.linspace(0, 1, 20)[:, None]
        points = t * np.array([[2.0, -1.0, 0.5]])
        projected = project_2d(points)
        np.testing.assert_allclose(projected[:, 1], 0.0, atol=1e-9)

    def test_deterministic(self):
        points = np.random.default_rng(2).standard_normal((10, 4))
        assert np.array_equal(project_2d(points), project_2d(points))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            project_2d(np.zeros((1, 3)))
        with pytest.raises(ValueError):
            project_2d(np.zeros((5, 1)))

    def test_written_file_layout(self, tmp_path):
        coords = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "p.tsv"
        write_projection(path, coords, np.array([0, 1]), np.array([1, 0]))
        lines = path.read_text().splitlines()
        assert lines[0] == "x\ty\tpred\ttruth"
        assert lines[1].split("\t") == ["1.0", "2.0", "0", "1"]


class TestMainEndToEnd:
    def test_run_writes_report_and_losses(self, tmp_path, capsys):
        code = main([
            "run", "--dataset", "blobs:n=10,k=2,dim=3,seed=0",
            "--method", "ours", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        assert (tmp_path / "ours_seed0.json").exists()
        assert (tmp_path / "ours_seed0_losses.tsv").exists()
        assert "acc=" in capsys.readouterr().out

    def test_suite_writes_table(self, tmp_path, capsys):
        code = main([
            "suite", "--dataset", "blobs:n=10,k=2,dim=3,seed=0",
            "--methods", "km,aekm", "--seeds", "0,1", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        table = (tmp_path / "suite.tsv").read_text().splitlines()
        assert table[0] == SUITE_HEADER
        assert {line.split("\t")[0] for line in table[1:]} == {"km", "aekm"}
        assert len(list(tmp_path.glob("*.json"))) == 4

    @pytest.mark.parametrize("flags,want", [
        ([], {"dkm": 1.0, "ours": 10.0}),
        (["--lambda", "2"], {"dkm": 2.0, "ours": 2.0}),
    ])
    def test_suite_lambda_per_method(self, tmp_path, capsys, flags, want):
        code = main([
            "suite", "--dataset", "blobs:n=10,k=2,dim=3,seed=0",
            "--methods", "dkm,ours", "--seeds", "0", "--out", str(tmp_path), *FAST, *flags,
        ])
        assert code == 0
        got = {m: json.loads((tmp_path / f"{m}_seed0.json").read_text())["config"]["lam"]
               for m in want}
        assert got == want

    def test_eval_scores_label_files(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n0\n1\n1\n")
        truth.write_text("1\n1\n0\n0\n")
        code = main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(tmp_path)])
        assert code == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["acc"] == evaluate([0, 0, 1, 1], [1, 1, 0, 0]).acc
        assert payload["n"] == 4

    def test_eval_bad_label_file_fails_cleanly(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\nbanana\n")
        truth.write_text("0\n1\n")
        code = main(["eval", "--pred", str(pred), "--truth", str(truth)])
        assert code == 1
        assert "banana" in capsys.readouterr().err

    def test_eval_label_beyond_int64_fails_with_its_line(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n99999999999999999999\n")
        truth.write_text("0\n1\n")
        code = main(["eval", "--pred", str(pred), "--truth", str(truth)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {pred}: line 2: label '99999999999999999999' is beyond int64\n"
        )

    def test_eval_ids_too_large_to_tabulate_fail_cleanly(self, tmp_path, capsys):
        pred = tmp_path / "pred.txt"
        truth = tmp_path / "truth.txt"
        pred.write_text("0\n4611686018427387904\n")
        truth.write_text("0\n1\n")
        code = main(["eval", "--pred", str(pred), "--truth", str(truth)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: label ids too large to tabulate: predicted id 4611686018427387904 and "
            "true label 1 need a table of 4611686018427387905 x 2 cells, beyond int64\n"
        )

    def test_eval_any_scoring_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        # such as the MemoryError of a padded square too large to allocate
        def fail(pred, truth):
            raise MemoryError("Unable to allocate 71.1 PiB")

        (tmp_path / "labels.txt").write_text("0\n1\n")
        monkeypatch.setattr(cli, "evaluate", fail)
        labels = str(tmp_path / "labels.txt")
        assert main(["eval", "--pred", labels, "--truth", labels]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 71.1 PiB\n"

    def test_project_writes_coordinates(self, tmp_path, capsys):
        code = main([
            "project", "--dataset", "blobs:n=10,k=2,dim=3,seed=0",
            "--method", "km", "--out", str(tmp_path), *FAST,
        ])
        assert code == 0
        lines = (tmp_path / "km_seed0_projection.tsv").read_text().splitlines()
        assert lines[0] == "x\ty\tpred\ttruth"
        assert len(lines) == 21
        written = [tmp_path / f"km_seed0{tail}"
                   for tail in (".json", "_losses.tsv", "_projection.tsv")]
        assert sorted(tmp_path.iterdir()) == sorted(written)
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"wrote {', '.join(str(p) for p in written)}")

    @pytest.mark.parametrize("dataset, flags, message", [
        ("blobs:n=20,k=2,dim=4", ["--latent-dim", "1"],
         "projection needs at least 2 feature dimensions"),
        ("blobs:n=1,k=1", ["--method", "km", "--k", "1"],
         "projection needs a 2-d array with at least 2 points"),
        ("blobs:n=5,k=2,dim=1", ["--method", "km"],
         "projection needs at least 2 feature dimensions"),
    ], ids=["latent_dim_1", "km_one_row", "km_one_feature"])
    def test_project_that_cannot_be_made_fails_before_training(
        self, tmp_path, capsys, dataset, flags, message,
    ):
        out = tmp_path / "out"
        code = main(["project", "--dataset", dataset, "--out", str(out), *FAST, *flags])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_suite_on_unlabelled_data_fails_and_writes_nothing(self, tmp_path, capsys):
        table = tmp_path / "rows.csv"
        table.write_text("".join(f"{i},{i % 3},{i * i % 7}\n" for i in range(12)))
        out = tmp_path / "out"
        code = main(["suite", "--dataset", f"csv:{table}", "--methods", "km",
                     "--seeds", "0", "--out", str(out), *FAST])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: suite aggregation requires ground-truth labels; "
            f"dataset {str(table)!r} has none\n")
        assert not out.exists()

    @pytest.mark.parametrize("spec, message", [
        ("blobs:n=abc", "blobs option n must be an integer, got 'abc'"),
        ("blobs:n=5,sep=far", "blobs option sep must be a real number, got 'far'"),
        ("csv:path=x,label=a", "csv option label must be an integer, got 'a'"),
        ("csv:path=x,skip=1.5", "csv option skip must be an integer, got '1.5'"),
        ("idx:images={idx},take=2.5", "idx option take must be an integer, got '2.5'"),
    ], ids=["blobs_int", "blobs_real", "csv_label", "csv_skip", "idx_take"])
    def test_unconvertible_dataset_option_is_named(self, tmp_path, capsys, spec, message):
        idx = tmp_path / "img.idx"
        idx.write_bytes(idx_images_bytes(np.zeros((4, 2, 2), dtype=np.uint8)))
        out = tmp_path / "out"
        code = main(["run", "--dataset", spec.format(idx=idx), "--out", str(out), *FAST])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_missing_input_file_exits_one(self, tmp_path, capsys):
        code = main(["run", "--dataset", "csv:/no/such/table.csv",
                     "--out", str(tmp_path), *FAST])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_usage_error_exits_two(self, capsys):
        assert main(["run"]) == 2
        assert main(["run", "--dataset", "blobs:n=5,k=2,dim=2", "--lambda", "-1"]) == 2

    @pytest.mark.parametrize("source, key, value, message", [
        pytest.param(source, key, value, message, id=case + source)
        for case, key, value, message in [
            ("", "seeds", "1,x", "argument --seeds: expected comma-separated integers, got '1,x'"),
            ("repeated_seed-", "seeds", "1,2,1", "argument --seeds: repeated entry 1"),
            ("repeated_method-", "methods", "km,aekm,km", "argument --methods: repeated entry km"),
        ]
        for source in ("flag", "file")
    ])
    def test_bad_seed_list_is_a_usage_error(self, tmp_path, capsys, source, key, value, message):
        ini = tmp_path / "exp.ini"
        ini.write_text(f"[suite]\n{key} = {value}\n" if source == "file" else "")
        out = tmp_path / "out"
        code = main([
            "suite", "--config", str(ini), "--dataset", "blobs:n=10,k=2,dim=3,seed=0",
            *(["--methods", "km"] if key == "seeds" else []), "--out", str(out), *FAST,
            *([f"--{key}", value] if source == "flag" else []),
        ])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, source", [
        ("run", "flag"), ("run", "file"), ("suite", "flag"), ("suite", "file"),
    ])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command, source):
        ini = tmp_path / "exp.ini"
        key = "[train]\nseed = -1\n" if command == "run" else "[suite]\nseeds = 0,-1\n"
        ini.write_text(key if source == "file" else "")
        flag = ["--seed", "-1"] if command == "run" else ["--seeds", "0,-1"]
        out = tmp_path / "out"
        code = main([
            command, "--config", str(ini), "--dataset", "blobs:n=10,k=2,dim=3,seed=0",
            *(["--methods", "km"] if command == "suite" else ["--method", "km"]),
            "--out", str(out), *FAST, *(flag if source == "flag" else []),
        ])
        assert code == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DEEPKM_OUT", str(tmp_path / "envout"))
        code = main([
            "run", "--dataset", "blobs:n=10,k=2,dim=3,seed=0", "--method", "km", *FAST,
        ])
        assert code == 0
        assert (tmp_path / "envout" / "km_seed0.json").exists()

    def test_resolve_out_dir_creates_directories(self, tmp_path):
        target = tmp_path / "a" / "b"
        assert resolve_out_dir(str(target)) == target
        assert target.is_dir()
