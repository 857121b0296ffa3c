"""Command-line front end: run experiments, aggregate suites, score label
files, and export 2-D projections of embeddings.

Subcommands:

* ``run``     — train one method on one dataset, write a JSON report and
                a per-epoch loss TSV.
* ``suite``   — run a method list over a shared seed list, write per-run
                reports plus an aggregate ``suite.tsv``.
* ``eval``    — score a predicted-label file against a true-label file.
* ``project`` — run a method, project its final embeddings to the top-2
                principal components, write a plottable TSV.

Settings come from (highest precedence first) command-line flags, an INI
experiment file (``--config``), then ``TrainConfig``'s defaults, the only
place a training default is declared. ``parse_cli`` resolves them into
the argparse namespace's ``train`` config. The output directory defaults
to ``$DEEPKM_OUT`` or ``./deepkm_out``.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import Dataset, concat_datasets, load_delimited, load_idx, loadtxt_rows, make_blobs
from .harness import (
    METHODS,
    RunReport,
    SuiteResult,
    TrainConfig,
    run_method,
    run_suite,
)
from .metrics import evaluate

SUITE_HEADER = "method\tacc_mean\tacc_std\tnmi_mean\tnmi_std"


def _parse_kv(body: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for part in body.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad {what} option {part!r}, expected key=value")
        key, val = part.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _convert(kind: str, key: str, raw: str | None, convert):
    """``raw``, the value of option ``key`` of a ``kind`` source, through
    ``convert`` (int or float); None stays None. A value that does not
    convert is an error naming the source and the option."""
    if raw is None:
        return None
    try:
        return convert(raw)
    except ValueError:
        what = "an integer" if convert is int else "a real number"
        raise ValueError(f"{kind} option {key} must be {what}, got {raw!r}") from None


_DELIMS = {"comma": ",", "tab": "\t", "semicolon": ";", "space": " "}


def parse_dataset_spec(spec: str) -> Dataset:
    """Build a Dataset from a compact source string.

    Forms:
      blobs[:n=500,k=4,dim=50,sep=8.0,noise=1.0,seed=0]
      idx:images=PATH[,labels=PATH][,images2=PATH,labels2=PATH][,take=N]
      idx:PATH
      csv:path=PATH[,delimiter=comma|tab|semicolon|space][,label=COL]
          [,skip=N][,minmax=true]
      csv:PATH

    A value that does not convert is a ValueError naming the source and
    the option.
    """
    kind, _, body = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "blobs":
        opts = _parse_kv(body, "blobs")
        known = {"n", "k", "dim", "sep", "noise", "seed"}
        if set(opts) - known:
            raise ValueError(f"unknown blobs option(s): {sorted(set(opts) - known)}")
        return make_blobs(
            n_per_cluster=_convert(kind, "n", opts.get("n", "500"), int),
            k=_convert(kind, "k", opts.get("k", "4"), int),
            dim=_convert(kind, "dim", opts.get("dim", "50"), int),
            separation=_convert(kind, "sep", opts.get("sep", "8.0"), float),
            noise_sigma=_convert(kind, "noise", opts.get("noise", "1.0"), float),
            seed=_convert(kind, "seed", opts.get("seed", "0"), int),
        )
    if kind == "idx":
        if not body:
            raise ValueError("idx source needs at least images=PATH")
        opts = {"images": body} if "=" not in body else _parse_kv(body, "idx")
        parts = []
        suffix = ""
        while f"images{suffix}" in opts:
            parts.append(load_idx(opts.pop(f"images{suffix}"), opts.pop(f"labels{suffix}", None)))
            suffix = str(len(parts) + 1)
        take = _convert(kind, "take", opts.pop("take", None), int)
        if opts:
            raise ValueError(f"unknown idx option(s): {sorted(opts)}")
        if not parts:
            raise ValueError("idx source needs at least images=PATH")
        dataset = parts[0] if len(parts) == 1 else concat_datasets(parts, name="idx")
        return dataset.take(take) if take is not None else dataset
    if kind == "csv":
        if not body:
            raise ValueError("csv source needs a path")
        opts = {"path": body} if "=" not in body else _parse_kv(body, "csv")
        known = {"path", "delimiter", "label", "skip", "minmax"}
        if set(opts) - known:
            raise ValueError(f"unknown csv option(s): {sorted(set(opts) - known)}")
        if "path" not in opts:
            raise ValueError("csv source needs path=PATH")
        delim = opts.get("delimiter", "comma")
        if delim not in _DELIMS:
            raise ValueError(f"delimiter must be one of {sorted(_DELIMS)}")
        return load_delimited(
            opts["path"],
            delimiter=_DELIMS[delim],
            label_column=_convert(kind, "label", opts.get("label"), int),
            skip_header=_convert(kind, "skip", opts.get("skip", "0"), int),
            minmax_scale=opts.get("minmax", "false").lower() in ("true", "1", "yes"),
        )
    raise ValueError(f"unknown dataset source {kind!r}; use blobs:, idx: or csv:")


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}"
        ) from None


def _name_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


# TrainConfig fields that flags and [train] keys set; each is its flag's dest.
_TRAIN_FIELDS = (
    "k", "seed", "pretrain_epochs", "finetune_epochs", "batch_size", "lam", "alpha",
    "latent_dim", "hidden_dims", "optimizer", "learning_rate", "method",
)
# INI (section, key) -> the dest whose default it sets.
_INI_KEYS = {
    ("dataset", "source"): "dataset",
    ("suite", "methods"): "methods",
    ("suite", "seeds"): "seeds",
    ("output", "dir"): "out",
    **{("train", "lambda" if name == "lam" else name): name for name in _TRAIN_FIELDS},
}


def _read_config_file(path: str) -> dict[str, str]:
    """INI experiment file -> {dest: raw string}, to become flag defaults."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ValueError(f"cannot read config file {path}")
    if parser.has_section("train"):
        for key in parser.options("train"):
            if ("train", key) not in _INI_KEYS:
                valid = sorted(k for section, k in _INI_KEYS if section == "train")
                raise ValueError(
                    f"{path}: unknown [train] key {key!r}; valid keys: {', '.join(valid)}"
                )
    return {dest: parser.get(section, key) for (section, key), dest in _INI_KEYS.items()
            if parser.has_option(section, key)}


def _build_parser(defaults: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The deepkm parser; ``defaults`` (raw strings, as from an INI file)
    replace the built-in defaults of run, suite and project, and argparse
    converts them with each flag's ``type``."""
    parser = argparse.ArgumentParser(
        prog="deepkm",
        description="Deep clustering experiments: alternating embedding "
        "training and K-means centroid refreshes, plus baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, with_method: bool = True):
        p.add_argument("--config", help="INI experiment file; flags override it")
        p.add_argument("--dataset", help="dataset source spec (blobs:, idx:, csv:)")
        p.add_argument("--seed", type=int)
        p.add_argument("--k", type=int, help="number of clusters")
        p.add_argument("--lambda", dest="lam", type=float,
                       help="clustering-term coefficient (default depends on method)")
        p.add_argument("--alpha", type=float, help="weight sharpness exponent")
        p.add_argument("--epochs", dest="finetune_epochs", type=int, metavar="EPOCHS",
                       help="finetuning epochs")
        p.add_argument("--pretrain-epochs", type=int)
        p.add_argument("--batch-size", type=int)
        p.add_argument("--latent-dim", type=int)
        p.add_argument("--hidden-dims", type=_int_list,
                       help="comma-separated encoder widths, e.g. 500,500,2000")
        p.add_argument("--optimizer", choices=["adam", "sgd"])
        p.add_argument("--learning-rate", type=float)
        p.add_argument("--out", help="output directory")
        if with_method:
            p.add_argument("--method", choices=list(METHODS))
        p.set_defaults(**(defaults or {}))

    p_run = sub.add_parser("run", help="train one method on one dataset")
    add_common(p_run)
    p_suite = sub.add_parser("suite", help="run methods x seeds, aggregate a table")
    add_common(p_suite, with_method=False)
    p_suite.add_argument("--methods", type=_name_list, help="comma-separated method list")
    p_suite.add_argument("--seeds", type=_int_list, help="comma-separated seed list")
    p_eval = sub.add_parser("eval", help="score predicted labels against true labels")
    p_eval.add_argument("--pred", required=True, help="file with one predicted label per line")
    p_eval.add_argument("--truth", required=True, help="file with one true label per line")
    p_eval.add_argument("--out", default=None, help="output directory (metrics.json)")
    p_proj = sub.add_parser("project", help="run a method and export a 2-D projection")
    add_common(p_proj)
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Resolve argv (plus any --config file) into the argparse namespace.

    A first parse finds ``--config``; the second parses with the file's
    values as the flags' defaults, so flags beat the file, the file beats
    the built-in defaults, and both go through the same conversions.
    Except for ``eval``, the namespace gains ``train``, the ``TrainConfig``
    of the settings given (its own defaults fill the rest) with the first
    method and seed; ``suite`` also gets ``seeds``, the resolved seed
    list. A bad setting, for any seed, is a usage error (exit 2)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return args
    if args.config:
        try:
            defaults = _read_config_file(args.config)
        except (ValueError, configparser.Error) as exc:
            parser.error(str(exc))
        args = _build_parser(defaults).parse_args(argv)

    fields = {name: getattr(args, name) for name in _TRAIN_FIELDS
              if getattr(args, name, None) is not None}
    if args.command == "suite":
        if not args.methods:
            parser.error("suite needs --methods or a [suite] methods entry")
        unknown = [m for m in args.methods if m not in METHODS]
        if unknown:
            parser.error(f"unknown method(s) {unknown}; choose from {METHODS}")
        for name in ("methods", "seeds"):
            entries = getattr(args, name) or []
            repeated = [e for i, e in enumerate(entries) if e in entries[:i]]
            if repeated:
                parser.error(f"argument --{name}: repeated entry {repeated[0]}")
        fields["method"] = args.methods[0]
        if args.seeds:
            fields["seed"] = args.seeds[0]
    if not args.dataset:
        parser.error("no dataset given (use --dataset or a [dataset] source entry)")
    try:
        args.train = TrainConfig(**fields)
        if args.command == "suite":
            args.seeds = list(args.seeds or [args.train.seed])
            for seed in args.seeds[1:]:
                replace(args.train, seed=seed)
    except ValueError as exc:
        parser.error(str(exc))
    return args


def resolve_out_dir(out_dir: str | Path | None) -> Path:
    path = Path(out_dir or os.environ.get("DEEPKM_OUT") or "deepkm_out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def emit_report(reports: RunReport | list[RunReport], out_dir: str | Path | None,
                suite: SuiteResult | None = None) -> list[Path]:
    """Write per-run JSON + loss TSVs (and suite.tsv when given).

    Emission is deterministic: identical reports produce byte-identical
    files. Returns the written paths.
    """
    if isinstance(reports, RunReport):
        reports = [reports]
    out = resolve_out_dir(out_dir)
    written: list[Path] = []
    for report in reports:
        stem = f"{report.method}_seed{report.seed}"
        json_path = out / f"{stem}.json"
        _write_text(json_path, json.dumps(report.to_json_dict(), indent=2) + "\n")
        written.append(json_path)
        lines = ["epoch\treconstruction\tclustering"]
        for epoch, (rec, clu) in enumerate(
            zip(report.reconstruction_losses, report.clustering_losses)
        ):
            lines.append(f"{epoch}\t{rec!r}\t{clu!r}")
        tsv_path = out / f"{stem}_losses.tsv"
        _write_text(tsv_path, "\n".join(lines) + "\n")
        written.append(tsv_path)
    if suite is not None:
        lines = [SUITE_HEADER]
        for row in suite.rows:
            lines.append(
                f"{row.method}\t{row.acc_mean!r}\t{row.acc_std!r}"
                f"\t{row.nmi_mean!r}\t{row.nmi_std!r}"
            )
        suite_path = out / "suite.tsv"
        _write_text(suite_path, "\n".join(lines) + "\n")
        written.append(suite_path)
    return written


def _check_projectable(shape: tuple[int, ...]) -> None:
    if len(shape) != 2 or shape[0] < 2:
        raise ValueError("projection needs a 2-d array with at least 2 points")
    if shape[1] < 2:
        raise ValueError("projection needs at least 2 feature dimensions")


def project_2d(latents: np.ndarray) -> np.ndarray:
    """Top-2 principal-component coordinates of the given points.

    Components are eigenvectors of the sample covariance (descending
    eigenvalue), each signed so its largest-magnitude loading is
    positive; ties on magnitude go to the lowest index.
    """
    latents = np.asarray(latents, dtype=np.float64)
    _check_projectable(latents.shape)
    centered = latents - latents.mean(axis=0)
    cov = (centered.T @ centered) / (latents.shape[0] - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    components = eigvecs[:, ::-1][:, :2]  # descending eigenvalue order
    for j in range(2):
        lead = np.argmax(np.abs(components[:, j]))
        if components[lead, j] < 0:
            components[:, j] = -components[:, j]
    return centered @ components


def write_projection(path: Path, coords: np.ndarray, assignment: np.ndarray,
                     truth: np.ndarray | None) -> None:
    header = ["x", "y", "pred"] + (["truth"] if truth is not None else [])
    lines = ["\t".join(header)]
    for i in range(coords.shape[0]):
        row = [repr(float(coords[i, 0])), repr(float(coords[i, 1])), str(int(assignment[i]))]
        if truth is not None:
            row.append(str(int(truth[i])))
        lines.append("\t".join(row))
    _write_text(path, "\n".join(lines) + "\n")


def _load_label_file(path: str) -> np.ndarray:
    labels = loadtxt_rows(path, dtype=np.int64, ndmin=2)
    if labels is not None and labels.shape[1] == 1:
        return labels[:, 0]
    return _parse_label_lines(path)


def _parse_label_lines(path: str) -> np.ndarray:
    labels = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                label = int(line)
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: not an integer label: {line!r}")
            if not -(2**63) <= label < 2**63:
                raise ValueError(f"{path}: line {lineno}: label {line!r} is beyond int64")
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no labels found")
    return np.asarray(labels, dtype=np.int64)


def _cmd_eval(args: argparse.Namespace) -> int:
    pred = _load_label_file(args.pred)
    truth = _load_label_file(args.truth)
    report = evaluate(pred, truth)
    payload = {
        "acc": float(report.acc),
        "nmi": float(report.nmi),
        "mapping": {str(k): int(v) for k, v in sorted(report.mapping.items())},
        "n": int(pred.shape[0]),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        _write_text(resolve_out_dir(args.out) / "metrics.json", text + "\n")
    return 0


def _print_run_line(report: RunReport) -> None:
    if report.metrics is None:
        print(f"{report.method} seed={report.seed}: done (no labels, metrics skipped)")
    else:
        print(
            f"{report.method} seed={report.seed}: "
            f"acc={report.metrics.acc:.4f} nmi={report.metrics.nmi:.4f}"
        )


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_cli(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "eval":
            return _cmd_eval(args)
        dataset = parse_dataset_spec(args.dataset)
        if args.command == "project":  # before training, so a run it cannot project writes nothing
            dims = dataset.m if args.train.method == "km" else args.train.latent_dim
            _check_projectable((dataset.n, dims))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "suite":
        try:
            result = run_suite(dataset, args.train, args.seeds, args.methods)
        except ValueError as exc:  # its checks before any run, unlabelled data among them
            print(f"error: {exc}", file=sys.stderr)
            return 1
        paths = emit_report(result.reports, args.out, suite=result)
        for report in result.reports:
            _print_run_line(report)
        for method, seed, message in result.failures:
            print(f"FAILED {method} seed={seed}: {message}", file=sys.stderr)
        print(f"wrote {len(paths)} files to {resolve_out_dir(args.out)}")
        return 0 if not result.failures else 1

    if args.command in ("run", "project"):
        try:
            report = run_method(dataset, args.train)
        except Exception as exc:  # noqa: BLE001 - surface as exit status
            print(f"error: run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        paths = emit_report(report, args.out)
        if args.command == "project":
            coords = project_2d(report.latents)
            out = resolve_out_dir(args.out)
            paths.append(out / f"{report.method}_seed{report.seed}_projection.tsv")
            write_projection(paths[-1], coords, report.assignment, dataset.labels)
        _print_run_line(report)
        print(f"wrote {', '.join(str(p) for p in paths)}")
        return 0

    print(f"error: unknown command {args.command!r}", file=sys.stderr)
    return 2
