"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

One process runs a closed loop of rounds back to back: each round is
the workload's training runs over distinct run seeds, and another round
starts only while it is expected to end within ``--seconds`` (at least
one round; only whole rounds). Each round is timed without the checks,
which then run on its outputs; a training run that raises or fails a
check counts as failed. After the timed rounds one training run of the
round is repeated, untimed, and must be bit-identical to the first.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run and writes its spans to
``bench/out/<workload>/trace.jsonl``. The last line of standard output
is the JSON result; see README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from env import ROOT, pin_blas_threads, use_checkout_src

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120


def _child_setup_seconds(spec, seed: int, workdir: Path) -> float:
    """Interpreter start to loaded dataset, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           json.dumps(dataclasses.asdict(spec)), "--seed", str(seed), "--workdir", str(workdir)]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1]) - started


def _round_failures(spec, suite, first, truth) -> tuple[set, list[str]]:
    """(method, seed) of every failed run in a round, and why."""
    import checks
    from workloads import train_config

    failed = {(method, seed) for method, seed, _ in suite.failures}
    problems = [f"{method} seed={seed} raised {message}" for method, seed, message in suite.failures]
    earlier = {(r.method, r.seed): r for r in first.reports} if first is not None else {}
    for report in suite.reports:
        key = (report.method, report.seed)
        found = checks.check_run(report, truth, vars(train_config(spec, *key)))
        if key in earlier and not checks.same_run(earlier[key], report):
            found.append(f"{report.method} seed={report.seed}: differs from the same run "
                         "in the first round")
        if found:
            failed.add(key)
            problems.extend(found)
    return failed, problems


def _rerun_problems(spec, dataset, first, tracer) -> tuple[tuple | None, list[str]]:
    """Repeat the round's first ``ours`` run (else its first run), untimed;
    it must be bit-identical to the first and, traced, make the same counts.
    Returns the repeated run's (method, seed) and what differed."""
    import checks
    import workloads

    if not spec.rerun or not first.reports:
        return None, []
    report = next((r for r in first.reports if r.method == "ours"), first.reports[0])
    key = (report.method, report.seed)
    try:
        again = workloads.run_one(spec, dataset, *key)
    except Exception as exc:  # noqa: BLE001 - a failed repeat is a failed check
        return key, [f"{key[0]} seed={key[1]}: the repeat raised {type(exc).__name__}: {exc}"]
    problems = []
    if not checks.same_run(report, again):
        problems.append(f"{key[0]} seed={key[1]}: a repeat of the run differs from the first")
    if tracer is not None:
        counts = [c for run_key, c in tracer.run_counts if run_key == key]
        if counts[0] != counts[-1]:
            problems.append(f"{key[0]} seed={key[1]}: trace counts of the repeat differ: "
                            f"{counts[0]} -> {counts[-1]}")
    return key, problems


def measure(spec, seed: int, seconds: float, trace: bool, workdir: Path,
            setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, run rounds for ``seconds``, check them; return the result object."""
    import workloads
    from tracing import Tracer

    shutil.rmtree(workdir / "reports", ignore_errors=True)  # reports of earlier seeds
    workdir.mkdir(parents=True, exist_ok=True)
    workloads.prepare(spec, seed, workdir)
    setups = [] if trace else [_child_setup_seconds(spec, seed, workdir)
                               for _ in range(setup_repeats)]
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        dataset = workloads.load(spec, seed, workdir)
        _, run_seeds = workloads.seeds(spec, seed)
        walls: list[float] = []
        first = None
        round_counts = None
        attempted = failed = 0
        problems: list[str] = []
        started = time.perf_counter()
        while True:
            before = Counter(tracer.counts) if tracer is not None else None
            t0 = time.perf_counter()
            suite = workloads.run_round(spec, dataset, run_seeds, workdir / "reports")
            walls.append(time.perf_counter() - t0)
            if tracer is not None:
                counts = dict(tracer.counts - before)
                if round_counts is None:
                    round_counts = counts
                elif counts != round_counts:
                    problems.append(f"trace counts changed between rounds: {round_counts} -> {counts}")
            bad, found = _round_failures(spec, suite, first, dataset.labels)
            attempted += len(spec.methods) * len(run_seeds)
            failed += len(bad)
            problems.extend(found)
            if first is None:
                first, first_bad = suite, bad
            if time.perf_counter() - started + statistics.median(walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            metrics = tracer.layer_metrics(len(walls), round_counts)
            tracer.write(workdir / "trace.jsonl", {
                "workload": spec.name, "seed": seed, "rounds": len(walls),
                "traced_wall_s": walls, "counts_per_round": round_counts,
            })
        key, found = _rerun_problems(spec, dataset, first, tracer)
        if found and key not in first_bad:
            failed += 1
        problems.extend(found)
    finally:
        if tracer is not None:
            tracer.uninstall()

    problems.extend(workloads.workload_problems(spec, seed, dataset, first.reports))
    if tracer is None:
        values = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        score = workloads.quality(first.reports) if first.reports else {}
        for name, unit in (("acc_ours", "fraction"), ("nmi_ours", "fraction"),
                           ("nmi_mean", "fraction"), ("recon_loss", "loss")):
            value = score.get(name, math.nan)
            if not math.isfinite(value):
                problems.append(f"{name} could not be computed")
                value = 0.0
            values[name] = (value, unit)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(f"{spec.name} seed={seed}: {len(walls)} rounds, wall_s per round "
          + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", help=argparse.SUPPRESS)  # spec JSON
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.setup_child is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    pin_blas_threads()
    try:
        use_checkout_src()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.setup_child is not None:
        spec = workloads.Spec(**json.loads(args.setup_child))
        workloads.load(spec, args.seed, Path(args.workdir))
        print(repr(time.monotonic()))
        return 0
    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.SPECS)}", file=sys.stderr)
        return 2
    spec = workloads.SPECS[args.workload]
    result = measure(spec, args.seed, args.seconds, bool(args.trace), ROOT / "bench" / "out" / spec.name)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
