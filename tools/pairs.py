"""Pairs of benchmark processes, parent commit against this checkout.

    python3 tools/pairs.py --parent REV [--workloads desk,paper_net,large_n]
        [--pairs 10] [--seed 1] [--out BENCH.json]

Extracts ``REV`` with ``git archive`` into a temporary directory
(local git only) and copies this checkout's ``bench/`` over the
copy's, so both sides run the same instrument against their own
``src/``. For each workload, pair ``i`` runs

    python3 bench/run.py --workload W --seed SEED+i --seconds 1 --trace 0

once on each side, the parent first in even pairs and this checkout
first in odd ones. ``--seconds 1`` runs exactly one round, so both
sides' ``peak_rss_mb`` come from the same number of rounds. The JSON
written to ``--out`` holds, per workload and end-to-end metric of
``BENCHMARK.json``: each side's values, median and quartiles, the pairs
this checkout wins (ties count for neither side), how much worse its
median is than the parent's, as a fraction of the parent's, and
whether that lies inside the metric's bound. It also records the
rounds per process, whether the quality metrics are equal in every
pair, each side's ``correct`` and ``failed``, the machine, and one
``--trace 1`` run per side and workload at ``--seed``, for the per-layer
times and counts. The copy is removed at the end.

The proof that both sides compute the same outputs: per side and
workload, one round at ``--seed`` runs in a new interpreter, in process
through that side's ``bench/workloads.py`` and ``src/``

    python3 tools/pairs.py --probe ROOT --workloads W --seed SEED

It records the K-means calls, the converged fits and the sum of
``KMeansResult.iterations`` (read by wrapping ``harness.kmeans``), and a
sha256 of the round's reports without ``wall_clock``. ``outputs_match``
says whether the two sides' records are equal.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
QUALITY = ("acc_ours", "nmi_ours", "nmi_mean", "recon_loss")
WORKLOADS = ("desk", "paper_net", "large_n")
RUN_TIMEOUT_S = 1800


def run_bench(root: Path, args: list[str]) -> tuple[dict, int]:
    """``bench/run.py args`` in ``root``: its JSON result and its rounds."""
    proc = subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args], cwd=root,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py {' '.join(args)} in {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    rounds = re.search(r": (\d+) rounds, wall_s per round", proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1]), int(rounds.group(1)) if rounds else 0


@contextlib.contextmanager
def git_tree(rev: str):
    """The files of ``rev``, extracted into a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        tree = Path(tmp) / "parent"
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        yield tree


def probe(root: Path, workload: str, seed: int) -> dict:
    """``tools/pairs.py --probe root``: one round's K-means counts and
    report digest, from a new interpreter."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe", str(root),
                           "--workloads", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"the probe of {workload} in {root} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def probe_round(root: Path, workload: str, seed: int) -> dict:
    """One round of ``workload`` at ``seed``, in this process, through
    ``root``'s ``bench/workloads.py`` and ``src/``."""
    sys.path.insert(0, str(root / "bench"))
    import env

    env.pin_blas_threads()
    env.use_checkout_src()
    import workloads
    from deepkm import harness

    fits = []
    kmeans = harness.kmeans

    def counted(*args, **kwargs):
        fits.append(kmeans(*args, **kwargs))
        return fits[-1]

    harness.kmeans = counted
    spec = workloads.SPECS[workload]
    with tempfile.TemporaryDirectory(prefix="probe-") as tmp:
        workdir = Path(tmp)
        workloads.prepare(spec, seed, workdir)
        dataset = workloads.load(spec, seed, workdir)
        suite = workloads.run_round(spec, dataset, workloads.seeds(spec, seed)[1],
                                    workdir / "reports")
    reports = [{key: value for key, value in report.to_json_dict().items() if key != "wall_clock"}
               for report in suite.reports]
    return {
        "kmeans_calls": len(fits),
        "kmeans_converged": sum(bool(fit.converged) for fit in fits),
        "lloyd_iters": sum(fit.iterations for fit in fits),
        "failures": len(suite.failures),
        "reports_sha256": hashlib.sha256(json.dumps(reports).encode()).hexdigest(),
    }


def _resolve(rev: str) -> str:
    """``rev``'s commit id, or ``rev`` itself where git cannot say."""
    with contextlib.suppress(OSError):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                               f"{rev}^{{commit}}"], capture_output=True, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return rev


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics' exclusive method)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One metric of one workload over the pairs."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    ties = sum(c == p for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    base = abs(before["median"])
    worse_by = sign * (after["median"] - before["median"]) / base if base else 0.0
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "parent": before | {"values": parent}, "change": after | {"values": change},
        "change_wins": wins, "ties": ties, "n": len(parent),
        "worse_by": worse_by, "within_bound": worse_by <= metric["bound"],
    }


def machine() -> dict:
    """CPUs, Python, numpy and its BLAS, as this interpreter sees them."""
    import numpy as np

    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    config = np.show_config(mode="dicts")
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpus": os.cpu_count(), "cpus_in_affinity": affinity, "cpu_model": model,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": config.get("Build Dependencies", {}).get("blas"),
        # bench/env.py pins one BLAS thread; deepkm.nn adds its helper
        # thread on paper-sized nets when the affinity leaves a CPU free.
        "OPENBLAS_NUM_THREADS": "1", "nn_helper_thread": affinity > 1,
    }


def run_pairs(parent: Path, change: Path, workloads: list[str], pairs: int, seed: int,
              runner, prober) -> dict:
    """Every pair of every workload, then one traced run and one probe
    per side."""
    bounds = {m["name"]: m for m in json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]}
    sides = {"parent": parent, "change": change}
    report = {}
    for workload in workloads:
        results = {"parent": [], "change": []}
        rounds = {"parent": [], "change": []}
        for i in range(pairs):
            args = ["--workload", workload, "--seed", str(seed + i), "--seconds", "1", "--trace", "0"]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result, n = runner(sides[side], args)
                results[side].append(result)
                rounds[side].append(n)
                print(f"{workload} seed={seed + i} {side}: " + " ".join(
                    f"{name}={value['value']:.4g}" for name, value in result["metrics"].items()),
                    file=sys.stderr)
        values = {side: {name: [r["metrics"][name]["value"] for r in results[side]]
                         for name in bounds} for side in sides}
        entry = {
            "seeds": [seed + i for i in range(pairs)],
            "rounds": rounds,
            "correct": {side: sum(r["correct"] for r in results[side]) for side in sides},
            "failed": {side: sum(r["failed"] for r in results[side]) for side in sides},
            "quality_equal_in_every_pair": all(
                values["parent"][name] == values["change"][name] for name in QUALITY),
            "metrics": {name: summarize(bounds[name], values["parent"][name],
                                        values["change"][name]) for name in bounds},
        }
        args = ["--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
        entry["traced"] = {side: runner(sides[side], args)[0]["metrics"] for side in sides}
        entry["outputs"] = {side: prober(sides[side], workload, seed) for side in sides}
        entry["outputs_match"] = entry["outputs"]["parent"] == entry["outputs"]["change"]
        report[workload] = entry
    return report


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", help="the commit to compare against")
    parser.add_argument("--probe", type=Path, help=argparse.SUPPRESS)  # a side's root
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.parent is None and args.probe is None:
        parser.error("--parent is required")
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None, runner=run_bench, worktree=git_tree, prober=probe) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    workloads = [w for w in args.workloads.split(",") if w]
    if args.probe is not None:
        print(json.dumps(probe_round(args.probe, workloads[0], args.seed)))
        return 0
    with worktree(args.parent) as parent:
        shutil.rmtree(parent / "bench")
        shutil.copytree(ROOT / "bench", parent / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        report = run_pairs(parent, ROOT, workloads, args.pairs, args.seed, runner, prober)
    out = {
        "parent": _resolve(args.parent),
        "command": "bench/run.py --workload W --seed S --seconds 1 --trace 0",
        "pairs": args.pairs,
        "machine": machine(),
        "workloads": report,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, entry in report.items():
        print(f"{workload}: rounds parent {entry['rounds']['parent']} change "
              f"{entry['rounds']['change']}; quality equal in every pair: "
              f"{entry['quality_equal_in_every_pair']}; outputs match at seed {args.seed}: "
              f"{entry['outputs_match']} {entry['outputs']['change']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:12s} {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, "
                  f"{m['parent']['q3']:.4g}] -> {m['change']['median']:.4g} "
                  f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}] {m['unit']}, "
                  f"change better in {m['change_wins']} of {m['n']}, worse by "
                  f"{m['worse_by']:+.3f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
