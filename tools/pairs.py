"""Pairs of benchmark processes, parent commit against this checkout.

    python3 tools/pairs.py --parent REV [--workloads desk,paper_net,large_n]
        [--pairs 10] [--seed 1] [--out BENCH.json]

Checks out ``REV`` with ``git worktree add`` into a temporary directory
(local git only) and copies this checkout's ``bench/`` over the
worktree's, so both sides run the same instrument against their own
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
times and counts. The worktree is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
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
def git_worktree(rev: str):
    """A detached worktree of ``rev`` in a temporary directory."""
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        tree = Path(tmp) / "parent"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=False)


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
              runner) -> dict:
    """Every pair of every workload, then one traced run per side."""
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
        report[workload] = entry
    return report


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, default=Path("BENCH.json"))
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None, runner=run_bench, worktree=git_worktree) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    workloads = [w for w in args.workloads.split(",") if w]
    with worktree(args.parent) as parent:
        shutil.rmtree(parent / "bench")
        shutil.copytree(ROOT / "bench", parent / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        report = run_pairs(parent, ROOT, workloads, args.pairs, args.seed, runner)
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
              f"{entry['quality_equal_in_every_pair']}")
        for name, m in entry["metrics"].items():
            print(f"  {name:12s} {m['parent']['median']:.4g} [{m['parent']['q1']:.4g}, "
                  f"{m['parent']['q3']:.4g}] -> {m['change']['median']:.4g} "
                  f"[{m['change']['q1']:.4g}, {m['change']['q3']:.4g}] {m['unit']}, "
                  f"change better in {m['change_wins']} of {m['n']}, worse by "
                  f"{m['worse_by']:+.3f} (bound {m['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
