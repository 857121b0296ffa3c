"""tools/pairs.py, benchmark pairs of the parent against this checkout, on a stub runner."""

import contextlib
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_pairs_alternate_and_are_summarized_against_the_bounds(tmp_path):
    parent = tmp_path / "parent"
    (parent / "bench").mkdir(parents=True)
    (parent / "bench" / "stale.py").write_text("")

    @contextlib.contextmanager
    def worktree(rev):
        assert rev == "HEAD~1"
        yield parent

    calls = []

    def runner(root, args):
        side = "parent" if root == parent else "change"
        assert root in (parent, ROOT)
        # the parent side runs this checkout's instrument
        assert (root / "bench" / "run.py").is_file() and not (root / "bench" / "stale.py").exists()
        seed = int(args[args.index("--seed") + 1])
        calls.append((side, seed, args[args.index("--seconds") + 1], args[-1]))
        values = {"wall_s": (10.0 if side == "parent" else 6.0) + seed,
                  "setup_s": 0.2, "peak_rss_mb": 100.0 if side == "parent" else 120.0,
                  "acc_ours": 0.9, "nmi_ours": 0.8, "nmi_mean": 0.7, "recon_loss": 0.5}
        metrics = {name: {"value": value, "unit": "u"} for name, value in values.items()}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}, 1

    probes = []

    def prober(root, workload, seed):
        probes.append(("parent" if root == parent else "change", workload, seed))
        return {"kmeans_calls": 50, "kmeans_converged": 50, "lloyd_iters": 758,
                "failures": 0, "reports_sha256": "ab"}

    out = tmp_path / "bench.json"
    argv = ["--parent", "HEAD~1", "--workloads", "large_n", "--pairs", "4", "--seed", "7",
            "--out", str(out)]
    assert pairs.main(argv, runner=runner, worktree=worktree, prober=prober) == 0
    assert probes == [("parent", "large_n", 7), ("change", "large_n", 7)]
    timed = [c for c in calls if c[3] == "0"]
    assert [(side, seed) for side, seed, _, _ in timed] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8),
        ("parent", 9), ("change", 9), ("change", 10), ("parent", 10)]
    assert {c[2] for c in calls} == {"1"}  # one round per process
    assert sorted(c[0] for c in calls if c[3] == "1") == ["change", "parent"]

    entry = json.loads(out.read_text())["workloads"]["large_n"]
    assert entry["rounds"] == {"parent": [1] * 4, "change": [1] * 4}
    assert entry["quality_equal_in_every_pair"] and entry["failed"] == {"parent": 0, "change": 0}
    wall = entry["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["ties"], wall["n"]) == (4, 0, 4)
    assert wall["parent"]["median"] == 18.5 and wall["change"]["median"] == 14.5
    assert wall["parent"]["q1"] <= 18.5 <= wall["parent"]["q3"]
    assert wall["worse_by"] == -4.0 / 18.5 and wall["within_bound"]
    peak = entry["metrics"]["peak_rss_mb"]
    assert peak["change_wins"] == 0 and peak["worse_by"] == 0.2 and not peak["within_bound"]
    assert entry["metrics"]["setup_s"]["ties"] == 4
    assert set(entry["traced"]) == {"parent", "change"}
    assert entry["outputs"]["parent"]["lloyd_iters"] == 758 and entry["outputs_match"]


def test_outputs_that_differ_are_reported(tmp_path):
    def runner(root, args):
        metrics = {name: {"value": 1.0, "unit": "u"} for name in
                   ("wall_s", "setup_s", "peak_rss_mb", *pairs.QUALITY)}
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}, 1

    def prober(root, workload, seed):
        return {"reports_sha256": "ab" if workload == "desk" or root == ROOT else "cd"}

    report = pairs.run_pairs(tmp_path, ROOT, ["desk", "large_n"], 1, 3, runner, prober)
    assert report["desk"]["outputs_match"] and not report["large_n"]["outputs_match"]


def test_probe_requires_no_parent():
    with pytest.raises(SystemExit):
        pairs._parse(["--workloads", "desk"])
    assert pairs._parse(["--probe", str(ROOT), "--workloads", "desk"]).parent is None
