"""Span tracing of deepkm's public functions, installed from outside.

``Tracer.install`` replaces each traced function, in every deepkm
module namespace that holds it, by a wrapper that records a span (name,
start, end, parent) and the counts taken at that boundary. Patching the
namespaces where callers look the names up means the package itself is
unchanged: ``harness`` calls ``forward`` through ``deepkm.harness.forward``,
``kmeans`` calls ``lloyd_step`` through ``deepkm.clustering.lloyd_step``.
Spans stay in memory until ``write`` is called at the end of a run.
Counts are also kept per training run (``harness.run_method``), so a
repeated run can be compared with the first.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# (span name, home module, function name)
TRACED = (
    ("data.make_blobs", "deepkm.data", "make_blobs"),
    ("data.load_delimited", "deepkm.data", "load_delimited"),
    ("nn.forward", "deepkm.nn", "forward"),
    ("nn.backward", "deepkm.nn", "backward"),
    ("nn.optimizer_step", "deepkm.nn", "optimizer_step"),
    ("nn.encode_blocks", "deepkm.nn", "encode_blocks"),
    ("losses.reconstruction_loss", "deepkm.losses", "reconstruction_loss"),
    ("losses.combined_objective", "deepkm.losses", "combined_objective"),
    ("losses.ct_loss", "deepkm.losses", "ct_loss"),
    ("losses.dkm_loss", "deepkm.losses", "dkm_loss"),
    ("losses.dcn_penalty", "deepkm.losses", "dcn_penalty"),
    ("clustering.kmeans", "deepkm.clustering", "kmeans"),
    ("clustering.kmeans_plus_plus_init", "deepkm.clustering", "kmeans_plus_plus_init"),
    ("clustering.lloyd_step", "deepkm.clustering", "lloyd_step"),
    ("clustering.assign", "deepkm.clustering", "assign"),
    ("metrics.evaluate", "deepkm.metrics", "evaluate"),
    ("harness.run_suite", "deepkm.harness", "run_suite"),
    ("harness.run_method", "deepkm.harness", "run_method"),
    ("cli.emit_report", "deepkm.cli", "emit_report"),
)


def _count_optimizer_step(counts, args, result):
    counts["nn.optimizer_steps"] += 1


def _count_encode_blocks(counts, args, result):
    counts["nn.encoded_rows"] += int(result.shape[0])


def _count_kmeans(counts, args, result):
    counts["clustering.kmeans_calls"] += 1
    counts["clustering.kmeans_converged"] += int(bool(result.converged))


def _count_lloyd_step(counts, args, result):
    counts["clustering.lloyd_iters"] += 1


COUNTERS = {
    "nn.optimizer_step": _count_optimizer_step,
    "nn.encode_blocks": _count_encode_blocks,
    "clustering.kmeans": _count_kmeans,
    "clustering.lloyd_step": _count_lloyd_step,
}
COUNT_NAMES = (
    "nn.optimizer_steps", "nn.encoded_rows", "clustering.kmeans_calls",
    "clustering.kmeans_converged", "clustering.lloyd_iters",
)

# Per-layer metric -> (spans summed, "total" or "self" time)
TIMES = {
    "data.load_s": (("data.make_blobs", "data.load_delimited"), "total"),
    "nn.forward_s": (("nn.forward",), "total"),
    "nn.backward_s": (("nn.backward",), "total"),
    "nn.optimizer_step_s": (("nn.optimizer_step",), "total"),
    "nn.encode_blocks_s": (("nn.encode_blocks",), "total"),
    "losses.reconstruction_s": (("losses.reconstruction_loss",), "total"),
    "losses.cluster_term_s": (("losses.ct_loss", "losses.dkm_loss", "losses.dcn_penalty"), "total"),
    "losses.combined_objective_self_s": (("losses.combined_objective",), "self"),
    "clustering.kmeans_s": (("clustering.kmeans",), "total"),
    "clustering.lloyd_step_s": (("clustering.lloyd_step",), "total"),
    "clustering.kmeanspp_s": (("clustering.kmeans_plus_plus_init",), "total"),
    "clustering.assign_s": (("clustering.assign",), "total"),
    "metrics.evaluate_s": (("metrics.evaluate",), "total"),
    "harness.self_s": (("harness.run_suite", "harness.run_method"), "self"),
    "cli.emit_report_s": (("cli.emit_report",), "total"),
}
SETUP_TIMES = ("data.load_s",)  # spent once per process, not per round
RUN_SPAN = "harness.run_method"  # one training run; its counts are also kept per run


class Tracer:
    """Spans and boundary counts of one process, kept in memory."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.run_counts: list[tuple[tuple[str, int], dict[str, int]]] = []  # ((method, seed), counts)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = Counter(self.counts) if name == RUN_SPAN else None
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, result)
            if before is not None:
                self.run_counts.append(((result.method, result.seed), dict(self.counts - before)))
            return result

        return traced

    def install(self) -> None:
        """Patch every traced function wherever a deepkm module holds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "deepkm" or key.startswith("deepkm."))]
        for name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapped)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            own[name] += end - start - covered
        return total, own

    def layer_metrics(self, rounds: int, round_counts: dict[str, int]) -> dict[str, dict]:
        """Per-layer metrics: times per round (set-up times once), counts per round."""
        total, own = self.totals()
        metrics = {}
        for metric, (names, kind) in TIMES.items():
            source = total if kind == "total" else own
            value = sum(source.get(n, 0.0) for n in names)
            if metric not in SETUP_TIMES:
                value /= rounds
            metrics[metric] = {"value": value, "unit": "s"}
        for metric in COUNT_NAMES:
            metrics[metric] = {"value": int(round_counts.get(metric, 0)), "unit": "count"}
        return metrics

    def write(self, path: Path, header: dict) -> None:
        """Header line, then one JSON line per span, times from tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start - self.origin,
                    "end": end - self.origin, "parent": parent,
                }) + "\n")
