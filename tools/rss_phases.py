"""The peak resident memory of each phase of one ``ours`` run.

    PYTHONPATH=src python3 tools/rss_phases.py [--input 784] [--latent 10]
        [--hidden 500,500,2000] [--rows 8000] [--k 10] [--pretrain 2]
        [--finetune 2] [--batch 256] [--seed 0] [--interval 0.001]

Trains ``ours`` on ``--rows`` seeded random rows in [0, 1) through the
mirrored net ``mirrored_spec`` builds (input -> hidden -> latent ->
hidden reversed -> input), while a daemon thread reads the process's
resident set from ``/proc/self/statm`` every ``--interval`` seconds. The
phases are found from outside the package, by wrapping
``harness._epoch`` and ``harness.encode_blocks`` where ``run_method``
looks them up (as ``bench/tracing.py`` patches its traced functions):

* ``pretrain``: every pretraining epoch;
* ``finetune epoch E``: one finetuning epoch;
* ``encode I``: the I-th full-data encode (the initial K-means fit's,
  then one per refit);
* ``other``: the rest (set-up, K-means fits, metrics).

Each phase's line gives its seconds and the largest resident set
sampled in it, read at its start and end as well as by the thread. A
sampled peak can miss a spike shorter than the interval; the last line
gives the kernel's own peak, ``ru_maxrss``. Resident memory counts
what the allocator holds, freed or not, so it shows what tracemalloc
cannot: freed arrays that stay in the heap. Linux only. Run it at the
BLAS thread count of interest (``OPENBLAS_NUM_THREADS``), which the
header prints.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import resource
import sys
import threading
import time
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deepkm import harness  # noqa: E402
from deepkm.data import Dataset  # noqa: E402

STATM = "/proc/self/statm"


def _sizes(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


class Phases:
    """The current phase, and each phase's seconds and peak resident
    bytes, in the order the phases were first entered."""

    def __init__(self, fd: int):
        self._fd, self._page = fd, os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self.name, self.since = "other", time.perf_counter()
        self.peaks: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.sample()

    def sample(self) -> None:
        """Read the resident set into the current phase's peak."""
        resident = int(os.pread(self._fd, 128, 0).split()[1]) * self._page
        with self._lock:
            self.peaks[self.name] = max(self.peaks.get(self.name, 0), resident)

    def switch(self, name: str) -> None:
        self.sample()
        with self._lock:
            now = time.perf_counter()
            self.seconds[self.name] = self.seconds.get(self.name, 0.0) + now - self.since
            self.name, self.since = name, now
        self.sample()

    @contextlib.contextmanager
    def entered(self, name: str):
        outer = self.name
        self.switch(name)
        try:
            yield
        finally:
            self.switch(outer)


def measure(dataset: Dataset, config: harness.TrainConfig,
            interval: float) -> tuple[Phases, float]:
    """Run ``config`` on ``dataset`` with its phases sampled: the phases
    and the process's peak resident set in MB (``ru_maxrss``)."""
    fd = os.open(STATM, os.O_RDONLY)
    try:
        phases = Phases(fd)
        stop = threading.Event()

        def sampler() -> None:
            while not stop.wait(interval):
                phases.sample()

        epoch, encode_blocks = harness._epoch, harness.encode_blocks
        encodes = itertools.count()

        def traced_epoch(dataset, config, params, opt, rng, index, term):
            name = "pretrain" if term is None else f"finetune epoch {index}"
            with phases.entered(name):
                return epoch(dataset, config, params, opt, rng, index, term)

        def traced_encode_blocks(params, features):
            with phases.entered(f"encode {next(encodes)}"):
                return encode_blocks(params, features)

        thread = threading.Thread(target=sampler, name="rss-sampler", daemon=True)
        thread.start()
        try:
            with mock.patch.object(harness, "_epoch", traced_epoch), \
                    mock.patch.object(harness, "encode_blocks", traced_encode_blocks):
                harness.run_method(dataset, config)
            phases.switch("other")
        finally:
            stop.set()
            thread.join()
    finally:
        os.close(fd)
    return phases, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--input", type=int, default=784)
    parser.add_argument("--latent", type=int, default=10)
    parser.add_argument("--hidden", type=_sizes, default=[500, 500, 2000])
    parser.add_argument("--rows", type=int, default=8000)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--pretrain", type=int, default=2)
    parser.add_argument("--finetune", type=int, default=2)
    parser.add_argument("--batch", type=int, default=256)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--interval", type=float, default=0.001)
    args = parser.parse_args(argv)
    if not os.path.exists(STATM):
        parser.error(f"{STATM} does not exist: this tool needs Linux's /proc")
    config = harness.TrainConfig(
        method="ours", k=args.k, seed=args.seed, pretrain_epochs=args.pretrain,
        finetune_epochs=args.finetune, batch_size=args.batch, lam=1.0,
        latent_dim=args.latent, hidden_dims=tuple(args.hidden), learning_rate=5e-4)
    features = np.random.default_rng(args.seed).random((args.rows, args.input))
    phases, peak = measure(Dataset(features, name="rss_phases"), config, args.interval)
    net = "-".join(map(str, [args.input, *args.hidden, args.latent]))
    print(f"numpy {np.__version__}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(f"ours on {args.rows} x {args.input} rows, encoder {net}, batch {args.batch}, "
          f"{args.pretrain} + {args.finetune} epochs")
    print(f"{'phase':<20} {'seconds':>8} {'peak_rss_mb':>12}")
    for name, resident in phases.peaks.items():
        print(f"{name:<20} {phases.seconds[name]:>8.2f} {resident / 2**20:>12.1f}")
    print(f"{'process (ru_maxrss)':<20} {'':>8} {peak:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
