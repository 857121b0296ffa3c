"""Whether a GEMM computed on row chunks keeps the bits of the whole block,
for each layer of a mirrored net, under the BLAS numpy loaded.

    PYTHONPATH=src python3 tools/gemm_splits.py [--input 784] [--latent 10]
        [--hidden 500,500,2000] [--rows 4096,3904]
        [--chunks 64,128,256,512,1024,2048] [--seed 0]

For each layer ``X @ W`` of the net ``mirrored_spec`` builds (input ->
hidden -> latent -> hidden reversed -> input), and each block height in
``--rows``, a seeded random block ``X`` is multiplied by ``W`` whole and
then chunk by chunk, for each chunk height in ``--chunks`` (the last
chunk takes what is left). A cell reads ``same`` when every bit of the
two products agrees and ``differs`` otherwise. Run it at the BLAS thread
count of interest (``OPENBLAS_NUM_THREADS``), which the header prints.

The table is a property of the BLAS build, its thread count and the CPU
it ran on, not a guarantee: a kernel chosen by another CPU, or another
OpenBLAS version, may block the same product differently. A change that
splits a GEMM by rows and relies on ``same`` must hold its own check.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from deepkm.nn import mirrored_spec  # noqa: E402


def _sizes(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def keeps_bits(x: np.ndarray, w: np.ndarray, chunk: int) -> bool:
    """Whether ``x @ w`` taken ``chunk`` rows at a time equals the whole
    product bit for bit."""
    whole = x @ w
    chunked = np.empty_like(whole)
    for start in range(0, x.shape[0], chunk):
        np.matmul(x[start : start + chunk], w, out=chunked[start : start + chunk])
    return np.array_equal(whole, chunked)


def table(input_dim: int, latent_dim: int, hidden: list[int], rows: list[int],
          chunks: list[int], seed: int) -> list[tuple[str, int, list[bool]]]:
    """(layer ``in x out``, block rows, whether each chunk height keeps
    the bits) per layer of the mirrored net and block height."""
    encoder, decoder = mirrored_spec(input_dim, latent_dim, hidden)
    rng = np.random.default_rng(seed)
    result = []
    for spec in encoder + decoder:
        lim = 1.0 / np.sqrt(spec.input_dim)
        w = rng.uniform(-lim, lim, size=(spec.input_dim, spec.output_dim))
        for n in rows:
            x = rng.random((n, spec.input_dim))
            result.append((f"{spec.input_dim}x{spec.output_dim}", n,
                           [keeps_bits(x, w, c) for c in chunks]))
    return result


def _blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (KeyError, TypeError):  # the config's layout differs across numpy versions
        name = "unknown BLAS"
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return f"numpy {np.__version__}, {name}, OPENBLAS_NUM_THREADS={threads}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--input", type=int, default=784)
    parser.add_argument("--latent", type=int, default=10)
    parser.add_argument("--hidden", type=_sizes, default=[500, 500, 2000])
    parser.add_argument("--rows", type=_sizes, default=[4096, 3904])
    parser.add_argument("--chunks", type=_sizes, default=[64, 128, 256, 512, 1024, 2048])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(_blas())
    print(f"{'layer':>10} {'rows':>6} " + " ".join(f"{c:>8}" for c in args.chunks))
    for layer, n, same in table(args.input, args.latent, args.hidden, args.rows,
                                args.chunks, args.seed):
        cells = " ".join(f"{'same' if s else 'differs':>8}" for s in same)
        print(f"{layer:>10} {n:>6} {cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
