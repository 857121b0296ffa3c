"""deepkm: a deep-clustering laboratory on numpy.

An autoencoder is trained under reconstruction loss plus a clustering
term; the distinctive scheme alternates gradient epochs on that
objective (centroids frozen) with full K-means refreshes of the
centroids in the latent space. Softmax-weighted and hard-assignment
baselines, a classical K-means, Hungarian-matched accuracy and NMI,
IDX/CSV/synthetic loaders, a seeded multi-method harness and a CLI
round out the lab.
"""

from .clustering import KMeansResult, assign, kmeans, kmeans_plus_plus_init, lloyd_step
from .data import Dataset, concat_datasets, load_delimited, load_idx, make_blobs, save_idx
from .harness import (
    METHODS,
    RunReport,
    SuiteResult,
    TrainConfig,
    run_method,
    run_suite,
)
from .losses import (
    CombinedResult,
    LossConfig,
    combined_objective,
    ct_loss,
    ct_weights,
    dcn_penalty,
    dkm_loss,
    dkm_weights,
)
from .metrics import MetricsReport, evaluate, hungarian
from .nn import (
    AutoencoderParams,
    LayerSpec,
    Workspace,
    backward,
    encode,
    forward,
    init_autoencoder,
    make_optimizer,
    mirrored_spec,
    optimizer_step,
)

__version__ = "0.1.0"

__all__ = [
    "KMeansResult", "assign", "kmeans", "kmeans_plus_plus_init", "lloyd_step",
    "Dataset", "concat_datasets", "load_delimited", "load_idx", "make_blobs", "save_idx",
    "METHODS", "RunReport", "SuiteResult", "TrainConfig", "run_method", "run_suite",
    "CombinedResult", "LossConfig", "combined_objective", "ct_loss", "ct_weights",
    "dcn_penalty", "dkm_loss", "dkm_weights",
    "MetricsReport", "evaluate", "hungarian",
    "AutoencoderParams", "LayerSpec", "Workspace", "backward", "encode", "forward",
    "init_autoencoder", "make_optimizer", "mirrored_spec", "optimizer_step",
    "__version__",
]
