"""Clustering-regularized objectives and their analytic gradients.

Three clustering terms share the skeleton "sum of squared distances,
weighted by a row-stochastic membership matrix". ct and dkm are one
core, ``_weighted_distance`` (value, d/dz and, for dkm, d/dc), that
differs only in the logits of its softmax weights (``_weights``):

* ``ct``  — logits -alpha*log(max(d, DISTANCE_FLOOR)), weights
  proportional to d^(-alpha); gradients flow through both the distance
  factor and the weights, but centroids are trained only by the periodic
  K-means refresh, never by these gradients.
* ``dkm`` — logits -alpha*d; centroids receive gradients and are
  trained jointly with the network.
* ``dcn`` — hard nearest-centroid assignment with a 0.5 * ||z - r||^2
  penalty; centroids follow running per-cluster means elsewhere.

``combined_objective`` is the one training step of every phase: the
reconstruction loss plus ``lam`` times the configured term, through one
forward and one backward pass. Pretraining is the same step with no
term.

All values are means over the batch so the coefficient ``lam`` is
batch-size independent. Weight computations run in log space with
max-subtraction, so large exponents stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import assign, differences
from .nn import AutoencoderParams, Workspace, _real, backward, forward

VARIANTS = ("ct", "dkm", "dcn")

# ct's floor under squared distances: a point on a centroid gets a finite
# logit, and the d^(-alpha) weights stay defined.
DISTANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class LossConfig:
    variant: str
    lam: float  # clustering-term coefficient
    alpha: float  # weight sharpness exponent

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")
        for name in ("lam", "alpha"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")


def _pairwise(latent: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """diff (B,K,l) and squared distances (B,K), both float64."""
    latent = np.asarray(latent, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    if latent.ndim != 2 or centroids.ndim != 2 or latent.shape[1] != centroids.shape[1]:
        raise ValueError(
            f"latent {latent.shape} and centroids {centroids.shape} are not "
            "compatible 2-d arrays"
        )
    return differences(latent, centroids)


def _weights(d: np.ndarray, alpha: float, ct: bool) -> np.ndarray:
    """Row softmax of the membership logits -alpha*log(max(d, DISTANCE_FLOOR)),
    i.e. weights proportional to d^(-alpha) (ct), or of -alpha*d (dkm)."""
    logits = -float(alpha) * (np.log(np.maximum(d, DISTANCE_FLOOR)) if ct else d)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _weighted_distance(
    latent: np.ndarray,
    centroids: np.ndarray,
    config: LossConfig,
) -> tuple[float, np.ndarray, np.ndarray | None]:
    """The one core behind ct and dkm: the batch mean of sum_k w_k d_k with
    w = _weights(d), its gradient for the latents and, for dkm, whose
    centroids are trained, for the centroids (ct: None).

    The gradients differentiate through the weights as well as the
    distances. The raw (unfloored) distance multiplies each weight, so a
    point sitting exactly on its only centroid contributes 0.
    """
    diff, d = _pairwise(latent, centroids)
    b = d.shape[0]
    alpha = float(config.alpha)
    ct = config.variant == "ct"
    w = _weights(d, alpha, ct)
    per_sample = np.einsum("bk,bk->b", d, w)
    value = float(per_sample.sum() / b)
    # d/dz of the weights contributes -2*alpha * coef per cluster, with
    # coef = w*(d - s) for the logits -alpha*d. Through -alpha*log d it is
    # also divided by the floored distance and masked where the floor
    # clamps (there the weight has zero local dependence on z).
    coef = w * (d - per_sample[:, None])
    if ct:
        coef = coef / np.maximum(d, DISTANCE_FLOOR) * (d > DISTANCE_FLOOR)
    grad_z = (
        2.0 * np.einsum("bk,bkl->bl", w, diff)
        - 2.0 * alpha * np.einsum("bk,bkl->bl", coef, diff)
    ) / b
    grad_c = None
    if not ct:
        grad_c = (
            -2.0 * np.einsum("bk,bkl->kl", w, diff)
            + 2.0 * alpha * np.einsum("bk,bkl->kl", coef, diff)
        ) / b
    return value, grad_z, grad_c


def ct_weights(latent: np.ndarray, centroids: np.ndarray, alpha: float) -> np.ndarray:
    """Row-stochastic (B, K) weights proportional to distance^(-alpha).

    d^(-alpha) is evaluated as exp(-alpha*log(max(d, DISTANCE_FLOOR))),
    which is a softmax over -alpha*log d and therefore safe for any alpha.
    """
    return _weights(_pairwise(latent, centroids)[1], alpha, ct=True)


def dkm_weights(latent: np.ndarray, centroids: np.ndarray, alpha_dkm: float) -> np.ndarray:
    """Row-stochastic (B, K) softmax of -alpha_dkm times squared distance."""
    return _weights(_pairwise(latent, centroids)[1], alpha_dkm, ct=False)


def ct_loss(
    latent: np.ndarray,
    centroids: np.ndarray,
    config: LossConfig,
) -> tuple[float, np.ndarray]:
    """Mean over the batch of sum_k d_k * w_k, with w = ct_weights, and
    its gradient for the latents."""
    if config.variant != "ct":
        raise ValueError(f"ct_loss called with variant {config.variant!r}")
    value, grad_latent, _ = _weighted_distance(latent, centroids, config)
    return value, grad_latent


def dkm_loss(
    latent: np.ndarray,
    centroids: np.ndarray,
    config: LossConfig,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Softmax-weighted distance loss with gradients for latents AND centroids."""
    if config.variant != "dkm":
        raise ValueError(f"dkm_loss called with variant {config.variant!r}")
    return _weighted_distance(latent, centroids, config)


def dcn_penalty(
    latent: np.ndarray,
    centroids: np.ndarray,
    assignment: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Mean over the batch of 0.5 * squared distance to the assigned centroid."""
    latent = np.asarray(latent, dtype=np.float64)
    centroids = np.asarray(centroids, dtype=np.float64)
    assignment = np.asarray(assignment)
    if not np.issubdtype(assignment.dtype, np.integer):  # a bool mask is no labels
        raise ValueError(f"assignment must hold integer labels, got dtype {assignment.dtype}")
    if assignment.shape != (latent.shape[0],):
        raise ValueError(
            f"assignment shape {assignment.shape} does not match batch of {latent.shape[0]}"
        )
    if assignment.min(initial=0) < 0 or (
        assignment.size and assignment.max() >= centroids.shape[0]
    ):
        raise ValueError(
            f"assignment labels must lie in [0, {centroids.shape[0]}), "
            f"got range [{assignment.min()}, {assignment.max()}]"
        )
    b = latent.shape[0]
    resid = latent - centroids[assignment]
    value = float(0.5 * np.einsum("bl,bl->", resid, resid) / b)
    grad_latent = resid / b
    return value, grad_latent


@dataclass
class CombinedResult:
    total: float
    reconstruction: float
    clustering: float  # unscaled clustering term (0 without one); total = recon + lam * this
    centroid_grads: np.ndarray | None  # only the dkm variant trains centroids
    assignment: np.ndarray | None  # hard labels used by the dcn variant


def reconstruction_loss(
    batch: np.ndarray,
    reconstruction: np.ndarray,
    out: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Squared-error autoencoder loss: mean over batch, sum over features,
    and its gradient for the reconstruction. The residual, then the
    gradient, is written into ``out`` (an array of the batch's shape),
    or into a new array when it is omitted."""
    batch = np.asarray(batch, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    resid = np.subtract(reconstruction, batch, out=out)
    b = batch.shape[0]
    value = float(np.einsum("bd,bd->", resid, resid) / b)
    resid *= 2.0
    resid /= b
    return value, resid


def combined_objective(
    batch: np.ndarray,
    params: AutoencoderParams,
    centroids: np.ndarray | None,
    config: LossConfig | None,
    workspace: Workspace,
) -> CombinedResult:
    """Reconstruction + lam * clustering term, with full parameter gradients.

    Runs one forward pass, evaluates the configured clustering term on
    the latent codes, and backpropagates both contributions through the
    network in a single backward pass. ``centroids`` and ``config`` both
    None mean no clustering term: the reconstruction objective alone,
    as pretraining uses it, with ``clustering`` 0 and ``total`` equal to
    ``reconstruction``. With lam = 0 the gradients are bitwise those of
    no term. The activations, the residual and the parameter gradients
    live in ``workspace``: read the gradients as ``workspace.grads`` (or
    step by them with ``optimizer_step(params, workspace, state)``)
    before the next step on it overwrites them.
    """
    if (centroids is None) != (config is None):
        raise ValueError("centroids and config must both be given, or both be None")
    forward(params, batch, workspace)
    latent, reconstruction = workspace.latent, workspace.reconstruction
    recon, grad_recon = reconstruction_loss(batch, reconstruction,
                                            workspace.residual[: len(reconstruction)])
    lam, variant = (0.0, None) if config is None else (float(config.lam), config.variant)
    clust, grad_latent, centroid_grads, assignment = 0.0, None, None, None
    if variant == "ct":
        clust, grad_latent = ct_loss(latent, centroids, config)
    elif variant == "dkm":
        clust, grad_latent, centroid_grads = dkm_loss(latent, centroids, config)
        centroid_grads = lam * centroid_grads if lam else np.zeros_like(centroids)
    elif variant == "dcn":
        assignment = assign(latent, centroids)
        clust, grad_latent = dcn_penalty(latent, centroids, assignment)
    backward(params, workspace, grad_recon, lam * grad_latent if lam else None)
    return CombinedResult(
        total=recon + lam * clust,
        reconstruction=recon,
        clustering=clust,
        centroid_grads=centroid_grads,
        assignment=assignment,
    )
