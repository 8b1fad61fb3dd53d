"""Structure similarities, temperature softening, and the KL alignment loss.

Every function works on a batch. Each row of a (B, d) batch of embeddings
is split into M subvectors and compared subspace-by-subspace against the
codebook centroids, giving (B, M, K) structure similarities. The frozen
gallery side and the trainable query side are softened into distributions
over K and matched with a per-subspace KL divergence. Analytic gradients with
respect to the query embeddings are exact through the softmax and the
chosen similarity kernel. A single embedding is a batch of one.
"""

from __future__ import annotations

import numpy as np

from .embeddings import COSINE_EPS, NORM_EPS, normalize_rows
from .errors import (
    BadConfigError,
    LengthMismatchError,
    ShapeMismatchError,
    ZeroTargetProbabilityError,
)
from .quantizer import ProductCodebook, adc_table

SIM_COSINE = "cosine"
SIM_NEG_EUCLIDEAN = "neg_euclidean"
SIMILARITY_KINDS = (SIM_COSINE, SIM_NEG_EUCLIDEAN)


def _against_centroids(a: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Per-subspace matmul: (B, M, n) x (M, n, p) -> (B, M, p)."""
    return np.matmul(a.transpose(1, 0, 2), cents).transpose(1, 0, 2)


def _grad_through_similarity(
    codebook: ProductCodebook, u: np.ndarray, kind: str, s: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """Map dLoss/dS (B, M, K) to dLoss/du (B, M, d*) for the chosen kernel.

    ``s`` is the similarity of ``u``. Dead subspaces (near-zero subvector
    norm under cosine, or a subvector sitting exactly on a centroid under
    negative-Euclidean) get zero gradient; the kernels are flat or
    non-differentiable there.
    """
    cents = codebook.stacked()
    if kind == SIM_COSINE:
        u_norms = np.linalg.norm(u, axis=2)
        c_norms = codebook.centroid_norms()
        denom = c_norms * u_norms[:, :, None] + COSINE_EPS
        term1 = _against_centroids(w / denom, cents)
        coef = (w * s * c_norms / denom).sum(axis=2)
        dead = u_norms < NORM_EPS
        grad = term1 - (coef / np.where(dead, 1.0, u_norms))[:, :, None] * u
        grad[dead] = 0.0
        return grad
    dists = -s
    on_centroid = dists < NORM_EPS
    scaled = np.where(on_centroid, 0.0, w / np.where(on_centroid, 1.0, dists))
    # sum_k scaled_k * (c_k - u)
    return _against_centroids(scaled, cents) - scaled.sum(axis=2)[:, :, None] * u


def structure_similarity(
    codebook: ProductCodebook, x: np.ndarray, kind: str = SIM_COSINE
) -> np.ndarray:
    """(B, M, K) similarities of each row's subvectors against its subspace's K centroids.

    Raises:
        BadConfigError: if ``kind`` is not a known similarity kind.
        LengthMismatchError: if ``x`` is not a (B, codebook.dim) matrix.
    """
    if kind not in SIMILARITY_KINDS:
        raise BadConfigError(f"unknown similarity kind {kind!r}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != codebook.dim:
        raise LengthMismatchError(f"embeddings have shape {x.shape}, codebook dim {codebook.dim}")
    if kind == SIM_NEG_EUCLIDEAN:
        # The ADC table keeps a subvector on a centroid at distance exactly 0.
        return -np.sqrt(adc_table(codebook, x))
    u = x.reshape(x.shape[0], codebook.m, codebook.sub_dim)
    dots = _against_centroids(u, codebook.stacked().transpose(0, 2, 1))
    u_norms = np.linalg.norm(u, axis=2)
    return dots / (codebook.centroid_norms() * u_norms[:, :, None] + COSINE_EPS)


def soften(values: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature softmax along the last axis; temperature 0 yields hard one-hot argmax.

    Softmax uses max subtraction for stability. Hard-assignment ties go to
    the lowest centroid index.

    Raises:
        BadConfigError: if ``temperature`` is negative.
    """
    if temperature < 0:
        raise BadConfigError(f"temperature must be >= 0, got {temperature}")
    values = np.asarray(values, dtype=np.float64)
    if temperature == 0:
        probs = np.zeros_like(values)
        np.put_along_axis(probs, np.argmax(values, axis=-1)[..., None], 1.0, axis=-1)
        return probs
    e = np.exp((values - values.max(axis=-1, keepdims=True)) / temperature)
    return e / e.sum(axis=-1, keepdims=True)


def kl_loss(p_g: np.ndarray, p_q: np.ndarray) -> np.ndarray:
    """KL(p_g || p_q) along the last axis, with the 0*ln(0/x) := 0 convention.

    Returns:
        One divergence per distribution: the input shape without its last axis.

    Raises:
        ShapeMismatchError: if the two distributions differ in shape.
        ZeroTargetProbabilityError: if p_q has zero mass where p_g does not
            (the divergence would be infinite).
    """
    g = np.asarray(p_g, dtype=np.float64)
    q = np.asarray(p_q, dtype=np.float64)
    if g.shape != q.shape:
        raise ShapeMismatchError(f"distribution shapes differ: {g.shape} vs {q.shape}")
    support = g > 0
    if np.any(support & (q == 0)):
        raise ZeroTargetProbabilityError(
            "query distribution has zero probability on the gallery support"
        )
    terms = np.where(support, g * (np.log(np.where(support, g, 1.0)) - np.log(np.where(q > 0, q, 1.0))), 0.0)
    per = terms.sum(axis=-1)
    # Round-off can leave KL a hair below zero when the distributions are identical.
    return np.where((per < 0) & (per > -1e-12), 0.0, per)


def ssp_loss_and_grad(
    codebook: ProductCodebook,
    g: np.ndarray,
    q: np.ndarray,
    tau_g: float,
    tau_q: float,
    kind: str = SIM_COSINE,
) -> tuple[np.ndarray, np.ndarray]:
    """Alignment loss between (B, d) gallery and query embeddings plus dLoss/dq.

    The gallery embeddings are treated as constants. ``tau_g`` may be 0
    (hard assignment); ``tau_q`` must be positive so the query distribution
    has full support.

    Returns:
        (losses, gradient): per-sample losses (B,), each the sum of its M
        per-subspace KL divergences, and the (B, d) exact derivative of
        each sample's loss through the softmax and the similarity kernel.

    Raises:
        BadConfigError: if ``tau_q`` is not positive.
    """
    if tau_q <= 0:
        raise BadConfigError(f"tau_q must be > 0, got {tau_q}")
    q = np.asarray(q, dtype=np.float64)
    if np.shape(g) != q.shape:
        raise LengthMismatchError(f"gallery shape {np.shape(g)} differs from query shape {q.shape}")
    s_q = structure_similarity(codebook, q, kind)
    p_g = soften(structure_similarity(codebook, g, kind), tau_g)
    p_q = soften(s_q, tau_q)
    losses = kl_loss(p_g, p_q).sum(axis=1)

    w = (p_q - p_g) / tau_q  # dLoss/dS_q
    u_q = q.reshape(s_q.shape[0], codebook.m, codebook.sub_dim)
    grad = _grad_through_similarity(codebook, u_q, kind, s_q, w)
    return losses, grad.reshape(q.shape)


def regression_loss_and_grad(g: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct feature-matching baseline: squared L2 between unit-normalized (B, d) embeddings.

    Returns:
        (losses, gradient): per-sample losses (B,) and the (B, d) gradient,
        analytic through the query-side normalization; the gallery
        embeddings are constants. A degenerate (zero-norm) query row gets
        zero gradient.
    """
    g = np.asarray(g, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if g.shape != q.shape or q.ndim != 2:
        raise LengthMismatchError(f"shapes differ or are not (B, d): {g.shape} vs {q.shape}")
    nq, degenerate = normalize_rows(q)
    ng, _ = normalize_rows(g)
    r = nq - ng
    losses = np.einsum("bd,bd->b", r, r)
    qn = np.where(degenerate, 1.0, np.linalg.norm(q, axis=1))
    grad = (2.0 / qn)[:, None] * (r - nq * np.einsum("bd,bd->b", nq, r)[:, None])
    grad[degenerate] = 0.0
    return losses, grad
