"""Structure similarities, temperature softening, and the KL alignment loss.

Every function works on a batch. Each row of a (B, d) batch of embeddings
is split into M subvectors and compared subspace-by-subspace against the
codebook centroids, giving (B, M, K) structure similarities; internally
they are computed subspace-major, (M, B, K), the layout of the per-subspace
matmul. The frozen gallery side and the trainable query side are softened
in log space into distributions over K and matched with a per-subspace KL
divergence. Analytic gradients with respect to the query embeddings are
exact through the softmax and the chosen similarity kernel. A single
embedding is a batch of one. The two per-step losses do not check their
arguments: ``TrainConfig`` and ``train_query_model`` check them once per run.
"""

from __future__ import annotations

import numpy as np

from .embeddings import COSINE_EPS, NORM_EPS, normalize_rows
from .errors import (
    BadConfigError,
    LengthMismatchError,
    ZeroTargetProbabilityError,
)
from .quantizer import ProductCodebook, subvector_sq_dists, subvectors

SIM_COSINE = "cosine"
SIM_NEG_EUCLIDEAN = "l2"
SIMILARITY_KINDS = (SIM_COSINE, SIM_NEG_EUCLIDEAN)


class SspWorkspace:
    """Reusable (M, B, K) float64 work arrays for ``ssp_loss_and_grad``.

    A training run allocates one workspace for its largest batch and passes
    it to every step, so a step allocates nothing of (M, B, K) size. A
    smaller batch uses the leading part of each buffer, which keeps its
    (M, B, K) views contiguous.
    """

    _BUFFERS = 6

    def __init__(self, m: int, k: int, rows: int) -> None:
        self._flat = np.empty((self._BUFFERS, m * k * rows))

    def arrays(self, m: int, k: int, rows: int) -> list[np.ndarray]:
        """The buffers as (m, rows, k) views; the workspace must hold m * rows * k values."""
        size = m * rows * k
        return [buf[:size].reshape(m, rows, k) for buf in self._flat]


def _similarity(
    codebook: ProductCodebook, u: np.ndarray, kind: str, out: np.ndarray, aux: np.ndarray
) -> np.ndarray | None:
    """Write the (M, B, K) similarities of (M, B, d*) subvectors ``u`` into ``out``.

    Under cosine, ``aux`` is left holding the (M, B, K) denominators and the
    (M, B) subvector norms are returned; under negative-Euclidean ``aux`` is
    scratch and None is returned. The Euclidean distance is the root of the
    quantizer's squared-distance kernel, so it equals the root of the ADC
    table bit for bit.
    """
    if kind == SIM_COSINE:
        np.matmul(u, codebook.stacked().transpose(0, 2, 1), out=out)
        u_norms = np.linalg.norm(u, axis=2)
        np.multiply(codebook.centroid_norms()[:, None, :], u_norms[:, :, None], out=aux)
        aux += COSINE_EPS
        out /= aux
        return u_norms
    subvector_sq_dists(codebook.stacked(), u, out, aux)
    np.sqrt(out, out=out)
    np.negative(out, out=out)
    return None


def _soften_into(
    values: np.ndarray, temperature: float, logits: np.ndarray, probs: np.ndarray
) -> np.ndarray:
    """Temperature softmax of ``values`` along the last axis, in log space.

    Writes the shifted logits t = (values - max) / temperature into
    ``logits`` (which may be ``values`` itself) and exp(t) / sum exp(t) into
    ``probs``, and returns log sum exp(t), so log probs = t - lse. At
    temperature 0, ``probs`` is the one-hot argmax (ties to the lowest
    index), and the logits and lse are 0, so sum probs * log probs is 0.
    """
    if temperature == 0:
        hard = np.argmax(values, axis=-1)[..., None]
        probs.fill(0.0)
        np.put_along_axis(probs, hard, 1.0, axis=-1)
        logits.fill(0.0)
        return np.zeros(values.shape[:-1])
    np.subtract(values, values.max(axis=-1, keepdims=True), out=logits)
    if temperature != 1.0:
        logits /= temperature
    np.exp(logits, out=probs)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    return np.log(total[..., 0])


def _grad_through_similarity(
    codebook: ProductCodebook,
    u: np.ndarray,
    kind: str,
    s: np.ndarray,
    w: np.ndarray,
    aux: np.ndarray,
    u_norms: np.ndarray | None,
) -> np.ndarray:
    """Map dLoss/dS ``w`` (M, B, K) to dLoss/du (M, B, d*) for the chosen kernel.

    ``s`` is the similarity of ``u``; under cosine ``aux`` holds its
    denominators and ``u_norms`` its subvector norms, as ``_similarity``
    left them. ``w`` is overwritten, and so is ``aux`` under
    negative-Euclidean. Dead subspaces (near-zero subvector norm under
    cosine, or a subvector sitting exactly on a centroid under
    negative-Euclidean) get zero gradient; the kernels are flat or
    non-differentiable there.
    """
    cents = codebook.stacked()
    if kind == SIM_COSINE:
        w /= aux
        term1 = np.matmul(w, cents)
        w *= s
        coef = np.matmul(w, codebook.centroid_norms()[:, :, None])[:, :, 0]
        dead = u_norms < NORM_EPS
        grad = term1 - (coef / np.where(dead, 1.0, u_norms))[:, :, None] * u
        grad[dead] = 0.0
        return grad
    np.negative(s, out=aux)
    # An infinite distance gives the centroid under the subvector zero weight.
    np.copyto(aux, np.inf, where=aux < NORM_EPS)
    w /= aux
    # sum_k w_k * (c_k - u)
    return np.matmul(w, cents) - w.sum(axis=2)[:, :, None] * u


def structure_similarity(
    codebook: ProductCodebook, x: np.ndarray, kind: str = SIM_COSINE
) -> np.ndarray:
    """(B, M, K) similarities of each row's subvectors against its subspace's K centroids.

    Raises:
        BadConfigError: if ``kind`` is not a known similarity kind.
        LengthMismatchError: if ``x`` is not a (B, codebook.dim) matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    if kind not in SIMILARITY_KINDS:
        raise BadConfigError(f"unknown similarity kind {kind!r}")
    if x.ndim != 2 or x.shape[1] != codebook.dim:
        raise LengthMismatchError(f"embeddings have shape {x.shape}, codebook dim {codebook.dim}")
    out = np.empty((codebook.m, x.shape[0], codebook.k))
    _similarity(codebook, subvectors(x, codebook.m), kind, out, np.empty_like(out))
    return out.transpose(1, 0, 2)


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
    probs = np.empty_like(values)
    _soften_into(values, temperature, np.empty_like(values), probs)
    return probs


def ssp_loss_and_grad(
    codebook: ProductCodebook,
    g: np.ndarray,
    q: np.ndarray,
    tau_g: float,
    tau_q: float,
    kind: str = SIM_COSINE,
    workspace: SspWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Alignment loss between (B, d) float64 gallery and query embeddings plus dLoss/dq.

    The gallery embeddings are treated as constants. ``tau_g`` may be 0
    (hard assignment); ``tau_q`` must be positive so the query distribution
    has full support. Both sides are softened in log space in (M, B, K)
    layout: KL = sum p_g * log p_g - sum p_g * log p_q, and dLoss/dS_q =
    (p_q - p_g) / tau_q. ``workspace`` holds the (M, B, K) work arrays; a
    training run passes one for all its steps, and a call without one
    allocates its own.

    Returns:
        (losses, gradient): per-sample losses (B,), each the sum of its M
        per-subspace KL divergences, and the (B, d) exact derivative of
        each sample's loss through the softmax and the similarity kernel.

    Raises:
        ZeroTargetProbabilityError: if the query distribution underflows to
            zero probability where the gallery distribution is positive (the
            divergence would be infinite).
    """
    m, b, k = codebook.m, q.shape[0], codebook.k
    if workspace is None:
        workspace = SspWorkspace(m, k, b)
    s_q, aux, t_q, p_q, t_g, p_g = workspace.arrays(m, k, b)
    u_q = subvectors(q, codebook.m)
    # A tiny temperature may overflow the logits to -inf, and -inf - -inf is
    # NaN; both happen only where a probability is 0 and are handled below.
    with np.errstate(over="ignore", invalid="ignore"):
        _similarity(codebook, subvectors(g, codebook.m), kind, t_g, aux)
        lse_g = _soften_into(t_g, tau_g, t_g, p_g)
        u_norms = _similarity(codebook, u_q, kind, s_q, aux)
        lse_q = _soften_into(s_q, tau_q, t_q, p_q)
        if p_q.min() == 0.0 and np.any((p_q == 0.0) & (p_g > 0.0)):
            raise ZeroTargetProbabilityError(
                "query distribution has zero probability on the gallery support"
            )
        # sum_k p_g (log p_g - log p_q), with sum_k p_g = 1
        np.subtract(t_g, t_q, out=t_g)
        kl = np.einsum("mbk,mbk->mb", p_g, t_g)
        if not np.isfinite(kl).all():
            # 0 * ln(0/x) := 0 where a logit overflowed.
            np.copyto(t_g, 0.0, where=p_g == 0.0)
            kl = np.einsum("mbk,mbk->mb", p_g, t_g)
        kl += lse_q - lse_g
        np.subtract(p_q, p_g, out=p_q)
        if tau_q != 1.0:
            p_q /= tau_q  # dLoss/dS_q
        grad = _grad_through_similarity(codebook, u_q, kind, s_q, p_q, aux, u_norms)
    return kl.sum(axis=0), grad.transpose(1, 0, 2).reshape(q.shape)


def regression_loss_and_grad(g: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct feature-matching baseline: squared L2 between unit-normalized (B, d) embeddings.

    Returns:
        (losses, gradient): per-sample losses (B,) and the (B, d) gradient,
        analytic through the query-side normalization; the gallery
        embeddings are constants. A degenerate (zero-norm) query row gets
        zero gradient.
    """
    nq, degenerate = normalize_rows(q)
    ng, _ = normalize_rows(g)
    r = nq - ng
    losses = np.einsum("bd,bd->b", r, r)
    qn = np.where(degenerate, 1.0, np.linalg.norm(q, axis=1))
    grad = (2.0 / qn)[:, None] * (r - nq * np.einsum("bd,bd->b", nq, r)[:, None])
    grad[degenerate] = 0.0
    return losses, grad
