"""Structure similarities, temperature softening, and the KL alignment loss.

Every function works on a batch. Each row of a (B, d) batch of embeddings
is split into M subvectors and compared subspace-by-subspace against the
codebook centroids, giving (B, M, K) structure similarities; internally
they are computed subspace-major, (M, B, K), the layout of the per-subspace
matmul. Both sides are softened in log space into distributions over K
and matched with a per-subspace KL divergence. The gallery side is frozen,
so ``gallery_targets`` scores it once per training run for every training
row and allocates the run's one work array; each step reads its batch's
rows of those targets and softens only the trainable query side in that
array. The cosine kernel is one matmul of the unit subvectors against the
codebook's unit centroids, a norm below ``NORM_EPS`` giving 0. Analytic gradients with respect to the query embeddings are
exact through the softmax and the chosen similarity kernel.
A single embedding is a batch of one. The per-run targets and the two
per-step losses do not check their arguments: ``TrainConfig`` and
``train_query_model`` check them once per run.
"""

from __future__ import annotations

import numpy as np

from .embeddings import NORM_EPS, normalize_rows
from .errors import ZeroTargetProbabilityError
from .quantizer import ProductCodebook, subvector_sq_dists, subvectors

SIM_COSINE = "cosine"
SIM_NEG_EUCLIDEAN = "l2"
SIMILARITY_KINDS = (SIM_COSINE, SIM_NEG_EUCLIDEAN)


def _similarity(
    codebook: ProductCodebook, u: np.ndarray, kind: str, out: np.ndarray, aux: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Write the (M, B, K) similarities of (M, B, d*) subvectors ``u`` into ``out``.

    Under cosine, ``aux`` is not touched, and the (M, B, d*) unit subvectors
    and their (M, B) norms are returned, a norm below ``NORM_EPS`` as inf,
    so its unit subvector is 0. Under negative-Euclidean ``aux`` is scratch
    and None is returned. The Euclidean distance is the root of the
    quantizer's squared-distance kernel, so it equals the root of the ADC
    table bit for bit.
    """
    if kind == SIM_COSINE:
        norms = np.linalg.norm(u, axis=2)
        norms[norms < NORM_EPS] = np.inf
        unit = u / norms[:, :, None]
        np.matmul(unit, codebook.unit_centroids().transpose(0, 2, 1), out=out)
        return unit, norms
    subvector_sq_dists(codebook.stacked(), u, out, aux)
    np.sqrt(out, out=out)
    np.negative(out, out=out)
    return None


def _soften_into(
    values: np.ndarray, temperature: float, logits: np.ndarray, probs: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Temperature softmax of ``values`` along the last axis, in log space.

    Writes the shifted logits t = (values - max) / temperature into
    ``logits`` (which may be ``values`` itself) and exp(t) / sum exp(t) into
    ``probs``, and returns log sum exp(t), so log probs = t - lse. At
    temperature 0, ``probs`` is the one-hot argmax (ties to the lowest
    index), and the logits and lse are 0, so sum probs * log probs is 0.
    The row maxima and sums are spread into ``scratch``, of the shape of
    ``values``, since a ufunc buffers an operand broadcast along the last axis.
    """
    if temperature == 0:
        hard = np.argmax(values, axis=-1)[..., None]
        probs.fill(0.0)
        np.put_along_axis(probs, hard, 1.0, axis=-1)
        logits.fill(0.0)
        return np.zeros(values.shape[:-1])
    np.copyto(scratch, values.max(axis=-1, keepdims=True))
    np.subtract(values, scratch, out=logits)
    if temperature != 1.0:
        logits /= temperature
    np.exp(logits, out=probs)
    total = probs.sum(axis=-1)
    np.copyto(scratch, total[..., None])
    probs /= scratch
    return np.log(total)


def _grad_through_similarity(
    codebook: ProductCodebook,
    u: np.ndarray,
    kind: str,
    s: np.ndarray,
    w: np.ndarray,
    aux: np.ndarray,
    unit_norms: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray:
    """Map dLoss/dS ``w`` (M, B, K) to dLoss/du (M, B, d*) for the chosen kernel.

    ``s`` and ``unit_norms`` are what ``_similarity`` wrote and returned for
    ``u``. Under cosine it is (g - û (û·g)) / |u| with g = w @ unit centroids;
    under negative-Euclidean ``w`` and ``aux`` are overwritten. Dead subspaces
    (a degenerate subvector under cosine, or one exactly on a centroid under
    negative-Euclidean) get zero gradient: the kernel is flat or kinked there.
    """
    if kind == SIM_COSINE:
        unit, norms = unit_norms
        grad = np.matmul(w, codebook.unit_centroids())
        grad -= unit * np.einsum("mbd,mbd->mb", unit, grad)[:, :, None]
        grad /= norms[:, :, None]  # 0 where the norm is inf
        return grad
    np.negative(s, out=aux)
    # An infinite distance gives the centroid under the subvector zero weight.
    np.copyto(aux, np.inf, where=aux < NORM_EPS)
    w /= aux
    # sum_k w_k * (c_k - u)
    return np.matmul(w, codebook.stacked()) - w.sum(axis=2)[:, :, None] * u


def _expectation(p: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The (M, B) sums over k of (M, B, K) ``p`` times ``t``, with 0 * t := 0.

    0 * -inf is NaN, so if a logit overflowed, ``t`` is set to 0 wherever ``p`` is 0.
    """
    total = np.einsum("mbk,mbk->mb", p, t)
    if not np.isfinite(total).all():
        np.copyto(t, 0.0, where=p == 0.0)
        total = np.einsum("mbk,mbk->mb", p, t)
    return total


def gallery_targets(
    codebook: ProductCodebook, g: np.ndarray, tau_g: float, kind: str, batch_rows: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The frozen gallery side of the SSP loss for every row of (n, d) float64 embeddings ``g``.

    Allocates the run's one work array, five (M, b, K) slots for steps of up
    to b = min(``batch_rows``, n) rows, and softens the gallery similarities
    at ``tau_g`` (0 is hard assignment) in blocks of b rows in its first two
    slots, so nothing of (M, n, K) size is allocated but ``p_g``. A row's
    values do not depend on the other rows of a block of two or more.

    Returns:
        (p_g, neg_entropy, workspace): the (M, n, K) target distributions,
        their (M, n) sums over k of p_g log p_g, with 0 log 0 := 0, and the
        work array that ``ssp_loss_and_grad`` takes with them.
    """
    m, n, k = codebook.m, g.shape[0], codebook.k
    b = min(batch_rows, n)
    workspace = np.empty((5, m * b * k))
    t, aux = workspace[:2].reshape(2, m, b, k)
    p_g, neg_entropy = np.empty((m, n, k)), np.empty((m, n))
    # A tiny temperature may overflow the logits to -inf, and 0 * -inf is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, b):
            # The last block ends at row n, so no row is scored alone: a
            # one-row cosine matmul is a matrix-vector product, which rounds
            # differently.
            start = min(start, n - b)
            block = slice(start, start + b)
            p = p_g[:, block]
            _similarity(codebook, subvectors(g[block], m), kind, t, aux)
            lse = _soften_into(t, tau_g, t, p, aux)
            # log p_g = t - lse and sum_k p_g = 1
            np.subtract(_expectation(p, t), lse, out=neg_entropy[:, block])
    return p_g, neg_entropy, workspace


def ssp_loss_and_grad(
    codebook: ProductCodebook,
    targets: tuple[np.ndarray, np.ndarray, np.ndarray],
    rows: np.ndarray,
    q: np.ndarray,
    tau_q: float,
    kind: str,
) -> tuple[np.ndarray, np.ndarray]:
    """Alignment loss of (B, d) float64 query embeddings against gallery rows ``rows`` plus dLoss/dq.

    ``targets`` is ``gallery_targets`` of the gallery embeddings, for
    batches of B or more rows; its rows ``rows`` (B in-range indices) pair
    with the rows of ``q`` and are constants, and its work array holds the
    step's five (M, B, K) arrays. ``tau_q`` must be positive so the query
    distribution has full support. The query side is softened in log space:
    KL = sum p_g log p_g - sum p_g * t_q + lse_q, with t_q the shifted query
    logits, and dLoss/dS_q = (p_q - p_g) / tau_q. ``kind`` names the
    similarity kernel.

    Returns:
        (losses, gradient): per-sample losses (B,), each the sum of its M
        per-subspace KL divergences, and the (B, d) exact derivative of
        each sample's loss through the softmax and the similarity kernel.

    Raises:
        ZeroTargetProbabilityError: if the query distribution underflows to
            zero probability where the gallery distribution is positive (the
            divergence would be infinite).
    """
    p_g_all, neg_entropy, workspace = targets
    m, b, k = codebook.m, q.shape[0], codebook.k
    s_q, aux, t_q, p_q, p_g = workspace[:, : m * b * k].reshape(5, m, b, k)
    # Rows come from the training loop's permutation; "clip" skips the
    # bounds pass that would buffer the gather.
    np.take(p_g_all, rows, axis=1, out=p_g, mode="clip")
    u_q = subvectors(q, m)
    # A tiny temperature may overflow the logits to -inf, and -inf * 0 is
    # NaN; both happen only where a probability is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        unit_norms = _similarity(codebook, u_q, kind, s_q, aux)
        lse_q = _soften_into(s_q, tau_q, t_q, p_q, aux)
        if p_q.min() == 0.0 and np.any((p_q == 0.0) & (p_g > 0.0)):
            raise ZeroTargetProbabilityError(
                "query distribution has zero probability on the gallery support"
            )
        # sum_k p_g (log p_g - log p_q) with log p_q = t_q - lse_q and sum_k p_g = 1
        kl = neg_entropy[:, rows] - _expectation(p_g, t_q) + lse_q
        np.subtract(p_q, p_g, out=p_q)
        if tau_q != 1.0:
            p_q /= tau_q  # dLoss/dS_q
        grad = _grad_through_similarity(codebook, u_q, kind, s_q, p_q, aux, unit_norms)
    return kl.sum(axis=0), grad.transpose(1, 0, 2).reshape(q.shape)


def regression_loss_and_grad(
    unit_gallery: np.ndarray, rows: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Direct feature-matching baseline: squared L2 between unit-normalized (B, d) query rows and gallery rows.

    ``unit_gallery`` is ``normalize_rows`` of the gallery embeddings, and
    its rows ``rows`` pair with the rows of ``q``; they are constants.

    Returns:
        (losses, gradient): per-sample losses (B,) and the (B, d) gradient,
        analytic through the query-side normalization. A degenerate
        (zero-norm) query row gets zero gradient.
    """
    nq, degenerate = normalize_rows(q)
    r = nq - unit_gallery[rows]
    losses = np.einsum("bd,bd->b", r, r)
    qn = np.where(degenerate, 1.0, np.linalg.norm(q, axis=1))
    grad = (2.0 / qn)[:, None] * (r - nq * np.einsum("bd,bd->b", nq, r)[:, None])
    grad[degenerate] = 0.0
    return losses, grad
