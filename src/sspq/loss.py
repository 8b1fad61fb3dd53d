"""Structure similarities, temperature softening, and the KL alignment loss.

Every function works on a batch. Each row of a (B, d) batch of embeddings
is split into M subvectors and compared subspace-by-subspace against the
codebook centroids, giving (B, M, K) structure similarities; internally
they are computed subspace-major, (M, B, K), the layout of the per-subspace
matmul. Both sides are softened with a temperature into distributions
over K and matched with a per-subspace KL divergence. The gallery side is
frozen, so ``gallery_targets`` scores it once per training run for every
training row, allocates the run's work arrays and picks the form of its
targets once, from the kernel, tau_q and K. The cosine kernel is one matmul
of the unit subvectors against the codebook's unit centroids, a norm below
``NORM_EPS`` giving 0. At a tau_q at or above a limit fixed by K, a cosine
step exponentiates its bounded similarities without a shift, and since the
kernel is linear in the unit centroids it reads the targets p_g only
through each row's expected unit centroids c̄_g = p_g @ unit centroids,
which the run keeps in place of p_g: n·M·d* floats, not n·M·K. Every other
run keeps p_g, and its steps soften the query side in log space, shifting
each row by its maximum. Analytic gradients with respect to the query
embeddings are exact through the softmax and the chosen similarity kernel.
A single embedding is a batch of one. ``gallery_targets`` rejects targets
that are not finite; beyond that, neither it nor the two per-step losses
check their arguments: ``TrainConfig`` and ``train_query_model`` check them
once per run.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .embeddings import NORM_EPS, normalize_rows
from .errors import ZeroTargetProbabilityError, check_finite
from .quantizer import ProductCodebook, subvector_sq_dists, subvectors

SIM_COSINE = "cosine"
SIM_NEG_EUCLIDEAN = "l2"
SIMILARITY_KINDS = (SIM_COSINE, SIM_NEG_EUCLIDEAN)

# A computed cosine similarity is a dot product of two computed unit
# vectors of d* coordinates, each within about (d*+2)·2^-53 of norm 1, and
# the product adds at most d*·2^-53 of relative error, so |s| <= 1 + delta
# with delta = (3d*+4)·2^-53·(1 + 2^-20) < 2^-18 for every d* <= 2^32.
COSINE_BOUND = 1.0 + 2.0**-18


def cosine_tau_q_limit(k: int) -> float:
    """The least tau_q at which a cosine run keeps c̄_g and its step exponentiates s_q / tau_q directly.

    A cosine row spans at most 2(1 + delta), so at or above
    2(1 + delta) / (1074 ln 2 - ln K) every e = exp(s_q / tau_q) is a normal
    float whose row sum of K terms is finite, and each e / sum e is at least
    2^-1074: no query probability can round to 0.
    """
    return 2.0 * COSINE_BOUND / (1074 * math.log(2.0) - math.log(k))


class GalleryTargets(NamedTuple):
    """The frozen gallery side of an SSP run and its steps' work arrays, as ``gallery_targets`` returns them.

    The run picks its target form once, and ``direct`` records it: if set,
    ``expected`` is the (M, n, d*) expected unit centroids c̄_g = p_g @ unit
    centroids of every row, and otherwise the (M, n, K) target
    distributions p_g. ``neg_entropy`` is their (M, n) sums over k of
    p_g log p_g, with 0 log 0 := 0. ``work`` holds five (M, b, K) slots and
    ``vectors`` three (M, b, d*) slots for steps of up to b rows. ``tau_q``
    and ``kind`` are the query temperature and the kernel of every step.
    """

    expected: np.ndarray
    neg_entropy: np.ndarray
    work: np.ndarray
    vectors: np.ndarray
    tau_q: float
    kind: str
    direct: bool


def _similarity(
    codebook: ProductCodebook,
    u: np.ndarray,
    kind: str,
    out: np.ndarray,
    aux: np.ndarray,
    vec: tuple[np.ndarray, np.ndarray],
) -> tuple[np.ndarray, np.ndarray] | None:
    """Write the (M, B, K) similarities of (M, B, d*) subvectors ``u`` into ``out``.

    Under cosine, ``aux`` is not touched, the unit subvectors are written to
    the first of the two (M, B, d*) arrays ``vec`` and the second is scratch,
    and (unit subvectors, (M, B) norms) is returned, a norm below
    ``NORM_EPS`` as inf, so its unit subvector is 0. Under negative-Euclidean
    ``aux`` is scratch, ``vec`` is not touched and None is returned. The
    Euclidean distance is the root of the quantizer's squared-distance
    kernel, so it equals the root of the ADC table bit for bit.
    """
    if kind == SIM_COSINE:
        unit, spread = vec
        norms = np.linalg.norm(u, axis=2)
        norms[norms < NORM_EPS] = np.inf
        # A ufunc buffers a strided or broadcast operand, so the divide
        # reads copies of both.
        np.copyto(unit, u)
        np.copyto(spread, norms[:, :, None])
        unit /= spread
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
    ``scratch``, of the shape of ``values``, spreads the row maxima and sums,
    since a ufunc buffers an operand broadcast along the last axis.
    """
    if temperature == 0:
        hard = np.argmax(values, axis=-1)[..., None]
        probs.fill(0.0)
        np.put_along_axis(probs, hard, 1.0, axis=-1)
        logits.fill(0.0)
        return np.zeros(values.shape[:-1])
    np.copyto(scratch, values.max(axis=-1)[..., None])
    np.subtract(values, scratch, out=logits)
    if temperature != 1.0:
        logits /= temperature
    np.exp(logits, out=probs)
    total = probs.sum(axis=-1)
    np.copyto(scratch, total[..., None])
    probs /= scratch
    return np.log(total)


def _cosine_grad(grad: np.ndarray, unit_norms: tuple[np.ndarray, np.ndarray], spread: np.ndarray) -> np.ndarray:
    """Map g = dLoss/dS @ unit centroids (M, B, d*), in place in ``grad``, to dLoss/du = (g - û (û·g)) / |u|.

    ``unit_norms`` is what cosine ``_similarity`` returned for u, and
    ``spread`` is scratch of the shape of ``grad``. A degenerate subvector,
    whose norm is inf, gets gradient 0: the kernel is flat there.
    """
    unit, norms = unit_norms
    np.copyto(spread, np.einsum("mbd,mbd->mb", unit, grad)[:, :, None])
    spread *= unit
    grad -= spread
    np.copyto(spread, norms[:, :, None])
    grad /= spread
    return grad


def _neg_euclidean_grad(
    codebook: ProductCodebook, u: np.ndarray, s: np.ndarray, w: np.ndarray, aux: np.ndarray
) -> np.ndarray:
    """Map dLoss/dS ``w`` (M, B, K) to dLoss/du (M, B, d*) under negative-Euclidean.

    ``s`` is what ``_similarity`` wrote for ``u``, and ``w`` and ``aux`` are
    overwritten. A subvector exactly on a centroid gets no gradient from it:
    the kernel is kinked there.
    """
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
    codebook: ProductCodebook, g: np.ndarray, tau_g: float, tau_q: float, kind: str, batch_rows: int
) -> GalleryTargets:
    """The frozen gallery side of the SSP loss for every row of (n, d) float64 embeddings ``g``.

    Allocates the run's work arrays for steps of up to b = min(``batch_rows``,
    n) rows and softens the gallery similarities at ``tau_g`` (0 is hard
    assignment) in blocks of b rows in their slots. A row's values do not
    depend on the other rows of a block of two or more, and the last block
    ends at row n, so no row is scored alone unless b is 1: a one-row cosine
    matmul is a matrix-vector product, which rounds differently. The run
    picks its target form once: under cosine at a ``tau_q`` at or above
    ``cosine_tau_q_limit(K)`` each block's p_g is reduced to its expected
    unit centroids at once, so nothing of (M, n, K) size is allocated, and
    every other run keeps p_g itself.

    Raises:
        NonFiniteInputError: if a row's targets are not finite: the row
            holds a NaN or an infinity, or, under negative-Euclidean, its
            distances to every centroid overflow.
    """
    m, n, k = codebook.m, g.shape[0], codebook.k
    b = min(batch_rows, n)
    work, vectors = np.empty((5, m * b * k)), np.empty((3, b * g.shape[1]))
    t, aux, p = work[:3].reshape(3, m, b, k)
    vec = vectors[:2].reshape(2, m, b, -1)
    direct = kind == SIM_COSINE and tau_q >= cosine_tau_q_limit(k)
    expected = np.empty((m, n, vec.shape[3] if direct else k))
    neg_entropy = np.empty((m, n))
    # A tiny temperature may overflow the logits to -inf, and 0 * -inf is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, b):
            start = min(start, n - b)
            block = slice(start, start + b)
            if not direct:
                p = expected[:, block]
            _similarity(codebook, subvectors(g[block], m), kind, t, aux, vec)
            lse = _soften_into(t, tau_g, t, p, aux)
            # log p_g = t - lse and sum_k p_g = 1
            np.subtract(_expectation(p, t), lse, out=neg_entropy[:, block])
            if direct:
                # A (1, K) @ (K, d*) product a row: a block's matmul would
                # round a row by its place in the block.
                np.matmul(p[:, :, None], codebook.unit_centroids()[:, None], out=expected[:, block, None])
    check_finite(neg_entropy, "a gallery row's targets are not finite: a NaN or inf, or overflowing l2 distances")
    return GalleryTargets(expected, neg_entropy, work, vectors, tau_q, kind, direct)


def ssp_loss_and_grad(
    codebook: ProductCodebook, targets: GalleryTargets, rows: np.ndarray, q: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Alignment loss of (B, d) float64 query embeddings against gallery rows ``rows`` plus dLoss/dq.

    ``targets`` is ``gallery_targets`` of the gallery embeddings, for
    batches of B or more rows, and fixes the query temperature tau_q and the
    similarity kernel; its rows ``rows`` (B in-range indices) pair with the
    rows of ``q`` and are constants, and its work arrays hold the step's
    arrays. KL = sum p_g log p_g - sum p_g log p_q and dLoss/dS_q =
    (p_q - p_g) / tau_q.

    If the targets hold c̄_g, the cosine similarities are bounded, so
    e = exp(s_q / tau_q) is taken without a shift and the step reads p_g
    only through c̄_g: KL = sum p_g log p_g - (û·c̄_g) / tau_q + log sum e,
    and (p_q - p_g) @ unit centroids = (e @ unit centroids) / sum e - c̄_g.
    A NaN query row stays NaN in its own row. If they hold p_g, the query
    side is softened in log space, with t_q the logits shifted by their row
    maxima, log p_q = t_q - lse_q, and the targets p_g gathered.

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
    tau_q, kind = targets.tau_q, targets.kind
    s_q, aux, t_q, p_q, p_g = targets.work[:, : m * b * k].reshape(5, m, b, k)
    unit_q, grad, spread = targets.vectors[:, : q.size].reshape(3, m, b, -1)
    u_q = subvectors(q, m)
    # A tiny temperature may overflow the logits to -inf, and -inf * 0 is
    # NaN; both happen only where a probability is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        unit_norms = _similarity(codebook, u_q, kind, s_q, aux, (unit_q, spread))
        if targets.direct:
            # e = exp(s_q / tau_q), unshifted; see the docstring.
            e = s_q if tau_q == 1.0 else np.divide(s_q, tau_q, out=p_q)
            np.exp(e, out=e)
            total = e.sum(axis=-1)
            np.matmul(e, codebook.unit_centroids(), out=grad)
            np.copyto(spread, total[:, :, None])
            grad /= spread
            np.take(targets.expected, rows, axis=1, out=spread, mode="clip")
            kl = targets.neg_entropy[:, rows] - np.einsum("mbd,mbd->mb", unit_q, spread) / tau_q + np.log(total)
            grad -= spread
            if tau_q != 1.0:
                grad /= tau_q
        else:
            lse_q = _soften_into(s_q, tau_q, t_q, p_q, aux)
            # Rows come from the training loop's permutation; "clip" skips
            # the bounds pass that would buffer the gather.
            np.take(targets.expected, rows, axis=1, out=p_g, mode="clip")
            if p_q.min() == 0.0 and np.any((p_q == 0.0) & (p_g > 0.0)):
                raise ZeroTargetProbabilityError(
                    "query distribution has zero probability on the gallery support"
                )
            # sum_k p_g (log p_g - log p_q) with log p_q = t_q - lse_q and sum_k p_g = 1
            kl = targets.neg_entropy[:, rows] - _expectation(p_g, t_q) + lse_q
            np.subtract(p_q, p_g, out=p_q)
            if tau_q != 1.0:
                p_q /= tau_q  # dLoss/dS_q
            if kind == SIM_COSINE:
                np.matmul(p_q, codebook.unit_centroids(), out=grad)
        if kind == SIM_COSINE:
            grad = _cosine_grad(grad, unit_norms, spread)
        else:
            grad = _neg_euclidean_grad(codebook, u_q, s_q, p_q, aux)
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
