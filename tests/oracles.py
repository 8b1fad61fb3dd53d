"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they verify: brute-force enumeration
for k-means, explicit reconstruction and a Python-float running sum for ADC,
central finite differences for gradients, a double-loop scan for retrieval, a
Python sort by (key, id) for ranking a key matrix, a per-trial loop for greedy
k-means++ seeding, a per-dimension loop for nearest centroids, scalar
per-subvector similarity kernels for the batched structure similarities, a
running sum over every rank for average precision, and a probability-space KL
divergence for the log-space SSP loss, the allocating expression forms of
the encoder's forward pass and the mixture draws, and the ``csv`` module for
the label sidecar. ``structure_similarity`` and
``soften`` are the exception: checked (B, M, K) entry points to the loss's
own similarity and softmax kernels, which no library code calls, kept so the
tests can hold those kernels against the references here.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from sspq.errors import (
    BadConfigError,
    IndivisibleDimensionError,
    LengthMismatchError,
    ShapeMismatchError,
    ZeroTargetProbabilityError,
    check_real,
)
from sspq.loss import SIM_COSINE, SIMILARITY_KINDS, _similarity, _soften_into
from sspq.quantizer import adc_table, subvectors


def central_diff_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of a scalar function, in float64."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp.flat[i] += h
        xm.flat[i] -= h
        grad.flat[i] = (f(xp) - f(xm)) / (2.0 * h)
    return grad


def grad_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst per-coordinate error, normalized by the gradient's scale.

    The denominator is the max coordinate magnitude across both gradients
    (floored at 1e-8), so near-zero coordinates are judged at the scale of
    the vector rather than blowing up the ratio.
    """
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(np.abs(analytic).max(initial=0.0), np.abs(numeric).max(initial=0.0), 1e-8)
    return float(np.abs(analytic - numeric).max(initial=0.0) / scale)


def brute_force_kmeans_objective(x: np.ndarray, k: int) -> float:
    """Global k-means optimum by enumerating all k^n assignments."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    best = np.inf
    for assign in itertools.product(range(k), repeat=n):
        assign = np.asarray(assign)
        obj = 0.0
        for c in range(k):
            members = x[assign == c]
            if members.shape[0]:
                obj += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, obj)
    return best


def split_subvectors(v: np.ndarray, m: int) -> list[np.ndarray]:
    """Split a length-d vector into m contiguous subvectors of length d/m.

    Raises:
        IndivisibleDimensionError: if d is not an exact multiple of m.
    """
    v = np.asarray(v, dtype=np.float64)
    d = v.shape[0]
    if m < 1 or d % m != 0:
        raise IndivisibleDimensionError(f"dim {d} is not a multiple of {m}")
    return list(np.split(v, m))


def cosine_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity a.b / (|a||b| + 1e-12); 0 for zero-norm inputs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatchError(f"lengths differ: {a.shape} vs {b.shape}")
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b)) + 1e-12
    return float(np.dot(a, b) / denom)


def neg_euclid_sim(a: np.ndarray, b: np.ndarray) -> float:
    """Negative Euclidean distance -|a - b|; 0 iff a == b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise LengthMismatchError(f"lengths differ: {a.shape} vs {b.shape}")
    return -float(np.linalg.norm(a - b))


def reconstruct(codebook, code) -> np.ndarray:
    """Concatenate the centroids an (M,) code points at; length-d float64 vector."""
    idx = np.asarray(code, dtype=np.int64)
    if idx.shape != (codebook.m,):
        raise LengthMismatchError(f"code has shape {idx.shape}, expected ({codebook.m},)")
    cents = codebook.stacked()
    return np.concatenate([cents[j, idx[j]] for j in range(codebook.m)])


def reconstruction_sq_dist(codebook, code, query: np.ndarray) -> float:
    """Exact squared distance between a query and a code's reconstruction."""
    diff = np.asarray(query, dtype=np.float64) - reconstruct(codebook, code)
    return float(np.dot(diff, diff))


def running_sum_adc(codebook, codes, queries: np.ndarray) -> np.ndarray:
    """Reference ADC keys, (nq, n): each score is the Python-float running sum of
    the query's ``adc_table`` entries at the code's centroids, in subspace order."""
    tables = adc_table(codebook, np.atleast_2d(queries)).tolist()
    rows = np.asarray(codes).tolist()
    scores = np.empty((len(tables), len(rows)))
    for q, table in enumerate(tables):
        for i, code in enumerate(rows):
            total = 0.0
            for j, c in enumerate(code):
                total += table[j][c]
            scores[q, i] = total
    return scores


def double_loop_search(queries: np.ndarray, gallery: np.ndarray) -> list[list[int]]:
    """Reference retrieval: per-pair cosine, sorted descending, ties by id."""
    out = []
    for q in queries:
        scores = []
        for gid, g in enumerate(gallery):
            denom = np.linalg.norm(q) * np.linalg.norm(g) + 1e-12
            scores.append((-float(np.dot(q, g) / denom), gid))
        scores.sort()
        out.append([gid for _, gid in scores])
    return out


def stable_order(keys: np.ndarray) -> np.ndarray:
    """Reference ranking: each row's ids sorted by (key, id) in Python, so -0.0 and 0.0 tie."""
    return np.array([sorted(range(len(row)), key=lambda i: (row[i], i)) for row in np.asarray(keys).tolist()])


def full_width_average_precision(hits: np.ndarray) -> np.ndarray:
    """Per-query AP as a running sum of precision over every rank of the (nq, n) mask.

    Non-hit ranks add an exact 0.0; the last entry of the sum is the total.
    """
    hits = np.asarray(hits, dtype=bool)
    precision = np.cumsum(hits, axis=-1) / np.arange(1, hits.shape[-1] + 1)
    return np.cumsum(np.where(hits, precision, 0.0), axis=-1)[..., -1] / hits.sum(axis=-1)


def structure_similarity(codebook, x: np.ndarray, kind: str = SIM_COSINE) -> np.ndarray:
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
        BadConfigError: unless ``temperature`` is a finite real number >= 0.
    """
    check_real("temperature", temperature, positive=False)
    values = np.asarray(values, dtype=np.float64)
    probs = np.empty_like(values)
    _soften_into(values, temperature, np.empty_like(values), probs)
    return probs


def direct_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Plain elementwise KL sum with the 0*log(0) convention."""
    total = 0.0
    for pi, qi in zip(np.ravel(p), np.ravel(q)):
        if pi > 0:
            total += pi * np.log(pi / qi)
    return total


def kl_loss(p_g: np.ndarray, p_q: np.ndarray) -> np.ndarray:
    """KL(p_g || p_q) along the last axis, with the 0*ln(0/x) := 0 convention.

    Works on probabilities, where the library's SSP step works on log-softmax
    logits.

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


def greedy_kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Reference greedy k-means++ seeding: one exact distance pass per trial.

    Each step draws 2 + floor(log2(k)) D^2-weighted candidates, scores each
    with an explicit ``(x - c)**2`` difference, and keeps the first candidate
    with the smallest potential (strict ``<`` in trial order).
    """
    n = x.shape[0]
    trials = 2 + int(math.log2(k)) if k > 1 else 1
    centroids = np.empty((k, x.shape[1]), dtype=np.float64)
    centroids[0] = x[int(rng.integers(n))]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centroids[i] = x[int(rng.integers(n))]
            continue
        cumulative = np.cumsum(d2)
        best_idx, best_d2, best_potential = -1, d2, math.inf
        for threshold in rng.random(trials) * total:
            idx = min(int(np.searchsorted(cumulative, threshold, side="right")), n - 1)
            cand_d2 = np.minimum(d2, ((x - x[idx]) ** 2).sum(axis=1))
            potential = float(cand_d2.sum())
            if potential < best_potential:
                best_idx, best_d2, best_potential = idx, cand_d2, potential
        centroids[i] = x[best_idx]
        d2 = best_d2
    return centroids


def per_dimension_argmin(u: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """(M, n) index of each (M, n, d*) subvector's nearest (M, K, d*) centroid.

    The squared distance adds one dimension's squared difference at a time,
    and ties go to the lowest centroid index.
    """
    dist = np.zeros((u.shape[0], u.shape[1], centroids.shape[1]))
    for j in range(u.shape[2]):
        dist += (u[:, :, None, j] - centroids[:, None, :, j]) ** 2
    return np.argmin(dist, axis=2)


def expression_forward(enc, x: np.ndarray) -> np.ndarray:
    """Unit output rows of ``enc`` on ``x``, with a new array for each affine map, tanh and normalization."""
    h = x
    last = len(enc.weights) - 1
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        h = h @ w.T + b
        if i != last:
            h = np.tanh(h)
    norms = np.linalg.norm(h, axis=1)
    return h / np.where(norms < 1e-12, 1.0, norms)[:, None]


def expression_mixture(num_classes: int, per_class: int, d_in: int, cluster_std: float, seed: int,
                       anchor_count: int, train_per_class: int) -> dict[str, np.ndarray]:
    """``gen_mixture``'s raw rows by split, from the same draws as ``means + noise * cluster_std``."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(num_classes, d_in))
    means = means / np.linalg.norm(means, axis=1)[:, None]
    pool = means[:, None] + rng.normal(0.0, 1.0, size=(num_classes, per_class, d_in)) * cluster_std
    train = means[:, None] + rng.normal(0.0, 1.0, size=(num_classes, train_per_class, d_in)) * cluster_std
    anchor_labels = rng.integers(0, num_classes, size=anchor_count, dtype=np.int64)
    anchors = means[anchor_labels] + rng.normal(0.0, 1.0, size=(anchor_count, d_in)) * cluster_std
    return {
        "anchor": anchors,
        "train": train.reshape(-1, d_in),
        "query": pool[:, 0],
        "gallery": pool[:, 1:].reshape(-1, d_in),
    }


def csv_labels(labels) -> bytes:
    """A label sidecar's bytes: ``id,label``, then each row index and label, through the default ``csv`` dialect."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([["id", "label"], *([i, int(label)] for i, label in enumerate(labels))])
    return buf.getvalue().encode()
