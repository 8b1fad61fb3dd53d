"""Independent reference implementations used to cross-check the library.

These deliberately avoid the code paths they verify: brute-force enumeration
for k-means, explicit reconstruction for ADC, central finite differences for
gradients, a double-loop scan for retrieval, a per-trial loop for greedy
k-means++ seeding, and scalar per-subvector similarity kernels for the
batched structure similarities.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from sspq.errors import IndivisibleDimensionError, LengthMismatchError


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


def direct_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Plain elementwise KL sum with the 0*log(0) convention."""
    total = 0.0
    for pi, qi in zip(np.ravel(p), np.ravel(q)):
        if pi > 0:
            total += pi * np.log(pi / qi)
    return total


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
