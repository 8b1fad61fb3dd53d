"""Product-quantizer training, encoding, and ADC distance tables.

A codebook is trained by running seeded k-means independently on each of M
contiguous subvector blocks; the Cartesian product of the M sets of K
centroids implicitly defines K^M anchor points that are never materialized.
K-means training, encoding, the ADC tables and the negative-Euclidean
structure similarity split rows with ``subvectors``. The ADC tables and the
similarity read one subvector-to-centroid squared-distance kernel,
``subvector_sq_dists``; Lloyd's assignments and encoding score candidates by
a matmul and leave only the near ties to that kernel, so each is its argmin.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import as_embedding_matrix
from .errors import (
    EmptyInputError,
    FormatError,
    IndivisibleDimensionError,
    InvariantError,
    LengthMismatchError,
    NonPowerOfTwoKError,
    ShapeMismatchError,
    check_finite,
    check_int,
)
from .fileio import read_blob, read_values, write_blob

PQC_MAGIC = b"PQC1"
_PQC_HEADER = "<III"  # M, K, d

# Lloyd stops once an iteration lowers the objective by less than this share.
KMEANS_REL_TOL = 1e-4

# Elements in the (M, rows, K) score buffer of `_nearest_centroids`: 1 MiB, far below the
# 32 MiB ceiling of glibc's dynamic mmap threshold, so freed buffers are reused, not unmapped.
_CHUNK_ELEMENTS = 1 << 17

# Elements in a row block of `adc_scores`' (rows, nq) lookup buffer: 256 KiB, so the
# buffer and the block's rows of the result stay in cache while M lookups add up.
_ADC_BLOCK_ELEMENTS = 1 << 15


@dataclass
class KMeansResult:
    """Outcome of k-means on one (n, d) matrix or on an (M, n, d*) stack.

    For a matrix, ``centroids`` is (K, d), ``assignments`` (n,), ``objective``
    the final objective and ``objective_history`` the post-update objective
    per iteration, which is non-increasing. For a stack, ``centroids`` is
    (M, K, d*), ``assignments`` (M, n), and ``objective`` and
    ``objective_history`` hold one such entry per subspace. ``assignments``,
    exact-kernel argmins as ``encode_matrix``'s codes are, pair with the
    returned centroids (the last update step).
    ``iterations_run`` is the number of Lloyd iterations, summed over a stack.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    objective: float | list[float]
    iterations_run: int
    objective_history: list = field(default_factory=list)


def _kmeans_pp_init(xs: np.ndarray, k: int, rngs: list[np.random.Generator]) -> np.ndarray:
    """Greedy k-means++ seeding (Arthur & Vassilvitskii 2007) of every subspace of an (M, n, d*) stack.

    Subspace j draws from its own ``rngs[j]``. Each step draws 2 + floor(log2(k))
    candidate points per subspace with D^2-weighted sampling and keeps the
    candidate that minimizes the resulting potential; ties go to the earliest
    trial. A subspace whose potential is 0 picks a point with ``integers(n)``.

    All candidates of a step, in every subspace, are scored at once: their
    squared distances ``|x|^2 + |c|^2 - 2 x.c`` come from one
    ``(M, trials, d*+2) x (M, d*+2, n)`` matmul. Each matmul potential carries
    a forward-error bound in ``|x|^2``, ``|c|^2``, d* and n. Only the
    candidates whose potential lies within the bounds of the best one contend;
    usually that is the best one alone. They are rescored exactly in trial
    order with strict ``<``: the potential of candidate c sums
    ``min(d2, ((x - c)**2).sum(axis=1))``, with the exact distance computed
    only for the points whose matmul distance is not above their ``d2`` by
    more than its bound; every other point keeps ``d2``. Each row's reduction
    is independent, so a subset gives the bits of the full array, and the
    winner's rescored distances are the new ``d2``. So the centroids, the
    ``rng`` draws and the tie rule are bit for bit those of scoring every
    candidate exactly, one subspace at a time.
    """
    m, n, dim = xs.shape
    trials = 2 + int(math.log2(k)) if k > 1 else 1
    rows = np.arange(m)
    centroids = np.empty((m, k, dim), dtype=np.float64)
    centroids[:, 0] = xs[rows, [int(rng.integers(n)) for rng in rngs]]
    d2 = ((xs - centroids[:, :1]) ** 2).sum(axis=2)

    # Row c of `lhs[j]` times column x of `rhs[j]` is |x|^2 + |c|^2 - 2 x.c;
    # `lhs` holds the rows of each step's candidates.
    rhs = np.empty((m, dim + 2, n))
    rhs[:, :dim] = xs.transpose(0, 2, 1)
    rhs[:, dim] = 1.0
    x_sq = rhs[:, dim + 1]
    np.einsum("mnd,mnd->mn", xs, xs, out=x_sq)
    lhs = np.empty((m, trials, dim + 2))
    lhs[:, :, dim + 1] = 1.0
    # Twice the worst-case gap between a matmul potential and the exact one:
    # twice each point's, plus n eps |potential| over both sides for summing.
    norm_coef, point_floor = _form_gap_bound(dim)
    sum_coef = 2.0 * np.finfo(np.float64).eps * n
    x_sq_total = x_sq.sum(axis=1)

    # Buffers of every step. `trial` also holds the cumulative potentials and
    # the distance bounds before it holds a contender's distances; `d2` and
    # `nxt` swap after each step.
    idx = np.zeros((m, trials), dtype=np.intp)
    cand = np.empty((m, trials, n))
    potential = np.empty((m, trials))
    near, trial, nxt = np.empty((3, m, n))

    for i in range(1, k):
        totals = d2.sum(axis=1)
        live = ~(totals <= 0.0)
        cumulative = np.cumsum(d2, axis=1, out=trial)
        for j, rng in enumerate(rngs):
            if live[j]:
                idx[j] = np.searchsorted(cumulative[j], rng.random(trials) * totals[j], side="right")
            else:
                # Every point coincides with a chosen centroid; any pick works.
                centroids[j, i] = xs[j, int(rng.integers(n))]
        if not live.any():
            continue
        np.minimum(idx, n - 1, out=idx)
        np.multiply(xs[rows[:, None], idx], -2.0, out=lhs[:, :, :dim])
        lhs[:, :, dim] = x_sq[rows[:, None], idx]
        np.matmul(lhs, rhs, out=cand)
        np.minimum(cand, d2[:, None, :], out=cand)
        np.add.reduce(cand, axis=2, out=potential)
        bound = norm_coef * (x_sq_total[:, None] + n * lhs[:, :, dim])
        bound += sum_coef * np.abs(potential) + n * point_floor
        w = np.argmin(potential, axis=1)
        # NaN compares False, so a non-finite potential is always a contender.
        contends = ~(potential - bound > (potential[rows, w] + bound[rows, w])[:, None])
        contends &= live[:, None]
        rank = np.cumsum(contends, axis=1)

        best, best_idx = np.full(m, np.inf), np.full(m, -1)
        np.copyto(nxt, d2)
        # Round r rescores the r-th contender of every subspace that has one.
        # A repeated index scores like its first trial, which strict < keeps.
        for r in range(1, int(rank[:, -1].max()) + 1):
            at = contends & (rank == r)
            has = at.any(axis=1)
            t = np.argmax(at, axis=1)
            c = idx[rows, t]
            # A point keeps d2 when its matmul distance to c exceeds d2 by more
            # than the distance's bound; NaN compares False and is rescored.
            np.matmul(lhs[rows, t, None], rhs, out=near[:, None])
            np.multiply(x_sq, norm_coef, out=trial)
            trial += norm_coef * x_sq[rows, c, None] + point_floor
            near -= trial
            rescore = ~(near >= d2)
            rescore[~has] = False
            js, ps = np.divmod(np.flatnonzero(rescore), n)
            diff = xs[js, ps]
            diff -= xs[js, c[js]]
            diff *= diff
            np.copyto(trial, d2)
            trial[js, ps] = np.minimum(d2[js, ps], diff.sum(axis=1))
            exact = trial.sum(axis=1)
            better = has & (exact < best)
            best[better] = exact[better]
            best_idx[better] = c[better]
            np.copyto(nxt, trial, where=better[:, None])
        centroids[live, i] = xs[live, best_idx[live]]
        d2, nxt = nxt, d2
    return centroids


def _lloyd(x: np.ndarray, centroids: np.ndarray, max_iters: int):
    """Lloyd's iterations on one (n, d*) subspace, updating ``centroids`` in place.

    Returns the assignments, exact-kernel argmins as in ``encode_matrix``, and the objective history.
    """
    n, dim = x.shape
    k = centroids.shape[0]
    weights = x.ravel()  # point-major, as the bins below are
    offsets = np.arange(dim)
    history: list[float] = []
    prev = math.inf
    for _ in range(max_iters):
        assignments = _nearest_centroids(centroids[None], x[None], np.intp)[:, 0]
        counts = np.bincount(assignments, minlength=k)
        empty = np.flatnonzero(counts == 0) if k <= n else []
        if len(empty):
            diff = x - centroids[assignments]
            point_d2 = np.einsum("nd,nd->n", diff, diff)
            for e in empty:
                # Only a point whose cluster keeps another member may move, so
                # no cluster empties; a moved point is alone and stays put.
                j = int(np.argmax(np.where(counts[assignments] > 1, point_d2, -1.0)))
                counts[assignments[j]] -= 1
                counts[e] = 1
                assignments[j] = e
        # One bincount sums every (centroid, dimension) bin in point order.
        ids = (assignments[:, None] * dim + offsets).ravel()
        sums = np.bincount(ids, weights=weights, minlength=k * dim).reshape(k, dim)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]

        diff = x - centroids[assignments]
        objective = float(np.einsum("nd,nd->", diff, diff))
        history.append(objective)
        stalled = math.isfinite(prev) and prev - objective <= KMEANS_REL_TOL * max(prev, 1e-300)
        if stalled or objective == 0.0:
            break
        prev = objective
    return assignments, history


def kmeans_fit(
    points: np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 50,
) -> KMeansResult:
    """Lloyd's algorithm from a k-means++ start, deterministic given seed.

    ``points`` is one (n, d) matrix or an (M, n, d*) stack of subspaces; a
    matrix is a stack of one. Subspace j draws from ``default_rng(seed + j)``
    and ends bit for bit as a run on it alone at ``seed + j`` would. The
    k-means++ seeding of all subspaces runs in one batched greedy step; Lloyd
    then runs one subspace at a time, assigning each point its nearest centroid
    as ``encode_matrix`` does: the exact kernel's argmin, ties to the lowest.

    Empty clusters are repaired in turn, each by reassigning the point
    farthest from its centroid among those whose cluster keeps another
    member (ties to the lowest point index), so k <= n leaves no cluster
    empty and no point moves twice; with the objective
    measured after each centroid update this keeps the objective sequence
    non-increasing. Stops at ``max_iters`` or when the relative objective
    decrease falls below ``KMEANS_REL_TOL``.

    Raises:
        ShapeMismatchError: if the points are neither 2-D nor 3-D.
        EmptyInputError: if there are no points.
        NonFiniteInputError: if a point holds a NaN or an infinity.
        BadConfigError: unless ``k`` and ``max_iters`` are ints >= 1 and ``seed`` an int >= 0.
    """
    x = np.asarray(points, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeMismatchError(f"points must be (n, d) or (M, n, d*), got shape {x.shape}")
    stack = x if x.ndim == 3 else x[None]
    m, n = stack.shape[:2]
    if m == 0 or n == 0:
        raise EmptyInputError("kmeans_fit requires at least one point")
    check_finite(stack, "kmeans_fit points hold a NaN or an infinity")
    check_int("k", k, 1)
    check_int("max_iters", max_iters, 1)
    check_int("seed", seed, 0)

    centroids = _kmeans_pp_init(stack, k, [np.random.default_rng(seed + j) for j in range(m)])
    runs = [_lloyd(u, c, max_iters) for u, c in zip(stack, centroids)]
    assignments = np.stack([a for a, _ in runs])
    histories = [h for _, h in runs]
    if x.ndim == 2:
        return KMeansResult(centroids[0], assignments[0], histories[0][-1], len(histories[0]), histories[0])
    objectives = [h[-1] for h in histories]
    return KMeansResult(centroids, assignments, objectives, sum(len(h) for h in histories), histories)


class ProductCodebook:
    """M subspaces of K centroids each; anchors are their Cartesian product.

    The centroids are one read-only (M, K, d*) array of float32 values held
    as float64, so a codebook trained in memory equals its ``PQC1`` file.
    M, K, d* and d come from the array's shape.
    """

    def __init__(self, centroids) -> None:
        cents = np.asarray(centroids, dtype=np.float32).astype(np.float64)
        if cents.ndim != 3 or 0 in cents.shape:
            raise ShapeMismatchError(f"centroids must be a non-empty (M, K, d*) array, got {cents.shape}")
        cents.setflags(write=False)
        norms = np.linalg.norm(cents, axis=2)
        norms.setflags(write=False)
        self._centroids = cents
        self._norms = norms

    @property
    def m(self) -> int:
        return self._centroids.shape[0]

    @property
    def k(self) -> int:
        return self._centroids.shape[1]

    @property
    def sub_dim(self) -> int:
        return self._centroids.shape[2]

    @property
    def dim(self) -> int:
        return self.m * self.sub_dim

    def stacked(self) -> np.ndarray:
        """All centroids as one (M, K, d*) float64 array."""
        return self._centroids

    def centroid_norms(self) -> np.ndarray:
        """L2 norms of all centroids, shape (M, K)."""
        return self._norms


def train_product_codebook(
    features: np.ndarray,
    m: int,
    k: int,
    seed: int,
) -> ProductCodebook:
    """Train one sub-codebook per subspace with seeded k-means.

    Subspace j (0-based) uses seed + j, so m=1 reproduces a flat
    ``kmeans_fit`` run at the same seed. Features are clustered as they are.

    Args:
        features: n x d training matrix, or its search handle.
        m: number of subspaces; d must be a multiple of m.
        k: centroids per subspace.
        seed: base seed; subspace j derives seed + j.

    Raises:
        IndivisibleDimensionError: if d is not a multiple of m.
        EmptyInputError: if there are no feature rows.
        NonFiniteInputError: if a feature holds a NaN or an infinity.
        BadConfigError: unless ``m`` and ``k`` are ints >= 1 and ``seed`` an int >= 0.
    """
    x = as_embedding_matrix(features).data
    n, d = x.shape
    if n == 0:
        raise EmptyInputError("cannot train a codebook on zero feature rows")
    check_subspace_count(d, m)
    centroids = kmeans_fit(subvectors(x, m), k, seed).centroids
    if n < k:
        warnings.warn(
            f"training {k} centroids per subspace from only {n} points; "
            "some clusters will be empty",
            stacklevel=2,
        )
    return ProductCodebook(centroids)


def subvectors(x: np.ndarray, m: int) -> np.ndarray:
    """The (M, n, d*) view of an (n, d) matrix's subvectors; ``u[j]`` is ``x[:, j*d*:(j+1)*d*]``."""
    return x.reshape(x.shape[0], m, x.shape[1] // m).transpose(1, 0, 2)


def subvector_sq_dists(centroids: np.ndarray, u: np.ndarray, out: np.ndarray, aux: np.ndarray) -> None:
    """Write the squared distances from subvectors ``u`` to ``centroids`` into ``out``.

    ``u`` is (M, rows, d*), ``centroids`` (M, K, d*), and ``out`` and ``aux``
    are (M, rows, K); ``aux`` is scratch. The sum of explicit per-dimension
    differences keeps a subvector on a centroid at exactly 0 and equidistant
    centroids exactly tied.
    """
    out.fill(0.0)
    for j in range(centroids.shape[2]):
        np.subtract(centroids[:, None, :, j], u[:, :, j, None], out=aux)
        aux *= aux
        out += aux


def _form_gap_bound(dim: int) -> tuple[float, float]:
    """``(coef, floor)``: twice the gap between ``subvector_sq_dists``'s sum and a
    matmul's |u|^2 + |c|^2 - 2 u.c for d*-long u, c is below coef (|u|^2 + |c|^2) + floor.

    With eps = 2^-52 and gamma_j = j eps / 2, the sum is within gamma_{d*+2}
    |u - c|^2 <= (d*+2) eps (|u|^2 + |c|^2) of the true distance, and the
    matmul within as much plus gamma_{d*} (|u|^2 + |c|^2) from the norms it
    reads. Twice both is (5 d* + 8) eps; 6 (d*+2) eps covers second-order terms
    and the rounding of the norms, bound and test. Underflow adds at most half
    a subnormal per product or square, 4 d* + 2 of them: twice is below 4 (d*+4).
    """
    info = np.finfo(np.float64)
    return 6.0 * (dim + 2) * info.eps, 4.0 * (dim + 4) * info.smallest_subnormal


def _nearest_centroids(cents: np.ndarray, u: np.ndarray, dtype) -> np.ndarray:
    """(n, M) ``dtype`` index of each (M, n, d*) subvector's nearest of the (M, K, d*) ``cents``.

    A code is the argmin of ``subvector_sq_dists``, ties to the lowest index.
    Row chunks are scored by one ``(M, rows, d*+1) x (M, d*+1, K)`` matmul of
    ``|c|^2 - 2 u.c``, whose missing |u|^2 cancels in a comparison. A subspace
    whose best candidate leads the runner-up by more than ``_form_gap_bound``
    at |u|^2 + max |c|^2 is settled; rows with any other are rescored exactly.
    """
    (m, k, dim), n = cents.shape, u.shape[1]
    codes = np.empty((n, m), dtype=dtype)
    chunk = max(1, _CHUNK_ELEMENTS // (m * k))
    # Row i of `lhs[j]` times column c of `rhs[j]` is |c|^2 - 2 u.c, the
    # squared distance from subvector u less |u|^2, which no argmin needs.
    rhs = np.empty((m, dim + 1, k))
    np.multiply(cents.transpose(0, 2, 1), -2.0, out=rhs[:, :dim])
    np.einsum("mkd,mkd->mk", cents, cents, out=rhs[:, dim])
    lhs = np.empty((m, min(chunk, n), dim + 1))
    lhs[:, :, dim] = 1.0
    scores = np.empty((m, min(chunk, n), k))
    sub, row = np.arange(m)[:, None], np.arange(min(chunk, n))
    coef, floor = _form_gap_bound(dim)
    bound_c = coef * rhs[:, dim].max(axis=1, keepdims=True) + floor  # (M, 1)
    for start in range(0, n, chunk):
        r = min(chunk, n - start)
        ur, s = lhs[:, :r], scores[:, :r]
        ur[:, :, :dim] = u[:, start : start + r]
        # Squares that overflow give an infinite bound or a NaN lead; NaN
        # compares False, so either leaves the row to the exact kernel.
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(ur, rhs, out=s)
            # The runner-up is the argmin once the best is set to inf; an
            # argmin and a gather take half the time of a min over K.
            best = np.argmin(s, axis=2)
            lead = -s[sub, row[:r], best]
            s[sub, row[:r], best] = np.inf
            lead += s[sub, row[:r], np.argmin(s, axis=2)]
            bound = np.einsum("mrd,mrd->mr", ur[:, :, :dim], ur[:, :, :dim])
            bound *= coef
            bound += bound_c
            near = ~(lead > bound)
        codes[start : start + r] = best.T
        rows = np.flatnonzero(near.any(axis=0))
        if rows.size:
            exact, aux = np.empty((2, m, rows.size, k))
            with np.errstate(over="ignore"):  # a distance that overflows is inf here too
                subvector_sq_dists(cents, u[:, start + rows], exact, aux)
            codes[start + rows] = np.argmin(exact, axis=2).T
    return codes


def encode_matrix(codebook: ProductCodebook, x: np.ndarray) -> np.ndarray:
    """Quantize every row of an (n, d) matrix, or of its search handle, into (n, M) code indices.

    Each code is the argmin of the row's ADC table, ties to the lowest index,
    found by ``_nearest_centroids``. The codes are uint8 when K <= 256, one
    byte per subspace, and int32 otherwise.

    Raises:
        ShapeMismatchError: if the matrix is not 2-D.
        LengthMismatchError: if the row length is not the codebook's d.
        NonFiniteInputError: if a row holds a NaN or an infinity.
    """
    data = as_embedding_matrix(x).data
    if data.shape[1] != codebook.dim:
        raise LengthMismatchError(
            f"matrix dim {data.shape[1]} does not match codebook dim {codebook.dim}"
        )
    check_finite(data, "a row to encode holds a NaN or an infinity")
    dtype = np.uint8 if codebook.k <= 256 else np.int32
    return _nearest_centroids(codebook.stacked(), subvectors(data, codebook.m), dtype)


def adc_table(codebook: ProductCodebook, queries: np.ndarray) -> np.ndarray:
    """Squared distances from each query subvector to every centroid, (nq, M, K)."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != codebook.dim:
        raise LengthMismatchError(f"queries have shape {q.shape}, codebook dim {codebook.dim}")
    table = np.empty((codebook.m, q.shape[0], codebook.k))
    with np.errstate(over="ignore"):  # an overflowed distance is an infinite key, which the searches reject
        subvector_sq_dists(codebook.stacked(), subvectors(q, codebook.m), table, np.empty_like(table))
    return table.transpose(1, 0, 2)


def adc_scores(codebook: ProductCodebook, codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Approximate squared distances to every (n, M) code via table lookup.

    Returns (n,) for one (d,) query and (nq, n) for (nq, d) queries. The
    (nq, M, K) table is transposed once into an (M, K, nq) lookup, so one
    ``np.take`` copies a centroid's distances for every query at once. The
    rows go in blocks through one buffer; each score adds its M lookups in
    subspace order, starting from the first, which has the bits of starting
    from 0 because ADC distances are >= +0. The batch result is the
    transpose of an (n, nq) array, so its rows are strided.

    Raises:
        LengthMismatchError: if the codes are not (n, M) or the query is not d long.
        InvariantError: if a code is not an integer in [0, K).
    """
    codes = np.asarray(codes)
    if codes.ndim != 2 or codes.shape[1] != codebook.m:
        raise LengthMismatchError(f"codes have shape {codes.shape}, expected (n, {codebook.m})")
    integer = np.issubdtype(codes.dtype, np.integer)
    if not (integer and (codes.size == 0 or 0 <= codes.min() <= codes.max() < codebook.k)):
        raise InvariantError(f"codes must be integers in [0, {codebook.k})")
    query = np.asarray(query, dtype=np.float64)
    # Only the lookup is kept, so a copied table is freed before the scores are allocated.
    lookup = np.ascontiguousarray(adc_table(codebook, np.atleast_2d(query)).transpose(1, 2, 0))
    (n, m), nq = codes.shape, lookup.shape[2]
    rows = max(1, _ADC_BLOCK_ELEMENTS // max(nq, 1))
    scores = np.empty((n, nq))
    part = np.empty((min(rows, n), nq))
    for start in range(0, n, rows):
        block = codes[start : start + rows]
        acc, buf = scores[start : start + rows], part[: len(block)]
        # The codes are checked above, so "clip" never clips; "raise" would
        # buffer every `out`.
        np.take(lookup[0], block[:, 0], axis=0, out=acc, mode="clip")
        for j in range(1, m):
            np.take(lookup[j], block[:, j], axis=0, out=buf, mode="clip")
            acc += buf
    return scores[:, 0] if query.ndim == 1 else scores.T


def check_subspace_count(d: int, m: int) -> None:
    """Raises BadConfigError unless m is an int >= 1, and IndivisibleDimensionError unless it divides d."""
    check_int("m", m, 1)
    if d % m != 0:
        raise IndivisibleDimensionError(f"dim {d} is not a multiple of {m}")


def check_power_of_two_k(k: int) -> None:
    """Code-size accounting needs log2(k) bits per code.

    Raises:
        BadConfigError: if k is not an int >= 1.
        NonPowerOfTwoKError: if k is not a power of two.
    """
    check_int("k", k, 1)
    if k & (k - 1) != 0:
        raise NonPowerOfTwoKError(f"k must be a power of two, got {k}")


def memory_report(n: int, m: int, k: int) -> dict:
    """Storage for n PQ codes as a JSON-ready dict: ``code_bytes`` is
    n * m * log2(k) / 8 (codes only), ``mib`` the same in MiB.

    Raises:
        BadConfigError: unless n is an int >= 0 and m and k ints >= 1.
        NonPowerOfTwoKError: if k is not a power of two.
    """
    check_int("n", n, 0)
    check_int("m", m, 1)
    check_power_of_two_k(k)
    n, m, k = int(n), int(m), int(k)  # a NumPy integer is neither JSON-ready nor has bit_length
    bits_per_code = m * k.bit_length() - m  # m * log2(k)
    code_bytes = n * bits_per_code / 8
    return {
        "n": n,
        "m": m,
        "k": k,
        "code_bytes": code_bytes,
        "mib": round(code_bytes / (1024 * 1024), 2),
    }


def codebook_save(codebook: ProductCodebook, path: str | Path) -> None:
    """Write a codebook in the PQC1 format of ``fileio.write_blob``.

    Header: u32 LE M, u32 LE K, u32 LE d; then M blocks of K x d* float32
    centroids.

    Raises:
        NonFiniteInputError: if a centroid is, or rounds to, a NaN or an
            infinity.
    """
    header = struct.pack(_PQC_HEADER, codebook.m, codebook.k, codebook.dim)
    write_blob(path, PQC_MAGIC, header, [codebook.stacked()], "<f4")


def codebook_load(path: str | Path) -> ProductCodebook:
    """Read a PQC1 file; the round trip through save/load is bit-exact.

    Raises:
        FormatError: on a size below 1 or a d that M does not divide, or as
            ``fileio.read_blob`` and ``read_values`` do.
    """
    (m, k, dim), payload = read_blob(path, PQC_MAGIC, _PQC_HEADER)
    if m < 1 or k < 1 or dim < 1 or dim % m != 0:
        raise FormatError(f"{path}: invalid header m={m} k={k} d={dim}")
    ds = dim // m
    return ProductCodebook(read_values(path, payload, "<f4", m * k * ds).reshape(m, k, ds))
