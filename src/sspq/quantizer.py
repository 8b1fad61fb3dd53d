"""Product-quantizer training, encoding, and ADC distance tables.

A codebook is trained by running seeded k-means independently on each of M
contiguous subvector blocks; the Cartesian product of the M sets of K
centroids implicitly defines K^M anchor points that are never materialized.
Encoding, the ADC tables and the negative-Euclidean structure similarity all
read one subvector-to-centroid squared-distance kernel.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import (
    BadConfigError,
    EmptyInputError,
    FormatError,
    IndivisibleDimensionError,
    InvariantError,
    LengthMismatchError,
    NonFiniteInputError,
    NonPowerOfTwoKError,
    ShapeMismatchError,
)
from .fileio import write_atomic

PQC_MAGIC = b"PQC1"

# Elements in one distance-kernel difference temporary: 1 MiB, far below the 32 MiB
# ceiling of glibc's dynamic mmap threshold, so freed chunks are reused, not unmapped.
_CHUNK_ELEMENTS = 1 << 17


def _as_points(points: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    if isinstance(points, EmbeddingMatrix):
        return points.data
    x = np.asarray(points, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatchError(f"points must be 2-D, got shape {x.shape}")
    return x


@dataclass
class KMeansResult:
    """Outcome of one Lloyd run.

    ``assignments`` pair with the returned centroids (the last update step).
    ``objective_history`` records the post-update objective per iteration and
    is non-increasing.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    objective: float
    iterations_run: int
    objective_history: list[float] = field(default_factory=list)


def _kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """Greedy k-means++ seeding (Arthur & Vassilvitskii 2007).

    Each step draws 2 + floor(log2(k)) candidate points with D^2-weighted
    sampling and keeps the candidate that minimizes the resulting potential;
    ties go to the earliest trial.

    All candidates of a step are scored at once: their squared distances
    ``|x|^2 + |c|^2 - 2 x.c`` come from one ``(trials, n)`` matmul. Each
    matmul potential carries a forward-error bound in ``|x|^2``, ``|c|^2``,
    d* and n. Only the candidates whose potential lies within the bounds of
    the best one are rescored with the exact ``((x - c)**2).sum(axis=1)``
    form, in trial order with strict ``<``; usually that is the best one
    alone. The winner's distance update is its exact rescoring. So the
    centroids, the ``rng`` draws and the tie rule are bit for bit those of
    scoring every candidate exactly.
    """
    n, dim = x.shape
    trials = 2 + int(math.log2(k)) if k > 1 else 1
    centroids = np.empty((k, dim), dtype=np.float64)
    centroids[0] = x[int(rng.integers(n))]
    d2 = ((x - centroids[0]) ** 2).sum(axis=1)

    # Row c of `lhs` times column x of `rhs` is |x|^2 + |c|^2 - 2 x.c.
    x_sq = np.einsum("nd,nd->n", x, x)
    ones = np.ones((n, 1))
    lhs = np.hstack([-2.0 * x, x_sq[:, None], ones])
    rhs = np.ascontiguousarray(np.hstack([x, ones, x_sq[:, None]]).T)
    # Twice the worst-case gap between a matmul potential and the exact one.
    # Per point the two distance forms differ by at most (2.5 d* + 4) eps
    # (|x|^2 + |c|^2); summing n terms adds up to n eps |potential| over both
    # sides; underflow adds at most one subnormal per operation.
    eps = np.finfo(np.float64).eps
    norm_coef = 6.0 * eps * (dim + 2)
    sum_coef = 2.0 * eps * n
    floor = 4.0 * n * (dim + 4) * np.finfo(np.float64).smallest_subnormal
    x_sq_total = float(x_sq.sum())

    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # Every point coincides with a chosen centroid; any pick works.
            centroids[i] = x[int(rng.integers(n))]
            continue
        cumulative = np.cumsum(d2)
        idx = np.searchsorted(cumulative, rng.random(trials) * total, side="right")
        np.minimum(idx, n - 1, out=idx)
        cand = lhs[idx] @ rhs
        np.minimum(cand, d2, out=cand)
        potential = cand.sum(axis=1)
        bound = norm_coef * (x_sq_total + n * x_sq[idx]) + sum_coef * np.abs(potential) + floor
        w = int(np.argmin(potential))
        # NaN compares False, so a non-finite potential is always a contender.
        contenders = np.flatnonzero(~(potential - bound > potential[w] + bound[w]))
        best_idx, best_d2, best_potential = -1, d2, math.inf
        # A repeated index scores like its first trial, which strict < keeps.
        for j in dict.fromkeys(idx[contenders].tolist()):
            cand_d2 = np.minimum(d2, ((x - x[j]) ** 2).sum(axis=1))
            exact = float(cand_d2.sum())
            if exact < best_potential:
                best_idx, best_d2, best_potential = j, cand_d2, exact
        centroids[i] = x[best_idx]
        d2 = best_d2
    return centroids


def kmeans_fit(
    points: EmbeddingMatrix | np.ndarray,
    k: int,
    seed: int,
    max_iters: int = 50,
    rel_tol: float = 1e-4,
) -> KMeansResult:
    """Lloyd's algorithm from a k-means++ start, deterministic given seed.

    Empty clusters are repaired by reassigning the point currently farthest
    from its centroid (ties to the lowest point index); with the objective
    measured after each centroid update this keeps the objective sequence
    non-increasing. Stops at ``max_iters`` or when the relative objective
    decrease falls below ``rel_tol``.

    Raises:
        EmptyInputError: if there are no points.
        NonFiniteInputError: if a point holds a NaN or an infinity.
        BadConfigError: if ``k`` or ``max_iters`` is below 1.
    """
    x = _as_points(points)
    n = x.shape[0]
    if n == 0:
        raise EmptyInputError("kmeans_fit requires at least one point")
    if not np.isfinite(x).all():
        raise NonFiniteInputError("kmeans_fit points hold a NaN or an infinity")
    if k < 1:
        raise BadConfigError(f"k must be >= 1, got {k}")
    if max_iters < 1:
        raise BadConfigError(f"kmeans_iters must be >= 1, got {max_iters}")

    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(x, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    history: list[float] = []
    prev = math.inf
    iterations = 0
    x_sq = np.einsum("nd,nd->n", x, x)

    for _ in range(max_iters):
        iterations += 1
        # Expanded form for the argmin only; the repair bookkeeping and the
        # objective use exact per-point distances.
        c_sq = np.einsum("kd,kd->k", centroids, centroids)
        d2 = x_sq[:, None] + c_sq[None, :] - 2.0 * (x @ centroids.T)
        assignments = np.argmin(d2, axis=1)
        diff = x - centroids[assignments]
        point_d2 = np.einsum("nd,nd->n", diff, diff)

        if k <= n:
            counts = np.bincount(assignments, minlength=k)
            for empty in np.flatnonzero(counts == 0):
                j = int(np.argmax(point_d2))
                assignments[j] = empty
                point_d2[j] = 0.0  # do not pick the same point twice

        counts = np.bincount(assignments, minlength=k)
        sums = np.empty((k, x.shape[1]))
        for dim in range(x.shape[1]):
            sums[:, dim] = np.bincount(assignments, weights=x[:, dim], minlength=k)
        occupied = counts > 0
        centroids[occupied] = sums[occupied] / counts[occupied, None]

        diff = x - centroids[assignments]
        objective = float(np.einsum("nd,nd->", diff, diff))
        history.append(objective)

        if math.isfinite(prev) and (prev - objective) <= rel_tol * max(prev, 1e-300):
            break
        if objective == 0.0:
            break
        prev = objective

    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        objective=history[-1],
        iterations_run=iterations,
        objective_history=history,
    )


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

    @property
    def anchor_count(self) -> int:
        """Number of implicit anchor points, K^M (exact integer)."""
        return self.k**self.m

    def stacked(self) -> np.ndarray:
        """All centroids as one (M, K, d*) float64 array."""
        return self._centroids

    def centroid_norms(self) -> np.ndarray:
        """L2 norms of all centroids, shape (M, K)."""
        return self._norms


def train_product_codebook(
    features: EmbeddingMatrix | np.ndarray,
    m: int,
    k: int,
    seed: int,
    max_iters: int = 50,
    rel_tol: float = 1e-4,
) -> ProductCodebook:
    """Train one sub-codebook per subspace with seeded k-means.

    Subspace j (0-based) uses seed + j, so m=1 reproduces a flat
    ``kmeans_fit`` run at the same seed. Features are clustered as they are.

    Args:
        features: n x d training matrix.
        m: number of subspaces; d must be a multiple of m.
        k: centroids per subspace.
        seed: base seed; subspace j derives seed + j.

    Raises:
        IndivisibleDimensionError: if d is not a multiple of m.
        EmptyInputError: if there are no feature rows.
        NonFiniteInputError: if a feature holds a NaN or an infinity.
        BadConfigError: if ``k`` or ``max_iters`` is below 1.
    """
    x = _as_points(features)
    n, d = x.shape
    if n == 0:
        raise EmptyInputError("cannot train a codebook on zero feature rows")
    check_subspace_count(d, m)
    if n < k:
        warnings.warn(
            f"training {k} centroids per subspace from only {n} points; "
            "some clusters will be empty",
            stacklevel=2,
        )

    ds = d // m
    return ProductCodebook(np.stack([
        kmeans_fit(x[:, j * ds : (j + 1) * ds], k, seed + j, max_iters, rel_tol).centroids
        for j in range(m)
    ]))


def _subvector_sq_dists(u: np.ndarray, cents: np.ndarray) -> np.ndarray:
    """Squared distances from (rows, M, d*) subvectors to (M, K, d*) centroids, (rows, M, K).

    The explicit difference keeps a subvector on a centroid at exactly 0 and
    equidistant centroids exactly tied.
    """
    diff = cents - u[:, :, None, :]
    return np.einsum("rmkd,rmkd->rmk", diff, diff)


def _row_chunk_sq_dists(codebook: ProductCodebook, x: np.ndarray):
    """Yield each row chunk's slice of an (n, d) matrix and its (rows, M, K) squared distances."""
    u = x.reshape(x.shape[0], codebook.m, codebook.sub_dim)
    cents = codebook.stacked()
    chunk = max(1, _CHUNK_ELEMENTS // cents.size)
    for start in range(0, x.shape[0], chunk):
        rows = slice(start, start + chunk)
        yield rows, _subvector_sq_dists(u[rows], cents)


def encode_matrix(codebook: ProductCodebook, x: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """Quantize every row of a matrix; returns (n, M) int32 code indices."""
    data = _as_points(x)
    if data.shape[1] != codebook.dim:
        raise LengthMismatchError(
            f"matrix dim {data.shape[1]} does not match codebook dim {codebook.dim}"
        )
    codes = np.empty((data.shape[0], codebook.m), dtype=np.int32)
    for rows, d2 in _row_chunk_sq_dists(codebook, data):
        codes[rows] = np.argmin(d2, axis=2)  # the row's ADC table; ties to the lowest index
    return codes


def adc_table(codebook: ProductCodebook, queries: np.ndarray) -> np.ndarray:
    """Squared distances from each query subvector to every centroid, (nq, M, K)."""
    q = np.asarray(queries, dtype=np.float64)
    if q.ndim != 2 or q.shape[1] != codebook.dim:
        raise LengthMismatchError(f"queries have shape {q.shape}, codebook dim {codebook.dim}")
    table = np.empty((q.shape[0], codebook.m, codebook.k))
    for rows, d2 in _row_chunk_sq_dists(codebook, q):
        table[rows] = d2
    return table


def adc_scores(codebook: ProductCodebook, codes: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Approximate squared distances to every (n, M) code via table lookup.

    Returns (n,) for one (d,) query and (nq, n) for (nq, d) queries.

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
    table = adc_table(codebook, np.atleast_2d(query))
    scores = np.zeros((table.shape[0], codes.shape[0]), dtype=np.float64)
    for j in range(codebook.m):
        scores += table[:, j, codes[:, j]]
    return scores[0] if query.ndim == 1 else scores


def check_subspace_count(d: int, m: int) -> None:
    """Raises IndivisibleDimensionError unless m >= 1 splits d into equal blocks."""
    if m < 1 or d % m != 0:
        raise IndivisibleDimensionError(f"dim {d} is not a multiple of {m}")


def check_power_of_two_k(k: int) -> None:
    """Code-size accounting needs log2(k) bits per code.

    Raises:
        NonPowerOfTwoKError: if k is not a power of two.
    """
    if k < 1 or (k & (k - 1)) != 0:
        raise NonPowerOfTwoKError(f"k must be a power of two, got {k}")


def pq_memory_bytes(n: int, m: int, k: int) -> float:
    """Storage for n PQ codes: n * m * log2(k) / 8 bytes (codes only).

    Raises:
        NonPowerOfTwoKError: if k is not a power of two.
    """
    check_power_of_two_k(k)
    bits_per_code = m * k.bit_length() - m  # m * log2(k)
    return n * bits_per_code / 8


def memory_report(n: int, m: int, k: int) -> dict:
    """Code-storage accounting as a JSON-ready dict."""
    code_bytes = pq_memory_bytes(n, m, k)
    return {
        "n": n,
        "m": m,
        "k": k,
        "code_bytes": code_bytes,
        "mib": round(code_bytes / (1024 * 1024), 2),
    }


def codebook_save(codebook: ProductCodebook, path: str | Path) -> None:
    """Write a codebook in the PQC1 format.

    Layout: magic ``PQC1``, u32 LE M, u32 LE K, u32 LE d, then M blocks of
    K x d* little-endian float32 centroids.

    Raises:
        NonFiniteInputError: if a centroid is, or rounds to, a NaN or an
            infinity.
    """
    cents = codebook.stacked()
    if not np.isfinite(cents).all():
        raise NonFiniteInputError(f"{path}: a centroid holds a NaN or an infinity")
    header = PQC_MAGIC + struct.pack("<III", codebook.m, codebook.k, codebook.dim)
    write_atomic(path, header + cents.astype("<f4").tobytes())


def codebook_load(path: str | Path) -> ProductCodebook:
    """Read a PQC1 file; the round trip through save/load is bit-exact.

    Raises:
        FormatError: on bad magic, indivisible dimensions, truncation, or a
            non-finite centroid.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 16:
        raise FormatError(f"{path}: file too short for PQC1 header")
    if raw[:4] != PQC_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    m, k, dim = struct.unpack("<III", raw[4:16])
    if m < 1 or k < 1 or dim < 1 or dim % m != 0:
        raise FormatError(f"{path}: invalid header m={m} k={k} d={dim}")
    ds = dim // m
    expected = m * k * ds * 4
    payload = raw[16:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    cents = np.frombuffer(payload, dtype="<f4").reshape(m, k, ds)
    if not np.isfinite(cents).all():
        raise FormatError(f"{path}: a centroid holds a NaN or an infinity")
    return ProductCodebook(cents)
