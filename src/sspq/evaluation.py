"""Exact and PQ-compressed retrieval with mean-average-precision scoring.

Symmetric runs embed queries and gallery with the same model; asymmetric runs
pair the trainable query encoder with the frozen gallery side. Relevance is
label match. Both searches score a batch of queries against the whole gallery
as one (nq, n) matrix and rank every row the same way: NumPy's default sort,
then one re-sort by gallery id of only the positions whose scores tie. The
order equals a stable sort's, so score ties go to the lower gallery id and
results are independent of storage order. A NaN or an infinity in a score
raises ``NonFiniteInputError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import (
    EmptyGalleryError,
    EmptyInputError,
    EmptyRelevantSetError,
    InvariantError,
    MissingLabelsError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from .quantizer import ProductCodebook, adc_scores


@dataclass(frozen=True)
class EvalReport:
    """Per-query APs, read-only, and their mean, the mAP.

    Raises:
        ShapeMismatchError: if the APs are not a 1-D array.
        EmptyInputError: if there are no queries.
        InvariantError: if an AP lies outside [0, 1].
    """

    per_query_ap: np.ndarray
    map_score: float = field(init=False)

    def __post_init__(self) -> None:
        aps = np.asarray(self.per_query_ap, dtype=np.float64)
        if aps.ndim != 1:
            raise ShapeMismatchError(f"per-query APs must be 1-D, got shape {aps.shape}")
        if aps.size == 0:
            raise EmptyInputError("no queries to score")
        if not ((aps >= 0) & (aps <= 1)).all():  # a NaN fails both comparisons
            raise InvariantError("APs must lie in [0, 1]")
        aps.setflags(write=False)
        object.__setattr__(self, "per_query_ap", aps)
        object.__setattr__(self, "map_score", float(aps.mean()))


def _rank(keys: np.ndarray) -> np.ndarray:
    """Gallery ids of each (nq, n) row by ascending key, ties to the lower id.

    The default argsort orders a run of equal keys arbitrarily, so the ids
    of every run are re-sorted in place, all runs with one ``lexsort`` by
    (run, id). The result equals ``np.argsort(keys, axis=-1, kind="stable")``.

    Raises:
        NonFiniteInputError: if a key is a NaN or an infinity.
    """
    if not np.isfinite(keys).all():
        raise NonFiniteInputError("a search score is a NaN or an infinity")
    order = np.argsort(keys, axis=-1)
    ranked = np.take_along_axis(keys, order, axis=-1)
    tied = ranked[:, 1:] == ranked[:, :-1]  # rank p holds the key of rank p + 1
    if tied.any():
        # A run is a maximal stretch of equal keys; a rank not tied to the
        # one before it starts a new run.
        in_run = np.zeros(order.shape, dtype=bool)
        in_run[:, 1:] = tied
        starts = ~in_run
        in_run[:, :-1] |= tied
        pos = np.flatnonzero(in_run)
        run = np.cumsum(starts.ravel()[pos])
        ids = np.take(order, pos)
        np.put(order, pos, ids[np.lexsort((ids, run))])
    return order


def _search_matrix(x: EmbeddingMatrix | np.ndarray) -> EmbeddingMatrix:
    """``x``, or a handle over a view of the (n, d) array ``x``, so the array keeps its flags."""
    return x if isinstance(x, EmbeddingMatrix) else EmbeddingMatrix(np.asarray(x, dtype=np.float64).view())


def exact_search(queries: EmbeddingMatrix | np.ndarray, gallery: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """(nq, n) gallery ids of every query, by descending cosine similarity of ``unit_rows``.

    An ``EmbeddingMatrix`` keeps its unit rows; an array's are computed per call.
    """
    queries, gallery = _search_matrix(queries), _search_matrix(gallery)
    if queries.data.shape[1] != gallery.data.shape[1]:
        raise ShapeMismatchError(f"dims differ: {queries.data.shape[1]} vs {gallery.data.shape[1]}")
    if gallery.rows == 0:
        raise EmptyGalleryError("search against an empty gallery")
    return _rank(-(queries.unit_rows @ gallery.unit_rows.T))


def adc_search(
    queries: EmbeddingMatrix | np.ndarray, codes: np.ndarray, codebook: ProductCodebook
) -> np.ndarray:
    """(nq, n) encoded gallery ids of every query, by ascending ADC distance.

    The distance to a code equals the exact squared distance between the
    query and the code's reconstruction.

    Raises:
        EmptyGalleryError: if there are no codes.
        ShapeMismatchError: if the queries are not 2-D.
        LengthMismatchError: if the query or code shape does not match.
        InvariantError: if a code is not an integer in [0, K).
    """
    if len(codes) == 0:
        raise EmptyGalleryError("ADC search against an empty gallery")
    return _rank(adc_scores(codebook, codes, _search_matrix(queries).data))


def average_precision(hits: np.ndarray) -> np.ndarray:
    """Per-query AP from an (nq, n) mask of relevant items in rank order.

    AP = (1/|relevant|) * sum over relevant hits of precision-at-their-rank.

    Precision is taken only at the hits: the i-th hit (0-based) at rank r
    contributes (i+1)/(r+1). A running sum adds them in rank order, so the
    result has the bits of a running sum over every rank, whose non-hit
    terms are exact zeros.

    Raises:
        ShapeMismatchError: if the mask is not 2-D.
        EmptyRelevantSetError: if a row has no relevant item.
    """
    hits = np.asarray(hits, dtype=bool)
    if hits.ndim != 2:
        raise ShapeMismatchError(f"hits must be an (nq, n) mask, got shape {hits.shape}")
    n_relevant = hits.sum(axis=-1)
    if np.any(n_relevant == 0):
        row = int(np.flatnonzero(n_relevant == 0)[0])
        raise EmptyRelevantSetError(f"query {row} has no relevant gallery items")
    rows, ranks = np.nonzero(hits)
    first = np.cumsum(n_relevant) - n_relevant
    nth = np.arange(ranks.size) - np.repeat(first, n_relevant)
    # Each row's precisions, padded with trailing zeros to the longest row.
    precision = np.zeros((hits.shape[0], n_relevant.max(initial=1)))
    precision[rows, nth] = (nth + 1) / (ranks + 1)
    return np.cumsum(precision, axis=-1)[:, -1] / n_relevant


def _report(order: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray) -> EvalReport:
    return EvalReport(average_precision(gallery_labels[order] == query_labels[:, None]))


def _check_labels(n_queries: int, n_gallery: int, query_labels, gallery_labels):
    """Both label sequences as int64 arrays; an integer or bool array takes NumPy's cast.

    A label that is not an integer value, such as a fraction, a NaN, a float
    outside int64 or a string, raises ``MissingLabelsError`` instead.
    """
    if n_queries == 0:
        raise EmptyInputError("no queries to evaluate")
    try:
        ql, gl = np.asarray(query_labels), np.asarray(gallery_labels)
    except ValueError as exc:  # a ragged sequence
        raise MissingLabelsError(f"labels do not form an array: {exc}") from exc
    for arr in (ql, gl):
        if arr.dtype.kind not in "biu" and not (
            arr.dtype.kind == "f" and (arr == np.trunc(arr)).all() and (np.abs(arr) < 2.0**63).all()
        ):
            raise MissingLabelsError(f"labels must be integers, got dtype {arr.dtype}")
    ql, gl = np.asarray(ql, dtype=np.int64), np.asarray(gl, dtype=np.int64)
    if ql.shape != (n_queries,) or gl.shape != (n_gallery,):
        raise MissingLabelsError(
            f"label counts ({ql.shape[0]}, {gl.shape[0]}) do not cover "
            f"({n_queries} queries, {n_gallery} gallery items)"
        )
    return ql, gl


def evaluate(
    queries: EmbeddingMatrix | np.ndarray,
    gallery: EmbeddingMatrix | np.ndarray,
    query_labels,
    gallery_labels,
) -> EvalReport:
    """Exact-search retrieval scored by label-match mAP."""
    queries, gallery = _search_matrix(queries), _search_matrix(gallery)
    ql, gl = _check_labels(queries.rows, gallery.rows, query_labels, gallery_labels)
    return _report(exact_search(queries, gallery), ql, gl)


def evaluate_pq(
    queries: EmbeddingMatrix | np.ndarray,
    gallery_codes: np.ndarray,
    codebook: ProductCodebook,
    query_labels,
    gallery_labels,
) -> EvalReport:
    """PQ-compressed retrieval: rank by ADC distance, score by label-match mAP."""
    queries = _search_matrix(queries)
    ql, gl = _check_labels(queries.rows, len(gallery_codes), query_labels, gallery_labels)
    return _report(adc_search(queries, gallery_codes, codebook), ql, gl)
