"""Exact and PQ-compressed retrieval with mean-average-precision scoring.

Symmetric runs embed queries and gallery with the same model; asymmetric runs
pair the trainable query encoder with the frozen gallery side. Relevance is
label match. Each search kind scores a batch of queries as one (nq, n) matrix
of keys; exact search reads ``unit_rows``, which an ``EmbeddingMatrix`` keeps
and an array computes per call. ``exact_search`` returns each row's full
order, NumPy's stable argsort, so ties go to the lower gallery id and results
do not depend on storage order; evaluation ranks only the hits, the relevant
items, to the same ranks. A NaN or an infinity in a key raises ``NonFiniteInputError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .embeddings import EmbeddingMatrix, as_embedding_matrix
from .errors import (
    EmptyGalleryError,
    EmptyInputError,
    EmptyRelevantSetError,
    InvariantError,
    MissingLabelsError,
    ShapeMismatchError,
    check_finite,
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
    """Gallery ids of each (nq, n) row by ascending key, ties to the lower id: NumPy's stable argsort.

    Raises:
        NonFiniteInputError: if a key is a NaN or an infinity.
    """
    check_finite(keys, "a search score is a NaN or an infinity")
    return np.argsort(keys, axis=-1, kind="stable")


def _hit_mask(keys: np.ndarray, relevant: np.ndarray) -> np.ndarray:
    """``np.take_along_axis(relevant, _rank(keys), -1)``, ranking only the hits in their rows' sorted keys.

    Only rows where a hit's key ties go to the stable ``_rank``; a NaN or an infinity raises ``NonFiniteInputError``.
    """
    check_finite(keys, "a search score is a NaN or an infinity")
    mask, tied = np.zeros(keys.shape, dtype=bool), np.zeros(len(keys), dtype=bool)
    for row, (key_row, hit_row, mask_row) in enumerate(zip(keys, relevant, mask)):
        ranked, hits = np.sort(key_row), np.sort(key_row[hit_row])
        ranks = np.searchsorted(ranked, hits, "right") - 1  # an untied hit's rank
        # A hit ties if the key ranked before it is equal; before rank 0 is the largest, equal only if all are.
        tied[row] = (ranked[ranks - 1] == hits).any()
        mask_row[ranks] = True
    if tied.any():
        mask[tied] = np.take_along_axis(relevant[tied], _rank(keys[tied]), -1)
    return mask


def _exact_keys(queries: EmbeddingMatrix | np.ndarray, gallery: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    queries, gallery = as_embedding_matrix(queries), as_embedding_matrix(gallery)
    if queries.data.shape[1] != gallery.data.shape[1]:
        raise ShapeMismatchError(f"dims differ: {queries.data.shape[1]} vs {gallery.data.shape[1]}")
    if gallery.rows == 0:
        raise EmptyGalleryError("search against an empty gallery")
    scores = queries.unit_rows @ gallery.unit_rows.T
    return np.negative(scores, out=scores)


def exact_search(queries: EmbeddingMatrix | np.ndarray, gallery: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """(nq, n) gallery ids of every query, the full order by descending cosine similarity of ``unit_rows``."""
    return _rank(_exact_keys(queries, gallery))


def average_precision(hits: np.ndarray) -> np.ndarray:
    """Per-query AP from an (nq, n) mask of relevant items in rank order.

    AP = (1/|relevant|) * sum over relevant hits of precision-at-their-rank.

    Precision is taken only at the hits: the i-th hit (0-based) at rank r
    contributes (i+1)/(r+1). A running sum adds them in rank order, so the
    result has the bits of a running sum over every rank, whose non-hit
    terms are exact zeros. The hits' rows and ranks come from their flat
    indices in row-major order, whatever the mask's memory layout.

    Raises:
        ShapeMismatchError: if the mask is not 2-D.
        EmptyRelevantSetError: if a row has no relevant item.
    """
    hits = np.asarray(hits, dtype=bool)
    if hits.ndim != 2:
        raise ShapeMismatchError(f"hits must be an (nq, n) mask, got shape {hits.shape}")
    nq, n = hits.shape
    rows, ranks = np.divmod(np.flatnonzero(hits), n)
    n_relevant = np.bincount(rows, minlength=nq)
    if np.any(n_relevant == 0):
        row = int(np.flatnonzero(n_relevant == 0)[0])
        raise EmptyRelevantSetError(f"query {row} has no relevant gallery items")
    first = np.cumsum(n_relevant) - n_relevant
    nth = np.arange(ranks.size) - np.repeat(first, n_relevant)
    # Each row's precisions, padded with trailing zeros to the longest row.
    precision = np.zeros((nq, n_relevant.max(initial=1)))
    precision[rows, nth] = (nth + 1) / (ranks + 1)
    return np.cumsum(precision, axis=-1)[:, -1] / n_relevant


def _relevance(n_queries: int, n_gallery: int, query_labels, gallery_labels) -> np.ndarray:
    """(nq, n) label match of the queries to the gallery; an integer or bool array takes NumPy's cast.

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
        raise MissingLabelsError(f"label shapes {ql.shape}, {gl.shape} do not match ({n_queries},), ({n_gallery},)")
    return gl == ql[:, None]


def evaluate(
    queries: EmbeddingMatrix | np.ndarray,
    gallery: EmbeddingMatrix | np.ndarray,
    query_labels,
    gallery_labels,
) -> EvalReport:
    """Exact-search retrieval scored by label-match mAP."""
    queries, gallery = as_embedding_matrix(queries), as_embedding_matrix(gallery)
    relevant = _relevance(queries.rows, gallery.rows, query_labels, gallery_labels)
    return EvalReport(average_precision(_hit_mask(_exact_keys(queries, gallery), relevant)))


def evaluate_pq(
    queries: EmbeddingMatrix | np.ndarray,
    gallery_codes: np.ndarray,
    codebook: ProductCodebook,
    query_labels,
    gallery_labels,
) -> EvalReport:
    """PQ-compressed retrieval: rank by ADC distance, score by label-match mAP."""
    queries = as_embedding_matrix(queries)
    relevant = _relevance(queries.rows, len(gallery_codes), query_labels, gallery_labels)
    if len(gallery_codes) == 0:
        raise EmptyGalleryError("ADC search against an empty gallery")
    keys = adc_scores(codebook, gallery_codes, queries.data)
    return EvalReport(average_precision(_hit_mask(keys, relevant)))
