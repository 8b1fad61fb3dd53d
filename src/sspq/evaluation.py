"""Exact and PQ-compressed retrieval with mean-average-precision scoring.

Symmetric runs embed queries and gallery with the same model; asymmetric runs
pair the trainable query encoder with the frozen gallery side. Relevance is
label match. Both searches score a batch of queries against the whole gallery
as one (nq, n) matrix and rank every row with the same stable sort, so score
ties go to the lower gallery id and results are independent of storage order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix, normalize_rows
from .errors import (
    EmptyGalleryError,
    EmptyRelevantSetError,
    MissingLabelsError,
    ShapeMismatchError,
)
from .quantizer import ProductCodebook, adc_scores

MODE_SYMMETRIC_GALLERY = "symmetric_gallery"
MODE_SYMMETRIC_QUERY = "symmetric_query"
MODE_ASYMMETRIC = "asymmetric"
MODE_ASYMMETRIC_PQ = "asymmetric_pq"


@dataclass(frozen=True)
class EvalReport:
    """Per-query APs and their mean for one retrieval mode."""

    mode: str
    per_query_ap: np.ndarray
    map_score: float
    encoder_id: str = ""
    codebook_id: str = ""

    def __post_init__(self) -> None:
        aps = np.asarray(self.per_query_ap, dtype=np.float64)
        if aps.ndim != 1 or aps.size == 0:
            raise ValueError("per-query AP array must be non-empty and 1-D")
        if np.min(aps) < 0 or np.max(aps) > 1:
            raise ValueError("APs must lie in [0, 1]")
        if abs(self.map_score - float(aps.mean())) > 1e-12:
            raise ValueError("mAP must equal the mean of per-query APs")
        aps.setflags(write=False)
        object.__setattr__(self, "per_query_ap", aps)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "map": self.map_score,
            "n_queries": int(self.per_query_ap.size),
            "per_query_ap": [float(a) for a in self.per_query_ap],
            "encoder_id": self.encoder_id,
            "codebook_id": self.codebook_id,
        }

    def to_csv_row(self) -> list:
        return [self.mode, f"{self.map_score:.6f}", int(self.per_query_ap.size), self.codebook_id]


def _rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order each row by ascending key, ties to the lower gallery id.

    Returns:
        (order, sorted_keys), both shaped like ``keys``.
    """
    order = np.argsort(keys, axis=-1, kind="stable")
    return order, np.take_along_axis(keys, order, axis=-1)


def exact_search(
    queries: EmbeddingMatrix, gallery: EmbeddingMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Rank the full gallery for every query by descending cosine similarity.

    Returns:
        (order, scores): (nq, n) gallery ids in rank order and their cosines.
    """
    if queries.dim != gallery.dim:
        raise ShapeMismatchError(f"dims differ: {queries.dim} vs {gallery.dim}")
    if gallery.rows == 0:
        raise EmptyGalleryError("search against an empty gallery")
    q, _ = normalize_rows(queries.data)
    g, _ = normalize_rows(gallery.data)
    order, neg_scores = _rank(-(q @ g.T))
    return order, -neg_scores


def adc_search(
    queries: EmbeddingMatrix, codes: np.ndarray, codebook: ProductCodebook
) -> tuple[np.ndarray, np.ndarray]:
    """Rank encoded gallery items by ascending ADC distance to raw queries.

    The distance to a code equals the exact squared distance between the
    query and the code's reconstruction.

    Returns:
        (order, distances): (nq, n) gallery ids in rank order and their
        squared distances.

    Raises:
        EmptyGalleryError: if there are no codes.
        LengthMismatchError: if the query or code shape does not match.
    """
    if len(codes) == 0:
        raise EmptyGalleryError("ADC search against an empty gallery")
    return _rank(adc_scores(codebook, codes, queries.data))


def average_precision(hits: np.ndarray) -> np.ndarray:
    """Per-query AP from an (nq, n) mask of relevant items in rank order.

    AP = (1/|relevant|) * sum over relevant hits of precision-at-their-rank.

    Raises:
        EmptyRelevantSetError: if a row has no relevant item.
    """
    hits = np.asarray(hits, dtype=bool)
    n_relevant = hits.sum(axis=-1)
    if np.any(n_relevant == 0):
        row = int(np.flatnonzero(n_relevant == 0)[0])
        raise EmptyRelevantSetError(f"query {row} has no relevant gallery items")
    precision = np.cumsum(hits, axis=-1) / np.arange(1, hits.shape[-1] + 1)
    # A running sum adds the hits in rank order; its last entry is the total.
    return np.cumsum(np.where(hits, precision, 0.0), axis=-1)[..., -1] / n_relevant


def _report(
    order: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    mode: str,
    encoder_id: str,
    codebook_id: str,
) -> EvalReport:
    aps = average_precision(gallery_labels[order] == query_labels[:, None])
    return EvalReport(
        mode=mode,
        per_query_ap=aps,
        map_score=float(aps.mean()),
        encoder_id=encoder_id,
        codebook_id=codebook_id,
    )


def _check_labels(n_queries: int, n_gallery: int, query_labels, gallery_labels):
    ql = np.asarray(query_labels, dtype=np.int64)
    gl = np.asarray(gallery_labels, dtype=np.int64)
    if ql.shape != (n_queries,) or gl.shape != (n_gallery,):
        raise MissingLabelsError(
            f"label counts ({ql.shape[0]}, {gl.shape[0]}) do not cover "
            f"({n_queries} queries, {n_gallery} gallery items)"
        )
    return ql, gl


def evaluate(
    queries: EmbeddingMatrix,
    gallery: EmbeddingMatrix,
    query_labels,
    gallery_labels,
    mode: str = MODE_ASYMMETRIC,
    encoder_id: str = "",
    codebook_id: str = "",
) -> EvalReport:
    """Exact-search retrieval scored by label-match mAP."""
    ql, gl = _check_labels(queries.rows, gallery.rows, query_labels, gallery_labels)
    order, _ = exact_search(queries, gallery)
    return _report(order, ql, gl, mode, encoder_id, codebook_id)


def evaluate_pq(
    queries: EmbeddingMatrix,
    gallery_codes: np.ndarray,
    codebook: ProductCodebook,
    query_labels,
    gallery_labels,
    mode: str = MODE_ASYMMETRIC_PQ,
    encoder_id: str = "",
    codebook_id: str = "",
) -> EvalReport:
    """PQ-compressed retrieval: rank by ADC distance, score by label-match mAP."""
    ql, gl = _check_labels(queries.rows, len(gallery_codes), query_labels, gallery_labels)
    order, _ = adc_search(queries, gallery_codes, codebook)
    return _report(order, ql, gl, mode, encoder_id, codebook_id)
