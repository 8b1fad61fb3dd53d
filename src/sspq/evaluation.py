"""Exact and PQ-compressed retrieval with mean-average-precision scoring.

Symmetric runs embed queries and gallery with the same model; asymmetric runs
pair the trainable query encoder with the frozen gallery side. Relevance is
label match. Rankings break score ties by ascending gallery id so results are
independent of storage order.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
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


def _worker_count() -> int:
    """Worker threads for per-query scoring, capped by SSP_THREADS (default 1)."""
    try:
        return max(1, int(os.environ.get("SSP_THREADS", "1")))
    except ValueError:
        return 1


@dataclass(frozen=True)
class RankedList:
    """Full gallery ranking for one query."""

    query_id: int
    gallery_ids: np.ndarray
    scores: np.ndarray
    higher_is_better: bool = True

    def __post_init__(self) -> None:
        ids = np.asarray(self.gallery_ids, dtype=np.int64)
        scores = np.asarray(self.scores, dtype=np.float64)
        if ids.shape != scores.shape or ids.ndim != 1:
            raise ValueError("ids and scores must be matching 1-D arrays")
        if np.unique(ids).size != ids.size:
            raise ValueError("a gallery id appears more than once")
        ordered = scores[:-1] >= scores[1:] if self.higher_is_better else scores[:-1] <= scores[1:]
        if ids.size > 1:
            if not np.all(ordered):
                raise ValueError("scores are not sorted in ranking order")
            ties = scores[:-1] == scores[1:]
            if np.any(ties & (ids[:-1] > ids[1:])):
                raise ValueError("tied scores must be ordered by ascending id")
        for arr in (ids, scores):
            arr.setflags(write=False)
        object.__setattr__(self, "gallery_ids", ids)
        object.__setattr__(self, "scores", scores)


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


def _rank(scores: np.ndarray, higher_is_better: bool) -> np.ndarray:
    ids = np.arange(scores.shape[0])
    keys = -scores if higher_is_better else scores
    return np.lexsort((ids, keys))


def exact_search(queries: EmbeddingMatrix, gallery: EmbeddingMatrix) -> list[RankedList]:
    """Rank the full gallery for every query by cosine similarity."""
    if queries.dim != gallery.dim:
        raise ShapeMismatchError(f"dims differ: {queries.dim} vs {gallery.dim}")
    if gallery.rows == 0:
        raise EmptyGalleryError("search against an empty gallery")
    q, _ = normalize_rows(queries.data)
    g, _ = normalize_rows(gallery.data)
    scores = q @ g.T
    out = []
    for i in range(queries.rows):
        order = _rank(scores[i], higher_is_better=True)
        out.append(
            RankedList(
                query_id=i,
                gallery_ids=order,
                scores=scores[i][order],
                higher_is_better=True,
            )
        )
    return out


def average_precision(ranked: RankedList, relevant) -> float:
    """AP = (1/|relevant|) * sum over relevant hits of precision-at-their-rank."""
    relevant = set(int(r) for r in relevant)
    if not relevant:
        raise EmptyRelevantSetError("relevant set is empty")
    present = set(int(i) for i in ranked.gallery_ids)
    if not relevant <= present:
        raise MissingLabelsError("some relevant ids are missing from the ranking")
    hits = 0
    total = 0.0
    for rank, gid in enumerate(ranked.gallery_ids, start=1):
        if int(gid) in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


def _aggregate(
    rankings: list[RankedList],
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    mode: str,
    encoder_id: str,
    codebook_id: str,
) -> EvalReport:
    aps = np.empty(len(rankings))
    for i, ranked in enumerate(rankings):
        relevant = np.flatnonzero(gallery_labels == query_labels[i])
        if relevant.size == 0:
            raise EmptyRelevantSetError(f"query {i} has no same-label gallery items")
        aps[i] = average_precision(ranked, relevant)
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
    rankings = exact_search(queries, gallery)
    return _aggregate(rankings, ql, gl, mode, encoder_id, codebook_id)


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
    codes = np.asarray(gallery_codes, dtype=np.int64)
    if codes.shape[0] == 0:
        raise EmptyGalleryError("no gallery codes")
    ql, gl = _check_labels(queries.rows, codes.shape[0], query_labels, gallery_labels)

    def rank_one(i: int) -> RankedList:
        scores = adc_scores(codebook, codes, queries.row(i))
        order = _rank(scores, higher_is_better=False)
        return RankedList(
            query_id=i,
            gallery_ids=order,
            scores=scores[order],
            higher_is_better=False,
        )

    workers = _worker_count()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rankings = list(pool.map(rank_one, range(queries.rows)))
    else:
        rankings = [rank_one(i) for i in range(queries.rows)]
    return _aggregate(rankings, ql, gl, mode, encoder_id, codebook_id)
