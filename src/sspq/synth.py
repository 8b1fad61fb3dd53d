"""Desk-scale synthetic benchmark: class-structured inputs plus a frozen
nonlinear gallery oracle that stands in for a large, pretrained encoder.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingMatrix, normalize_rows
from .encoder import ACT_TANH, QueryEncoder, encoder_init, forward_matrix
from .errors import BadConfigError, EmptyRelevantSetError, LengthMismatchError, ShapeMismatchError

SPLIT_ANCHOR = "anchor"
SPLIT_TRAIN = "train"
SPLIT_QUERY = "query"
SPLIT_GALLERY = "gallery"
SPLITS = (SPLIT_ANCHOR, SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY)

# Weight scale for the oracle MLP; chosen so tanh units operate outside the
# near-linear regime (the gallery space is genuinely curved) while class
# structure survives the map.
ORACLE_GAIN = 2.5


@dataclass(frozen=True)
class SyntheticDataset:
    """Raw input rows with class labels and split tags.

    Row order is: per class the query+gallery block, then the training
    block, then the anchor block.
    """

    raw_inputs: np.ndarray
    labels: np.ndarray
    splits: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw_inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        splits = np.asarray(self.splits)
        if raw.ndim != 2 or labels.shape != (raw.shape[0],) or splits.shape != (raw.shape[0],):
            raise ShapeMismatchError("raw inputs, labels, and splits must align row-wise")
        unknown = set(np.unique(splits)) - set(SPLITS)
        if unknown:
            raise BadConfigError(f"unknown split tags: {unknown}")
        qg = np.isin(splits, (SPLIT_QUERY, SPLIT_GALLERY))
        for lab in np.unique(labels[splits == SPLIT_QUERY]):
            if np.count_nonzero(qg & (labels == lab)) < 2:
                raise EmptyRelevantSetError(f"class {lab} has < 2 members across query+gallery")
        for arr in (raw, labels, splits):
            arr.setflags(write=False)
        object.__setattr__(self, "raw_inputs", raw)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "splits", splits)

    def _mask(self, split: str) -> np.ndarray:
        return self.splits == split

    def inputs(self, split: str) -> np.ndarray:
        return self.raw_inputs[self._mask(split)]

    def split_labels(self, split: str) -> np.ndarray:
        return self.labels[self._mask(split)]


def gen_mixture(
    num_classes: int,
    per_class: int,
    d_in: int,
    cluster_std: float,
    seed: int,
    anchor_count: int = 4096,
    train_per_class: int | None = None,
) -> SyntheticDataset:
    """Sample a Gaussian mixture with means drawn uniformly on the unit sphere.

    ``per_class`` rows per class make up the evaluation pool: the first draw
    of each class is its query, the rest are gallery. The training and anchor
    splits are separate, disjoint draws from the same mixture; anchor rows get
    uniformly random class assignments.

    Raises:
        BadConfigError: num_classes < 2, per_class < 4, or non-positive sizes.
    """
    if num_classes < 2:
        raise BadConfigError(f"num_classes must be >= 2, got {num_classes}")
    if per_class < 4:
        raise BadConfigError(f"per_class must be >= 4, got {per_class}")
    if d_in < 1 or anchor_count < 1:
        raise BadConfigError("d_in and anchor_count must be >= 1")
    if cluster_std < 0:
        raise BadConfigError("cluster_std must be >= 0")
    if train_per_class is None:
        train_per_class = per_class
    if train_per_class < 1:
        raise BadConfigError("train_per_class must be >= 1")

    rng = np.random.default_rng(seed)
    means, _ = normalize_rows(rng.normal(size=(num_classes, d_in)))

    rows, labels, splits = [], [], []
    for c in range(num_classes):
        block = means[c] + rng.normal(0.0, 1.0, size=(per_class, d_in)) * cluster_std
        rows.append(block)
        labels.extend([c] * per_class)
        splits.extend([SPLIT_QUERY] + [SPLIT_GALLERY] * (per_class - 1))
    for c in range(num_classes):
        block = means[c] + rng.normal(0.0, 1.0, size=(train_per_class, d_in)) * cluster_std
        rows.append(block)
        labels.extend([c] * train_per_class)
        splits.extend([SPLIT_TRAIN] * train_per_class)
    anchor_labels = rng.integers(0, num_classes, size=anchor_count)
    anchor_rows = means[anchor_labels] + rng.normal(0.0, 1.0, size=(anchor_count, d_in)) * cluster_std
    rows.append(anchor_rows)
    labels.extend(int(c) for c in anchor_labels)
    splits.extend([SPLIT_ANCHOR] * anchor_count)

    return SyntheticDataset(
        raw_inputs=np.vstack(rows),
        labels=np.asarray(labels, dtype=np.int64),
        splits=np.asarray(splits),
    )


@dataclass(frozen=True)
class GalleryOracle:
    """Frozen nonlinear map standing in for the large gallery encoder."""

    encoder: QueryEncoder
    seed: int

    def __post_init__(self) -> None:
        for p in self.encoder.parameters():
            p.setflags(write=False)

    def checksum(self) -> str:
        h = hashlib.sha256()
        for p in self.encoder.parameters():
            h.update(p.tobytes())
        return h.hexdigest()


def make_oracle(d_in: int, emb_dim: int, seed: int) -> GalleryOracle:
    """Build the frozen gallery oracle: tanh MLP with one hidden layer of width 2*d_in.

    Weight matrices are orthogonalized (scaled by ORACLE_GAIN) so the frozen
    map is well conditioned: the curvature comes from the tanh units and the
    output normalization, not from a lopsided random linear map that would
    wash out the class structure the benchmark is meant to probe.
    """
    enc = encoder_init(d_in, [2 * d_in], emb_dim, activation=ACT_TANH, seed=seed)
    rng = np.random.default_rng(seed)
    for i, w in enumerate(enc.weights):
        q, _ = np.linalg.qr(rng.normal(size=(max(w.shape), min(w.shape))))
        q = q[: w.shape[0], : w.shape[1]] if w.shape[0] >= w.shape[1] else q.T[: w.shape[0], :]
        enc.weights[i] = ORACLE_GAIN * q
    return GalleryOracle(encoder=enc, seed=seed)


def oracle_encode(oracle: GalleryOracle, raw: np.ndarray) -> EmbeddingMatrix:
    """Embed raw rows with the frozen oracle; rows come back unit-normalized."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 2 or raw.shape[1] != oracle.encoder.input_dim:
        raise LengthMismatchError(
            f"raw matrix has shape {raw.shape}, oracle expects (n, {oracle.encoder.input_dim})"
        )
    return EmbeddingMatrix(forward_matrix(oracle.encoder, raw), normalized=True)
