"""Desk-scale synthetic benchmark: class-structured inputs plus a frozen
nonlinear gallery oracle that stands in for a large, pretrained encoder.
"""

from __future__ import annotations

import numpy as np

from .embeddings import normalize_rows
from .encoder import QueryEncoder, encoder_init, forward_matrix
from .errors import BadConfigError, check_int, check_real

SPLIT_ANCHOR = "anchor"
SPLIT_TRAIN = "train"
SPLIT_QUERY = "query"
SPLIT_GALLERY = "gallery"
SPLITS = (SPLIT_ANCHOR, SPLIT_TRAIN, SPLIT_QUERY, SPLIT_GALLERY)

# Weight scale for the oracle MLP; chosen so tanh units operate outside the
# near-linear regime (the gallery space is genuinely curved) while class
# structure survives the map.
ORACLE_GAIN = 2.5


def gen_mixture(
    num_classes: int,
    per_class: int,
    d_in: int,
    cluster_std: float,
    seed: int,
    anchor_count: int = 4096,
    train_per_class: int | None = None,
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Sample a Gaussian mixture with means drawn uniformly on the unit sphere.

    ``per_class`` rows per class make up the evaluation pool: the first draw
    of each class is its query, the rest are gallery. The training and anchor
    splits are separate, disjoint draws from the same mixture; anchor rows get
    uniformly random class assignments.

    Returns:
        ``{split: (raw, labels)}`` for every split in SPLITS: an (n, d_in)
        float64 matrix and its (n,) int64 class labels, rows grouped by
        class except for the anchors.

    Raises:
        BadConfigError: unless num_classes >= 2, per_class >= 4, the other
            sizes >= 1 and the seed >= 0 are ints, and cluster_std is a
            finite real number >= 0 that leaves every drawn row finite.
    """
    for name, value, low in (("num_classes", num_classes, 2), ("per_class", per_class, 4), ("d_in", d_in, 1),
                             ("anchor_count", anchor_count, 1), ("seed", seed, 0)):
        check_int(name, value, low)
    check_real("cluster_std", cluster_std, positive=False)
    if train_per_class is None:
        train_per_class = per_class
    check_int("train_per_class", train_per_class, 1)

    rng = np.random.default_rng(seed)
    means, _ = normalize_rows(rng.normal(size=(num_classes, d_in)))

    # The draw order fixes every split's bytes: the evaluation pool class by
    # class, then the training blocks, then the anchors' labels and rows.
    classes = np.arange(num_classes, dtype=np.int64)
    with np.errstate(over="ignore"):  # an overflow is reported just below
        pool = rng.normal(0.0, 1.0, size=(num_classes, per_class, d_in))
        train = rng.normal(0.0, 1.0, size=(num_classes, train_per_class, d_in))
        anchor_labels = rng.integers(0, num_classes, size=anchor_count, dtype=np.int64)
        anchors = rng.normal(0.0, 1.0, size=(anchor_count, d_in))
        # Scaled and shifted in place: noise * std + mean has the bits of mean + noise * std, as IEEE + commutes.
        for rows, shift in ((pool, means[:, None]), (train, means[:, None]), (anchors, means[anchor_labels])):
            rows *= cluster_std
            rows += shift
    if not all(np.isfinite(rows).all() for rows in (pool, train, anchors)):
        raise BadConfigError(f"cluster_std {cluster_std!r} overflows a drawn row to an infinity")
    return {
        SPLIT_ANCHOR: (anchors, anchor_labels),
        SPLIT_TRAIN: (train.reshape(-1, d_in), np.repeat(classes, train_per_class)),
        SPLIT_QUERY: (np.ascontiguousarray(pool[:, 0]), classes),
        SPLIT_GALLERY: (pool[:, 1:].reshape(-1, d_in), np.repeat(classes, per_class - 1)),
    }


def make_oracle(d_in: int, emb_dim: int, seed: int) -> QueryEncoder:
    """Build the frozen gallery oracle: tanh MLP with one hidden layer of width 2*d_in.

    Weight matrices are orthogonalized (scaled by ORACLE_GAIN) so the frozen
    map is well conditioned: the curvature comes from the tanh units and the
    output normalization, not from a lopsided random linear map that would
    wash out the class structure the benchmark is meant to probe. The
    parameters are read-only, so no caller can alter the oracle. A size that
    is not an int >= 1, or a seed that is not an int >= 0, raises
    ``BadConfigError``.
    """
    check_int("d_in", d_in, 1)  # before 2 * d_in, which a string or None would not survive
    enc = encoder_init(d_in, [2 * d_in], emb_dim, seed=seed)
    rng = np.random.default_rng(seed)
    for i, w in enumerate(enc.weights):
        q, _ = np.linalg.qr(rng.normal(size=(max(w.shape), min(w.shape))))
        q = q[: w.shape[0], : w.shape[1]] if w.shape[0] >= w.shape[1] else q.T[: w.shape[0], :]
        enc.weights[i] = ORACLE_GAIN * q
    for p in enc.parameters():
        p.setflags(write=False)
    return enc


def oracle_encode(oracle: QueryEncoder, raw: np.ndarray) -> np.ndarray:
    """Embed raw rows with the frozen oracle; rows come back unit-normalized."""
    return forward_matrix(oracle, raw)
