"""Embedding containers, row normalization, and the EMB1 and label-sidecar files.

All arithmetic is done in float64; the on-disk ``EMB1`` format stores float32.
"""

from __future__ import annotations

import csv
import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantError, NonFiniteInputError, ShapeMismatchError
from .fileio import write_atomic, write_csv_atomic

# Norms below this are treated as degenerate (zero) vectors.
NORM_EPS = 1e-12

# Guard added to norm products in cosine similarity; makes the similarity of a
# zero vector 0 instead of NaN.
COSINE_EPS = 1e-12

EMB_MAGIC = b"EMB1"
_EMB_DTYPE_F32 = 0

# An integer exactly as ``write_labels`` writes it: no sign on 0 or positive
# values, no leading zero, space or digit underscore.
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """N x d matrix of embedding vectors, one row per item.

    Immutable after construction. ``normalized`` asserts that every row has
    unit L2 norm (within 1e-6); constructing with the flag set and
    non-unit rows raises ``InvariantError``.
    """

    data: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if data.ndim != 2:
            raise ShapeMismatchError(f"embedding data must be 2-D, got shape {data.shape}")
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        if self.normalized and data.shape[0] > 0:
            norms = np.linalg.norm(data, axis=1)
            worst = float(np.max(np.abs(norms - 1.0)))
            if worst > 1e-6:
                raise InvariantError(
                    f"normalized flag set but a row norm deviates from 1.0 by {worst:.3g}"
                )

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


def normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of an (n, d) matrix to unit L2 norm, preserving direction.

    Returns:
        (unit_rows, degenerate). Rows with norm below 1e-12 are returned
        unchanged and flagged in the (n,) boolean mask ``degenerate``.
    """
    x = np.asarray(x, dtype=np.float64)
    norms = np.linalg.norm(x, axis=1)
    degenerate = norms < NORM_EPS
    return x / np.where(degenerate, 1.0, norms)[:, None], degenerate


def export_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write an embedding matrix in the EMB1 binary format.

    Layout: magic ``EMB1``, u32 LE row count, u32 LE dim, u8 dtype tag
    (0 = float32), then rows*dim little-endian float32 values, row-major.

    Raises:
        NonFiniteInputError: if a value is, or rounds to, a NaN or an infinity.
    """
    with np.errstate(over="ignore"):  # an overflow is reported just below
        values = emb.data.astype("<f4")
    if not np.isfinite(values).all():
        raise NonFiniteInputError(f"{path}: embeddings hold a NaN or an infinity")
    payload = values.tobytes()
    header = EMB_MAGIC + struct.pack("<IIB", emb.rows, emb.dim, _EMB_DTYPE_F32)
    write_atomic(path, header + payload)


def import_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Read an EMB1 file back into an EmbeddingMatrix.

    The normalized flag is set when every stored row has unit norm within
    1e-6 (float32 round-off of unit rows stays well inside that bound).

    Raises:
        FormatError: on bad magic, bad dtype tag, truncated payload, or a
            non-finite value.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 13:
        raise FormatError(f"{path}: file too short for EMB1 header")
    if raw[:4] != EMB_MAGIC:
        raise FormatError(f"{path}: bad magic {raw[:4]!r}")
    rows, dim, dtype = struct.unpack("<IIB", raw[4:13])
    if dtype != _EMB_DTYPE_F32:
        raise FormatError(f"{path}: unsupported dtype tag {dtype}")
    expected = rows * dim * 4
    payload = raw[13:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload is {len(payload)} bytes, header promises {expected}"
        )
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64).reshape(rows, dim)
    if not np.isfinite(data).all():
        raise FormatError(f"{path}: payload holds a NaN or an infinity")
    normalized = False
    if rows > 0 and dim > 0:
        norms = np.linalg.norm(data, axis=1)
        normalized = bool(np.max(np.abs(norms - 1.0)) <= 1e-6)
    return EmbeddingMatrix(data, normalized=normalized)


def write_labels(labels: np.ndarray, path: str | Path) -> None:
    """Write a label sidecar CSV with header ``id,label``; ids are row indices."""
    labels = np.asarray(labels)
    write_csv_atomic(path, [["id", "label"], *([i, int(lab)] for i, lab in enumerate(labels))])


def read_labels(path: str | Path, expected_rows: int | None = None) -> np.ndarray:
    """Read a label sidecar CSV; validates the header and 0-based id sequence.

    Raises:
        FormatError: on a bad header, a row that is not two canonical
            integers (``0`` or ``-?[1-9][0-9]*``, as ``write_labels`` writes
            them) with the next id, a label outside int64, text that is not
            UTF-8, or a label count other than ``expected_rows``.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != ["id", "label"]:
                raise FormatError(f"{path}: expected header 'id,label', got {header}")
            labels = []
            for i, row in enumerate(reader):
                if (
                    len(row) != 2
                    or not all(_CANONICAL_INT.fullmatch(field) for field in row)
                    or int(row[0]) != i
                ):
                    raise FormatError(f"{path}: bad row {i}: {row}")
                labels.append(int(row[1]))
        out = np.asarray(labels, dtype=np.int64)
    except (ValueError, OverflowError, csv.Error) as exc:
        raise FormatError(f"{path}: malformed label sidecar: {exc}") from exc
    if expected_rows is not None and out.shape[0] != expected_rows:
        raise FormatError(
            f"{path}: {out.shape[0]} labels for {expected_rows} embeddings"
        )
    return out
