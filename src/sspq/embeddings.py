"""The exact-search handle, row normalization, and the EMB1 and label-sidecar files.

Embeddings are (n, d) float64 arrays; the on-disk ``EMB1`` format stores float32.
"""

from __future__ import annotations

import csv
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import FormatError, InvariantError, ShapeMismatchError
from .fileio import read_blob, read_values, write_atomic, write_blob

# Norms below this are treated as degenerate (zero) vectors.
NORM_EPS = 1e-12

EMB_MAGIC = b"EMB1"
# The largest row count or dim that EMB1's u32 header fields hold.
EMB_MAX_SIZE = 2**32 - 1
_EMB_HEADER = "<IIB"  # rows, dim, dtype tag
_EMB_DTYPE_F32 = 0

# An integer exactly as ``write_labels`` writes it: no sign on 0 or positive
# values, no leading zero, space or digit underscore.
_CANONICAL_INT = re.compile(r"0|-?[1-9][0-9]*")


@dataclass(frozen=True)
class EmbeddingMatrix:
    """Exact-search handle of an (n, d) embedding matrix that keeps its unit rows.

    A float64 C-contiguous input is kept, not copied, and made read-only;
    other input is copied. ``unit_rows`` assumes ``data`` never changes. A
    kept view becomes read-only but its base does not, so the caller must
    not write through the base, which would change ``data`` under a cached
    ``unit_rows``. ``normalized=True`` raises ``InvariantError`` unless
    every row norm is within 1e-6 of 1.

    ``unit_rows`` holds the (n, d) values column-major, so ``unit_rows.T``
    is a C-contiguous (d, n) matrix and the searches' gallery product is a
    plain GEMM; a row-major gallery's transpose is repacked by BLAS on every
    call, 2.5x the product's time on a 102,336 x 64 gallery. Where BLAS runs
    its blocked GEMM, as on that gallery, scores of two or more queries keep
    the bits of the row-major product; a small product may take another
    kernel and differ in the last bit, as a one-query search, which NumPy
    runs as gemv, does.
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

    @cached_property
    @np.errstate(invalid="ignore")  # an infinity gives a NaN row, which the searches reject
    def unit_rows(self) -> np.ndarray:
        """Read-only ``normalize_rows(data)``, computed on first use and stored column-major."""
        n, d = self.data.shape
        unit, _ = normalize_rows(self.data, out=np.empty((d, n)).T)
        unit.setflags(write=False)
        return unit


def as_embedding_matrix(x: EmbeddingMatrix | np.ndarray) -> EmbeddingMatrix:
    """``x``, or a handle over a view of the (n, d) array ``x``, so the array keeps its flags."""
    return x if isinstance(x, EmbeddingMatrix) else EmbeddingMatrix(np.asarray(x, dtype=np.float64).view())


def normalize_rows(x: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of an (n, d) matrix to unit L2 norm, preserving direction.

    ``out``, an (n, d) float64 array of any layout, receives the unit rows.

    A finite row whose norm overflows is divided by its largest magnitude first.

    Returns:
        (unit_rows, degenerate). Rows with norm below 1e-12 are returned
        unchanged and flagged in the (n,) boolean mask ``degenerate``.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # the rows whose norm overflows are rescaled below
        norms = np.linalg.norm(x, axis=1)
    degenerate = norms < NORM_EPS
    unit = np.divide(x, np.where(degenerate, 1.0, norms)[:, None], out=out)
    if np.isinf(norms).any():
        huge = np.flatnonzero(np.isinf(norms) & np.isfinite(x).all(axis=1))
        scaled = x[huge] / np.abs(x[huge]).max(axis=1, keepdims=True)
        unit[huge] = scaled / np.linalg.norm(scaled, axis=1, keepdims=True)
    return unit, degenerate


def export_embeddings(x: np.ndarray, path: str | Path) -> None:
    """Write an (n, d) embedding array in the EMB1 format of ``fileio.write_blob``.

    Header: u32 LE row count, u32 LE dim, u8 dtype tag (0 = float32); then
    rows*dim float32 values, row-major.

    Raises:
        ShapeMismatchError: if the array is not 2-D or a size exceeds ``EMB_MAX_SIZE``.
        NonFiniteInputError: if a value is, or rounds to, a NaN or an infinity.
    """
    data = np.asarray(x, dtype=np.float64)
    if data.ndim != 2 or max(data.shape) > EMB_MAX_SIZE:
        raise ShapeMismatchError(f"embeddings must be 2-D with sizes <= {EMB_MAX_SIZE}, got shape {data.shape}")
    write_blob(path, EMB_MAGIC, struct.pack(_EMB_HEADER, *data.shape, _EMB_DTYPE_F32), [data], "<f4")


def import_embeddings(path: str | Path) -> np.ndarray:
    """Read an EMB1 file back into a read-only (rows, dim) float64 array.

    Raises:
        FormatError: on a dtype tag other than 0, or as ``fileio.read_blob``
            and ``read_values`` do.
    """
    (rows, dim, dtype), payload = read_blob(path, EMB_MAGIC, _EMB_HEADER)
    if dtype != _EMB_DTYPE_F32:
        raise FormatError(f"{path}: unsupported dtype tag {dtype}")
    data = read_values(path, payload, "<f4", rows * dim).reshape(rows, dim)
    data.setflags(write=False)
    return data


def write_labels(labels: np.ndarray, path: str | Path) -> None:
    """Write a label sidecar CSV, header ``id,label`` and ids the row indices, as the default ``csv`` dialect would."""
    rows = enumerate(map(int, np.asarray(labels).tolist()))
    write_atomic(path, b"id,label\r\n", "".join([f"{i},{lab}\r\n" for i, lab in rows]).encode())


def read_labels(path: str | Path, expected_rows: int) -> np.ndarray:
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
    if out.shape[0] != expected_rows:
        raise FormatError(
            f"{path}: {out.shape[0]} labels for {expected_rows} embeddings"
        )
    return out
