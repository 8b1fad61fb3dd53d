"""Atomic artifact writes and the one binary container of EMB1, PQC1 and SSPQ.

Each binary artifact is four magic bytes, a fixed little-endian header, then
little-endian floats that are all finite; a format module keeps only its
magic and its header fields.

Every artifact goes to a sibling temporary file that replaces the target with
``os.replace``. A reader, or a rerun after a failed process, finds either the
previous file or the complete new one, never a truncated write. Nothing is
fsynced, so this does not hold across an operating-system crash or a power
loss.

Unlike writing into the target in place, the replace gives the target a fresh
inode: an existing file's mode and owner become those of a newly created file,
and a symlink at the target is replaced by a regular file rather than written
through.
"""

from __future__ import annotations

import csv
import io
import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, check_finite


def write_atomic(path: str | Path, *chunks: bytes) -> None:
    """Replace ``path`` with the ``chunks`` of bytes-like data in turn; on any failure the old file stays as it was.

    The temporary file lives in the target's directory, so the replace is a
    rename within one file system, and it is removed if the write fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv_atomic(path: str | Path, rows) -> None:
    """Write rows with the default ``csv`` dialect through ``write_atomic``."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    write_atomic(path, buf.getvalue().encode())


def write_blob(path: str | Path, magic: bytes, header_bytes: bytes, arrays, dtype: str) -> None:
    """Write ``magic + header_bytes``, then each array's values cast to ``dtype``, row-major.

    Raises:
        NonFiniteInputError: if a value is, or rounds to, a NaN or an infinity.
    """
    with np.errstate(over="ignore"):  # an overflow is reported just below
        values = [np.asarray(a).astype(dtype, order="C") for a in arrays]
    for v in values:
        check_finite(v, f"{path}: a value is, or rounds to, a NaN or an infinity")
    write_atomic(path, magic, header_bytes, *values)  # C-order buffers, written without a joined copy


def read_blob(path: str | Path, magic: bytes, header_struct: str) -> tuple[tuple, memoryview]:
    """The header fields, unpacked with the ``struct`` format ``header_struct``, and the bytes after them.

    Raises:
        FormatError: on a file shorter than magic and header, or other magic.
    """
    raw = Path(path).read_bytes()
    end = len(magic) + struct.calcsize(header_struct)
    if len(raw) < end:
        raise FormatError(f"{path}: file too short for {magic.decode()} header")
    if raw[: len(magic)] != magic:
        raise FormatError(f"{path}: bad magic {raw[: len(magic)]!r}")
    return struct.unpack_from(header_struct, raw, len(magic)), memoryview(raw)[end:]


def read_values(path: str | Path, payload, dtype: str, count: int) -> np.ndarray:
    """A new float64 array of the ``count`` values of ``dtype`` that make up ``payload``.

    Raises:
        FormatError: unless ``payload`` is exactly ``count`` values, all finite.
    """
    expected = count * np.dtype(dtype).itemsize
    if len(payload) != expected:
        raise FormatError(f"{path}: payload is {len(payload)} bytes, header promises {expected}")
    values = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: payload holds a NaN or an infinity")
    return values
