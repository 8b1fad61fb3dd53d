"""Atomic artifact writes.

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
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace ``path`` with ``data``; on any failure the old file stays as it was.

    The temporary file lives in the target's directory, so the replace is a
    rename within one file system, and it is removed if the write fails.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv_atomic(path: str | Path, rows) -> None:
    """Write rows with the default ``csv`` dialect through ``write_atomic``."""
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    write_atomic(path, buf.getvalue().encode())
