"""Output checks that do not depend on the workload seed.

Every reference here is plain NumPy written for this benchmark; none calls
the sspq function it checks.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

# Reference and program APs may differ when floating-point summation order
# swaps two nearly tied gallery items; a swap at rank r with R relevant items
# moves AP by at most 1/(r*R), which stays far below this for these galleries.
AP_TOL = 1e-6
# Criterion 4's tolerance on |ADC distance - distance to the reconstruction|.
ADC_TOL = 1e-6
# Criterion 6's relative gate: asymmetric mAP within 10% of symmetric-gallery.
ASYM_GATE = 0.90


def read_emb1(path) -> np.ndarray:
    """Read an EMB1 matrix (magic, u32 rows, u32 dim, u8 tag 0, float32 LE)."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"EMB1" or raw[12] != 0:
        raise ValueError(f"{path}: not an EMB1 float32 file")
    rows = int.from_bytes(raw[4:8], "little")
    dim = int.from_bytes(raw[8:12], "little")
    return np.frombuffer(raw, dtype="<f4", offset=13).astype(np.float64).reshape(rows, dim)


def read_label_csv(path) -> np.ndarray:
    """Read an ``id,label`` sidecar into an int64 label array."""
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    if not np.array_equal(table[:, 0], np.arange(table.shape[0])):
        raise ValueError(f"{path}: ids are not 0..n-1")
    return table[:, 1]


def reference_ap(keys: np.ndarray, relevant: np.ndarray) -> float:
    """AP of the ranking by ascending key, ties by ascending gallery id.

    A stable sort keeps ids in order among equal keys; AP is the mean over
    relevant items of the cumulative precision at their rank.
    """
    order = np.argsort(keys, kind="stable")
    hits = relevant[order]
    ranks = np.flatnonzero(hits) + 1
    return float(np.mean(np.arange(1, ranks.size + 1) / ranks))


def exact_reference_aps(queries, gallery, query_labels, gallery_labels, ids) -> dict[int, float]:
    """Cosine-score reference APs for the given query ids."""
    g = gallery / np.linalg.norm(gallery, axis=1, keepdims=True)
    out = {}
    for i in ids:
        q = queries[i] / np.linalg.norm(queries[i])
        out[i] = reference_ap(-(g @ q), gallery_labels == query_labels[i])
    return out


def reconstruction(centroids: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Explicit reconstruction of every code: concatenated centroids, (n, d)."""
    m = centroids.shape[0]
    return np.concatenate([centroids[j, codes[:, j]] for j in range(m)], axis=1)


def pq_reference_aps(queries, recon, query_labels, gallery_labels, ids) -> dict[int, float]:
    """APs ranked by squared distance to each code's explicit reconstruction."""
    out = {}
    for i in ids:
        diff = recon - queries[i]
        out[i] = reference_ap(np.einsum("nd,nd->n", diff, diff), gallery_labels == query_labels[i])
    return out


def ap_mismatches(program: dict[int, float], reference: dict[int, float]) -> list[int]:
    return sorted(i for i, ap in program.items() if not abs(ap - reference[i]) <= AP_TOL)


def asym_gate(out_dir: Path) -> tuple[float, float, float]:
    """(asymmetric, asymmetric PQ, symmetric-gallery) mAP from the eval reports."""
    def read(mode):
        return float(json.loads((out_dir / f"eval_{mode}.json").read_text())["map"])

    return read("asymmetric"), read("asymmetric_pq"), read("symmetric_gallery")


def tree_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file under an output directory, keyed by relative path."""
    out = {}
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            out[path.relative_to(out_dir).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def changed_files(before: dict[str, str], after: dict[str, str]) -> dict[str, str]:
    """Files a stage wrote: new, or with new contents."""
    return {k: v for k, v in after.items() if before.get(k) != v}


def source_digest(src: Path) -> str:
    """SHA-256 over the package sources, standing in for a commit id."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_with_store(store: Path, key: str, digests: dict, record: bool) -> list[str]:
    """Compare stage digests with an earlier run of the same source and seed.

    Returns the stages whose artifacts differ. The first run of a key
    records its digests when ``record`` is set (a run with no failures);
    the file is replaced atomically.
    """
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    earlier = known.get(key)
    if earlier is None:
        if not record:
            return []
        known[key] = digests
        tmp = store.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(known, sort_keys=True))
        os.replace(tmp, store)
        return []
    return sorted(stage for stage in digests if earlier.get(stage) != digests[stage])
