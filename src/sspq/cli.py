"""Command-line orchestration for reproducible experiments.

Subcommands: ``gen``, ``train-codebook``, ``train-query``, ``eval``,
``pq-bench``. Settings come from built-in defaults, overlaid by an optional
flat JSON config file (``--config``), overlaid by explicit CLI flags, in that
precedence order. All randomness derives from the single top-level ``seed``
via fixed offsets: dataset seed+10, oracle seed+20, encoder init seed+40,
shuffle seed+50, codebook seed+1000 (plus the subspace index).

Every command is idempotent: identical config and seed reproduce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .embeddings import (
    EMB_MAX_SIZE,
    as_embedding_matrix,
    export_embeddings,
    import_embeddings,
    read_labels,
    write_labels,
)
from .encoder import encoder_init, forward_matrix, load_checkpoint, save_checkpoint
from .errors import BadConfigError, FormatError, SspqError, shown
from .evaluation import evaluate, evaluate_pq
from .fileio import write_atomic, write_csv_atomic
from .loss import SIMILARITY_KINDS
from .quantizer import (
    ProductCodebook,
    check_power_of_two_k,
    check_subspace_count,
    codebook_load,
    codebook_save,
    encode_matrix,
    memory_report,
    subvectors,
    train_product_codebook,
)
from .synth import SPLITS, gen_mixture, make_oracle, oracle_encode
from .trainer import LOSS_KINDS, TrainConfig, train_query_model

SEED_DATASET = 10
SEED_ORACLE = 20
SEED_ENCODER = 40
SEED_SHUFFLE = 50
SEED_CODEBOOK = 1000

DEFAULTS: dict = {
    "out_dir": "runs/default",
    "seed": 0,
    # dataset
    "num_classes": 32,
    "per_class": 24,
    "d_in": 32,
    "cluster_std": 0.12,
    "anchor_count": 4096,
    "train_per_class": 24,
    "emb_dim": 64,
    # codebook
    "m": 8,
    "k": 256,
    # query model
    "hidden": [64],
    "tau_g": 0.1,
    "tau_q": 1.0,
    "lr": 1e-3,
    "weight_decay": 1e-6,
    "epochs": 30,
    "batch_size": 32,
    "loss": "ssp",
    "sim": "cosine",
    # evaluation
    "eval_pq": False,
    "pq_m_list": [2, 8, 32],
}


def _write_json(obj, path: Path) -> None:
    write_atomic(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode())


def _sha12(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:12]


def _params_sha256(enc) -> str:
    """Hex SHA-256 of an encoder's parameter bytes, in ``params`` order."""
    return hashlib.sha256(b"".join(p.tobytes() for p in enc.params)).hexdigest()


def load_config(path: str | Path | None, overrides: dict) -> dict:
    """Merge defaults, an optional JSON config file, and CLI overrides."""
    cfg = dict(DEFAULTS)
    if path is not None:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise BadConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise BadConfigError(f"config {path} must hold a JSON object, not {type(loaded).__name__}")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise BadConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    for key, default in DEFAULTS.items():
        if not _same_type(cfg[key], default):
            raise BadConfigError(
                f"config {key}={cfg[key]!r} must be of type {type(default).__name__}"
            )
        # A NaN, an infinity and an int beyond float range fail this comparison, which is exact.
        if isinstance(default, float) and not abs(cfg[key]) <= sys.float_info.max:
            raise BadConfigError(f"config {key}={cfg[key]!r} must be finite")
    for key, allowed in (("loss", LOSS_KINDS), ("sim", SIMILARITY_KINDS)):
        if cfg[key] not in allowed:
            raise BadConfigError(f"config {key}={cfg[key]!r} is not one of {sorted(allowed)}")
    for key in ("seed", "weight_decay"):
        if cfg[key] < 0:
            raise BadConfigError(f"config {key}={cfg[key]!r} must be >= 0")
    if (widest := max([cfg["k"], *cfg["hidden"]])) > EMB_MAX_SIZE:  # so gen fails, not a later stage's allocation
        raise BadConfigError(f"config k and hidden widths must be <= {EMB_MAX_SIZE}, got {shown(widest)}")
    if not cfg["pq_m_list"] or min(cfg["pq_m_list"]) < 1:
        raise BadConfigError(f"config pq_m_list={cfg['pq_m_list']!r} needs one or more M >= 1")
    return cfg


def _same_type(value, default) -> bool:
    """A float accepts an int, a bool is not an int, and lists hold their default's type."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_same_type(v, default[0]) for v in value)
    if isinstance(default, float) and type(value) is int:
        return True
    return type(value) is type(default)


def _dataset_dir(cfg: dict) -> Path:
    return Path(cfg["out_dir"]) / "dataset"


def _manifest_path(cfg: dict) -> Path:
    return _dataset_dir(cfg) / "manifest.json"


def cmd_gen(cfg: dict) -> dict:
    """Generate the benchmark: raw splits, cached oracle embeddings, manifest."""
    sizes = (cfg["anchor_count"], cfg["num_classes"] * max(cfg["train_per_class"], cfg["per_class"] - 1),
             cfg["d_in"], cfg["emb_dim"])
    if max(sizes) > EMB_MAX_SIZE:
        raise BadConfigError(f"split rows or dims {sizes} exceed EMB1's u32 header limit {EMB_MAX_SIZE}")
    splits = gen_mixture(
        num_classes=cfg["num_classes"],
        per_class=cfg["per_class"],
        d_in=cfg["d_in"],
        cluster_std=cfg["cluster_std"],
        seed=cfg["seed"] + SEED_DATASET,
        anchor_count=cfg["anchor_count"],
        train_per_class=cfg["train_per_class"],
    )
    oracle = make_oracle(cfg["d_in"], cfg["emb_dim"], seed=cfg["seed"] + SEED_ORACLE)
    out = _dataset_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)

    manifest = {"seed": cfg["seed"], "config": cfg, "oracle_checksum": _params_sha256(oracle), "splits": {}}
    for split in SPLITS:
        raw, labels = splits[split]
        emb = oracle_encode(oracle, raw)
        raw_file = out / f"{split}_raw.emb"
        emb_file = out / f"{split}_emb.emb"
        label_file = out / f"{split}_labels.csv"
        export_embeddings(raw, raw_file)
        export_embeddings(emb, emb_file)
        write_labels(labels, label_file)
        manifest["splits"][split] = {
            "raw": raw_file.name,
            "emb": emb_file.name,
            "labels": label_file.name,
            "rows": int(raw.shape[0]),
            "d_in": int(raw.shape[1]),
            "emb_dim": int(emb.shape[1]),
        }
    _write_json(manifest, _manifest_path(cfg))
    return manifest


class _Dataset:
    """The files ``gen`` wrote, located through one parse of its manifest.

    Raises:
        FormatError: if the manifest is not JSON or lacks a split's entry.
    """

    def __init__(self, cfg: dict) -> None:
        self.root = _dataset_dir(cfg)
        path = _manifest_path(cfg)
        try:
            splits = json.loads(path.read_bytes())["splits"]
            fields = {
                split: [splits[split][kind] for kind in ("raw", "emb", "labels", "rows")]
                for split in SPLITS
            }
        except (ValueError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: bad manifest: {exc!r}") from exc
        for split, (*names, rows) in fields.items():
            if not all(isinstance(name, str) for name in names) or type(rows) is not int:
                raise FormatError(f"{path}: bad manifest: split {split!r} has a malformed entry")
        self.splits = splits

    def embeddings(self, split: str, kind: str) -> np.ndarray:
        return import_embeddings(self.root / self.splits[split][kind])

    def labels(self, split: str) -> np.ndarray:
        entry = self.splits[split]
        return read_labels(self.root / entry["labels"], expected_rows=entry["rows"])


def _train_codebook(cfg: dict, anchors: np.ndarray, m: int) -> ProductCodebook:
    return train_product_codebook(anchors, m=m, k=cfg["k"], seed=cfg["seed"] + SEED_CODEBOOK)


def cmd_train_codebook(cfg: dict) -> dict:
    """Train the per-subspace codebooks on the anchor split's embeddings."""
    check_power_of_two_k(cfg["k"])
    anchors = _Dataset(cfg).embeddings("anchor", "emb")
    if cfg["m"] == 1:
        print(
            "warning: m=1 trains a single flat k-means codebook "
            "(no product structure); this is the flat-quantizer baseline regime",
            file=sys.stderr,
        )
    codebook = _train_codebook(cfg, anchors, cfg["m"])
    out = Path(cfg["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    cb_path = out / "codebook.pqc"
    codebook_save(codebook, cb_path)

    # Per-subspace quantization error of the anchor set. The centroids are
    # the file's float32 values, so a reader of the file recomputes it.
    codes = encode_matrix(codebook, anchors)
    subspaces = zip(subvectors(anchors, codebook.m), codebook.stacked(), codes.T)
    diffs = (u - cents[c] for u, cents, c in subspaces)
    objectives = [float(np.einsum("nd,nd->", diff, diff)) for diff in diffs]
    summary = {
        "m": codebook.m,
        "k": codebook.k,
        "dim": codebook.dim,
        "anchor_rows": anchors.shape[0],
        "per_subspace_objective": objectives,
        "total_objective": float(sum(objectives)),
        "codebook_file": cb_path.name,
    }
    _write_json(summary, out / "codebook_summary.json")
    return summary


def cmd_train_query(cfg: dict) -> dict:
    """Train the query encoder against the cached gallery-side embeddings."""
    out = Path(cfg["out_dir"])
    codebook = codebook_load(out / "codebook.pqc")
    dataset = _Dataset(cfg)
    raw = dataset.embeddings("train", "raw")
    gallery_emb = dataset.embeddings("train", "emb")
    # Geometry comes from the generated dataset, not the current config, so
    # later stages cannot drift from what gen actually wrote.
    enc = encoder_init(raw.shape[1], list(cfg["hidden"]), gallery_emb.shape[1],
                       seed=cfg["seed"] + SEED_ENCODER)
    train_cfg = TrainConfig(
        tau_g=cfg["tau_g"],
        tau_q=cfg["tau_q"],
        learning_rate=cfg["lr"],
        epochs=cfg["epochs"],
        batch_size=cfg["batch_size"],
        seed=cfg["seed"] + SEED_SHUFFLE,
        loss_kind=cfg["loss"],
        similarity_kind=cfg["sim"],
        weight_decay=cfg["weight_decay"],
    )
    if train_cfg.tau_g == 0:
        print("note: tau_g=0 selects hard (one-hot) anchor assignments", file=sys.stderr)
    start = time.perf_counter()
    model, epoch_means = train_query_model(enc, gallery_emb, raw, codebook, train_cfg)
    wall_seconds = time.perf_counter() - start
    save_checkpoint(model, out / "checkpoint.sspq", extra={"config": cfg})
    # Timing is printed, not persisted: artifacts must be byte-identical
    # across reruns with the same config and seed.
    print(f"trained {cfg['epochs']} epochs in {wall_seconds:.1f}s", file=sys.stderr)
    result = {"epoch_mean_loss": epoch_means, "final_loss": epoch_means[-1], "config": asdict(train_cfg)}
    _write_json(result, out / "train_report.json")
    return result


def cmd_eval(cfg: dict) -> dict:
    """Emit symmetric-gallery, symmetric-query, and asymmetric mAP reports."""
    out = Path(cfg["out_dir"])
    model, _ = load_checkpoint(out / "checkpoint.sspq")
    encoder_id = _params_sha256(model)[:12]

    dataset = _Dataset(cfg)
    query_labels = dataset.labels("query")
    gallery_labels = dataset.labels("gallery")
    # Search handles, so each matrix used by two searches is normalized once.
    gal_emb_g = as_embedding_matrix(dataset.embeddings("gallery", "emb"))
    query_emb_g = dataset.embeddings("query", "emb")
    query_emb_q = as_embedding_matrix(forward_matrix(model, dataset.embeddings("query", "raw")))
    gal_emb_q = forward_matrix(model, dataset.embeddings("gallery", "raw"))

    # (mode, encoder id, codebook id, report); the oracle is the gallery side.
    reports = [
        ("symmetric_gallery", "oracle", "",
         evaluate(query_emb_g, gal_emb_g, query_labels, gallery_labels)),
        ("symmetric_query", encoder_id, "",
         evaluate(query_emb_q, gal_emb_q, query_labels, gallery_labels)),
        ("asymmetric", encoder_id, "",
         evaluate(query_emb_q, gal_emb_g, query_labels, gallery_labels)),
    ]
    if cfg["eval_pq"]:
        codebook = codebook_load(out / "codebook.pqc")
        codebook_id = _sha12((out / "codebook.pqc").read_bytes())
        codes = encode_matrix(codebook, gal_emb_g)
        reports.append(("asymmetric_pq", encoder_id, codebook_id,
                        evaluate_pq(query_emb_q, codes, codebook, query_labels, gallery_labels)))
        _write_json(memory_report(gal_emb_g.rows, codebook.m, codebook.k), out / "memory.json")

    rows = [["mode", "map", "n_queries", "codebook_id"]]
    for mode, enc_id, cb_id, report in reports:
        aps = report.per_query_ap
        _write_json(
            {"mode": mode, "map": report.map_score, "n_queries": aps.size,
             "per_query_ap": aps.tolist(), "encoder_id": enc_id, "codebook_id": cb_id},
            out / f"eval_{mode}.json",
        )
        rows.append([mode, f"{report.map_score:.6f}", aps.size, cb_id])
    write_csv_atomic(out / "eval_summary.csv", rows)
    return {mode: report.map_score for mode, *_, report in reports}


def cmd_pq_bench(cfg: dict) -> list[dict]:
    """Sweep codebook sizes: asymmetric PQ retrieval quality vs. code memory.

    The queries are the train-query checkpoint's embeddings, as in ``eval``.
    The row for the config's own M uses ``codebook.pqc``, the codebook
    ``eval --pq`` reads, when that file's M, K and d match the config and
    the anchors; every other M is trained on the anchors.
    """
    check_power_of_two_k(cfg["k"])
    dataset = _Dataset(cfg)
    anchors = dataset.embeddings("anchor", "emb")
    for m in cfg["pq_m_list"]:
        check_subspace_count(anchors.shape[1], m)
    out = Path(cfg["out_dir"])
    saved = {}
    if (out / "codebook.pqc").exists():
        codebook = codebook_load(out / "codebook.pqc")
        if (codebook.m, codebook.k, codebook.dim) == (cfg["m"], cfg["k"], anchors.shape[1]):
            saved[codebook.m] = codebook
    model, _ = load_checkpoint(out / "checkpoint.sspq")
    query_labels = dataset.labels("query")
    gallery_labels = dataset.labels("gallery")
    gal_emb_g = dataset.embeddings("gallery", "emb")
    queries = forward_matrix(model, dataset.embeddings("query", "raw"))

    exact = evaluate(queries, gal_emb_g, query_labels, gallery_labels)
    results = [{"m": None, "k": None, "map": exact.map_score, "code_bytes": None, "mib": None}]
    for m in cfg["pq_m_list"]:
        codebook = saved.get(m) or _train_codebook(cfg, anchors, m)
        codes = encode_matrix(codebook, gal_emb_g)
        report = evaluate_pq(queries, codes, codebook, query_labels, gallery_labels)
        mem = memory_report(gal_emb_g.shape[0], m, cfg["k"])
        results.append(
            {"m": m, "k": cfg["k"], "map": report.map_score,
             "code_bytes": mem["code_bytes"], "mib": mem["mib"]}
        )
    _write_json(results, out / "pq_bench.json")
    write_csv_atomic(
        out / "pq_bench.csv",
        [["m", "k", "map", "code_bytes", "mib"]]
        + [[r["m"], r["k"], f"{r['map']:.6f}", r["code_bytes"], r["mib"]] for r in results],
    )
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sspq", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"sspq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--seed", type=int, help="top-level seed")

    p_gen = sub.add_parser("gen", help="generate the synthetic benchmark")
    add_common(p_gen)
    p_gen.add_argument("--num-classes", dest="num_classes", type=int)
    p_gen.add_argument("--per-class", dest="per_class", type=int)
    p_gen.add_argument("--d-in", dest="d_in", type=int)
    p_gen.add_argument("--emb-dim", dest="emb_dim", type=int)
    p_gen.add_argument("--cluster-std", dest="cluster_std", type=float)
    p_gen.add_argument("--anchor-count", dest="anchor_count", type=int)
    p_gen.add_argument("--train-per-class", dest="train_per_class", type=int)

    p_cb = sub.add_parser("train-codebook", help="train the product codebook")
    add_common(p_cb)
    p_cb.add_argument("--m", type=int, help="number of subspaces")
    p_cb.add_argument("--k", type=int, help="centroids per subspace")

    p_tq = sub.add_parser("train-query", help="train the query encoder")
    add_common(p_tq)
    p_tq.add_argument("--loss", choices=sorted(LOSS_KINDS))
    p_tq.add_argument("--sim", choices=sorted(SIMILARITY_KINDS))
    p_tq.add_argument("--tau-g", dest="tau_g", type=float)
    p_tq.add_argument("--tau-q", dest="tau_q", type=float)
    p_tq.add_argument("--lr", type=float)
    p_tq.add_argument("--epochs", type=int)
    p_tq.add_argument("--batch-size", dest="batch_size", type=int)

    p_ev = sub.add_parser("eval", help="evaluate symmetric and asymmetric retrieval")
    add_common(p_ev)
    p_ev.add_argument("--pq", dest="eval_pq", action="store_const", const=True,
                      help="also report PQ-compressed asymmetric retrieval")

    p_pb = sub.add_parser("pq-bench", help="sweep subspace counts for PQ retrieval")
    add_common(p_pb)
    p_pb.add_argument("--m-list", dest="pq_m_list", type=int, nargs="+")
    p_pb.add_argument("--k", type=int)

    return parser


_COMMANDS = {
    "gen": cmd_gen,
    "train-codebook": cmd_train_codebook,
    "train-query": cmd_train_query,
    "eval": cmd_eval,
    "pq-bench": cmd_pq_bench,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("command", "config")}
    try:
        cfg = load_config(args.config, overrides)
        result = _COMMANDS[args.command](cfg)
    except (SspqError, OSError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    if args.command == "eval":
        for mode, value in result.items():
            print(f"{mode}: mAP={value:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
