"""Workload definitions, set-up, and one closed-loop round of timed phases.

Every workload runs the same round: the five CLI stages on its pipeline
config, with search phases on a gallery between the later stages. A round's
calls are issued by one caller, each after the previous one returned.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

# The CLI defaults take about 50 s per pipeline on a 2-core box, 33 s of it
# k-means in pq-bench, which does not fit a run. 1,024 anchors and 20 epochs
# keep K=256, M=8 and the M in {2, 8, 32} sweep at about 17 s, so two rounds
# fit a run. search-100k keeps the default 30 epochs because its one round
# is the only train-query sample it gets.
PAPER = {"anchor_count": 1024, "epochs": 20}
SIGMA02 = {"anchor_count": 1024, "num_classes": 64, "cluster_std": 0.2, "train_per_class": 12}

STAGES = (
    ("gen", ()),
    ("train-codebook", ()),
    ("train-query", ()),
    ("eval", ("--pq",)),
    ("pq-bench", ()),
)

# Search phases. Once train-query has written the query model, the gallery
# is indexed by repeated encode_matrix passes for INDEX_SECONDS (at least
# one). A search slice then follows train-query, eval and pq-bench: cycles
# of one exact batch, one PQ batch and SINGLES_PER_CYCLE one-query calls for
# SLICE_SECONDS, and at least SLICE_CYCLES cycles. Spreading each metric's
# samples over the round keeps a short slow spell off any one metric.
INDEX_SECONDS = 0.5
SLICE_SECONDS = 1.0
SLICE_CYCLES = 2
SLICE_AFTER = ("train-query", "eval", "pq-bench")
INDEX_CHUNK = 16384
QUERY_BATCH = 4
SINGLES_PER_CYCLE = 17  # three slices of two cycles give >= 100 one-query calls

# A shared host can run the same code 1.5-2x slower for minutes at a time,
# which no run length averages away. So a fixed calibration kernel is timed
# before and after every stage, index chunk and search cycle, and the times
# measured in between are scaled by CALIBRATION_REF over the mean of the
# two: times are reported in seconds of a host on which the kernel takes
# CALIBRATION_REF (the 2-core box the bounds were set on, when quiet). The
# kernel is benchmark code, so no change to sspq moves it. Raw stage times
# and the calibration samples stay in the run's detail line.
CALIBRATION_REF = 0.002


@dataclass(frozen=True)
class Workload:
    """A pipeline config, and optionally a separate search dataset.

    Why each workload exists is recorded in BENCHMARK.json and README.md.
    """

    name: str
    pipeline: dict
    # Config of a separate search dataset generated in set-up; None searches
    # the pipeline's own gallery.
    search: dict | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-default", dict(PAPER)),
        # Trains on a desk-scale split, searches 64 x 1,600 items generated in
        # set-up from the same seed (same class means and gallery oracle).
        Workload("search-100k", {**SIGMA02, "per_class": 24}, {**SIGMA02, "per_class": 1600}),
        # Not in BENCHMARK.json: three workloads do not fit its time budget
        # at a steady run length. Runnable by hand.
        Workload("align-l2", {**PAPER, "sim": "l2"}),
        # Tiny sizes for selftest.py; not part of BENCHMARK.json.
        Workload(
            "selftest",
            {"num_classes": 4, "per_class": 8, "d_in": 8, "emb_dim": 16, "cluster_std": 0.05,
             "anchor_count": 64, "train_per_class": 8, "m": 4, "k": 16, "epochs": 150,
             "hidden": [16], "pq_m_list": [2, 4]},
        ),
    )
}


def prepare(workload: Workload, seed: int, directory: Path) -> None:
    """Set-up: write the configs and generate the search dataset, if any.

    Output directories are relative to ``directory`` so that artifacts are
    byte-identical wherever a checkout lives.
    """
    from sspq import cli

    directory.mkdir(parents=True)
    cfg = {**workload.pipeline, "seed": seed, "out_dir": "pipeline"}
    (directory / "pipeline.json").write_text(json.dumps(cfg))
    if workload.search is not None:
        cfg = {**workload.search, "seed": seed, "out_dir": "search"}
        (directory / "search.json").write_text(json.dumps(cfg))
        with contextlib.chdir(directory):
            if cli.main(["gen", "--config", "search.json"]) != 0:
                raise RuntimeError("set-up gen failed")


class HostSpeed:
    """Times the calibration kernel: NumPy ops on small arrays in Python
    loops and set lookups, the mix sspq spends its time in."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.normal(size=(2048, 8))
        self._c = rng.normal(size=(32, 8))
        self._w = rng.normal(size=(32, 64))
        self._v = rng.normal(size=32)
        self._t = rng.normal(size=(8, 256))
        self._ids = set(range(1500))
        self.samples: list[float] = []
        self._last = self.sample()

    def _kernel(self) -> float:
        total = 0.0
        for row in self._c:
            d = self._x - row
            total += float(np.einsum("nd,nd->", d, d))
        for _ in range(50):
            p = np.exp(self._t * 0.1)
            p /= p.sum(axis=1, keepdims=True)
            total += float(np.tanh(self._w.T @ self._v)[0] + p[0, 0])
        return total + sum(1 for i in range(1500) if i in self._ids)

    def sample(self) -> float:
        """Median of three timed kernel runs, in seconds."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    def factor(self) -> float:
        """Scale for the phase that just ended, from calibrations around it."""
        before, self._last = self._last, self.sample()
        return CALIBRATION_REF / ((before + self._last) / 2)


class Ops:
    """Attempted and failed operations; a failure keeps its reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[int, str] = {}

    def new(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, op: int, reason: str) -> None:
        print(f"perfbench: operation {op} failed: {reason}", file=sys.stderr)
        self.failures.setdefault(op, reason)

    def call(self, label: str, fn, *args, **kwargs):
        """Run one operation; an exception is a failure, not a crash."""
        op = self.new()
        try:
            return op, fn(*args, **kwargs)
        except Exception:  # any error of the program under test is a failed op
            self.fail(op, f"{label} raised\n{traceback.format_exc()}")
            return op, None


@dataclass
class Round:
    stage_s: dict = field(default_factory=dict)
    stage_raw_s: dict = field(default_factory=dict)
    stage_ops: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    # Per-call samples; a run reports medians over the samples of all rounds.
    index_rows_per_s: list = field(default_factory=list)
    exact_qps: list = field(default_factory=list)
    pq_qps: list = field(default_factory=list)
    pq_query_ms: list = field(default_factory=list)
    exact_aps: dict = field(default_factory=dict)
    pq_aps: dict = field(default_factory=dict)
    single_aps: dict = field(default_factory=dict)
    ap_ops: dict = field(default_factory=dict)
    seconds: float = 0.0


def _run_stage(rnd: Round, ops: Ops, tracer, speed: HostSpeed, stage: str, flags, before: dict) -> dict:
    """Run one CLI stage; returns the digests of the output directory after it."""
    from sspq import cli

    with tracer.span(f"cli.{stage}"), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        op, rc = ops.call(f"stage {stage}", cli.main, [stage, "--config", "pipeline.json", *flags])
        rnd.stage_raw_s[stage] = time.perf_counter() - start
    rnd.stage_s[stage] = rnd.stage_raw_s[stage] * speed.factor()
    rnd.stage_ops[stage] = op
    if rc not in (0, None):
        ops.fail(op, f"stage {stage} returned {rc}")
    out = Path("pipeline")
    after = checks.tree_digests(out) if out.exists() else {}
    rnd.digests[stage] = checks.changed_files(before, after)
    return after


class _Timer:
    """Host-speed-scaled wall time of each timed call, as seconds and as
    work per second. ``scale`` closes a group of calls: their samples are
    scaled by the calibrations taken around the group."""

    def __init__(self):
        self.samples: list[float] = []
        self.rates: list[float] = []
        self._group: list[tuple[float, int]] = []

    def call(self, ops: Ops, label: str, work: int, fn, *args):
        start = time.perf_counter()
        op, result = ops.call(label, fn, *args)
        self._group.append((time.perf_counter() - start, work))
        return op, result

    def scale(self, factor: float) -> None:
        for elapsed, work in self._group:
            self.samples.append(elapsed * factor)
            self.rates.append(work / (elapsed * factor))
        self._group.clear()


def _record_aps(rnd: Round, kind: str, op: int, ids, report) -> None:
    """Keep the first AP each query got from calls of one kind, and its op."""
    if report is None:
        return
    store = getattr(rnd, kind)
    for i, ap in zip(ids, report.per_query_ap):
        if int(i) not in store:
            store[int(i)] = float(ap)
            rnd.ap_ops[(kind, int(i))] = op


def load_search_inputs(search_dir: Path):
    """Gallery embeddings and labels plus raw queries, read by the benchmark."""
    manifest = json.loads((search_dir / "dataset" / "manifest.json").read_text())
    splits = manifest["splits"]
    base = search_dir / "dataset"
    return (
        checks.read_emb1(base / splits["gallery"]["emb"]),
        checks.read_label_csv(base / splits["gallery"]["labels"]),
        checks.read_emb1(base / splits["query"]["raw"]),
        checks.read_label_csv(base / splits["query"]["labels"]),
    )


def _start_search(rnd: Round, ops: Ops, tracer, speed: HostSpeed, data, state: dict):
    """Load the round's models and index the gallery; returns the search context."""
    import sspq

    gallery, gallery_labels, query_raw, query_labels = data
    _, codebook = ops.call("codebook_load", sspq.codebook_load, "pipeline/codebook.pqc")
    _, loaded = ops.call("load_checkpoint", sspq.load_checkpoint, "pipeline/checkpoint.sspq")
    if codebook is None or loaded is None:
        return None
    _, queries = ops.call("forward_matrix", sspq.forward_matrix, loaded[0], query_raw)
    if queries is None:
        return None
    gallery_m = sspq.EmbeddingMatrix(gallery, normalized=True)
    chunks = [
        sspq.EmbeddingMatrix(gallery[s : s + INDEX_CHUNK], normalized=True)
        for s in range(0, gallery.shape[0], INDEX_CHUNK)
    ]
    nq = queries.shape[0]
    batches = [np.arange(s, min(s + QUERY_BATCH, nq)) for s in range(0, nq, QUERY_BATCH)]
    query_ms = [sspq.EmbeddingMatrix(queries[b], normalized=True) for b in batches]
    singles = [sspq.EmbeddingMatrix(queries[i : i + 1], normalized=True) for i in range(nq)]

    index = _Timer()
    codes_parts: list = []
    start = time.perf_counter()
    with tracer.span("search.index"):
        while not codes_parts or time.perf_counter() - start < INDEX_SECONDS:
            for c in chunks:
                _, codes = index.call(ops, "encode_matrix", c.rows, sspq.encode_matrix, codebook, c)
                index.scale(speed.factor())
                if len(codes_parts) < len(chunks):
                    codes_parts.append(codes)
    rnd.index_rows_per_s += index.rates
    if any(c is None for c in codes_parts):
        return None
    codes = np.concatenate(codes_parts)
    state.update(codebook=codebook, codes=codes, queries=queries)
    return {
        "gallery": gallery_m, "gallery_labels": gallery_labels, "query_labels": query_labels,
        "codebook": codebook, "codes": codes, "batches": batches, "query_ms": query_ms,
        "singles": singles, "cycle": 0,
    }


def _search_slice(rnd: Round, ops: Ops, tracer, speed: HostSpeed, ctx: dict) -> None:
    """Cycles of exact batch, PQ batch and one-query calls for SLICE_SECONDS."""
    import sspq

    batches, nq = ctx["batches"], len(ctx["singles"])
    gl, ql = ctx["gallery_labels"], ctx["query_labels"]
    exact, pq, single = _Timer(), _Timer(), _Timer()
    start, cycles = time.perf_counter(), 0
    while cycles < SLICE_CYCLES or time.perf_counter() - start < SLICE_SECONDS:
        cycle = ctx["cycle"]
        j = cycle % len(batches)
        b = batches[j]
        with tracer.span("search.exact"):
            op, report = exact.call(ops, "evaluate", b.size, sspq.evaluate, ctx["query_ms"][j],
                                    ctx["gallery"], ql[b], gl)
        _record_aps(rnd, "exact_aps", op, b, report)
        with tracer.span("search.pq"):
            op, report = pq.call(ops, "evaluate_pq", b.size, sspq.evaluate_pq, ctx["query_ms"][j],
                                 ctx["codes"], ctx["codebook"], ql[b], gl)
        _record_aps(rnd, "pq_aps", op, b, report)
        with tracer.span("search.pq_single"):
            for k in range(SINGLES_PER_CYCLE):
                q = (cycle * SINGLES_PER_CYCLE + k) % nq
                op, report = single.call(ops, "evaluate_pq", 1, sspq.evaluate_pq, ctx["singles"][q],
                                         ctx["codes"], ctx["codebook"], ql[q : q + 1], gl)
                _record_aps(rnd, "single_aps", op, [q], report)
        ctx["cycle"] = cycle + 1
        cycles += 1
        f = speed.factor()
        for timer in (exact, pq, single):
            timer.scale(f)
    rnd.exact_qps += exact.rates
    rnd.pq_qps += pq.rates
    rnd.pq_query_ms += [t * 1e3 for t in single.samples]


def run_round(workload: Workload, ops: Ops, tracer, speed: HostSpeed, search_data, state: dict) -> Round:
    """One closed-loop round: the five CLI stages with search slices between them."""
    rnd = Round()
    start = time.perf_counter()
    with tracer.span("round"):
        shutil.rmtree("pipeline", ignore_errors=True)
        digests: dict = {}
        ctx = None
        for stage, flags in STAGES:
            digests = _run_stage(rnd, ops, tracer, speed, stage, flags, digests)
            if stage == "train-query":
                data = search_data
                if data is None:
                    _, data = ops.call("read pipeline gallery", load_search_inputs, Path("pipeline"))
                if data is not None:
                    ctx = _start_search(rnd, ops, tracer, speed, data, state)
            if ctx is not None and stage in SLICE_AFTER:
                _search_slice(rnd, ops, tracer, speed, ctx)
    rnd.seconds = time.perf_counter() - start
    return rnd
