"""sspq benchmark: one closed-loop caller drives sspq's public API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper-default --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run. Outputs are
checked against references in checks.py; a failed check is a failed
operation. Run artifacts, results and traces go under ``.perfbench_run/``
in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before NumPy loads; one thread gave the steadiest
# timings. SSP_THREADS is left unset so sspq uses its own default.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SSP_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import chdir  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPS = 5
RNG_OFFSET_CHECKS = 7_000


def _import_sspq():
    """Import sspq from this checkout's src/, never from anywhere else."""
    if not (SRC / "sspq" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no sspq sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sspq

    if Path(sspq.__file__).resolve().parent != SRC / "sspq":
        raise SystemExit(f"perfbench: imported sspq from {sspq.__file__}, not {SRC}")
    return sspq


def _provenance(workload: str, seed: int, trace: int) -> dict:
    import numpy as np

    from checks import source_digest

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in (*THREAD_VARS, "SSP_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "src_sha256": source_digest(SRC),
    }


def _setup(workload: str, seed: int, work: Path, speed) -> tuple[list[float], Path]:
    """Run set-up SETUP_REPS times, each in a fresh interpreter; keep the last.

    Returns the host-speed-scaled time of each repetition."""
    times, target = [], work
    for rep in range(SETUP_REPS):
        target = work / f"setup{rep}"
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--prepare", str(target),
             "--workload", workload, "--seed", str(seed)],
            check=True,
            timeout=170,
        )
        times.append((time.perf_counter() - start) * speed.factor())
        if rep < SETUP_REPS - 1:
            shutil.rmtree(target)
    return times, target


def _end_to_end(rounds, setup_times, maps, peak_rss_kib) -> dict:
    def med(values):
        return statistics.median(values)

    def pooled(name):
        return med([x for r in rounds for x in getattr(r, name)] or [0.0])

    p50, p90 = _percentiles([ms for r in rounds for ms in r.pq_query_ms])
    metrics = {
        "setup_s": (med(setup_times), "s"),
        "pipeline_s": (med([sum(r.stage_s.values()) for r in rounds]), "s"),
        "train_codebook_s": (med([r.stage_s["train-codebook"] for r in rounds]), "s"),
        "train_query_s": (med([r.stage_s["train-query"] for r in rounds]), "s"),
        "pq_bench_s": (med([r.stage_s["pq-bench"] for r in rounds]), "s"),
        "index_rows_per_s": (pooled("index_rows_per_s"), "rows/s"),
        "exact_qps": (pooled("exact_qps"), "queries/s"),
        "pq_qps": (pooled("pq_qps"), "queries/s"),
        "pq_query_ms_p50": (p50, "ms"),
        "pq_query_ms_p90": (p90, "ms"),
        "map_asym": (maps[0], "mAP"),
        "map_asym_pq": (maps[1], "mAP"),
        "peak_rss_mib": (peak_rss_kib / 1024, "MiB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _percentiles(samples: list[float]) -> tuple[float, float]:
    if len(samples) < 2:
        return (samples[0], samples[0]) if samples else (0.0, 0.0)
    cuts = statistics.quantiles(samples, n=10, method="inclusive")
    return statistics.median(samples), cuts[8]


def run(args) -> dict:
    _import_sspq()
    import numpy as np

    import layers
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS[args.workload]
    provenance = _provenance(args.workload, args.seed, args.trace)
    RUN_DIR.mkdir(exist_ok=True)
    (RUN_DIR / "results").mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        speed = workloads.HostSpeed()
        setup_times, prepared = _setup(args.workload, args.seed, work, speed)
        ops = workloads.Ops()
        tracer = Tracer(enabled=bool(args.trace))
        rounds, state = [], {}
        with chdir(prepared):
            search_data = None
            if workload.search is not None:
                search_data = workloads.load_search_inputs(Path("search"))
            start = time.perf_counter()
            with tracer.installed():
                while not rounds or time.perf_counter() - start < args.seconds:
                    rounds.append(workloads.run_round(workload, ops, tracer, speed, search_data, state))
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            maps = _check(rounds, ops, state, search_data, args, provenance)
        if args.trace:
            metrics = layers.per_layer(tracer, rounds, state)
        else:
            metrics = _end_to_end(rounds, setup_times, maps, peak_rss)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail = {
        "provenance": provenance,
        "rounds": len(rounds),
        "round_s": [r.seconds for r in rounds],
        "setup_s": setup_times,
        "stage_raw_s": [r.stage_raw_s for r in rounds],
        "calibration_s": {"reference": workloads.CALIBRATION_REF,
                          "median": statistics.median(speed.samples),
                          "min": min(speed.samples), "max": max(speed.samples)},
        "pq_query_samples": sum(len(r.pq_query_ms) for r in rounds),
        "failures": {str(k): v.splitlines()[0] for k, v in ops.failures.items()},
        "absent": tracer.absent,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    result = {
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": {k: {"value": float(np.float64(v["value"])), "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    (RUN_DIR / "results" / f"{stem}.json").write_text(json.dumps({**detail, **result}, indent=1))
    if args.trace:
        (RUN_DIR / "results" / f"{stem}.trace.json").write_text(json.dumps(tracer.to_json()))
    print(json.dumps(detail))
    return result


def _check(rounds, ops, state, search_data, args, provenance) -> tuple[float, float]:
    """Run every output check; each miss fails the operation it verifies."""
    import numpy as np

    import checks
    import workloads

    first, last = rounds[0], rounds[-1]
    maps = (0.0, 0.0)
    out = Path("pipeline")

    # Criterion 6's relative gate on the eval stage's own reports.
    eval_op = last.stage_ops["eval"]
    try:
        asym, asym_pq, sym = checks.asym_gate(out)
        maps = (asym, asym_pq)
        if not asym >= checks.ASYM_GATE * sym:
            ops.fail(eval_op, f"asymmetric mAP {asym:.4f} < {checks.ASYM_GATE} x symmetric {sym:.4f}")
    except (OSError, ValueError, KeyError) as exc:
        ops.fail(eval_op, f"eval reports unreadable: {exc}")

    # Determinism: every round writes the same bytes, and so does every run
    # of the same sources and seed (criterion 9 seen from outside).
    for rnd in rounds[1:]:
        for stage, digest in rnd.digests.items():
            if digest != first.digests[stage]:
                ops.fail(rnd.stage_ops[stage], f"stage {stage} artifacts differ between rounds")
    config = hashlib.sha256(Path("pipeline.json").read_bytes()).hexdigest()
    key = f"{args.workload}/{args.seed}/{provenance['src_sha256']}/{config}"
    for stage in checks.compare_with_store(RUN_DIR / "digests.json", key, first.digests,
                                           record=not ops.failures):
        ops.fail(first.stage_ops[stage], f"stage {stage} artifacts differ from an earlier run")

    if "codes" not in state:
        return maps
    if search_data is None:
        search_data = workloads.load_search_inputs(out)
    gallery, gallery_labels, _, query_labels = search_data
    codebook, codes, queries = state["codebook"], state["codes"], state["queries"]

    for rnd in rounds[:-1]:
        for kind in ("exact_aps", "pq_aps", "single_aps"):
            final = getattr(last, kind)
            for i, ap in getattr(rnd, kind).items():
                if i in final and ap != final[i]:
                    ops.fail(rnd.ap_ops[kind, i], f"query {i} {kind} differs between rounds")

    # Independent NumPy references for every AP the program reported.
    ref = checks.exact_reference_aps(queries, gallery, query_labels, gallery_labels, sorted(last.exact_aps))
    for i in checks.ap_mismatches(last.exact_aps, ref):
        ops.fail(last.ap_ops["exact_aps", i], f"exact AP of query {i}: {last.exact_aps[i]} vs reference {ref[i]}")
    recon = checks.reconstruction(codebook.stacked(), codes)
    pq_ids = sorted(set(last.pq_aps) | set(last.single_aps))
    ref = checks.pq_reference_aps(queries, recon, query_labels, gallery_labels, pq_ids)
    for kind in ("pq_aps", "single_aps"):
        store = getattr(last, kind)
        for i in checks.ap_mismatches(store, ref):
            ops.fail(last.ap_ops[kind, i], f"PQ AP of query {i}: {store[i]} vs reference {ref[i]}")
    for i in sorted(set(last.pq_aps) & set(last.single_aps)):
        if last.single_aps[i] != last.pq_aps[i]:
            ops.fail(last.ap_ops["single_aps", i],
                     f"query {i}: one-query AP {last.single_aps[i]} != batch AP {last.pq_aps[i]}")

    # Criterion 4 on sampled queries: ADC distance equals the squared
    # distance to the code's explicit reconstruction.
    import sspq.quantizer as quantizer

    adc_scores = getattr(quantizer, "adc_scores", None)
    if adc_scores is not None:
        rng = np.random.default_rng(args.seed + RNG_OFFSET_CHECKS)
        rows = rng.choice(codes.shape[0], size=min(256, codes.shape[0]), replace=False)
        for q in rng.choice(queries.shape[0], size=min(4, queries.shape[0]), replace=False):
            op = ops.new()
            try:
                got = adc_scores(codebook, codes[rows], queries[q])
            except Exception as exc:  # a raising check target is a failed op
                ops.fail(op, f"adc_scores raised {exc!r}")
                continue
            diff = recon[rows] - queries[q]
            worst = float(np.max(np.abs(got - np.einsum("nd,nd->n", diff, diff))))
            if not worst < checks.ADC_TOL:
                ops.fail(op, f"query {q}: |ADC - reconstruction| = {worst:.3g}")
    return maps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.prepare:
        _import_sspq()
        import workloads

        workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, Path(args.prepare))
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
