"""Per-layer metrics of a traced run, derived from its spans.

Times and counts are per round, so runs with different round counts compare.
A metric whose layer function no longer exists under any looked-up name is
reported as 0 and listed in the run's ``absent`` field.
"""

from __future__ import annotations

import numpy as np

from tracing import TARGETS, Tracer, kmeans_seed_seconds, per_span_overhead, span_totals
from workloads import STAGES

# name -> (unit, better)
PER_LAYER = {
    "quantizer.kmeans_s": ("s", "lower"),
    "quantizer.kmeans_calls": ("count", "lower"),
    "quantizer.lloyd_iters": ("count", "lower"),
    "quantizer.kmeans_seed_s": ("s", "lower"),
    "quantizer.lloyd_s": ("s", "lower"),
    "quantizer.encode_s": ("s", "lower"),
    "quantizer.encode_rows": ("count", "lower"),
    "quantizer.adc_s": ("s", "lower"),
    "quantizer.adc_calls": ("count", "lower"),
    "quantizer.code_bytes": ("bytes", "lower"),
    "quantizer.code_bytes_paper": ("bytes", "lower"),
    "quantizer.code_utilisation": ("share", "higher"),
    "quantizer.io_s": ("s", "lower"),
    "evaluation.ap_s": ("s", "lower"),
    "evaluation.ap_calls": ("count", "lower"),
    "evaluation.pq_self_s": ("s", "lower"),
    "evaluation.exact_search_s": ("s", "lower"),
    "evaluation.exact_self_s": ("s", "lower"),
    "encoder.forward_s": ("s", "lower"),
    "encoder.forward_calls": ("count", "lower"),
    "encoder.backward_s": ("s", "lower"),
    "encoder.forward_matrix_s": ("s", "lower"),
    "encoder.io_s": ("s", "lower"),
    "loss.ssp_s": ("s", "lower"),
    "loss.ssp_calls": ("count", "lower"),
    "trainer.adam_s": ("s", "lower"),
    "trainer.steps": ("count", "lower"),
    "trainer.self_s": ("s", "lower"),
    "synth.gen_s": ("s", "lower"),
    "embeddings.io_s": ("s", "lower"),
    "embeddings.bytes_read": ("bytes", "lower"),
    "embeddings.bytes_written": ("bytes", "lower"),
    **{f"cli.{stage}.self_s": ("s", "lower") for stage, _ in STAGES},
    "trace.overhead_s": ("s", "lower"),
}

# Properties of the one index a round builds, not sums over the round.
INDEX_METRICS = ("quantizer.code_bytes", "quantizer.code_bytes_paper", "quantizer.code_utilisation")


def per_layer(tracer: Tracer, rounds, state: dict) -> dict:
    """Per-round layer metrics; absent layers are added to ``tracer.absent``."""
    totals = span_totals(tracer.spans)
    n = len(rounds)
    present = {
        name
        for name, (locations, _) in TARGETS.items()
        if any(loc not in tracer.absent for loc in locations)
    }
    values: dict[str, float | None] = {}

    def from_span(metric, span, field="seconds", attr=None):
        if span not in present and not span.startswith("cli."):
            values[metric] = None
            return
        row = totals.get(span, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "attrs": {}})
        values[metric] = row["attrs"].get(attr, 0) if attr else row[field]

    from_span("quantizer.kmeans_s", "quantizer.kmeans")
    from_span("quantizer.kmeans_calls", "quantizer.kmeans", "calls")
    from_span("quantizer.lloyd_iters", "quantizer.kmeans", attr="iterations")
    seed_s = kmeans_seed_seconds(tracer) if "quantizer.kmeans" in present else None
    values["quantizer.kmeans_seed_s"] = seed_s
    values["quantizer.lloyd_s"] = None if seed_s is None else values["quantizer.kmeans_s"] - seed_s
    from_span("quantizer.encode_s", "quantizer.encode")
    from_span("quantizer.encode_rows", "quantizer.encode", attr="rows")
    from_span("quantizer.adc_s", "quantizer.adc")
    from_span("quantizer.adc_calls", "quantizer.adc", "calls")
    from_span("quantizer.io_s", "quantizer.io")
    from_span("evaluation.ap_s", "evaluation.ap")
    from_span("evaluation.ap_calls", "evaluation.ap", "calls")
    from_span("evaluation.pq_self_s", "evaluation.evaluate_pq", "self_seconds")
    from_span("evaluation.exact_search_s", "evaluation.exact_search")
    from_span("evaluation.exact_self_s", "evaluation.evaluate", "self_seconds")
    from_span("encoder.forward_s", "encoder.forward")
    from_span("encoder.forward_calls", "encoder.forward", "calls")
    from_span("encoder.backward_s", "encoder.backward")
    from_span("encoder.forward_matrix_s", "encoder.forward_matrix")
    from_span("encoder.io_s", "encoder.io")
    from_span("loss.ssp_s", "loss.ssp")
    from_span("loss.ssp_calls", "loss.ssp", "calls")
    from_span("trainer.adam_s", "trainer.adam")
    from_span("trainer.steps", "trainer.adam", "calls")
    from_span("trainer.self_s", "trainer.train", "self_seconds")
    from_span("synth.gen_s", "synth.gen")
    from_span("embeddings.bytes_read", "embeddings.read", attr="bytes_read")
    from_span("embeddings.bytes_written", "embeddings.write", attr="bytes_written")
    io = [totals.get(s, {}).get("seconds", 0.0) for s in ("embeddings.read", "embeddings.write")]
    present_io = {"embeddings.read", "embeddings.write"} & present
    values["embeddings.io_s"] = sum(io) if present_io else None
    for stage, _ in STAGES:
        from_span(f"cli.{stage}.self_s", f"cli.{stage}", "self_seconds")

    # Counts of the index the search phases built, from its codes.
    codebook, codes = state.get("codebook"), state.get("codes")
    if codes is not None:
        values["quantizer.code_bytes"] = float(codes.nbytes)
        used = sum(np.unique(codes[:, j]).size for j in range(codes.shape[1]))
        values["quantizer.code_utilisation"] = used / (codebook.m * codebook.k)
        import sspq.quantizer as quantizer

        report = getattr(quantizer, "memory_report", None)
        values["quantizer.code_bytes_paper"] = (
            None if report is None else float(report(codes.shape[0], codebook.m, codebook.k)["code_bytes"])
        )
    else:
        for name in ("quantizer.code_bytes", "quantizer.code_utilisation", "quantizer.code_bytes_paper"):
            values[name] = None

    wrapped_spans = sum(1 for s in tracer.spans if not s.name.startswith(("cli.", "search.", "round")))
    values["trace.overhead_s"] = wrapped_spans * per_span_overhead()

    out = {}
    for name, (unit, _) in PER_LAYER.items():
        value = values.get(name)
        if value is None:
            tracer.absent.append(name)
            value = 0.0
        per_round = 1 if name in INDEX_METRICS else n
        out[name] = {"value": float(value) / per_round, "unit": unit}
    return out
