"""In-memory span tracer that times sspq's layers from outside the package.

Functions are wrapped at the module attribute their caller looks up (for
example ``sspq.trainer.ssp_loss_and_grad``, which the training loop calls by
that name), so nothing under ``src/`` changes. Each target is looked up by
name; a name that no longer exists is recorded as absent rather than raised,
so the trace keeps working while later refactors rename or delete functions.

Spans carry an id, the id of the enclosing span, a name, start and end
times and optional attributes. They stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

_MARK = "__perfbench_wrapped__"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _bound_arg(fn, args, kwargs, name):
    try:
        return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)
    except TypeError:
        return None


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Attribute hooks: called with (original function, args, kwargs, result) after
# a successful call; the returned dict becomes the span's attributes.
def _kmeans_attrs(fn, args, kwargs, result):
    points = _bound_arg(fn, args, kwargs, "points")
    shape = tuple(getattr(points, "shape", ())) + (_bound_arg(fn, args, kwargs, "k"),)
    return {"iterations": int(getattr(result, "iterations_run", 0)), "shape": shape}


def _encode_attrs(fn, args, kwargs, result):
    return {"rows": int(result.shape[0])}


def _read_attrs(fn, args, kwargs, result):
    return {"bytes_read": _file_size(_bound_arg(fn, args, kwargs, "path"))}


def _write_attrs(fn, args, kwargs, result):
    return {"bytes_written": _file_size(_bound_arg(fn, args, kwargs, "path"))}


# span name -> (every "module:attribute" a caller looks the function up by,
#               attribute hook)
TARGETS: dict[str, tuple[tuple[str, ...], object]] = {
    "quantizer.kmeans": (("sspq.quantizer:kmeans_fit",), _kmeans_attrs),
    "quantizer.train_codebook": (("sspq.cli:train_product_codebook",), None),
    "quantizer.encode": (("sspq.cli:encode_matrix", "sspq:encode_matrix"), _encode_attrs),
    "quantizer.adc": (("sspq.evaluation:adc_scores",), None),
    "quantizer.io": (
        ("sspq.cli:codebook_save", "sspq.cli:codebook_load", "sspq:codebook_load"),
        None,
    ),
    "evaluation.ap": (("sspq.evaluation:average_precision",), None),
    "evaluation.exact_search": (("sspq.evaluation:exact_search",), None),
    "evaluation.evaluate": (("sspq.cli:evaluate", "sspq:evaluate"), None),
    "evaluation.evaluate_pq": (("sspq.cli:evaluate_pq", "sspq:evaluate_pq"), None),
    "encoder.forward": (("sspq.trainer:encoder_forward",), None),
    "encoder.backward": (("sspq.trainer:encoder_backward",), None),
    "encoder.forward_matrix": (
        ("sspq.cli:forward_matrix", "sspq.synth:forward_matrix", "sspq:forward_matrix"),
        None,
    ),
    "encoder.io": (
        ("sspq.cli:save_checkpoint", "sspq.cli:load_checkpoint", "sspq:load_checkpoint"),
        None,
    ),
    "loss.ssp": (("sspq.trainer:ssp_loss_and_grad",), None),
    "trainer.train": (("sspq.cli:train_query_model",), None),
    "trainer.adam": (("sspq.trainer:adam_step",), None),
    "synth.gen": (
        ("sspq.cli:gen_mixture", "sspq.cli:make_oracle", "sspq.cli:oracle_encode"),
        None,
    ),
    "embeddings.read": (("sspq.cli:import_embeddings", "sspq.cli:read_labels"), _read_attrs),
    "embeddings.write": (("sspq.cli:export_embeddings", "sspq.cli:write_labels"), _write_attrs),
}


class Tracer:
    """Collects spans while enabled; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.kmeans_probe_calls: dict[tuple, list] = {}
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str, attrs: dict | None = None) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around a block of the benchmark's own code."""
        if not self.enabled:
            yield None
            return
        span = self._open(name, attrs or None)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, module, attr: str, name: str, hook) -> None:
        original = getattr(module, attr)
        if getattr(original, _MARK, False):
            return
        tracer = self
        keep_probe = name == "quantizer.kmeans"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if hook is not None:
                    span.attrs = hook(original, args, kwargs, result)
                if keep_probe:
                    calls = tracer.kmeans_probe_calls.setdefault(span.attrs["shape"], [])
                    if len(calls) < 2:
                        calls.append((original, args, kwargs))
                return result
            finally:
                tracer._close(span)

        setattr(wrapper, _MARK, True)
        setattr(module, attr, wrapper)
        self._patched.append((module, attr, original))

    @contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that exists for the duration of the block."""
        if not self.enabled:
            yield self
            return
        for name, (locations, hook) in targets.items():
            for location in locations:
                module_name, attr = location.split(":")
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    module = None
                if module is None or not callable(getattr(module, attr, None)):
                    self.absent.append(location)
                    continue
                self._wrap(module, attr, name, hook)
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._patched):
                setattr(module, attr, original)
            self._patched.clear()

    def to_json(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [[s.id, s.parent, s.name, s.start, s.end, s.attrs] for s in self.spans],
        }


def span_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, total seconds, self seconds, summed attributes.

    Self time is a span's duration minus the time its direct child spans
    cover; spans nest strictly because the benchmark runs one thread.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.seconds
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "attrs": {}})
        row["calls"] += 1
        row["seconds"] += s.seconds
        row["self_seconds"] += s.seconds - covered[s.id]
        for key, value in (s.attrs or {}).items():
            if isinstance(value, (int, float)):
                row["attrs"][key] = row["attrs"].get(key, 0) + value
    return out


def kmeans_seed_seconds(tracer: Tracer) -> float | None:
    """Estimate seeding time: re-run sampled k-means calls with ``max_iters=1``.

    ``kmeans_fit(..., max_iters=1)`` is k-means++ seeding plus one Lloyd
    pass. Up to two calls per input shape are probed; every traced call is
    charged the mean probe time of its shape. Returns None when the probe
    cannot be made (the function or its ``max_iters`` parameter is gone).
    """
    per_shape = {}
    for shape, calls in tracer.kmeans_probe_calls.items():
        times = []
        for original, args, kwargs in calls:
            try:
                bound = inspect.signature(original).bind(*args, **kwargs)
            except TypeError:
                return None
            if "max_iters" not in inspect.signature(original).parameters:
                return None
            bound.arguments["max_iters"] = 1
            start = time.perf_counter()
            original(*bound.args, **bound.kwargs)
            times.append(time.perf_counter() - start)
        per_shape[shape] = sum(times) / len(times)
    if not per_shape:
        return None
    return sum(
        per_shape.get((s.attrs or {}).get("shape"), 0.0)
        for s in tracer.spans
        if s.name == "quantizer.kmeans"
    )


def per_span_overhead(calls: int = 20000) -> float:
    """Seconds the tracer adds to one wrapped call, measured in this process."""

    class _Namespace:
        @staticmethod
        def noop(x):
            return x

    def timed() -> float:
        fn = _Namespace.noop
        start = time.perf_counter()
        for i in range(calls):
            fn(i)
        return time.perf_counter() - start

    plain = min(timed() for _ in range(3))
    tracer = Tracer(enabled=True)
    tracer._wrap(_Namespace, "noop", "calibration", None)
    wrapped = min(timed() for _ in range(3))
    return max(0.0, (wrapped - plain) / calls)
