"""The benchmark's tracer still finds every sspq function it times.

``perfbench/tracing.py`` wraps functions by ``module:attribute`` name and
records a name that no longer resolves as absent instead of failing. Its
k-means seeding probe re-runs ``kmeans_fit`` with ``max_iters=1`` and reports
nothing when that parameter is gone. Either way a per-layer metric silently
reads zero, so a refactor that renames a traced function fails here instead.
The module imports only the standard library, so it is loaded by file path.
The benchmark's library calls are also made here once each, with the
argument types the benchmark passes.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_target_resolves(tracing):
    missing = []
    for span, (locations, _) in tracing.TARGETS.items():
        for location in locations:
            module_name, attr = location.split(":")
            if not callable(getattr(importlib.import_module(module_name), attr, None)):
                missing.append(f"{span}: {location}")
    assert missing == []


def test_kmeans_fit_keeps_max_iters_for_the_seeding_probe():
    from sspq.quantizer import kmeans_fit

    assert "max_iters" in inspect.signature(kmeans_fit).parameters


def test_kmeans_attrs_of_a_stacked_call(tracing):
    # train_product_codebook makes one kmeans_fit call on an (M, n, d*)
    # stack; the span's iteration count must stay an int that sums the
    # subspaces, and max_iters=1 must stay one Lloyd pass per subspace.
    import numpy as np

    from sspq.quantizer import kmeans_fit, subvectors

    stack = subvectors(np.random.default_rng(0).normal(size=(60, 8)), 4)
    result = kmeans_fit(stack, 4, seed=3)
    attrs = tracing._kmeans_attrs(kmeans_fit, (stack, 4), {"seed": 3}, result)
    assert type(attrs["iterations"]) is int
    assert attrs["iterations"] == sum(len(h) for h in result.objective_history)
    assert attrs["shape"] == (4, 60, 2, 4)
    probe = kmeans_fit(stack, 4, seed=3, max_iters=1)
    assert [len(h) for h in probe.objective_history] == [1, 1, 1, 1]
    assert tracing._kmeans_attrs(kmeans_fit, (stack, 4, 3, 1), {}, probe)["iterations"] == 4


def test_training_calls_the_traced_loss_once_per_step(monkeypatch):
    # perfbench's loss.ssp span wraps sspq.trainer.ssp_loss_and_grad; a loop
    # that bound the loss elsewhere would leave loss.ssp_calls at 0.
    import numpy as np

    import sspq.trainer
    from sspq.encoder import encoder_init, forward_matrix
    from sspq.quantizer import train_product_codebook

    calls, target_calls = [], []
    traced, scored = sspq.trainer.ssp_loss_and_grad, sspq.trainer.gallery_targets

    def counting(codebook, targets, rows, q, *args, **kwargs):
        calls.append(q.shape[0])
        return traced(codebook, targets, rows, q, *args, **kwargs)

    def counting_targets(codebook, g, *args, **kwargs):
        target_calls.append(g.shape[0])
        return scored(codebook, g, *args, **kwargs)

    monkeypatch.setattr(sspq.trainer, "ssp_loss_and_grad", counting)
    monkeypatch.setattr(sspq.trainer, "gallery_targets", counting_targets)
    raw = np.random.default_rng(0).normal(size=(20, 6))
    gallery = forward_matrix(encoder_init(6, [12], 8, seed=1), raw)
    codebook = train_product_codebook(gallery, m=2, k=4, seed=2)
    cfg = sspq.trainer.TrainConfig(epochs=2, batch_size=8, seed=3)
    sspq.trainer.train_query_model(
        encoder_init(6, [10], 8, seed=4), gallery, raw, codebook, cfg
    )
    assert calls == [8, 8, 4] * 2
    # The frozen gallery side is scored once per run, for all 20 rows,
    # outside the traced step.
    assert target_calls == [20]


def test_training_calls_the_traced_adam_step_once_per_step_on_flat_arrays(monkeypatch):
    # perfbench's trainer.adam span wraps sspq.trainer.adam_step and counts
    # its calls as trainer.steps; each call updates every parameter at once.
    import numpy as np

    import sspq.trainer
    from sspq.encoder import encoder_init, forward_matrix
    from sspq.quantizer import train_product_codebook

    calls, traced = [], sspq.trainer.adam_step

    def counting(params, grads, moments, *args, **kwargs):
        calls.append([np.shape(a) for a in (params, grads, *moments)])
        return traced(params, grads, moments, *args, **kwargs)

    monkeypatch.setattr(sspq.trainer, "adam_step", counting)
    raw = np.random.default_rng(0).normal(size=(20, 6))
    gallery = forward_matrix(encoder_init(6, [12], 8, seed=1), raw)
    codebook = train_product_codebook(gallery, m=2, k=4, seed=2)
    enc = encoder_init(6, [10], 8, seed=4)
    cfg = sspq.trainer.TrainConfig(epochs=2, batch_size=8, seed=3)
    sspq.trainer.train_query_model(enc, gallery, raw, codebook, cfg)
    count = sum(p.size for p in enc.params)
    assert count == 10 * 6 + 10 + 8 * 10 + 8
    assert calls == [[(count,)] * 4] * 6


@pytest.mark.parametrize(
    "kind, tau_q", [("cosine", 1.0), ("cosine", 1e-3), ("l2", 1.0)], ids=["cosine", "cosine-below-limit", "l2"]
)
def test_training_scores_one_similarity_per_step(monkeypatch, kind, tau_q):
    # The gallery side is scored once per run, in blocks of a batch, and each
    # step scores only its query rows: a step that scored its gallery rows
    # again would time them inside perfbench's loss.ssp span.
    import numpy as np

    import sspq.loss
    import sspq.trainer
    from sspq.encoder import encoder_init, forward_matrix
    from sspq.quantizer import ProductCodebook

    calls, scored = [], sspq.loss._similarity

    def counting(codebook, u, *args):
        calls.append(u.shape[1])
        return scored(codebook, u, *args)

    monkeypatch.setattr(sspq.loss, "_similarity", counting)
    raw = np.random.default_rng(0).normal(size=(20, 6))
    gallery = forward_matrix(encoder_init(6, [12], 8, seed=1), raw)
    # Nearly parallel centroids keep each cosine row within a span that
    # tau_q = 1e-3 does not underflow to a zero query probability.
    codebook = ProductCodebook(1.0 + 0.01 * np.random.default_rng(2).normal(size=(2, 4, 4)))
    cfg = sspq.trainer.TrainConfig(epochs=2, batch_size=8, seed=3, tau_q=tau_q, similarity_kind=kind)
    sspq.trainer.train_query_model(encoder_init(6, [10], 8, seed=4), gallery, raw, codebook, cfg)
    # Three gallery blocks of 8 rows, the last ending at row 20, then the
    # steps of two epochs.
    assert calls == [8, 8, 8] + [8, 8, 4] * 2


def test_library_calls_keep_the_benchmark_signatures():
    # perfbench calls these by the names and with the argument types below;
    # a break here would otherwise show only as failed benchmark operations.
    import numpy as np

    import sspq
    import sspq.quantizer

    rng = np.random.default_rng(0)
    x = rng.normal(size=(24, 8))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    labels = np.arange(24) % 3
    gallery = sspq.EmbeddingMatrix(x, normalized=True)
    queries = sspq.EmbeddingMatrix(x[:4], normalized=True)
    assert gallery.rows == 24
    codebook = sspq.quantizer.train_product_codebook(x, m=2, k=4, seed=1)
    codes = sspq.encode_matrix(codebook, gallery)
    assert codes.shape == (24, 2)
    assert sspq.evaluate(queries, gallery, labels[:4], labels).per_query_ap.shape == (4,)
    report = sspq.evaluate_pq(queries, codes, codebook, labels[:4], labels)
    assert report.per_query_ap.shape == (4,)
    assert sspq.quantizer.adc_scores(codebook, codes[:10], x[0]).shape == (10,)
    assert sspq.quantizer.memory_report(24, 2, 4)["code_bytes"] == 12


def test_each_evaluation_calls_the_traced_ap_once_with_the_hit_mask(monkeypatch):
    # perfbench's evaluation.ap span wraps sspq.evaluation.average_precision,
    # and its selftest injects a wrong AP there; an evaluation that scored AP
    # through another name would escape both.
    import numpy as np

    import sspq
    import sspq.evaluation

    calls = []
    traced = sspq.evaluation.average_precision

    def counting(hits):
        calls.append((hits.dtype, hits.shape))
        return traced(hits)

    monkeypatch.setattr(sspq.evaluation, "average_precision", counting)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(24, 8))
    labels = np.arange(24) % 3
    codebook = sspq.quantizer.train_product_codebook(x, m=2, k=4, seed=1)
    sspq.evaluate(x[:4], x, labels[:4], labels)
    assert calls == [(np.dtype(bool), (4, 24))]
    sspq.evaluate_pq(x[:3], sspq.encode_matrix(codebook, x), codebook, labels[:3], labels)
    assert calls[1:] == [(np.dtype(bool), (3, 24))]


def test_each_pq_evaluation_calls_the_traced_adc_once_with_the_whole_batch(monkeypatch):
    # perfbench's quantizer.adc span wraps sspq.evaluation.adc_scores; lookups
    # moved out from under that name would leave quantizer.adc_s at 0.
    import numpy as np

    import sspq
    import sspq.evaluation

    calls = []
    traced = sspq.evaluation.adc_scores

    def counting(codebook, codes, query):
        calls.append((np.shape(query), len(codes)))
        return traced(codebook, codes, query)

    monkeypatch.setattr(sspq.evaluation, "adc_scores", counting)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(24, 8))
    labels = np.arange(24) % 3
    codebook = sspq.quantizer.train_product_codebook(x, m=2, k=4, seed=1)
    codes = sspq.encode_matrix(codebook, x)
    sspq.evaluate_pq(x[:4], codes, codebook, labels[:4], labels)
    assert calls == [((4, 8), 24)]
    sspq.evaluate_pq(sspq.EmbeddingMatrix(x[:1]), codes, codebook, labels[:1], labels)
    assert calls[1:] == [((1, 8), 24)]
