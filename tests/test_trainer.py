import dataclasses
import hashlib

import numpy as np
import pytest

from oracles import central_diff_grad, grad_mismatch
from sspq.encoder import QueryEncoder, encoder_backward, encoder_forward, encoder_init, forward_matrix
from sspq.errors import BadConfigError, ShapeMismatchError
from sspq.loss import SIM_COSINE, SIM_NEG_EUCLIDEAN, soften, ssp_loss_and_grad, structure_similarity
from sspq.quantizer import ProductCodebook, train_product_codebook
from sspq.trainer import LOSS_REGRESSION, TrainConfig, adam_step, train_query_model

# Test ids name each kernel by its constant.
KIND_IDS = ["cosine", "neg_euclidean"]


def small_problem(seed=0, n=48, d_in=6, d=8):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, d_in))
    target = encoder_init(d_in, [12], d, seed=seed + 100)
    gallery = forward_matrix(target, raw)
    assert np.abs(np.linalg.norm(gallery, axis=1) - 1.0).max() <= 1e-6
    codebook = train_product_codebook(gallery, m=2, k=4, seed=seed + 200)
    enc = encoder_init(d_in, [10], d, seed=seed + 300)
    return raw, gallery, codebook, enc


def zero_moments(params):
    return [(np.zeros_like(p), np.zeros_like(p)) for p in params]


class TestAdamStep:
    def test_zero_grads_no_change(self):
        params = [np.ones((2, 2)), np.ones(2)]
        grads = [np.zeros((2, 2)), np.zeros(2)]
        before = [p.copy() for p in params]
        adam_step(params, grads, zero_moments(params), 1, lr_t=0.1, weight_decay=0.0)
        for b, p in zip(before, params):
            np.testing.assert_array_equal(b, p)

    def test_first_step_magnitude_is_lr(self):
        params = [np.array([1.0])]
        adam_step(params, [np.array([5.0])], zero_moments(params), 1, lr_t=0.01, weight_decay=0.0)
        assert abs(abs(params[0][0] - 1.0) - 0.01) < 1e-9

    def test_deterministic_trajectory(self):
        rng = np.random.default_rng(0)
        grads_seq = [rng.normal(size=(3,)) for _ in range(10)]

        def run():
            params = [np.zeros(3)]
            moments = zero_moments(params)
            for t, g in enumerate(grads_seq, start=1):
                adam_step(params, [g], moments, t, lr_t=0.05, weight_decay=1e-6)
            return params[0].tobytes()

        assert run() == run()


# sha256 of the trained parameter bytes on small_problem() under
# TrainConfig(epochs=3, batch_size=5, seed=6, **overrides), recorded from the
# implementation whose adam_step and linear_lr checked every step. The 48
# rows make a partial last batch; the hashes pin the Adam update, its bias
# correction, the weight decay and the linear decay bit for bit. They were
# taken with NumPy 2.4 and OpenBLAS on x86-64; a BLAS that rounds a matmul
# differently needs them recorded again from a commit known to be right.
PINNED_PARAMETER_SHA256 = {
    "ssp-cosine": ({}, "5f5e4007e3dd2363816014218563aed2e2f66d23b6d5b7ddc0386ad4114fb318"),
    "ssp-l2": ({"similarity_kind": "l2"}, "68daff86a09265523ced0eefc7c79551f1b807f2e2d66dc8a7743d1d60d8ae8b"),
    "ssp-tau_g-0": ({"tau_g": 0.0}, "8b2dcccd2ab65ed3f9a0d556a8857c44bb1f63c2f42b9d035234725a3b12694d"),
    "reg": ({"loss_kind": LOSS_REGRESSION}, "6011e1d8340de7911e99b19bc6a75882d1da4ce2dc48b87f31550307e64cc373"),
}


@pytest.mark.parametrize("case", sorted(PINNED_PARAMETER_SHA256))
def test_trained_parameters_keep_their_bytes(case):
    overrides, expected = PINNED_PARAMETER_SHA256[case]
    raw, gallery, codebook, enc = small_problem()
    model, _ = train_query_model(enc, gallery, raw, codebook, TrainConfig(epochs=3, batch_size=5, seed=6, **overrides))
    assert hashlib.sha256(b"".join(p.tobytes() for p in model.parameters())).hexdigest() == expected


class TestTrainConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("epochs", 2.5), ("epochs", 0), ("epochs", True), ("epochs", "3"),
            ("batch_size", 2.5), ("batch_size", 0), ("batch_size", True), ("batch_size", None),
            ("tau_q", "1"), ("tau_q", 0), ("tau_q", np.nan), ("tau_q", True),
            ("tau_g", -0.1), ("tau_g", np.inf), ("tau_g", False),
            ("learning_rate", 0.0), ("learning_rate", -np.inf), ("learning_rate", [1e-3]),
            ("weight_decay", -1.0), ("weight_decay", np.nan), ("weight_decay", True),
        ],
    )
    def test_wrong_type_or_range_raises(self, field, value):
        with pytest.raises(BadConfigError):
            TrainConfig(**{field: value})

    def test_tau_q_positive_required(self):
        with pytest.raises(BadConfigError):
            TrainConfig(tau_q=0)

    def test_numpy_and_int_values_accepted(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.uint8(4), learning_rate=1, tau_g=0, weight_decay=0)
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (2, 4, 1)


class TestTrainQueryModel:
    def test_loss_descends_across_epochs(self):
        raw, gallery, codebook, enc = small_problem(seed=1, n=64)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=5)
        _, epoch_means = train_query_model(enc, gallery, raw, codebook, cfg)
        assert epoch_means[1] < epoch_means[0]

    def test_regression_realizable_target_converges(self):
        rng = np.random.default_rng(7)
        raw = rng.normal(size=(32, 8))
        target = encoder_init(8, [32], 8, seed=99)
        gallery = forward_matrix(target, raw)
        assert np.abs(np.linalg.norm(gallery, axis=1) - 1.0).max() <= 1e-6
        codebook = train_product_codebook(gallery, m=2, k=4, seed=3)
        enc = encoder_init(8, [32], 8, seed=1)
        cfg = TrainConfig(
            loss_kind=LOSS_REGRESSION,
            epochs=50,
            batch_size=1,
            learning_rate=3e-2,
            weight_decay=0.0,
            seed=5,
        )
        _, epoch_means = train_query_model(enc, gallery, raw, codebook, cfg)
        assert epoch_means[-1] < 1e-3

    def test_bit_identical_reports(self):
        raw, gallery, codebook, enc = small_problem(seed=2)
        cfg = TrainConfig(epochs=2, batch_size=8, seed=9)
        model_a, losses_a = train_query_model(enc, gallery, raw, codebook, cfg)
        model_b, losses_b = train_query_model(enc, gallery, raw, codebook, cfg)
        assert losses_a == losses_b
        for pa, pb in zip(model_a.parameters(), model_b.parameters()):
            assert pa.tobytes() == pb.tobytes()

    def test_gallery_untouched_and_input_encoder_unmodified(self):
        raw, gallery, codebook, enc = small_problem(seed=3)
        gallery_sum = hashlib.sha256(gallery.tobytes()).hexdigest()
        enc_sum = hashlib.sha256(b"".join(p.tobytes() for p in enc.parameters())).hexdigest()
        cfg = TrainConfig(epochs=1, batch_size=8, seed=1)
        train_query_model(enc, gallery, raw, codebook, cfg)
        assert hashlib.sha256(gallery.tobytes()).hexdigest() == gallery_sum
        assert (
            hashlib.sha256(b"".join(p.tobytes() for p in enc.parameters())).hexdigest()
            == enc_sum
        )

    def test_dimension_mismatch(self):
        raw, gallery, codebook, enc = small_problem(seed=4)
        with pytest.raises(ShapeMismatchError):
            train_query_model(enc, gallery, raw[:, :-1], codebook, TrainConfig(epochs=1))

    def test_regression_gallery_dim_mismatch(self):
        # The regression loss does not check its batches; the run checks them once.
        raw, gallery, codebook, enc = small_problem(seed=4)
        cfg = TrainConfig(epochs=1, loss_kind=LOSS_REGRESSION)
        with pytest.raises(ShapeMismatchError):
            train_query_model(enc, gallery[:, :-1], raw, codebook, cfg)

    def test_negative_seed_in_config_raises(self):
        with pytest.raises(BadConfigError):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_non_int_seed_in_config_raises(self, seed):
        with pytest.raises(BadConfigError):
            TrainConfig(seed=seed)

    def test_negative_seed_set_after_construction_raises(self):
        # The config is frozen, so its construction-time checks hold for
        # every field; a zero batch size would end in ZeroDivisionError.
        cfg = TrainConfig(epochs=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = -1
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.batch_size = 0
        assert (cfg.seed, cfg.batch_size) == (0, 32)

    def test_full_pipeline_parameter_gradients(self):
        # dLoss/d(params) through encoder forward + SSP loss vs. finite differences.
        rng = np.random.default_rng(11)
        raw, gallery, codebook, enc = small_problem(seed=11, n=10)
        assert sum(p.size for p in enc.parameters()) <= 300
        for sample in range(10):
            x = raw[sample : sample + 1]
            g_emb = gallery[sample : sample + 1]

            y, cache = encoder_forward(enc, x)
            _, grad_y = ssp_loss_and_grad(codebook, g_emb, y, 0.1, 1.0)
            analytic = encoder_backward(enc, cache, grad_y)

            for p_idx, p in enumerate(enc.parameters()):
                flat = p.reshape(-1)

                def loss_at(vec, flat=flat):
                    old = flat.copy()
                    flat[:] = vec
                    yy, _ = encoder_forward(enc, x)
                    val = ssp_loss_and_grad(codebook, g_emb, yy, 0.1, 1.0)[0][0]
                    flat[:] = old
                    return val

                numeric = central_diff_grad(loss_at, flat.copy(), h=1e-6)
                assert grad_mismatch(analytic[p_idx].reshape(-1), numeric) < 1e-4


def batch_and_rows(enc, codebook, raw, gallery, tau_g, kind):
    """Forward, SSP loss and backward on the whole batch, then on each row alone.

    Returns:
        ((losses, dLoss/dQ, parameter gradients) of the batch, one such
        triple per row computed as a batch of one).
    """
    y, cache = encoder_forward(enc, raw)
    losses, grad_y = ssp_loss_and_grad(codebook, gallery, y, tau_g, 1.0, kind)
    batched = (losses, grad_y, encoder_backward(enc, cache, grad_y))
    rows = []
    for i in range(raw.shape[0]):
        y1, cache1 = encoder_forward(enc, raw[i : i + 1])
        (loss1,), grad_y1 = ssp_loss_and_grad(codebook, gallery[i : i + 1], y1, tau_g, 1.0, kind)
        rows.append((loss1, grad_y1[0], encoder_backward(enc, cache1, grad_y1)))
    return batched, rows


def assert_batch_matches_rows(batched, rows):
    losses, grad_y, grads = batched
    for i, (loss1, grad_y1, _) in enumerate(rows):
        assert abs(losses[i] - loss1) <= 1e-12 * abs(loss1)
        assert grad_mismatch(grad_y[i], grad_y1) <= 1e-12
    for p_idx, g in enumerate(grads):
        assert grad_mismatch(g, sum(r[2][p_idx] for r in rows)) <= 1e-12


class TestBatchedPath:
    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=KIND_IDS)
    @pytest.mark.parametrize("tau_g", [0.0, 0.1])
    def test_batch_equals_batch_of_one(self, kind, tau_g):
        raw, gallery, codebook, enc = small_problem(seed=21, n=32)
        batched, rows = batch_and_rows(enc, codebook, raw, gallery, tau_g, kind)
        assert_batch_matches_rows(batched, rows)

    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=KIND_IDS)
    def test_mixed_batch_special_rows(self, kind, rng):
        # y = normalize(x + b). Row 1 maps to a zero output (degenerate), row 2
        # to a zero first subvector, row 3 to [0.5] * 4, whose first
        # subvector is centroid 0 of subspace 0; the other rows are random.
        b = np.array([0.25, -0.5, 0.75, 1.0])
        enc = QueryEncoder([4, 4], [np.eye(4)], [b])
        codebook = ProductCodebook(
            [
                [[0.5, 0.5], [1.0, -0.5], [-1.0, 0.25], [0.0, -1.0]],
                [[1.0, 0.0], [0.0, 1.0], [-0.5, -0.5], [0.75, 0.25]],
            ]
        )
        raw = rng.normal(size=(8, 4))
        raw[1] = -b
        raw[2] = [-0.25, 0.5, 1.0, 2.0]
        raw[3] = 0.5 - b
        gallery = rng.normal(size=(8, 4))

        y, cache = encoder_forward(enc, raw)
        assert cache["degenerate"].tolist() == [False, True] + [False] * 6
        np.testing.assert_array_equal(y[1], 0.0)
        np.testing.assert_array_equal(y[2, :2], 0.0)
        np.testing.assert_array_equal(y[3], 0.5)

        batched, rows = batch_and_rows(enc, codebook, raw, gallery, 0.1, kind)
        assert_batch_matches_rows(batched, rows)
        _, grad_y, _ = batched

        # The degenerate row backpropagates through an identity normalization.
        _, grad_y1, (dw, db) = rows[1]
        np.testing.assert_array_equal(db, grad_y1)
        np.testing.assert_array_equal(dw, np.outer(grad_y1, raw[1]))
        if kind == SIM_COSINE:
            # Zero subvectors are dead subspaces under cosine.
            np.testing.assert_array_equal(grad_y[1], 0.0)
            np.testing.assert_array_equal(grad_y[2, :2], 0.0)
        else:
            # The centroid under the subvector drops out of its gradient.
            (s_q,) = structure_similarity(codebook, y[3:4], kind)
            (s_g,) = structure_similarity(codebook, gallery[3:4], kind)
            assert s_q[0, 0] == 0.0
            w = soften(s_q, 1.0) - soften(s_g, 0.1)
            cents, u = codebook.stacked(), y[3, :2]
            expected = sum(w[0, k] * (cents[0, k] - u) / -s_q[0, k] for k in range(1, 4))
            np.testing.assert_allclose(grad_y[3, :2], expected, rtol=0, atol=1e-12)

