import tracemalloc

import numpy as np
import pytest

from oracles import (
    central_diff_grad,
    cosine_sim,
    direct_kl,
    grad_mismatch,
    kl_loss,
    neg_euclid_sim,
    split_subvectors,
)
from sspq.errors import (
    LengthMismatchError,
    ShapeMismatchError,
    ZeroTargetProbabilityError,
)
from sspq.loss import (
    SIM_COSINE,
    SIM_NEG_EUCLIDEAN,
    SspWorkspace,
    regression_loss_and_grad,
    soften,
    ssp_loss_and_grad,
    structure_similarity,
)
from sspq.quantizer import ProductCodebook, train_product_codebook


@pytest.fixture
def axis_codebook():
    """One subspace, two 2-D centroids on the axes."""
    return ProductCodebook([[[1.0, 0.0], [0.0, 1.0]]])


class TestStructureSimilarity:
    def test_cosine_row(self, axis_codebook):
        (sim,) = structure_similarity(axis_codebook, np.array([[1.0, 0.0]]), SIM_COSINE)
        np.testing.assert_allclose(sim, [[1.0, 0.0]], atol=1e-9)

    def test_neg_euclidean_row(self, axis_codebook):
        (sim,) = structure_similarity(axis_codebook, np.array([[1.0, 0.0]]), SIM_NEG_EUCLIDEAN)
        np.testing.assert_allclose(sim, [[0.0, -1.41421356]], atol=1e-8)

    def test_matches_scalar_kernels(self, rng):
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=3, k=4, seed=1)
        cents = cb.stacked()
        for _ in range(10):
            v = rng.normal(size=6)
            subs = split_subvectors(v, 3)
            (cos,) = structure_similarity(cb, v[None], SIM_COSINE)
            (neg,) = structure_similarity(cb, v[None], SIM_NEG_EUCLIDEAN)
            for j in range(3):
                for i in range(4):
                    assert cos[j, i] == pytest.approx(cosine_sim(subs[j], cents[j, i]), abs=1e-12)
                    assert neg[j, i] == pytest.approx(neg_euclid_sim(subs[j], cents[j, i]), abs=1e-12)

    def test_cosine_scale_invariance(self, rng):
        cb = train_product_codebook(rng.normal(size=(15, 4)), m=2, k=3, seed=2)
        v = rng.normal(size=4)
        (base,) = structure_similarity(cb, v[None], SIM_COSINE)
        for c in (0.25, 3.0, 1e3):
            (scaled,) = structure_similarity(cb, c * v[None], SIM_COSINE)
            np.testing.assert_allclose(scaled, base, atol=1e-9)

    def test_length_mismatch(self, axis_codebook):
        with pytest.raises(LengthMismatchError):
            structure_similarity(axis_codebook, np.zeros((1, 3)), SIM_COSINE)


class TestSoften:
    def test_softmax_row(self):
        sim = np.array([[1.0, 0.0]])
        dist = soften(sim, 1.0)
        np.testing.assert_allclose(dist, [[0.73105858, 0.26894142]], atol=1e-8)

    def test_hard_argmax(self):
        sim = np.array([[1.0, 0.0]])
        dist = soften(sim, 0.0)
        np.testing.assert_array_equal(dist, [[1.0, 0.0]])

    def test_hard_tie_breaks_low_index(self):
        sim = np.array([[0.5, 0.5, 0.1]])
        np.testing.assert_array_equal(soften(sim, 0.0), [[1.0, 0.0, 0.0]])

    def test_huge_temperature_flattens(self, rng):
        values = rng.uniform(-1.0, 1.0, size=(1, 256))
        dist = soften(values, 1e9)
        assert float(dist.max() - dist.min()) < 1e-6

    def test_rows_sum_to_one_many_k(self, rng):
        for k in (2, 17, 256, 4096):
            values = rng.uniform(-1.0, 1.0, size=(3, k))
            for tau in (1e-3, 0.1, 1.0, 50.0):
                probs = soften(values, tau)
                np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_hard_limit_monotone_in_max_entry(self, rng):
        for _ in range(10):
            values = rng.uniform(-1.0, 1.0, size=(1, 8))
            top = np.sort(values[0])
            if top[-1] - top[-2] <= 0.01:  # need a clear argmax margin
                values[0, np.argmax(values[0])] += 0.05
            sim = np.clip(values, -1, 1)
            maxima = [float(soften(sim, tau).max()) for tau in (1.0, 0.1, 0.01, 0.001)]
            assert all(a <= b + 1e-12 for a, b in zip(maxima, maxima[1:]))
            one_hot = soften(sim, 0.0)
            np.testing.assert_allclose(soften(sim, 1e-4), one_hot, atol=1e-9)


class TestKlLoss:
    def test_identity_is_zero(self, rng):
        values = rng.uniform(-1, 1, size=(3, 5))
        p = soften(values, 0.5)
        loss = kl_loss(p, p)
        assert loss.sum() == pytest.approx(0.0, abs=1e-12)

    def test_one_hot_reduces_to_neg_log(self):
        p_g = soften(np.array([[-0.1, -2.0, -3.0]]), 0.0)
        p_q = soften(np.array([[-0.5, -1.0, -0.2]]), 1.0)
        loss = kl_loss(p_g, p_q)
        assert loss[0] == pytest.approx(-np.log(p_q[0, 0]), abs=1e-12)

    def test_frozen_two_point_example(self):
        p_g = np.array([[0.73105858, 0.26894142]])
        p_q = np.array([[0.5, 0.5]])
        loss = kl_loss(p_g, p_q).sum()
        assert loss == pytest.approx(0.11100, abs=1e-4)
        assert loss == pytest.approx(direct_kl(p_g, p_q), abs=1e-12)

    def test_nonnegative_and_zero_iff_equal(self, rng):
        for _ in range(20):
            a = soften(rng.uniform(-1, 1, size=(2, 6)), 0.3)
            b = soften(rng.uniform(-1, 1, size=(2, 6)), 0.7)
            loss = kl_loss(a, b).sum()
            assert loss >= 0.0
            if loss < 1e-12:
                np.testing.assert_allclose(a, b, atol=1e-9)

    def test_shape_mismatch(self):
        a = np.full((1, 2), 0.5)
        b = np.full((1, 4), 0.25)
        with pytest.raises(ShapeMismatchError):
            kl_loss(a, b)

    def test_zero_target_probability(self):
        p_g = np.array([[0.5, 0.5]])
        p_q = np.array([[1.0, 0.0]])
        with pytest.raises(ZeroTargetProbabilityError):
            kl_loss(p_g, p_q)

    def test_matching_zeros_allowed(self):
        p_g = np.array([[1.0, 0.0]])
        p_q = np.array([[1.0, 0.0]])
        assert kl_loss(p_g, p_q).sum() == 0.0


class TestSspLossAndGrad:
    def test_matched_distributions_zero_grad(self, rng):
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=2, k=4, seed=3)
        g = rng.normal(size=6)
        (loss,), (grad,) = ssp_loss_and_grad(cb, g[None], g[None].copy(), tau_g=0.7, tau_q=0.7)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=["cosine", "neg_euclidean"])
    def test_gradient_matches_finite_differences(self, kind):
        for trial in range(12):
            rng = np.random.default_rng(200 + trial)
            m = int(rng.choice([1, 2, 4]))
            k = int(rng.choice([2, 4, 8]))
            ds = int(rng.choice([2, 4]))
            cb = train_product_codebook(rng.normal(size=(16, m * ds)), m=m, k=k, seed=trial)
            g = rng.normal(size=m * ds)
            q = rng.normal(size=m * ds)
            tau_g = float(rng.uniform(0.05, 1.0))
            tau_q = float(rng.uniform(0.5, 2.0))
            _, (grad,) = ssp_loss_and_grad(cb, g[None], q[None], tau_g, tau_q, kind)
            numeric = central_diff_grad(
                lambda qq: ssp_loss_and_grad(cb, g[None], qq[None], tau_g, tau_q, kind)[0][0], q
            )
            assert grad_mismatch(grad, numeric) < 1e-5

    def test_soft_matches_hard_at_tiny_tau(self, rng):
        cb = train_product_codebook(rng.normal(size=(30, 8)), m=2, k=4, seed=5)
        checked = 0
        for _ in range(40):
            g = rng.normal(size=8)
            q = rng.normal(size=8)
            (rows,) = structure_similarity(cb, g[None], SIM_COSINE)
            top = np.sort(rows, axis=1)
            if np.min(top[:, -1] - top[:, -2]) <= 0.01:
                continue  # needs a clear per-row argmax margin
            checked += 1
            soft = ssp_loss_and_grad(cb, g[None], q[None], 1e-6, 1.0)[0][0]
            hard = ssp_loss_and_grad(cb, g[None], q[None], 0.0, 1.0)[0][0]
            assert abs(soft - hard) < 1e-3
        assert checked >= 5

    def test_loss_decreases_along_negative_gradient(self, rng):
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=3, k=4, seed=6)
        moved = 0
        for _ in range(20):
            g = rng.normal(size=6)
            q = rng.normal(size=6)
            (loss,), (grad,) = ssp_loss_and_grad(cb, g[None], q[None], 0.1, 1.0)
            if np.linalg.norm(grad) <= 1e-6:
                continue
            moved += 1
            (after,), _ = ssp_loss_and_grad(cb, g[None], (q - 1e-3 * grad)[None], 0.1, 1.0)
            assert after < loss
        assert moved >= 10

    def test_tiny_tau_q_is_a_zero_target_probability(self, rng):
        # p_q underflows to 0 off its argmax while p_g = soften(., 0.1) is
        # positive everywhere; at 1e-310 the logits also overflow to -inf.
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=2, k=4, seed=7)
        g, q = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        for tau_q in (1e-300, 1e-310):
            with pytest.raises(ZeroTargetProbabilityError):
                ssp_loss_and_grad(cb, g, q, 0.1, tau_q)

    def test_tiny_taus_with_matching_supports_stay_finite(self, rng):
        # Both sides one-hot on the same centroid: 0 * ln(0/0) terms are 0.
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=2, k=4, seed=8)
        q = rng.normal(size=(3, 6))
        for tau in (1e-300, 1e-310):
            losses, grad = ssp_loss_and_grad(cb, q, q.copy(), tau, tau)
            np.testing.assert_array_equal(losses, 0.0)
            np.testing.assert_array_equal(grad, 0.0)


def reference_step(cb, g, q, tau_g, tau_q, kind):
    """Losses from soften and the probability-space KL oracle; dLoss/dq from explicit kernel derivatives."""
    s_g = structure_similarity(cb, g, kind)
    s_q = structure_similarity(cb, q, kind)
    p_g, p_q = soften(s_g, tau_g), soften(s_q, tau_q)
    losses = kl_loss(p_g, p_q).sum(axis=1)
    w = (p_q - p_g) / tau_q
    u = q.reshape(q.shape[0], cb.m, cb.sub_dim)
    cents = cb.stacked()
    if kind == SIM_COSINE:
        c_norms = np.linalg.norm(cents, axis=2)
        u_norms = np.linalg.norm(u, axis=2)
        denom = c_norms[None] * u_norms[:, :, None] + 1e-12
        # ds_k/du = c_k / denom_k - s_k |c_k| u / (|u| denom_k)
        ds = cents[None] / denom[..., None] - (s_q * c_norms / denom)[..., None] * (
            u / u_norms[..., None]
        )[:, :, None, :]
    else:
        diff = cents[None] - u[:, :, None, :]  # (B, M, K, d*): c_k - u
        ds = diff / np.linalg.norm(diff, axis=3, keepdims=True)  # d(-|u - c_k|)/du
    grad = np.einsum("bmk,bmkd->bmd", w, ds)
    return losses, grad.reshape(q.shape)


class TestLogSpaceStep:
    """The log-space (M, B, K) step against soften + the probability-space KL oracle."""

    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=["cosine", "neg_euclidean"])
    @pytest.mark.parametrize("tau_g", [0.0, 0.1, 1.0])
    def test_matches_probability_space_reference(self, kind, tau_g):
        rng = np.random.default_rng(31)
        cb = ProductCodebook(rng.normal(size=(4, 32, 3)))
        workspace = SspWorkspace(cb.m, cb.k, 16)
        for rows in (16, 16, 5):  # the partial last batch reuses the full-size workspace
            g = rng.normal(size=(rows, cb.dim))
            q = rng.normal(size=(rows, cb.dim))
            losses, grad = ssp_loss_and_grad(cb, g, q, tau_g, 1.0, kind, workspace=workspace)
            ref_losses, ref_grad = reference_step(cb, g, q, tau_g, 1.0, kind)
            np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
            fresh = ssp_loss_and_grad(cb, g, q, tau_g, 1.0, kind)
            np.testing.assert_array_equal(losses, fresh[0])
            np.testing.assert_array_equal(grad, fresh[1])

    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=["cosine", "neg_euclidean"])
    def test_step_allocates_less_than_one_batch_array(self, kind):
        b, m, k = 32, 8, 256
        rng = np.random.default_rng(5)
        cb = ProductCodebook(rng.normal(size=(m, k, 8)))
        g, q = rng.normal(size=(b, cb.dim)), rng.normal(size=(b, cb.dim))
        workspace = SspWorkspace(m, k, b)
        ssp_loss_and_grad(cb, g, q, 0.1, 1.0, kind, workspace=workspace)  # warm-up
        tracemalloc.start()
        try:
            ssp_loss_and_grad(cb, g, q, 0.1, 1.0, kind, workspace=workspace)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b * m * k * 8


class TestRegressionLoss:
    def test_identical_embeddings(self, rng):
        q = rng.normal(size=5)
        (loss,), (grad,) = regression_loss_and_grad(q[None].copy(), q[None])
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(grad) < 1e-9

    def test_antipodal_is_four(self, rng):
        q = rng.normal(size=5)
        (loss,), _ = regression_loss_and_grad(-q[None], q[None])
        assert loss == pytest.approx(4.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            g = rng.normal(size=6)
            q = rng.normal(size=6)
            _, (grad,) = regression_loss_and_grad(g[None], q[None])
            numeric = central_diff_grad(lambda qq: regression_loss_and_grad(g[None], qq[None])[0][0], q)
            assert grad_mismatch(grad, numeric) < 1e-5

    def test_gradient_orthogonal_to_query(self, rng):
        # The loss depends on the direction of q only.
        g = rng.normal(size=6)
        q = rng.normal(size=6)
        _, (grad,) = regression_loss_and_grad(g[None], q[None])
        assert abs(float(np.dot(grad, q))) < 1e-9 * max(1.0, float(np.linalg.norm(grad)))
