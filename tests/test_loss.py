import tracemalloc

import numpy as np
import pytest

import sspq.loss
from oracles import (
    central_diff_grad,
    cosine_sim,
    direct_kl,
    grad_mismatch,
    kl_loss,
    neg_euclid_sim,
    soften,
    split_subvectors,
    ssp_step,
    structure_similarity,
)
from sspq.errors import (
    LengthMismatchError,
    NonFiniteInputError,
    ShapeMismatchError,
    ZeroTargetProbabilityError,
)
from sspq.embeddings import normalize_rows
from sspq.loss import (
    COSINE_BOUND,
    SIM_COSINE,
    SIM_NEG_EUCLIDEAN,
    _expectation,
    _similarity,
    _soften_into,
    cosine_tau_q_limit,
    gallery_targets,
    regression_loss_and_grad,
    ssp_loss_and_grad,
)
from sspq.quantizer import ProductCodebook, subvectors, train_product_codebook


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
        (loss,), (grad,) = ssp_step(cb, g[None], g[None].copy(), tau_g=0.7, tau_q=0.7)
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
            _, (grad,) = ssp_step(cb, g[None], q[None], tau_g, tau_q, kind)
            numeric = central_diff_grad(
                lambda qq: ssp_step(cb, g[None], qq[None], tau_g, tau_q, kind)[0][0], q
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
            soft = ssp_step(cb, g[None], q[None], 1e-6, 1.0)[0][0]
            hard = ssp_step(cb, g[None], q[None], 0.0, 1.0)[0][0]
            assert abs(soft - hard) < 1e-3
        assert checked >= 5

    def test_loss_decreases_along_negative_gradient(self, rng):
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=3, k=4, seed=6)
        moved = 0
        for _ in range(20):
            g = rng.normal(size=6)
            q = rng.normal(size=6)
            (loss,), (grad,) = ssp_step(cb, g[None], q[None], 0.1, 1.0)
            if np.linalg.norm(grad) <= 1e-6:
                continue
            moved += 1
            (after,), _ = ssp_step(cb, g[None], (q - 1e-3 * grad)[None], 0.1, 1.0)
            assert after < loss
        assert moved >= 10

    def test_tiny_tau_q_is_a_zero_target_probability(self, rng):
        # p_q underflows to 0 off its argmax while p_g = soften(., 0.1) is
        # positive everywhere; at 1e-310 the logits also overflow to -inf.
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=2, k=4, seed=7)
        g, q = rng.normal(size=(3, 6)), rng.normal(size=(3, 6))
        for tau_q in (1e-300, 1e-310):
            with pytest.raises(ZeroTargetProbabilityError):
                ssp_step(cb, g, q, 0.1, tau_q)

    def test_tiny_taus_with_matching_supports_stay_finite(self, rng):
        # Both sides one-hot on the same centroid: 0 * ln(0/0) terms are 0.
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=2, k=4, seed=8)
        q = rng.normal(size=(3, 6))
        for tau in (1e-300, 1e-310):
            losses, grad = ssp_step(cb, q, q.copy(), tau, tau)
            np.testing.assert_array_equal(losses, 0.0)
            np.testing.assert_array_equal(grad, 0.0)


def per_batch_gallery_side(cb, g, tau_g, kind):
    """(p_g, sum p_g log p_g) of a (B, d) batch as each training step once computed them: in arrays of B rows."""
    t, aux, p = np.empty((3, cb.m, len(g), cb.k))
    _similarity(cb, subvectors(g, cb.m), kind, t, aux, np.empty((2, cb.m, len(g), cb.dim // cb.m)))
    lse = _soften_into(t, tau_g, t, p, aux)
    return p, _expectation(p, t) - lse


class TestGalleryTargets:
    """The once-per-run gallery side against the per-batch computation it replaces."""

    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=["cosine", "neg_euclidean"])
    @pytest.mark.parametrize("tau_g", [0.0, 0.1])
    @pytest.mark.parametrize("batch_size", [32, 20])
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 768])
    def test_targets_equal_each_shuffled_batch_bit_for_bit(self, kind, tau_g, batch_size, n):
        rng = np.random.default_rng(n + batch_size)
        cb = ProductCodebook(rng.normal(size=(8, 256, 8)))
        g = rng.normal(size=(n, cb.dim))
        targets = gallery_targets(cb, g, tau_g, 1.0, kind, batch_size)
        expected, neg_entropy = targets.expected, targets.neg_entropy
        b = min(batch_size, n)
        shapes = (expected.shape, neg_entropy.shape, targets.work.shape, targets.vectors.shape)
        assert shapes == ((8, n, 8 if kind == SIM_COSINE else 256), (8, n), (5, 8 * b * 256), (3, b * 64))
        p_g = expected
        if kind == SIM_COSINE:
            # Below the limit a cosine run keeps p_g itself.
            below = gallery_targets(cb, g, tau_g, 1e-3, kind, batch_size)
            p_g = below.expected
            assert p_g.shape == (8, n, 256) and not below.direct
            np.testing.assert_array_equal(below.neg_entropy, neg_entropy)
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            batch = order[lo : lo + batch_size]
            p, h = per_batch_gallery_side(cb, g[batch], tau_g, kind)
            if len(batch) > 1 or n == 1:
                np.testing.assert_array_equal(p_g[:, batch], p)
                np.testing.assert_array_equal(neg_entropy[:, batch], h)
            else:
                # A lone row of a training set of two or more: the per-batch
                # cosine is a matrix-vector product there, which rounds apart.
                np.testing.assert_allclose(p_g[:, batch], p, rtol=1e-13, atol=0)
                np.testing.assert_allclose(neg_entropy[:, batch], h, rtol=1e-13, atol=0)
        if kind == SIM_COSINE:
            # Each coordinate is a convex combination of unit-vector coordinates,
            # so its rounding is bounded at the scale 1, not at its own size.
            np.testing.assert_allclose(expected, p_g @ cb.unit_centroids(), rtol=0, atol=1e-13)
        # sum p_g log p_g, with 0 log 0 := 0
        explicit = np.where(p_g > 0, p_g * np.log(np.where(p_g > 0, p_g, 1.0)), 0.0).sum(axis=2)
        np.testing.assert_allclose(neg_entropy, explicit, rtol=0, atol=1e-12)

    def test_tiny_tau_g_gives_finite_targets(self, rng):
        # The logits overflow to -inf off the argmax, where p_g is 0.
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=2, k=4, seed=8)
        g = rng.normal(size=(5, 6))
        targets = gallery_targets(cb, g, 1e-310, 1.0, SIM_COSINE, 2)
        # Below the limit the run keeps p_g itself.
        below = gallery_targets(cb, g, 1e-310, 1e-3, SIM_COSINE, 2)
        assert below.expected.shape == (2, 5, 4)
        np.testing.assert_array_equal(below.expected.max(axis=2), 1.0)
        for t in (targets, below):
            assert np.isfinite(t.neg_entropy).all() and np.isfinite(t.expected).all()

    def test_overflowing_l2_targets_raise(self):
        # Every l2 distance of a finite row of about 1e160 overflows, so its
        # targets are NaN; its cosine targets are finite.
        rng = np.random.default_rng(9)
        cb = ProductCodebook(rng.normal(size=(4, 16, 2)))
        huge = rng.normal(size=(40, cb.dim)) * 1e160
        with pytest.raises(NonFiniteInputError, match="targets are not finite"):
            gallery_targets(cb, huge, 0.1, 1.0, SIM_NEG_EUCLIDEAN, 32)
        targets = gallery_targets(cb, huge, 0.1, 1.0, SIM_COSINE, 32)
        assert np.isfinite(targets.neg_entropy).all() and np.isfinite(targets.expected).all()
        huge[5, 0] = np.nan
        with pytest.raises(NonFiniteInputError, match="targets are not finite"):
            gallery_targets(cb, huge, 0.1, 1.0, SIM_COSINE, 32)

    @pytest.mark.parametrize(
        "kind, tau_q",
        [(SIM_COSINE, 1.0), (SIM_COSINE, 1e-3), (SIM_NEG_EUCLIDEAN, 1.0)],
        ids=["cosine", "cosine-below-limit", "neg_euclidean"],
    )
    def test_allocates_its_outputs_and_less_than_one_batch_array(self, kind, tau_q):
        # No (M, n, K) temporary: beyond the (M, n, K) p_g or the (M, n, d*)
        # expected unit centroids of a cosine run above the limit, the
        # (M, n) output, the work arrays and block-sized scratch.
        n, m, k, b = 768, 8, 256, 32
        rng = np.random.default_rng(6)
        cb = ProductCodebook(rng.normal(size=(m, k, 8)))
        g = rng.normal(size=(n, cb.dim))
        gallery_targets(cb, g[:b], 0.1, tau_q, kind, b)  # warm-up
        tracemalloc.start()
        try:
            targets = gallery_targets(cb, g, 0.1, tau_q, kind, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        outputs = (targets.expected, targets.neg_entropy, targets.work, targets.vectors)
        assert peak - sum(a.nbytes for a in outputs) < b * m * k * 8
        assert targets.expected.shape == (m, n, 8 if targets.direct else k)
        if kind == SIM_COSINE and tau_q == 1.0:
            # Nothing of (M, n, K) size was ever held.
            assert targets.expected.shape == (m, n, 8)
            assert peak < m * n * k * 8

    @pytest.mark.parametrize("tau_g", [0.0, 1e-310, 0.1])
    @pytest.mark.parametrize("tau_q", [1e-310, 1e-300, 1e-3, 1.0])
    def test_zero_target_probability_where_the_probability_space_kl_is_infinite(self, rng, tau_g, tau_q):
        # The step raises exactly where the oracle KL of the softened sides has no finite value.
        cb = train_product_codebook(rng.normal(size=(20, 6)), m=2, k=4, seed=7)
        for g, q in ((rng.normal(size=(3, 6)), rng.normal(size=(3, 6))), (np.ones((2, 6)), np.ones((2, 6)))):
            with np.errstate(over="ignore", invalid="ignore"):
                p_g = soften(structure_similarity(cb, g), tau_g)
                p_q = soften(structure_similarity(cb, q), tau_q)
            try:
                kl_loss(p_g, p_q)
                infinite = False
            except ZeroTargetProbabilityError:
                infinite = True
            if infinite:
                with pytest.raises(ZeroTargetProbabilityError):
                    ssp_step(cb, g, q, tau_g, tau_q)
            else:
                assert np.isfinite(ssp_step(cb, g, q, tau_g, tau_q)[0]).all()


def reference_step(cb, g, q, tau_g, tau_q, kind):
    """Losses from soften and the probability-space KL oracle; dLoss/dq from explicit kernel derivatives."""
    s_g = structure_similarity(cb, g, kind)
    s_q = structure_similarity(cb, q, kind)
    p_g, p_q = soften(s_g, tau_g), soften(s_q, tau_q)
    losses = kl_loss(p_g, p_q).sum(axis=1)
    w = (p_q - p_g) / tau_q
    u = q.reshape(q.shape[0], cb.m, -1)
    cents = cb.stacked()
    if kind == SIM_COSINE:
        unit_c = cents / np.linalg.norm(cents, axis=2, keepdims=True)
        u_norms = np.linalg.norm(u, axis=2, keepdims=True)
        unit_u = u / u_norms
        # ds_k/du = (c^_k - u^ (u^.c^_k)) / |u|
        along = np.einsum("bmd,mkd->bmk", unit_u, unit_c)
        ds = (unit_c[None] - along[..., None] * unit_u[:, :, None, :]) / u_norms[..., None]
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
        for rows in (16, 16, 5, 1, 15):
            g = rng.normal(size=(rows, cb.dim))
            q = rng.normal(size=(rows, cb.dim))
            targets = gallery_targets(cb, g, tau_g, 1.0, kind, 16)
            losses, grad = ssp_loss_and_grad(cb, targets, np.arange(rows), q)
            ref_losses, ref_grad = reference_step(cb, g, q, tau_g, 1.0, kind)
            np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
            fresh = ssp_step(cb, g, q, tau_g, 1.0, kind)
            np.testing.assert_array_equal(losses, fresh[0])
            np.testing.assert_array_equal(grad, fresh[1])

    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=["cosine", "neg_euclidean"])
    @pytest.mark.parametrize("tau_g", [0.0, 0.1, 1.0])
    def test_short_batch_reads_the_front_of_the_run_work_array(self, kind, tau_g):
        # Targets for 37 rows at 16 rows a step; the last, short step reads
        # the front of each slot of the work array.
        rng = np.random.default_rng(37)
        cb = ProductCodebook(rng.normal(size=(4, 32, 3)))
        g = rng.normal(size=(37, cb.dim))
        targets = gallery_targets(cb, g, tau_g, 1.0, kind, 16)
        order = rng.permutation(37)
        for batch in np.split(order, [16, 32]):
            q = rng.normal(size=(len(batch), cb.dim))
            losses, grad = ssp_loss_and_grad(cb, targets, batch, q)
            ref_losses, ref_grad = reference_step(cb, g[batch], q, tau_g, 1.0, kind)
            np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
            fresh = ssp_step(cb, g[batch], q, tau_g, 1.0, kind)
            np.testing.assert_array_equal(losses, fresh[0])
            np.testing.assert_array_equal(grad, fresh[1])

    @pytest.mark.parametrize("kind", [SIM_COSINE, SIM_NEG_EUCLIDEAN], ids=["cosine", "neg_euclidean"])
    def test_step_allocates_less_than_one_batch_array(self, kind):
        b, m, k = 32, 8, 256
        rng = np.random.default_rng(5)
        cb = ProductCodebook(rng.normal(size=(m, k, 8)))
        g, q = rng.normal(size=(b, cb.dim)), rng.normal(size=(b, cb.dim))
        targets = gallery_targets(cb, g, 0.1, 1.0, kind, b)
        rows = np.arange(b)
        ssp_loss_and_grad(cb, targets, rows, q)  # warm-up
        tracemalloc.start()
        try:
            ssp_loss_and_grad(cb, targets, rows, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b * m * k * 8

    def test_cosine_step_allocates_less_than_a_quarter_batch_array(self):
        # No (M, B, K) outer product of norms and no broadcast buffer of the softmax.
        b, m, k = 32, 8, 256
        rng = np.random.default_rng(5)
        cb = ProductCodebook(rng.normal(size=(m, k, 8)))
        g, q = rng.normal(size=(b, cb.dim)), rng.normal(size=(b, cb.dim))
        targets = gallery_targets(cb, g, 0.1, 1.0, SIM_COSINE, b)
        rows = np.arange(b)
        ssp_loss_and_grad(cb, targets, rows, q)  # warm-up
        tracemalloc.start()
        try:
            ssp_loss_and_grad(cb, targets, rows, q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < b * m * k * 8 // 4


def general_targets(monkeypatch, cb, g, tau_g, tau_q, batch_rows):
    """Cosine ``gallery_targets`` of ``g`` that keep p_g itself, as a run below the limit does."""
    with monkeypatch.context() as general:
        general.setattr(sspq.loss, "cosine_tau_q_limit", lambda k: np.inf)
        targets = gallery_targets(cb, g, tau_g, tau_q, SIM_COSINE, batch_rows)
    assert targets.expected.shape == (cb.m, len(g), cb.k) and not targets.direct
    return targets


class TestCosineExpectedCentroids:
    """The cosine step that reads c̄_g = p_g @ unit centroids against the reference and the general path."""

    @pytest.mark.parametrize("tau_g", [0.0, 0.1])
    @pytest.mark.parametrize("tau_q", [1e-2, 0.1, 1.0, 2.0])
    def test_matches_reference_and_the_general_path(self, monkeypatch, tau_g, tau_q):
        rng = np.random.default_rng(41)
        cb = ProductCodebook(rng.normal(size=(4, 32, 3)))
        g = rng.normal(size=(37, cb.dim))
        targets = gallery_targets(cb, g, tau_g, tau_q, SIM_COSINE, 16)
        assert targets.expected.shape == (4, 37, 3) and targets.direct
        general = general_targets(monkeypatch, cb, g, tau_g, tau_q, 16)
        for batch in np.split(rng.permutation(37), [16, 32, 36]):
            q = rng.normal(size=(len(batch), cb.dim))
            losses, grad = ssp_loss_and_grad(cb, targets, batch, q)
            ref_losses, ref_grad = reference_step(cb, g[batch], q, tau_g, tau_q, SIM_COSINE)
            np.testing.assert_allclose(losses, ref_losses, rtol=1e-12, atol=0)
            # The gradient grows as 1 / tau_q; 1e-12 of its largest coordinate.
            np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())
            gen_losses, gen_grad = ssp_loss_and_grad(cb, general, batch, q)
            np.testing.assert_allclose(losses, gen_losses, rtol=1e-12, atol=0)
            np.testing.assert_allclose(grad, gen_grad, rtol=0, atol=1e-12 * np.abs(gen_grad).max())

    def test_underflow_threshold_picks_the_path(self, monkeypatch):
        rng = np.random.default_rng(43)
        cb = ProductCodebook(rng.normal(size=(4, 32, 3)))
        g, q = rng.normal(size=(2, 8, cb.dim))
        # |s| <= 1 + delta, so a row spans at most 2(1 + delta), and the least
        # exp(s / tau_q) over its sum is at least exp(-2(1 + delta) / tau_q) / K.
        limit = cosine_tau_q_limit(cb.k)
        assert limit == 2 * COSINE_BOUND / (1074 * np.log(2) - np.log(cb.k))
        for tau_q, general in ((limit * (1 + 1e-4), False), (limit, False), (limit * (1 - 1e-4), True)):
            targets = gallery_targets(cb, g, 0.1, tau_q, SIM_COSINE, 8)
            assert targets.expected.shape == (4, 8, 32 if general else 3) and targets.direct == (not general)
            losses, grad = ssp_loss_and_grad(cb, targets, np.arange(8), q)
            assert np.isfinite(losses).all() and np.isfinite(grad).all()
            forced = general_targets(monkeypatch, cb, g, 0.1, tau_q, 8)
            gen_losses, gen_grad = ssp_loss_and_grad(cb, forced, np.arange(8), q)
            np.testing.assert_allclose(losses, gen_losses, rtol=1e-12, atol=0)
            np.testing.assert_allclose(grad, gen_grad, rtol=0, atol=1e-12 * np.abs(gen_grad).max())

    @pytest.mark.parametrize("tau_q", [1.0, 0.5])
    def test_a_nan_query_row_stays_in_its_row(self, tau_q):
        # Above the limit, a NaN similarity makes its own row sum of e NaN
        # and leaves the other rows as a step without that row scores them.
        rng = np.random.default_rng(47)
        cb = ProductCodebook(rng.normal(size=(4, 32, 3)))
        g, q = rng.normal(size=(2, 8, cb.dim))
        q[3, 4] = np.nan
        targets = gallery_targets(cb, g, 0.1, tau_q, SIM_COSINE, 8)
        losses, grad = ssp_loss_and_grad(cb, targets, np.arange(8), q)
        assert np.isnan(losses[3]) and np.isfinite(np.delete(losses, 3)).all()
        assert np.isfinite(np.delete(grad, 3, axis=0)).all()
        rest = np.delete(np.arange(8), 3)
        rest_losses, rest_grad = ssp_loss_and_grad(cb, targets, rest, q[rest])
        np.testing.assert_array_equal(np.delete(losses, 3), rest_losses)
        np.testing.assert_allclose(np.delete(grad, 3, axis=0), rest_grad, rtol=0, atol=1e-12 * np.abs(rest_grad).max())

    def test_a_lone_row_reads_its_targets_as_the_run_scored_them(self, monkeypatch, rng):
        # The run scored blocks of 16, so a lone row's p_g is that of a block
        # of two: a one-row matmul rounds differently.
        cb = ProductCodebook(rng.normal(size=(4, 32, 3)))
        g = rng.normal(size=(37, cb.dim))
        targets = general_targets(monkeypatch, cb, g, 0.1, 1.0, 16)
        p, _ = per_batch_gallery_side(cb, g[[36, 5]], 0.1, SIM_COSINE)
        np.testing.assert_array_equal(targets.expected[:, [36]], p[:, :1])
        # Matching one-hot supports at a tiny tau keep their exact zeros.
        q = g[[36]].copy()
        targets = gallery_targets(cb, g, 1e-300, 1e-300, SIM_COSINE, 16)
        losses, grad = ssp_loss_and_grad(cb, targets, np.array([36]), q)
        np.testing.assert_array_equal(losses, 0.0)
        np.testing.assert_array_equal(grad, 0.0)


class TestDegenerateCosine:
    """A subvector or centroid of norm below NORM_EPS is a zero vector under cosine."""

    def test_tiny_subvector_gives_a_zero_row_and_a_zero_gradient(self, rng):
        cb = ProductCodebook(rng.normal(size=(2, 4, 3)))
        q = rng.normal(size=(3, 6))
        q[1, :3] = [1e-13, -2e-14, 3e-14]
        sim = structure_similarity(cb, q, SIM_COSINE)
        np.testing.assert_array_equal(sim[1, 0], 0.0)
        assert np.all(np.delete(sim, 1, axis=0) != 0.0) and np.all(sim[1, 1] != 0.0)
        _, grad = ssp_step(cb, rng.normal(size=(3, 6)), q, 0.1, 1.0)
        np.testing.assert_array_equal(grad[1, :3], 0.0)
        assert np.all(grad[1, 3:] != 0.0)

    def test_zero_centroid_gives_a_zero_column(self, rng):
        cents = rng.normal(size=(2, 4, 3))
        cents[1, 2] = 0.0
        sim = structure_similarity(ProductCodebook(cents), rng.normal(size=(5, 6)), SIM_COSINE)
        np.testing.assert_array_equal(sim[:, 1, 2], 0.0)
        assert np.all(np.delete(sim[:, 1], 2, axis=1) != 0.0)

    def test_unit_centroids_are_read_only_unit_rows(self, rng):
        cents = 10.0 * rng.normal(size=(3, 5, 4))
        cents[0, 1] = 0.0
        unit = ProductCodebook(cents).unit_centroids()
        assert unit.shape == (3, 5, 4) and not unit.flags.writeable
        norms = np.linalg.norm(unit, axis=2)
        np.testing.assert_array_equal(unit[0, 1], 0.0)
        np.testing.assert_allclose(np.delete(norms.ravel(), 1), 1.0, rtol=0, atol=1e-15)
        with pytest.raises(ValueError):
            unit[1, 1, 1] = 0.0


def reg_step(g: np.ndarray, q: np.ndarray):
    """``regression_loss_and_grad`` of (B, d) batches paired row by row."""
    return regression_loss_and_grad(normalize_rows(g)[0], np.arange(len(q)), q)


class TestRegressionLoss:
    def test_identical_embeddings(self, rng):
        q = rng.normal(size=5)
        (loss,), (grad,) = reg_step(q[None].copy(), q[None])
        assert loss == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(grad) < 1e-9

    def test_antipodal_is_four(self, rng):
        q = rng.normal(size=5)
        (loss,), _ = reg_step(-q[None], q[None])
        assert loss == pytest.approx(4.0, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        for _ in range(20):
            g = rng.normal(size=6)
            q = rng.normal(size=6)
            _, (grad,) = reg_step(g[None], q[None])
            numeric = central_diff_grad(lambda qq: reg_step(g[None], qq[None])[0][0], q)
            assert grad_mismatch(grad, numeric) < 1e-5

    def test_gradient_orthogonal_to_query(self, rng):
        # The loss depends on the direction of q only.
        g = rng.normal(size=6)
        q = rng.normal(size=6)
        _, (grad,) = reg_step(g[None], q[None])
        assert abs(float(np.dot(grad, q))) < 1e-9 * max(1.0, float(np.linalg.norm(grad)))
