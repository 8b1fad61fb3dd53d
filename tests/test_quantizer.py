import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import sspq.quantizer
from oracles import (
    brute_force_kmeans_objective,
    greedy_kmeans_pp_init,
    per_dimension_argmin,
    reconstruct,
    reconstruction_sq_dist,
    running_sum_adc,
    stable_order,
    structure_similarity,
)
from sspq.embeddings import EmbeddingMatrix
from sspq.errors import (
    BadConfigError,
    EmptyGalleryError,
    EmptyInputError,
    FormatError,
    IndivisibleDimensionError,
    InvariantError,
    LengthMismatchError,
    NonFiniteInputError,
    NonPowerOfTwoKError,
    ShapeMismatchError,
)
from sspq.evaluation import average_precision, evaluate_pq
from sspq.quantizer import (
    _CHUNK_ELEMENTS,
    _SEED_BLOCK_ELEMENTS,
    ProductCodebook,
    _kmeans_pp_init,
    adc_scores,
    adc_table,
    codebook_load,
    codebook_save,
    encode_matrix,
    kmeans_fit,
    memory_report,
    subvector_sq_dists,
    subvectors,
    train_product_codebook,
)

# (M, d*) pairs with many short subvectors, the default split, and few long ones.
KERNEL_SHAPES = [(8, 8), (32, 2), (2, 32)]
# KERNEL_SHAPES and the unsplit M=1, all at d=64.
ENCODE_SHAPES = KERNEL_SHAPES + [(1, 64)]


class TestKMeansFit:
    def test_two_cluster_global_optimum(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        result = kmeans_fit(pts[None], 2, seed=0)
        oracle = brute_force_kmeans_objective(pts, 2)
        assert result.objective_history[0][-1] == pytest.approx(oracle, abs=1e-12)
        assert result.objective_history[0][-1] == pytest.approx(1.0)
        assert sorted(result.centroids[0].tolist()) == [[0.0, 0.5], [10.0, 0.5]]

    def test_k_equals_n_zero_objective(self, rng):
        pts = rng.normal(size=(5, 3))
        result = kmeans_fit(pts[None], 5, seed=1)
        assert result.objective_history[0][-1] == pytest.approx(0.0, abs=1e-18)
        assert sorted(result.assignments[0].tolist()) == [0, 1, 2, 3, 4]

    def test_k_one_is_mean(self, rng):
        pts = rng.normal(size=(9, 4))
        result = kmeans_fit(pts[None], 1, seed=2)
        np.testing.assert_allclose(result.centroids[0, 0], pts.mean(axis=0), atol=1e-12)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            kmeans_fit(np.empty((1, 0, 2)), 1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, rng, bad):
        pts = rng.normal(size=(10, 4))
        pts[3, 2] = bad
        with pytest.raises(NonFiniteInputError):
            kmeans_fit(pts[None], 2, seed=0)
        with pytest.raises(NonFiniteInputError):
            train_product_codebook(pts, m=2, k=2, seed=0)

    def test_objective_history_monotone(self, rng):
        for trial in range(10):
            pts = rng.normal(size=(40, 3))
            result = kmeans_fit(pts[None], 5, seed=trial)
            hist = result.objective_history[0]
            assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))
            assert hist[-1] >= 0.0

    def test_brute_force_small_instances(self):
        # Best-of-5 restarts reach the enumerated global optimum.
        for trial in range(6):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            d = int(rng.integers(1, 3))
            pts = rng.normal(size=(n, d))
            best = min(kmeans_fit(pts[None], k, seed=s).objective_history[0][-1] for s in range(5))
            assert best == pytest.approx(brute_force_kmeans_objective(pts, k), abs=1e-9)

    def test_deterministic(self, rng):
        pts = rng.normal(size=(30, 4))
        a = kmeans_fit(pts[None], 4, seed=7)
        b = kmeans_fit(pts[None], 4, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_empty_cluster_takes_the_farthest_point(self, rng):
        # Three distinct points, each twice, and four centroids: seeding's
        # fourth pick repeats a chosen point, its cluster starts empty, and
        # the repair moves a point into it.
        pts = np.repeat(rng.normal(size=(3, 2)), 2, axis=0)
        for seed in range(3):
            result = kmeans_fit(pts[None], 4, seed=seed)
            assert set(result.assignments[0].tolist()) == {0, 1, 2, 3}
            assert result.objective_history[0][-1] == 0.0

    @pytest.mark.parametrize("max_iters", [1, 50])
    def test_repair_fills_every_empty_cluster_when_points_lie_on_centroids(self, max_iters):
        # Three distinct points four times each and eight centroids: five
        # clusters start empty and every point lies on its centroid, so each
        # repair must take a point that has not moved yet from a cluster that
        # keeps another member.
        pts = np.repeat(np.random.default_rng(0).normal(size=(3, 2)), 4, axis=0)
        result = kmeans_fit(pts[None], 8, seed=0, max_iters=max_iters)
        assert np.bincount(result.assignments[0], minlength=8).min() > 0
        assert result.objective_history == [[0.0]]

    def test_all_clusters_used_when_k_le_n(self, rng):
        pts = rng.normal(size=(20, 2))
        result = kmeans_fit(pts[None], 6, seed=3)
        assert set(result.assignments[0].tolist()) == set(range(6))

    @pytest.mark.parametrize("offset", [1e7, 1e8])
    def test_common_offset_reaches_the_objective_at_the_origin(self, offset):
        # Two tight 4-D clusters. At these offsets |x|^2 dwarfs every
        # distance, so an argmin of |x|^2 + |c|^2 - 2 x.c alone mis-assigns
        # most points and Lloyd settles on a worse objective.
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(scale=0.1, size=(200, 4)), rng.normal(scale=0.1, size=(200, 4)) + 1.0])
        at_origin = kmeans_fit(x[None], 8, seed=0).objective_history[0][-1]
        assert kmeans_fit(x[None] + offset, 8, seed=0).objective_history[0][-1] == pytest.approx(at_origin, rel=1e-6)

    @pytest.mark.parametrize(
        "fn",
        [lambda x, k, seed: kmeans_fit(x[None], k, seed), lambda x, k, seed: train_product_codebook(x, 2, k, seed)],
        ids=["kmeans_fit", "train_product_codebook"],
    )
    def test_negative_seed_raises(self, rng, fn):
        with pytest.raises(BadConfigError):
            fn(rng.normal(size=(10, 4)), 2, seed=-1)

    @pytest.mark.parametrize(
        "fn",
        [lambda x, k, seed: kmeans_fit(x[None], k, seed), lambda x, k, seed: train_product_codebook(x, 2, k, seed)],
        ids=["kmeans_fit", "train_product_codebook"],
    )
    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_non_int_seed_raises(self, rng, fn, seed):
        with pytest.raises(BadConfigError):
            fn(rng.normal(size=(10, 4)), 2, seed=seed)


class TestKMeansPPInit:
    """The batched matmul-scored seeding equals the per-trial exact loop bit
    for bit on every subspace of a stack, each drawing from its own rng."""

    @staticmethod
    def assert_matches_oracle(xs, k, seed):
        rngs_fast = [np.random.default_rng(seed + j) for j in range(len(xs))]
        rngs_ref = [np.random.default_rng(seed + j) for j in range(len(xs))]
        fast = _kmeans_pp_init(xs, k, rngs_fast)
        for x, got, rng_fast, rng_ref in zip(xs, fast, rngs_fast, rngs_ref):
            ref = greedy_kmeans_pp_init(x, k, rng_ref)
            assert got.tobytes() == ref.tobytes()
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    @staticmethod
    def stack(x):
        # The case's points, their mirror image and a scaled copy in reverse
        # order: three subspaces that draw and pick differently.
        return np.stack([x, -x, 3.0 * x[::-1]])

    @pytest.mark.parametrize("dim", [1, 2, 8, 32])
    @pytest.mark.parametrize("k", [1, 2, 16, 256])
    def test_gaussian_anchors(self, dim, k):
        x = np.random.default_rng(dim * 1000 + k).normal(size=(512, dim))
        self.assert_matches_oracle(self.stack(x), k, seed=dim + k)

    def test_duplicates_with_k_above_n(self, rng):
        # Three distinct points twice each: after three picks the potential is
        # zero and every further pick takes the total <= 0 branch.
        x = np.repeat(rng.normal(size=(3, 4)), 2, axis=0)
        for seed in range(5):
            self.assert_matches_oracle(self.stack(x), 16, seed)

    def test_zero_potential_subspace_next_to_live_ones(self, rng):
        # Subspace 1 is one point repeated, so its potential is 0 from the
        # first pick on while the others draw D^2-weighted candidates.
        x = rng.normal(size=(64, 4))
        xs = np.stack([x, np.broadcast_to(x[5], x.shape), x[::-1]])
        for seed in range(3):
            self.assert_matches_oracle(xs, 16, seed)

    def test_stack_spanning_several_screening_blocks(self, rng):
        # n = 512 and k = 256 score 32768 // (10 * 512) = 6 subspaces a block,
        # so 13 make two full blocks and a ragged one; subspace 8, in the
        # second block, is one point repeated, so its potential is 0 throughout.
        # The stack is the strided view of (n, d) rows that kmeans_fit passes.
        x = rng.normal(size=(512, 2))
        assert _SEED_BLOCK_ELEMENTS // (10 * 512) == 6
        rows = np.hstack([(1.0 + 0.25 * j) * np.roll(x, 37 * j, axis=0) for j in range(13)])
        rows[:, 16:18] = x[5]
        self.assert_matches_oracle(subvectors(rows, 13), 256, seed=4)

    def test_common_offset_forces_exact_recheck(self, rng):
        # |x|^2 ~ 1e12 against distances ~ 1e-6: the matmul potentials are
        # all cancellation noise, so every step is decided by the recheck and
        # every distance update is rescored exactly.
        x = rng.normal(size=(200, 8)) * 1e-3 + 1e6
        for seed in range(3):
            self.assert_matches_oracle(np.stack([x, x[::-1], 2.0 * x]), 32, seed)

    def test_exact_tie_goes_to_first_trial(self):
        # From the centre, both ends give potential exactly 1; when the three
        # trials draw both ends, the earlier trial's end must win.
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        ties = 0
        for seed in range(40):
            self.assert_matches_oracle(self.stack(x), 2, seed)
            draws = np.random.default_rng(seed)
            first = int(draws.integers(3))
            ends = (draws.random(3) * 2.0 >= 1.0).astype(int)  # cumulative d2 is [1, 2, 2]
            if first == 2 and len(set(ends.tolist())) == 2:
                ties += 1
                got = _kmeans_pp_init(x[None], 2, [np.random.default_rng(seed)])[0]
                np.testing.assert_array_equal(got[1], x[ends[0]])
        assert ties > 0


class TestStackedKMeans:
    """An M-subspace ``kmeans_fit`` equals one one-subspace run per subspace at seed + j."""

    @staticmethod
    def assert_equals_flat_runs(x, m, k, seed, max_iters=50):
        ds = x.shape[1] // m
        stacked = kmeans_fit(subvectors(x, m), k, seed, max_iters=max_iters)
        assert stacked.centroids.shape == (m, k, ds)
        assert stacked.assignments.shape == (m, x.shape[0])
        flats = [kmeans_fit(x[None, :, j * ds : (j + 1) * ds], k, seed + j, max_iters=max_iters)
                 for j in range(m)]
        for j, flat in enumerate(flats):
            assert stacked.centroids[j].tobytes() == flat.centroids[0].tobytes()
            np.testing.assert_array_equal(stacked.assignments[j], flat.assignments[0])
            assert stacked.objective_history[j] == flat.objective_history[0]
            assert len(stacked.objective_history[j]) == flat.iterations_run
        assert type(stacked.iterations_run) is int
        assert stacked.iterations_run == sum(flat.iterations_run for flat in flats)
        return [flat.iterations_run for flat in flats]

    @pytest.mark.parametrize("m, ds", KERNEL_SHAPES)
    def test_stack_equals_flat_runs(self, rng, m, ds):
        centres = rng.normal(size=(12, m * ds))
        x = centres[rng.integers(12, size=400)] + 0.3 * rng.normal(size=(400, m * ds))
        for seed in (0, 7):
            self.assert_equals_flat_runs(x, m, 32, seed)

    def test_subspaces_stop_at_different_iterations(self, rng):
        # Subspace 0 holds four tight clusters and converges at once; the
        # others are Gaussian noise and need many iterations.
        x = rng.normal(size=(300, 8))
        x[:, :2] = 10.0 * rng.normal(size=(4, 2))[np.arange(300) % 4] + 1e-3 * x[:, :2]
        iterations = self.assert_equals_flat_runs(x, 4, 4, seed=3)
        assert len(set(iterations)) > 1
        assert iterations[0] < max(iterations)

    def test_all_duplicate_subspace_next_to_live_ones(self, rng):
        # Subspace 1 is one point repeated: its seeding takes the potential-0
        # branch from the second pick on, and every centroid is that point.
        x = rng.normal(size=(120, 6))
        x[:, 2:4] = rng.normal(size=2)
        self.assert_equals_flat_runs(x, 3, 8, seed=11)
        self.assert_equals_flat_runs(x, 3, 8, seed=11, max_iters=1)

    def test_max_iters_one_runs_one_lloyd_pass_per_subspace(self, rng):
        result = kmeans_fit(subvectors(rng.normal(size=(50, 8)), 4), 4, seed=0, max_iters=1)
        assert [len(h) for h in result.objective_history] == [1, 1, 1, 1]
        assert result.iterations_run == 4

    @pytest.mark.parametrize("shape", [(5,), (1, 2, 3, 4), (4, 2)])
    def test_points_must_be_a_stack(self, shape):
        with pytest.raises(ShapeMismatchError):
            kmeans_fit(np.zeros(shape), 1, seed=0)


class TestProductCodebook:
    def test_shape_gives_sizes_and_values_round_to_float32(self):
        cb = ProductCodebook(np.full((3, 4, 2), 0.1))
        assert (cb.m, cb.k, cb.stacked().shape[2], cb.dim) == (3, 4, 2, 6)
        assert cb.stacked().dtype == np.float64
        np.testing.assert_array_equal(cb.stacked(), np.float32(0.1))
        assert not cb.stacked().flags.writeable

    @pytest.mark.parametrize("shape", [(4, 2), (0, 4, 2), (3, 0, 2), (3, 4, 0)])
    def test_bad_shape_raises(self, shape):
        with pytest.raises(ShapeMismatchError):
            ProductCodebook(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39], ids=["nan", "inf", "-inf", "float32-overflow"])
    def test_centroid_that_is_or_rounds_to_non_finite_raises(self, rng, bad):
        # Encoding would code every row of the subspace to a NaN centroid,
        # the index np.argmin returns.
        cents = rng.normal(size=(2, 4, 3))
        cents[1, 2, 0] = bad
        with pytest.raises(NonFiniteInputError):
            ProductCodebook(cents)


class TestTrainProductCodebook:
    def test_matches_manual_slices(self, rng):
        feats = rng.normal(size=(12, 4))
        cb = train_product_codebook(feats, m=2, k=2, seed=11)
        for j in range(2):
            manual = kmeans_fit(feats[None, :, j * 2 : (j + 1) * 2], 2, seed=11 + j)
            np.testing.assert_array_equal(cb.stacked()[j], manual.centroids[0].astype(np.float32))

    def test_centroids_that_overflow_float32_raise(self, rng):
        # They would round to an all-inf codebook whose codes are all 0.
        with pytest.raises(NonFiniteInputError):
            train_product_codebook(rng.normal(size=(12, 4)) * 1e39, m=2, k=4, seed=0)

    def test_anchor_counts(self, rng):
        cb = train_product_codebook(rng.normal(size=(8, 4)), m=2, k=2, seed=0)
        assert cb.k**cb.m == 4

    def test_large_anchor_count_exact(self):
        # K^M stays an exact integer even when it far exceeds float range.
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning):
            cb = train_product_codebook(rng.normal(size=(4, 32)), m=32, k=256, seed=0)
        assert cb.k**cb.m == 256**32

    @pytest.mark.parametrize("m", [2, 10**5000], ids=["2", "too-long-to-print"])
    def test_indivisible_dimension(self, rng, m):
        with pytest.raises(IndivisibleDimensionError):
            train_product_codebook(rng.normal(size=(6, 5)), m=m, k=2, seed=0)

    def test_m1_degenerates_to_flat_kmeans(self, rng):
        feats = rng.normal(size=(15, 3))
        cb = train_product_codebook(feats, m=1, k=3, seed=21)
        flat = kmeans_fit(feats[None], 3, seed=21)
        np.testing.assert_array_equal(cb.stacked()[0], flat.centroids[0].astype(np.float32))

    def test_deterministic_bits(self, rng):
        feats = rng.normal(size=(20, 6))
        a = train_product_codebook(feats, m=3, k=4, seed=5)
        b = train_product_codebook(feats, m=3, k=4, seed=5)
        assert a.stacked().tobytes() == b.stacked().tobytes()

    def test_trained_centroids_pairwise_distinct(self, rng):
        feats = rng.normal(size=(50, 6))  # far more distinct subvectors than K
        cb = train_product_codebook(feats, m=2, k=5, seed=12)
        for c in cb.stacked():
            diff = c[:, None, :] - c[None, :, :]
            d2 = (diff * diff).sum(axis=2)
            d2[np.diag_indices_from(d2)] = np.inf
            assert float(d2.min()) > 1e-9


class TestEncode:
    def test_exact_centroid_match(self, tiny_codebook):
        v = np.concatenate(
            [tiny_codebook.stacked()[j, 1] for j in range(tiny_codebook.m)]
        )
        assert tuple(encode_matrix(tiny_codebook, v[None])[0]) == (1, 1)

    def test_tie_breaks_to_lowest_index(self, tiny_codebook):
        # Equidistant from centroids 0 and 1 in both subspaces.
        v = np.array([0.5, 0.5, 0.5, 1.25])
        assert tuple(encode_matrix(tiny_codebook, v[None])[0]) == (0, 0)

    def test_matches_brute_force_scan(self, rng):
        feats = rng.normal(size=(40, 6))
        cb = train_product_codebook(feats, m=3, k=4, seed=9)
        cents = cb.stacked()
        for _ in range(25):
            v = rng.normal(size=6)
            code = encode_matrix(cb, v[None])[0]
            for j in range(3):
                u = v[j * 2 : (j + 1) * 2]
                dists = [float(((u - cents[j, i]) ** 2).sum()) for i in range(4)]
                assert code[j] == int(np.argmin(dists))

    def test_encode_matrix_agrees_with_encode(self, rng):
        # A batch encodes each row as its own batch of one would.
        feats = rng.normal(size=(30, 6))
        cb = train_product_codebook(feats, m=2, k=3, seed=4)
        batch = rng.normal(size=(10, 6))
        codes = encode_matrix(cb, batch)
        for i in range(10):
            assert tuple(codes[i]) == tuple(encode_matrix(cb, batch[i][None])[0])

    def test_length_mismatch(self, tiny_codebook):
        with pytest.raises(LengthMismatchError):
            encode_matrix(tiny_codebook, np.zeros(3)[None])

    @pytest.mark.parametrize("k, dtype", [(2, np.uint8), (16, np.uint8), (256, np.uint8),
                                          (512, np.int32)])
    def test_code_dtype_follows_k(self, rng, k, dtype):
        m, ds = 2, 3
        cb = ProductCodebook(rng.normal(size=(m, k, ds)))
        x = rng.normal(size=(40, m * ds))
        codes = encode_matrix(cb, x)
        assert codes.dtype == dtype
        d2 = ((x.reshape(40, m, 1, ds) - cb.stacked()) ** 2).sum(axis=3)
        expected = np.argmin(d2, axis=2).astype(np.int64)
        np.testing.assert_array_equal(codes.astype(np.int64), expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_row_raises(self, tiny_codebook, bad):
        x = np.zeros((3, 4))
        x[2, 1] = bad
        with pytest.raises(NonFiniteInputError):
            encode_matrix(tiny_codebook, x)

    def test_finite_rows_whose_sum_overflows_encode(self, tiny_codebook):
        # The sum of these rows is inf, but every value is finite. The suite
        # turns warnings into errors: neither the finiteness check's sum nor
        # the exact kernel's overflowing squares may warn.
        x = np.full((3, 4), 1e308)
        codes = encode_matrix(tiny_codebook, x)
        assert codes.shape == (3, 2)

    def test_finite_rows_whose_squares_overflow_encode_as_the_exact_kernel(self, tiny_codebook):
        # |u|^2 overflows in every subspace that holds a 1e155; all its
        # distances are inf and tie at code 0. Other subspaces encode as usual.
        x = np.array([
            [1e155, 1e155, 1e155, 1e155],
            [1e155, -1e155, -1.0, 0.5],
            [0.0, 1.0, 1e155, 0.0],
            [-1e155, 3e154, 2.0, 2.0],
        ])
        with np.errstate(over="ignore"):
            codes = encode_matrix(tiny_codebook, x)
            expected = np.argmin(adc_table(tiny_codebook, x), axis=2)
        np.testing.assert_array_equal(codes, expected)
        assert codes.tolist() == [[0, 0], [0, 1], [1, 0], [0, 0]]

    @pytest.mark.parametrize("m, ds", ENCODE_SHAPES)
    def test_encode_and_adc_table_across_row_chunks(self, rng, m, ds):
        # K=256 splits rows into several chunks; the row count leaves a
        # partial last chunk. Each odd centroid repeats the even one before
        # it, so every code is a tie that must go to the even index.
        k = 256
        chunk = _CHUNK_ELEMENTS // (m * k)
        assert chunk > 1
        n = 3 * chunk + chunk // 2 + 1
        cents = rng.normal(size=(m, k // 2, ds)).repeat(2, axis=1)
        cb = ProductCodebook(cents)
        x = rng.normal(size=(n, m * ds))
        codes = encode_matrix(cb, x)
        table = adc_table(cb, x)
        assert codes.shape == (n, m) and table.shape == (n, m, k)
        np.testing.assert_array_equal(codes, np.argmin(table, axis=2))
        assert np.all(codes % 2 == 0)
        u = x.reshape(n, m, ds)
        for i in range(n):
            np.testing.assert_array_equal(codes[i], encode_matrix(cb, x[i : i + 1])[0])
            np.testing.assert_array_equal(table[i], adc_table(cb, x[i : i + 1])[0])
            explicit = ((cb.stacked() - u[i][:, None, :]) ** 2).sum(axis=2)
            np.testing.assert_allclose(table[i], explicit, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m, ds", KERNEL_SHAPES)
    def test_one_kernel_for_encoding_adc_and_l2_similarity(self, rng, m, ds):
        # Encoding, the ADC table and the negative-Euclidean similarity read
        # the same squared distances, so they agree bit for bit.
        cb = ProductCodebook(rng.normal(size=(m, 256, ds)))
        x = rng.normal(size=(40, m * ds))
        sim = structure_similarity(cb, x, "l2")
        np.testing.assert_array_equal(sim, -np.sqrt(adc_table(cb, x)))
        np.testing.assert_array_equal(encode_matrix(cb, x), np.argmax(sim, axis=2))


def rows_on_centroids(rng, m, ds, k, n):
    cb = ProductCodebook(rng.normal(size=(m, k, ds)))
    picks = rng.integers(k, size=(n, m))
    return cb, cb.stacked()[np.arange(m), picks].reshape(n, m * ds)


def midpoints(rng, m, ds, k, n):
    # Float32 centroids add and halve exactly in float64, so each row lies
    # exactly as far from two centroids in the kernel.
    cb = ProductCodebook(rng.normal(size=(m, k, ds)))
    a, b = rng.integers(k, size=(2, n, m))
    cents, sub = cb.stacked(), np.arange(m)
    return cb, ((cents[sub, a] + cents[sub, b]) / 2.0).reshape(n, m * ds)


def scattered_midpoints(rng, m, ds, k, n):
    # Generic rows with a midpoint row at every third position, so each chunk
    # rescores a scattered subset of its rows.
    cb, x = midpoints(rng, m, ds, k, n)
    generic = np.arange(n) % 3 != 0
    x[generic] = rng.normal(size=(int(generic.sum()), m * ds))
    return cb, x


def duplicated_centroids(rng, m, ds, k, n):
    # Each odd centroid repeats the even one before it.
    cb = ProductCodebook(rng.normal(size=(m, k // 2, ds)).repeat(2, axis=1))
    return cb, rng.normal(size=(n, m * ds))


def common_offset(rng, m, ds, k, n):
    # At 1e7, |u|^2 and |c|^2 dwarf every distance: the expansion's
    # cancellation error exceeds many leads, so the rows must be rescored.
    cb = ProductCodebook(rng.normal(size=(m, k, ds)) + 1e7)
    return cb, rng.normal(size=(n, m * ds)) + 1e7


def gaussian(rng, m, ds, k, n):
    return ProductCodebook(rng.normal(size=(m, k, ds))), rng.normal(size=(n, m * ds))


def expansion_argmin(cb, x):
    """The codes |c|^2 - 2 u.c alone would give, with no rescoring."""
    cents = cb.stacked()
    u = subvectors(x, cb.m)
    scores = np.einsum("mkd,mkd->mk", cents, cents)[:, None] - 2.0 * u @ cents.transpose(0, 2, 1)
    return np.argmin(scores, axis=2).T


class TestEncodeOracle:
    """Every code is the argmin of its row's ADC table, the exact kernel,
    with ties to the lowest index, whatever the matmul scores say."""

    @staticmethod
    def assert_exact_argmin(cb, x):
        codes = encode_matrix(cb, x)
        assert codes.dtype == (np.uint8 if cb.k <= 256 else np.int32)
        np.testing.assert_array_equal(codes, np.argmin(adc_table(cb, x), axis=2))
        return codes

    @pytest.mark.parametrize("m, ds", ENCODE_SHAPES)
    @pytest.mark.parametrize("case, k", [
        (rows_on_centroids, 256),
        (midpoints, 256),
        (scattered_midpoints, 256),
        (duplicated_centroids, 256),
        (common_offset, 256),
        (gaussian, 512),
    ], ids=lambda v: getattr(v, "__name__", str(v)))
    def test_codes_equal_the_exact_kernel_argmin_across_row_chunks(self, rng, m, ds, case, k):
        # Two full chunks and a partial third.
        chunk = _CHUNK_ELEMENTS // (m * k)
        self.assert_exact_argmin(*case(rng, m, ds, k, 2 * chunk + chunk // 2 + 1))

    @pytest.mark.parametrize("m, ds", ENCODE_SHAPES)
    def test_rows_on_centroids_take_their_centroid(self, rng, m, ds):
        cb, x = rows_on_centroids(rng, m, ds, 256, 200)
        picks = np.argmax((x.reshape(200, m, 1, ds) == cb.stacked()).all(axis=3), axis=2)
        np.testing.assert_array_equal(self.assert_exact_argmin(cb, x), picks)

    @pytest.mark.parametrize("m, ds", ENCODE_SHAPES)
    def test_common_offset_defeats_the_expansion_alone(self, rng, m, ds):
        cb, x = common_offset(rng, m, ds, 256, 300)
        codes = self.assert_exact_argmin(cb, x)
        assert (expansion_argmin(cb, x) != codes).any()


VALUES = st.one_of(
    st.sampled_from([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
    st.floats(-1e6, 1e6, width=32),
)


@st.composite
def small_codebooks(draw):
    """A codebook of up to 3 x 9 x 4 values and up to 12 rows, on a grid that ties often."""
    m, k, ds, n = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(1, 4)), draw(st.integers(0, 12))
    cents = draw(hnp.arrays(np.float64, (m, k, ds), elements=VALUES))
    return ProductCodebook(cents), draw(hnp.arrays(np.float64, (n, m * ds), elements=VALUES))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_codebooks())
def test_encoding_small_codebooks_equals_the_exact_kernel_argmin(case):
    TestEncodeOracle.assert_exact_argmin(*case)


@st.composite
def small_stacks(draw):
    """Up to 3 subspaces of up to 12 rows of up to 4 values, on a grid that
    ties often, with rows repeated and at 0 or a common offset of 1e8, and a
    k no larger than the distinct rows of any subspace, so seeding picks
    distinct points and no cluster starts empty."""
    m, ds, n = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    rows = draw(hnp.arrays(np.float64, (m, n, ds), elements=VALUES)) + draw(st.sampled_from([0.0, 1e8]))
    stack = rows[:, draw(hnp.arrays(np.intp, n, elements=st.integers(0, n - 1)))]
    distinct = min(len(np.unique(u, axis=0)) for u in stack)
    return stack, draw(st.integers(1, distinct)), draw(st.integers(0, 3))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(small_stacks())
def test_lloyd_assigns_each_point_its_exact_nearest_seed(case):
    stack, k, seed = case
    seeds = _kmeans_pp_init(stack, k, [np.random.default_rng(seed + j) for j in range(len(stack))])
    result = kmeans_fit(stack, k, seed, max_iters=1)
    np.testing.assert_array_equal(result.assignments, per_dimension_argmin(stack, seeds))


class TestEncodeFilter:
    """The matmul settles generic rows alone and hands every near tie to the
    exact kernel, so neither a bound that settles nothing nor a missing
    rescoring step goes unseen."""

    @pytest.fixture
    def rescored(self, monkeypatch):
        rows: list[int] = []

        def counting(centroids, u, out, aux):
            rows.append(u.shape[1])
            subvector_sq_dists(centroids, u, out, aux)

        monkeypatch.setattr(sspq.quantizer, "subvector_sq_dists", counting)
        return rows

    @pytest.mark.parametrize("m, ds", ENCODE_SHAPES)
    def test_generic_rows_need_no_rescoring(self, rng, rescored, m, ds):
        cb = ProductCodebook(rng.normal(size=(m, 256, ds)) * 0.2)
        x = rng.normal(size=(2000, m * ds))
        encode_matrix(cb, x / np.linalg.norm(x, axis=1, keepdims=True))
        assert rescored == []

    @pytest.mark.parametrize("m, ds", ENCODE_SHAPES)
    def test_midpoint_ties_are_rescored(self, rng, rescored, m, ds):
        cb, x = scattered_midpoints(rng, m, ds, 256, 300)
        codes = encode_matrix(cb, x)
        # Only the 100 midpoint rows may need the exact kernel.
        assert 0 < sum(rescored) <= 100
        np.testing.assert_array_equal(codes, np.argmin(adc_table(cb, x), axis=2))


class TestAdcSearch:
    def test_exact_reconstruction_at_rank_one(self, rng):
        feats = rng.normal(size=(50, 8))
        cb = train_product_codebook(feats, m=4, k=4, seed=2)
        codes = encode_matrix(cb, feats)
        query = reconstruct(cb, codes[7])
        order = stable_order(adc_scores(cb, codes, query[None]))
        top_index = order[0, 0]
        top_dist = adc_scores(cb, codes, query)[top_index]
        assert top_dist == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(reconstruct(cb, codes[top_index]), query)
        # Every item with the reconstructed code ranks ahead of the rest.
        relevant = (codes == codes[7]).all(axis=1)
        assert evaluate_pq(EmbeddingMatrix(query[None]), codes, cb, [1], relevant).map_score == 1.0

    def test_scores_equal_reconstruction_distance(self, rng):
        feats = rng.normal(size=(60, 8))
        cb = train_product_codebook(feats, m=4, k=5, seed=3)
        codes = encode_matrix(cb, feats)
        for _ in range(50):
            query = rng.normal(size=8)
            scores = adc_scores(cb, codes, query)
            i = int(rng.integers(60))
            assert scores[i] == pytest.approx(
                reconstruction_sq_dist(cb, codes[i], query), abs=1e-6
            )

    def test_batch_scores_equal_one_query_scores(self, rng):
        feats = rng.normal(size=(60, 8))
        cb = train_product_codebook(feats, m=4, k=5, seed=3)
        codes = encode_matrix(cb, feats)
        queries = rng.normal(size=(5, 8))
        batch = adc_scores(cb, codes, queries)
        assert batch.shape == (5, 60)
        for i in range(5):
            one = adc_scores(cb, codes, queries[i])
            assert one.shape == (60,)
            np.testing.assert_array_equal(batch[i], one)

    def test_scores_identical_across_code_dtypes(self, rng):
        cb = ProductCodebook(rng.normal(size=(4, 256, 2)))
        codes = encode_matrix(cb, rng.normal(size=(70, 8)))
        assert codes.dtype == np.uint8
        queries = rng.normal(size=(3, 8))
        base = adc_scores(cb, codes, queries)
        for dtype in (np.int32, np.int64):
            np.testing.assert_array_equal(adc_scores(cb, codes.astype(dtype), queries), base)

    @pytest.mark.parametrize("nq", [1, 2, 4, 33])
    @pytest.mark.parametrize("blocks", ["one-row", "one-block", "partial-last-block"])
    def test_scores_equal_the_running_sum_bit_for_bit(self, rng, monkeypatch, nq, blocks):
        # Small blocks, so one code array spans several; rows per block = 256 // nq.
        monkeypatch.setattr(sspq.quantizer, "_ADC_BLOCK_ELEMENTS", 256)
        rows = 256 // nq
        n = {"one-row": 1, "one-block": rows, "partial-last-block": 3 * rows + rows // 2 + 1}[blocks]
        cb = ProductCodebook(rng.normal(size=(4, 16, 3)))
        queries = rng.normal(size=(nq, 12))
        drawn = rng.integers(0, 16, size=(n, 4))
        expected = running_sum_adc(cb, drawn, queries)
        for dtype in (np.uint8, np.int32, np.int64):
            wide = np.zeros((n, 8), dtype=dtype)
            wide[:, ::2] = drawn
            for codes in (drawn.astype(dtype), np.asfortranarray(drawn, dtype=dtype), wide[:, ::2]):
                got = adc_scores(cb, codes, queries)
                assert got.shape == (nq, n)
                assert np.ascontiguousarray(got).tobytes() == expected.tobytes()
                one = adc_scores(cb, codes, queries[0])
                assert one.shape == (n,)
                assert one.tobytes() == np.ascontiguousarray(got[0]).tobytes()

    def test_scores_equal_the_running_sum_across_full_size_blocks(self, rng):
        nq = 33
        rows = sspq.quantizer._ADC_BLOCK_ELEMENTS // nq
        cb = ProductCodebook(rng.normal(size=(2, 256, 4)))
        codes = rng.integers(0, 256, size=(2 * rows + 5, 2)).astype(np.uint8)
        queries = rng.normal(size=(nq, 8))
        got = adc_scores(cb, codes, queries)
        assert np.ascontiguousarray(got).tobytes() == running_sum_adc(cb, codes, queries).tobytes()

    def test_full_ordering_matches_reconstruction(self, rng):
        feats = rng.normal(size=(40, 6))
        cb = train_product_codebook(feats, m=3, k=4, seed=6)
        codes = encode_matrix(cb, feats)
        query = rng.normal(size=6)
        order = stable_order(adc_scores(cb, codes, query[None]))
        explicit = sorted(
            range(40), key=lambda i: (reconstruction_sq_dist(cb, codes[i], query), i)
        )
        assert order[0].tolist() == explicit
        labels = np.arange(40) % 3
        ap = average_precision(labels[None, explicit] == 0)
        assert evaluate_pq(EmbeddingMatrix(query[None]), codes, cb, [0], labels).per_query_ap.tobytes() == ap.tobytes()

    def test_empty_gallery(self, tiny_codebook):
        with pytest.raises(EmptyGalleryError):
            evaluate_pq(EmbeddingMatrix(np.zeros((1, 4))), np.empty((0, 2), dtype=np.int64),
                        tiny_codebook, [0], np.empty(0, dtype=np.int64))

    @pytest.mark.parametrize("bad", [-1, 2, 0.5], ids=["negative", "k", "fraction"])
    def test_codes_outside_zero_to_k_are_rejected(self, tiny_codebook, bad):
        codes = np.array([[0, 1], [1, 0]])
        codes = codes.astype(type(bad))
        codes[1, 1] = bad
        with pytest.raises(InvariantError):
            adc_scores(tiny_codebook, codes, np.zeros(4))
        with pytest.raises(InvariantError):
            evaluate_pq(EmbeddingMatrix(np.zeros((1, 4))), codes, tiny_codebook, [0], [0, 0])


class TestPqMemoryBytes:
    def test_one_million_gallery_32_subspaces(self):
        got = memory_report(1_005_994, 32, 256)["code_bytes"]
        assert got == 32_191_808
        assert round(got / (1024 * 1024), 2) == 30.70

    def test_one_million_gallery_64_subspaces(self):
        assert round(memory_report(1_005_994, 64, 256)["code_bytes"] / (1024 * 1024), 2) == 61.40

    def test_single_vector(self):
        assert memory_report(1, 8, 256)["code_bytes"] == 8

    def test_numpy_integers_give_the_same_json_ready_report(self):
        # check_int accepts NumPy integers, which have no bit_length and no JSON form.
        report = memory_report(np.int64(12), np.int32(2), np.uint16(4))
        assert json.dumps(report) == json.dumps(memory_report(12, 2, 4))

    def test_non_power_of_two_raises(self):
        with pytest.raises(NonPowerOfTwoKError):
            memory_report(10, 4, 100)

    @pytest.mark.parametrize("n", [10**400, 10**5000], ids=["1e400", "1e5000"])
    def test_byte_count_beyond_float_range_raises(self, n):
        with pytest.raises(BadConfigError, match="overflow"):
            memory_report(n, 2, 4)

    def test_a_k_too_long_to_print_fails_typed(self):
        # Python refuses to print an int of over 4,300 digits.
        with pytest.raises(NonPowerOfTwoKError, match="got an int of 16610 bits$"):
            memory_report(12, 2, 10**5000 + 1)


class TestCodebookFile:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        feats = rng.normal(size=(20, 6))
        cb = train_product_codebook(feats, m=3, k=4, seed=8)
        path = tmp_path / "cb.pqc"
        codebook_save(cb, path)
        back = codebook_load(path)
        assert (back.m, back.k, back.dim) == (cb.m, cb.k, cb.dim)
        assert back.stacked().shape == (3, 4, 2)
        assert cb.stacked().tobytes() == back.stacked().tobytes()

    def test_truncated_raises(self, tmp_path, rng):
        cb = train_product_codebook(rng.normal(size=(10, 4)), m=2, k=2, seed=0)
        path = tmp_path / "cb.pqc"
        codebook_save(cb, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(FormatError):
            codebook_load(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_save_non_finite_centroid_raises(self, tmp_path, tiny_codebook, bad):
        path = tmp_path / "cb.pqc"
        codebook_save(tiny_codebook, path)
        before = path.read_bytes()
        blocks = tiny_codebook.stacked().copy()
        blocks[1, 1, 1] = bad
        with pytest.raises(NonFiniteInputError):
            codebook_save(ProductCodebook(blocks), path)
        assert path.read_bytes() == before

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_centroid_raises(self, tmp_path, rng, bad):
        cb = train_product_codebook(rng.normal(size=(10, 4)), m=2, k=2, seed=0)
        path = tmp_path / "cb.pqc"
        codebook_save(cb, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = struct.pack("<f", bad)  # last coordinate of the last centroid
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            codebook_load(path)

    def test_wrong_magic_raises(self, tmp_path, rng):
        cb = train_product_codebook(rng.normal(size=(10, 4)), m=2, k=2, seed=0)
        path = tmp_path / "cb.pqc"
        codebook_save(cb, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            codebook_load(path)
