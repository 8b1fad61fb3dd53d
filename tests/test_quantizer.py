import struct

import numpy as np
import pytest

from oracles import (
    brute_force_kmeans_objective,
    greedy_kmeans_pp_init,
    reconstruct,
    reconstruction_sq_dist,
)
from sspq.embeddings import EmbeddingMatrix
from sspq.errors import (
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
from sspq.evaluation import adc_search, evaluate_pq
from sspq.quantizer import (
    _CHUNK_ELEMENTS,
    ProductCodebook,
    _kmeans_pp_init,
    adc_scores,
    adc_table,
    codebook_load,
    codebook_save,
    encode_matrix,
    kmeans_fit,
    pq_memory_bytes,
    train_product_codebook,
)


class TestKMeansFit:
    def test_two_cluster_global_optimum(self):
        pts = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
        result = kmeans_fit(pts, 2, seed=0)
        oracle = brute_force_kmeans_objective(pts, 2)
        assert result.objective == pytest.approx(oracle, abs=1e-12)
        assert result.objective == pytest.approx(1.0)
        assert sorted(result.centroids.tolist()) == [[0.0, 0.5], [10.0, 0.5]]

    def test_k_equals_n_zero_objective(self, rng):
        pts = rng.normal(size=(5, 3))
        result = kmeans_fit(pts, 5, seed=1)
        assert result.objective == pytest.approx(0.0, abs=1e-18)
        assert sorted(result.assignments.tolist()) == [0, 1, 2, 3, 4]

    def test_k_one_is_mean(self, rng):
        pts = rng.normal(size=(9, 4))
        result = kmeans_fit(pts, 1, seed=2)
        np.testing.assert_allclose(result.centroids[0], pts.mean(axis=0), atol=1e-12)

    def test_empty_input_raises(self):
        with pytest.raises(EmptyInputError):
            kmeans_fit(np.empty((0, 2)), 1, seed=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, rng, bad):
        pts = rng.normal(size=(10, 4))
        pts[3, 2] = bad
        with pytest.raises(NonFiniteInputError):
            kmeans_fit(pts, 2, seed=0)
        with pytest.raises(NonFiniteInputError):
            train_product_codebook(pts, m=2, k=2, seed=0)

    def test_objective_history_monotone(self, rng):
        for trial in range(10):
            pts = rng.normal(size=(40, 3))
            result = kmeans_fit(pts, 5, seed=trial)
            hist = result.objective_history
            assert all(a >= b - 1e-12 for a, b in zip(hist, hist[1:]))
            assert result.objective == hist[-1]
            assert result.objective >= 0.0

    def test_brute_force_small_instances(self):
        # Best-of-5 restarts reach the enumerated global optimum.
        for trial in range(6):
            rng = np.random.default_rng(trial)
            n = int(rng.integers(4, 9))
            k = int(rng.integers(2, 4))
            d = int(rng.integers(1, 3))
            pts = rng.normal(size=(n, d))
            best = min(kmeans_fit(pts, k, seed=s).objective for s in range(5))
            assert best == pytest.approx(brute_force_kmeans_objective(pts, k), abs=1e-9)

    def test_deterministic(self, rng):
        pts = rng.normal(size=(30, 4))
        a = kmeans_fit(pts, 4, seed=7)
        b = kmeans_fit(pts, 4, seed=7)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)

    def test_all_clusters_used_when_k_le_n(self, rng):
        pts = rng.normal(size=(20, 2))
        result = kmeans_fit(pts, 6, seed=3)
        assert set(result.assignments.tolist()) == set(range(6))


class TestKMeansPPInit:
    """The matmul-scored seeding equals the per-trial exact loop bit for bit."""

    @staticmethod
    def assert_matches_oracle(x, k, seed):
        rng_fast, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        fast = _kmeans_pp_init(x, k, rng_fast)
        ref = greedy_kmeans_pp_init(x, k, rng_ref)
        assert fast.tobytes() == ref.tobytes()
        assert rng_fast.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("dim", [1, 2, 8, 32])
    @pytest.mark.parametrize("k", [1, 2, 16, 256])
    def test_gaussian_anchors(self, dim, k):
        x = np.random.default_rng(dim * 1000 + k).normal(size=(512, dim))
        self.assert_matches_oracle(x, k, seed=dim + k)

    def test_duplicates_with_k_above_n(self, rng):
        # Three distinct points twice each: after three picks the potential is
        # zero and every further pick takes the total <= 0 branch.
        x = np.repeat(rng.normal(size=(3, 4)), 2, axis=0)
        for seed in range(5):
            self.assert_matches_oracle(x, 16, seed)

    def test_common_offset_forces_exact_recheck(self, rng):
        # |x|^2 ~ 1e12 against distances ~ 1e-6: the matmul potentials are
        # all cancellation noise, so every step is decided by the recheck.
        x = rng.normal(size=(200, 8)) * 1e-3 + 1e6
        for seed in range(3):
            self.assert_matches_oracle(x, 32, seed)

    def test_exact_tie_goes_to_first_trial(self):
        # From the centre, both ends give potential exactly 1; when the three
        # trials draw both ends, the earlier trial's end must win.
        x = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        ties = 0
        for seed in range(40):
            self.assert_matches_oracle(x, 2, seed)
            draws = np.random.default_rng(seed)
            first = int(draws.integers(3))
            ends = (draws.random(3) * 2.0 >= 1.0).astype(int)  # cumulative d2 is [1, 2, 2]
            if first == 2 and len(set(ends.tolist())) == 2:
                ties += 1
                got = _kmeans_pp_init(x, 2, np.random.default_rng(seed))
                np.testing.assert_array_equal(got[1], x[ends[0]])
        assert ties > 0


class TestProductCodebook:
    def test_shape_gives_sizes_and_values_round_to_float32(self):
        cb = ProductCodebook(np.full((3, 4, 2), 0.1))
        assert (cb.m, cb.k, cb.sub_dim, cb.dim) == (3, 4, 2, 6)
        assert cb.stacked().dtype == np.float64
        np.testing.assert_array_equal(cb.stacked(), np.float32(0.1))
        assert not cb.stacked().flags.writeable

    @pytest.mark.parametrize("shape", [(4, 2), (0, 4, 2), (3, 0, 2), (3, 4, 0)])
    def test_bad_shape_raises(self, shape):
        with pytest.raises(ShapeMismatchError):
            ProductCodebook(np.zeros(shape))


class TestTrainProductCodebook:
    def test_matches_manual_slices(self, rng):
        feats = rng.normal(size=(12, 4))
        cb = train_product_codebook(feats, m=2, k=2, seed=11)
        for j in range(2):
            manual = kmeans_fit(feats[:, j * 2 : (j + 1) * 2], 2, seed=11 + j)
            np.testing.assert_array_equal(cb.stacked()[j], manual.centroids.astype(np.float32))

    def test_anchor_counts(self, rng):
        cb = train_product_codebook(rng.normal(size=(8, 4)), m=2, k=2, seed=0)
        assert cb.anchor_count == 4

    def test_large_anchor_count_exact(self):
        # K^M stays an exact integer even when it far exceeds float range.
        rng = np.random.default_rng(0)
        with pytest.warns(UserWarning):
            cb = train_product_codebook(rng.normal(size=(4, 32)), m=32, k=256, seed=0)
        assert cb.anchor_count == 256**32

    def test_indivisible_dimension(self, rng):
        with pytest.raises(IndivisibleDimensionError):
            train_product_codebook(rng.normal(size=(6, 5)), m=2, k=2, seed=0)

    def test_m1_degenerates_to_flat_kmeans(self, rng):
        feats = rng.normal(size=(15, 3))
        cb = train_product_codebook(feats, m=1, k=3, seed=21)
        flat = kmeans_fit(feats, 3, seed=21)
        np.testing.assert_array_equal(cb.stacked()[0], flat.centroids.astype(np.float32))

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

    def test_encode_and_adc_table_across_row_chunks(self, rng):
        # K=256 and d=64 at M=8 split rows into several chunks; the row count
        # leaves a partial last chunk. Each odd centroid repeats the even one
        # before it, so every code is a tie that must go to the even index.
        m, k, ds = 8, 256, 8
        chunk = _CHUNK_ELEMENTS // (m * k * ds)
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


class TestAdcSearch:
    def test_exact_reconstruction_at_rank_one(self, rng):
        feats = rng.normal(size=(50, 8))
        cb = train_product_codebook(feats, m=4, k=4, seed=2)
        codes = encode_matrix(cb, feats)
        query = reconstruct(cb, codes[7])
        order = adc_search(EmbeddingMatrix(query[None]), codes, cb)
        top_index = order[0, 0]
        top_dist = adc_scores(cb, codes, query)[top_index]
        assert top_dist == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_array_equal(reconstruct(cb, codes[top_index]), query)

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

    def test_full_ordering_matches_reconstruction(self, rng):
        feats = rng.normal(size=(40, 6))
        cb = train_product_codebook(feats, m=3, k=4, seed=6)
        codes = encode_matrix(cb, feats)
        query = rng.normal(size=6)
        order = adc_search(EmbeddingMatrix(query[None]), codes, cb)
        explicit = sorted(
            range(40), key=lambda i: (reconstruction_sq_dist(cb, codes[i], query), i)
        )
        assert order[0].tolist() == explicit

    def test_empty_gallery(self, tiny_codebook):
        with pytest.raises(EmptyGalleryError):
            adc_search(EmbeddingMatrix(np.zeros((1, 4))), np.empty((0, 2), dtype=np.int64),
                       tiny_codebook)

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
        got = pq_memory_bytes(1_005_994, 32, 256)
        assert got == 32_191_808
        assert round(got / (1024 * 1024), 2) == 30.70

    def test_one_million_gallery_64_subspaces(self):
        assert round(pq_memory_bytes(1_005_994, 64, 256) / (1024 * 1024), 2) == 61.40

    def test_single_vector(self):
        assert pq_memory_bytes(1, 8, 256) == 8

    def test_non_power_of_two_raises(self):
        with pytest.raises(NonPowerOfTwoKError):
            pq_memory_bytes(10, 4, 100)


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
