import numpy as np
import pytest

from oracles import double_loop_search
from sspq.embeddings import EmbeddingMatrix, normalize_rows
from sspq.errors import (
    EmptyGalleryError,
    EmptyRelevantSetError,
    MissingLabelsError,
    ShapeMismatchError,
)
from sspq.evaluation import (
    RankedList,
    average_precision,
    evaluate,
    evaluate_pq,
    exact_search,
)
from sspq.quantizer import encode_matrix, train_product_codebook
from sspq.synth import gen_mixture, make_oracle, oracle_encode


def unit_rows(rng, n, d):
    return EmbeddingMatrix(normalize_rows(rng.normal(size=(n, d)))[0], normalized=True)


class TestExactSearch:
    def test_self_match_at_rank_one(self, rng):
        gallery = unit_rows(rng, 10, 6)
        queries = EmbeddingMatrix(gallery.data[3:4], normalized=True)
        ranked = exact_search(queries, gallery)[0]
        assert ranked.gallery_ids[0] == 3
        assert ranked.scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_single_item_gallery(self, rng):
        gallery = unit_rows(rng, 1, 4)
        queries = unit_rows(rng, 5, 4)
        for ranked in exact_search(queries, gallery):
            assert ranked.gallery_ids.tolist() == [0]

    def test_matches_double_loop_oracle(self, rng):
        queries = unit_rows(rng, 6, 5)
        gallery = unit_rows(rng, 30, 5)
        got = [r.gallery_ids.tolist() for r in exact_search(queries, gallery)]
        assert got == double_loop_search(queries.data, gallery.data)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            exact_search(unit_rows(rng, 2, 4), unit_rows(rng, 2, 5))

    def test_empty_gallery(self, rng):
        gallery = EmbeddingMatrix(np.empty((0, 4)))
        with pytest.raises(EmptyGalleryError):
            exact_search(unit_rows(rng, 1, 4), gallery)


class TestAveragePrecision:
    def ranked(self, ids):
        n = len(ids)
        return RankedList(
            query_id=0,
            gallery_ids=np.asarray(ids),
            scores=np.linspace(1.0, 0.0, n),
            higher_is_better=True,
        )

    def test_single_relevant_at_rank_one(self):
        assert average_precision(self.ranked([4, 1, 2]), {4}) == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision(self.ranked([1, 4]), {4}) == 0.5

    def test_relevant_at_ranks_one_and_three(self):
        got = average_precision(self.ranked([7, 1, 9, 2]), {7, 9})
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)
        assert got == pytest.approx(0.83333, abs=1e-5)

    def test_empty_relevant_set(self):
        with pytest.raises(EmptyRelevantSetError):
            average_precision(self.ranked([1, 2]), set())

    def test_bounds_and_perfect_prefix(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            ids = rng.permutation(n)
            n_rel = int(rng.integers(1, n))
            relevant = set(int(i) for i in rng.choice(n, size=n_rel, replace=False))
            ap = average_precision(self.ranked(ids.tolist()), relevant)
            assert 0.0 <= ap <= 1.0
            top = set(int(i) for i in ids[: len(relevant)])
            if ap == pytest.approx(1.0, abs=1e-12):
                assert top == relevant
            if top == relevant:
                assert ap == pytest.approx(1.0, abs=1e-12)


class TestEvaluate:
    def test_zero_std_symmetric_map_is_one(self):
        ds = gen_mixture(6, 5, 8, 0.0, seed=1, anchor_count=8)
        oracle = make_oracle(8, 12, seed=2)
        q = oracle_encode(oracle, ds.inputs("query"))
        g = oracle_encode(oracle, ds.inputs("gallery"))
        report = evaluate(q, g, ds.split_labels("query"), ds.split_labels("gallery"),
                          mode="symmetric_gallery")
        assert report.map_score == pytest.approx(1.0)
        assert report.mode == "symmetric_gallery"

    def test_random_embeddings_near_class_prior(self):
        # Balanced 10-class gallery; random rankings give mAP around 0.1.
        maps = []
        for seed in range(5):
            rng = np.random.default_rng(seed)
            queries = unit_rows(rng, 20, 16)
            gallery = unit_rows(rng, 200, 16)
            q_labels = np.arange(20) % 10
            g_labels = np.arange(200) % 10
            maps.append(evaluate(queries, gallery, q_labels, g_labels).map_score)
        assert abs(float(np.mean(maps)) - 0.1) < 0.05

    def test_asymmetric_equals_symmetric_when_encoders_match(self):
        ds = gen_mixture(5, 6, 8, 0.1, seed=3, anchor_count=8)
        oracle = make_oracle(8, 12, seed=4)
        q = oracle_encode(oracle, ds.inputs("query"))
        g = oracle_encode(oracle, ds.inputs("gallery"))
        ql, gl = ds.split_labels("query"), ds.split_labels("gallery")
        sym = evaluate(q, g, ql, gl, mode="symmetric_gallery")
        asym = evaluate(q, g, ql, gl, mode="asymmetric")
        np.testing.assert_array_equal(sym.per_query_ap, asym.per_query_ap)
        assert sym.map_score == asym.map_score

    def test_missing_labels(self, rng):
        with pytest.raises(MissingLabelsError):
            evaluate(unit_rows(rng, 2, 4), unit_rows(rng, 3, 4), [0, 1], [0, 1])

    def test_map_is_mean_of_aps(self, rng):
        queries = unit_rows(rng, 8, 6)
        gallery = unit_rows(rng, 40, 6)
        report = evaluate(queries, gallery, np.arange(8) % 4, np.arange(40) % 4)
        assert report.map_score == pytest.approx(float(report.per_query_ap.mean()), abs=1e-15)

    def test_gallery_permutation_invariance(self, rng):
        queries = unit_rows(rng, 5, 6)
        gallery_data, _ = normalize_rows(rng.normal(size=(30, 6)))
        g_labels = np.asarray(np.arange(30) % 5)
        base = evaluate(queries, EmbeddingMatrix(gallery_data, normalized=True),
                        np.arange(5), g_labels)
        perm = rng.permutation(30)
        shuffled = evaluate(queries, EmbeddingMatrix(gallery_data[perm], normalized=True),
                            np.arange(5), g_labels[perm])
        np.testing.assert_allclose(shuffled.per_query_ap, base.per_query_ap, atol=1e-12)


class TestEvaluatePq:
    def test_lossless_quantization_matches_exact(self):
        # d* = 1 with K >= number of gallery rows: every scalar value is its
        # own centroid, so ADC ranking equals the exact ranking.
        ds = gen_mixture(4, 4, 6, 0.1, seed=5, anchor_count=8)
        oracle = make_oracle(6, 8, seed=6)
        g = oracle_encode(oracle, ds.inputs("gallery"))
        q = oracle_encode(oracle, ds.inputs("query"))
        ql, gl = ds.split_labels("query"), ds.split_labels("gallery")
        with pytest.warns(UserWarning):  # K > gallery rows, deliberately
            cb = train_product_codebook(g, m=8, k=16, seed=7)
        codes = encode_matrix(cb, g)
        exact = evaluate(q, g, ql, gl)
        pq = evaluate_pq(q, codes, cb, ql, gl)
        assert abs(pq.map_score - exact.map_score) < 1e-9
        np.testing.assert_allclose(pq.per_query_ap, exact.per_query_ap, atol=1e-9)

    def test_single_gallery_item(self, rng):
        gallery = unit_rows(rng, 1, 4)
        cb = train_product_codebook(gallery, m=2, k=1, seed=0)
        codes = encode_matrix(cb, gallery)
        report = evaluate_pq(unit_rows(rng, 3, 4), codes, cb, [0, 0, 0], [0])
        assert report.map_score == 1.0

    def test_worker_threads_do_not_change_results(self, rng, monkeypatch):
        gallery = unit_rows(rng, 40, 8)
        queries = unit_rows(rng, 6, 8)
        cb = train_product_codebook(gallery, m=4, k=8, seed=1)
        codes = encode_matrix(cb, gallery)
        ql, gl = np.arange(6) % 3, np.arange(40) % 3
        base = evaluate_pq(queries, codes, cb, ql, gl)
        monkeypatch.setenv("SSP_THREADS", "4")
        threaded = evaluate_pq(queries, codes, cb, ql, gl)
        np.testing.assert_array_equal(base.per_query_ap, threaded.per_query_ap)

    def test_finer_codebooks_do_not_hurt(self):
        ds = gen_mixture(8, 6, 16, 0.1, seed=8, anchor_count=512)
        oracle = make_oracle(16, 16, seed=9)
        anchors = oracle_encode(oracle, ds.inputs("anchor"))
        g = oracle_encode(oracle, ds.inputs("gallery"))
        q = oracle_encode(oracle, ds.inputs("query"))
        ql, gl = ds.split_labels("query"), ds.split_labels("gallery")
        maps = []
        for m in (2, 8, 16):
            cb = train_product_codebook(anchors, m=m, k=32, seed=10)
            codes = encode_matrix(cb, g)
            maps.append(evaluate_pq(q, codes, cb, ql, gl).map_score)
        for earlier, later in zip(maps, maps[1:]):
            assert later >= earlier - 0.02


class TestRankedListInvariants:
    def test_rejects_unsorted_scores(self):
        with pytest.raises(ValueError):
            RankedList(0, np.array([0, 1]), np.array([0.1, 0.9]), higher_is_better=True)

    def test_rejects_tie_with_descending_ids(self):
        with pytest.raises(ValueError):
            RankedList(0, np.array([2, 1]), np.array([0.5, 0.5]), higher_is_better=True)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            RankedList(0, np.array([1, 1]), np.array([0.9, 0.5]), higher_is_better=True)
