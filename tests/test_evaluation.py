import json

import numpy as np
import pytest

from oracles import double_loop_search, full_width_average_precision, stable_order
from sspq.cli import SEED_ORACLE, cmd_eval, cmd_gen, load_config
from sspq.embeddings import EmbeddingMatrix, as_embedding_matrix, normalize_rows
from sspq.encoder import save_checkpoint
from sspq.errors import (
    EmptyGalleryError,
    EmptyRelevantSetError,
    InvariantError,
    MissingLabelsError,
    NonFiniteInputError,
    ShapeMismatchError,
)
from sspq.evaluation import (
    EvalReport,
    _exact_keys,
    _rank,
    average_precision,
    evaluate,
    evaluate_pq,
    exact_search,
)
from sspq.quantizer import ProductCodebook, adc_scores, encode_matrix, train_product_codebook
from sspq.synth import gen_mixture, make_oracle, oracle_encode


def unit_rows(rng, n, d):
    return EmbeddingMatrix(normalize_rows(rng.normal(size=(n, d)))[0], normalized=True)


class TestExactSearch:
    def test_self_match_at_rank_one(self, rng):
        gallery = unit_rows(rng, 10, 6)
        queries = EmbeddingMatrix(gallery.data[3:4], normalized=True)
        order = exact_search(queries, gallery)
        assert order[0, 0] == 3
        cosines = normalize_rows(queries.data)[0] @ normalize_rows(gallery.data)[0].T
        assert cosines[0, order[0, 0]] == pytest.approx(1.0, abs=1e-12)

    def test_single_item_gallery(self, rng):
        gallery = unit_rows(rng, 1, 4)
        queries = unit_rows(rng, 5, 4)
        order = exact_search(queries, gallery)
        for row in order:
            assert row.tolist() == [0]

    def test_matches_double_loop_oracle(self, rng):
        queries = unit_rows(rng, 6, 5)
        gallery = unit_rows(rng, 30, 5)
        got = exact_search(queries, gallery).tolist()
        assert got == double_loop_search(queries.data, gallery.data)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ShapeMismatchError):
            exact_search(unit_rows(rng, 2, 4), unit_rows(rng, 2, 5))

    def test_empty_gallery(self, rng):
        gallery = EmbeddingMatrix(np.empty((0, 4)))
        with pytest.raises(EmptyGalleryError):
            exact_search(unit_rows(rng, 1, 4), gallery)


class TestTies:
    def test_duplicated_gallery_rows_rank_by_ascending_id(self, rng):
        base = normalize_rows(rng.normal(size=(5, 8)))[0]
        dup = np.array([3, 0, 3, 1, 4, 0, 2, 3, 1, 4, 2, 0])
        gallery = EmbeddingMatrix(base[dup], normalized=True)
        queries = unit_rows(rng, 4, 8)
        cb = train_product_codebook(base, m=4, k=4, seed=0)
        codes = encode_matrix(cb, gallery)
        np.testing.assert_array_equal(codes, encode_matrix(cb, base)[dup])
        cosines = normalize_rows(queries.data)[0] @ normalize_rows(gallery.data)[0].T
        adc = adc_scores(cb, codes, queries.data)
        for order, scores, sign in (
            (exact_search(queries, gallery), cosines, -1.0),
            (stable_order(adc), adc, 1.0),
        ):
            for q in range(4):
                by_id = scores[q]
                # Copies of one row tie exactly, so only the id orders them.
                for copy in range(5):
                    assert np.unique(by_id[dup == copy]).size == 1
                expected = sorted(range(12), key=lambda i: (sign * by_id[i], i))
                assert order[q].tolist() == expected
        # Copies carry different labels, so the APs depend on the tie order.
        ql, gl = np.arange(4) % 3, np.arange(12) % 3
        pq = average_precision(gl[stable_order(adc)] == ql[:, None])
        assert evaluate_pq(queries, codes, cb, ql, gl).per_query_ap.tobytes() == pq.tobytes()

    def test_row_where_most_items_tie(self, rng):
        # 200 copies of one row among 6 distinct rows, shuffled: nearly the
        # whole ranking is one run of equal scores ordered by id alone.
        base = normalize_rows(rng.normal(size=(7, 8)))[0]
        dup = rng.permutation(np.r_[np.zeros(200, dtype=int), np.arange(1, 7)])
        gallery = EmbeddingMatrix(base[dup], normalized=True)
        queries = unit_rows(rng, 3, 8)
        cb = train_product_codebook(base, m=4, k=4, seed=1)
        codes = encode_matrix(cb, gallery)
        cosines = normalize_rows(queries.data)[0] @ normalize_rows(gallery.data)[0].T
        adc = adc_scores(cb, codes, queries.data)
        for order, scores, sign in (
            (exact_search(queries, gallery), cosines, -1.0),
            (stable_order(adc), adc, 1.0),
        ):
            for q in range(3):
                assert np.unique(scores[q]).size <= 7
                expected = sorted(range(206), key=lambda i: (sign * scores[q, i], i))
                assert order[q].tolist() == expected
        ql, gl = np.arange(3) % 2, np.arange(206) % 2
        pq = average_precision(gl[stable_order(adc)] == ql[:, None])
        assert evaluate_pq(queries, codes, cb, ql, gl).per_query_ap.tobytes() == pq.tobytes()


NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


class TestNonFiniteScores:
    @NON_FINITE
    def test_query(self, rng, bad):
        gallery = unit_rows(rng, 20, 8)
        cb = train_product_codebook(gallery, m=4, k=4, seed=0)
        codes = encode_matrix(cb, gallery)
        data = unit_rows(rng, 3, 8).data.copy()
        data[1, 5] = bad
        queries = EmbeddingMatrix(data)
        ql, gl = np.zeros(3), np.arange(20) % 2
        with pytest.raises(NonFiniteInputError):
            exact_search(queries, gallery)
        with pytest.raises(NonFiniteInputError):
            evaluate(queries, gallery, ql, gl)
        with pytest.raises(NonFiniteInputError):
            evaluate_pq(queries, codes, cb, ql, gl)

    @NON_FINITE
    def test_gallery_row(self, rng, bad):
        data = unit_rows(rng, 20, 8).data.copy()
        cb = train_product_codebook(data, m=4, k=4, seed=0)
        data[7, 2] = bad
        gallery = EmbeddingMatrix(data)
        queries = unit_rows(rng, 3, 8)
        with pytest.raises(NonFiniteInputError):
            exact_search(queries, gallery)
        with pytest.raises(NonFiniteInputError):
            evaluate(queries, gallery, np.zeros(3), np.arange(20) % 2)
        with pytest.raises(NonFiniteInputError):
            encode_matrix(cb, gallery)


    @pytest.mark.filterwarnings("error")
    def test_finite_query_whose_norm_overflows_ranks_as_its_direction(self, rng):
        gallery, labels = rng.normal(size=(10, 4)), np.arange(10) % 2
        huge = EmbeddingMatrix(np.full((1, 4), 1e200))
        assert np.linalg.norm(huge.unit_rows[0]) == 1.0
        expected = evaluate(np.full((1, 4), 1.0), gallery, [0], labels)
        assert evaluate(huge, gallery, [0], labels).map_score == expected.map_score

    @pytest.mark.filterwarnings("error")
    def test_adc_distance_that_overflows_raises_without_a_warning(self, rng):
        gallery = unit_rows(rng, 20, 4)
        cb = train_product_codebook(gallery, m=2, k=4, seed=0)
        codes = encode_matrix(cb, gallery)
        with pytest.raises(NonFiniteInputError):
            evaluate_pq(np.full((1, 4), 1e200), codes, cb, [0], np.arange(20) % 2)


class TestUnitRowsCache:
    """Each matrix is normalized on its first search and never again."""

    def test_two_evaluates_normalize_each_matrix_once(self, rng, monkeypatch):
        calls = []

        def counting(x, out=None):
            calls.append(x.shape)
            return normalize_rows(x, out=out)

        monkeypatch.setattr("sspq.embeddings.normalize_rows", counting)
        gallery, queries = unit_rows(rng, 30, 6), unit_rows(rng, 4, 6)
        labels = np.arange(30) % 3
        first = evaluate(queries, gallery, labels[:4], labels)
        second = evaluate(queries, gallery, labels[:4], labels)
        assert sorted(calls) == [(4, 6), (30, 6)]
        assert first.per_query_ap.tobytes() == second.per_query_ap.tobytes()

    def test_eval_stage_normalizes_each_search_input_once(self, tmp_path, monkeypatch):
        # The oracle gallery and the encoded queries each serve two searches.
        cfg = load_config(None, {
            "out_dir": str(tmp_path / "run"), "num_classes": 5, "per_class": 6, "d_in": 8,
            "anchor_count": 8, "train_per_class": 2, "emb_dim": 12,
        })
        cmd_gen(cfg)
        save_checkpoint(make_oracle(8, 12, seed=1), tmp_path / "run" / "checkpoint.sspq", {})
        calls = []

        def counting(x, out=None):
            calls.append(x.shape)
            return normalize_rows(x, out=out)

        monkeypatch.setattr("sspq.embeddings.normalize_rows", counting)
        cmd_eval(cfg)
        assert sorted(calls) == [(5, 12), (5, 12), (25, 12), (25, 12)]

    def test_orders_equal_the_per_call_normalization(self, rng):
        # Stored rows are float32, so they are not unit in float64; exact
        # copies tie, and a zero row is degenerate.
        base = normalize_rows(rng.normal(size=(12, 8)))[0].astype(np.float32).astype(np.float64)
        g = np.concatenate([base[[3, 0, 3, 7, 0, 11, 3]], np.zeros((1, 8)), base])
        q = np.concatenate([base[[3, 5]], rng.normal(size=(3, 8)).astype(np.float32)]).astype(np.float64)
        scores = normalize_rows(q)[0] @ normalize_rows(g)[0].T
        assert (scores[:, 0] == scores[:, 2]).all() and (scores[:, 7] == 0).all()
        expected = _rank(-scores)
        queries, gallery = EmbeddingMatrix(q), EmbeddingMatrix(g)
        for _ in range(2):  # the second search reads the cached rows
            np.testing.assert_array_equal(exact_search(queries, gallery), expected)
        assert (normalize_rows(g)[0] != g).any()

    @NON_FINITE
    def test_non_finite_gallery_row_raises_on_every_search(self, rng, bad):
        data = unit_rows(rng, 10, 4).data.copy()
        data[6, 1] = bad
        gallery, queries = EmbeddingMatrix(data), unit_rows(rng, 2, 4)
        with pytest.raises(NonFiniteInputError):
            exact_search(queries, gallery)
        assert np.isnan(gallery.unit_rows[6]).any()
        with pytest.raises(NonFiniteInputError):
            exact_search(queries, gallery)

    def test_unit_rows_are_read_only_and_computed_once(self, rng):
        emb = EmbeddingMatrix(rng.normal(size=(3, 4)))
        assert emb.unit_rows is emb.unit_rows
        np.testing.assert_array_equal(emb.unit_rows, normalize_rows(emb.data)[0])
        with pytest.raises(ValueError):
            emb.unit_rows[0, 0] = 1.0

    @pytest.mark.parametrize("handle", [EmbeddingMatrix, as_embedding_matrix])
    def test_unit_rows_are_stored_column_major_and_read_only(self, rng, handle):
        # The transpose the searches multiply by must be a C-contiguous (d, n)
        # matrix; a row-major one is repacked by BLAS on every search.
        emb = handle(rng.normal(size=(50, 8)))
        assert emb.unit_rows.shape == (50, 8)
        assert emb.unit_rows.T.flags.c_contiguous
        assert not emb.unit_rows.flags.writeable
        with pytest.raises(ValueError):
            emb.unit_rows[0, 0] = 1.0

    @staticmethod
    def float32_problem(rng, n, nq, d=64):
        """float32-stored rows, not unit in float64, with exact copies and two zero rows in the gallery."""
        base = rng.normal(size=(n, d)).astype(np.float32).astype(np.float64)
        g = np.concatenate([base[[3, 0, 3, 7]], np.zeros((2, d)), base])
        q = np.concatenate([base[[3, 0]], rng.normal(size=(nq, d)).astype(np.float32)])[:nq]
        return q.astype(np.float64), g

    @staticmethod
    def search_keys(monkeypatch, queries, gallery):
        """``exact_search``'s order and the keys it ranked."""
        keys = []

        def capture(k):
            keys.append(k.copy())
            return _rank(k)

        monkeypatch.setattr("sspq.evaluation._rank", capture)
        return exact_search(queries, gallery), keys[0]

    @pytest.mark.parametrize("nq", [2, 4, 32])
    def test_scores_keep_the_row_major_bits_on_a_search_scale_gallery(self, rng, monkeypatch, nq):
        # At 4,102 x 64 BLAS runs its blocked GEMM, whose bits do not depend
        # on the operands' layout.
        q, g = self.float32_problem(rng, 4096, nq)
        queries, gallery = EmbeddingMatrix(q), EmbeddingMatrix(g)
        row_major = normalize_rows(q)[0] @ normalize_rows(g)[0].T
        assert (row_major[:, 0] == row_major[:, 2]).all() and (row_major[:, 4:6] == 0).all()
        assert (queries.unit_rows @ gallery.unit_rows.T).tobytes() == row_major.tobytes()
        order, keys = self.search_keys(monkeypatch, queries, gallery)
        assert keys.tobytes() == (-row_major).tobytes()
        assert order.tobytes() == _rank(-row_major).tobytes()

    @pytest.mark.parametrize("n", [8, 333])
    @pytest.mark.parametrize("nq", [1, 2, 32])
    def test_small_products_stay_within_round_off_of_the_row_major_scores(self, rng, monkeypatch, n, nq):
        # gemv (one query) and BLAS's kernels for small products may sum in
        # another order than the row-major product, so the last bits may
        # differ; the ranking is still that of the cached product.
        q, g = self.float32_problem(rng, n, nq)
        queries, gallery = EmbeddingMatrix(q), EmbeddingMatrix(g)
        row_major = normalize_rows(q)[0] @ normalize_rows(g)[0].T
        order, keys = self.search_keys(monkeypatch, queries, gallery)
        np.testing.assert_allclose(-keys, row_major, rtol=0, atol=1e-14)
        assert keys.tobytes() == (-(queries.unit_rows @ gallery.unit_rows.T)).tobytes()
        assert order.tobytes() == _rank(keys).tobytes()


# search -> its orders or APs, given queries, gallery, codebook, codes and labels
SEARCHES = {
    "exact_search": lambda q, g, cb, codes, ql, gl: exact_search(q, g),
    "evaluate": lambda q, g, cb, codes, ql, gl: evaluate(q, g, ql, gl).per_query_ap,
    "evaluate_pq": lambda q, g, cb, codes, ql, gl: evaluate_pq(q, codes, cb, ql, gl).per_query_ap,
}


@pytest.mark.parametrize("search", sorted(SEARCHES))
def test_an_array_ranks_as_its_embedding_matrix_and_keeps_its_flags_and_bytes(rng, search):
    # float32-stored rows with exact copies, so the orders hold ties; the
    # queries are a view of a larger writable array.
    base = normalize_rows(rng.normal(size=(12, 8)))[0].astype(np.float32).astype(np.float64)
    g = np.concatenate([base[[3, 0, 3, 7, 0, 11, 3]], base])
    big = np.concatenate([base[[3, 5, 9]], rng.normal(size=(2, 8))])
    q = big[:3]
    gl, ql = np.arange(g.shape[0]) % 3, np.array([0, 1, 2])
    cb = train_product_codebook(g, m=2, k=4, seed=0)
    args = (cb, encode_matrix(cb, g), ql, gl)
    before = (big.tobytes(), g.tobytes())
    from_arrays = SEARCHES[search](q, g, *args)
    assert q.flags.writeable and big.flags.writeable and g.flags.writeable
    assert (big.tobytes(), g.tobytes()) == before
    from_handles = SEARCHES[search](EmbeddingMatrix(q), EmbeddingMatrix(g), *args)
    assert from_arrays.tobytes() == from_handles.tobytes()


def hit_mask(ids, relevant):
    """Relevance of each ranked id, as the one-query (1, n) array AP takes."""
    return np.isin(np.asarray(ids), list(relevant))[None, :]


class TestAveragePrecision:
    def test_single_relevant_at_rank_one(self):
        assert average_precision(hit_mask([4, 1, 2], {4}))[0] == 1.0

    def test_single_relevant_at_rank_two(self):
        assert average_precision(hit_mask([1, 4], {4}))[0] == 0.5

    def test_relevant_at_ranks_one_and_three(self):
        np.testing.assert_array_equal(
            hit_mask([7, 1, 9, 2], {7, 9}), np.array([[1, 0, 1, 0]], dtype=bool)
        )
        got = average_precision(np.array([[1, 0, 1, 0]], dtype=bool))[0]
        assert got == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)
        assert got == pytest.approx(0.83333, abs=1e-5)

    def test_empty_relevant_set(self):
        with pytest.raises(EmptyRelevantSetError):
            average_precision(hit_mask([1, 2], set()))

    def test_bounds_and_perfect_prefix(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 12))
            ids = rng.permutation(n)
            n_rel = int(rng.integers(1, n))
            relevant = set(int(i) for i in rng.choice(n, size=n_rel, replace=False))
            ap = average_precision(hit_mask(ids, relevant))[0]
            assert 0.0 <= ap <= 1.0
            top = set(int(i) for i in ids[: len(relevant)])
            if ap == pytest.approx(1.0, abs=1e-12):
                assert top == relevant
            if top == relevant:
                assert ap == pytest.approx(1.0, abs=1e-12)

    def test_equals_full_width_running_sum_bit_for_bit(self, rng):
        # Rows of one batch hold from one relevant item to nearly all of them,
        # so the per-row precisions are padded to different lengths. Each mask
        # is also given Fortran-ordered and as a column-sliced view.
        for _ in range(50):
            nq, n = int(rng.integers(1, 9)), int(rng.integers(1, 400))
            hits = rng.random((nq, n)) < rng.random((nq, 1))
            hits[np.arange(nq), rng.integers(n, size=nq)] = True
            expected = full_width_average_precision(hits)
            wide = np.zeros((nq, 2 * n), dtype=bool)
            wide[:, 1::2] = hits
            for layout in (hits, np.asfortranarray(hits), wide[:, 1::2]):
                got = average_precision(layout)
                assert got.shape == (nq,)
                assert (got == expected).all()


class TestEvalReport:
    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.5], ids=["nan", "negative", "above-one"])
    def test_ap_outside_unit_interval_raises(self, bad):
        with pytest.raises(InvariantError):
            EvalReport(np.array([bad, 0.5]))

    def test_map_of_valid_aps(self):
        assert EvalReport(np.array([0.0, 0.5, 1.0])).map_score == 0.5


class TestEvaluate:
    def test_zero_std_symmetric_map_is_one(self):
        ds = gen_mixture(6, 5, 8, 0.0, seed=1, anchor_count=8, train_per_class=5)
        oracle = make_oracle(8, 12, seed=2)
        q = oracle_encode(oracle, ds["query"][0])
        g = oracle_encode(oracle, ds["gallery"][0])
        report = evaluate(q, g, ds["query"][1], ds["gallery"][1])
        assert report.map_score == pytest.approx(1.0)

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

    def test_asymmetric_equals_symmetric_when_encoders_match(self, tmp_path):
        # A query model that is the gallery oracle itself: the asymmetric
        # report encodes the stored raw queries afresh, the symmetric one
        # reads the stored oracle embeddings, and both must rank alike.
        cfg = load_config(None, {
            "out_dir": str(tmp_path / "run"), "num_classes": 5, "per_class": 6, "d_in": 8,
            "cluster_std": 0.1, "anchor_count": 8, "train_per_class": 2, "emb_dim": 12,
        })
        cmd_gen(cfg)
        oracle = make_oracle(cfg["d_in"], cfg["emb_dim"], seed=cfg["seed"] + SEED_ORACLE)
        save_checkpoint(oracle, tmp_path / "run" / "checkpoint.sspq", {})
        cmd_eval(cfg)
        sym, asym = (
            json.loads((tmp_path / "run" / f"eval_{mode}.json").read_text())
            for mode in ("symmetric_gallery", "asymmetric")
        )
        assert len(sym["per_query_ap"]) == 5
        assert asym["per_query_ap"] == sym["per_query_ap"]
        assert asym["map"] == sym["map"]

    def test_missing_labels(self, rng):
        with pytest.raises(MissingLabelsError):
            evaluate(unit_rows(rng, 2, 4), unit_rows(rng, 3, 4), [0, 1], [0, 1])

    @pytest.mark.parametrize("side", ["query", "gallery"])
    def test_a_scalar_label_raises_missing_labels(self, side):
        # A 0-d label array has no length to report; it raised IndexError.
        labels = {"query": [0, 1, 2, 3], "gallery": [0, 1, 2, 3]}
        labels[side] = 1
        with pytest.raises(MissingLabelsError, match=r"label shapes"):
            evaluate(np.eye(4), np.eye(4), labels["query"], labels["gallery"])

    @pytest.mark.parametrize(
        "label", [0.5, np.nan, np.inf, 1e300, "0", None], ids=["fraction", "nan", "inf", "huge", "str", "none"]
    )
    @pytest.mark.parametrize("side", ["query", "gallery"])
    def test_non_integer_label_raises(self, label, side):
        # A cast would have truncated 0.5 to label 0 and scored mAP 1.0.
        labels = {"query": [0, 1, 2, 3], "gallery": [0, 1, 2, 3]}
        labels[side] = [label, 1, 2, 3]
        with pytest.raises(MissingLabelsError):
            evaluate(np.eye(4), np.eye(4), labels["query"], labels["gallery"])
        codebook = train_product_codebook(np.eye(4), m=2, k=2, seed=0)
        with pytest.raises(MissingLabelsError):
            evaluate_pq(np.eye(4), encode_matrix(codebook, np.eye(4)), codebook, labels["query"], labels["gallery"])

    def test_integer_valued_labels_score_as_ints(self):
        ints = evaluate(np.eye(4), np.eye(4), np.arange(4) % 2, np.arange(4) % 2)
        for query_labels in ([0.0, 1.0, 0.0, 1.0], np.array([0, 1, 0, 1], dtype=np.uint8), [0, 1, 0, 1]):
            report = evaluate(np.eye(4), np.eye(4), query_labels, [0, 1, 0, 1])
            assert report.per_query_ap.tobytes() == ints.per_query_ap.tobytes()

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
        ds = gen_mixture(4, 4, 6, 0.1, seed=5, anchor_count=8, train_per_class=4)
        oracle = make_oracle(6, 8, seed=6)
        g = oracle_encode(oracle, ds["gallery"][0])
        q = oracle_encode(oracle, ds["query"][0])
        ql, gl = ds["query"][1], ds["gallery"][1]
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

    def test_finer_codebooks_do_not_hurt(self):
        ds = gen_mixture(8, 6, 16, 0.1, seed=8, anchor_count=512, train_per_class=6)
        oracle = make_oracle(16, 16, seed=9)
        anchors = oracle_encode(oracle, ds["anchor"][0])
        g = oracle_encode(oracle, ds["gallery"][0])
        q = oracle_encode(oracle, ds["query"][0])
        ql, gl = ds["query"][1], ds["gallery"][1]
        maps = []
        for m in (2, 8, 16):
            cb = train_product_codebook(anchors, m=m, k=32, seed=10)
            codes = encode_matrix(cb, g)
            maps.append(evaluate_pq(q, codes, cb, ql, gl).map_score)
        for earlier, later in zip(maps, maps[1:]):
            assert later >= earlier - 0.02


class TestBatchEquivalence:
    def test_batch_equals_one_query_at_a_time(self, rng):
        gallery = unit_rows(rng, 200, 8)
        queries = unit_rows(rng, 12, 8)
        cb = train_product_codebook(gallery, m=4, k=8, seed=1)
        codes = encode_matrix(cb, gallery)
        ql, gl = np.arange(12) % 3, np.arange(200) % 3
        one = [EmbeddingMatrix(queries.data[i : i + 1], normalized=True) for i in range(12)]
        batch = evaluate(queries, gallery, ql, gl)
        singles = [evaluate(one[i], gallery, ql[i : i + 1], gl) for i in range(12)]
        np.testing.assert_array_equal(
            batch.per_query_ap, np.concatenate([r.per_query_ap for r in singles])
        )
        batch = evaluate_pq(queries, codes, cb, ql, gl)
        singles = [evaluate_pq(one[i], codes, cb, ql[i : i + 1], gl) for i in range(12)]
        np.testing.assert_array_equal(
            batch.per_query_ap, np.concatenate([r.per_query_ap for r in singles])
        )


class TestHitMaskFastPath:
    """Evaluation ranks the hits from sorted keys; only a row where a hit's key ties is ranked in full."""

    @staticmethod
    def problem(rng, n=300, nq=5):
        """Random unit rows and distinct random codes: no two keys of a row tie."""
        gallery, queries = unit_rows(rng, n, 8), unit_rows(rng, nq, 8)
        cb = ProductCodebook(rng.normal(size=(4, 16, 2)))
        codes = np.stack(np.unravel_index(rng.choice(16**4, n, replace=False), (16,) * 4), axis=1)
        return queries, gallery, cb, codes.astype(np.uint8), np.arange(nq) % 3, np.arange(n) % 3

    @staticmethod
    def recording(monkeypatch, fail=False):
        """Rows passed to ``_rank`` by each call; with ``fail`` every call raises."""
        calls = []

        def record(keys):
            calls.append(keys.copy())
            if fail:
                raise AssertionError("evaluation fell back to the full ranking")
            return _rank(keys)

        monkeypatch.setattr("sspq.evaluation._rank", record)
        return calls

    def test_a_tie_free_gallery_is_scored_without_the_full_ranking(self, rng, monkeypatch):
        q, g, cb, codes, ql, gl = self.problem(rng)
        exact_keys, adc_keys = _exact_keys(q, g), adc_scores(cb, codes, q.data)
        assert all(np.unique(row).size == row.size for row in np.concatenate([exact_keys, adc_keys]))
        exact = average_precision(gl[exact_search(q, g)] == ql[:, None])
        pq = average_precision(gl[stable_order(adc_keys)] == ql[:, None])
        self.recording(monkeypatch, fail=True)
        assert evaluate(q, g, ql, gl).per_query_ap.tobytes() == exact.tobytes()
        assert evaluate_pq(q, codes, cb, ql, gl).per_query_ap.tobytes() == pq.tobytes()

    def test_only_the_row_where_a_hit_ties_is_ranked_in_full(self, rng, monkeypatch):
        # Gallery item 7 copies item 4; both carry label 1, which only query 1 has.
        q, g, cb, codes, ql, gl = self.problem(rng, n=40, nq=3)
        data = g.data.copy()
        data[7], codes[7], gl[[4, 7]] = data[4], codes[4], 1
        g = EmbeddingMatrix(data, normalized=True)
        for name, evaluation, keys in (
            ("exact", lambda: evaluate(q, g, ql, gl), _exact_keys(q, g)),
            ("pq", lambda: evaluate_pq(q, codes, cb, ql, gl), adc_scores(cb, codes, q.data)),
        ):
            assert (keys[:, 4] == keys[:, 7]).all(), name
            expected = evaluation().per_query_ap
            calls = self.recording(monkeypatch)
            assert evaluation().per_query_ap.tobytes() == expected.tobytes()
            assert len(calls) == 1 and calls[0].tobytes() == keys[[1]].tobytes(), name
            monkeypatch.undo()
