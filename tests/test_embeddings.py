import struct

import numpy as np
import pytest

from oracles import cosine_sim, csv_labels, neg_euclid_sim, split_subvectors
from sspq.embeddings import (
    EmbeddingMatrix,
    export_embeddings,
    import_embeddings,
    normalize_rows,
    read_labels,
    write_labels,
)
from sspq.errors import (
    FormatError,
    IndivisibleDimensionError,
    InvariantError,
    LengthMismatchError,
    NonFiniteInputError,
    ShapeMismatchError,
)


class TestL2Normalize:
    def test_three_four_five(self):
        (out,), (degenerate,) = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(out, [0.6, 0.8])
        assert not degenerate

    def test_unit_vector_unchanged(self):
        (out,), (degenerate,) = normalize_rows(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])
        assert not degenerate

    def test_zero_vector_flagged(self):
        (out,), (degenerate,) = normalize_rows(np.array([[0.0, 0.0]]))
        np.testing.assert_array_equal(out, [0.0, 0.0])
        assert degenerate

    def test_random_norms(self, rng):
        for _ in range(50):
            v = rng.normal(size=rng.integers(1, 20))
            (out,), (degenerate,) = normalize_rows(v[None])
            assert not degenerate
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12


    @pytest.mark.filterwarnings("error")
    def test_finite_row_whose_norm_overflows_is_scaled_first(self, rng):
        x = np.concatenate([rng.normal(size=(2, 4)), np.full((1, 4), 1e200), [[-1e300, 3.0, 0.0, 2e299]]])
        out, degenerate = normalize_rows(x)
        np.testing.assert_array_equal(out[2], normalize_rows(np.full((1, 4), 1.0))[0][0])
        np.testing.assert_allclose(np.linalg.norm(out[2:], axis=1), 1.0, rtol=1e-15)
        assert out[:2].tobytes() == normalize_rows(x[:2])[0].tobytes()
        assert not degenerate.any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_row_with_a_non_finite_entry_is_not_rescaled(self, bad):
        x = np.array([[1e200, bad, 1.0], [1e200, 1e200, 0.0]])
        with np.errstate(invalid="ignore"):
            out, _ = normalize_rows(x)
        assert np.isnan(out[0]).any()
        np.testing.assert_allclose(out[1], [2**-0.5, 2**-0.5, 0.0], rtol=1e-15)


class TestSplitSubvectors:
    def test_contiguous_split(self):
        parts = split_subvectors(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_array_equal(parts[0], [1.0, 2.0])
        np.testing.assert_array_equal(parts[1], [3.0, 4.0])

    def test_identity_split(self):
        parts = split_subvectors(np.array([5.0]), 1)
        assert len(parts) == 1
        np.testing.assert_array_equal(parts[0], [5.0])

    def test_three_way(self):
        parts = split_subvectors(np.arange(1.0, 7.0), 3)
        np.testing.assert_array_equal(parts[1], [3.0, 4.0])

    def test_indivisible_raises(self):
        with pytest.raises(IndivisibleDimensionError):
            split_subvectors(np.arange(5.0), 2)

    def test_round_trip(self, rng):
        for _ in range(20):
            m = int(rng.integers(1, 6))
            d = m * int(rng.integers(1, 5))
            v = rng.normal(size=d)
            np.testing.assert_array_equal(np.concatenate(split_subvectors(v, m)), v)


class TestCosineSim:
    def test_identical_unit_vectors(self):
        assert cosine_sim([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_45_degrees(self):
        assert cosine_sim([1.0, 1.0], [1.0, 0.0]) == pytest.approx(0.70710678, abs=1e-8)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            cosine_sim([1.0, 0.0], [1.0, 0.0, 0.0])

    def test_self_similarity_one(self, rng):
        for _ in range(30):
            a = rng.normal(size=rng.integers(1, 10))
            assert abs(cosine_sim(a, a) - 1.0) < 1e-9

    def test_scale_invariance(self, rng):
        for _ in range(30):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            c = float(rng.uniform(0.1, 50.0))
            assert cosine_sim(c * a, b) == pytest.approx(cosine_sim(a, b), abs=1e-9)
            assert cosine_sim(a, c * b) == pytest.approx(cosine_sim(a, b), abs=1e-9)

    def test_zero_vector_is_zero(self):
        assert cosine_sim([0.0, 0.0], [1.0, 2.0]) == 0.0


class TestNegEuclidSim:
    def test_identical(self):
        assert neg_euclid_sim([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_sqrt_two(self):
        assert neg_euclid_sim([1.0, 0.0], [0.0, 1.0]) == pytest.approx(-1.41421356, abs=1e-8)

    def test_three_four_five(self):
        assert neg_euclid_sim([0.0, 0.0], [3.0, 4.0]) == pytest.approx(-5.0)

    def test_nonpositive_and_zero_iff_equal(self, rng):
        for _ in range(30):
            a = rng.normal(size=5)
            b = rng.normal(size=5)
            assert neg_euclid_sim(a, b) <= 0.0
            assert neg_euclid_sim(a, a) == 0.0
            if not np.array_equal(a, b):
                assert neg_euclid_sim(a, b) < 0.0


class TestEmbeddingMatrix:
    def test_normalized_flag_validated(self, rng):
        data = rng.normal(size=(4, 3))
        with pytest.raises(InvariantError):
            EmbeddingMatrix(data, normalized=True)
        unit = data / np.linalg.norm(data, axis=1, keepdims=True)
        emb = EmbeddingMatrix(unit, normalized=True)
        assert emb.rows == 4 and emb.data.shape == (4, 3)

    def test_data_is_read_only(self, rng):
        emb = EmbeddingMatrix(rng.normal(size=(2, 2)))
        with pytest.raises(ValueError):
            emb.data[0, 0] = 7.0

    def test_float64_c_contiguous_input_is_shared_and_made_read_only(self, rng):
        # The cached unit rows stay sound only because no one can write to
        # the kept array, the caller's own reference included.
        x = rng.normal(size=(5, 4))
        emb = EmbeddingMatrix(x)
        assert emb.data is x
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 7.0

    @pytest.mark.parametrize(
        "make", [lambda x: x.astype(np.float32), lambda x: x[:, ::2], lambda x: np.asfortranarray(x)],
        ids=["float32", "strided", "fortran"],
    )
    def test_other_input_is_copied_and_left_writable(self, rng, make):
        x = make(rng.normal(size=(5, 4)))
        emb = EmbeddingMatrix(x)
        assert not np.shares_memory(emb.data, x)
        assert x.flags.writeable and not emb.data.flags.writeable
        np.testing.assert_array_equal(emb.data, x.astype(np.float64))


class TestEmb1Format:
    def test_round_trip_and_f32_rounding(self, tmp_path, rng):
        x = rng.normal(size=(5, 4))
        path = tmp_path / "x.emb"
        export_embeddings(x, path)
        back = import_embeddings(path)
        assert back.shape == (5, 4)
        assert back.dtype == np.float64 and not back.flags.writeable
        f32 = x.astype(np.float32).astype(np.float64)
        np.testing.assert_array_equal(back, f32)

    def test_import_export_byte_identical(self, tmp_path, rng):
        path = tmp_path / "a.emb"
        path2 = tmp_path / "b.emb"
        export_embeddings(rng.normal(size=(6, 3)), path)
        export_embeddings(import_embeddings(path), path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_truncated_payload_raises(self, tmp_path, rng):
        path = tmp_path / "t.emb"
        export_embeddings(rng.normal(size=(4, 4)), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(FormatError):
            import_embeddings(path)

    def test_wrong_magic_raises(self, tmp_path, rng):
        path = tmp_path / "m.emb"
        export_embeddings(rng.normal(size=(2, 2)), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            import_embeddings(path)

    # Neither array allocates memory; each size is one past EMB1's u32 header field.
    @pytest.mark.parametrize("shape", [(2**32, 0), (0, 2**32)])
    def test_export_size_beyond_u32_raises(self, tmp_path, shape):
        path = tmp_path / "big.emb"
        with pytest.raises(ShapeMismatchError):
            export_embeddings(np.empty(shape), path)
        assert not path.exists()

    # 1e39 is finite in float64 but overflows the float32 payload.
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_export_non_finite_value_raises(self, tmp_path, rng, bad):
        data = rng.normal(size=(4, 4))
        data[1, 1] = bad
        path = tmp_path / "f.emb"
        with pytest.raises(NonFiniteInputError):
            export_embeddings(data, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_raises(self, tmp_path, rng, bad):
        path = tmp_path / "f.emb"
        export_embeddings(rng.normal(size=(4, 4)), path)
        blob = bytearray(path.read_bytes())
        blob[13 + 4 * 5 : 13 + 4 * 6] = struct.pack("<f", bad)  # row 1, column 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            import_embeddings(path)

    def test_header_row_count_mismatch_raises(self, tmp_path, rng):
        path = tmp_path / "h.emb"
        export_embeddings(rng.normal(size=(4, 4)), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9  # claim more rows than the payload holds
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            import_embeddings(path)


class TestLabelSidecar:
    def test_round_trip(self, tmp_path):
        labels = np.array([3, 1, 4, 1, 5])
        path = tmp_path / "labels.csv"
        write_labels(labels, path)
        np.testing.assert_array_equal(read_labels(path, expected_rows=5), labels)

    @pytest.mark.parametrize("labels", [
        np.zeros(0, dtype=np.int64),
        np.array([0]),
        np.array([-7, 0, 12, -1, 3]),
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0]),
        np.repeat(np.arange(64, dtype=np.int64), 1599),
    ], ids=["empty", "zero", "negative", "int64-extremes", "search-gallery"])
    def test_bytes_equal_the_csv_module_and_round_trip(self, tmp_path, labels):
        path = tmp_path / "labels.csv"
        write_labels(labels, path)
        assert path.read_bytes() == csv_labels(labels)
        read = read_labels(path, expected_rows=len(labels))
        assert read.dtype == np.int64 and read.tolist() == labels.tolist()

    def test_bad_header_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("idx,label\n0,1\n")
        with pytest.raises(FormatError):
            read_labels(path)

    def test_row_count_check(self, tmp_path):
        path = tmp_path / "short.csv"
        write_labels(np.array([1, 2]), path)
        with pytest.raises(FormatError):
            read_labels(path, expected_rows=3)

    @pytest.mark.parametrize(
        "blob",
        [
            b"id,label\nzero,1\n",
            b"id,label\n0,x\n",
            b"id,label\n0,1.5\n",
            b"id,label\n0,99999999999999999999\n",
            b"id,label\n0,\xff\n",
            b"id,label\n0, 5_0\n",
            b"id,label\n0,1\n+1,-0\n",
            b"id,label\n0,01\n",
        ],
        ids=[
            "text-id", "text-label", "float-label", "label-outside-int64", "not-utf8",
            "spaced-underscored-label", "signed-id-negative-zero-label", "leading-zero-label",
        ],
    )
    def test_malformed_row_raises(self, tmp_path, blob):
        path = tmp_path / "bad.csv"
        path.write_bytes(blob)
        with pytest.raises(FormatError):
            read_labels(path)
