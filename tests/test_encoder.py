import json
import struct

import numpy as np
import pytest

from oracles import central_diff_grad, grad_mismatch
from sspq.embeddings import normalize_rows
from sspq.encoder import (
    QueryEncoder,
    encoder_backward,
    encoder_forward,
    encoder_init,
    forward_matrix,
    load_checkpoint,
    save_checkpoint,
)
from sspq.errors import (
    BadConfigError,
    FormatError,
    LengthMismatchError,
    NonFiniteInputError,
    ShapeMismatchError,
)


class TestEncoderInit:
    def test_deterministic(self):
        a = encoder_init(8, [16], 8, seed=4)
        b = encoder_init(8, [16], 8, seed=4)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.tobytes() == pb.tobytes()

    def test_no_hidden_identity_activation_is_linear(self, rng):
        enc = encoder_init(5, [], 5, seed=1)
        assert len(enc.weights) == 1
        x = rng.normal(size=5)
        (y,), _ = encoder_forward(enc, x[None])
        (expected,), _ = normalize_rows((enc.weights[0] @ x)[None])
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_parameter_count(self):
        enc = encoder_init(8, [16], 8, seed=0)
        assert sum(p.size for p in enc.parameters()) == 8 * 16 + 16 + 16 * 8 + 8

    def test_bad_dimension(self):
        with pytest.raises(BadConfigError):
            encoder_init(0, [4], 2, seed=0)

    def test_negative_seed_raises(self):
        with pytest.raises(BadConfigError):
            encoder_init(8, [16], 8, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_non_int_seed_raises(self, seed):
        with pytest.raises(BadConfigError):
            encoder_init(8, [16], 8, seed=seed)


class TestEncoderForward:
    def test_identity_weights_normalize_input(self, rng):
        enc = QueryEncoder([4, 4], [np.eye(4)], [np.zeros(4)])
        x = rng.normal(size=4)
        (y,), cache = encoder_forward(enc, x[None])
        (expected,), _ = normalize_rows(x[None])
        np.testing.assert_allclose(y, expected, atol=1e-15)
        assert not cache["degenerate"][0]

    def test_zero_encoder_degenerate(self):
        enc = QueryEncoder([3, 3], [np.zeros((3, 3))], [np.zeros(3)])
        (y,), cache = encoder_forward(enc, np.ones((1, 3)))
        np.testing.assert_array_equal(y, np.zeros(3))
        assert cache["degenerate"][0]

    def test_length_mismatch(self):
        enc = encoder_init(4, [], 4, seed=0)
        with pytest.raises(LengthMismatchError):
            forward_matrix(enc, np.ones((1, 5)))

    @pytest.mark.parametrize("layers", [1, 3], ids=["one-too-few", "one-too-many"])
    def test_layer_count_must_match_layer_sizes(self, layers):
        # Sizes [4, 5, 3] need two layers. The shapes chain 4 -> 5 -> 3 -> 2,
        # so only the count is wrong.
        shapes = [(5, 4), (3, 5), (2, 3)][:layers]
        with pytest.raises(ShapeMismatchError):
            QueryEncoder([4, 5, 3], [np.zeros(s) for s in shapes], [np.zeros(s[0]) for s in shapes])

    @pytest.mark.parametrize("size", [2.0, True, 0], ids=["integral-float", "bool", "zero"])
    def test_layer_size_must_be_an_int_at_least_one(self, size):
        # Shape checks alone compare 2.0 == 2, so a float size passed them
        # and save_checkpoint wrote a header that load_checkpoint rejects.
        with pytest.raises(BadConfigError):
            QueryEncoder([size, 3], [np.zeros((3, 2))], [np.zeros(3)])

    @pytest.mark.parametrize("sizes", [[5], []], ids=["one-size", "no-size"])
    def test_fewer_than_two_layer_sizes_raise_as_load_checkpoint_does(self, sizes):
        # Such an encoder has no layer; save_checkpoint wrote it and
        # load_checkpoint rejected the file with FormatError.
        with pytest.raises(BadConfigError):
            QueryEncoder(sizes, [], [])

    @pytest.mark.parametrize("weights, biases", [
        (None, None),
        ([np.ones((3, 2))], None),
        (np.ones((1, 3, 2)), [np.zeros(3)]),
        ("ab", [np.zeros(3)]),
        ([np.ones((3, 2))], [["x", "y", "z"]]),
        ([[[1.0, 2.0], [3.0]]], [np.zeros(3)]),
    ], ids=["none", "biases-none", "array-not-list", "string", "string-entries", "ragged-entry"])
    def test_parameter_lists_must_be_lists_of_real_arrays(self, weights, biases):
        with pytest.raises(BadConfigError):
            QueryEncoder([2, 3], weights, biases)

    def test_parameter_tuples_are_accepted(self):
        enc = QueryEncoder((2, 3), (np.ones((3, 2)),), (np.zeros(3),))
        assert [w.shape for w in enc.weights] == [(3, 2)] and [b.shape for b in enc.biases] == [(3,)]

    def test_numpy_integer_layer_sizes_round_trip(self, tmp_path):
        enc = QueryEncoder([np.int64(2), np.uint8(3)], [np.ones((3, 2))], [np.zeros(3)])
        assert [type(s) for s in enc.layer_sizes] == [int, int]
        save_checkpoint(enc, tmp_path / "enc.sspq")
        assert load_checkpoint(tmp_path / "enc.sspq")[0].layer_sizes == [2, 3]

    def test_forward_matrix_agrees_rowwise(self, rng):
        enc = encoder_init(6, [10], 4, seed=2)
        batch = rng.normal(size=(8, 6))
        rows = forward_matrix(enc, batch)
        for i in range(8):
            (y,), _ = encoder_forward(enc, batch[i : i + 1])
            np.testing.assert_allclose(rows[i], y, atol=1e-12)


class TestEncoderBackward:
    def test_parameter_gradients_match_finite_differences(self):
        rng = np.random.default_rng(0)
        enc = encoder_init(6, [10], 8, seed=3)
        x = rng.normal(size=6)
        v = rng.normal(size=8)
        _, cache = encoder_forward(enc, x[None])
        analytic = encoder_backward(enc, cache, v[None])
        # A gradient that is zero up to round-off is judged against
        # grad_mismatch's 1e-8 floor, and finite-difference noise fails it.
        assert min(np.abs(g).max() for g in analytic) >= 1e-3

        params = enc.parameters()
        for p_idx, p in enumerate(params):
            flat = p.reshape(-1)

            def probe(vec, flat=flat, p_idx=p_idx):
                old = flat.copy()
                flat[:] = vec
                (y,), _ = encoder_forward(enc, x[None])
                flat[:] = old
                return float(v @ y)

            numeric = central_diff_grad(probe, flat.copy())
            assert grad_mismatch(analytic[p_idx].reshape(-1), numeric) < 1e-5


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        enc = encoder_init(5, [7], 6, seed=9)
        path = tmp_path / "enc.sspq"
        save_checkpoint(enc, path, extra={"note": "x"})
        back, extra = load_checkpoint(path)
        assert extra == {"note": "x"}
        assert back.layer_sizes == enc.layer_sizes
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[4:8])
        assert json.loads(blob[8 : 8 + header_len])["activation"] == "tanh"
        for pa, pb in zip(enc.parameters(), back.parameters()):
            assert pa.tobytes() == pb.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sspq"
        path.write_bytes(b"ABCD" + b"\x00" * 16)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_truncated_blocks(self, tmp_path):
        enc = encoder_init(4, [], 4, seed=0)
        path = tmp_path / "t.sspq"
        save_checkpoint(enc, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_save_non_finite_parameter_raises(self, tmp_path, bad):
        enc = encoder_init(4, [3], 4, seed=0)
        enc.biases[-1][-1] = bad
        path = tmp_path / "nan.sspq"
        with pytest.raises(NonFiniteInputError):
            save_checkpoint(enc, path)
        assert not path.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_parameter_raises(self, tmp_path, bad):
        enc = encoder_init(4, [3], 4, seed=0)
        path = tmp_path / "nan.sspq"
        save_checkpoint(enc, path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = struct.pack("<d", bad)  # last bias of the output layer
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "header",
        [
            [4, 4],
            {"layer_sizes": 4, "activation": "tanh"},
            {"layer_sizes": "44", "activation": "tanh"},
            {"layer_sizes": [4, None], "activation": "tanh"},
            {"layer_sizes": [4, 0], "activation": "tanh"},
            {"layer_sizes": [4, 4.0], "activation": "tanh"},
            {"layer_sizes": [4], "activation": "tanh"},
        ],
        ids=["list", "int-sizes", "string-sizes", "null-size", "zero-size", "float-size", "one-size"],
    )
    def test_malformed_header_raises(self, tmp_path, header):
        # A zero-size layer has no parameter bytes, so only the header check
        # can reject [4, 0].
        header_bytes = json.dumps(header).encode()
        path = tmp_path / "header.sspq"
        path.write_bytes(b"SSPQ" + struct.pack("<I", len(header_bytes)) + header_bytes)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_unknown_activation(self, tmp_path):
        # A relu checkpoint from an older build would run wrong as tanh.
        enc = encoder_init(4, [], 4, seed=0)
        path = tmp_path / "relu.sspq"
        save_checkpoint(enc, path)
        path.write_bytes(path.read_bytes().replace(b'"tanh"', b'"relu"'))
        with pytest.raises(FormatError):
            load_checkpoint(path)
