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
    BadDimensionError,
    FormatError,
    LengthMismatchError,
    NonFiniteInputError,
)


class TestEncoderInit:
    def test_deterministic(self):
        a = encoder_init(8, [16], 8, seed=4)
        b = encoder_init(8, [16], 8, seed=4)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert pa.tobytes() == pb.tobytes()

    def test_no_hidden_identity_activation_is_linear(self, rng):
        enc = encoder_init(5, [], 5, activation="identity", seed=1)
        assert len(enc.weights) == 1
        x = rng.normal(size=5)
        (y,), _ = encoder_forward(enc, x[None])
        (expected,), _ = normalize_rows((enc.weights[0] @ x)[None])
        np.testing.assert_allclose(y, expected, atol=1e-12)

    def test_parameter_count(self):
        enc = encoder_init(8, [16], 8, seed=0)
        assert enc.num_params == 8 * 16 + 16 + 16 * 8 + 8

    def test_bad_dimension(self):
        with pytest.raises(BadDimensionError):
            encoder_init(0, [4], 2, seed=0)


class TestEncoderForward:
    def test_identity_weights_normalize_input(self, rng):
        enc = QueryEncoder([4, 4], "identity", [np.eye(4)], [np.zeros(4)])
        x = rng.normal(size=4)
        (y,), cache = encoder_forward(enc, x[None])
        (expected,), _ = normalize_rows(x[None])
        np.testing.assert_allclose(y, expected, atol=1e-15)
        assert not cache["degenerate"][0]

    def test_zero_encoder_degenerate(self):
        enc = QueryEncoder([3, 3], "tanh", [np.zeros((3, 3))], [np.zeros(3)])
        (y,), cache = encoder_forward(enc, np.ones((1, 3)))
        np.testing.assert_array_equal(y, np.zeros(3))
        assert cache["degenerate"][0]

    def test_length_mismatch(self):
        enc = encoder_init(4, [], 4, seed=0)
        with pytest.raises(LengthMismatchError):
            encoder_forward(enc, np.ones((1, 5)))

    def test_forward_matrix_agrees_rowwise(self, rng):
        enc = encoder_init(6, [10], 4, seed=2)
        batch = rng.normal(size=(8, 6))
        rows = forward_matrix(enc, batch)
        for i in range(8):
            (y,), _ = encoder_forward(enc, batch[i : i + 1])
            np.testing.assert_allclose(rows[i], y, atol=1e-12)


class TestEncoderBackward:
    @pytest.mark.parametrize("activation", ["tanh", "relu", "identity"])
    def test_parameter_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(hash(activation) % 2**32)
        enc = encoder_init(6, [10], 8, activation=activation, seed=3)
        x = rng.normal(size=6)
        v = rng.normal(size=8)
        _, cache = encoder_forward(enc, x[None])
        analytic = encoder_backward(enc, cache, v[None])

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
        enc = encoder_init(5, [7], 6, activation="relu", seed=9)
        path = tmp_path / "enc.sspq"
        save_checkpoint(enc, path, extra={"note": "x"})
        back, extra = load_checkpoint(path)
        assert extra == {"note": "x"}
        assert back.layer_sizes == enc.layer_sizes
        assert back.activation == enc.activation
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

    def test_unknown_activation(self, tmp_path):
        enc = encoder_init(4, [], 4, activation="relu", seed=0)
        path = tmp_path / "gelu.sspq"
        save_checkpoint(enc, path)
        path.write_bytes(path.read_bytes().replace(b'"relu"', b'"gelu"'))
        with pytest.raises(FormatError):
            load_checkpoint(path)
