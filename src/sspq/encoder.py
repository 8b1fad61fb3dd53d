"""Trainable query encoder: a small tanh MLP with L2-normalized output.

Forward and backward passes take a batch of rows, (B, d_in); a single
input is a batch of one. The forward pass caches every intermediate needed
for exact backpropagation, and gradients flow through the final
normalization, the tanh units, and the affine layers, summed over the
batch. Checkpoints use the ``SSPQ`` container format.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .embeddings import normalize_rows
from .errors import (
    BadConfigError,
    FormatError,
    LengthMismatchError,
    ShapeMismatchError,
    check_int,
)
from .fileio import read_blob, read_values, write_blob

ACT_TANH = "tanh"  # the hidden activation, as checkpoint headers name it

CHECKPOINT_MAGIC = b"SSPQ"


def _check_sizes(name: str, sizes, min_count: int = 0) -> None:
    """Raise ``BadConfigError`` unless ``sizes`` is a list or tuple of at least ``min_count`` ints >= 1."""
    if not isinstance(sizes, (list, tuple)) or len(sizes) < min_count:
        raise BadConfigError(f"{name} must be a list or tuple of at least {min_count} ints >= 1, got {sizes!r}")
    for size in sizes:
        check_int("layer size", size, 1)


def _as_params(name: str, params) -> list[np.ndarray]:
    """``params`` as float64 arrays; ``BadConfigError`` unless it is a list or tuple of real arrays."""
    if not isinstance(params, (list, tuple)):
        raise BadConfigError(f"{name} must be a list or tuple of arrays, got {params!r}")
    try:
        return [np.asarray(p, dtype=np.float64) for p in params]
    except (TypeError, ValueError) as exc:
        raise BadConfigError(f"{name} must hold real arrays: {exc}") from exc


class QueryEncoder:
    """MLP mapping raw input vectors to unit-norm embeddings.

    Hidden layers apply tanh; the final layer is affine and its output is
    L2-normalized.

    Raises:
        BadConfigError: unless ``layer_sizes`` is a list or tuple of two or
            more ints >= 1, as ``load_checkpoint`` reads, and ``weights`` and
            ``biases`` are lists or tuples of real arrays.
        ShapeMismatchError: unless each pair of adjacent layer sizes has one
            weight matrix and one bias of its shape.
    """

    def __init__(self, layer_sizes: list[int], weights: list[np.ndarray], biases: list[np.ndarray]):
        _check_sizes("layer_sizes", layer_sizes, min_count=2)
        self.layer_sizes = [int(size) for size in layer_sizes]  # as save_checkpoint writes them
        self.weights = _as_params("weights", weights)
        self.biases = _as_params("biases", biases)
        if not len(self.weights) == len(self.biases) == len(self.layer_sizes) - 1:
            raise ShapeMismatchError(
                f"{len(self.weights)} weights and {len(self.biases)} biases "
                f"for {len(self.layer_sizes)} layer sizes"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out_d, in_d = layer_sizes[i + 1], layer_sizes[i]
            if w.shape != (out_d, in_d) or b.shape != (out_d,):
                raise ShapeMismatchError(f"layer {i} parameter shapes do not match {in_d}->{out_d}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def parameters(self) -> list[np.ndarray]:
        """Flat parameter list in update order: W0, b0, W1, b1, ..."""
        out = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def copy(self) -> "QueryEncoder":
        return QueryEncoder(
            self.layer_sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def encoder_init(
    d_in: int,
    hidden: list[int],
    d_out: int,
    seed: int = 0,
) -> QueryEncoder:
    """Build an encoder with symmetric uniform fan-in-scaled weights.

    Weights are U(-1/sqrt(fan_in), +1/sqrt(fan_in)), biases zero;
    deterministic given the seed.

    Raises:
        BadConfigError: unless ``hidden`` is a list or tuple, every layer size
            an int >= 1 and the seed an int >= 0.
    """
    _check_sizes("hidden", hidden)
    sizes = [d_in, *hidden, d_out]
    _check_sizes("layer_sizes", sizes)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return QueryEncoder(sizes, weights, biases)


def encoder_forward(enc: QueryEncoder, x: np.ndarray) -> tuple[np.ndarray, dict]:
    """Forward pass over a batch of input rows, unchecked: ``forward_matrix`` and
    ``train_query_model`` check the inputs they pass.

    Args:
        x: (B, d_in) float64 inputs; a single vector is a batch of one.

    Returns:
        (embeddings, cache). Each (B, d_out) embedding row is the
        L2-normalized final affine output; a row whose output norm is below
        1e-12 is returned unchanged and flagged in the (B,) mask
        cache["degenerate"]. The cache holds every intermediate needed by
        encoder_backward.
    """
    h = x
    inputs = []
    last = len(enc.weights) - 1
    for i, (w, b) in enumerate(zip(enc.weights, enc.biases)):
        inputs.append(h)
        h = h @ w.T + b
        if i != last:
            h = np.tanh(h)
    y, degenerate = normalize_rows(h)
    return y, {"inputs": inputs, "z": h, "y": y, "degenerate": degenerate}


def encoder_backward(enc: QueryEncoder, cache: dict, grad_y: np.ndarray) -> list[np.ndarray]:
    """Backpropagate dLoss/d(embeddings), (B, d_out) float64 like ``cache["y"]``, to parameter gradients.

    Returns:
        Gradients summed over the batch, aligned with ``enc.parameters()``
        order (W0, b0, W1, b1...).
    """
    y, degenerate = cache["y"], cache["degenerate"]
    # A degenerate row was returned unchanged with norm < 1e-12, so dividing
    # by 1 gives grad_y - y (y . grad_y), within |y|^2 < 1e-24 of the identity.
    z_norm = np.where(degenerate, 1.0, np.linalg.norm(cache["z"], axis=1))
    radial = np.einsum("bd,bd->b", y, grad_y)
    delta = (grad_y - y * radial[:, None]) / z_norm[:, None]

    inputs = cache["inputs"]
    grads: list[np.ndarray] = []
    last = len(enc.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            # inputs[i + 1] is the tanh output h of layer i, and tanh' = 1 - h^2
            h = inputs[i + 1]
            delta = delta * (1.0 - h * h)
        grads.append(delta.sum(axis=0))  # db_i
        grads.append(delta.T @ inputs[i])  # dW_i
        if i > 0:
            delta = delta @ enc.weights[i]
    grads.reverse()
    return grads


def forward_matrix(enc: QueryEncoder, x: np.ndarray) -> np.ndarray:
    """Embeddings of an (n, d_in) input matrix, checked (``LengthMismatchError``): encoder_forward without its cache."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != enc.input_dim:
        raise LengthMismatchError(f"input has shape {x.shape}, expected (n, {enc.input_dim})")
    return encoder_forward(enc, x)[0]


def save_checkpoint(enc: QueryEncoder, path: str | Path, extra: dict | None = None) -> None:
    """Write an encoder checkpoint in the SSPQ format of ``fileio.write_blob``.

    Header: u32 LE length, then a JSON object of the architecture and an
    arbitrary JSON-serializable ``extra`` payload (typically the training
    config echo); then the float64 parameter blocks in parameters() order.

    Raises:
        NonFiniteInputError: if a parameter holds a NaN or an infinity, as
            after a diverged training run.
    """
    header = {
        "layer_sizes": enc.layer_sizes,
        "activation": ACT_TANH,
        "extra": extra or {},
    }
    header_json = json.dumps(header, sort_keys=True).encode("utf-8")
    header_bytes = struct.pack("<I", len(header_json)) + header_json
    write_blob(path, CHECKPOINT_MAGIC, header_bytes, enc.parameters(), "<f8")


def load_checkpoint(path: str | Path) -> tuple[QueryEncoder, dict]:
    """Read an SSPQ checkpoint back into an encoder.

    Raises:
        FormatError: on a header that is not a JSON object with a tanh
            activation and at least two integer layer sizes >= 1, on a payload
            other than the parameter blocks those sizes imply, or as
            ``fileio.read_blob`` and ``read_values`` do.
    """
    (header_len,), payload = read_blob(path, CHECKPOINT_MAGIC, "<I")
    if len(payload) < header_len:
        raise FormatError(f"{path}: truncated header")
    try:
        header = json.loads(bytes(payload[:header_len]).decode("utf-8"))
        sizes = header["layer_sizes"]
        activation = header["activation"]
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: malformed header: {exc!r}") from exc
    if not (
        isinstance(sizes, list)
        and len(sizes) >= 2
        and all(type(s) is int and s >= 1 for s in sizes)
    ):
        raise FormatError(f"{path}: layer_sizes must be two or more integers >= 1, got {sizes!r}")
    if activation != ACT_TANH:
        raise FormatError(f"{path}: activation {activation!r} is not {ACT_TANH!r}")

    shapes = [s for fan_in, fan_out in zip(sizes[:-1], sizes[1:]) for s in ((fan_out, fan_in), (fan_out,))]
    counts = [math.prod(shape) for shape in shapes]
    values = read_values(path, payload[header_len:], "<f8", sum(counts))
    blocks = np.split(values, np.cumsum(counts)[:-1])
    params = [block.reshape(shape) for block, shape in zip(blocks, shapes)]
    return QueryEncoder(sizes, params[0::2], params[1::2]), header.get("extra", {})
