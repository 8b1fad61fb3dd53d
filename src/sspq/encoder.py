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

from .embeddings import EMB_MAX_SIZE, normalize_rows
from .errors import (
    BadConfigError,
    FormatError,
    LengthMismatchError,
    ShapeMismatchError,
    check_int,
    shown,
)
from .fileio import read_blob, read_values, write_blob

ACT_TANH = "tanh"  # the hidden activation, as checkpoint headers name it

CHECKPOINT_MAGIC = b"SSPQ"
FORWARD_BLOCK_ROWS = 4096  # the most rows in one of forward_matrix's blocks


def _check_sizes(name: str, sizes, min_count: int = 0) -> None:
    """Raise ``BadConfigError`` unless ``sizes`` is a list or tuple of at least ``min_count`` ints in [1, ``EMB_MAX_SIZE``]."""
    if not isinstance(sizes, (list, tuple)) or len(sizes) < min_count:
        raise BadConfigError(f"{name} must be a list or tuple of at least {min_count} ints >= 1, got {shown(sizes)}")
    for size in sizes:
        check_int("layer size", size, 1, EMB_MAX_SIZE)


def _param_shapes(layer_sizes: list[int]) -> list[tuple[int, ...]]:
    """Parameter shapes in update order for these layer sizes: W0 (d1, d0), b0 (d1,), W1 (d2, d1), ..."""
    return [shape for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]) for shape in ((d_out, d_in), (d_out,))]


class QueryEncoder:
    """MLP mapping raw input vectors to unit-norm embeddings.

    Hidden layers apply tanh; the final layer is affine and its output is
    L2-normalized. ``params`` holds W0, b0, W1, b1, ... in update order.

    Raises:
        BadConfigError: unless ``layer_sizes`` is a list or tuple of two or
            more ints >= 1, as ``load_checkpoint`` reads, and ``params`` a
            list or tuple of real arrays.
        ShapeMismatchError: unless ``params`` has ``_param_shapes(layer_sizes)``.
    """

    def __init__(self, layer_sizes: list[int], params: list[np.ndarray]):
        _check_sizes("layer_sizes", layer_sizes, min_count=2)
        self.layer_sizes = [int(size) for size in layer_sizes]  # as save_checkpoint writes them
        if not isinstance(params, (list, tuple)):
            raise BadConfigError(f"params must be a list or tuple of arrays, got {shown(params)}")
        try:
            arrays = [np.asarray(p) for p in params]
        except (TypeError, ValueError) as exc:
            raise BadConfigError(f"params must hold real arrays: {exc}") from exc
        if kinds := [str(a.dtype) for a in arrays if a.dtype.kind not in "biuf"]:
            raise BadConfigError(f"params must hold real arrays, got dtype {kinds[0]}")
        self.params = [np.asarray(a, dtype=np.float64) for a in arrays]
        if [p.shape for p in self.params] != _param_shapes(self.layer_sizes):
            raise ShapeMismatchError(f"parameter shapes {[p.shape for p in self.params]} do not fit {self.layer_sizes}")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    def copy(self) -> "QueryEncoder":
        return QueryEncoder(self.layer_sizes, [p.copy() for p in self.params])


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
            an int in [1, ``EMB_MAX_SIZE``] and the seed an int >= 0.
    """
    _check_sizes("hidden", hidden)
    sizes = [d_in, *hidden, d_out]
    _check_sizes("layer_sizes", sizes)
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    params = []
    for shape in _param_shapes(sizes):
        bound = 1.0 / np.sqrt(shape[-1])  # fan_in for a weight; a bias is zero
        params.append(rng.uniform(-bound, bound, size=shape) if len(shape) == 2 else np.zeros(shape))
    return QueryEncoder(sizes, params)


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
    for i in range(0, len(enc.params), 2):
        inputs.append(h)
        h = h @ enc.params[i].T  # a new array, so the in-place steps never write into x or a cached input
        h += enc.params[i + 1]
        if i + 2 < len(enc.params):
            np.tanh(h, out=h)
    y, degenerate = normalize_rows(h)
    return y, {"inputs": inputs, "z": h, "y": y, "degenerate": degenerate}


def encoder_backward(enc: QueryEncoder, cache: dict, grad_y: np.ndarray) -> list[np.ndarray]:
    """Backpropagate dLoss/d(embeddings), (B, d_out) float64 like ``cache["y"]``, to parameter gradients.

    Returns:
        Gradients summed over the batch, aligned with ``enc.params``.
    """
    y, degenerate = cache["y"], cache["degenerate"]
    # A degenerate row was returned unchanged with norm < 1e-12, so dividing
    # by 1 gives grad_y - y (y . grad_y), within |y|^2 < 1e-24 of the identity.
    z_norm = np.where(degenerate, 1.0, np.linalg.norm(cache["z"], axis=1))
    radial = np.einsum("bd,bd->b", y, grad_y)
    delta = (grad_y - y * radial[:, None]) / z_norm[:, None]

    inputs = cache["inputs"]
    grads: list[np.ndarray] = []
    last = len(enc.params) // 2 - 1
    for i in range(last, -1, -1):
        if i != last:
            # inputs[i + 1] is the tanh output h of layer i, and tanh' = 1 - h^2
            h = inputs[i + 1]
            delta = delta * (1.0 - h * h)
        grads.append(delta.sum(axis=0))  # db_i
        grads.append(delta.T @ inputs[i])  # dW_i
        if i > 0:
            delta = delta @ enc.params[2 * i]
    grads.reverse()
    return grads


def forward_matrix(enc: QueryEncoder, x: np.ndarray) -> np.ndarray:
    """Embeddings of an (n, d_in) input matrix, checked (``LengthMismatchError``): encoder_forward without its cache."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != enc.input_dim:
        raise LengthMismatchError(f"input has shape {x.shape}, expected (n, {enc.input_dim})")
    blocks = -(-len(x) // FORWARD_BLOCK_ROWS)
    if blocks <= 1:
        return encoder_forward(enc, x)[0]
    # Equal blocks keep the bits of one pass; a short tail block may take a BLAS kernel that rounds differently.
    out = np.empty((len(x), enc.output_dim))
    for rows, dst in zip(np.array_split(x, blocks), np.array_split(out, blocks)):
        dst[...] = encoder_forward(enc, rows)[0]
    return out


def save_checkpoint(enc: QueryEncoder, path: str | Path, extra: dict) -> None:
    """Write an encoder checkpoint in the SSPQ format of ``fileio.write_blob``.

    Header: u32 LE length, then a JSON object of the architecture and an
    arbitrary JSON-serializable ``extra`` payload (typically the training
    config echo); then the float64 parameter blocks of ``enc.params``.

    Raises:
        NonFiniteInputError: if a parameter holds a NaN or an infinity, as
            after a diverged training run.
    """
    header = {
        "layer_sizes": enc.layer_sizes,
        "activation": ACT_TANH,
        "extra": extra,
    }
    header_json = json.dumps(header, sort_keys=True).encode("utf-8")
    header_bytes = struct.pack("<I", len(header_json)) + header_json
    write_blob(path, CHECKPOINT_MAGIC, header_bytes, enc.params, "<f8")


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
        _check_sizes("layer_sizes", sizes, min_count=2)
    except (ValueError, KeyError, TypeError, BadConfigError) as exc:
        raise FormatError(f"{path}: malformed header: {exc!r}") from exc
    if activation != ACT_TANH:
        raise FormatError(f"{path}: activation {activation!r} is not {ACT_TANH!r}")

    shapes = _param_shapes(sizes)
    counts = [math.prod(shape) for shape in shapes]
    values = read_values(path, payload[header_len:], "<f8", sum(counts))
    params = [block.reshape(shape) for block, shape in zip(np.split(values, np.cumsum(counts)[:-1]), shapes)]
    return QueryEncoder(sizes, params), header.get("extra", {})
