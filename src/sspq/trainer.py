"""Query-model training against frozen, cached gallery embeddings.

Each mini-batch is pushed through the encoder in one forward pass, scored
row by row against the gallery embeddings of the same samples with the
configured loss in one call, and backpropagated in one backward pass. The
SSP loss reuses one workspace of (M, B, K) arrays for the whole run. The
parameter gradients, averaged over the mini-batch, feed an Adam update under
a linear learning-rate decay to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from numbers import Real

import numpy as np

from .encoder import QueryEncoder, encoder_backward, encoder_forward
from .errors import (
    BadConfigError,
    EmptyInputError,
    NonFiniteInputError,
    ShapeMismatchError,
    check_seed,
)
from .loss import (
    SIM_COSINE,
    SIMILARITY_KINDS,
    SspWorkspace,
    regression_loss_and_grad,
    ssp_loss_and_grad,
)
from .quantizer import ProductCodebook

LOSS_SSP = "ssp"
LOSS_REGRESSION = "reg"
LOSS_KINDS = (LOSS_SSP, LOSS_REGRESSION)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training run, checked once and then frozen: no per-step kernel checks them."""

    tau_g: float = 0.1
    tau_q: float = 1.0
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    loss_kind: str = LOSS_SSP
    similarity_kind: str = SIM_COSINE
    weight_decay: float = 1e-6

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
                raise BadConfigError(f"{name} must be an int >= 1, got {value!r}")
        for name, low in (("tau_g", ">="), ("tau_q", ">"), ("learning_rate", ">"), ("weight_decay", ">=")):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value)
                    or not (value > 0 if low == ">" else value >= 0)):
                raise BadConfigError(f"{name} must be a finite real number {low} 0, got {value!r}")
        check_seed(self.seed)
        if self.loss_kind not in LOSS_KINDS:
            raise BadConfigError(f"unknown loss kind {self.loss_kind!r}")
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise BadConfigError(f"unknown similarity kind {self.similarity_kind!r}")


def adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    moments: list[tuple[np.ndarray, np.ndarray]],
    t: int,
    lr_t: float,
    weight_decay: float,
) -> None:
    """Adam update number ``t`` (from 1) with bias correction, in place.

    ``moments`` holds one (first, second) moment pair per parameter. Decoupled
    weight decay shrinks the parameters by lr_t * weight_decay before the
    Adam delta is applied. ``train_query_model`` builds the arguments, which
    are not checked.
    """
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, (m, v) in zip(params, grads, moments):
        if weight_decay:
            p -= lr_t * weight_decay * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def train_query_model(
    enc: QueryEncoder,
    gallery_embeddings: np.ndarray,
    raw_inputs: np.ndarray,
    codebook: ProductCodebook,
    cfg: TrainConfig,
) -> tuple[QueryEncoder, list[float]]:
    """Optimize a copy of the encoder against frozen gallery embeddings.

    Each epoch shuffles the sample order with a generator seeded from
    cfg.seed, walks mini-batches, and averages the parameter gradients over
    each mini-batch before its Adam step; the learning rate
    decays linearly to zero over all steps. The input encoder and the
    gallery embeddings are never mutated.

    Returns:
        (trained encoder, mean loss of each epoch).

    Raises:
        NonFiniteInputError: at the first epoch whose mean loss is not finite.
    """
    raw = np.asarray(raw_inputs, dtype=np.float64)
    gallery = np.asarray(gallery_embeddings, dtype=np.float64)
    if raw.ndim != 2 or gallery.ndim != 2:
        raise ShapeMismatchError(f"raw inputs {raw.shape} and gallery embeddings {gallery.shape} must be 2-D")
    n = raw.shape[0]
    if n == 0:
        raise EmptyInputError("training set is empty")
    if gallery.shape[0] != n:
        raise ShapeMismatchError(f"{gallery.shape[0]} gallery embeddings for {n} raw inputs")
    if gallery.shape[1] != enc.output_dim or codebook.dim != enc.output_dim:
        raise ShapeMismatchError(
            f"dims disagree: gallery {gallery.shape[1]}, "
            f"codebook {codebook.dim}, encoder output {enc.output_dim}"
        )
    if raw.shape[1] != enc.input_dim:
        raise ShapeMismatchError(f"raw input dim {raw.shape[1]} != encoder input {enc.input_dim}")

    model = enc.copy()
    params = model.parameters()
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch

    if cfg.loss_kind == LOSS_SSP:
        workspace = SspWorkspace(codebook.m, codebook.k, min(cfg.batch_size, n))
        loss_and_grad = partial(ssp_loss_and_grad, codebook, tau_g=cfg.tau_g, tau_q=cfg.tau_q,
                                kind=cfg.similarity_kind, workspace=workspace)
    else:
        loss_and_grad = regression_loss_and_grad

    epoch_means: list[float] = []
    global_step = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        # A diverging run overflows; its non-finite epoch mean stops it below.
        with np.errstate(over="ignore", invalid="ignore"):
            for b in range(steps_per_epoch):
                batch = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                y, cache = encoder_forward(model, raw[batch])
                losses, grad_y = loss_and_grad(gallery[batch], y)
                loss_sum += float(losses.sum())
                grads = encoder_backward(model, cache, grad_y / batch.shape[0])
                lr_t = cfg.learning_rate * (1.0 - global_step / total_steps)
                global_step += 1
                adam_step(params, grads, moments, global_step, lr_t, cfg.weight_decay)
        if not np.isfinite(loss_sum):
            raise NonFiniteInputError(f"training diverged: epoch {epoch + 1} has mean loss {loss_sum / n}")
        epoch_means.append(loss_sum / n)
    return model, epoch_means
