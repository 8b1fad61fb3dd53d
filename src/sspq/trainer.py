"""Query-model training against frozen, cached gallery embeddings.

Each mini-batch is pushed through the encoder in one forward pass, scored
row by row against the gallery embeddings of the same samples with the
configured loss in one call, and backpropagated in one backward pass. The
parameter gradients, averaged over the mini-batch, feed an Adam update under
a linear learning-rate decay to zero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict
from functools import partial

import numpy as np

from .embeddings import EmbeddingMatrix
from .encoder import QueryEncoder, encoder_backward, encoder_forward
from .errors import BadConfigError, EmptyInputError, ShapeMismatchError, StepOutOfRangeError
from .loss import (
    SIM_COSINE,
    SIMILARITY_KINDS,
    regression_loss_and_grad,
    ssp_loss_and_grad,
)
from .quantizer import ProductCodebook

LOSS_SSP = "ssp"
LOSS_REGRESSION = "regression"
LOSS_KINDS = (LOSS_SSP, LOSS_REGRESSION)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

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
        if self.learning_rate <= 0:
            raise BadConfigError("learning_rate must be > 0")
        if self.epochs < 1:
            raise BadConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise BadConfigError("batch_size must be >= 1")
        if self.tau_q <= 0:
            raise BadConfigError("tau_q must be > 0")
        if self.tau_g < 0:
            raise BadConfigError("tau_g must be >= 0")
        if self.loss_kind not in LOSS_KINDS:
            raise BadConfigError(f"unknown loss kind {self.loss_kind!r}")
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise BadConfigError(f"unknown similarity kind {self.similarity_kind!r}")


@dataclass
class AdamState:
    """First/second-moment accumulators, one pair per parameter tensor."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def init_like(cls, params: list[np.ndarray]) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
        )


def adam_step(
    state: AdamState,
    params: list[np.ndarray],
    grads: list[np.ndarray],
    lr_t: float,
    weight_decay: float = 0.0,
) -> list[np.ndarray]:
    """One Adam update with bias correction; parameters are updated in place.

    Decoupled weight decay shrinks the parameters by lr_t * weight_decay
    before the Adam delta is applied.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ShapeMismatchError("parameter, gradient, and state counts differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise ShapeMismatchError(f"grad shape {g.shape} does not match param {p.shape}")
    state.t += 1
    bc1 = 1.0 - ADAM_BETA1**state.t
    bc2 = 1.0 - ADAM_BETA2**state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if weight_decay:
            p -= lr_t * weight_decay * p
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr_t * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params


def linear_lr(step: int, total_steps: int, lr0: float) -> float:
    """Linearly decayed learning rate: lr0 * (1 - step/total_steps)."""
    if total_steps < 1:
        raise StepOutOfRangeError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise StepOutOfRangeError(f"step {step} outside [0, {total_steps}]")
    return lr0 * (1.0 - step / total_steps)


@dataclass
class TrainReport:
    """Per-epoch mean losses plus run metadata."""

    epoch_mean_loss: list[float]
    final_loss: float
    wall_seconds: float
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The deterministic fields; ``wall_seconds`` is left out."""
        return {
            "epoch_mean_loss": self.epoch_mean_loss,
            "final_loss": self.final_loss,
            "config": self.config,
        }


def train_query_model(
    enc: QueryEncoder,
    gallery_embeddings: EmbeddingMatrix,
    raw_inputs: np.ndarray,
    codebook: ProductCodebook,
    cfg: TrainConfig,
) -> tuple[QueryEncoder, TrainReport]:
    """Optimize a copy of the encoder against frozen gallery embeddings.

    Each epoch shuffles the sample order with a generator seeded from
    cfg.seed, walks mini-batches, and averages the parameter gradients over
    each mini-batch before its Adam step; the learning rate
    decays linearly to zero over all steps. The input encoder and the
    gallery embeddings are never mutated.

    Returns:
        (trained encoder, report with one mean loss per epoch).
    """
    raw = np.asarray(raw_inputs, dtype=np.float64)
    if raw.ndim != 2:
        raise ShapeMismatchError(f"raw inputs must be 2-D, got {raw.shape}")
    n = raw.shape[0]
    if n == 0:
        raise EmptyInputError("training set is empty")
    if gallery_embeddings.rows != n:
        raise ShapeMismatchError(
            f"{gallery_embeddings.rows} gallery embeddings for {n} raw inputs"
        )
    if gallery_embeddings.dim != enc.output_dim or codebook.dim != enc.output_dim:
        raise ShapeMismatchError(
            f"dims disagree: gallery {gallery_embeddings.dim}, "
            f"codebook {codebook.dim}, encoder output {enc.output_dim}"
        )
    if raw.shape[1] != enc.input_dim:
        raise ShapeMismatchError(f"raw input dim {raw.shape[1]} != encoder input {enc.input_dim}")

    start = time.perf_counter()
    model = enc.copy()
    params = model.parameters()
    adam = AdamState.init_like(params)
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch
    gallery = gallery_embeddings.data

    if cfg.loss_kind == LOSS_SSP:
        loss_and_grad = partial(
            ssp_loss_and_grad, codebook, tau_g=cfg.tau_g, tau_q=cfg.tau_q, kind=cfg.similarity_kind
        )
    else:
        loss_and_grad = regression_loss_and_grad

    epoch_means: list[float] = []
    global_step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for b in range(steps_per_epoch):
            batch = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
            y, cache = encoder_forward(model, raw[batch])
            losses, grad_y = loss_and_grad(gallery[batch], y)
            loss_sum += float(losses.sum())
            grads = encoder_backward(model, cache, grad_y / batch.shape[0])
            lr_t = linear_lr(global_step, total_steps, cfg.learning_rate)
            adam_step(adam, params, grads, lr_t, cfg.weight_decay)
            global_step += 1
        epoch_means.append(loss_sum / n)

    report = TrainReport(
        epoch_mean_loss=epoch_means,
        final_loss=epoch_means[-1],
        wall_seconds=time.perf_counter() - start,
        config=asdict(cfg),
    )
    return model, report
