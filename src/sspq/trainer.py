"""Query-model training against frozen, cached gallery embeddings.

The gallery side is frozen, so it is prepared once per run before the first
epoch: the SSP loss's softened targets of every training row, in the one
form the run picks from its kernel, tau_q and K (``gallery_targets``: the
expected unit centroids, n·M·d* float64, for a cosine run at a tau_q at or
above ``cosine_tau_q_limit(K)``, and the targets themselves, n·M·K, for
every other run), or the unit rows for the regression loss. Each mini-batch
is then pushed through the encoder in one forward pass, scored row by row
against its samples' rows of that gallery side with the configured loss in
one call, and backpropagated in one backward pass. The parameter gradients,
averaged over the mini-batch and copied into one flat array, feed one Adam
update of the flat parameter buffer under a linear learning-rate decay to
zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .embeddings import normalize_rows
from .encoder import QueryEncoder, encoder_backward, encoder_forward
from .errors import (
    BadConfigError,
    EmptyInputError,
    NonFiniteInputError,
    ShapeMismatchError,
    check_finite,
    check_int,
    check_real,
)
from .loss import (
    SIM_COSINE,
    SIMILARITY_KINDS,
    gallery_targets,
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
        for name, low in (("epochs", 1), ("batch_size", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low)
        for name, positive in (("tau_g", False), ("tau_q", True), ("learning_rate", True), ("weight_decay", False)):
            object.__setattr__(self, name, check_real(name, getattr(self, name), positive))
        if self.loss_kind not in LOSS_KINDS:
            raise BadConfigError(f"unknown loss kind {self.loss_kind!r}")
        if self.similarity_kind not in SIMILARITY_KINDS:
            raise BadConfigError(f"unknown similarity kind {self.similarity_kind!r}")


def adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray],
    t: int,
    lr_t: float,
    weight_decay: float,
) -> None:
    """Adam update number ``t`` (from 1) with bias correction, in place.

    ``params``, ``grads`` and the (first, second) ``moments`` are flat
    arrays of one length, so each element-wise operation runs once over
    every parameter. Decoupled weight decay shrinks the parameters by
    lr_t * weight_decay before the Adam delta is applied.
    ``train_query_model`` builds the arguments, which are not checked.
    """
    first, second = moments
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    if weight_decay:
        params -= lr_t * weight_decay * params
    first *= ADAM_BETA1
    first += (1.0 - ADAM_BETA1) * grads
    second *= ADAM_BETA2
    second += (1.0 - ADAM_BETA2) * (grads * grads)
    params -= lr_t * (first / bc1) / (np.sqrt(second / bc2) + ADAM_EPS)


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
    decays linearly to zero over all steps. The trained copy's parameters
    are views of one flat float64 buffer, and each step's gradients are
    copied into one flat array, so one ``adam_step`` call a step updates
    them all. The input encoder and the gallery embeddings are never mutated.

    Returns:
        (trained encoder, mean loss of each epoch).

    Raises:
        NonFiniteInputError: if an input holds a NaN or an infinity, or a
            gallery row's SSP targets are not finite, before training, or at
            the first epoch whose mean loss is not finite.
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
    check_finite(raw, "a raw training input holds a NaN or an infinity")
    check_finite(gallery, "a gallery embedding holds a NaN or an infinity")

    params = np.concatenate([p.ravel() for p in enc.params])
    views = np.split(params, np.cumsum([p.size for p in enc.params])[:-1])
    model = QueryEncoder(enc.layer_sizes, [v.reshape(p.shape) for v, p in zip(views, enc.params)])
    grads = np.empty_like(params)
    moments = (np.zeros_like(params), np.zeros_like(params))
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = (n + cfg.batch_size - 1) // cfg.batch_size
    total_steps = cfg.epochs * steps_per_epoch

    if cfg.loss_kind == LOSS_SSP:
        targets = gallery_targets(codebook, gallery, cfg.tau_g, cfg.tau_q, cfg.similarity_kind, cfg.batch_size)
        loss_and_grad = partial(ssp_loss_and_grad, codebook, targets)
    else:
        loss_and_grad = partial(regression_loss_and_grad, normalize_rows(gallery)[0])

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
                losses, grad_y = loss_and_grad(batch, y)
                loss_sum += float(losses.sum())
                layer_grads = encoder_backward(model, cache, grad_y / batch.shape[0])
                np.concatenate([g.ravel() for g in layer_grads], out=grads)
                lr_t = cfg.learning_rate * (1.0 - global_step / total_steps)
                global_step += 1
                adam_step(params, grads, moments, global_step, lr_t, cfg.weight_decay)
        if not np.isfinite(loss_sum):
            raise NonFiniteInputError(f"training diverged: epoch {epoch + 1} has mean loss {loss_sum / n}")
        epoch_means.append(loss_sum / n)
    return model, epoch_means
