"""Dual-head evidential MLP with hand-written forward and backward passes.

The network is a small ReLU MLP backbone feeding two independently
initialized linear classifier heads.  Each head's logits are mapped to
Dirichlet evidence with ``evidence_from_logits``.  Three objectives drive
training:

* ``edl_loss``    on labeled data: negative log marginal likelihood of the
  label under the Dirichlet prior, plus a KL regularizer that pushes the
  off-label evidence toward the flat Dirichlet.
* ``close_loss``  on unlabeled data: per-example-weighted JSD between the
  two heads' expected probabilities, minimized through the backbone only,
  weighted toward examples with low expected entropy.
* ``dis_loss``    on unlabeled data: weighted (1 - JSD), minimized through
  the heads only, weighted toward examples with high mutual information.
  Minimizing it amplifies head disagreement where evidence is scarce.

The per-example weights in the last two losses are treated as constants
(no gradient flows through them); they are computed from the element-wise
average of the two heads' evidence.

Everything is plain numpy and deterministic given a seed.  Gradients are
exact and verified against central finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy import special

from .evidential import (
    LOGIT_CLIP,
    data_uncertainty,
    distribution_uncertainty,
    jsd,
    kl_dirichlet_to_uniform,
)

__all__ = [
    "TrainConfig",
    "ModelParams",
    "init_model",
    "forward",
    "edl_loss",
    "cross_entropy_loss",
    "close_loss",
    "dis_loss",
    "sgd_step",
    "learning_rate_at",
    "train_cycle",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_VERSION = 1

LN2 = np.log(2.0)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for one training-plus-selection experiment.

    Defaults follow the reference recipe: SGD with momentum 0.9, weight
    decay 1e-4, lr 0.01 decayed by 10x at epochs 60 and 80 over 100
    epochs; sigmoid weighting thresholds tau1 = 7.0 and tau2 = -5.0;
    coarse-filter threshold 0.5 with score mix coefficients 1.0 and 0.5.
    """

    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4
    batch_size: int = 128
    epochs: int = 100
    lr_milestones: tuple[int, ...] = (60, 80)
    tau1: float = 7.0
    tau2: float = -5.0
    coarse_threshold: float = 0.5
    alpha_coef: float = 1.0
    beta_coef: float = 0.5
    query_size: int = 60
    num_cycles: int = 5
    seed: int = 0
    discrepancy_epochs: int = 10
    hidden_widths: tuple[int, ...] = (64, 64)
    head_init_scale: float = 1e-5
    train_loss: str = "edl"  # "edl" or "cross_entropy"
    use_discrepancy: bool = True

    def validate(self) -> None:
        if self.lr <= 0 or self.momentum < 0 or self.weight_decay < 0:
            raise ValueError("rates must be positive (lr) / nonnegative")
        if not 0 < self.coarse_threshold < 1 and self.coarse_threshold != 0:
            raise ValueError("coarse_threshold must lie in [0, 1)")
        if any(m >= self.epochs for m in self.lr_milestones):
            raise ValueError("lr_milestones must precede the final epoch")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if self.train_loss not in ("edl", "cross_entropy"):
            raise ValueError(f"unknown train_loss {self.train_loss!r}")
        if self.query_size <= 0:
            raise ValueError("query_size must be positive")
        if self.num_cycles < 0 or self.discrepancy_epochs < 0:
            raise ValueError("cycle/epoch counts must be nonnegative")


@dataclass
class ModelParams:
    """Backbone dense layers plus two classifier heads and momentum state.

    ``backbone`` is a list of [weight, bias] pairs applied with ReLU in
    between; ``heads`` holds exactly two [weight, bias] pairs with equal
    shapes mapping the last hidden width to the class count.  ``velocity``
    mirrors ``flat_params()`` and starts at zero.

    Construction copies the given arrays into two contiguous float64
    buffers with one layout: ``param_buffer`` holds every parameter in
    ``flat_params()`` order and ``velocity_buffer`` the matching momentum
    state, and ``offsets[i]:offsets[i + 1]`` is array i's slice of either.
    The ``backbone``, ``heads`` and ``velocity`` lists then hold views on
    the buffers, so a parameter subset is one slice that ``sgd_step``
    updates in a single pass.  Write through the views in place
    (``w[:] = ...``); rebinding a list entry detaches it from the buffer.
    """

    backbone: list[list[np.ndarray]]
    heads: list[list[np.ndarray]]
    velocity: list[np.ndarray] = field(default_factory=list)
    param_buffer: np.ndarray = field(init=False, repr=False, compare=False)
    velocity_buffer: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float) for a in self.flat_params()]
        if self.velocity and [np.shape(v) for v in self.velocity] != [
            a.shape for a in arrays
        ]:
            raise ValueError("velocity must mirror flat_params() array by array")
        self.offsets = tuple(np.cumsum([0] + [a.size for a in arrays]).tolist())
        self.param_buffer = np.zeros(self.offsets[-1])
        self.velocity_buffer = np.zeros(self.offsets[-1])
        params = self._views(self.param_buffer, arrays)
        velocity = self._views(self.velocity_buffer, arrays)
        for view, a in zip(params, arrays):
            view[...] = a
        for view, v in zip(velocity, self.velocity):
            view[...] = v
        pairs = [params[i : i + 2] for i in range(0, len(params), 2)]
        self.backbone, self.heads = pairs[: len(self.backbone)], pairs[len(self.backbone) :]
        self.velocity = velocity

    def __reduce__(self):
        # Copies and pickles rebuild the buffers: copied views would no
        # longer share storage with the buffers ``sgd_step`` updates.
        return type(self), (self.backbone, self.heads, self.velocity)

    def _views(self, buffer: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
        return [
            buffer[lo:hi].reshape(a.shape)
            for lo, hi, a in zip(self.offsets, self.offsets[1:], like)
        ]

    def flat_params(self) -> list[np.ndarray]:
        out = []
        for w, b in self.backbone:
            out.extend((w, b))
        for w, b in self.heads:
            out.extend((w, b))
        return out

    @property
    def num_backbone_arrays(self) -> int:
        return 2 * len(self.backbone)

    @property
    def num_classes(self) -> int:
        return self.heads[0][0].shape[1]

    @property
    def input_dim(self) -> int:
        if self.backbone:
            return self.backbone[0][0].shape[0]
        return self.heads[0][0].shape[0]

    def trainable_indices(self, subset: str) -> range:
        """Flat-parameter index range for 'all', 'backbone' or 'heads'."""
        nb = self.num_backbone_arrays
        total = nb + 4
        if subset == "all":
            return range(total)
        if subset == "backbone":
            return range(nb)
        if subset == "heads":
            return range(nb, total)
        raise ValueError(f"unknown parameter subset {subset!r}")


def init_model(
    input_dim: int,
    num_classes: int,
    hidden_widths: Sequence[int] = (64, 64),
    seed: int | np.random.SeedSequence = 0,
    head_init_scale: float = 1e-5,
) -> ModelParams:
    """Build a fresh model; each head gets its own init stream so the two
    heads start from distinct weights drawn from the same distribution.

    ``head_init_scale`` multiplies the head weight standard deviation.
    It defaults to a small value so the two heads start nearly (but not
    exactly) aligned: after training, their residual disagreement on
    confidently predicted examples then stays small relative to the
    uncertainty scores it is combined with during selection.
    """
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    backbone_seq, head1_seq, head2_seq = seed.spawn(3)
    rng = np.random.default_rng(backbone_seq)
    dims = [input_dim, *hidden_widths]
    backbone = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        backbone.append(
            [rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_out)), np.zeros(d_out)]
        )
    feat_dim = dims[-1]
    heads = []
    for seq in (head1_seq, head2_seq):
        hrng = np.random.default_rng(seq)
        heads.append(
            [
                hrng.normal(
                    0.0,
                    head_init_scale / np.sqrt(feat_dim),
                    size=(feat_dim, num_classes),
                ),
                np.zeros(num_classes),
            ]
        )
    return ModelParams(backbone=backbone, heads=heads)


def _as_batch(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def _model_batch(model: ModelParams, x) -> np.ndarray:
    """x as a float64 batch, checked against the model's input dim."""
    x = _as_batch(x)
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {x.shape[1]} does not match model dim {model.input_dim}"
        )
    return x


def _forward_cached(model: ModelParams, x: np.ndarray):
    """Forward pass keeping every intermediate needed by backprop."""
    x = _model_batch(model, x)
    acts = [x]
    preacts = []
    h = x
    for w, b in model.backbone:
        a = h @ w + b
        preacts.append(a)
        h = np.maximum(a, 0.0)
        acts.append(h)
    logits = [h @ w + b for w, b in model.heads]
    clipped = [np.clip(z, -LOGIT_CLIP, LOGIT_CLIP) for z in logits]
    alphas = [np.exp(z) for z in clipped]
    clip_masks = [(np.abs(z) < LOGIT_CLIP).astype(float) for z in logits]
    return acts, preacts, logits, alphas, clip_masks


def forward(model: ModelParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Evidence vectors (alpha1, alpha2) for a batch of inputs.

    Inference only: each layer's output is updated in place and nothing is
    kept for backprop, so a pool-sized batch allocates one array per
    matmul.  The arithmetic is ``_forward_cached``'s, so the evidence is
    bitwise the same.  The batch is not split into row blocks, since
    BLAS may pick a different kernel for a smaller matmul.
    """
    h = _model_batch(model, x)
    for w, b in model.backbone:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    alphas = []
    for w, b in model.heads:
        z = h @ w
        z += b
        np.clip(z, -LOGIT_CLIP, LOGIT_CLIP, out=z)
        alphas.append(np.exp(z, out=z))
    return alphas[0], alphas[1]


def _backward(model: ModelParams, acts, preacts, dzs, heads=True, backbone=True):
    """Flat gradient list given the two heads' logit gradients ``dzs``.

    ``heads`` computes the head weight/bias gradients; ``backbone``
    backprops d_hidden = sum_h dz_h W_h^T through the ReLU layers.  Only
    the entries outside the requested subset are allocated as zeros.
    """
    params = model.flat_params()
    nb = model.num_backbone_arrays
    grads = [None] * len(params)
    if heads:
        for h_idx, dz in enumerate(dzs):
            grads[nb + 2 * h_idx] = acts[-1].T @ dz
            grads[nb + 2 * h_idx + 1] = dz.sum(axis=0)
    if backbone:
        (w1, _), (w2, _) = model.heads
        dh = dzs[0] @ w1.T
        dh += dzs[1] @ w2.T
        for i in reversed(range(len(model.backbone))):
            da = dh * (preacts[i] > 0)
            grads[2 * i] = acts[i].T @ da
            grads[2 * i + 1] = da.sum(axis=0)
            if i:  # nothing reads the gradient for the network input
                dh = da @ model.backbone[i][0].T
    return [np.zeros_like(p) if g is None else g for g, p in zip(grads, params)]


def _one_hot(y: np.ndarray, num_classes: int, rows: int) -> np.ndarray:
    """One-hot encoding of ``rows`` known-class labels; raises on anything
    else."""
    y = np.asarray(y)
    if y.ndim != 1 or y.shape[0] != rows:
        raise ValueError(f"labels must be a 1-D integer array of length {rows}")
    if np.any((y < 0) | (y >= num_classes)):
        raise ValueError(
            f"labels must be known-class indices in [0, {num_classes}); got {y!r}"
        )
    return np.eye(num_classes)[y]


def _edl_grads(model: ModelParams, x: np.ndarray, yy: np.ndarray):
    """One forward pass and the flat gradient of ``edl_loss`` on one-hot
    labels ``yy``; returns (the heads' evidence, gradients)."""
    acts, preacts, _, alphas, clip_masks = _forward_cached(model, x)
    n, c = acts[0].shape[0], model.num_classes
    off_label = 1.0 - yy
    dzs = []
    for alpha, mask in zip(alphas, clip_masks):
        s = alpha.sum(axis=1, keepdims=True)
        a_t = yy + off_label * alpha
        s_t = a_t.sum(axis=1, keepdims=True)
        # d/d alpha~ of the KL term, then chain through the label mask.
        # zeta(2, .) is the trigamma function polygamma(1, .), bit for bit.
        dkl_dat = (a_t - 1.0) * special.zeta(2, a_t) - special.zeta(2, s_t) * (s_t - c)
        dl_dalpha = (1.0 / s) - yy / alpha + dkl_dat * off_label
        dzs.append(dl_dalpha * alpha * mask / (2.0 * n))
    return alphas, _backward(model, acts, preacts, dzs)


def edl_loss(
    model: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Evidential loss on a labeled batch, averaged over batch and heads.

    Per example and head: sum_c Y_c (ln S - ln alpha_c) plus the KL of the
    label-masked evidence alpha~ = Y + (1 - Y) * alpha to the flat
    Dirichlet.  Returns (loss, flat gradient list over all parameters).
    """
    x = _as_batch(x)
    yy = _one_hot(y, model.num_classes, x.shape[0])
    alphas, grads = _edl_grads(model, x, yy)
    total = 0.0
    for alpha in alphas:
        s = alpha.sum(axis=1, keepdims=True)
        nll = (yy * (np.log(s) - np.log(alpha))).sum(axis=1)
        a_t = yy + (1.0 - yy) * alpha
        total += float(np.mean(nll + kl_dirichlet_to_uniform(a_t)))
    return total / 2.0, grads


def _cross_entropy_grads(model: ModelParams, x: np.ndarray, yy: np.ndarray):
    """One forward pass and the flat gradient of ``cross_entropy_loss``;
    returns (each head's log-softmax, gradients)."""
    acts, preacts, logits, _, _ = _forward_cached(model, x)
    n = acts[0].shape[0]
    logps, dzs = [], []
    for z in logits:
        zmax = z.max(axis=1, keepdims=True)
        logp = z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
        logps.append(logp)
        dzs.append((np.exp(logp) - yy) / (2.0 * n))
    return logps, _backward(model, acts, preacts, dzs)


def cross_entropy_loss(
    model: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Plain softmax cross-entropy on both heads; the training-time
    substitute used by the ablation that drops the evidential objective."""
    x = _as_batch(x)
    yy = _one_hot(y, model.num_classes, x.shape[0])
    logps, grads = _cross_entropy_grads(model, x, yy)
    total = 0.0
    for logp in logps:
        total += float(-np.mean((yy * logp).sum(axis=1)))
    return total / 2.0, grads


def close_weights(alphas, tau1: float) -> np.ndarray:
    """Constant per-example weights (1/N)(1 - sigmoid(u_data - tau1))
    computed from the averaged evidence of the two heads ``alphas``."""
    a1, a2 = alphas
    u = data_uncertainty(0.5 * (a1 + a2))
    n = a1.shape[0]
    return (1.0 - special.expit(np.atleast_1d(u) - tau1)) / n


def dis_weights(alphas, tau2: float) -> np.ndarray:
    """Constant per-example weights (1/N) sigmoid(u_dist - tau2)."""
    a1, a2 = alphas
    u = distribution_uncertainty(0.5 * (a1 + a2))
    n = a1.shape[0]
    return special.expit(np.atleast_1d(u) - tau2) / n


def _weighted_jsd(model: ModelParams, x: np.ndarray, weights, weight_fn, tau, name):
    """One forward pass over an unlabeled batch.  Returns the backprop
    cache, the per-example weights (``weights`` if given, else
    ``weight_fn(alphas, tau)``), the heads' normalized evidence (p, q)
    and each head's weighted logit gradient of JSD(p, q)."""
    x = _as_batch(x)
    if x.shape[0] == 0:
        raise ValueError(f"{name} requires a non-empty batch")
    acts, preacts, _, alphas, clip_masks = _forward_cached(model, x)
    w = weight_fn(alphas, tau) if weights is None else np.asarray(weights)
    p, q = (a / a.sum(axis=1, keepdims=True) for a in alphas)
    m = 0.5 * (p + q)
    dzs = []
    for r, mask in zip((p, q), clip_masks):
        g = np.log(r / m) / (2.0 * LN2)
        dzs.append(w[:, None] * (r * (g - (r * g).sum(axis=1, keepdims=True)) * mask))
    return acts, preacts, w, (p, q), dzs


def _close_grads(model: ModelParams, x: np.ndarray, tau1: float, weights=None):
    """Flat gradient of ``close_loss``; returns ((weights, (p, q)), gradients)."""
    acts, preacts, w, pq, dzs = _weighted_jsd(
        model, x, weights, close_weights, tau1, "close_loss"
    )
    return (w, pq), _backward(model, acts, preacts, dzs, heads=False)


def _dis_grads(model: ModelParams, x: np.ndarray, tau2: float, weights=None):
    """Flat gradient of ``dis_loss``; returns ((weights, (p, q)), gradients)."""
    acts, preacts, w, pq, dzs = _weighted_jsd(
        model, x, weights, dis_weights, tau2, "dis_loss"
    )
    return (w, pq), _backward(model, acts, preacts, [-dz for dz in dzs], backbone=False)


def close_loss(
    model: ModelParams,
    x: np.ndarray,
    tau1: float = 7.0,
    weights: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Weighted JSD between the heads, differentiated through the backbone
    only; head gradient entries are exactly zero.

    ``weights`` overrides the internally computed constants (useful for
    numerical gradient checking, where they must stay frozen).
    """
    (w, (p, q)), grads = _close_grads(model, x, tau1, weights)
    return float((w * np.atleast_1d(jsd(p, q))).sum()), grads


def dis_loss(
    model: ModelParams,
    x: np.ndarray,
    tau2: float = -5.0,
    weights: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Weighted (1 - JSD) between the heads, differentiated through the
    two heads only; backbone gradient entries are exactly zero."""
    (w, (p, q)), grads = _dis_grads(model, x, tau2, weights)
    return float((w * (1.0 - np.atleast_1d(jsd(p, q)))).sum()), grads


def learning_rate_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: base lr divided by 10 at every milestone reached."""
    drops = sum(1 for m in cfg.lr_milestones if m <= epoch)
    return cfg.lr * 10.0 ** (-drops)


def sgd_step(
    model: ModelParams,
    grads: list[np.ndarray],
    epoch: int,
    cfg: TrainConfig,
    trainable: str = "all",
) -> ModelParams:
    """One SGD-with-momentum update restricted to a parameter subset.

    v <- momentum * v + grad + weight_decay * param
    param <- param - lr(epoch) * v

    The subset is one contiguous slice of the model's parameter and
    velocity buffers, updated in one pass; parameters and velocities
    outside it are untouched (bitwise).  Raises on non-finite gradients
    in the subset, naming the first offending array.
    """
    params = model.flat_params()
    if [np.shape(g) for g in grads] != [p.shape for p in params]:
        raise ValueError("gradient list does not match parameter list")
    lr = learning_rate_at(epoch, cfg)
    idx = model.trainable_indices(trainable)
    g = np.concatenate(grads[idx.start : idx.stop], axis=None)
    if not np.isfinite(g).all():
        i = next(i for i in idx if not np.isfinite(grads[i]).all())
        raise FloatingPointError(
            f"non-finite gradient in parameter {i} (shape {params[i].shape}) at epoch {epoch}"
        )
    lo, hi = model.offsets[idx.start], model.offsets[idx.stop]
    p, v = model.param_buffer[lo:hi], model.velocity_buffer[lo:hi]
    v *= cfg.momentum
    step = cfg.weight_decay * p
    step += g
    v += step
    np.multiply(v, lr, out=step)
    p -= step
    return model


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_cycle(
    model: ModelParams,
    x_labeled: np.ndarray,
    y_labeled: np.ndarray,
    x_unlabeled: np.ndarray,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> ModelParams:
    """Full training for one query round.

    First ``cfg.epochs`` epochs of the labeled-data loss (evidential by
    default, cross-entropy if configured), then ``cfg.discrepancy_epochs``
    epochs over the unlabeled pool alternating a backbone-only agreement
    epoch with a heads-only disagreement epoch.  The epoch counter keeps
    running through the second phase so the lr schedule carries over.

    Each step computes only the gradient its update reads: the loss
    values are never evaluated.  Labels are validated and one-hot encoded
    once, before any parameter changes.
    """
    x_labeled = _as_batch(x_labeled)
    if x_labeled.shape[0] == 0:
        raise ValueError("train_cycle requires a non-empty labeled pool")
    yy = _one_hot(y_labeled, model.num_classes, x_labeled.shape[0])
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    grad_fn = _edl_grads if cfg.train_loss == "edl" else _cross_entropy_grads
    batch = min(cfg.batch_size, x_labeled.shape[0])
    for epoch in range(cfg.epochs):
        for idx in _epoch_batches(x_labeled.shape[0], batch, rng):
            _, grads = grad_fn(model, x_labeled[idx], yy[idx])
            sgd_step(model, grads, epoch, cfg, trainable="all")

    x_unlabeled = _as_batch(x_unlabeled)
    discrepancy_epochs = cfg.discrepancy_epochs if cfg.use_discrepancy else 0
    if x_unlabeled.shape[0] == 0:
        discrepancy_epochs = 0
    ubatch = min(cfg.batch_size, max(x_unlabeled.shape[0], 1))
    for k in range(discrepancy_epochs):
        if k % 2 == 0:
            grad_fn, tau, trainable = _close_grads, cfg.tau1, "backbone"
        else:
            grad_fn, tau, trainable = _dis_grads, cfg.tau2, "heads"
        for idx in _epoch_batches(x_unlabeled.shape[0], ubatch, rng):
            _, grads = grad_fn(model, x_unlabeled[idx], tau)
            sgd_step(model, grads, cfg.epochs + k, cfg, trainable=trainable)
    return model


def save_checkpoint(
    path,
    model: ModelParams,
    epoch: int = 0,
    rng: np.random.Generator | None = None,
) -> None:
    """Serialize parameters, momentum buffers, epoch counter and RNG state
    to a single .npz file; float arrays round-trip bitwise."""
    arrays = {}
    for i, (w, b) in enumerate(model.backbone):
        arrays[f"backbone_{i}_w"] = w
        arrays[f"backbone_{i}_b"] = b
    for i, (w, b) in enumerate(model.heads):
        arrays[f"head_{i}_w"] = w
        arrays[f"head_{i}_b"] = b
    for i, v in enumerate(model.velocity):
        arrays[f"velocity_{i}"] = v
    meta = {
        "version": CHECKPOINT_VERSION,
        "num_backbone_layers": len(model.backbone),
        "epoch": int(epoch),
        "rng_state": rng.bit_generator.state if rng is not None else None,
    }
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[ModelParams, int, np.random.Generator | None]:
    """Inverse of save_checkpoint; returns (model, epoch, rng or None)."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]))
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        n_layers = meta["num_backbone_layers"]
        backbone = [
            [data[f"backbone_{i}_w"], data[f"backbone_{i}_b"]] for i in range(n_layers)
        ]
        heads = [[data[f"head_{i}_w"], data[f"head_{i}_b"]] for i in range(2)]
        velocity = [data[f"velocity_{i}"] for i in range(2 * n_layers + 4)]
    model = ModelParams(backbone=backbone, heads=heads, velocity=velocity)
    rng = None
    if meta["rng_state"] is not None:
        rng = np.random.default_rng()
        state = meta["rng_state"]
        # JSON round-trip keeps ints exact; restore nested state verbatim.
        rng.bit_generator.state = state
    return model, meta["epoch"], rng
