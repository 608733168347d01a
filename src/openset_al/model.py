"""Dual-head evidential MLP with hand-written forward and backward passes.

The network is a small ReLU MLP backbone feeding two independently
initialized linear classifier heads.  Each head's logits are mapped to
Dirichlet evidence by the kernel behind ``evidence_from_logits``.  Three
objectives drive training:

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

A training step is bound by numpy call overhead, not arithmetic, so
``train_cycle`` keeps its calls few without changing a bit of the result:
the gradient helpers run both heads' elementwise algebra on stacked
(2, n, C) arrays, ``_backward`` writes each gradient array into a view on
the model's ``grad_buffer``, and ``sgd_step`` reads the trained slice of
that buffer in place, through views built once per model
(``ModelParams.subsets``).  Within a step, sums are ``np.add.reduce``
(``np.sum`` without its Python wrapper), the transposed weight-gradient
products are ``np.dot`` (``np.matmul``'s bytes at less call cost), the
discrepancy weights call the uncertainty kernel on evidence the step's
own forward made, and trigamma's shifted arguments come from one outer
sum.  ``tests/test_model.py::TestTrainStepReference`` and the
``training_step_bitwise`` row of ``openset-al check`` hold the parameter
and momentum bytes to a step written out array by array, and
``TestStepOverhead`` holds the calls a short cycle makes to a budget.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np
from scipy import special

from .evidential import (
    LOGIT_CLIP,
    _dirichlet_mean,
    _evidence,
    _uncertainties,
    jsd,
    kl_dirichlet_to_uniform,
)

# perfbench/spans.py wraps these names here; the discrepancy weights call
# their kernel on the training forward's evidence, finite and positive
from .evidential import data_uncertainty, distribution_uncertainty  # noqa: F401

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
        # float fields must be finite; each range check below fails on NaN
        for f in fields(self):
            if isinstance(f.default, float) and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (self.lr > 0 and self.momentum >= 0 and self.weight_decay >= 0):
            raise ValueError("rates must be positive (lr) / nonnegative")
        if not 0 < self.coarse_threshold < 1 and self.coarse_threshold != 0:
            raise ValueError("coarse_threshold must lie in [0, 1)")
        if self.batch_size <= 0 or self.epochs <= 0:
            raise ValueError("batch_size and epochs must be positive")
        if any(not 0 <= m < self.epochs for m in self.lr_milestones):
            raise ValueError("lr_milestones must be epochs in [0, epochs)")
        if self.train_loss not in ("edl", "cross_entropy"):
            raise ValueError(f"unknown train_loss {self.train_loss!r}")
        if self.query_size <= 0:
            raise ValueError("query_size must be positive")
        if self.num_cycles < 0 or self.discrepancy_epochs < 0:
            raise ValueError("cycle/epoch counts must be nonnegative")
        if any(w <= 0 for w in self.hidden_widths):
            raise ValueError("hidden_widths must be positive")
        if not self.head_init_scale >= 0:
            raise ValueError("head_init_scale must be nonnegative")

    @property
    def runs_discrepancy(self) -> bool:
        """Whether ``train_cycle`` runs the discrepancy phase, the only
        part of training that reads the unlabeled pool."""
        return self.use_discrepancy and self.discrepancy_epochs > 0


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

    ``grad_buffer`` is a third buffer of that layout, scratch space for
    ``train_cycle``: each step's backward pass writes into ``grad_views``
    and ``sgd_step`` reads the trained slice straight from the buffer.
    Entries outside the subset a step trains hold whatever an earlier
    step left there.  ``subsets`` maps each name ``trainable_indices``
    takes to its index range and the (parameter, velocity, gradient)
    views on its slice of the three buffers.
    """

    backbone: list[list[np.ndarray]]
    heads: list[list[np.ndarray]]
    velocity: list[np.ndarray] = field(default_factory=list)
    param_buffer: np.ndarray = field(init=False, repr=False, compare=False)
    velocity_buffer: np.ndarray = field(init=False, repr=False, compare=False)
    grad_buffer: np.ndarray = field(init=False, repr=False, compare=False)
    grad_views: list[np.ndarray] = field(init=False, repr=False, compare=False)
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)
    subsets: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float) for a in self.flat_params()]
        if self.velocity and [np.shape(v) for v in self.velocity] != [
            a.shape for a in arrays
        ]:
            raise ValueError("velocity must mirror flat_params() array by array")
        self.offsets = tuple(np.cumsum([0] + [a.size for a in arrays]).tolist())
        self.param_buffer = np.zeros(self.offsets[-1])
        self.velocity_buffer = np.zeros(self.offsets[-1])
        self.grad_buffer = np.zeros(self.offsets[-1])
        self.grad_views = self._views(self.grad_buffer, arrays)
        params = self._views(self.param_buffer, arrays)
        velocity = self._views(self.velocity_buffer, arrays)
        for view, a in zip(params, arrays):
            view[...] = a
        for view, v in zip(velocity, self.velocity):
            view[...] = v
        pairs = [params[i : i + 2] for i in range(0, len(params), 2)]
        self.backbone, self.heads = pairs[: len(self.backbone)], pairs[len(self.backbone) :]
        self.velocity = velocity
        self.subsets = {}
        for name in ("all", "backbone", "heads"):
            idx = self.trainable_indices(name)
            s = slice(self.offsets[idx.start], self.offsets[idx.stop])
            self.subsets[name] = (
                idx, self.param_buffer[s], self.velocity_buffer[s], self.grad_buffer[s]
            )

    def __reduce__(self):
        # Copies and pickles rebuild the buffers: copied views would no
        # longer share storage with the buffers ``sgd_step`` updates.
        return type(self), (self.backbone, self.heads, self.velocity)

    def _views(self, buffer: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
        return [
            buffer[lo:hi].reshape(a.shape)
            for lo, hi, a in zip(self.offsets, self.offsets[1:], like)
        ]

    def zero_grads(self) -> list[np.ndarray]:
        """Views shaped like ``flat_params()`` on a fresh zeroed buffer."""
        return self._views(np.zeros(self.offsets[-1]), self.flat_params())

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


def _model_batch(model: ModelParams, x) -> np.ndarray:
    """x as a float64 batch, checked against the model's input dim."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"input dim {x.shape[1]} does not match model dim {model.input_dim}"
        )
    return x


def _forward_cached(model: ModelParams, x: np.ndarray, evidence: bool = True):
    """Forward pass keeping every intermediate needed by backprop, on a
    batch already checked by ``_model_batch``.

    The heads' logits, evidence and boolean clip masks (true where the
    logit lies inside the clip interval) come back as (2, n, C) arrays,
    head i in row i, so the elementwise algebra of a step can run on both
    heads at once.  With ``evidence`` False, for a loss that reads only
    the logits, the evidence and masks are not built and come back None.
    """
    acts = [x]
    logits = _layers(model, x, acts=acts)
    if not evidence:
        return acts, logits, None, None
    return acts, logits, _evidence(logits), np.abs(logits) < LOGIT_CLIP


def _scratch_size(model: ModelParams, rows: int) -> int:
    """Elements in each row of the (2, size) activation scratch a
    ``forward`` block of up to ``rows`` rows takes through
    ``_activations``: room for the gathered input, each layer's
    activations and the evidence."""
    widths = [w.shape[1] for w, _ in model.backbone]
    return rows * max(model.input_dim, 2 * model.num_classes, *widths)


def _activations(scratch: np.ndarray, layer: int, shape) -> np.ndarray:
    """Layer ``layer``'s activations in a row block: a view on the
    leading elements of row ``layer % 2`` of the (2, size) ``scratch``.

    Layers alternate between the two rows, each reading the one the layer
    before wrote, so a block of any depth needs two.  Layer -1 is the
    block's input, which ``selection._pool_pass`` gathers there, the only
    caller outside this module: layer 0 reads it, and it is dead once
    layer 0 has run.  Once the last layer L - 1 has run, layer L's row is
    free for the evidence.
    """
    return scratch[layer % 2, : math.prod(shape)].reshape(shape)


def _layers(model: ModelParams, h: np.ndarray, scratch=None, acts=None):
    """The backbone and both heads on a batch h; returns the (2, n, C)
    logits, head i's in row i.  With ``scratch``, layer i's activations go
    into ``_activations(scratch, i)`` and the logits into the row the last
    layer left free, else into new arrays; with ``acts``, each layer's
    activations are appended to it."""
    for i, (w, b) in enumerate(model.backbone):
        out = None if scratch is None else _activations(scratch, i, (h.shape[0], w.shape[1]))
        h = np.matmul(h, w, out=out)
        h += b
        np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
    shape = (2, h.shape[0], model.heads[0][0].shape[1])
    if scratch is None:
        logits = np.empty(shape)
    else:  # the scratch row the last layer left free
        logits = _activations(scratch, len(model.backbone), shape)
    for (w, b), z in zip(model.heads, logits):
        np.matmul(h, w, out=z)
        z += b
    return logits


def forward(
    model: ModelParams, x: np.ndarray, scratch: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Evidence vectors (alpha1, alpha2) for a batch of inputs, in one pass.

    Inference only: ``_layers`` runs once over the whole batch, each
    layer's output is computed in place and the evidence in the logits
    ``_layers`` returns, keeping nothing for backprop; the evidence is
    bitwise ``_forward_cached``'s.

    With ``scratch``, x is one row block of ``selection._pool_pass``, which
    allocates the (2, ``_scratch_size``) array and gathers x into its
    layer -1 row: every layer and the evidence go into its rows
    (``_activations``), nothing is allocated, and the returned views are
    valid until the scratch is next used.
    """
    x = _model_batch(model, x)
    alphas = _layers(model, x, scratch)
    _evidence(alphas, out=alphas)
    return alphas[0], alphas[1]


def _backward(model: ModelParams, acts, dz, grads=None, heads=True, backbone=True):
    """The flat gradient for the heads' (2, n, C) logit gradient ``dz``,
    written into ``grads`` (views shaped like ``flat_params()``) and
    returned.

    ``heads`` computes the head weight/bias gradients; ``backbone``
    backprops d_hidden = sum_h dz_h W_h^T through the ReLU layers.  Each
    head's matmuls and column sums stay separate.  Arrays outside the
    requested subset are not written: with ``grads`` None they are the
    zeros of a fresh buffer, otherwise whatever ``grads`` held.

    The weight gradients a^T dz go through ``np.dot``, which gives
    ``np.matmul``'s bytes for a transposed operand at a fraction of its
    call cost on the one- and two-row batches that end an epoch.
    """
    grads = model.zero_grads() if grads is None else grads
    layers = model.backbone
    if heads:
        nb = 2 * len(layers)
        for i in range(2):
            np.dot(acts[-1].T, dz[i], out=grads[nb + 2 * i])
            np.add.reduce(dz[i], axis=0, out=grads[nb + 2 * i + 1])
    if backbone:
        (w1, _), (w2, _) = model.heads
        dh = dz[0] @ w1.T
        dh += dz[1] @ w2.T
        for i in reversed(range(len(layers))):
            da = np.multiply(dh, acts[i + 1] > 0, out=dh)
            np.dot(acts[i].T, da, out=grads[2 * i])
            np.add.reduce(da, axis=0, out=grads[2 * i + 1])
            if i:  # nothing reads the gradient for the network input
                dh = da @ layers[i][0].T
    return grads


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


# Bernoulli numbers B_2 .. B_16 of trigamma's asymptotic series
#   psi1(z) ~ 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k + 1),
# whose first omitted term is below 1e-16 of psi1(z) for z >= 10.
TRIGAMMA_BERNOULLI = (
    1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510
)
TRIGAMMA_SHIFT = 10
# x + 10, x + 9, ..., x + 1, x + 0: the series' argument, then the
# recurrence's terms in the order they are added
TRIGAMMA_STEPS = np.arange(TRIGAMMA_SHIFT, -1, -1, dtype=float)


def _trigamma(x: np.ndarray) -> np.ndarray:
    """Trigamma of a positive float64 array, written into ``x`` and
    returned.

    psi1(x) = sum_{k < 10} 1/(x + k)^2 + psi1(x + 10), the last term from
    the asymptotic series.  Every shifted argument x + k, k = 10 .. 0, is
    formed at once from x directly along a leading axis; w = 1/(x + 10)
    and the terms 1/(x + k)^2 come from one reciprocal over it.  The
    terms k = 9 .. 1 are summed in that order, smallest first, then the
    series and 1/x^2 are added, so the result stays within a few ulp of
    the true value; ``openset-al check`` holds it to 2e-15 relative of
    ``scipy.special.zeta(2, x)`` over the evidence range.  nan stays nan.
    """
    t = np.add.outer(TRIGAMMA_STEPS, x)
    terms = t[1:]
    np.multiply(terms, terms, out=terms)
    np.reciprocal(t, out=t)
    acc = np.add.reduce(t[1:-1], axis=0)
    w = t[0]
    w2 = w * w
    tail = w2 * TRIGAMMA_BERNOULLI[-1]
    tail += TRIGAMMA_BERNOULLI[-2]
    for b in TRIGAMMA_BERNOULLI[-3::-1]:
        tail *= w2
        tail += b
    tail *= w
    tail += 0.5
    tail *= w2
    tail += w
    acc += tail
    return np.add(acc, t[-1], out=x)


def _edl_grads(model: ModelParams, x: np.ndarray, yy: np.ndarray, grads=None):
    """One forward pass and the flat gradient of ``edl_loss`` on one-hot
    labels ``yy``, written into ``grads`` as ``_backward`` does; returns
    (the heads' (2, n, C) evidence, gradients).

    The elementwise algebra runs on both heads at once, on the (2, n, C)
    arrays ``_forward_cached`` writes.  One trigamma call covers a~ and
    its row sums S~, laid side by side as (2, n, C + 1).
    """
    acts, _, alpha, mask = _forward_cached(model, x)
    n, c = yy.shape
    off_label = 1.0 - yy
    a_t = off_label * alpha
    a_t += yy
    s_t = np.add.reduce(a_t, axis=2, keepdims=True)
    psi = _trigamma(np.concatenate((a_t, s_t), axis=2))
    # d/d alpha~ of the KL term, (a~ - 1) psi1(a~) - psi1(S~) (S~ - C),
    # then chained through the label mask, which zeroes the label entry
    dkl_dat = a_t - 1.0
    s_t_c = s_t - c
    dkl_dat *= psi[..., :c]
    s_t_c *= psi[..., c:]
    dkl_dat -= s_t_c
    dkl_dat *= off_label
    s = np.add.reduce(alpha, axis=2, keepdims=True)
    dz = np.divide(yy, alpha)
    np.subtract(np.reciprocal(s, out=s), dz, out=dz)
    dz += dkl_dat
    dz *= alpha
    dz *= mask
    dz /= 2.0 * n
    return alpha, _backward(model, acts, dz, grads)


def edl_loss(
    model: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Evidential loss on a labeled batch, averaged over batch and heads.

    Per example and head: sum_c Y_c (ln S - ln alpha_c) plus the KL of the
    label-masked evidence alpha~ = Y + (1 - Y) * alpha to the flat
    Dirichlet.  Returns (loss, flat gradient list over all parameters).
    """
    x = _model_batch(model, x)
    yy = _one_hot(y, model.num_classes, x.shape[0])
    alphas, grads = _edl_grads(model, x, yy)
    total = 0.0
    for alpha in alphas:
        s = alpha.sum(axis=1, keepdims=True)
        nll = (yy * (np.log(s) - np.log(alpha))).sum(axis=1)
        a_t = yy + (1.0 - yy) * alpha
        total += float(np.mean(nll + kl_dirichlet_to_uniform(a_t)))
    return total / 2.0, grads


def _cross_entropy_grads(model: ModelParams, x: np.ndarray, yy: np.ndarray, grads=None):
    """One forward pass and the flat gradient of ``cross_entropy_loss``,
    written into ``grads`` as ``_backward`` does; returns (both heads'
    (2, n, C) log-softmax, gradients)."""
    acts, logp, _, _ = _forward_cached(model, x, evidence=False)
    # the row max, one class column at a time: a max is exact in any
    # order, and from about 32 rows up a few column calls beat one
    # np.maximum.reduce over the short class axis
    zmax = logp[..., :1].copy()
    for j in range(1, logp.shape[2]):
        np.maximum(zmax, logp[..., j : j + 1], out=zmax)
    logp -= zmax
    lse = np.add.reduce(np.exp(logp), axis=2, keepdims=True)
    logp -= np.log(lse, out=lse)
    dz = np.exp(logp)
    dz -= yy
    dz /= 2.0 * x.shape[0]
    return logp, _backward(model, acts, dz, grads)


def cross_entropy_loss(
    model: ModelParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Plain softmax cross-entropy on both heads; the training-time
    substitute used by the ablation that drops the evidential objective."""
    x = _model_batch(model, x)
    yy = _one_hot(y, model.num_classes, x.shape[0])
    logps, grads = _cross_entropy_grads(model, x, yy)
    total = 0.0
    for logp in logps:
        total += float(-np.mean((yy * logp).sum(axis=1)))
    return total / 2.0, grads


def close_weights(alphas, tau1: float) -> np.ndarray:
    """Constant per-example weights (1/N)(1 - sigmoid(u_data - tau1))
    computed from the averaged evidence of the two heads ``alphas``, a
    pair of (N, C) evidence arrays as the forward passes make them.
    Unchecked: ``data_uncertainty``'s kernel reads the average directly."""
    a = np.add(alphas[0], alphas[1])
    a *= 0.5
    w = _uncertainties(a, psi=a, mutual=False)[0]
    w -= tau1
    special.expit(w, out=w)
    np.subtract(1.0, w, out=w)
    w /= a.shape[0]
    return w


def dis_weights(alphas, tau2: float) -> np.ndarray:
    """Constant per-example weights (1/N) sigmoid(u_dist - tau2), from
    ``distribution_uncertainty``'s kernel as ``close_weights`` does."""
    a = np.add(alphas[0], alphas[1])
    a *= 0.5
    w = _uncertainties(a, psi=a)[1]
    w -= tau2
    special.expit(w, out=w)
    w /= a.shape[0]
    return w


def _weighted_jsd(model: ModelParams, x: np.ndarray, weights, weight_fn, tau):
    """One forward pass over an unlabeled batch.  Returns the backprop
    cache, the per-example weights (``weights`` if given, else
    ``weight_fn(alphas, tau)``), the heads' normalized evidence as one
    (2, n, C) array and its weighted logit gradient of JSD(p, q)."""
    acts, _, alphas, mask = _forward_cached(model, x)
    w = weight_fn(alphas, tau) if weights is None else np.asarray(weights)
    pq = _dirichlet_mean(alphas, out=alphas)[0]
    m = pq[0] + pq[1]
    m *= 0.5
    # d JSD / d logit of each head: r (g - sum_c r_c g_c), g = log2(r / m) / 2
    g = np.divide(pq, m)
    np.log(g, out=g)
    g /= 2.0 * LN2
    g -= np.add.reduce(pq * g, axis=2, keepdims=True)
    g *= pq
    g *= mask
    g *= w[:, None]
    return acts, w, pq, g


def _close_grads(model: ModelParams, x: np.ndarray, tau1: float, grads=None, weights=None):
    """Flat gradient of ``close_loss``, written into ``grads`` as
    ``_backward`` does; returns ((weights, (p, q)), gradients)."""
    acts, w, pq, dz = _weighted_jsd(model, x, weights, close_weights, tau1)
    return (w, pq), _backward(model, acts, dz, grads, heads=False)


def _dis_grads(model: ModelParams, x: np.ndarray, tau2: float, grads=None, weights=None):
    """Flat gradient of ``dis_loss``, written into ``grads`` as
    ``_backward`` does; returns ((weights, (p, q)), gradients)."""
    acts, w, pq, dz = _weighted_jsd(model, x, weights, dis_weights, tau2)
    return (w, pq), _backward(model, acts, np.negative(dz, out=dz), grads, backbone=False)


def _unlabeled_batch(model: ModelParams, x, name: str) -> np.ndarray:
    x = _model_batch(model, x)
    if x.shape[0] == 0:
        raise ValueError(f"{name} requires a non-empty batch")
    return x


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
    x = _unlabeled_batch(model, x, "close_loss")
    (w, (p, q)), grads = _close_grads(model, x, tau1, weights=weights)
    return float((w * np.atleast_1d(jsd(p, q))).sum()), grads


def dis_loss(
    model: ModelParams,
    x: np.ndarray,
    tau2: float = -5.0,
    weights: np.ndarray | None = None,
) -> tuple[float, list[np.ndarray]]:
    """Weighted (1 - JSD) between the heads, differentiated through the
    two heads only; backbone gradient entries are exactly zero."""
    x = _unlabeled_batch(model, x, "dis_loss")
    (w, (p, q)), grads = _dis_grads(model, x, tau2, weights=weights)
    return float((w * (1.0 - np.atleast_1d(jsd(p, q)))).sum()), grads


def learning_rate_at(epoch: int, cfg: TrainConfig) -> float:
    """Step schedule: base lr divided by 10 at every milestone reached."""
    drops = 0
    for m in cfg.lr_milestones:
        if m <= epoch:
            drops += 1
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
    velocity buffers (``ModelParams.subsets``), updated in one pass;
    parameters and velocities outside it are untouched (bitwise).
    ``grads`` is the model's own ``grad_views``, whose slice of
    ``grad_buffer`` is read in place and used as scratch, or any list
    shaped like ``flat_params()``, whose subset is first copied into that
    slice.  Raises on non-finite gradients in the subset, naming the
    first offending array, before any parameter or velocity changes.
    """
    try:
        idx, p, v, g = model.subsets[trainable]
    except KeyError:
        raise ValueError(f"unknown parameter subset {trainable!r}") from None
    if grads is not model.grad_views:
        if [np.shape(a) for a in grads] != [q.shape for q in model.flat_params()]:
            raise ValueError("gradient list does not match parameter list")
        np.concatenate(grads[idx.start : idx.stop], axis=None, out=g)
    if not np.logical_and.reduce(np.isfinite(g)):
        i = next(i for i in idx if not np.isfinite(grads[i]).all())
        raise FloatingPointError(
            f"non-finite gradient in parameter {i} (shape {grads[i].shape}) at epoch {epoch}"
        )
    v *= cfg.momentum
    g += cfg.weight_decay * p
    v += g
    p -= np.multiply(v, learning_rate_at(epoch, cfg), out=g)
    return model


def _epoch_batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def train_cycle(
    model: ModelParams,
    x_labeled: np.ndarray,
    y_labeled: np.ndarray,
    x_unlabeled: np.ndarray | None,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> ModelParams:
    """Full training for one query round.

    First ``cfg.epochs`` epochs of the labeled-data loss (evidential by
    default, cross-entropy if configured), then ``cfg.discrepancy_epochs``
    epochs over the unlabeled pool alternating a backbone-only agreement
    epoch with a heads-only disagreement epoch.  The epoch counter keeps
    running through the second phase so the lr schedule carries over.
    ``x_unlabeled`` is not read (and may be None) unless
    ``cfg.runs_discrepancy``.

    Each step computes only the gradient its update reads: the loss
    values are never evaluated.  The inputs are checked, and the labels
    validated and one-hot encoded, once, before any parameter changes.
    Every step writes its gradient into the model's ``grad_views`` and
    ``sgd_step`` reads it from there, so a step allocates no gradient
    list.  Batches are gathered with ``take``, the same rows as fancy
    indexing at less cost.
    """
    x_labeled = _model_batch(model, x_labeled)
    if x_labeled.shape[0] == 0:
        raise ValueError("train_cycle requires a non-empty labeled pool")
    yy = _one_hot(y_labeled, model.num_classes, x_labeled.shape[0])
    if cfg.runs_discrepancy:
        x_unlabeled = _model_batch(model, x_unlabeled)
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    buffer = model.grad_views
    grad_fn = _edl_grads if cfg.train_loss == "edl" else _cross_entropy_grads
    batch = min(cfg.batch_size, x_labeled.shape[0])
    for epoch in range(cfg.epochs):
        for idx in _epoch_batches(x_labeled.shape[0], batch, rng):
            _, grads = grad_fn(model, x_labeled.take(idx, 0), yy.take(idx, 0), buffer)
            sgd_step(model, grads, epoch, cfg, trainable="all")

    if not cfg.runs_discrepancy:
        return model
    ubatch = min(cfg.batch_size, max(x_unlabeled.shape[0], 1))
    for k in range(cfg.discrepancy_epochs):
        if k % 2 == 0:
            grad_fn, tau, trainable = _close_grads, cfg.tau1, "backbone"
        else:
            grad_fn, tau, trainable = _dis_grads, cfg.tau2, "heads"
        for idx in _epoch_batches(x_unlabeled.shape[0], ubatch, rng):
            _, grads = grad_fn(model, x_unlabeled.take(idx, 0), tau, buffer)
            sgd_step(model, grads, cfg.epochs + k, cfg, trainable=trainable)
    return model


def save_checkpoint(
    path,
    model: ModelParams,
    epoch: int = 0,
    rng: np.random.Generator | None = None,
) -> None:
    """Serialize parameters, momentum buffers, epoch counter and RNG state
    to one .npz archive written at exactly ``path``, whatever its suffix;
    float arrays round-trip bitwise."""
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
    # np.savez given a file name appends .npz to one that lacks it
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


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
