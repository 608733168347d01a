"""Closed-form Dirichlet mathematics for evidential classifiers.

A classifier head emits one logit per class; exponentiating the logits
gives a positive evidence vector ``alpha`` that parameterizes a Dirichlet
prior over the class-probability simplex.  Everything downstream of that
prior has a closed form in terms of the digamma and log-gamma functions:

* ``expected_probs``    mean of the Dirichlet, alpha / sum(alpha)
* ``data_uncertainty``  expected entropy of a categorical drawn from the prior
* ``distribution_uncertainty``  mutual information between label and
  probability vector, i.e. entropy of the mean minus the expected entropy

plus the divergences used by the dual-head training losses
(``jsd``, ``kl_dirichlet_to_uniform``) and the head-disagreement score
(``discrepancy_score``).

All public functions are pure and broadcast over leading axes: an input
of shape ``(..., C)`` yields an output of shape ``(...)`` (or ``(..., C)``
for the vector-valued ones).  Entropies are in nats except ``jsd``, which
uses a base-2 logarithm so its value is bounded by 1.

Each closed form the model and the selector use has one body, an
unchecked private kernel with optional ``out`` and scratch arrays, which
the checked public function, the forward passes and the pool scores call.
The kernels sum with ``np.add.reduce``, which is what ``np.sum`` calls on
a float array, without its Python wrapper.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "LOGIT_CLIP",
    "evidence_from_logits",
    "expected_probs",
    "entropy",
    "data_uncertainty",
    "distribution_uncertainty",
    "jsd",
    "kl_dirichlet_to_uniform",
    "discrepancy_score",
]

# Logits are clamped to this symmetric interval before exponentiation,
# bounding evidence components to [e^-10, e^10] without changing their order.
LOGIT_CLIP = 10.0


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {arr!r}")
    return arr


def _evidence(z, out=None) -> np.ndarray:
    """exp(clip(z, -LOGIT_CLIP, LOGIT_CLIP)), written into ``out`` (which
    may be z; None allocates, for z of ndim >= 1) and returned.  The clip
    is a maximum then a minimum: the same values as ``np.clip``, at less
    call overhead."""
    out = np.maximum(z, -LOGIT_CLIP, out=out)
    np.minimum(out, LOGIT_CLIP, out=out)
    return np.exp(out, out=out)


def _dirichlet_mean(a, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(p, S): the mean p = a / S of evidence a (..., C), written into
    ``out`` (which may be a), and its row sums S (..., 1), a new array.
    Unchecked."""
    s = np.add.reduce(a, axis=-1, keepdims=True)
    return np.divide(a, s, out=out), s


def _uncertainties(a, u_data=None, u_dist=None, p=None, psi=None, mutual=True):
    """(u_data, u_dist) of evidence a (..., C), each written into the
    array given for it; u_dist is None unless ``mutual``.  Unchecked.

    u_data = sum_c p_c (psi(S + 1) - psi(a_c + 1)) and
    u_dist = -sum_c p_c ln p_c - u_data.  ``p`` and ``psi`` (..., C) are
    scratch for the mean and the digamma terms; ``psi`` may be a, which is
    then overwritten.  The (..., 1) row sums are ``_dirichlet_mean``'s.
    """
    p, s = _dirichlet_mean(a, p)
    psi_s = special.digamma(np.add(s, 1.0, out=s), out=s)
    psi_a = special.digamma(np.add(a, 1.0, out=psi), out=psi)
    terms = np.subtract(psi_s, psi_a, out=psi_a)
    terms *= p
    u_data = np.add.reduce(terms, axis=-1, out=u_data)
    if not mutual:
        return u_data, None
    h = np.add.reduce(special.xlogy(p, p, out=terms), axis=-1, out=u_dist)
    u_dist = np.negative(h, out=u_dist)
    u_dist -= u_data
    return u_data, u_dist


def _head_distance(a1, a2, out=None, diff=None) -> np.ndarray:
    """||a1 - a2||_2 over the last axis, written into ``out``; the
    difference goes into ``diff``, which may be a1.  Unchecked."""
    d = np.subtract(a1, a2, out=diff)
    return np.sqrt(np.add.reduce(np.square(d, out=d), axis=-1, out=out), out=out)


def _scalar_or_array(out) -> np.ndarray | float:
    return float(out) if out.ndim == 0 else out


def evidence_from_logits(logits) -> np.ndarray | float:
    """Map raw logits to positive Dirichlet evidence, exp(clip(logit)).

    Clamping to [-LOGIT_CLIP, +LOGIT_CLIP] prevents overflow; ordering of
    components is preserved.  Output is strictly positive.
    """
    z = _as_float_array(logits, "logits")
    return _scalar_or_array(_evidence(z, np.empty(z.shape)))


def _validate_alpha(alpha) -> np.ndarray:
    a = _as_float_array(alpha, "alpha")
    if a.shape[-1] < 2:
        raise ValueError("evidence vector needs at least 2 classes")
    if np.any(a <= 0):
        raise ValueError("evidence components must be strictly positive")
    return a


def expected_probs(alpha) -> np.ndarray:
    """Mean of the Dirichlet: p_c = alpha_c / sum(alpha).

    Coincides with the softmax of the (clamped) logits, so it carries no
    more information than a softmax prediction; the uncertainty measures
    below are what distinguish evidence vectors with equal means.
    """
    return _dirichlet_mean(_validate_alpha(alpha))[0]


def entropy(p) -> np.ndarray | float:
    """Shannon entropy of a categorical distribution, in nats."""
    arr = np.asarray(p, dtype=float)
    return _scalar_or_array(-special.xlogy(arr, arr).sum(axis=-1))


def data_uncertainty(alpha) -> np.ndarray | float:
    """Expected entropy of a categorical sampled from Dir(alpha).

    Closed form: sum_c p_c * (psi(S + 1) - psi(alpha_c + 1)) with
    S = sum(alpha) and p = expected_probs(alpha).  Lies in [0, ln C] and
    increases toward the entropy of the mean as evidence accumulates.
    """
    return _scalar_or_array(_uncertainties(_validate_alpha(alpha), mutual=False)[0])


def distribution_uncertainty(alpha) -> np.ndarray | float:
    """Mutual information between the label and the probability vector.

    Closed form: sum_c p_c * (psi(alpha_c + 1) - psi(S + 1)) - sum_c p_c ln p_c,
    which is computed as entropy(expected_probs) - data_uncertainty.  The
    first sum is exactly -data_uncertainty: ``_uncertainties`` evaluates
    the pair together, and ``score_pool`` calls it on the averaged
    evidence of each row block.  Vanishes as evidence grows, so it
    measures how little evidence has been collected.
    """
    return _scalar_or_array(_uncertainties(_validate_alpha(alpha))[1])


def jsd(p, q) -> np.ndarray | float:
    """Jensen-Shannon divergence with base-2 logarithm, in [0, 1].

    0.5 * KL(p || m) + 0.5 * KL(q || m) with m = (p + q) / 2.  Symmetric,
    zero iff p == q, and bounded by 1 thanks to the base-2 log.
    """
    pa = _as_float_array(p, "p")
    qa = _as_float_array(q, "q")
    if pa.shape[-1] != qa.shape[-1]:
        raise ValueError(
            f"dimension mismatch: p has {pa.shape[-1]} classes, q has {qa.shape[-1]}"
        )
    m = 0.5 * (pa + qa)
    kl_pm = (special.xlogy(pa, pa) - special.xlogy(pa, m)).sum(axis=-1)
    kl_qm = (special.xlogy(qa, qa) - special.xlogy(qa, m)).sum(axis=-1)
    return _scalar_or_array(0.5 * (kl_pm + kl_qm) / np.log(2.0))


def kl_dirichlet_to_uniform(alpha_tilde) -> np.ndarray | float:
    """KL divergence from Dir(alpha_tilde) to the flat Dirichlet Dir(1).

    ln Gamma(S) - ln Gamma(C) - sum_c ln Gamma(a_c)
        + sum_c (a_c - 1) * (psi(a_c) - psi(S)),  S = sum(alpha_tilde).

    Nonnegative; zero exactly when every component equals 1.
    """
    a = _validate_alpha(alpha_tilde)
    c = a.shape[-1]
    s = a.sum(axis=-1)
    out = (
        special.gammaln(s)
        - special.gammaln(c)
        - special.gammaln(a).sum(axis=-1)
        + ((a - 1.0) * (special.digamma(a) - special.digamma(s)[..., None])).sum(axis=-1)
    )
    return _scalar_or_array(out)


def discrepancy_score(alpha1, alpha2) -> np.ndarray | float:
    """Euclidean distance between two heads' evidence vectors."""
    a1 = _as_float_array(alpha1, "alpha1")
    a2 = _as_float_array(alpha2, "alpha2")
    if a1.shape[-1] != a2.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a1.shape[-1]} vs {a2.shape[-1]} classes"
        )
    return _scalar_or_array(_head_distance(a1, a2))
