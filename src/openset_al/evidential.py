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

All functions are pure and broadcast over leading axes: an input of shape
``(..., C)`` yields an output of shape ``(...)`` (or ``(..., C)`` for the
vector-valued ones).  Entropies are in nats except ``jsd``, which uses a
base-2 logarithm so its value is bounded by 1.
"""

from __future__ import annotations

import numpy as np
from scipy import special

__all__ = [
    "LOGIT_CLIP",
    "digamma",
    "log_gamma",
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


def digamma(x) -> np.ndarray | float:
    """Digamma function psi(x) = d/dx ln Gamma(x) for x > 0.

    Raises ValueError if any component is non-positive or non-finite.
    """
    arr = _as_float_array(x, "x")
    if np.any(arr <= 0):
        raise ValueError(f"digamma requires x > 0, got {arr!r}")
    out = special.digamma(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def log_gamma(x) -> np.ndarray | float:
    """Natural log of the Gamma function for x > 0."""
    arr = _as_float_array(x, "x")
    if np.any(arr <= 0):
        raise ValueError(f"log_gamma requires x > 0, got {arr!r}")
    out = special.gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


def evidence_from_logits(logits) -> np.ndarray:
    """Map raw logits to positive Dirichlet evidence, exp(clip(logit)).

    Clamping to [-LOGIT_CLIP, +LOGIT_CLIP] prevents overflow; ordering of
    components is preserved.  Output is strictly positive.
    """
    z = _as_float_array(logits, "logits")
    return np.exp(np.clip(z, -LOGIT_CLIP, LOGIT_CLIP))


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
    a = _validate_alpha(alpha)
    return a / a.sum(axis=-1, keepdims=True)


def entropy(p) -> np.ndarray | float:
    """Shannon entropy of a categorical distribution, in nats."""
    arr = np.asarray(p, dtype=float)
    out = -special.xlogy(arr, arr).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def data_uncertainty(alpha) -> np.ndarray | float:
    """Expected entropy of a categorical sampled from Dir(alpha).

    Closed form: sum_c p_c * (psi(S + 1) - psi(alpha_c + 1)) with
    S = sum(alpha) and p = expected_probs(alpha).  Lies in [0, ln C] and
    increases toward the entropy of the mean as evidence accumulates.
    """
    a = _validate_alpha(alpha)
    s = a.sum(axis=-1, keepdims=True)
    p = a / s
    out = (p * (special.digamma(s + 1.0) - special.digamma(a + 1.0))).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def distribution_uncertainty(alpha) -> np.ndarray | float:
    """Mutual information between the label and the probability vector.

    Closed form: sum_c p_c * (psi(alpha_c + 1) - psi(S + 1)) - sum_c p_c ln p_c,
    which is computed as entropy(expected_probs) - data_uncertainty.  The
    first sum is exactly -data_uncertainty, so both forms round the same.
    Vanishes as evidence grows, so it measures how little evidence has
    been collected.
    """
    a = _validate_alpha(alpha)
    return entropy(expected_probs(a)) - data_uncertainty(a)


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
    out = 0.5 * (kl_pm + kl_qm) / np.log(2.0)
    return float(out) if out.ndim == 0 else out


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
    return float(out) if out.ndim == 0 else out


def discrepancy_score(alpha1, alpha2) -> np.ndarray | float:
    """Euclidean distance between two heads' evidence vectors."""
    a1 = _as_float_array(alpha1, "alpha1")
    a2 = _as_float_array(alpha2, "alpha2")
    if a1.shape[-1] != a2.shape[-1]:
        raise ValueError(
            f"dimension mismatch: {a1.shape[-1]} vs {a2.shape[-1]} classes"
        )
    out = np.sqrt(((a1 - a2) ** 2).sum(axis=-1))
    return float(out) if out.ndim == 0 else out
