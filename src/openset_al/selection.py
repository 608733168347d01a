"""Query strategies: the coarse-to-fine evidential selector and baselines.

``score_pool`` turns a trained dual-head model into three per-example
scores: expected entropy and mutual information of the averaged evidence,
plus the L2 distance between the two heads' evidence vectors.

The coarse stage fits a two-component 1-D Gaussian mixture to
``s_dis + alpha_coef * u_data`` and keeps examples whose posterior for
the lower-mean component (the putative known-class mode) exceeds a
threshold.  The fine stage ranks survivors by
``beta_coef * u_data + u_dist`` and takes the top b, topping the batch up
from the best remaining coarse posteriors when the survivor set is
smaller than the budget.

All selectors break ties by ascending example id, which makes every query
deterministic and invariant to pool ordering.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .evidential import (
    data_uncertainty,
    discrepancy_score,
    distribution_uncertainty,
    entropy,
    expected_probs,
)
from .model import ModelParams, forward

__all__ = [
    "PoolScores",
    "GmmModel",
    "DegenerateDataError",
    "score_pool",
    "gmm_fit",
    "gmm_posterior_low",
    "coarse_select",
    "fine_select",
    "coarse_to_fine_select",
    "baseline_select",
    "BASELINE_STRATEGIES",
]

logger = logging.getLogger(__name__)

BASELINE_STRATEGIES = ("random", "entropy", "least_confidence", "margin")

VARIANCE_FLOOR = 1e-6


class DegenerateDataError(ValueError):
    """Raised when 1-D data cannot support a two-component mixture fit."""


class PoolScores(NamedTuple):
    """Per-example score arrays, aligned with the scored pool."""

    u_data: np.ndarray
    u_dist: np.ndarray
    s_dis: np.ndarray


def score_pool(model: ModelParams, x: np.ndarray) -> PoolScores:
    """Evaluate the three selection scores for every example in x.

    Uncertainties come from the element-wise average of the two heads'
    evidence; the discrepancy is the L2 distance between them.  Tiny
    negative values from floating-point cancellation are clipped to 0.
    """
    a1, a2 = forward(model, x)
    avg = 0.5 * (a1 + a2)
    return PoolScores(
        u_data=np.maximum(np.atleast_1d(data_uncertainty(avg)), 0.0),
        u_dist=np.maximum(np.atleast_1d(distribution_uncertainty(avg)), 0.0),
        s_dis=np.atleast_1d(discrepancy_score(a1, a2)),
    )


@dataclass
class GmmModel:
    """Two-component 1-D Gaussian mixture with its EM fit trace."""

    means: np.ndarray  # shape (2,)
    variances: np.ndarray  # shape (2,), floored at VARIANCE_FLOOR
    weights: np.ndarray  # shape (2,), sums to 1
    log_likelihoods: list[float]  # per-iteration mean log-likelihood

    def _e_step(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Responsibilities, shape (n, 2), and the mean log-likelihood of
        x, both from one max-shifted logsumexp of the log-joint, so a
        point far from both components cannot underflow to log(0)."""
        x = np.asarray(x, dtype=float)[:, None]
        log_pdf = (
            -0.5 * np.log(2.0 * np.pi * self.variances)
            - 0.5 * (x - self.means) ** 2 / self.variances
        )
        log_joint = np.log(self.weights) + log_pdf
        shift = log_joint.max(axis=1, keepdims=True)
        joint = np.exp(log_joint - shift)
        total = joint.sum(axis=1, keepdims=True)
        return joint / total, float((shift + np.log(total)).mean())

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component probabilities, shape (n, 2)."""
        return self._e_step(x)[0]


def gmm_fit(scores, max_iter: int = 200, tol: float = 1e-6) -> GmmModel:
    """EM fit of a two-mode Gaussian mixture to 1-D data.

    Initialization splits the data at its median (equal weights, pooled
    variance), which makes the fit deterministic.  Each iteration takes
    the responsibilities and the per-point mean log-likelihood from one
    logsumexp pass; the log-likelihood is non-decreasing across
    iterations and the fit stops when it improves by less than ``tol``.
    """
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1:
        raise ValueError("gmm_fit expects 1-D data")
    if np.unique(x).size < 2:
        raise DegenerateDataError(
            "need at least 2 distinct values to fit a two-mode mixture"
        )
    med = np.median(x)
    low, high = x[x <= med], x[x > med]
    if high.size == 0:
        # an extreme duplicate mass at the median; split off the max instead
        high = x[x == x.max()]
        low = x[x < x.max()]
    pooled = max(
        (low.var() * low.size + high.var() * high.size) / x.size, VARIANCE_FLOOR
    )
    means = np.array([low.mean(), high.mean()])
    variances = np.array([pooled, pooled])
    weights = np.array([0.5, 0.5])

    model = GmmModel(means, variances, weights, [])
    prev = -np.inf
    for _ in range(max_iter):
        resp, ll = model._e_step(x)
        model.log_likelihoods.append(ll)
        if ll - prev < tol and np.isfinite(prev):
            break
        prev = ll
        counts = resp.sum(axis=0)
        model.weights = counts / x.size
        model.means = (resp * x[:, None]).sum(axis=0) / counts
        model.variances = np.maximum(
            (resp * (x[:, None] - model.means) ** 2).sum(axis=0) / counts,
            VARIANCE_FLOOR,
        )
    return model


def gmm_posterior_low(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Posterior probability of the lower-mean component for each value."""
    low = int(np.argmin(model.means))
    return model.responsibilities(x)[:, low]


def coarse_select(
    scores: PoolScores,
    ids: np.ndarray,
    alpha_coef: float = 1.0,
    threshold: float = 0.5,
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Coarse filter: keep ids whose combined score falls in the low mode.

    Combines ``s_dis + alpha_coef * u_data``, fits the two-mode mixture,
    and keeps examples whose posterior for the lower-mean (known-class)
    component exceeds ``threshold``.  Returns (selected ids, per-example
    known-mode posterior aligned with ids, fallback flag).  If the scores
    are degenerate the filter falls back to keeping everything at or
    below the median score (posterior reported as 1/0).
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("coarse_select requires a non-empty pool")
    combined = scores.s_dis + alpha_coef * scores.u_data
    fallback = False
    try:
        model = gmm_fit(combined)
        posterior = gmm_posterior_low(model, combined)
    except DegenerateDataError:
        logger.warning(
            "coarse filter: degenerate scores, falling back to median split"
        )
        posterior = (combined <= np.median(combined)).astype(float)
        fallback = True
    selected = ids[posterior > threshold]
    return selected, posterior, fallback


def fine_select(
    scores: PoolScores,
    ids: np.ndarray,
    sub_mask: np.ndarray,
    beta_coef: float = 0.5,
    budget: int = 1,
) -> np.ndarray:
    """Rank the coarse survivors by beta_coef * u_data + u_dist and take
    the top ``budget``, ties broken by ascending id.  Returns at most
    ``budget`` ids; if fewer survivors exist, returns all of them (the
    pipeline tops the batch up separately)."""
    if budget <= 0:
        raise ValueError("budget must be positive")
    ids = np.asarray(ids)
    sub_ids = ids[sub_mask]
    if sub_ids.size == 0:
        raise ValueError("fine_select requires a non-empty coarse subset")
    rank = beta_coef * scores.u_data[sub_mask] + scores.u_dist[sub_mask]
    order = np.lexsort((sub_ids, -rank))
    return sub_ids[order[:budget]]


def coarse_to_fine_select(
    scores: PoolScores,
    ids: np.ndarray,
    budget: int,
    alpha_coef: float = 1.0,
    beta_coef: float = 0.5,
    threshold: float = 0.5,
    use_discrepancy: bool = True,
) -> np.ndarray:
    """Full two-stage query: coarse mixture filter, fine ranking, top-up.

    When the coarse stage keeps fewer than ``budget`` examples, the
    remainder is filled with the highest known-mode posteriors outside
    the survivor set, so the full budget is always spent.  With
    ``use_discrepancy=False`` the head-discrepancy score is dropped from
    the coarse combination (the score-ablated variant).
    """
    ids = np.asarray(ids)
    eff = scores if use_discrepancy else scores._replace(
        s_dis=np.zeros_like(scores.s_dis)
    )
    selected, posterior, _ = coarse_select(
        eff, ids, alpha_coef=alpha_coef, threshold=threshold
    )
    sub_mask = posterior > threshold
    budget = min(budget, ids.size)
    if not sub_mask.any():
        # empty coarse stage: spend the budget on the best posteriors
        order = np.lexsort((ids, -posterior))
        return ids[order[:budget]]
    query = fine_select(eff, ids, sub_mask, beta_coef=beta_coef, budget=budget)
    if query.size < budget:
        rest_mask = ~np.isin(ids, query)
        rest_ids = ids[rest_mask]
        order = np.lexsort((rest_ids, -posterior[rest_mask]))
        query = np.concatenate([query, rest_ids[order[: budget - query.size]]])
    return query


def baseline_select(
    strategy: str,
    scores_probs: np.ndarray,
    ids: np.ndarray,
    budget: int,
    seed=None,
) -> np.ndarray:
    """Classical pool-based strategies over averaged expected probabilities.

    random: uniform without replacement; entropy: top-b by prediction
    entropy; least_confidence: top-b by 1 - max p; margin: top-b by the
    smallest gap between the two largest probabilities.  Deterministic
    given the seed; ties break by ascending id.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("baseline_select requires a non-empty pool")
    budget = min(budget, ids.size)
    if strategy == "random":
        rng = np.random.default_rng(seed)
        order = np.argsort(ids)
        return np.sort(rng.choice(ids[order], size=budget, replace=False))
    p = np.asarray(scores_probs, dtype=float)
    if strategy == "entropy":
        rank = entropy(p)
    elif strategy == "least_confidence":
        rank = 1.0 - p.max(axis=1)
    elif strategy == "margin":
        part = np.sort(p, axis=1)
        rank = -(part[:, -1] - part[:, -2])
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    order = np.lexsort((ids, -rank))
    return ids[order[:budget]]


def averaged_probs(model: ModelParams, x: np.ndarray) -> np.ndarray:
    """Mean of the two heads' expected probabilities, used by baselines."""
    a1, a2 = forward(model, x)
    return 0.5 * (expected_probs(a1) + expected_probs(a2))
