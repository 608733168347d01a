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
    distribution_uncertainty,  # noqa: F401  perfbench/spans.py wraps this name
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
    evidence; the discrepancy is the L2 distance between them.  ``u_dist``
    is ``distribution_uncertainty`` of that average, derived from the
    same ``u_data`` so the digamma terms are evaluated once.  Tiny
    negative values from floating-point cancellation are clipped to 0.
    """
    a1, a2 = forward(model, x)
    avg = 0.5 * (a1 + a2)
    u_data = data_uncertainty(avg)
    u_dist = entropy(expected_probs(avg)) - u_data
    return PoolScores(
        u_data=np.maximum(u_data, 0.0),
        u_dist=np.maximum(u_dist, 0.0),
        s_dis=discrepancy_score(a1, a2),
    )


@dataclass
class GmmModel:
    """Two-component 1-D Gaussian mixture with its EM fit trace."""

    means: np.ndarray  # shape (2,)
    variances: np.ndarray  # shape (2,), floored at VARIANCE_FLOOR
    weights: np.ndarray  # shape (2,), sums to 1
    log_likelihoods: list[float]  # per-iteration mean log-likelihood

    def _e_step(self, x: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], float]:
        """Both responsibility columns of 1-D x and its mean
        log-likelihood, from one max-shifted logsumexp of the two
        components' log-joints, so a point far from both components cannot
        underflow to log(0).

        Each component's log-joint is one contiguous column; the shift is
        the columns' element-wise maximum and the total their sum, which is
        what a max and a sum along a length-2 row give.  ``_fit_em`` then
        sums each column sequentially, in pool order, which is the order a
        sum over axis 0 of an (n, 2) array takes.  That order is kept on
        purpose: a 1-D ``sum`` adds pairwise, which rounds the component
        totals, and so the fitted means and the selections, differently.
        """
        log_norm = -0.5 * np.log(2.0 * np.pi * self.variances)
        c0, c1 = (
            log_w + (log_n - 0.5 * (x - m) ** 2 / v)
            for log_w, log_n, m, v in zip(
                np.log(self.weights), log_norm, self.means, self.variances
            )
        )
        shift = np.maximum(c0, c1)
        j0 = np.exp(c0 - shift)
        j1 = np.exp(c1 - shift)
        total = j0 + j1
        return (j0 / total, j1 / total), float((shift + np.log(total)).mean())

    def _posterior_columns(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Responsibility columns of x.  Values large enough for a squared
        deviation to overflow are evaluated divided by the power of two
        ``gmm_fit`` would fit them with, the means and variances by the
        same power and its square."""
        x = np.asarray(x, dtype=float)
        peak = max(np.abs(x).max(initial=0.0), np.abs(self.means).max())
        e = _rescale_exponent(peak, x.size)
        if not e:
            return self._e_step(x)[0]
        scaled = GmmModel(
            np.ldexp(self.means, -e), np.ldexp(self.variances, -2 * e), self.weights, []
        )
        return scaled._e_step(np.ldexp(x, -e))[0]

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component probabilities, shape (n, 2)."""
        return np.column_stack(self._posterior_columns(x))


def _rescale_exponent(peak: float, n: int) -> int:
    """0 when n values at most ``peak`` in magnitude can be fitted and
    evaluated as they are; otherwise the exponent e with
    peak = f * 2^e, 0.5 <= f < 1, so the values divided by 2^e lie
    within (-1, 1).  A squared deviation divided by the variance floor,
    or n of them summed, would overflow past the threshold."""
    # a deviation from a mean is at most 2 * peak in magnitude
    if peak <= np.sqrt(np.finfo(float).max * VARIANCE_FLOOR / (4.0 * max(n, 1))):
        return 0
    return int(np.frexp(peak)[1])


def _sequential_sum(col: np.ndarray) -> float:
    """Left-to-right sum of a column, as a row-by-row (n, 2) sum takes it;
    that sum starts from +0.0, so an all -0.0 column sums to +0.0."""
    return np.add.accumulate(col)[-1] + 0.0


def gmm_fit(scores, max_iter: int = 200, tol: float = 1e-6) -> GmmModel:
    """EM fit of a two-mode Gaussian mixture to 1-D data.

    Initialization splits the data at its median (equal weights, pooled
    variance), which makes the fit deterministic.  Each iteration takes
    the responsibilities and the per-point mean log-likelihood from one
    logsumexp pass; the log-likelihood is non-decreasing across
    iterations and the fit stops when it improves by less than ``tol``.

    Data large enough in magnitude for a squared deviation divided by the
    variance floor, or the summed squared deviations, to overflow is
    fitted divided by a power of two 2^e, which is exact; the
    means, variances and log-likelihoods are then scaled back by 2^e,
    4^e and -e ln 2.  On that path the variance floor scales by 4^e as
    well, and a variance beyond the float64 range reads inf.
    ``GmmModel.responsibilities`` divides such data, the means and the
    variances by the same powers before it evaluates them.
    """
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1:
        raise ValueError("gmm_fit expects 1-D data")
    if np.unique(x).size < 2:
        raise DegenerateDataError(
            "need at least 2 distinct values to fit a two-mode mixture"
        )
    e = _rescale_exponent(np.abs(x).max(), x.size)
    if not e:
        return _fit_em(x, max_iter, tol)
    scaled = np.ldexp(x, -e)
    model = _fit_em(scaled, max_iter, tol)
    # a rounded mean can land past the data's range and overflow when
    # scaled back, though a mean of the data lies within it
    model.means = np.ldexp(np.clip(model.means, scaled.min(), scaled.max()), e)
    with np.errstate(over="ignore"):  # a variance beyond float64 reads inf
        model.variances = np.ldexp(model.variances, 2 * e)
    model.log_likelihoods = [ll - e * np.log(2.0) for ll in model.log_likelihoods]
    return model


def _fit_em(x: np.ndarray, max_iter: int, tol: float) -> GmmModel:
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
        counts = np.array([_sequential_sum(r) for r in resp])
        model.weights = counts / x.size
        model.means = np.array([_sequential_sum(r * x) for r in resp]) / counts
        model.variances = np.maximum(
            np.array(
                [_sequential_sum(r * (x - m) ** 2) for r, m in zip(resp, model.means)]
            )
            / counts,
            VARIANCE_FLOOR,
        )
    return model


def gmm_posterior_low(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Posterior probability of the lower-mean component for each value."""
    low = int(np.argmin(model.means))
    return model._posterior_columns(x)[low]


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
    _, posterior, _ = coarse_select(
        eff, ids, alpha_coef=alpha_coef, threshold=threshold
    )
    # the comparison coarse_select makes; a mask over the pool avoids an
    # isin against the ids it returns
    sub_mask = posterior > threshold
    budget = min(budget, ids.size)
    query = ids[:0]
    if sub_mask.any():
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
