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

All selectors break ties by ascending example id, and the mixture is fitted
to the sorted scores, which makes every query deterministic and invariant
to pool ordering.
"""

from __future__ import annotations

import logging
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .datasets import _id_array
from .evidential import (
    _dirichlet_mean,
    _head_distance,
    _uncertainties,
    _validate_alpha,
    entropy,
)

# perfbench/spans.py wraps these names here; the pool passes call their kernels
from .evidential import (  # noqa: F401
    data_uncertainty,
    discrepancy_score,
    distribution_uncertainty,
    expected_probs,
)
from .model import ModelParams, _activations, _model_batch, _scratch_size, forward

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
    "baseline_rank",
    "averaged_probs",
    "BASELINE_STRATEGIES",
]

logger = logging.getLogger(__name__)

# the baselines that query by a per-row rank, each with a rule in ``_rank_rows``
RANKED_STRATEGIES = ("entropy", "least_confidence", "margin")
BASELINE_STRATEGIES = ("random", *RANKED_STRATEGIES)

VARIANCE_FLOOR = 1e-6

# The largest score magnitude the mixture takes: within +-1e100 a squared
# deviation over the variance floor is at most 4e206, so no sum over any pool
# overflows.  The selector's scores stay below ~2.2e5 (evidence <= e^10).
SCORE_LIMIT = 1e100


class DegenerateDataError(ValueError):
    """Raised when 1-D data cannot support a two-component mixture fit."""


class PoolScores(NamedTuple):
    """Per-example score arrays, aligned with the scored pool."""

    u_data: np.ndarray
    u_dist: np.ndarray
    s_dis: np.ndarray


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


# Workers a ``_run_tasks`` call may use; None means one per CPU in the
# affinity mask.  ``openset-al run`` sets it in each of its group
# processes.
_workers: int | None = None


def _share_cpus(jobs: int) -> None:
    """Leave this process 1/jobs of the CPUs for its task runs, so that
    ``jobs`` processes together run no more compute threads than there
    are CPUs."""
    global _workers
    _workers = max(1, _cpu_count() // jobs)


def _pool_width(tasks: int) -> int:
    """Workers for ``tasks`` tasks: at most ``_workers``, else one per CPU
    in the affinity mask."""
    return min(_workers or _cpu_count(), tasks)


def _run_tasks(tasks, width: int) -> list:
    """``[task(k) for task in tasks]`` on ``width`` workers, k being the
    worker that runs the task: 0 is the calling thread, and each further
    worker a thread started and joined inside this call.

    Workers take the tasks in index order: the calling thread takes task
    0, and each thread its first task, before any thread starts, so task
    0 stays in the caller's malloc arena, and a width of 1 runs every
    task on the caller, in order, in the same loop, starting no thread.
    Each thread runs under the caller's ``np.errstate``, which numpy
    keeps per thread.  No task is taken once one has failed; when every
    worker has stopped, the lowest-index failure is raised, as a serial
    loop would raise it.
    """
    values = [None] * len(tasks)
    pending = iter(range(len(tasks)))
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    errstate = np.geterr()

    def take():
        with lock:
            return None if failures else next(pending, None)

    def drain(worker, i):
        while i is not None:
            try:
                values[i] = tasks[i](worker)
            except BaseException as exc:
                with lock:
                    failures[i] = exc
            i = take()

    def helper(worker, i):
        with np.errstate(**errstate):
            drain(worker, i)

    first, started = take(), []
    try:
        for k in range(1, min(width, len(tasks))):
            thread = threading.Thread(target=helper, args=(k, take()))
            thread.start()
            started.append(thread)
        drain(0, first)
    finally:
        for thread in started:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return values


# A row block of the pool pass has at least this many rows, and at least
# enough that its smallest matmul does FORWARD_BLOCK_WORK multiply-adds.
# OpenBLAS takes a small-matrix kernel, which rounds differently, once
# M*N*K drops to about 1e6; blocks above that keep the one-pass bits.
FORWARD_MIN_BLOCK = 4096
FORWARD_BLOCK_WORK = 2**21


def _forward_block_rows(model: ModelParams) -> int:
    smallest = min(w.size for w, _ in model.backbone + model.heads)
    return max(FORWARD_MIN_BLOCK, -(-FORWARD_BLOCK_WORK // smallest))


def _row_blocks(model: ModelParams, n: int) -> list[tuple[int, int]]:
    """The pool pass's partition of n rows into near-equal blocks: one
    below two blocks of ``_forward_block_rows``, else ``n // block``."""
    blocks = max(n // _forward_block_rows(model), 1)
    bounds = [i * n // blocks for i in range(blocks + 1)]
    return list(zip(bounds, bounds[1:]))


def _pool_pass(model: ModelParams, x, rows, block_fn, columns=()) -> list:
    """Run the rows ``rows`` of the pool ``x`` (all, in order, when None)
    through ``forward`` in ``_row_blocks``'s blocks, the package's only row
    partition, calling ``block_fn((alpha1, alpha2), *cols)`` on the
    evidence of each block.  ``x`` is checked by ``_model_batch``, and
    every id by ``_id_array`` and against the range, before the first
    block runs.  One (n, *shape) array per shape in ``columns`` is
    allocated and returned; ``cols`` are their rows in the block.

    The blocks are ``_run_tasks``'s tasks on ``_pool_width`` workers, so a
    pass of one block starts no thread, and the lowest failing block's
    error is raised, as a serial loop would raise it.  A worker's only
    scratch is one (2, ``_scratch_size``) activation array, sized for the
    largest block and allocated here on the calling thread, whose malloc
    arena serves it (a helper's own arena would keep it mapped once freed).
    Each block is gathered into its layer -1 row (``_activations``),
    whatever the layout of ``x``, and its evidence stays there until the
    worker's next block.  Nothing is kept between calls, so concurrent
    passes share nothing; neither the partition nor a block's operations
    depend on the width, nor do the results.
    """
    x = _model_batch(model, x)
    rows = np.arange(len(x)) if rows is None else _id_array(rows, "row ids")
    outside = rows[(rows < 0) | (rows >= len(x))]
    if outside.size:
        raise IndexError(f"row ids outside [0, {len(x)}): {outside[:5].tolist()}")
    outputs = [np.empty((len(rows), *shape)) for shape in columns]
    blocks = _row_blocks(model, len(rows))
    width = _pool_width(len(blocks))
    size = _scratch_size(model, max(hi - lo for lo, hi in blocks))
    scratch = [np.empty((2, size)) for _ in range(width)]

    def run(lo, hi, worker):
        acts = scratch[worker]
        # "clip" writes straight into ``out``; "raise" would buffer the
        # block first, and the ids are already checked
        out = _activations(acts, -1, (hi - lo, x.shape[1]))
        block = np.take(x, rows[lo:hi], axis=0, out=out, mode="clip")
        alphas = forward(model, block, acts)
        block_fn(alphas, *(c[lo:hi] for c in outputs))

    _run_tasks([partial(run, lo, hi) for lo, hi in blocks], width)
    return outputs


def _score_block(alphas, u_data, u_dist, s_dis) -> None:
    """The three scores of one row block, written into the given columns.

    The check is ``data_uncertainty``'s and the scores come from the
    kernels behind ``data_uncertainty``, ``distribution_uncertainty`` and
    ``discrepancy_score``, with both uncertainties clipped at 0.  The
    heads' evidence is overwritten, and their average, allocated here,
    takes the digamma terms.  A non-finite head makes the average
    non-finite, so checking the average covers the heads too.
    """
    a1, a2 = alphas
    avg = np.add(a1, a2)
    avg *= 0.5
    _validate_alpha(avg)
    _head_distance(a1, a2, out=s_dis, diff=a1)
    _uncertainties(avg, u_data, u_dist, p=a1, psi=avg)
    np.maximum(u_data, 0.0, out=u_data)
    np.maximum(u_dist, 0.0, out=u_dist)


def score_pool(
    model: ModelParams,
    x: np.ndarray,
    rows: np.ndarray | None = None,
) -> PoolScores:
    """Evaluate the three selection scores for every example in x, or
    for the rows ``rows`` of x in that order.

    Uncertainties come from the element-wise average of the two heads'
    evidence; the discrepancy is the L2 distance between them.  ``u_dist``
    is ``distribution_uncertainty`` of that average, derived from the
    same ``u_data`` so the digamma terms are evaluated once.  Tiny
    negative values from floating-point cancellation are clipped to 0.

    The pool is streamed in ``_row_blocks``'s row blocks: each block's
    rows are gathered, run forward in the pass's per-worker scratch
    (``_pool_pass``) and scored (``_score_block``), so nothing pool-sized
    is built but the three score columns.  Every score is computed row by
    row, so the result is bitwise the closed forms on the whole of
    ``x[rows]``.  An out-of-range id raises IndexError, and ids that are
    not 1-D or a boolean or non-whole id ValueError, before any block runs.
    """
    return PoolScores(*_pool_pass(model, x, rows, _score_block, ((), (), ())))


def _check_scores(x: np.ndarray) -> None:
    """Raise ValueError naming the first score of x outside +-SCORE_LIMIT;
    nan and +-inf are outside too."""
    inside = np.abs(x) <= SCORE_LIMIT
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(f"scores must lie within +-{SCORE_LIMIT:g}; index {i} holds {x[i]}")


@dataclass
class GmmModel:
    """Two-component 1-D Gaussian mixture with its EM fit trace, in the
    units of the scores, which ``gmm_fit`` takes within +-SCORE_LIMIT."""

    means: np.ndarray  # shape (2,)
    variances: np.ndarray  # shape (2,), floored at VARIANCE_FLOOR
    weights: np.ndarray  # shape (2,), sums to 1
    log_likelihoods: list[float]  # per-iteration mean log-likelihood

    def _e_step(self, x: np.ndarray, cols: np.ndarray) -> None:
        """Both responsibility columns of 1-D x into ``cols[0]`` and
        ``cols[1]``, and each point's log-likelihood into ``cols[2]``, from
        one max-shifted logsumexp of the two components' log-joints, so a
        point far from both components cannot underflow to log(0).
        ``cols[3]`` is scratch; every array is as long as x, and everything
        is computed in place.

        Each component's log-joint is one contiguous column; the shift is
        the columns' element-wise maximum and the total their sum, which is
        what a max and a sum along a length-2 row give.  Every operation is
        element-wise, so the columns of a slice of x are the same slice of
        the columns of x.
        """
        r0, r1, ll, total = cols
        log_norm = -0.5 * np.log(2.0 * np.pi * self.variances)
        for c, log_w, log_n, m, v in zip(
            (r0, r1), np.log(self.weights), log_norm, self.means, self.variances
        ):
            # log_w + (log_n - 0.5 * (x - m) ** 2 / v)
            np.subtract(x, m, out=c)
            np.square(c, out=c)
            c *= 0.5
            c /= v
            np.subtract(log_n, c, out=c)
            c += log_w
        shift = np.maximum(r0, r1, out=ll)
        for c in (r0, r1):
            c -= shift
            np.exp(c, out=c)
        np.add(r0, r1, out=total)
        r0 /= total
        r1 /= total
        ll += np.log(total, out=total)

    def _posterior_columns(self, x) -> np.ndarray:
        """Responsibility columns of x, each point on its own."""
        x = np.asarray(x, dtype=float)
        _check_scores(x)
        cols = np.empty((4, x.size))
        self._e_step(x, cols)
        return cols[:2]

    def responsibilities(self, x: np.ndarray) -> np.ndarray:
        """Posterior component probabilities, shape (n, 2)."""
        return np.column_stack(self._posterior_columns(x))


def _m_step(x: np.ndarray, r: np.ndarray, tmp: np.ndarray):
    """Count, mean and floored variance of the component whose
    responsibilities are r; ``tmp`` is scratch as long as x.  Each total
    is one 1-D ``np.sum`` over a contiguous column, which adds pairwise, so
    on ``gmm_fit``'s sorted x it does not depend on the pool's order."""
    count = r.sum()
    mean = np.multiply(r, x, out=tmp).sum() / count
    # r * (x - mean) ** 2
    np.subtract(x, mean, out=tmp)
    np.square(tmp, out=tmp)
    tmp *= r
    variance = np.maximum(tmp.sum() / count, VARIANCE_FLOOR)
    return count, mean, variance


def gmm_fit(scores, max_iter: int = 200, tol: float = 1e-6) -> GmmModel:
    """EM fit of a two-mode Gaussian mixture to 1-D data.

    The data is sorted once, so the fit depends only on the multiset of
    scores, not on their order in the pool; the posterior
    (``gmm_posterior_low``) is element-wise and is evaluated on the scores
    as given.  Initialization splits the data at its median (equal
    weights, pooled variance), which makes the fit deterministic.  Each
    iteration takes the responsibilities and the per-point mean
    log-likelihood from one logsumexp pass (``GmmModel._e_step``), then
    each component's totals from pairwise sums (``_m_step``); the fit
    stops when the log-likelihood improves by less than ``tol``.  A fit
    that reaches ``max_iter`` first logs a warning with the iteration
    count and the last gain.  A score outside [-SCORE_LIMIT, SCORE_LIMIT],
    nan and +-inf among them, raises ValueError naming its first such index;
    fewer than two distinct values raise ``DegenerateDataError``.

    The log-likelihood is non-decreasing across iterations on scores up to
    1e6 in magnitude, which covers what the selector produces.  Far out it
    can fall: a component that collapses onto tied points can take the
    square of one ulp of their value as its variance, and then one ulp of
    rounding in its mean moves its density by a factor EM does not control
    (three ties near 5.8e16 lose 5.7 nats at the fourth iteration).
    """
    x = np.asarray(scores, dtype=float)
    if x.ndim != 1:
        raise ValueError("gmm_fit expects 1-D data")
    _check_scores(x)
    if x.size == 0 or (x == x[0]).all():
        raise DegenerateDataError(
            "need at least 2 distinct values to fit a two-mode mixture"
        )
    x = np.sort(x)
    med = np.median(x)
    low, high = x[x <= med], x[x > med]
    if high.size == 0:
        # an extreme duplicate mass at the median; split off the max instead
        high = x[x == x.max()]
        low = x[x < x.max()]
    pooled = max((low.var() * low.size + high.var() * high.size) / x.size, VARIANCE_FLOOR)
    means = np.array([low.mean(), high.mean()])
    variances = np.array([pooled, pooled])
    weights = np.array([0.5, 0.5])

    model = GmmModel(means, variances, weights, [])
    # rows: both responsibilities, the log-likelihoods and the E-step's
    # scratch, which the M-step reuses
    cols = np.empty((4, x.size))
    prev = -np.inf
    for _ in range(max_iter):
        model._e_step(x, cols)
        ll = float(cols[2].mean())
        model.log_likelihoods.append(ll)
        if ll - prev < tol and np.isfinite(prev):
            break
        prev = ll
        (c0, m0, v0), (c1, m1, v1) = (_m_step(x, r, cols[3]) for r in cols[:2])
        model.weights = np.array([c0, c1]) / x.size
        model.means = np.array([m0, m1])
        model.variances = np.array([v0, v1])
    else:
        lls = model.log_likelihoods
        logger.warning(
            "gmm_fit: EM stopped after %d iterations without converging; "
            "the last log-likelihood gain was %.3g (tol %.3g)",
            len(lls),
            lls[-1] - lls[-2] if len(lls) > 1 else np.inf,
            tol,
        )
    return model


def gmm_posterior_low(model: GmmModel, x: np.ndarray) -> np.ndarray:
    """Posterior probability of the lower-mean component for each value."""
    low = int(np.argmin(model.means))
    return model._posterior_columns(x)[low]


def _top(ids: np.ndarray, rank: np.ndarray, b: int) -> np.ndarray:
    """The first b of ``ids`` sorted by ``rank`` descending, then id
    ascending, as ``ids[np.lexsort((ids, -rank))][:b]`` gives them.

    Only the ids whose rank ties or beats the b-th one are sorted, found
    with a partition; when the b-th rank is NaN (NaN ranks sort last),
    every id is.
    """
    neg = -rank
    if b < neg.size:
        cut = np.partition(neg, b - 1)[b - 1]
        if not np.isnan(cut):
            keep = np.flatnonzero(neg <= cut)
            ids, neg = ids[keep], neg[keep]
    return ids[np.lexsort((ids, neg))[:b]]


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
    return _top(sub_ids, rank, budget)


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
    if budget <= 0:
        raise ValueError("budget must be positive")
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
        # a query shorter than the budget already holds every survivor
        rest = _top(ids[~sub_mask], posterior[~sub_mask], budget - query.size)
        query = np.concatenate([query, rest])
    return query


def _rank_rows(strategy: str, p: np.ndarray) -> np.ndarray:
    """``baseline_rank``'s block kernel: the per-row rank of averaged
    expected probabilities p (m, C) under a ranked baseline; the highest
    is queried first.  entropy: prediction entropy; least_confidence:
    1 - max p; margin: minus the gap between the two largest
    probabilities.  Any other name raises ValueError."""
    if strategy == "entropy":
        return entropy(p)
    if strategy == "least_confidence":
        return 1.0 - p.max(axis=1)
    if strategy != "margin":
        raise ValueError(f"no rank rule for strategy {strategy!r}")
    part = np.sort(p, axis=1)
    return -(part[:, -1] - part[:, -2])


def baseline_select(
    strategy: str,
    ids: np.ndarray,
    budget: int,
    seed=None,
    rank: np.ndarray | None = None,
) -> np.ndarray:
    """Classical pool-based strategies: the query of ``budget`` among ``ids``.

    random: uniform without replacement, reading no rank; entropy,
    least_confidence and margin: the top b by ``rank``, one value per id,
    which ``baseline_rank`` streams from a model.  A ranked strategy
    without a rank shaped like ``ids`` raises ValueError.  Deterministic
    given the seed; ties break by ascending id.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if strategy not in BASELINE_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    ids = np.asarray(ids)
    if ids.size == 0:
        raise ValueError("baseline_select requires a non-empty pool")
    budget = min(budget, ids.size)
    if strategy == "random":
        rng = np.random.default_rng(seed)
        order = np.argsort(ids)
        return np.sort(rng.choice(ids[order], size=budget, replace=False))
    if rank is None or np.shape(rank) != ids.shape:
        got = None if rank is None else np.shape(rank)
        raise ValueError(f"{strategy} needs a rank shaped like ids {ids.shape}, got {got}")
    return _top(ids, np.asarray(rank), budget)


def _mean_probs(alphas, out: np.ndarray) -> np.ndarray:
    """``0.5 * (expected_probs(alpha1) + expected_probs(alpha2))`` of one
    row block, with its checks, written into ``out``, which may be alpha1;
    the heads' evidence is overwritten."""
    a1, a2 = alphas
    for a in (a1, a2):
        _validate_alpha(a)
        _dirichlet_mean(a, out=a)
    out = np.add(a1, a2, out=out)
    out *= 0.5
    return out


def averaged_probs(
    model: ModelParams,
    x: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Mean of the two heads' expected probabilities, used for test
    accuracy.

    Streamed like ``score_pool``: ``rows`` selects and orders the rows of
    x, and each block's evidence is the pass's scratch.  Each block
    evaluates ``0.5 * (expected_probs(alpha1) + expected_probs(alpha2))``
    in place, with its checks, so the result is bitwise the whole-pool
    value.
    """
    return _pool_pass(model, x, rows, _mean_probs, ((model.num_classes,),))[0]


def baseline_rank(
    strategy: str,
    model: ModelParams,
    x: np.ndarray,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """The per-row rank a ranked baseline queries by, on the averaged
    probabilities of x (or of its rows ``rows``), for
    ``baseline_select(..., rank=)``.

    Streamed like ``averaged_probs``, whose block values it ranks in place
    with ``_rank_rows``, so no (n, C) array is built and the rank is
    bitwise ``_rank_rows`` of the whole pool's averaged probabilities.
    """
    if strategy not in RANKED_STRATEGIES:
        raise ValueError(f"unknown ranked strategy {strategy!r}")

    def rank_block(alphas, out):
        out[:] = _rank_rows(strategy, _mean_probs(alphas, alphas[0]))

    return _pool_pass(model, x, rows, rank_block, ((),))[0]
