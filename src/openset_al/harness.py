"""Multi-cycle active-learning loop over an open-set pool.

Protocol per run: train a fresh model on the initial labeled pool and
record its test accuracy (cycle 0), then for each query cycle score the
unlabeled pool with the current model, select a batch, send it to the
simulated oracle, retrain from a fresh seeded initialization on the
enlarged labeled pool, and evaluate.  Queried known-class examples join
the labeled pool with their true labels; queried unknown-class examples
are discarded and never re-queried, and both kinds consume budget.

Everything is driven by one master seed: per-cycle child seeds cover
model initialization, batch shuffling, and any selection randomness, so
two runs with the same configuration produce identical metrics.  The
metrics CSV is byte-reproducible; wall-clock timings go to the JSON run
manifest instead (a CSV column stays reserved for them).
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .datasets import DatasetSplit, Pool
from .model import ModelParams, TrainConfig, init_model, train_cycle
from .selection import (
    BASELINE_STRATEGIES,
    FORWARD_MIN_BLOCK,
    _id_array,
    _pool_width,
    _run_tasks,
    averaged_probs,
    baseline_rank,
    baseline_select,
    coarse_to_fine_select,
    score_pool,
)

__all__ = [
    "CycleMetrics",
    "STRATEGIES",
    "oracle_label",
    "evaluate_accuracy",
    "run_experiment",
    "write_metrics_csv",
    "write_manifest",
    "METRICS_COLUMNS",
]

STRATEGIES = ("coarse_to_fine",) + BASELINE_STRATEGIES

METRICS_COLUMNS = (
    "cycle",
    "strategy",
    "seed",
    "r",
    "query_precision",
    "test_accuracy",
    "labeled_size",
    "unlabeled_size",
    "discarded_unknown",
    "wall_time",
)


@dataclass
class CycleMetrics:
    """Bookkeeping for one cycle; wall_time is excluded from equality so
    reruns with the same seed compare equal.

    ``wall_time`` is the seconds of the ``run_experiment`` loop iteration
    that produced the cycle's model: its selection, oracle and training,
    beside (or, at a width of 1, after) the previous model's evaluation.
    The last cycle also counts its own evaluation, so a run's cycles sum
    to the run.
    """

    cycle: int
    query_precision: float | None
    test_accuracy: float
    labeled_size: int
    unlabeled_size: int
    discarded_unknown: int
    truncated: bool = False
    wall_time: float = field(default=0.0, compare=False)


def oracle_label(query_ids, split: DatasetSplit) -> DatasetSplit:
    """Resolve a query batch against the hidden true labels.

    Known-class ids become labeled and unknown-class ids discarded in a new
    split.  Raises if any id is not a whole number (a boolean or string
    is not), out of range, repeated or not unlabeled.
    """
    query = _id_array(query_ids, "query ids")
    outside = query[(query < 0) | (query >= len(split.status))]
    if outside.size:
        raise ValueError(f"query ids outside [0, {len(split.status)}): {outside.tolist()}")
    if np.unique(query).size != query.size:
        raise ValueError("query contains duplicate ids")
    in_pool = split.status[query] == Pool.UNLABELED
    if not in_pool.all():
        raise ValueError(f"query ids not in the unlabeled pool: {query[~in_pool].tolist()}")
    known = split.is_known(split.true_labels[query])
    status = split.status.copy()
    status[query] = np.where(known, Pool.LABELED, Pool.DISCARDED)
    return replace(split, status=status)


def evaluate_accuracy(
    model: ModelParams,
    x_test: np.ndarray,
    y_test: np.ndarray,
    rows: np.ndarray | None = None,
) -> float:
    """Fraction of test examples whose averaged-head prediction matches;
    argmax ties resolve to the lowest class index.  With ``rows``, the
    test set is those rows of the feature store ``x_test``, streamed
    through ``averaged_probs`` without being gathered, and ``y_test`` is
    aligned with ``rows``: one label per test row, or ValueError."""
    n = len(x_test) if rows is None else len(rows)
    if n == 0:
        raise ValueError("empty test set")
    y_test = np.asarray(y_test)
    if y_test.shape != (n,):
        raise ValueError(f"test labels of shape {y_test.shape} for {n} test rows")
    probs = averaged_probs(model, x_test, rows=rows)
    return float((probs.argmax(axis=1) == y_test).mean())


def _select(
    strategy: str,
    model: ModelParams,
    split: DatasetSplit,
    cfg: TrainConfig,
    budget: int,
    seed,
) -> np.ndarray:
    """The next query of ``budget`` unlabeled ids under ``strategy``.

    The pool is scored through its ids, block by block, never gathered:
    coarse_to_fine reads ``score_pool``; a ranked baseline passes the ids
    and their streamed ``baseline_rank`` to ``baseline_select``; random
    reads no model output, so it runs no pool pass.
    """
    ids = split.unlabeled_ids
    if strategy == "coarse_to_fine":
        scores = score_pool(model, split.features, rows=ids)
        return coarse_to_fine_select(
            scores,
            ids,
            budget=budget,
            alpha_coef=cfg.alpha_coef,
            beta_coef=cfg.beta_coef,
            threshold=cfg.coarse_threshold,
            use_discrepancy=cfg.use_discrepancy,
        )
    rank = None
    if strategy != "random":
        rank = baseline_rank(strategy, model, split.features, rows=ids)
    return baseline_select(strategy, ids, budget, seed=seed, rank=rank)


def run_experiment(
    split: DatasetSplit, cfg: TrainConfig, strategy: str
) -> list[CycleMetrics]:
    """Run the full query loop and return one metrics row per cycle,
    including the cycle-0 evaluation of the initial model.  A split that
    fails ``DatasetSplit.validate`` (openness aside), or an empty labeled
    or test pool, raises ValueError before any model trains.

    The pool and the test set are read through their ids from
    ``split.features``, never gathered whole.

    Each model's test accuracy is measured once the next cycle has made
    its query: ``_run_tasks`` runs the evaluation as task 0, on the
    calling thread, where its pass allocates its scratch, beside that
    cycle's training as task 1.  The width is 2 when the test set holds
    at least ``FORWARD_MIN_BLOCK`` rows and the process may use two
    workers, else 1, which evaluates, then trains, on the calling thread.
    The row is appended then; the last model is evaluated after the loop.
    Evaluation reads nothing training writes, so the rows do not depend
    on the width.
    """
    cfg.validate()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    split.validate(check_openness=False)
    for pool in (Pool.LABELED, Pool.TEST):
        if not np.any(split.status == pool):
            raise ValueError(f"the {pool.name.lower()} pool is empty")
    cycle_seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.num_cycles + 1)
    features = split.features
    test_ids = split.ids(Pool.TEST)
    y_test = split.model_labels(test_ids)
    width = _pool_width(2) if len(test_ids) >= FORWARD_MIN_BLOCK else 1
    metrics = []
    # the newest model's row fields, until its test accuracy is read
    row = None

    def evaluate(model):
        return evaluate_accuracy(model, features, y_test, rows=test_ids)

    for cycle, cycle_seed in enumerate(cycle_seeds):
        if cycle and len(split.unlabeled_ids) == 0:
            break
        t0 = time.perf_counter()
        query_precision, truncated = None, False
        if cycle:
            budget = min(cfg.query_size, len(split.unlabeled_ids))
            # SeedSequence.spawn is stateful: the select seed is child 2 of
            # this spawn, so the init and shuffle seeds below are children
            # 3 and 4 (0 and 1 in cycle 0, which makes no query).
            select_seed = cycle_seed.spawn(3)[2]
            query = _select(strategy, model, split, cfg, budget, select_seed)
            known_in_query = int(split.is_known(split.true_labels[query]).sum())
            query_precision = known_in_query / len(query)
            truncated = len(query) < cfg.query_size
            split = oracle_label(query, split)
            split.validate(check_openness=False)
        init_seq, shuffle_seq = cycle_seed.spawn(2)
        x_lab, y_lab = split.labeled_arrays()
        x_unl = split.unlabeled_features() if cfg.runs_discrepancy else None

        def train(worker):
            fresh = init_model(
                features.shape[1],
                split.num_classes,
                hidden_widths=cfg.hidden_widths,
                seed=init_seq,
                head_init_scale=cfg.head_init_scale,
            )
            rng = np.random.default_rng(shuffle_seq)
            return train_cycle(fresh, x_lab, y_lab, x_unl, cfg, rng=rng)

        if row is None:
            model = train(0)
        else:
            previous = model
            accuracy, model = _run_tasks([lambda worker: evaluate(previous), train], width)
            metrics.append(CycleMetrics(**row, test_accuracy=accuracy))
        row = dict(
            cycle=cycle,
            query_precision=query_precision,
            labeled_size=len(split.labeled_ids),
            unlabeled_size=len(split.unlabeled_ids),
            discarded_unknown=len(split.ids(Pool.DISCARDED)),
            truncated=truncated,
            wall_time=time.perf_counter() - t0,
        )
    t0 = time.perf_counter()
    accuracy = evaluate(model)
    row["wall_time"] += time.perf_counter() - t0
    metrics.append(CycleMetrics(**row, test_accuracy=accuracy))
    return metrics


def write_metrics_csv(path, metrics, strategy: str, seed: int, r: float) -> None:
    """One row per cycle in the fixed column order.  The wall_time column
    is left empty so identical seeds yield byte-identical files; measured
    timings are reported in the run manifest."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for m in metrics:
            writer.writerow(
                [
                    m.cycle,
                    strategy,
                    seed,
                    float(r),
                    m.query_precision,
                    m.test_accuracy,
                    m.labeled_size,
                    m.unlabeled_size,
                    m.discarded_unknown,
                    "",
                ]
            )


def write_manifest(
    path, resolved_config: dict, metrics, strategy: str, seed: int, r: float
) -> None:
    """Self-describing JSON record of one run: the fully resolved config
    plus per-cycle metrics including wall-clock timings."""
    payload = {
        "strategy": strategy,
        "seed": seed,
        "openness_ratio": r,
        "config": resolved_config,
        "cycles": [asdict(m) for m in metrics],
        "total_wall_time": sum(m.wall_time for m in metrics),
        "truncated_final_query": any(m.truncated for m in metrics),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
