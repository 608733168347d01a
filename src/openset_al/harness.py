"""Multi-cycle active-learning loop over an open-set pool.

Protocol per run: train a fresh model on the initial labeled pool and
record its test accuracy (cycle 0), then for each query cycle score the
unlabeled pool with the current model, select a batch, send it to the
simulated oracle, retrain from a fresh seeded initialization on the
enlarged labeled pool, and evaluate.  Queried known-class examples join
the labeled pool with their true labels; queried unknown-class examples
are discarded and never re-queried, and both kinds consume budget.
The cycle-0 model does not depend on the strategy, so ``first_cycle``
trains it once for every strategy run on one split.

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

from .datasets import DatasetSplit, Pool, _id_array
from .model import ModelParams, TrainConfig, init_model, train_cycle
from .selection import (
    BASELINE_STRATEGIES,
    FORWARD_MIN_BLOCK,
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
    "FirstCycle",
    "STRATEGIES",
    "first_cycle",
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
    Cycle 0 counts the initial training only when the run made it, not
    when it was given a ``FirstCycle``.  The last cycle also counts its
    own evaluation, so a run's cycles sum to the run.
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
    """Resolve a query batch, a 1-D array of ids, against the hidden true labels.

    Known-class ids become labeled and unknown-class ids discarded in a new
    split.  Raises if the query is not 1-D, or any id is not a whole number
    (a boolean or string is not), out of range, repeated or not unlabeled.
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
    features: np.ndarray,
    ids: np.ndarray,
    cfg: TrainConfig,
    budget: int,
    seed,
) -> np.ndarray:
    """The next query of ``budget`` of the unlabeled ``ids`` under ``strategy``.

    The pool is scored through its ids, block by block, never gathered:
    coarse_to_fine reads ``score_pool``; a ranked baseline passes the ids
    and their streamed ``baseline_rank`` to ``baseline_select``; random
    reads no model output, so it runs no pool pass.
    """
    if strategy == "coarse_to_fine":
        scores = score_pool(model, features, rows=ids)
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
        rank = baseline_rank(strategy, model, features, rows=ids)
    return baseline_select(strategy, ids, budget, seed=seed, rank=rank)


def _cycle_seeds(cfg: TrainConfig) -> list:
    """Each cycle's (init, shuffle, select) seeds, 0 to ``cfg.num_cycles``:
    children 0, 1 and none (no query) of the master seed's child 0, and
    3, 4 and 2 of a query cycle's child, which spawns its five at once."""
    first, *queries = np.random.SeedSequence(cfg.seed).spawn(cfg.num_cycles + 1)
    children = [cycle.spawn(5) for cycle in queries]
    return [(*first.spawn(2), None)] + [(c[3], c[4], c[2]) for c in children]


def _training(split: DatasetSplit, cfg: TrainConfig, seeds, labeled, unlabeled):
    """The task that trains a cycle's fresh model on the ``labeled`` ids
    of ``split``, and on its ``unlabeled`` ids when the discrepancy phase
    reads them, from the init and shuffle seeds of its ``_cycle_seeds``
    entry ``seeds``.  The rows are gathered here, on the calling thread."""
    init_seed, shuffle_seed, _ = seeds
    x_lab, y_lab = split.features[labeled], split.model_labels(labeled)
    x_unl = split.features[unlabeled] if cfg.runs_discrepancy else None

    def train(worker):
        fresh = init_model(
            split.features.shape[1],
            split.num_classes,
            hidden_widths=cfg.hidden_widths,
            seed=init_seed,
            head_init_scale=cfg.head_init_scale,
        )
        rng = np.random.default_rng(shuffle_seed)
        return train_cycle(fresh, x_lab, y_lab, x_unl, cfg, rng=rng)

    return train


@dataclass(frozen=True, eq=False)
class FirstCycle:
    """The cycle-0 model of one split under one ``TrainConfig``, which
    depends on neither the strategy nor anything a run does after it.

    ``split`` is the split it was trained on, with a copy of its status,
    so that ``run_experiment`` can refuse it for another split or config;
    ``wall_time`` is the seconds its training took.
    """

    model: ModelParams
    cfg: TrainConfig
    split: DatasetSplit
    wall_time: float

    def check(self, split: DatasetSplit, cfg: TrainConfig) -> None:
        """ValueError unless this model was trained under ``cfg`` on the
        feature store, labels and status of ``split``."""
        if cfg != self.cfg:
            raise ValueError("the first cycle was trained under another TrainConfig")
        trained = self.split
        if (
            split.features is not trained.features
            or split.true_labels is not trained.true_labels
            or split.known_classes != trained.known_classes
        ):
            raise ValueError("the first cycle was trained on another feature store")
        if not np.array_equal(split.status, trained.status):
            raise ValueError("the first cycle was trained on another status array")


def first_cycle(split: DatasetSplit, cfg: TrainConfig) -> FirstCycle:
    """Train and time the cycle-0 model that every strategy's run of
    ``split`` under ``cfg`` starts from, with the seeds cycle 0 of
    ``run_experiment`` uses, ``_cycle_seeds(cfg)[0]``.

    This is where a run checks its split, once: a config that fails
    ``TrainConfig.validate`` or a split that fails
    ``DatasetSplit.validate`` raises ValueError before any model trains.
    """
    cfg.validate()
    split.validate()
    t0 = time.perf_counter()
    train = _training(split, cfg, _cycle_seeds(cfg)[0], split.labeled_ids, split.unlabeled_ids)
    model = train(0)
    trained = replace(split, status=split.status.copy())
    return FirstCycle(model, cfg, trained, wall_time=time.perf_counter() - t0)


def run_experiment(
    split: DatasetSplit,
    cfg: TrainConfig,
    strategy: str,
    first: FirstCycle | None = None,
) -> list[CycleMetrics]:
    """Run the full query loop and return one metrics row per cycle,
    including the cycle-0 evaluation of the initial model.

    The initial model is ``first``, or, without it, ``first_cycle(split,
    cfg)``'s, whose input checks raise before any model trains.  A
    ``first`` trained under another config or on another split raises
    ValueError before anything trains.  The split is checked there only:
    ``oracle_label`` moves unlabeled ids to the labeled (known classes)
    or discarded pool, so each cycle's split stays valid.  Cycle 0's
    ``wall_time`` counts the initial training only when the run made it.
    Each query cycle selects and trains with its ``_cycle_seeds`` entry.

    The pool and the test set are read through their ids from
    ``split.features``, never gathered whole.  Each cycle derives its
    labeled, unlabeled and discarded ids once.

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
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    t0 = time.perf_counter()
    if first is None:
        first = first_cycle(split, cfg)
    else:
        first.check(split, cfg)
    model = first.model
    features = split.features
    test_ids = split.ids(Pool.TEST)
    y_test = split.model_labels(test_ids)
    width = _pool_width(2) if len(test_ids) >= FORWARD_MIN_BLOCK else 1
    metrics = []

    def evaluate(model):
        return evaluate_accuracy(model, features, y_test, rows=test_ids)

    def row(cycle, labeled, unlabeled, query_precision=None, truncated=False):
        """The newest model's row fields, timed since ``t0``, until its
        test accuracy is read."""
        return dict(
            cycle=cycle,
            query_precision=query_precision,
            labeled_size=len(labeled),
            unlabeled_size=len(unlabeled),
            discarded_unknown=len(split.ids(Pool.DISCARDED)),
            truncated=truncated,
            wall_time=time.perf_counter() - t0,
        )

    unlabeled = split.unlabeled_ids
    fields = row(0, split.labeled_ids, unlabeled)
    for cycle, seeds in enumerate(_cycle_seeds(cfg)[1:], start=1):
        if len(unlabeled) == 0:
            break
        t0 = time.perf_counter()
        budget = min(cfg.query_size, len(unlabeled))
        query = _select(strategy, model, features, unlabeled, cfg, budget, seeds[2])
        known_in_query = int(split.is_known(split.true_labels[query]).sum())
        split = oracle_label(query, split)
        labeled, unlabeled = split.labeled_ids, split.unlabeled_ids
        train = _training(split, cfg, seeds, labeled, unlabeled)
        previous = model
        accuracy, model = _run_tasks([lambda worker: evaluate(previous), train], width)
        metrics.append(CycleMetrics(**fields, test_accuracy=accuracy))
        fields = row(
            cycle,
            labeled,
            unlabeled,
            query_precision=known_in_query / len(query),
            truncated=len(query) < cfg.query_size,
        )
    t0 = time.perf_counter()
    accuracy = evaluate(model)
    fields["wall_time"] += time.perf_counter() - t0
    metrics.append(CycleMetrics(**fields, test_accuracy=accuracy))
    return metrics


def write_metrics_csv(path, metrics, strategy: str, seed: int, r: float) -> None:
    """One row per cycle, its columns in ``METRICS_COLUMNS`` order.  The
    wall_time column is left empty so identical seeds yield byte-identical
    files; measured timings are reported in the run manifest."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_COLUMNS)
        for m in metrics:
            row = {**asdict(m), "strategy": strategy, "seed": seed, "r": float(r), "wall_time": ""}
            writer.writerow([row[column] for column in METRICS_COLUMNS])


def write_manifest(
    path,
    resolved_config: dict,
    metrics,
    strategy: str,
    seed: int,
    r: float,
    shared: dict | None = None,
    jobs: int = 1,
) -> None:
    """Self-describing JSON record of one run: the fully resolved config
    plus per-cycle metrics including wall-clock timings.  ``shared``,
    when given, is recorded as is under ``first_cycle``: the seconds of a
    cycle-0 training that several runs share, which none of their cycles
    count, and the runs' tags.  ``jobs`` records how many processes ran
    runs at once, 1 meaning this one alone, since the CPUs they shared
    set the timings."""
    payload = {
        "strategy": strategy,
        "seed": int(seed),
        "openness_ratio": float(r),
        "config": resolved_config,
        "cycles": [asdict(m) for m in metrics],
        "total_wall_time": sum(m.wall_time for m in metrics),
        "truncated_final_query": any(m.truncated for m in metrics),
        "jobs": jobs,
    }
    if shared is not None:
        payload["first_cycle"] = shared
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
