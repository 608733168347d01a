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
from dataclasses import asdict, dataclass, field

import numpy as np

from .datasets import DatasetSplit
from .model import ModelParams, TrainConfig, init_model, train_cycle
from .selection import (
    BASELINE_STRATEGIES,
    averaged_probs,
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
    reruns with the same seed compare equal."""

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

    Known-class ids move to the labeled pool; unknown-class ids move to
    the discarded pool.  Raises if any id is not currently unlabeled.
    """
    query = np.asarray(query_ids, dtype=int)
    if np.unique(query).size != query.size:
        raise ValueError("query contains duplicate ids")
    in_pool = np.isin(query, split.unlabeled_ids)
    if not in_pool.all():
        missing = query[~in_pool].tolist()
        raise ValueError(f"query ids not in the unlabeled pool: {missing}")
    known = split.is_known(split.true_labels[query])
    return DatasetSplit(
        features=split.features,
        true_labels=split.true_labels,
        known_classes=split.known_classes,
        labeled_ids=np.sort(np.concatenate([split.labeled_ids, query[known]])),
        unlabeled_ids=np.setdiff1d(split.unlabeled_ids, query),
        test_ids=split.test_ids,
        openness=split.openness,
        discarded_ids=np.sort(np.concatenate([split.discarded_ids, query[~known]])),
    )


def evaluate_accuracy(model: ModelParams, x_test: np.ndarray, y_test: np.ndarray) -> float:
    """Fraction of test examples whose averaged-head prediction matches;
    argmax ties resolve to the lowest class index."""
    if len(x_test) == 0:
        raise ValueError("empty test set")
    probs = averaged_probs(model, x_test)
    return float((probs.argmax(axis=1) == np.asarray(y_test)).mean())


def _select(
    strategy: str,
    model: ModelParams,
    split: DatasetSplit,
    cfg: TrainConfig,
    budget: int,
    seed,
) -> np.ndarray:
    x_pool = split.unlabeled_features()
    ids = split.unlabeled_ids
    if strategy == "coarse_to_fine":
        scores = score_pool(model, x_pool)
        return coarse_to_fine_select(
            scores,
            ids,
            budget=budget,
            alpha_coef=cfg.alpha_coef,
            beta_coef=cfg.beta_coef,
            threshold=cfg.coarse_threshold,
            use_discrepancy=cfg.use_discrepancy,
        )
    if strategy in BASELINE_STRATEGIES:
        probs = averaged_probs(model, x_pool)
        return baseline_select(strategy, probs, ids, budget, seed=seed)
    raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")


def run_experiment(
    split: DatasetSplit, cfg: TrainConfig, strategy: str
) -> list[CycleMetrics]:
    """Run the full query loop and return one metrics row per cycle,
    including the cycle-0 evaluation of the initial model."""
    cfg.validate()
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    master = np.random.SeedSequence(cfg.seed)
    cycle_seeds = master.spawn(cfg.num_cycles + 1)
    x_test, y_test = split.test_arrays()
    num_classes = split.num_classes

    def train_fresh(cur_split: DatasetSplit, cycle: int) -> ModelParams:
        init_seq, shuffle_seq = cycle_seeds[cycle].spawn(2)
        model = init_model(
            cur_split.features.shape[1],
            num_classes,
            hidden_widths=cfg.hidden_widths,
            seed=init_seq,
            head_init_scale=cfg.head_init_scale,
        )
        x_lab, y_lab = cur_split.labeled_arrays()
        return train_cycle(
            model,
            x_lab,
            y_lab,
            cur_split.unlabeled_features(),
            cfg,
            rng=np.random.default_rng(shuffle_seq),
        )

    t0 = time.perf_counter()
    model = train_fresh(split, 0)
    metrics = [
        CycleMetrics(
            cycle=0,
            query_precision=None,
            test_accuracy=evaluate_accuracy(model, x_test, y_test),
            labeled_size=len(split.labeled_ids),
            unlabeled_size=len(split.unlabeled_ids),
            discarded_unknown=len(split.discarded_ids),
            wall_time=time.perf_counter() - t0,
        )
    ]
    for cycle in range(1, cfg.num_cycles + 1):
        if len(split.unlabeled_ids) == 0:
            break
        t0 = time.perf_counter()
        budget = min(cfg.query_size, len(split.unlabeled_ids))
        select_seed = cycle_seeds[cycle].spawn(3)[2]
        query = _select(strategy, model, split, cfg, budget, select_seed)
        known_in_query = int(split.is_known(split.true_labels[query]).sum())
        split = oracle_label(query, split)
        split.validate(check_openness=False)
        model = train_fresh(split, cycle)
        metrics.append(
            CycleMetrics(
                cycle=cycle,
                query_precision=known_in_query / len(query),
                test_accuracy=evaluate_accuracy(model, x_test, y_test),
                labeled_size=len(split.labeled_ids),
                unlabeled_size=len(split.unlabeled_ids),
                discarded_unknown=len(split.discarded_ids),
                truncated=len(query) < cfg.query_size,
                wall_time=time.perf_counter() - t0,
            )
        )
    return metrics


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


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
                    _fmt(float(r)),
                    _fmt(m.query_precision),
                    _fmt(m.test_accuracy),
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
