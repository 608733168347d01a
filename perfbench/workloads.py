"""Benchmark workloads: grids of active-learning runs and their output checks.

A workload is a grid of cells (variant x seed) over one synthetic data
family.  ``api`` workloads call ``run_experiment`` in-process and write
each run's CSV with ``write_metrics_csv``; the ``cli`` workload drives
``openset-al run`` and ``openset-al report``.  Every cell's
metrics CSV is checked for invariants that hold for any seed and, where
a golden digest is recorded, for byte equality.

Nothing here imports openset_al at module level: the worker times that
import as part of set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Variant:
    name: str
    strategy: str
    train: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "api" or "cli"
    family: str  # data family, the first part of a golden key
    data: dict  # BlobSpec fields
    init_labeled_fraction: float
    train: dict  # TrainConfig fields shared by every cell
    variants: tuple[Variant, ...]
    num_seeds: int
    r: float = 0.5

    def seeds(self, seed: int) -> list[int]:
        return list(range(seed, seed + self.num_seeds))

    def cells(self, seed: int) -> list[tuple[Variant, int]]:
        return [(v, s) for v in self.variants for s in self.seeds(seed)]


DESK = dict(num_known=4, num_unknown=4, dim=16, per_class=250)
DESK_TRAIN = dict(query_size=60, num_cycles=5)
C2F = Variant("coarse_to_fine", "coarse_to_fine")
RANDOM = Variant("random", "random")
ENTROPY = Variant("entropy", "entropy")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk_grid",
            kind="api",
            family="desk",
            data=DESK,
            init_labeled_fraction=0.05,
            train=DESK_TRAIN,
            variants=(
                C2F,
                RANDOM,
                ENTROPY,
                Variant("no_discrepancy", "coarse_to_fine", {"use_discrepancy": False}),
                Variant("cross_entropy", "coarse_to_fine", {"train_loss": "cross_entropy"}),
            ),
            num_seeds=5,
        ),
        Workload(
            name="wide_pool",
            kind="api",
            family="wide",
            data=dict(num_known=10, num_unknown=10, dim=32, per_class=3000, radius=4.0),
            init_labeled_fraction=0.005,
            train=dict(
                query_size=400,
                num_cycles=5,
                epochs=10,
                lr_milestones=(6, 8),
                discrepancy_epochs=0,
            ),
            variants=(C2F, ENTROPY),
            num_seeds=9,
        ),
        Workload(
            name="cli_grid",
            kind="cli",
            family="desk",
            data=DESK,
            init_labeled_fraction=0.05,
            train=DESK_TRAIN,
            variants=(C2F, RANDOM, ENTROPY),
            num_seeds=3,
        ),
    )
}


def make_splits(workload: Workload, seed: int) -> dict:
    """One dataset per seed of the grid, built with ``make_blobs``."""
    from openset_al import BlobSpec, datasets

    return {
        s: datasets.make_blobs(
            BlobSpec(seed=s, **workload.data),
            workload.r,
            init_labeled_fraction=workload.init_labeled_fraction,
        )
        for s in workload.seeds(seed)
    }


def golden_key(workload: Workload, variant: Variant, seed: int) -> str:
    return f"{workload.family}/{variant.name}/s{seed}"


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


# -- output checks ---------------------------------------------------------


class CheckError(AssertionError):
    """A run's output broke an invariant or its golden digest."""


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = []
    for row in rows:
        try:
            out.append(
                {
                    "cycle": int(row["cycle"]),
                    "query_precision": (
                        float(row["query_precision"]) if row["query_precision"] else None
                    ),
                    "test_accuracy": float(row["test_accuracy"]),
                    "labeled": int(row["labeled_size"]),
                    "unlabeled": int(row["unlabeled_size"]),
                    "discarded": int(row["discarded_unknown"]),
                }
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckError(f"{path.name}: malformed row {row!r}") from exc
    return out


def check_rows(rows: list[dict], query_size: int, num_cycles: int, initial: tuple) -> None:
    """Invariants that hold for any seed, read from the metrics rows.

    * pools start as the generated split: (labeled, unlabeled, 0);
    * labeled + unlabeled + discarded stays constant;
    * each query removes min(query_size, pool) distinct ids from the pool
      (the unlabeled pool is a set, so its shrinkage counts distinct ids);
    * the labeled pool only grows by the query's known-class ids, so it
      stays known-class only; the rest of the query is discarded.
    """
    if not rows:
        raise CheckError("no metrics rows")
    if [r["cycle"] for r in rows] != list(range(len(rows))):
        raise CheckError("cycles are not numbered 0..n")
    first = rows[0]
    if (first["labeled"], first["unlabeled"], first["discarded"]) != (*initial, 0):
        raise CheckError(f"initial pools {first} differ from the split {initial}")
    if first["query_precision"] is not None:
        raise CheckError("cycle 0 reports a query precision")
    if len(rows) != num_cycles + 1 and rows[-1]["unlabeled"] != 0:
        raise CheckError(f"{len(rows) - 1} query cycles, expected {num_cycles}")
    total = sum(initial)
    for prev, cur in zip(rows, rows[1:]):
        if cur["labeled"] + cur["unlabeled"] + cur["discarded"] != total:
            raise CheckError(f"cycle {cur['cycle']}: pool sizes do not sum to {total}")
        size = prev["unlabeled"] - cur["unlabeled"]
        if size != min(query_size, prev["unlabeled"]):
            raise CheckError(f"cycle {cur['cycle']}: query of {size} distinct ids")
        known = cur["labeled"] - prev["labeled"]
        if not 0 <= known <= size or cur["query_precision"] != known / size:
            raise CheckError(
                f"cycle {cur['cycle']}: labeled pool grew by {known} of {size} "
                f"queried, precision {cur['query_precision']}"
            )
    for r in rows:
        if not 0.0 <= r["test_accuracy"] <= 1.0:
            raise CheckError(f"cycle {r['cycle']}: accuracy {r['test_accuracy']}")


def check_cell(path: Path, workload: Workload, split, key: str, golden: dict) -> tuple[str, list[dict]]:
    """Check one run's CSV; returns its sha256 and parsed rows."""
    data = path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if key in golden and golden[key] != digest:
        raise CheckError(f"{key}: sha256 {digest[:12]} differs from golden {golden[key][:12]}")
    rows = read_rows(path)
    check_rows(
        rows,
        workload.train["query_size"],
        workload.train["num_cycles"],
        (len(split.labeled_ids), len(split.unlabeled_ids)),
    )
    return digest, rows


# -- one pass over a workload's grid ---------------------------------------


@dataclass
class CellResult:
    key: str
    ok: bool
    error: str = ""
    digest: str = ""
    cycle_times: list[float] = field(default_factory=list)
    query_precision: list[float] = field(default_factory=list)
    final_accuracy: float | None = None


def _result(key, path, workload, split, golden, cycle_times) -> CellResult:
    try:
        digest, rows = check_cell(path, workload, split, key, golden)
    except (CheckError, OSError) as exc:
        return CellResult(key, False, f"{type(exc).__name__}: {exc}")
    return CellResult(
        key,
        True,
        digest=digest,
        cycle_times=cycle_times,
        query_precision=[r["query_precision"] for r in rows[1:]],
        final_accuracy=rows[-1]["test_accuracy"],
    )


def run_api_pass(workload: Workload, splits: dict, cells, outdir: Path, golden: dict, context=None) -> list[CellResult]:
    """Run the given cells in-process; a cell that raises counts as failed.
    ``context`` (a tracer's) is told which split each cell runs on."""
    from openset_al import TrainConfig, harness

    results = []
    for variant, s in cells:
        key = golden_key(workload, variant, s)
        if context is not None:
            context["split"] = splits[s]
        try:
            cfg = TrainConfig(seed=s, **workload.train, **variant.train)
            metrics = harness.run_experiment(splits[s], cfg, variant.strategy)
            path = outdir / f"{variant.name}_s{s}.csv"
            harness.write_metrics_csv(path, metrics, variant.strategy, s, workload.r)
        except Exception as exc:  # the benchmark keeps going and counts it
            results.append(CellResult(key, False, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(
            _result(key, path, workload, splits[s], golden, [m.wall_time for m in metrics])
        )
    return results


def cli_config(workload: Workload, seed: int, outdir: Path) -> dict:
    data = dict(workload.data, init_labeled_fraction=workload.init_labeled_fraction)
    train = {k: v for k, v in workload.train.items() if k not in ("query_size", "num_cycles")}
    return {
        "strategies": [v.strategy for v in workload.variants],
        "openness_ratios": [workload.r],
        "seeds": workload.seeds(seed),
        "output_dir": str(outdir),
        "query_size": workload.train["query_size"],
        "num_cycles": workload.train["num_cycles"],
        "data": data,
        "train": train,
    }


def run_cli_pass(workload: Workload, seed: int, splits: dict, outdir: Path, golden: dict) -> tuple[list[CellResult], dict]:
    """``openset-al run`` then ``openset-al report`` on a fresh
    directory.  A cell whose CSV is missing or fails a check counts as
    failed; so does a nonzero exit of either command."""
    from openset_al import cli

    outdir.mkdir(parents=True, exist_ok=True)
    config = outdir.parent / f"{outdir.name}.json"
    config.write_text(json.dumps(cli_config(workload, seed, outdir)))
    with contextlib.redirect_stdout(io.StringIO()):
        rc_run = cli.main(["run", "--config", str(config)])
        rc_report = cli.main(["report", "--dir", str(outdir)]) if rc_run == 0 else None
    results, busy = [], 0.0
    for variant, s in workload.cells(seed):
        key = golden_key(workload, variant, s)
        tag = f"{variant.strategy}_r{workload.r:g}_s{s}"
        try:
            manifest = json.loads((outdir / f"manifest_{tag}.json").read_text())
        except (OSError, json.JSONDecodeError) as exc:
            results.append(CellResult(key, False, f"{type(exc).__name__}: {exc}"))
            continue
        busy += manifest["total_wall_time"]
        times = [c["wall_time"] for c in manifest["cycles"]]
        results.append(_result(key, outdir / f"metrics_{tag}.csv", workload, splits[s], golden, times))
    if rc_run != 0 or rc_report != 0:
        for r in results:
            if r.ok:
                r.ok, r.error = False, f"cli exited run={rc_run} report={rc_report}"
    written = sum(p.stat().st_size for p in outdir.iterdir() if p.is_file())
    return results, {"busy_s": busy, "bytes_written": written, "cells": len(results)}
