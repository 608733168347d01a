"""Batch command-line frontend.

Three subcommands:

* ``run --config cfg.json [--jobs N]``  executes the cross product of
  strategies x openness ratios x seeds, writing one metrics CSV and one
  JSON manifest per run into the configured output directory.  The runs
  of one (ratio, seed) group share its split and its cycle-0 model.  The
  groups run in one process per CPU in the affinity mask, capped at the
  number of groups; ``--jobs N`` sets that count instead, and ``--jobs
  1``, like a one-CPU mask or a one-group grid, runs them in-process, in
  order, where they can be traced and debugged.
* ``report --dir results/``  aggregates run CSVs into a final-accuracy
  summary table and a per-cycle query-precision series, both plot-ready.
* ``check [--config cfg.json]``  runs the fast invariant suite and prints
  one pass/fail line per property.

Exit codes: 0 success, 1 runtime or property failure, 2 usage/config
error.  A config file that cannot be read, holds no JSON object or fails
validation exits 2 from ``run`` and ``check`` alike, before any run or
check starts.  Every omitted config field takes its reference default,
and the fully resolved config is echoed into each run manifest.  The
environment variable OPENSET_AL_SEED, when set, overrides the configured
seed list; like every seed, it must be a non-negative integer.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import partial
from itertools import product
from pathlib import Path

from . import selection
from .checks import run_checks
from .datasets import BlobSpec, _class_count, _unknown_count, load_idx, make_blobs
from .harness import (
    METRICS_COLUMNS,
    STRATEGIES,
    first_cycle,
    run_experiment,
    write_manifest,
    write_metrics_csv,
)
from .model import TrainConfig

__all__ = ["main", "resolve_config", "ConfigError"]

SEED_ENV_VAR = "OPENSET_AL_SEED"

# The run grid owns the seed; query_size and num_cycles are top-level.
BLOB_FIELDS = tuple(f.name for f in dataclasses.fields(BlobSpec) if f.name != "seed")
TRAIN_DEFAULTS = {
    f.name: f.default
    for f in dataclasses.fields(TrainConfig)
    if f.name not in ("seed", "query_size", "num_cycles")
}

DATA_DEFAULTS = {
    **{name: getattr(BlobSpec, name) for name in BLOB_FIELDS},
    "init_labeled_fraction": 0.05,
    "test_fraction": 0.2,
    "idx": None,
}
IDX_DEFAULTS = {"images": "", "labels": "", "known_classes": ()}

GRID_FIELDS = ("strategies", "openness_ratios", "seeds")
REQUIRED_FIELDS = (*GRID_FIELDS, "output_dir")
ROOT_DEFAULTS = {
    # _typed passes None and {} on unchecked, for _grid and _fields to read
    **dict.fromkeys(GRID_FIELDS),
    "output_dir": "",
    "query_size": TrainConfig.query_size,
    "num_cycles": TrainConfig.num_cycles,
    "data": {},
    "train": {},
}


class ConfigError(ValueError):
    """Configuration problem; the message names the offending field."""


def _array(field: str, value) -> list:
    """``value`` if it is a JSON array; a string or object, though it iterates, is not."""
    if not isinstance(value, list):
        raise ConfigError(f"field '{field}' must be a JSON array, got {value!r}")
    return value


def _as_int(field: str, value) -> int:
    """An integer, or a float with an integral value; bools are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"field '{field}' must be an integer, got {value!r}")


def _as_seed(field: str, value) -> int:
    """A non-negative integer, which numpy's generators accept as a seed."""
    seed = _as_int(field, value)
    if seed < 0:
        raise ConfigError(f"field '{field}' must hold non-negative integers, got {seed}")
    return seed


def _distinct(field: str, values, tag=repr) -> None:
    """Reject two values of a grid field whose runs would write the same
    files: equal values, or values with the same ``tag``."""
    seen = {}
    for value in values:
        key = tag(value)
        if key in seen:
            if seen[key] == value:
                raise ConfigError(f"field '{field}' repeats {value!r}")
            raise ConfigError(
                f"field '{field}' values {seen[key]!r} and {value!r} both name their "
                f"runs {key!r}"
            )
        seen[key] = value


def _as_float(field: str, value) -> float:
    """Any finite int or float; bools, strings and the NaN and Infinity
    that Python's json accepts are rejected."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and math.isfinite(value):
        return float(value)
    raise ConfigError(f"field '{field}' must be a finite number, got {value!r}")


def _typed(field: str, default, value):
    """``value`` checked against the type of the field's ``default``.

    bool and str fields take only that type; int and float fields go
    through ``_as_int`` / ``_as_float``; tuple fields take a JSON array of
    integers.  Fields whose default is None are passed through.
    """
    if isinstance(default, (bool, str)):
        if not isinstance(value, type(default)):
            kind = "true or false" if isinstance(default, bool) else "a string"
            raise ConfigError(f"field '{field}' must be {kind}, got {value!r}")
        return value
    if isinstance(default, int):
        return _as_int(field, value)
    if isinstance(default, float):
        return _as_float(field, value)
    if isinstance(default, tuple):
        return tuple(_as_int(field, v) for v in _array(field, value))
    return value


def _fields(obj, name: str, defaults: dict, required=()) -> dict:
    """The JSON object ``obj`` at ``name`` ("" for the config root), read
    against ``defaults``: each key it sets is checked by ``_typed`` against
    its default, and each key it leaves out takes that default."""
    prefix = f"{name}." if name else ""
    if not isinstance(obj, dict):
        where = f"field '{name}'" if name else "config root"
        raise ConfigError(f"{where} must be a JSON object")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing required field '{prefix}{key}'")
    fields = dict(defaults)
    for key, value in obj.items():
        if key not in defaults:
            raise ConfigError(f"unknown field '{prefix}{key}'")
        fields[key] = _typed(prefix + key, defaults[key], value)
    return fields


def _grid(raw: dict, field: str, noun: str, item, tag=repr) -> list:
    """The grid list ``raw[field]``: a non-empty JSON array of distinct
    values, each converted by ``item(field, value)``."""
    values = [item(field, value) for value in _array(field, raw[field])]
    if not values:
        raise ConfigError(f"field '{field}' must list at least one {noun}")
    _distinct(field, values, tag)
    return values


def _as_strategy(field: str, value) -> str:
    if value in STRATEGIES:
        return value
    raise ConfigError(
        f"field '{field}' contains unknown strategy '{value}'; expected one of {list(STRATEGIES)}"
    )


def _as_ratio(field: str, value) -> float:
    """A ratio in [0, 1); + 0.0 makes -0.0 the ratio 0, which it equals."""
    r = _as_float(field, value) + 0.0
    if not 0 <= r < 1:
        raise ConfigError(f"field '{field}' value {r} outside [0, 1)")
    return r


def _load_config(path: str) -> dict:
    """The JSON object in the file at ``path``, or a ConfigError."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def resolve_config(raw: dict) -> dict:
    """Fill defaults, validate field by field, honor the seed override."""
    resolved = _fields(raw, "", ROOT_DEFAULTS, REQUIRED_FIELDS)
    resolved["strategies"] = _grid(resolved, "strategies", "strategy", _as_strategy)
    ratios = _grid(resolved, "openness_ratios", "ratio", _as_ratio, tag=_ratio_tag)
    resolved["openness_ratios"] = ratios
    seeds = resolved["seeds"] = _grid(resolved, "seeds", "seed", _as_seed)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed:
        if not env_seed.strip().isdecimal():
            raise ConfigError(
                f"environment variable {SEED_ENV_VAR} must be a non-negative integer, "
                f"got {env_seed!r}"
            )
        seeds = resolved["seeds"] = [int(env_seed)]

    data = resolved["data"] = _fields(resolved["data"], "data", DATA_DEFAULTS)
    for key in ("init_labeled_fraction", "test_fraction"):
        if not 0 <= data[key] < 1:
            raise ConfigError(f"field 'data.{key}' value {data[key]} outside [0, 1)")
    if data["idx"] is not None:
        idx = data["idx"] = _fields(data["idx"], "data.idx", IDX_DEFAULTS, tuple(IDX_DEFAULTS))
        if len(idx["known_classes"]) < 2:
            raise ConfigError("field 'data.idx.known_classes' must list at least two classes")
        _distinct("data.idx.known_classes", idx["known_classes"])
    else:
        try:
            _blob_spec(data, seed=seeds[0]).validate()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid data settings: {exc}") from exc
        # the labeled and test pools must each get an example of every
        # class, and together fit in it, counted as _assemble_split counts
        taken = 0
        for key in ("init_labeled_fraction", "test_fraction"):
            count = _class_count(data[key], data["per_class"])
            if count == 0:
                raise ConfigError(
                    f"field 'data.{key}' value {data[key]} gives no example of a "
                    f"class of {data['per_class']}"
                )
            taken += count
        if taken > data["per_class"]:
            raise ConfigError(
                "fields 'data.init_labeled_fraction' and 'data.test_fraction' take "
                f"{taken} examples of a class of {data['per_class']}"
            )
        # the unlabeled pool gets what is left of each known class
        known_unlabeled = data["num_known"] * (data["per_class"] - taken)
        for r in ratios:
            try:
                _unknown_count(r, known_unlabeled, data["num_unknown"] * data["per_class"])
            except ValueError as exc:
                raise ConfigError(f"field 'openness_ratios': {exc}") from exc

    if not resolved["output_dir"]:
        raise ConfigError("field 'output_dir' must be a non-empty string, got ''")

    resolved["train"] = _fields(resolved["train"], "train", TRAIN_DEFAULTS)
    try:
        _train_config(resolved, seed=seeds[0]).validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid train settings: {exc}") from exc
    return resolved


def _train_config(resolved: dict, seed: int) -> TrainConfig:
    return TrainConfig(
        seed=seed,
        query_size=resolved["query_size"],
        num_cycles=resolved["num_cycles"],
        **resolved["train"],
    )


def _blob_spec(data: dict, seed: int) -> BlobSpec:
    return BlobSpec(**{name: data[name] for name in BLOB_FIELDS}, seed=seed)


def _build_split(resolved: dict, r: float, seed: int):
    data = resolved["data"]
    idx = data["idx"]
    if idx is not None:
        return load_idx(
            idx["images"],
            idx["labels"],
            known_classes=idx["known_classes"],
            r=r,
            seed=seed,
            init_labeled_fraction=data["init_labeled_fraction"],
            test_fraction=data["test_fraction"],
        )
    return make_blobs(
        _blob_spec(data, seed),
        r,
        init_labeled_fraction=data["init_labeled_fraction"],
        test_fraction=data["test_fraction"],
    )


def _ratio_tag(r: float) -> str:
    return f"r{r:g}"


def run_tag(strategy: str, r: float, seed: int) -> str:
    return f"{strategy}_{_ratio_tag(r)}_s{seed}"


def _execute_group(resolved: dict, jobs: int, r: float, seed: int) -> list[str]:
    """One (ratio, seed) group: builds the split and trains its cycle-0
    model once, then runs each configured strategy from them, in config
    order, writing its CSV + manifest.  Each manifest records the shared
    training's seconds once, under ``first_cycle``, and the ``jobs``
    group processes that ran at once.  Top-level so process pools can
    pickle it."""
    split = _build_split(resolved, r, seed)
    cfg = _train_config(resolved, seed)
    first = first_cycle(split, cfg)
    strategies = resolved["strategies"]
    tags = [run_tag(strategy, r, seed) for strategy in strategies]
    shared = {"wall_time": first.wall_time, "runs": tags}
    outdir = Path(resolved["output_dir"])
    for strategy, tag in zip(strategies, tags):
        metrics = run_experiment(split, cfg, strategy, first=first)
        write_metrics_csv(outdir / f"metrics_{tag}.csv", metrics, strategy, seed, r)
        write_manifest(
            outdir / f"manifest_{tag}.json", resolved, metrics, strategy, seed, r, shared,
            jobs=jobs,
        )
    return tags


def cmd_run(config_path: str, jobs: int | None = None) -> int:
    try:
        resolved = resolve_config(_load_config(config_path))
        Path(resolved["output_dir"]).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    groups = list(product(resolved["openness_ratios"], resolved["seeds"]))
    # One group process per CPU unless --jobs says otherwise, and no more
    # than there are groups; each narrows its pool passes to its share of
    # the CPUs.  One job runs the groups in-process, in order, so they can
    # be traced.
    jobs = min(selection._cpu_count() if jobs is None else jobs, len(groups))
    try:
        pool = (
            ProcessPoolExecutor(
                max_workers=jobs, initializer=selection._share_cpus, initargs=(jobs,)
            )
            if jobs > 1
            else nullcontext()
        )
        with pool:
            run_map = pool.map if jobs > 1 else map
            for tags in run_map(partial(_execute_group, resolved, jobs), *zip(*groups)):
                for tag in tags:
                    print(f"completed {tag}")
    except Exception as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {len(groups) * len(resolved['strategies'])} runs to {resolved['output_dir']}")
    return 0


def _population_std(values) -> float:
    n = len(values)
    mean = sum(values) / n
    return (sum((v - mean) ** 2 for v in values) / n) ** 0.5


def _read_run_csv(path: Path):
    """Parse one metrics CSV.  A file that cannot be read as UTF-8 text
    (a directory, a binary file) or lacks the metrics header is skipped,
    and so is each malformed row, each with a warning."""
    rows = []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(METRICS_COLUMNS) - set(reader.fieldnames):
                print(f"warning: {path} lacks the metrics header, skipped", file=sys.stderr)
                return []
            for lineno, row in enumerate(reader, start=2):
                try:
                    rows.append(
                        {
                            "cycle": int(row["cycle"]),
                            "strategy": row["strategy"],
                            "seed": int(row["seed"]),
                            "r": float(row["r"]),
                            "query_precision": (
                                float(row["query_precision"])
                                if row["query_precision"]
                                else None
                            ),
                            "test_accuracy": float(row["test_accuracy"]),
                        }
                    )
                except (ValueError, KeyError, TypeError):
                    print(
                        f"warning: {path}:{lineno}: malformed row skipped", file=sys.stderr
                    )
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        print(f"warning: {path} cannot be read ({exc}), skipped", file=sys.stderr)
        return []
    return rows


def _write_summary(path: Path, key_names, value_name: str, groups: dict) -> None:
    """One row per group in key order (the ratio sorts as a number): the
    key fields, the run count, and the mean and population std."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*key_names, "n_runs", f"mean_{value_name}", f"std_{value_name}"])
        for key, vals in sorted(groups.items()):
            writer.writerow([*key, len(vals), sum(vals) / len(vals), _population_std(vals)])


def cmd_report(results_dir: str) -> int:
    """Aggregate the run CSVs in ``results_dir``, one run per (strategy, r,
    seed): a CSV repeating an earlier file's run, in name order, is
    skipped with a warning naming both files."""
    dirpath = Path(results_dir)
    csv_files = sorted(dirpath.glob("*.csv"))
    csv_files = [p for p in csv_files if not p.name.startswith(("summary_", "query_precision_"))]
    runs = {}
    for path in csv_files:
        rows = _read_run_csv(path)
        if rows:
            key = (rows[0]["strategy"], rows[0]["r"], rows[0]["seed"])
            first = runs.setdefault(key, (path, rows))[0]
            if first != path:
                print(f"warning: {path} repeats the run in {first}, skipped", file=sys.stderr)
    if not runs:
        print(f"no valid run CSVs found in {results_dir}", file=sys.stderr)
        return 1

    # final-accuracy table, one row per (strategy, ratio)
    final = {}
    for (strategy, r, _seed), (_path, rows) in runs.items():
        last = max(rows, key=lambda row: row["cycle"])
        final.setdefault((strategy, r), []).append(last["test_accuracy"])
    _write_summary(
        dirpath / "summary_accuracy.csv",
        ("strategy", "openness_ratio"),
        "final_accuracy",
        final,
    )

    # per-cycle query-precision series
    series = {}
    for (strategy, r, _seed), (_path, rows) in runs.items():
        for row in rows:
            if row["query_precision"] is not None:
                series.setdefault((strategy, r, row["cycle"]), []).append(
                    row["query_precision"]
                )
    _write_summary(
        dirpath / "query_precision_series.csv",
        ("strategy", "openness_ratio", "cycle"),
        "query_precision",
        series,
    )
    print(f"aggregated {len(runs)} runs into summary_accuracy.csv and query_precision_series.csv")
    return 0


def cmd_check(config_path: str | None = None) -> int:
    seed = 0
    if config_path is not None:
        try:
            raw = _load_config(config_path)
            if "seeds" in raw:
                seed = _grid(raw, "seeds", "seed", _as_seed)[0]
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
    results = run_checks(seed=seed)
    failures = []
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        if not passed:
            failures.append(name)
    if failures:
        print(f"{len(failures)} property check(s) failed: {', '.join(failures)}")
        return 1
    print(f"all {len(results)} property checks passed")
    return 0


def _positive_jobs(text: str) -> int:
    """``--jobs`` value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="openset-al",
        description="Open-set active-learning experiments with evidential selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the configured experiment grid")
    p_run.add_argument("--config", required=True, help="path to a JSON config")
    p_run.add_argument(
        "--jobs",
        type=_positive_jobs,
        default=None,
        help="(ratio, seed) groups run at once, each in its own process (default: one "
        "per CPU in the affinity mask, at most one per group; 1 runs in-process)",
    )

    p_report = sub.add_parser("report", help="aggregate run CSVs")
    p_report.add_argument("--dir", required=True, help="directory with run CSVs")

    p_check = sub.add_parser("check", help="run the fast invariant suite")
    p_check.add_argument("--config", default=None, help="optional JSON config")

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, jobs=args.jobs)
    if args.command == "report":
        return cmd_report(args.dir)
    return cmd_check(args.config)


if __name__ == "__main__":
    sys.exit(main())
