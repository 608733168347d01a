"""Benchmark for openset_al: end-to-end and per-layer metrics of its workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk_grid --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py                      # every workload, one table

Each workload runs in a fresh ``perfbench/worker.py`` process with one
BLAS/OpenMP thread, ``OPENSET_AL_SEED`` removed and ``src`` first on the
import path.  Set-up is also timed in four extra processes and reported
as the median of five.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` (grid cells) and
``metrics``, the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics.  Metric names and units come from
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
RUN_DEADLINE_S = 170.0  # the whole command must end within 180 s
MIN_P90_SAMPLES = 100  # at least 10 samples beyond the 90th percentile


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def run_child(cmd, env, timeout: float) -> int:
    """Run ``cmd`` in its own session; returns its peak RSS in KiB.
    Kills the whole process group if it outlives ``timeout``."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, start_new_session=True)
    waited = []
    waiter = threading.Thread(target=lambda: waited.append(os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(max(timeout, 0.0))
    if waiter.is_alive():
        os.killpg(proc.pid, signal.SIGKILL)
        waiter.join()
        proc.returncode = os.waitstatus_to_exitcode(waited[0][1])
        raise BenchError(f"{' '.join(cmd[2:6])} timed out after {timeout:.0f} s")
    _, status, usage = waited[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd[2:])}")
    return usage.ru_maxrss


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    env = dict(os.environ)
    env.pop("OPENSET_AL_SEED", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(root / "src"))
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        base = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        setups = []
        for i in range(SETUP_PROBES):
            out = tmp / f"setup{i}.json"
            run_child(base + ["--out", str(out), "--tmp", str(tmp), "--setup-only"], env,
                      deadline - time.monotonic())
            setups.append(json.loads(out.read_text())["setup_s"])
        out = tmp / "result.json"
        rss_kib = run_child(base + ["--out", str(out), "--tmp", str(tmp / "work")], env,
                            deadline - time.monotonic())
        result = json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if not Path(result["openset_al"]).resolve().is_relative_to(root / "src"):
        raise BenchError(f"imported openset_al from {result['openset_al']}, not from {root / 'src'}")
    result["setup_samples"] = setups + [result["setup_s"]]
    result["peak_rss_kib"] = rss_kib
    return result


def end_to_end(result: dict) -> dict:
    cycles = result["cycle_s"]
    if not cycles or result["query_precision"] is None:
        raise BenchError("no grid cell passed its checks: " + "; ".join(result["errors"]))
    return {
        "setup_s": statistics.median(result["setup_samples"]),
        "wall_s": statistics.median(result["pass_s"]),
        "cycle_s_p50": statistics.median(cycles),
        "cycle_s_p90": statistics.quantiles(cycles, n=10)[-1],
        "query_precision": result["query_precision"],
        "final_accuracy": result["final_accuracy"],
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "error_rate": result["failed"] / result["attempted"],
    }


def report(name: str, result: dict, values: dict, spec: list, lines: list) -> dict:
    """Human-readable lines for one workload; returns the JSON metrics."""
    n = len(result["cycle_s"])
    notes = {
        "setup_s": f"median of {len(result['setup_samples'])} set-ups",
        "wall_s": "median of passes " + " ".join(f"{t:.3f}" for t in result["pass_s"]),
        "cycle_s_p50": f"n={n} cycles",
        "cycle_s_p90": f"n={n} cycles" + ("" if n >= MIN_P90_SAMPLES else ", fewer than 10 beyond p90"),
        "error_rate": f"{result['failed']} of {result['attempted']} runs",
    }
    lines.append(f"== {name}  env {json.dumps(result['env'], sort_keys=True)}")
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    shown = dict(metrics)
    if "error_rate" in values:
        shown.setdefault("error_rate", {"value": values["error_rate"], "unit": "ratio"})
    for key, metric in shown.items():
        note = notes.get(key, "")
        lines.append(f"{name:10s} {key:44s} {metric['value']:>14.6g} {metric['unit']:6s} {note}")
    for err in result["errors"]:
        lines.append(f"{name:10s} FAILED {err}")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "openset_al" / "__init__.py").is_file():
        print(f"error: {root} is not an openset_al checkout (no src/openset_al)", file=sys.stderr)
        return 2
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    spec = spec["per_layer"] if args.trace else spec["end_to_end"]

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    start = time.monotonic()
    lines, metrics, attempted, failed = [], {}, 0, 0
    try:
        for name in names:
            deadline = start + RUN_DEADLINE_S * (names.index(name) + 1)
            result = run_workload(root, name, args.seed, args.seconds, args.trace, deadline)
            values = result["per_layer"] if args.trace else end_to_end(result)
            ws = report(name, result, values, spec, lines)
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in ws.items()})
            attempted += result["attempted"]
            failed += result["failed"]
    except BenchError as exc:
        print("\n".join(lines))
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
