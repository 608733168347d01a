"""One workload run inside a fresh process; ``run.py`` starts it.

Usage: worker.py --workload NAME --seed N --seconds S --trace 0|1
                 --out RESULT.json --tmp DIR [--setup-only]

Set-up (importing openset_al and building the datasets) is timed first.
The worker then repeats whole passes over the workload's grid while
another pass is expected to fit in ``--seconds`` (at least one).  In a
traced pass each cell also runs traced, so the difference of the traced
and untraced pass times is the tracing overhead.  The result is written
as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans as tracing  # noqa: E402
import workloads as wl  # noqa: E402

LAYERS = ("model", "evidential", "selection", "harness", "datasets", "cli")


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "workload_seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


# -- outcome counters recorded by trace hooks ------------------------------


def _gmm_hook(tr, args, kwargs, result):
    lls = result.log_likelihoods
    tol = kwargs.get("tol", args[2] if len(args) > 2 else tr.context["gmm_tol"])
    tr.counts["selection.gmm_fit.em_iters"] += len(lls)
    if not (len(lls) >= 2 and lls[-1] - lls[-2] < tol):
        tr.counts["selection.gmm_fit.unconverged"] += 1


def _coarse_hook(tr, args, kwargs, result):
    selected, _posterior, fallback = result
    tr.counts["selection.coarse_select.fallbacks"] += int(fallback)
    tr.counts["selection.coarse_select.survivors"] += len(selected)
    tr.counts["selection.coarse_select.pool"] += len(args[1])
    split = tr.context.get("split")
    if split is not None:  # simulation-only: reads the hidden labels
        known = split.is_known(split.true_labels[selected]).sum()
        tr.counts["selection.coarse_select.known_survivors"] += int(known)


def _split_hook(tr, args, kwargs, result):
    tr.context["split"] = result  # the CLI builds each cell's split just before running it


def _fine_hook(tr, args, kwargs, result):
    tr.context["fine_n"] = len(result)


def _c2f_hook(tr, args, kwargs, result):
    tr.counts["selection.coarse_to_fine_select.topup"] += len(result) - tr.context.pop("fine_n", 0)


HOOKS = {
    "datasets.make_blobs": _split_hook,
    "selection.gmm_fit": _gmm_hook,
    "selection.coarse_select": _coarse_hook,
    "selection.fine_select": _fine_hook,
    "selection.coarse_to_fine_select": _c2f_hook,
}


def per_layer(tracer, setup_tracer, passes: int, traced_s, untraced_s, cli_info) -> dict:
    """Per-pass self times and counts for every traced name (0 where the
    workload makes no such call), outcome ratios, layer shares and the
    tracing overhead."""
    out: dict[str, float] = {}
    for site in tracing.ALL_SITES:
        out[f"{site.span}.self_s"] = 0.0
        out[f"{site.span}.calls"] = 0.0
        if site.rows_arg is not None:
            out[f"{site.span}.{site.rows_key}"] = 0.0
    self_times = tracer.self_times()
    for name, value in self_times.items():
        out[f"{name}.self_s"] = value / passes
    for name, value in tracer.counts.items():
        out[name] = value / passes
    out["datasets.make_blobs.self_s"] = (
        setup_tracer.self_times().get("datasets.make_blobs", 0.0)
        + self_times.get("datasets.make_blobs", 0.0) / passes
    )
    c = tracer.counts
    for name in ("em_iters", "unconverged"):
        out.setdefault(f"selection.gmm_fit.{name}", 0.0)
    out.setdefault("selection.coarse_select.fallbacks", 0.0)
    out.setdefault("selection.coarse_to_fine_select.topup", 0.0)
    pool, survivors = c.get("selection.coarse_select.pool", 0), c.get("selection.coarse_select.survivors", 0)
    out["selection.coarse_select.survivor_frac"] = survivors / pool if pool else 0.0
    out["selection.coarse_select.survivor_purity"] = (
        c.get("selection.coarse_select.known_survivors", 0) / survivors if survivors else 0.0
    )
    for key in ("survivors", "pool", "known_survivors"):
        out.pop(f"selection.coarse_select.{key}", None)
    total = sum(self_times.values())
    by_layer = defaultdict(float)
    for name, value in self_times.items():
        by_layer[name.split(".")[0]] += value
    for layer in LAYERS:
        out[f"{layer}.self_share"] = by_layer[layer] / total if total else 0.0
    run_wall = sum(e - s for name, s, e, _ in tracer.spans if name == "cli.run")
    out["cli.cells"] = cli_info.get("cells", 0) / passes
    out["cli.bytes_written"] = cli_info.get("bytes_written", 0) / passes
    out["cli.busy_frac"] = cli_info.get("busy_s", 0.0) / run_wall if run_wall else 0.0
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    t0 = time.perf_counter()
    import openset_al

    setup_tracer = tracing.Tracer()
    if args.trace:
        setup_tracer.install(tracing.LIBRARY_SITES)
    try:
        splits = wl.make_splits(workload, args.seed)
    finally:
        setup_tracer.restore()
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "openset_al": openset_al.__file__}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    golden = wl.load_golden()
    tmp = Path(args.tmp)
    tracer = tracing.Tracer()
    tracer.context["gmm_tol"] = inspect.signature(openset_al.selection.gmm_fit).parameters["tol"].default
    attempted, failures, first_digest = 0, [], {}
    untraced_s, traced_s, cycle_s = [], [], []
    quality: dict[str, tuple] = {}  # first result of each passing cell
    runs = 0
    cli_info = defaultdict(float)

    def run_unit(cells, traced: bool) -> float:
        """Run some cells of the grid, checking their outputs; returns the
        wall time of the program's work."""
        nonlocal attempted, runs
        outdir = tmp / f"run{runs}"
        runs += 1
        outdir.mkdir(parents=True)
        if traced:
            tracer.install(tracing.ALL_SITES, HOOKS)
        start = time.perf_counter()
        try:
            if workload.kind == "cli":
                results, info = wl.run_cli_pass(workload, args.seed, splits, outdir, golden)
            else:
                context = tracer.context if traced else None
                results = wl.run_api_pass(workload, splits, cells, outdir, golden, context)
                info = {}
        finally:
            elapsed = time.perf_counter() - start
            tracer.restore()
        if traced:
            for key, value in info.items():
                cli_info[key] += value
        for r in results:
            attempted += 1
            if r.ok and first_digest.setdefault(r.key, r.digest) != r.digest:
                r.ok, r.error = False, f"{r.key}: output differs between passes"
            if not r.ok:
                failures.append(r.error)
            elif not traced:
                cycle_s.extend(r.cycle_times)
            if r.ok and r.key not in quality:
                quality[r.key] = (r.query_precision, r.final_accuracy)
        return elapsed

    # Traced, every unit of work (a cell, or the whole CLI grid) runs once
    # traced and once untraced, in alternating order, so drift in machine
    # speed cancels out of the overhead.
    cells = workload.cells(args.seed)
    units = [cells] if workload.kind == "cli" or not args.trace else [[c] for c in cells]
    start, flips = time.perf_counter(), 0
    while True:
        pass_start = time.perf_counter()
        spent = {True: 0.0, False: 0.0}
        for unit in units:
            order = (True, False) if flips % 2 == 0 else (False, True)
            for traced in order if args.trace else (False,):
                spent[traced] += run_unit(unit, traced)
            flips += 1
        untraced_s.append(spent[False])
        if args.trace:
            traced_s.append(spent[True])
        last = time.perf_counter() - pass_start
        if time.perf_counter() - start + last > args.seconds:
            break

    qp = [q for q_list, _ in quality.values() for q in q_list]
    acc = [a for _, a in quality.values()]
    result.update(
        env=_environment(args.seed),
        attempted=attempted,
        failed=len(failures),
        errors=failures[:10],
        pass_s=untraced_s,
        cycle_s=cycle_s,
        query_precision=statistics.fmean(qp) if qp else None,
        final_accuracy=statistics.fmean(acc) if acc else None,
    )
    if args.trace:
        result["per_layer"] = per_layer(tracer, setup_tracer, len(traced_s), traced_s, untraced_s, cli_info)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
