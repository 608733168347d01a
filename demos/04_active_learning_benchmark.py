#!/usr/bin/env python3
"""Strategy comparison over full query cycles, with CSV artifacts.

Runs the coarse-to-fine selector against random and margin sampling on
the same open-set pools (two seeds to keep this demo quick), each seed's
strategies starting from one shared cycle-0 model, prints the
per-cycle query precision, and writes the same CSV/manifest artifacts
the batch CLI produces.  The equivalent CLI invocation is shown at the
end.
"""

import tempfile
from pathlib import Path

import numpy as np

from openset_al import (
    BlobSpec,
    TrainConfig,
    first_cycle,
    make_blobs,
    run_experiment,
    write_manifest,
    write_metrics_csv,
)

STRATEGIES = ("coarse_to_fine", "random", "margin")
SEEDS = (0, 1)
R = 0.5

outdir = Path(tempfile.mkdtemp(prefix="openset_al_demo_"))
print(f"writing run artifacts to {outdir}\n")

# Seed-major, as the CLI runs its grid: every strategy of one seed starts
# from the same split and the same cycle-0 model, trained once.
runs = {strategy: [] for strategy in STRATEGIES}
for seed in SEEDS:
    split = make_blobs(BlobSpec(seed=seed), r=R)
    cfg = TrainConfig(query_size=60, num_cycles=4, seed=seed)
    first = first_cycle(split, cfg)
    tags = [f"{strategy}_r{R:g}_s{seed}" for strategy in STRATEGIES]
    shared = {"wall_time": first.wall_time, "runs": tags}
    for strategy, tag in zip(STRATEGIES, tags):
        metrics = run_experiment(split, cfg, strategy, first=first)
        write_metrics_csv(outdir / f"metrics_{tag}.csv", metrics, strategy, seed, R)
        write_manifest(outdir / f"manifest_{tag}.json",
                       {"demo": True}, metrics, strategy, seed, R, shared)
        runs[strategy].append(metrics)

per_cycle = {
    strategy: np.array(
        [[m.query_precision for m in metrics if m.query_precision is not None]
         for metrics in rows]
    ).mean(axis=0)
    for strategy, rows in runs.items()
}
finals = {
    strategy: np.mean([metrics[-1].test_accuracy for metrics in rows])
    for strategy, rows in runs.items()
}

cycles = len(next(iter(per_cycle.values())))
print("mean query precision per cycle (fraction of batch that is known-class)")
print("=" * 68)
header = "cycle".ljust(10) + "".join(f"{s:>20s}" for s in STRATEGIES)
print(header)
for c in range(cycles):
    print(f"{c + 1:<10d}" + "".join(f"{per_cycle[s][c]:20.3f}" for s in STRATEGIES))
print("-" * 68)
print("mean".ljust(10) + "".join(f"{per_cycle[s].mean():20.3f}" for s in STRATEGIES))
print("\nfinal test accuracy: "
      + ", ".join(f"{s}={finals[s]:.3f}" for s in STRATEGIES))

print(f"""
Artifacts written: {len(list(outdir.glob('*.csv')))} CSVs and
{len(list(outdir.glob('*.json')))} manifests under {outdir}.

The batch CLI runs the same grid from a JSON config:

    openset-al run --config config.json [--jobs 4]
    openset-al report --dir {outdir}
    openset-al check
""")
