#!/usr/bin/env python3
"""Strategy comparison over full query cycles, through the batch CLI.

Writes a JSON config for the coarse-to-fine selector against random and
margin sampling on the same open-set pools (two seeds to keep this demo
quick), runs it with ``openset-al run``, aggregates it with
``openset-al report``, and prints the per-cycle query precision and the
final test accuracy from the report's CSVs.  The config, the run files
and the report stay in a temporary directory for inspection.
"""

import csv
import json
import sys
import tempfile
from pathlib import Path

from openset_al import cli

STRATEGIES = ["coarse_to_fine", "random", "margin"]


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# `run` starts group processes, which must not run the demo again
if __name__ == "__main__":
    outdir = Path(tempfile.mkdtemp(prefix="openset_al_demo_"))
    config, results = outdir / "config.json", outdir / "results"
    config.write_text(json.dumps({
        "strategies": STRATEGIES, "openness_ratios": [0.5], "seeds": [0, 1],
        "query_size": 60, "num_cycles": 4, "output_dir": str(results),
    }))
    for argv in (["run", "--config", str(config)], ["report", "--dir", str(results)]):
        print("$ openset-al " + " ".join(argv))
        if cli.main(argv):
            sys.exit(1)

    precision = {
        (row["strategy"], int(row["cycle"])): float(row["mean_query_precision"])
        for row in read_rows(results / "query_precision_series.csv")
    }
    finals = {
        row["strategy"]: float(row["mean_final_accuracy"])
        for row in read_rows(results / "summary_accuracy.csv")
    }
    print("\nmean query precision per cycle (fraction of batch that is known-class)")
    print("=" * 68)
    print("cycle".ljust(10) + "".join(f"{s:>20s}" for s in STRATEGIES))
    for c in sorted({cycle for _, cycle in precision}):
        print(f"{c:<10d}" + "".join(f"{precision[s, c]:20.3f}" for s in STRATEGIES))
    print("\nfinal test accuracy: " + ", ".join(f"{s}={finals[s]:.3f}" for s in STRATEGIES))
