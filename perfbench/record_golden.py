"""Record the sha256 of every metrics CSV the default seed (0) produces.

Run from the root of a source checkout, only when a change is meant to
alter the metrics CSVs:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/record_golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402


def main() -> int:
    from openset_al import TrainConfig, harness

    golden = {}
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for workload in wl.WORKLOADS.values():
            splits = wl.make_splits(workload, 0)
            for variant, s in workload.cells(0):
                key = wl.golden_key(workload, variant, s)
                if key in golden:
                    continue
                cfg = TrainConfig(seed=s, **workload.train, **variant.train)
                metrics = harness.run_experiment(splits[s], cfg, variant.strategy)
                path = Path(tmp) / "m.csv"
                harness.write_metrics_csv(path, metrics, variant.strategy, s, workload.r)
                golden[key] = hashlib.sha256(path.read_bytes()).hexdigest()
                print(key, golden[key][:12], flush=True)
    wl.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
