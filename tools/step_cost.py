"""Fixed cost of one training step, per step kind, at the desk shapes.

Times one gradient helper plus ``sgd_step`` (what ``train_cycle`` runs per
batch) for the EDL, cross-entropy, close and dis steps on the desk
acceptance model (16 -> 64 -> 64 -> 2 x 4) at 1, 32, 64 and 128 rows, and
counts the Python function calls and builtin calls one step makes, as
``sys.setprofile`` sees them.  Run from a source checkout:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 tools/step_cost.py

The helpers and ``sgd_step`` are looked up by name, so the same command
measures any checkout whose ``src`` is first on the import path.
"""

from __future__ import annotations

import sys
import timeit

import numpy as np

from openset_al import model as m

ROWS = (1, 32, 64, 128)
REPEATS = 15
STEPS = 200


def step_fns(params, cfg, rows):
    """{kind: a zero-argument step on a fixed batch of ``rows`` rows}."""
    rng = np.random.default_rng(rows)
    x = rng.normal(0.0, 3.0, size=(rows, params.input_dim))
    yy = np.eye(params.num_classes)[rng.integers(0, params.num_classes, size=rows)]
    grads = params.grad_views

    def labeled(helper):
        def step():
            helper(params, x, yy, grads)
            m.sgd_step(params, grads, 0, cfg, "all")
        return step

    def unlabeled(helper, tau, subset):
        def step():
            helper(params, x, tau, grads)
            m.sgd_step(params, grads, cfg.epochs, cfg, subset)
        return step

    return {
        "EDL": labeled(m._edl_grads),
        "close": unlabeled(m._close_grads, cfg.tau1, "backbone"),
        "dis": unlabeled(m._dis_grads, cfg.tau2, "heads"),
        "CE": labeled(m._cross_entropy_grads),
    }


def count_calls(fn) -> tuple[int, int]:
    """(Python function calls, builtin calls) one call of ``fn`` makes."""
    counts = {"call": 0, "c_call": 0}

    def profile(frame, event, arg):
        if event in counts:
            counts[event] += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    # the profiler also sees fn itself and the setprofile(None) call
    return counts["call"] - 1, counts["c_call"] - 1


def main() -> None:
    cfg = m.TrainConfig()
    params = m.init_model(16, 4, hidden_widths=(64, 64), seed=0, head_init_scale=1.0)
    kinds = list(step_fns(params, cfg, 1))
    # the fastest repeat: the fixed cost, least disturbed by other load
    print("per step, us (best of %d repeats of %d steps)" % (REPEATS, STEPS))
    print("| rows | " + " | ".join(kinds) + " |")
    print("|---|" + "---|" * len(kinds))
    for rows in ROWS:
        fns = step_fns(params, cfg, rows)
        cells = []
        for kind in kinds:
            fns[kind]()
            times = timeit.repeat(fns[kind], number=STEPS, repeat=REPEATS)
            cells.append(f"{min(times) / STEPS * 1e6:.0f}")
        print(f"| {rows} | " + " | ".join(cells) + " |")
    fns = step_fns(params, cfg, 64)
    print("calls per step (Python + builtin): " + ", ".join(
        "%s %d + %d" % (kind, *count_calls(fns[kind])) for kind in kinds
    ))


if __name__ == "__main__":
    main()
