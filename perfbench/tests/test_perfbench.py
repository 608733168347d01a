"""Tests of the benchmark itself; run from the repository root with

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

TINY = wl.Workload(
    name="tiny",
    kind="api",
    family="tiny",
    data=dict(num_known=2, num_unknown=2, dim=4, per_class=40),
    init_labeled_fraction=0.2,
    train=dict(query_size=5, num_cycles=2, epochs=3, lr_milestones=(1, 2), discrepancy_epochs=2),
    variants=(wl.C2F, wl.RANDOM),
    num_seeds=2,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_pass(tmp_path, golden=None, context=None, name="pass"):
    outdir = tmp_path / name
    outdir.mkdir()
    splits = wl.make_splits(TINY, 0)
    return wl.run_api_pass(TINY, splits, TINY.cells(0), outdir, golden or {}, context), splits


def _current(sites):
    return [spans.resolve_owner(s.owner).__dict__[s.attr] for s in sites]


# -- wrappers ---------------------------------------------------------------


def test_wrappers_restore_the_originals(tmp_path):
    sites = spans.ALL_SITES
    before = _current(sites)
    tracer = spans.Tracer()
    tracer.install(sites, worker.HOOKS)
    try:
        during = _current(sites)
    finally:
        tracer.restore()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, _current(sites)))


def test_install_in_a_fresh_process_leaves_imported_names_intact():
    code = (
        "import spans, worker\n"
        "t = spans.Tracer()\n"
        "t.install(spans.ALL_SITES, worker.HOOKS)\n"
        "t.restore()\n"
        "from openset_al import cli, datasets, harness\n"
        "assert cli.make_blobs is datasets.make_blobs\n"
        "assert cli.run_experiment is harness.run_experiment\n"
    )
    env = {"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}", "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_traced_pass_writes_the_same_bytes(tmp_path):
    plain, _ = _tiny_pass(tmp_path, name="plain")
    tracer = spans.Tracer()
    tracer.context["gmm_tol"] = 1e-6
    tracer.install(spans.ALL_SITES, worker.HOOKS)
    try:
        traced, _ = _tiny_pass(tmp_path, context=tracer.context, name="traced")
    finally:
        tracer.restore()
    assert all(r.ok for r in plain + traced)
    assert [r.digest for r in plain] == [r.digest for r in traced]
    assert tracer.counts["model.edl_loss.calls"] > 0
    assert tracer.counts["harness.run_experiment.calls"] == len(TINY.cells(0))


# -- self time ---------------------------------------------------------------


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] counts once
        ("leaf", 2.0, 3.0, 1),
        ("c", 9.0, 12.0, 0),  # sticks out of root: clipped to [9, 10]
        ("a", 20.0, 21.0, -1),
    ]
    assert spans.aggregate_self_times(tree) == pytest.approx(
        {"root": 10.0 - 5.0 - 1.0, "a": (3.0 - 1.0) + 1.0, "b": 3.0, "leaf": 1.0, "c": 3.0}
    )


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer._wrap(lambda: 1, spans.Site("x", "inner", "t.inner"), None)
    outer = tracer._wrap(lambda: inner() + inner(), spans.Site("x", "outer", "t.outer"), None)
    assert outer() == 2
    assert [(n, p) for n, _, _, p in tracer.spans] == [("t.outer", -1), ("t.inner", 0), ("t.inner", 0)]
    # outer runs from tick 0 to 5; each inner call takes one tick
    assert tracer.self_times() == {"t.outer": 3.0, "t.inner": 2.0}
    assert tracer.counts["t.inner.calls"] == 2


# -- output checks ------------------------------------------------------------


def test_corrupted_csv_fails_its_check(tmp_path):
    results, splits = _tiny_pass(tmp_path)
    path = tmp_path / "pass" / "coarse_to_fine_s0.csv"
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[6] = str(int(cells[6]) + 1)  # one more labeled example than queried
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n")
    with pytest.raises(wl.CheckError, match="pool sizes"):
        wl.check_cell(path, TINY, splits[0], "k", {})
    path.write_text("\n".join(lines[:-1] + ["1,2"]) + "\n")
    with pytest.raises(wl.CheckError, match="malformed"):
        wl.check_cell(path, TINY, splits[0], "k", {})


def test_golden_mismatch_and_raising_cell_raise_error_rate(tmp_path, monkeypatch):
    from openset_al import harness

    clean, _ = _tiny_pass(tmp_path, name="clean")
    assert all(r.ok for r in clean)
    golden = {clean[0].key: "0" * 64}
    original = harness.run_experiment

    def flaky(split, cfg, strategy):
        if strategy == "random" and cfg.seed == 1:
            raise FloatingPointError("injected")
        return original(split, cfg, strategy)

    monkeypatch.setattr(harness, "run_experiment", flaky)
    results, _ = _tiny_pass(tmp_path, golden=golden, name="broken")
    failed = [r for r in results if not r.ok]
    assert [r.key for r in failed] == [clean[0].key, "tiny/random/s1"]
    assert "golden" in failed[0].error and "injected" in failed[1].error
    ok = [r for r in results if r.ok]
    result = {
        "cycle_s": [t for r in ok for t in r.cycle_times],
        "query_precision": 0.5,
        "final_accuracy": 1.0,
        "setup_samples": [1.0],
        "pass_s": [1.0],
        "peak_rss_kib": 1024,
        "attempted": len(results),
        "failed": len(failed),
    }
    assert bench_run.end_to_end(result)["error_rate"] == pytest.approx(2 / 4)


def test_row_checks_hold_on_real_output(tmp_path):
    results, _ = _tiny_pass(tmp_path)
    assert all(r.ok for r in results), [r.error for r in results]
    assert all(len(r.cycle_times) == TINY.train["num_cycles"] + 1 for r in results)


# -- reported metrics ---------------------------------------------------------


def test_per_layer_output_covers_every_named_metric(tmp_path):
    tracer = spans.Tracer()
    tracer.context["gmm_tol"] = 1e-6
    tracer.install(spans.ALL_SITES, worker.HOOKS)
    try:
        _tiny_pass(tmp_path, context=tracer.context)
    finally:
        tracer.restore()
    values = worker.per_layer(tracer, spans.Tracer(), 1, [2.0], [1.0], {})
    result = {"cycle_s": [], "setup_samples": [], "pass_s": [], "env": {}, "errors": [],
              "failed": 0, "attempted": 1}
    lines = []
    metrics = bench_run.report("tiny", result, values, SPEC["per_layer"], lines)
    assert {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert values["selection.gmm_fit.em_iters"] > 0
    assert 0 < values["selection.coarse_select.survivor_purity"] <= 1
    assert values["model.self_share"] > 0.5


def test_command_prints_every_end_to_end_metric_with_its_unit():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    last = json.loads(out[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == len(wl.WORKLOADS["cli_grid"].cells(0))
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in last["metrics"].values())
    table = "\n".join(out[:-1])
    for m in SPEC["end_to_end"] + [{"name": "error_rate"}]:
        assert f" {m['name']} " in table


def test_command_fails_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "desk_grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
