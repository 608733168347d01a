"""CLI tests: exit codes, config validation messages, deterministic
outputs, aggregation arithmetic, and fault injection into the checker."""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from helpers import count_started_threads, write_idx_images, write_idx_labels

from openset_al import cli, evidential, harness, model, selection
from openset_al.checks import CHECK_NAMES, run_checks
from openset_al.datasets import BlobSpec
from openset_al.model import TrainConfig

# a well-formed IDX data section; the files need not exist to be rejected
IDX = {"images": "images.idx", "labels": "labels.idx", "known_classes": [0, 1]}


@pytest.fixture
def pools(monkeypatch):
    """Each process pool ``run`` starts, as ``(max_workers, initargs)``;
    the fake pool runs the groups in this process, in order."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            started.append((max_workers, initargs))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InProcessPool)
    return started


def minimal_config(tmp_path, **overrides):
    cfg = {
        "data": {
            "num_known": 2,
            "num_unknown": 2,
            "dim": 4,
            "per_class": 30,
            "radius": 6.0,
            "init_labeled_fraction": 0.1,
        },
        "train": {
            "epochs": 8,
            "lr_milestones": [5],
            "discrepancy_epochs": 2,
            "hidden_widths": [8],
        },
        "query_size": 8,
        "num_cycles": 2,
        "strategies": ["random"],
        "openness_ratios": [0.5],
        "seeds": [0],
        "output_dir": str(tmp_path / "results"),
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCmdRun:
    def test_minimal_run_row_count(self, tmp_path):
        path = minimal_config(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        csv_path = tmp_path / "results" / "metrics_random_r0.5_s0.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + initial + 2 cycles
        manifest = json.loads(
            (tmp_path / "results" / "manifest_random_r0.5_s0.json").read_text()
        )
        assert manifest["config"]["train"]["lr"] == 0.01
        assert manifest["strategy"] == "random"

    def test_rerun_byte_identical(self, tmp_path):
        path = minimal_config(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        csv_path = tmp_path / "results" / "metrics_random_r0.5_s0.csv"
        first = csv_path.read_bytes()
        assert cli.main(["run", "--config", str(path)]) == 0
        assert csv_path.read_bytes() == first

    def test_missing_required_field_names_it(self, tmp_path, capsys):
        raw = json.loads(minimal_config(tmp_path).read_text())
        del raw["seeds"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "'seeds'" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self, tmp_path, capsys):
        path = minimal_config(tmp_path, strategies=["badge"])
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "badge" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_seed_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        path = minimal_config(tmp_path)
        assert cli.main(["run", "--config", str(path)]) == 0
        manifest = json.loads(
            (tmp_path / "results" / "manifest_random_r0.5_s7.json").read_text()
        )
        assert manifest["seed"] == 7
        assert manifest["config"]["seeds"] == [7]

    def test_grid_produces_one_csv_per_cell(self, tmp_path):
        path = minimal_config(tmp_path, strategies=["random", "margin"], seeds=[0, 1])
        assert cli.main(["run", "--config", str(path)]) == 0
        files = sorted(p.name for p in (tmp_path / "results").glob("metrics_*.csv"))
        assert len(files) == 4

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"seeds": ["x"]}, "'seeds'"),
            ({"strategies": 5}, "'strategies'"),
            ({"query_size": "many"}, "'query_size'"),
            ({"train": {"hidden_widths": 5}}, "'train.hidden_widths'"),
            # a JSON string or object is not an array, even where it iterates
            ({"train": {"lr_milestones": ""}}, "'train.lr_milestones' must be a JSON array"),
            ({"train": {"lr_milestones": {}}}, "'train.lr_milestones' must be a JSON array"),
            ({"train": {"hidden_widths": ""}}, "'train.hidden_widths' must be a JSON array"),
            ({"train": {"hidden_widths": "64"}}, "'train.hidden_widths' must be a JSON array"),
            ({"data": {"per_class": 0}}, "per_class"),
            ({"data": {"idx": {"images": "x"}}}, "'data.idx.labels'"),
            # checked against the type of the field's default, or its range
            ({"data": {"dim": 2.5}}, "'data.dim'"),
            ({"train": {"batch_size": 12.5}}, "'train.batch_size'"),
            ({"data": {"init_labeled_fraction": 2}}, "'data.init_labeled_fraction'"),
            ({"num_cycles": 1.7}, "'num_cycles'"),
            ({"train": {"lr": "fast"}}, "'train.lr'"),
            # json reads NaN and Infinity; training would fail on them
            ({"train": {"lr": float("nan")}}, "'train.lr'"),
            ({"train": {"momentum": float("nan")}}, "'train.momentum'"),
            ({"train": {"tau1": float("nan")}}, "'train.tau1'"),
            ({"train": {"lr": float("inf")}}, "'train.lr'"),
            ({"data": {"radius": float("nan")}}, "'data.radius'"),
            ({"train": {"head_init_scale": -1.0}}, "head_init_scale"),
            # the IDX paths are strings and the known classes integers
            ({"data": {"idx": {**IDX, "images": 5}}}, "'data.idx.images'"),
            ({"data": {"idx": {**IDX, "labels": ["y"]}}}, "'data.idx.labels'"),
            ({"data": {"idx": {**IDX, "known_classes": []}}}, "'data.idx.known_classes'"),
            ({"data": {"idx": {**IDX, "known_classes": 3}}}, "'data.idx.known_classes'"),
            ({"data": {"idx": {**IDX, "known_classes": "01"}}}, "'data.idx.known_classes'"),
            ({"data": {"idx": {**IDX, "known_classes": [0, 1.5]}}}, "'data.idx.known_classes'"),
            ({"data": {"idx": {**IDX, "known_classes": [True]}}}, "'data.idx.known_classes'"),
            # a seed seeds numpy's generators, which take none below 0
            ({"seeds": [-1]}, "'seeds'"),
            ({"seeds": [0, -1]}, "'seeds'"),
            # two cells of one grid would write the same files
            ({"strategies": ["random", "random"]}, "'strategies' repeats 'random'"),
            ({"seeds": [0, 0]}, "'seeds' repeats 0"),
            ({"openness_ratios": [0.5, 0.5]}, "'openness_ratios'"),
            ({"openness_ratios": [0.5, 0.5000001]}, "0.5 and 0.5000001"),
            ({"openness_ratios": [0.0, -0.0]}, "'openness_ratios' repeats 0.0"),
            # a fraction that leaves a pool empty: 0, or under half an
            # example of the 30 per class
            ({"data": {"test_fraction": 0}}, "'data.test_fraction'"),
            ({"data": {"init_labeled_fraction": 0}}, "'data.init_labeled_fraction'"),
            ({"data": {"init_labeled_fraction": 0.01}}, "'data.init_labeled_fraction'"),
            # fractions that together take more than a class: 15 + 18 of 30
            (
                {"data": {"init_labeled_fraction": 0.5, "test_fraction": 0.6}},
                "'data.test_fraction' take 33 examples",
            ),
            # None would write into ./None and "" into the working directory
            ({"output_dir": None}, "'output_dir'"),
            ({"output_dir": ""}, "'output_dir'"),
            ({"output_dir": 5}, "'output_dir'"),
            ({"openness_ratios": [0.9]}, "'openness_ratios'"),
            # 2 x 21 known unlabeled examples and 60 unknown ones
            ({"openness_ratios": [0.5, 0.9]}, "achievable range is [0, 0.5882]"),
            # one known class, or a repeated one, leaves a model of fewer
            # real classes than outputs
            ({"data": {"idx": {**IDX, "known_classes": [3]}}}, "'data.idx.known_classes'"),
            ({"data": {"idx": {**IDX, "known_classes": [0, 0]}}}, "'data.idx.known_classes' repeats 0"),
            # a line has two points at the radius, so a third class repeats a mean
            ({"data": {"dim": 1}}, "dim 1 holds 2 distinct class means, not the 4 classes"),
            # only null means blob data; every other idx is an IDX object
            ({"data": {"idx": {}}}, "'data.idx.images'"),
            ({"data": {"idx": []}}, "'data.idx'"),
            ({"data": {"idx": 0}}, "'data.idx'"),
            ({"data": {"idx": False}}, "'data.idx'"),
            ({"data": {"idx": ""}}, "'data.idx'"),
            ({"data": {"idx": {**IDX, "imagez": "x"}}}, "'data.idx.imagez'"),
            # no epochs, not a milestone outside them
            ({"train": {"epochs": 0}}, "epochs must be positive"),
        ],
    )
    def test_config_error_exits_2_before_any_cell(
        self, tmp_path, capsys, monkeypatch, overrides, field
    ):
        """Each bad value is reported against its field with exit 2, before
        the output directory is created or a cell runs.  The run starts in
        tmp_path, where a relative output directory would land."""
        monkeypatch.chdir(tmp_path)
        raw = json.loads(minimal_config(tmp_path).read_text())
        for key, value in overrides.items():
            raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert field in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "config.json"]

    @pytest.mark.parametrize("kind", ["directory", "non-UTF-8 file"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"\xff\xfe{")
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["-3", "x", "1.5"])
    def test_bad_seed_env_exits_2_before_any_cell(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv(cli.SEED_ENV_VAR, value)
        assert cli.main(["run", "--config", str(minimal_config(tmp_path))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and cli.SEED_ENV_VAR in err
        assert not (tmp_path / "results").exists()

    def test_idx_data_run(self, tmp_path):
        """A run on an IDX image/label pair: 4 classes of 30 4x4 images,
        classes 0 and 1 known."""
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(120, 4, 4), dtype=np.uint8)
        labels = np.repeat(np.arange(4), 30)
        write_idx_images(tmp_path / "images.idx", images)
        write_idx_labels(tmp_path / "labels.idx", labels)
        idx = {
            "images": str(tmp_path / "images.idx"),
            "labels": str(tmp_path / "labels.idx"),
            "known_classes": [0, 1],
        }
        path = minimal_config(
            tmp_path,
            strategies=["coarse_to_fine"],
            data={"idx": idx, "init_labeled_fraction": 0.1},
        )
        assert cli.main(["run", "--config", str(path)]) == 0
        tag = "coarse_to_fine_r0.5_s0"
        lines = (tmp_path / "results" / f"metrics_{tag}.csv").read_text().splitlines()
        assert len(lines) == 1 + 3  # header + initial + 2 cycles
        manifest = json.loads((tmp_path / "results" / f"manifest_{tag}.json").read_text())
        assert manifest["config"]["data"]["idx"] == idx

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys, jobs):
        path = minimal_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(path), "--jobs", jobs])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_jobs_after_a_threaded_pass_finish(self, tmp_path):
        """Fork safety: a process that ran a two-worker pool pass then runs
        ``run --jobs 2``, whose forked cell processes run two-worker passes
        of their own over a two-block pool.  A thread left running, or a
        lock it held, would hang the grid; its CSVs must match the serial
        run's."""
        path = minimal_config(
            tmp_path,
            data={"num_known": 10, "num_unknown": 10, "dim": 16, "per_class": 600},
            train={"epochs": 1, "lr_milestones": [], "discrepancy_epochs": 0},
            query_size=50,
            num_cycles=1,
            strategies=["coarse_to_fine", "entropy"],
            seeds=[0, 1],
        )
        script = textwrap.dedent(
            """
            import json, sys
            from pathlib import Path
            import numpy as np
            from openset_al import cli, selection
            from openset_al.model import init_model
            selection._pool_width = lambda blocks: min(2, blocks)
            m = init_model(16, 10, seed=0)
            selection.score_pool(m, np.random.default_rng(0).normal(size=(9000, 16)))
            config = json.loads(Path(sys.argv[1]).read_text())
            for jobs in ("2", "1"):
                config["output_dir"] = sys.argv[1] + jobs
                Path(config["output_dir"] + ".json").write_text(json.dumps(config))
                if cli.main(["run", "--config", config["output_dir"] + ".json", "--jobs", jobs]):
                    sys.exit(1)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        forked, serial = Path(f"{path}2"), Path(f"{path}1")
        names = sorted(p.name for p in serial.glob("metrics_*.csv"))
        assert len(names) == 4
        for name in names:
            assert (forked / name).read_bytes() == (serial / name).read_bytes()

    def test_one_group_at_jobs_two_runs_in_process(self, tmp_path, monkeypatch):
        """A group process would get 1/jobs of the CPUs, so a grid of one
        (ratio, seed) group at --jobs 2 runs in this process instead,
        however many strategies it holds."""

        def refuse(*args, **kwargs):
            raise AssertionError("a one-group grid started a process pool")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", refuse)
        path = minimal_config(tmp_path, strategies=["random", "margin"])
        assert cli.main(["run", "--config", str(path), "--jobs", "2"]) == 0
        assert len(list((tmp_path / "results").glob("metrics_*.csv"))) == 2

    def test_jobs_capped_at_the_group_count(self, tmp_path, pools):
        """--jobs 4 on four cells in two groups starts two processes,
        each with half the CPUs."""
        path = minimal_config(tmp_path, strategies=["random", "margin"], seeds=[0, 1])
        assert cli.main(["run", "--config", str(path), "--jobs", "4"]) == 0
        assert pools == [(2, (2,))]
        assert len(list((tmp_path / "results").glob("metrics_*.csv"))) == 4

    @pytest.mark.parametrize("cpus, started", [(1, []), (2, [(2, (2,))]), (4, [(3, (3,))])])
    def test_default_jobs_one_per_cpu_capped_at_the_groups(
        self, tmp_path, monkeypatch, pools, cpus, started
    ):
        """Without --jobs, three groups start one process per CPU in the
        affinity mask, at most one per group, and run in-process on one
        CPU.  Each manifest records the processes that ran at once."""
        monkeypatch.setattr(selection, "_cpu_count", lambda: cpus)
        path = minimal_config(tmp_path, seeds=[0, 1, 2])
        assert cli.main(["run", "--config", str(path)]) == 0
        assert pools == started
        jobs = min(cpus, 3)
        for seed in (0, 1, 2):
            manifest = tmp_path / "results" / f"manifest_random_r0.5_s{seed}.json"
            assert json.loads(manifest.read_text())["jobs"] == jobs

    def test_parallel_jobs_match_serial(self, tmp_path):
        """--jobs 2 and the default write the bytes of --jobs 1, and each
        manifest records how many group processes ran at once."""
        runs = {"s": ["--jobs", "1"], "p": ["--jobs", "2"], "d": []}
        for out, flags in runs.items():
            path = minimal_config(tmp_path, seeds=[0, 1], output_dir=str(tmp_path / out))
            assert cli.main(["run", "--config", str(path), *flags]) == 0
        for seed in (0, 1):
            name = f"metrics_random_r0.5_s{seed}.csv"
            serial = (tmp_path / "s" / name).read_bytes()
            assert (tmp_path / "p" / name).read_bytes() == serial
            assert (tmp_path / "d" / name).read_bytes() == serial
            for out, jobs in (("s", 1), ("p", 2)):
                manifest = tmp_path / out / f"manifest_random_r0.5_s{seed}.json"
                assert json.loads(manifest.read_text())["jobs"] == jobs

    def test_default_run_leaves_no_process_running(self, tmp_path, monkeypatch, capsys):
        """A default run of two groups on two CPUs forks two group
        processes and joins them, when both groups finish and when the
        second one raises."""
        monkeypatch.setattr(selection, "_cpu_count", lambda: 2)
        path = minimal_config(tmp_path, seeds=[0, 1])
        assert cli.main(["run", "--config", str(path)]) == 0
        assert multiprocessing.active_children() == []
        manifests = sorted((tmp_path / "results").glob("manifest_*.json"))
        assert [json.loads(m.read_text())["jobs"] for m in manifests] == [2, 2]

        real = cli.run_experiment

        def second_group_fails(split, cfg, *args, **kwargs):
            if cfg.seed == 1:
                raise RuntimeError("group s1 failed")
            return real(split, cfg, *args, **kwargs)

        monkeypatch.setattr(cli, "run_experiment", second_group_fails)
        capsys.readouterr()
        assert cli.main(["run", "--config", str(path)]) == 1
        assert "run failed: group s1 failed" in capsys.readouterr().err
        assert multiprocessing.active_children() == []


# 2 strategies x 2 ratios x 2 seeds: four (ratio, seed) groups of two runs
GROUP_GRID = dict(
    strategies=["coarse_to_fine", "margin"], openness_ratios=[0.3, 0.5], seeds=[0, 1]
)


def grid_cells(resolved):
    return [
        (strategy, r, seed)
        for strategy in resolved["strategies"]
        for r in resolved["openness_ratios"]
        for seed in resolved["seeds"]
    ]


class TestGroups:
    """``run`` builds each (ratio, seed) group's split and cycle-0 model
    once and runs every strategy from them; the files are those of one
    ``run_experiment`` call per cell, which is the reference here."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_csvs_match_one_run_experiment_per_cell(self, tmp_path, jobs):
        path = minimal_config(tmp_path, **GROUP_GRID)
        resolved = cli.resolve_config(json.loads(path.read_text()))
        reference = tmp_path / "reference"
        reference.mkdir()
        for strategy, r, seed in grid_cells(resolved):
            split = cli._build_split(resolved, r, seed)
            metrics = harness.run_experiment(split, cli._train_config(resolved, seed), strategy)
            name = f"metrics_{cli.run_tag(strategy, r, seed)}.csv"
            harness.write_metrics_csv(reference / name, metrics, strategy, seed, r)
        assert cli.main(["run", "--config", str(path), "--jobs", jobs]) == 0
        names = sorted(p.name for p in reference.iterdir())
        assert len(names) == 8
        assert sorted(p.name for p in (tmp_path / "results").glob("metrics_*.csv")) == names
        for name in names:
            assert (tmp_path / "results" / name).read_bytes() == (reference / name).read_bytes()

    def test_split_and_cycle_zero_model_built_once_per_group(self, tmp_path, monkeypatch):
        """Four groups make four splits and four cycle-0 trainings; each
        of the eight runs then trains its two query cycles."""
        counts = {"make_blobs": 0, "train_cycle": 0}
        for module, name in ((cli, "make_blobs"), (harness, "train_cycle")):
            real = getattr(module, name)

            def counted(*args, real=real, name=name, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        path = minimal_config(tmp_path, **GROUP_GRID)
        # in-process, so that this process counts every call
        assert cli.main(["run", "--config", str(path), "--jobs", "1"]) == 0
        assert counts == {"make_blobs": 4, "train_cycle": 4 + 8 * 2}

    def test_each_second_counted_once(self, tmp_path, monkeypatch):
        """Every manifest of a group names the group's runs and the seconds
        of their shared cycle-0 training, which no cycle counts.  The
        cycles of every run plus each group's shared seconds, counted once,
        stay below the time of the whole command, with every training
        slowed so that a second counted twice would show."""
        real = harness.train_cycle

        def delayed(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "train_cycle", delayed)
        path = minimal_config(tmp_path, **GROUP_GRID)
        start = time.perf_counter()
        # in-process: group processes running at once would overlap their seconds
        assert cli.main(["run", "--config", str(path), "--jobs", "1"]) == 0
        outside = time.perf_counter() - start
        resolved = cli.resolve_config(json.loads(path.read_text()))
        shared, counted = {}, 0.0
        for strategy, r, seed in grid_cells(resolved):
            tag = cli.run_tag(strategy, r, seed)
            manifest = json.loads((tmp_path / "results" / f"manifest_{tag}.json").read_text())
            record = manifest["first_cycle"]
            assert record["runs"] == [cli.run_tag(s, r, seed) for s in resolved["strategies"]]
            assert record["wall_time"] >= 0.05
            shared.setdefault((r, seed), record["wall_time"])
            assert shared[(r, seed)] == record["wall_time"]
            cycles = [c["wall_time"] for c in manifest["cycles"]]
            assert cycles[0] < 0.05 and all(t >= 0.05 for t in cycles[1:])
            counted += sum(cycles)
        assert len(shared) == 4
        assert counted + sum(shared.values()) < outside


class TestCmdReport:
    def run_grid(self, tmp_path, seeds):
        path = minimal_config(tmp_path, seeds=seeds)
        assert cli.main(["run", "--config", str(path)]) == 0
        return tmp_path / "results"

    def test_single_run_zero_std(self, tmp_path):
        results = self.run_grid(tmp_path, [0])
        assert cli.main(["report", "--dir", str(results)]) == 0
        rows = (results / "summary_accuracy.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        assert rows[1].split(",")[4] == "0.0"

    def test_hand_computed_mean_and_population_std(self, tmp_path):
        """Three runs with doctored accuracies {0.8, 0.9, 1.0}: the summary
        must report mean 0.9 and population std sqrt(0.02/3)."""
        results = self.run_grid(tmp_path, [0, 1, 2])
        for seed, acc in zip([0, 1, 2], [0.8, 0.9, 1.0]):
            p = results / f"metrics_random_r0.5_s{seed}.csv"
            lines = p.read_text().splitlines()
            doctored = [lines[0]]
            for line in lines[1:]:
                parts = line.split(",")
                parts[5] = repr(acc)
                doctored.append(",".join(parts))
            p.write_text("\n".join(doctored) + "\n")
        assert cli.main(["report", "--dir", str(results)]) == 0
        row = (results / "summary_accuracy.csv").read_text().strip().splitlines()[1]
        _, _, n, mean, std = row.split(",")
        assert n == "3"
        assert float(mean) == pytest.approx(0.9, abs=1e-12)
        assert float(std) == pytest.approx((0.02 / 3) ** 0.5, abs=1e-12)

    def test_hand_computed_precision_series(self, tmp_path):
        """Three runs with doctored query precisions {0.25, 0.5, 1.0}: every
        cycle of the series must report mean 7/12 and population std
        sqrt(14) / 12."""
        results = self.run_grid(tmp_path, [0, 1, 2])
        for seed, prec in zip([0, 1, 2], [0.25, 0.5, 1.0]):
            p = results / f"metrics_random_r0.5_s{seed}.csv"
            lines = p.read_text().splitlines()
            doctored = [lines[0]]
            for line in lines[1:]:
                parts = line.split(",")
                if parts[4]:  # cycle 0 has no query
                    parts[4] = repr(prec)
                doctored.append(",".join(parts))
            p.write_text("\n".join(doctored) + "\n")
        assert cli.main(["report", "--dir", str(results)]) == 0
        rows = (results / "query_precision_series.csv").read_text().strip().splitlines()
        assert [row.split(",")[2] for row in rows[1:]] == ["1", "2"]
        for row in rows[1:]:
            _, _, _, n, mean, std = row.split(",")
            assert n == "3"
            assert float(mean) == pytest.approx(7 / 12, abs=1e-12)
            assert float(std) == pytest.approx(14 ** 0.5 / 12, abs=1e-12)

    def test_malformed_row_skipped_with_warning(self, tmp_path, capsys):
        results = self.run_grid(tmp_path, [0])
        p = results / "metrics_random_r0.5_s0.csv"
        p.write_text(p.read_text() + "garbage,row,with,bad,fields,x,y,z,w,v\n")
        assert cli.main(["report", "--dir", str(results)]) == 0
        assert "malformed row skipped" in capsys.readouterr().err

    def test_repeated_run_skipped_with_warning(self, tmp_path, capsys):
        """A second CSV of the same (strategy, r, seed) used to replace the
        first in name order, silently; the first is kept and the second
        named on stderr."""
        results = self.run_grid(tmp_path, [0])
        first = results / "metrics_random_r0.5_s0.csv"
        lines = first.read_text().splitlines()
        parts = lines[-1].split(",")
        parts[5] = "0.125"
        (results / "variant_b.csv").write_text("\n".join(lines[:-1] + [",".join(parts)]) + "\n")
        assert cli.main(["report", "--dir", str(results)]) == 0
        out, err = capsys.readouterr()
        assert f"{results / 'variant_b.csv'} repeats the run in {first}" in err
        assert "aggregated 1 runs" in out
        row = (results / "summary_accuracy.csv").read_text().strip().splitlines()[1]
        assert float(row.split(",")[3]) == float(lines[-1].split(",")[5])

    @pytest.mark.parametrize("kind", ["non-UTF-8 file", "directory"])
    def test_unreadable_csv_skipped_with_warning(self, tmp_path, capsys, kind):
        """A ``*.csv`` entry that cannot be read as text used to end the
        report with a traceback; it is skipped with a warning naming it,
        as a CSV without the metrics header is, and the other runs are
        aggregated."""
        results = self.run_grid(tmp_path, [0])
        bad = results / "x.csv"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_bytes(b"\xff\xfecycle,strategy\n")
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(results)]) == 0
        out, err = capsys.readouterr()
        assert f"warning: {bad} " in err
        assert "aggregated 1 runs" in out

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert cli.main(["report", "--dir", str(empty)]) == 1
        assert "no valid run CSVs" in capsys.readouterr().err

    def test_precision_series_shape(self, tmp_path):
        results = self.run_grid(tmp_path, [0, 1])
        assert cli.main(["report", "--dir", str(results)]) == 0
        rows = (results / "query_precision_series.csv").read_text().strip().splitlines()
        # one row per cycle with a recorded precision (cycles 1 and 2)
        assert len(rows) == 3
        assert rows[0].split(",")[2] == "cycle"
        assert all(r.split(",")[3] == "2" for r in rows[1:])


class TestCmdCheck:
    def test_pristine_build_passes_quickly(self, capsys):
        start = time.perf_counter()
        assert cli.main(["check"]) == 0
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        assert elapsed < 30
        assert out.count("PASS") == len(CHECK_NAMES)
        assert "FAIL" not in out

    def test_sign_error_mutation_fails_decomposition(self, monkeypatch, capsys):
        """Fault injection: flipping the sign convention inside the
        expected-entropy formula must break the decomposition identity."""
        real = evidential.data_uncertainty

        def mutated(alpha):
            return -real(alpha)

        monkeypatch.setattr(evidential, "data_uncertainty", mutated)
        assert cli.main(["check"]) == 1
        out = capsys.readouterr().out
        assert "FAIL decomposition_identity" in out
        assert "PASS jsd_properties" in out

    def test_base_two_entropy_fails_decomposition_alone(self, monkeypatch):
        """Fault injection: an entropy in bits where the decomposition is
        in nats.  ``selection`` keeps its own binding, so only the
        identity's target moves."""
        real = evidential.entropy
        monkeypatch.setattr(evidential, "entropy", lambda p: real(p) / np.log(2.0))
        failed = {name for name, ok, _ in run_checks() if not ok}
        assert failed == {"decomposition_identity"}

    def test_crash_counts_as_failure(self, monkeypatch):
        def boom(p, q):
            raise RuntimeError("boom")

        monkeypatch.setattr(evidential, "jsd", boom)
        results = run_checks()
        failed = {name for name, ok, _ in results if not ok}
        assert failed == {"jsd_properties"}

    def test_negated_kl_fails_kl_to_uniform_alone(self, monkeypatch):
        """Fault injection: a sign error in the KL to the flat Dirichlet.
        ``model`` keeps its own binding, so the gradient spot check, whose
        EDL loss holds the KL term, still passes."""
        real = evidential.kl_dirichlet_to_uniform
        monkeypatch.setattr(evidential, "kl_dirichlet_to_uniform", lambda a: -real(a))
        failed = {name for name, ok, _ in run_checks() if not ok}
        assert failed == {"kl_to_uniform"}

    def test_trigamma_off_by_1e_13_fails_trigamma_kernel_alone(self, monkeypatch):
        """Fault injection: a trigamma kernel 1e-13 off in relative terms.
        Both sides of training_step_bitwise call it, and the gradient spot
        check's 1e-4 tolerance absorbs it; only the kernel's own row may
        fail."""
        real = model._trigamma
        monkeypatch.setattr(model, "_trigamma", lambda x: real(x) * (1.0 + 1e-13))
        failed = {name for name, ok, _ in run_checks() if not ok}
        assert failed == {"trigamma_kernel"}

    @pytest.mark.parametrize(
        "helper", ["_edl_grads", "_cross_entropy_grads", "_close_grads", "_dis_grads"]
    )
    def test_wrong_loss_gradient_fails_spot_check(self, monkeypatch, helper):
        """Fault injection: doubling one loss's gradient (its value is
        unchanged) must fail the gradient spot check and nothing else."""
        real = getattr(model, helper)

        def mutated(*args, **kwargs):
            aux, grads = real(*args, **kwargs)
            return aux, [2.0 * g for g in grads]

        monkeypatch.setattr(model, helper, mutated)
        failed = {name for name, ok, _ in run_checks() if not ok}
        assert failed == {"gradient_spot_check"}

    def test_stale_gradient_buffer_fails_training_step(self, monkeypatch):
        """Fault injection: a backward pass that adds to the gradient it is
        given instead of overwriting it.  The public losses start from
        zeros and are unchanged; ``train_cycle`` reuses the model's buffer
        and carries each step's gradient into the next.  Only the
        buffered-step row may fail."""
        real = model._backward

        def accumulating(mdl, acts, dz, grads=None, **kwargs):
            before = None if grads is None else [g.copy() for g in grads]
            grads = real(mdl, acts, dz, grads, **kwargs)
            for g, old in zip(grads, before or ()):
                g += old
            return grads

        monkeypatch.setattr(model, "_backward", accumulating)
        failed = {name for name, ok, _ in run_checks() if not ok}
        assert failed == {"training_step_bitwise"}

    def test_streamed_scores_row_runs_two_workers(self, monkeypatch):
        """The pools of both pool-pass rows run on two workers whatever
        the CPU count: one thread beside the caller in each.  The fits of
        order_free_em_bitwise start none."""
        monkeypatch.setattr(selection, "_cpu_count", lambda: 1)
        started = count_started_threads(monkeypatch)
        results = {name: ok for name, ok, _ in run_checks()}
        assert results["streamed_scores_bitwise"]
        assert results["blocked_forward_bitwise"]
        assert results["order_free_em_bitwise"]
        assert len(started) == 2
        assert selection._workers is None

    def test_short_tail_partition_fails_pool_rows(self, monkeypatch):
        """Fault injection: fixed 4,096-row blocks leave the checks' pool
        of 8,292 rows a 100-row tail, which BLAS rounds through another
        kernel.  Both pool-pass rows must fail, and nothing else."""
        monkeypatch.setattr(
            selection, "_row_blocks",
            lambda model, n: [(lo, min(lo + 4096, n)) for lo in range(0, n, 4096)],
        )
        failed = {name for name, ok, _ in run_checks() if not ok}
        assert failed == {"blocked_forward_bitwise", "streamed_scores_bitwise"}

    @pytest.mark.parametrize(
        "kernel, row",
        [
            ("_mean_probs", "blocked_forward_bitwise"),
            ("_head_distance", "streamed_scores_bitwise"),
        ],
    )
    def test_block_kernel_one_ulp_off_fails_its_pool_row_alone(self, monkeypatch, kernel, row):
        """Fault injection: one pool pass's block kernel returns values one
        ulp up.  ``_mean_probs`` serves ``averaged_probs`` alone and
        ``_head_distance`` serves ``score_pool`` alone, so each fails its
        own pool-pass row and nothing else."""
        real = getattr(selection, kernel)

        def nudged(*args, **kwargs):
            out = real(*args, **kwargs)
            out[...] = np.nextafter(out, np.inf)
            return out

        monkeypatch.setattr(selection, kernel, nudged)
        failed = {name for name, ok, _ in run_checks() if not ok}
        assert failed == {row}

    def test_pool_rows_report_the_partition_that_ran(self, monkeypatch):
        """Fixed 4,096-row blocks cut the checks' pool of 8,292 rows into
        three; the rows' detail says so."""
        monkeypatch.setattr(
            selection, "_row_blocks",
            lambda model, n: [(lo, min(lo + 4096, n)) for lo in range(0, n, 4096)],
        )
        details = {name: detail for name, _, detail in run_checks()}
        for name in ("blocked_forward_bitwise", "streamed_scores_bitwise"):
            assert details[name].endswith("of 8292 rows differ in 3 row blocks on 2 workers")

    def test_order_dependent_fit_fails_order_free_em(self, monkeypatch):
        """Fault injection: a fit whose means move up by one ulp when the
        first score exceeds the last.  Only order_free_em_bitwise may
        fail."""
        real = selection.gmm_fit

        def skewed(scores, *args, **kwargs):
            fit = real(scores, *args, **kwargs)
            if scores[0] > scores[-1]:
                fit.means = np.nextafter(fit.means, np.inf)
            return fit

        monkeypatch.setattr(selection, "gmm_fit", skewed)
        results = {name: (ok, detail) for name, ok, detail in run_checks()}
        assert {name for name, (ok, _) in results.items() if not ok} == {"order_free_em_bitwise"}
        assert "means" in results["order_free_em_bitwise"][1]

    def test_config_seed_used(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [5]}))
        assert cli.main(["check", "--config", str(path)]) == 0

    @pytest.mark.parametrize("raw, seed", [({"seeds": [5]}, 5), ({}, 0)])
    def test_config_seed_reaches_the_checks(self, tmp_path, monkeypatch, raw, seed):
        seen = []
        monkeypatch.setattr(cli, "run_checks", lambda seed: seen.append(seed) or [])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["check", "--config", str(path)]) == 0
        assert seen == [seed]

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        assert cli.main(["check", "--config", str(path)]) == 2

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_exits_two(self, tmp_path, capsys, seed):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seeds": [seed]}))
        assert cli.main(["check", "--config", str(path)]) == 2
        assert "'seeds'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([1], "JSON object"),
            ("seeds", "JSON object"),
            ({"seeds": [-1]}, "'seeds'"),
            ({"seeds": {"a": 1}}, "'seeds'"),
            ({"seeds": 3}, "'seeds'"),
            # read as run reads them: a non-empty array of distinct seeds
            ({"seeds": 0}, "'seeds'"),
            ({"seeds": []}, "'seeds'"),
            ({"seeds": ""}, "'seeds'"),
            ({"seeds": False}, "'seeds'"),
            ({"seeds": [1, 1]}, "'seeds'"),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, capsys, raw, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["check", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err


class TestResolveConfig:
    def test_defaults_filled(self):
        resolved = cli.resolve_config(
            {
                "strategies": ["coarse_to_fine"],
                "openness_ratios": [0.4],
                "seeds": [1],
                "output_dir": "out",
            }
        )
        assert resolved["train"]["lr"] == 0.01
        assert resolved["train"]["momentum"] == 0.9
        assert resolved["train"]["weight_decay"] == 1e-4
        assert resolved["train"]["tau1"] == 7.0
        assert resolved["train"]["tau2"] == -5.0
        assert resolved["train"]["coarse_threshold"] == 0.5
        assert resolved["train"]["alpha_coef"] == 1.0
        assert resolved["train"]["beta_coef"] == 0.5
        assert resolved["query_size"] == 60

    def test_unknown_top_level_field(self):
        with pytest.raises(cli.ConfigError, match="unknown field 'queries'"):
            cli.resolve_config(
                {
                    "strategies": ["random"],
                    "openness_ratios": [0.1],
                    "seeds": [0],
                    "output_dir": "x",
                    "queries": 3,
                }
            )

    def test_out_of_range_ratio(self):
        with pytest.raises(cli.ConfigError, match="openness_ratios"):
            cli.resolve_config(
                {
                    "strategies": ["random"],
                    "openness_ratios": [1.0],
                    "seeds": [0],
                    "output_dir": "x",
                }
            )

    def test_readme_configs_resolve(self, monkeypatch):
        """Every JSON config the README shows passes validation as written."""
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [part.split("```", 1)[0] for part in readme.split("```json\n")[1:]]
        assert blocks
        for block in blocks:
            cli.resolve_config(json.loads(block))

    @pytest.mark.parametrize("data", [{"radius": 5}, {"idx": IDX}])
    def test_resolved_config_is_a_fixed_point(self, monkeypatch, data):
        """The config a manifest echoes resolves to itself, through JSON."""
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        resolved = cli.resolve_config(grid_fields(data=data, train={"lr_milestones": [3]}))
        assert cli.resolve_config(json.loads(json.dumps(resolved))) == resolved


def grid_fields(**extra):
    return {
        "strategies": ["random"],
        "openness_ratios": [0.5],
        "seeds": [3],
        "output_dir": "x",
        **extra,
    }


# A valid non-default value for every TrainConfig field the ``train``
# section accepts (seed, query_size and num_cycles live elsewhere).
TRAIN_OVERRIDES = {
    "lr": 0.05,
    "momentum": 0.5,
    "weight_decay": 1e-3,
    "batch_size": 64,
    "epochs": 90,
    "lr_milestones": [30, 70],
    "tau1": 3.0,
    "tau2": -2.0,
    "coarse_threshold": 0.3,
    "alpha_coef": 2.0,
    "beta_coef": 0.25,
    "discrepancy_epochs": 3,
    "hidden_widths": [32],
    "head_init_scale": 1e-3,
    "train_loss": "cross_entropy",
    "use_discrepancy": False,
}
TRAIN_SECTION_FIELDS = [
    f.name
    for f in dataclasses.fields(TrainConfig)
    if f.name not in ("seed", "query_size", "num_cycles")
]

# A non-default value for every BlobSpec field except the grid-owned seed;
# each leaves grid_fields' ratio 0.5 feasible.
DATA_OVERRIDES = {
    "num_known": 3,
    "num_unknown": 6,
    "dim": 8,
    "per_class": 100,
    "radius": 4.0,
    "cluster_std": 0.5,
}
DATA_SECTION_FIELDS = [f.name for f in dataclasses.fields(BlobSpec) if f.name != "seed"]


class TestConfigSchema:
    @pytest.mark.parametrize("name", TRAIN_SECTION_FIELDS)
    def test_train_field_reaches_train_config(self, name):
        value = TRAIN_OVERRIDES[name]
        assert value != getattr(TrainConfig, name)
        expected = tuple(value) if isinstance(value, list) else value
        resolved = cli.resolve_config(grid_fields(train={name: value}))
        assert resolved["train"][name] == expected
        cfg = cli._train_config(resolved, seed=3)
        assert getattr(cfg, name) == expected
        assert cfg.seed == 3

    @pytest.mark.parametrize("name", DATA_SECTION_FIELDS)
    def test_data_field_reaches_blob_spec(self, name, monkeypatch):
        value = DATA_OVERRIDES[name]
        assert value != getattr(BlobSpec, name)
        resolved = cli.resolve_config(grid_fields(data={name: value}))
        assert resolved["data"][name] == value
        specs = []
        monkeypatch.setattr(cli, "make_blobs", lambda spec, r, **kw: specs.append(spec))
        cli._build_split(resolved, 0.5, seed=3)
        assert getattr(specs[0], name) == value
        assert specs[0].seed == 3

    def test_top_level_cycle_defaults_come_from_train_config(self):
        resolved = cli.resolve_config(grid_fields())
        assert resolved["query_size"] == TrainConfig.query_size
        assert resolved["num_cycles"] == TrainConfig.num_cycles
