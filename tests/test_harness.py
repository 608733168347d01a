"""Harness tests: oracle bookkeeping on a toy split and against the
four-array reference, accuracy evaluation, pool conservation, budget
accounting, and run-level determinism."""

import csv
import dataclasses
import hashlib
import json
import threading
import time

import numpy as np
import pytest
from helpers import count_started_threads
from hypothesis import given, settings
from hypothesis import strategies as st

from openset_al import harness, selection
from openset_al.datasets import BlobSpec, DatasetSplit, Pool, make_blobs
from openset_al.harness import (
    STRATEGIES,
    CycleMetrics,
    evaluate_accuracy,
    first_cycle,
    oracle_label,
    run_experiment,
    write_manifest,
    write_metrics_csv,
)
from openset_al.model import TrainConfig, init_model


def toy_split():
    """10 examples: ids 0-3 labeled/test knowns, 4-9 unlabeled with a
    known/unknown mix (classes 0,1 known; 9 unknown)."""
    features = np.arange(20, dtype=float).reshape(10, 2)
    labels = np.array([0, 1, 0, 1, 0, 1, 9, 9, 0, 9])
    L, U, T = Pool.LABELED, Pool.UNLABELED, Pool.TEST
    return DatasetSplit(
        features=features,
        true_labels=labels,
        known_classes=(0, 1),
        status=np.array([L, L, T, T, U, U, U, U, U, U], dtype=np.int8),
    )


def reference_oracle_label(query_ids, pools, split):
    """``oracle_label`` as it was written over four sorted id arrays
    (labeled, unlabeled, test, discarded); returns the four new arrays."""
    labeled, unlabeled, test, discarded = pools
    query = np.asarray(query_ids, dtype=int)
    assert np.isin(query, unlabeled).all()
    known = split.is_known(split.true_labels[query])
    return (
        np.sort(np.concatenate([labeled, query[known]])),
        np.setdiff1d(unlabeled, query),
        test,
        np.sort(np.concatenate([discarded, query[~known]])),
    )


def pool_arrays(split):
    return (
        split.labeled_ids,
        split.unlabeled_ids,
        split.ids(Pool.TEST),
        split.ids(Pool.DISCARDED),
    )


def pools_digest(split):
    """sha256 over the four pool arrays' dtypes and bytes, in pool order."""
    h = hashlib.sha256()
    for ids in pool_arrays(split):
        h.update(ids.dtype.str.encode())
        h.update(ids.tobytes())
        h.update(b"|")
    return h.hexdigest()


# ``pools_digest`` of make_blobs splits at the perfbench desk and wide
# specs (r = 0.5), taken when a split stored its four pools as sorted id
# arrays: the status vector must derive the same arrays.
DESK_SPEC = dict(num_known=4, num_unknown=4, dim=16, per_class=250)
WIDE_SPEC = dict(num_known=10, num_unknown=10, dim=32, per_class=3000, radius=4.0)
FOUR_ARRAY_DIGESTS = {
    ("desk", 0): "5a3527b90ea5636c09de485613d35b7b7c36e803dca5a189d31266160af91608",
    ("desk", 1): "a5235ef7fa1ff8d7057ebd9268b397816d370d2b434eec0e48db09950965f6df",
    ("desk", 2): "1b7ce467dc03f2813755f3250a333115f3f422ffda31b7d1a99a7dfa4b273b92",
    ("wide", 0): "eb4a369ec7addf0640b0eac480a0f97ec163cdeeeb1bf3b5afe5db5e2470b975",
    ("wide", 1): "2e3fb2a0dca981e66fc2e69d37cdb296c37f1ee73d6e09b70af6b3bdec60f3a1",
    ("wide", 2): "55288da116f2611deb3a2c70277917d8ebb1298a54f7dc92256f6d5266e0773b",
}


class TestOracleLabel:
    def test_all_known_query_grows_labeled(self):
        split = toy_split()
        out = oracle_label([4, 5], split)
        assert len(out.labeled_ids) == 4
        assert len(out.ids(Pool.DISCARDED)) == 0
        assert set(out.unlabeled_ids) == {6, 7, 8, 9}

    def test_all_unknown_query_discards(self):
        split = toy_split()
        out = oracle_label([6, 7], split)
        assert len(out.labeled_ids) == 2
        assert set(out.ids(Pool.DISCARDED)) == {6, 7}

    def test_mixed_query_bookkeeping(self):
        split = toy_split()
        before = np.count_nonzero(split.status)
        out = oracle_label([4, 6, 8, 9], split)
        known_in_query = 2  # ids 4 and 8
        assert len(out.labeled_ids) == 2 + known_in_query
        assert set(out.ids(Pool.DISCARDED)) == {6, 9}
        assert np.count_nonzero(out.status) == before
        out.validate()

    def test_input_split_unmodified(self):
        split = toy_split()
        before = split.status.copy()
        out = oracle_label([4, 6], split)
        np.testing.assert_array_equal(split.status, before)
        assert out.status is not split.status

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError, match="not in the unlabeled pool"):
            oracle_label([0], toy_split())

    @pytest.mark.parametrize("bad_id", [-1, 10])
    def test_out_of_range_id_rejected(self, bad_id):
        """-1 would index the last example, id 9, which is unlabeled."""
        with pytest.raises(ValueError, match=rf"outside \[0, 10\): \[{bad_id}\]"):
            oracle_label([4, bad_id], toy_split())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            oracle_label([4, 4], toy_split())

    @pytest.mark.parametrize("bad", [[4.7, 5.0], [4.0, np.nan], [np.inf]])
    def test_non_integral_id_rejected(self, bad):
        """4.7 used to truncate to id 4 and label it."""
        with pytest.raises(ValueError, match="whole numbers"):
            oracle_label(bad, toy_split())

    @pytest.mark.parametrize("bad", [np.array([True]), ["1"], [True, 5]])
    def test_non_number_ids_rejected(self, bad):
        """[True], ["1"] and [True, 5] used to read id 1 and label it."""
        split = toy_split()
        status = split.status.copy()
        status[[1, 4]] = Pool.UNLABELED, Pool.LABELED
        split = dataclasses.replace(split, status=status)
        with pytest.raises(ValueError, match="must be integers, not"):
            oracle_label(bad, split)

    @pytest.mark.parametrize("shape", ["2-D", "0-D"])
    def test_query_that_is_not_1d_rejected(self, shape):
        """A (2, 2) query used to label all four ids, and a bare id to
        label it; the pool pass already refused both shapes."""
        split = toy_split()
        u = split.unlabeled_ids
        bad = u[:4].reshape(2, 2) if shape == "2-D" else u[0]
        with pytest.raises(ValueError, match="1-D"):
            oracle_label(bad, split)

    def test_whole_float_ids_and_empty_query_accepted(self):
        split = toy_split()
        assert oracle_label([4.0, 6.0], split).status.tobytes() == (
            oracle_label([4, 6], split).status.tobytes()
        )
        assert oracle_label([], split).status.tobytes() == split.status.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 3), r=st.sampled_from([0.0, 0.5]), data=st.data())
    def test_matches_four_array_reference(self, seed, r, data):
        """After every query of a random sequence, the derived pools equal
        the four-array reference in value and dtype."""
        spec = BlobSpec(num_known=3, num_unknown=3, dim=4, per_class=30, seed=seed)
        split = make_blobs(spec, r=r)
        pools = pool_arrays(split)
        for _ in range(data.draw(st.integers(1, 5), label="queries")):
            unlabeled = split.unlabeled_ids.tolist()
            if not unlabeled:
                break
            query = data.draw(
                st.lists(st.sampled_from(unlabeled), min_size=1, max_size=20, unique=True),
                label="query",
            )
            pools = reference_oracle_label(query, pools, split)
            split = oracle_label(query, split)
            for derived, expected in zip(pool_arrays(split), pools):
                assert derived.dtype == expected.dtype
                np.testing.assert_array_equal(derived, expected)

    @pytest.mark.parametrize("family", ["desk", "wide"])
    def test_make_blobs_pools_match_four_array_digests(self, family):
        data = DESK_SPEC if family == "desk" else WIDE_SPEC
        frac = 0.05 if family == "desk" else 0.005
        for seed in range(3):
            split = make_blobs(BlobSpec(seed=seed, **data), 0.5, init_labeled_fraction=frac)
            assert pools_digest(split) == FOUR_ARRAY_DIGESTS[family, seed]


class TestEvaluateAccuracy:
    def test_perfect_identity_model(self):
        """A head that copies the one-hot input predicts every label."""
        m = init_model(3, 3, hidden_widths=(), seed=0)
        for w, b in m.heads:
            w[:] = 5.0 * np.eye(3)
            b[:] = 0.0
        x = np.eye(3)[np.array([0, 1, 2, 1, 0])]
        y = np.array([0, 1, 2, 1, 0])
        assert evaluate_accuracy(m, x, y) == 1.0

    def test_uniform_model_hits_base_rate_exactly(self):
        """Zero weights give uniform probabilities everywhere; argmax ties
        resolve to class 0, so accuracy is exactly 1/C on a balanced set."""
        m = init_model(4, 4, hidden_widths=(8,), seed=1)
        for arr in m.flat_params():
            arr[:] = 0.0
        rng = np.random.default_rng(0)
        x = rng.normal(size=(80, 4))
        y = np.repeat(np.arange(4), 20)
        assert evaluate_accuracy(m, x, y) == pytest.approx(0.25)

    def test_invariant_to_ordering(self):
        m = init_model(4, 3, hidden_widths=(8,), seed=2)
        rng = np.random.default_rng(1)
        x = rng.normal(size=(30, 4))
        y = rng.integers(0, 3, 30)
        perm = rng.permutation(30)
        assert evaluate_accuracy(m, x, y) == evaluate_accuracy(m, x[perm], y[perm])

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            evaluate_accuracy(init_model(2, 2, hidden_widths=()), np.zeros((0, 2)), [])

    def test_rows_read_the_feature_store_without_gathering(self):
        m = init_model(4, 3, hidden_widths=(8,), seed=3)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(50, 4))
        ids = rng.permutation(50)[:30]
        y = rng.integers(0, 3, 30)
        assert evaluate_accuracy(m, x, y, rows=ids) == evaluate_accuracy(m, x[ids], y)
        with pytest.raises(ValueError, match="empty test set"):
            evaluate_accuracy(m, x, [], rows=ids[:0])

    @pytest.mark.parametrize("labels", [[0], np.zeros(9, int), np.zeros((10, 1), int)])
    @pytest.mark.parametrize("rows", [None, np.arange(10)])
    def test_label_count_must_match_the_rows(self, labels, rows):
        """One label used to broadcast against all 10 rows and read 0.4."""
        m = init_model(4, 3, hidden_widths=(8,), seed=4)
        x = np.random.default_rng(3).normal(size=(10, 4))
        with pytest.raises(ValueError, match="labels of shape .* for 10 test rows"):
            evaluate_accuracy(m, x, labels, rows=rows)


def quick_cfg(**kw):
    base = dict(
        epochs=15,
        lr_milestones=(10,),
        discrepancy_epochs=2,
        query_size=12,
        num_cycles=2,
        seed=0,
        hidden_widths=(16,),
    )
    base.update(kw)
    return TrainConfig(**base)


@pytest.fixture(scope="module")
def small_split():
    spec = BlobSpec(num_known=3, num_unknown=3, dim=6, per_class=40, seed=11)
    return make_blobs(spec, r=0.5)


class TestRunExperiment:
    def test_zero_cycles_only_initial_row(self, small_split):
        metrics = run_experiment(small_split, quick_cfg(num_cycles=0), "random")
        assert len(metrics) == 1
        assert metrics[0].cycle == 0
        assert metrics[0].query_precision is None

    def test_closed_set_random_has_perfect_precision(self):
        spec = BlobSpec(num_known=3, num_unknown=0, dim=6, per_class=40, seed=12)
        split = make_blobs(spec, r=0.0)
        metrics = run_experiment(split, quick_cfg(), "random")
        for m in metrics[1:]:
            assert m.query_precision == 1.0

    def test_conservation_and_budget(self, small_split):
        cfg = quick_cfg()
        metrics = run_experiment(small_split, cfg, "coarse_to_fine")
        total0 = (
            metrics[0].labeled_size
            + metrics[0].unlabeled_size
            + metrics[0].discarded_unknown
        )
        for prev, cur in zip(metrics, metrics[1:]):
            assert (
                cur.labeled_size + cur.unlabeled_size + cur.discarded_unknown == total0
            )
            assert prev.unlabeled_size - cur.unlabeled_size == cfg.query_size

    def test_reproducible_metrics(self, small_split):
        cfg = quick_cfg()
        m1 = run_experiment(small_split, cfg, "coarse_to_fine")
        m2 = run_experiment(small_split, cfg, "coarse_to_fine")
        assert m1 == m2  # wall_time excluded from equality

    def test_wall_time_excluded_from_equality(self):
        a = CycleMetrics(0, None, 0.5, 1, 2, 3, wall_time=1.0)
        b = CycleMetrics(0, None, 0.5, 1, 2, 3, wall_time=9.0)
        assert a == b
        assert dataclasses.asdict(a)["wall_time"] == 1.0

    def test_truncated_final_query_flagged(self):
        """32 unlabeled examples and queries of 10: cycle 4 takes the last
        2 and empties the pool, so cycles 5 and 6 never run."""
        spec = BlobSpec(num_known=2, num_unknown=2, dim=4, per_class=12, seed=13)
        split = make_blobs(spec, r=0.5, init_labeled_fraction=0.2, test_fraction=0.2)
        cfg = quick_cfg(query_size=10, num_cycles=6, epochs=5, lr_milestones=(3,))
        metrics = run_experiment(split, cfg, "random")
        assert [m.cycle for m in metrics] == [0, 1, 2, 3, 4]
        assert [m.truncated for m in metrics] == [False] * 4 + [True]
        assert metrics[-1].unlabeled_size == 0

    @pytest.mark.parametrize(
        "overrides, reads_pool",
        [({}, True), ({"discrepancy_epochs": 0}, False), ({"use_discrepancy": False}, False)],
    )
    def test_pool_gathered_for_training_only_when_it_is_read(
        self, small_split, monkeypatch, overrides, reads_pool
    ):
        pools = []
        real = harness.train_cycle

        def recording(model, x_lab, y_lab, x_unl, cfg, rng):
            pools.append(x_unl)
            return real(model, x_lab, y_lab, x_unl, cfg, rng=rng)

        monkeypatch.setattr(harness, "train_cycle", recording)
        run_experiment(small_split, quick_cfg(**overrides), "random")
        assert len(pools) == 3
        assert all((x is not None) == reads_pool for x in pools)

    @pytest.mark.parametrize("strategy", ["coarse_to_fine", "entropy", "random"])
    def test_pool_never_gathered_without_discrepancy(
        self, small_split, monkeypatch, strategy
    ):
        """Selection scores the pool through its ids; with the discrepancy
        phase off, nothing gathers the unlabeled features."""

        def gather(self):
            raise AssertionError("unlabeled pool gathered")

        expected = run_experiment(small_split, quick_cfg(discrepancy_epochs=0), strategy)
        monkeypatch.setattr(DatasetSplit, "unlabeled_features", gather)
        metrics = run_experiment(small_split, quick_cfg(discrepancy_epochs=0), strategy)
        assert len(metrics) == 3 and metrics == expected

    def test_random_runs_no_pool_pass(self, small_split, monkeypatch):
        expected = run_experiment(small_split, quick_cfg(), "random")

        def refuse(*args, **kwargs):
            raise AssertionError("random scored the pool")

        for name in ("score_pool", "baseline_rank"):
            monkeypatch.setattr(harness, name, refuse)
        assert run_experiment(small_split, quick_cfg(), "random") == expected

    def test_unknown_strategy_rejected(self, small_split):
        with pytest.raises(ValueError, match="unknown strategy"):
            run_experiment(small_split, quick_cfg(), "coreset")

    @pytest.mark.parametrize(
        "fractions, pool",
        [({"init_labeled_fraction": 0.0}, "labeled"), ({"test_fraction": 0.0}, "test")],
    )
    def test_empty_pool_rejected_before_training(self, monkeypatch, fractions, pool):
        spec = BlobSpec(num_known=3, num_unknown=3, dim=6, per_class=40, seed=11)
        split = make_blobs(spec, r=0.5, **fractions)

        def refuse(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(harness, "train_cycle", refuse)
        with pytest.raises(ValueError, match=f"the {pool} pool is empty"):
            run_experiment(split, quick_cfg(), "random")

    def test_short_feature_store_rejected_before_training(self, monkeypatch, small_split):
        """A feature store 50 rows short of the labels used to train cycle
        0 and then fail in the pool pass with an IndexError."""
        split = dataclasses.replace(small_split, features=small_split.features[:-50])

        def refuse(*args, **kwargs):
            raise AssertionError("a model was trained")

        monkeypatch.setattr(harness, "train_cycle", refuse)
        with pytest.raises(ValueError, match="features must be 2-D with 240 rows"):
            run_experiment(split, quick_cfg(), "random")

    def test_labeled_pool_purity_every_cycle(self, small_split):
        """Random queries through the oracle keep every intermediate split
        valid: no example leaves the pools, and the labeled and test pools
        hold known classes only."""
        rng = np.random.default_rng(0)
        split = small_split
        in_pools = np.count_nonzero(split.status)
        for _ in range(6):
            query = rng.choice(split.unlabeled_ids, size=12, replace=False)
            split = oracle_label(query, split)
            split.validate()
            assert np.count_nonzero(split.status) == in_pools
            for pool in (Pool.LABELED, Pool.TEST):
                assert split.is_known(split.true_labels[split.ids(pool)]).all()
        assert len(split.ids(Pool.DISCARDED)) > 0


def refuse_training(*args, **kwargs):
    raise AssertionError("a model was trained")


class TestFirstCycle:
    """The cycle-0 model depends on the split, the config and the seed,
    not on the strategy, so one ``first_cycle`` serves every strategy."""

    def test_every_strategy_from_one_first_cycle_matches_its_own(self, small_split):
        cfg = quick_cfg()
        first = first_cycle(small_split, cfg)
        for strategy in STRATEGIES:
            shared = run_experiment(small_split, cfg, strategy, first=first)
            assert shared == run_experiment(small_split, cfg, strategy)
            assert [m.cycle for m in shared] == [0, 1, 2]

    @pytest.mark.parametrize("other", ["seed", "epochs", "split", "status"])
    def test_first_from_elsewhere_rejected_before_training(
        self, small_split, monkeypatch, other
    ):
        first = first_cycle(small_split, quick_cfg())
        split, cfg = small_split, quick_cfg()
        if other == "seed":
            cfg = quick_cfg(seed=1)
        elif other == "epochs":
            cfg = quick_cfg(epochs=16)
        elif other == "split":
            spec = BlobSpec(num_known=3, num_unknown=3, dim=6, per_class=40, seed=12)
            split = make_blobs(spec, r=0.5)
        else:
            split = oracle_label(split.unlabeled_ids[:5], split)
        monkeypatch.setattr(harness, "train_cycle", refuse_training)
        with pytest.raises(ValueError, match="first cycle was trained on another|under another"):
            run_experiment(split, cfg, "random", first=first)

    def test_status_changed_in_place_is_another_status(self, small_split, monkeypatch):
        split = dataclasses.replace(small_split, status=small_split.status.copy())
        first = first_cycle(split, quick_cfg())
        split.status[split.unlabeled_ids[0]] = Pool.DISCARDED
        monkeypatch.setattr(harness, "train_cycle", refuse_training)
        with pytest.raises(ValueError, match="another status array"):
            run_experiment(split, quick_cfg(), "random", first=first)

    def test_cycle_zero_counts_the_training_only_when_the_run_made_it(
        self, small_split, monkeypatch
    ):
        real = harness.train_cycle

        def delayed(*args, **kwargs):
            time.sleep(0.2)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "train_cycle", delayed)
        cfg = quick_cfg(num_cycles=1)
        first = first_cycle(small_split, cfg)
        given = run_experiment(small_split, cfg, "random", first=first)
        own = run_experiment(small_split, cfg, "random")
        assert first.wall_time >= 0.2 and own[0].wall_time >= 0.2
        assert given[0].wall_time < 0.2
        assert given[1].wall_time >= 0.2 and own[1].wall_time >= 0.2

    def test_each_query_cycle_derives_each_pool_once(self, small_split, monkeypatch):
        """Per query cycle: the labeled, unlabeled and discarded ids once.
        The split is validated once per run, where it starts, not again
        after each oracle call."""
        calls, checks = [], []
        real_ids, real_validate = DatasetSplit.ids, DatasetSplit.validate

        def counted(self, pool):
            calls.append(pool)
            return real_ids(self, pool)

        def validated(self):
            checks.append(self)
            return real_validate(self)

        monkeypatch.setattr(DatasetSplit, "ids", counted)
        monkeypatch.setattr(DatasetSplit, "validate", validated)
        per_run = []
        for num_cycles in (1, 3):
            calls.clear()
            checks.clear()
            run_experiment(small_split, quick_cfg(num_cycles=num_cycles), "entropy")
            per_run.append(len(calls))
            assert [c is small_split for c in checks] == [True]
        assert (per_run[1] - per_run[0]) / 2 == 3


class TestCycleSeeds:
    def test_seed_plan(self):
        """Per cycle, the (init, shuffle, select) children of the master
        seed's child for that cycle: 0 and 1 in cycle 0, which makes no
        query, and 3, 4 and 2 in each query cycle."""
        cfg = quick_cfg(num_cycles=3, seed=9)
        plan = harness._cycle_seeds(cfg)
        keys = [tuple(s and s.spawn_key for s in seeds) for seeds in plan]
        assert keys == [((0, 0), (0, 1), None)] + [
            ((c, 3), (c, 4), (c, 2)) for c in (1, 2, 3)
        ]
        assert {s.entropy for seeds in plan for s in seeds if s} == {9}


@pytest.fixture(scope="module")
def wide_split():
    """A test set of 4,160 rows, above the gate for evaluating beside the
    next training, and an open pool of about 33,000 that the coarse
    filter fits on the calling thread."""
    spec = BlobSpec(num_known=4, num_unknown=4, dim=8, per_class=5200, seed=3)
    split = make_blobs(spec, r=0.5, init_labeled_fraction=0.01)
    assert len(split.ids(Pool.TEST)) >= selection.FORWARD_MIN_BLOCK
    return split


def wide_cfg(**kw):
    return quick_cfg(
        epochs=2, lr_milestones=(1,), discrepancy_epochs=0, query_size=50, **kw
    )


class TestEvaluationBesideTraining:
    """Each model is evaluated on the calling thread while the next one
    trains on a second thread, when the test set and the CPUs allow it."""

    def test_helper_runs_under_the_callers_errstate(self):
        """numpy keeps np.errstate per thread; the helper takes the
        caller's."""
        with np.errstate(under="raise", divide="ignore"):
            here, there = selection._run_tasks([lambda w: np.geterr()] * 2, 2)
        assert there == here and here["under"] == "raise"

    @pytest.mark.parametrize("fails", ["here", "there", "both"])
    def test_helper_raises_once_both_finished(self, fails):
        """At a width of 2 each worker takes one of the two tasks before
        the helper starts; the lower task's error is raised, and only once
        both tasks returned, so no thread outlives the call."""
        finished = []

        def call(name):
            def run(worker):
                time.sleep(0.05 if name == "there" else 0.0)
                finished.append(name)
                if fails in (name, "both"):
                    raise RuntimeError(name)
            return run

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="here" if fails != "there" else "there"):
            selection._run_tasks([call("here"), call("there")], 2)
        assert sorted(finished) == ["here", "there"]
        assert threading.active_count() == before

    def test_task_zero_runs_on_the_calling_thread(self):
        """The evaluation is task 0, so it and the scratch its pool pass
        allocates stay on the calling thread and in its malloc arena;
        training is the helper's."""
        here = threading.current_thread()
        (w0, t0), (w1, t1) = selection._run_tasks(
            [lambda w: (w, threading.current_thread())] * 2, 2
        )
        assert (w0, t0) == (0, here) and w1 == 1 and t1 is not here

    def test_width_one_runs_in_order_on_the_calling_thread(self, monkeypatch):
        started = count_started_threads(monkeypatch)
        calls = []

        def task(worker):
            calls.append((worker, threading.current_thread()))
            return len(calls)

        assert selection._run_tasks([task] * 3, 1) == [1, 2, 3]
        assert calls == [(0, threading.current_thread())] * 3
        assert started == []

    @pytest.mark.parametrize("width", [1, 2])
    def test_no_task_is_taken_after_a_failure(self, width):
        ran = []

        def task(worker):
            ran.append(len(ran))
            if len(ran) == 1:
                raise RuntimeError("first")
            time.sleep(0.05)

        with pytest.raises(RuntimeError, match="first"):
            selection._run_tasks([task] * 5, width)
        assert len(ran) == width

    @pytest.mark.parametrize("strategy", ["coarse_to_fine", "entropy", "random"])
    def test_same_rows_and_csv_bytes_on_one_and_two_workers(
        self, wide_split, monkeypatch, tmp_path, strategy
    ):
        digests, runs = [], []
        for workers in (1, 2):
            monkeypatch.setattr(selection, "_workers", workers)
            started = count_started_threads(monkeypatch)
            metrics = run_experiment(wide_split, wide_cfg(), strategy)
            path = tmp_path / f"{workers}.csv"
            write_metrics_csv(path, metrics, strategy, 0, 0.5)
            digests.append(hashlib.sha256(path.read_bytes()).hexdigest())
            runs.append((metrics, len(started)))
        (serial, serial_threads), (paired, paired_threads) = runs
        assert paired == serial and [m.cycle for m in paired] == [0, 1, 2]
        assert digests[0] == digests[1]
        assert serial_threads == 0
        # one evaluation per query cycle; the pool passes run in one block
        # and the coarse fit runs on the calling thread
        assert paired_threads == 2

    def test_desk_run_starts_no_thread(self, small_split, monkeypatch):
        monkeypatch.setattr(selection, "_workers", 2)
        started = count_started_threads(monkeypatch)
        for strategy in ("coarse_to_fine", "entropy"):
            run_experiment(small_split, quick_cfg(), strategy)
        assert started == []

    def test_failing_deferred_evaluation_raises_and_leaves_no_thread(
        self, wide_split, monkeypatch
    ):
        """Model 0's evaluation, the first, runs on the calling thread
        beside model 1's training on the helper; its error is raised once
        that training has been joined."""
        monkeypatch.setattr(selection, "_workers", 2)
        before = threading.active_count()

        def failing(*args, **kwargs):
            if threading.current_thread() is threading.main_thread():
                raise RuntimeError("evaluation failed beside training")

        monkeypatch.setattr(harness, "evaluate_accuracy", failing)
        with pytest.raises(RuntimeError, match="beside training"):
            run_experiment(wide_split, wide_cfg(), "random")
        assert threading.active_count() == before

    def test_evaluation_on_the_caller_and_training_on_the_helper(
        self, wide_split, monkeypatch
    ):
        """At a width of 2 every evaluation runs on the main thread, and
        every training but model 0's, which has nothing beside it, on the
        helper."""
        monkeypatch.setattr(selection, "_workers", 2)
        threads = {"evaluate_accuracy": [], "train_cycle": []}
        for name, calls in threads.items():
            real = getattr(harness, name)

            def traced(*args, real=real, calls=calls, **kwargs):
                calls.append(threading.current_thread() is threading.main_thread())
                return real(*args, **kwargs)

            monkeypatch.setattr(harness, name, traced)
        run_experiment(wide_split, wide_cfg(), "random")
        assert threads["evaluate_accuracy"] == [True] * 3
        assert threads["train_cycle"] == [True, False, False]

    def test_failing_training_joins_the_evaluation(self, wide_split, monkeypatch):
        monkeypatch.setattr(selection, "_workers", 2)
        calls = []
        real = harness.train_cycle

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("training failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "train_cycle", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="training failed"):
            run_experiment(wide_split, wide_cfg(), "random")
        assert threading.active_count() == before

    @pytest.mark.parametrize("slow", ["train_cycle", "evaluate_accuracy"])
    def test_cycle_times_sum_below_the_run_time(self, wide_split, monkeypatch, slow):
        """A row's wall_time is the loop iteration that trained its model,
        beside the previous model's evaluation, and the last row also
        holds its own evaluation; no time is counted twice, so the rows
        sum to less than the run, whichever of the two overlapped calls
        takes longer."""
        monkeypatch.setattr(selection, "_workers", 2)
        real = getattr(harness, slow)

        def delayed(*args, **kwargs):
            time.sleep(0.3)
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, slow, delayed)
        start = time.perf_counter()
        metrics = run_experiment(wide_split, wide_cfg(), "random")
        outside = time.perf_counter() - start
        assert len(metrics) == 3
        assert sum(m.wall_time for m in metrics) < outside
        # each cycle's own training, or the last evaluation, which runs alone
        slowed = metrics if slow == "train_cycle" else metrics[-1:]
        assert all(m.wall_time >= 0.3 for m in slowed)


class TestMetricsCsv:
    def test_csv_shape_and_determinism(self, tmp_path, small_split):
        cfg = quick_cfg()
        metrics = run_experiment(small_split, cfg, "random")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(p1, metrics, "random", cfg.seed, 0.5)
        metrics2 = run_experiment(small_split, cfg, "random")
        write_metrics_csv(p2, metrics2, "random", cfg.seed, 0.5)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().strip().splitlines()
        assert len(lines) == 1 + len(metrics)
        assert lines[0] == (
            "cycle,strategy,seed,r,query_precision,test_accuracy,"
            "labeled_size,unlabeled_size,discarded_unknown,wall_time"
        )
        # cycle-0 row has an empty precision field, wall_time stays blank
        first = lines[1].split(",")
        assert first[4] == ""
        assert all(line.endswith(",") for line in lines[1:])

    def test_numpy_floats_written_as_plain_numbers(self, tmp_path):
        """NumPy scalars in a metrics row read back as plain decimals, so
        ``openset-al report`` can parse them."""
        metrics = [
            CycleMetrics(0, None, np.float64(0.9), 10, 40, 0),
            CycleMetrics(1, np.float64(0.5), np.float64(0.9), 15, 30, 5),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, metrics, "random", np.int64(0), np.float64(0.5))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["test_accuracy"] for row in rows] == ["0.9", "0.9"]
        assert [row["query_precision"] for row in rows] == ["", "0.5"]
        assert [row["r"] for row in rows] == ["0.5", "0.5"]
        assert [row["seed"] for row in rows] == ["0", "0"]
        # the manifest takes the same arguments; a NumPy integer seed
        # used to raise TypeError from json
        path = tmp_path / "m.json"
        write_manifest(path, {}, metrics, "random", np.int64(0), np.float64(0.5))
        manifest = json.loads(path.read_text())
        assert (manifest["seed"], manifest["openness_ratio"]) == (0, 0.5)
