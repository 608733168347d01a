"""Selection tests: EM fit against synthetic mixture oracles, the
coarse/fine stages against brute-force sorting, and baseline strategies."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from openset_al.evidential import entropy
from openset_al.model import init_model
from openset_al.selection import (
    DegenerateDataError,
    PoolScores,
    baseline_select,
    coarse_select,
    coarse_to_fine_select,
    fine_select,
    gmm_fit,
    gmm_posterior_low,
    score_pool,
)


def make_scores(n, seed=0, s_dis_scale=0.1):
    rng = np.random.default_rng(seed)
    return PoolScores(
        u_data=rng.uniform(0.0, 1.3, n),
        u_dist=rng.uniform(0.0, 0.4, n),
        s_dis=rng.uniform(0.0, s_dis_scale, n),
    )


class TestGmmFit:
    def test_recovers_two_well_separated_modes(self):
        """0.5 N(0, 0.01) + 0.5 N(5, 0.01): means recovered within 0.05."""
        rng = np.random.default_rng(42)
        data = np.concatenate(
            [rng.normal(0.0, 0.1, 250), rng.normal(5.0, 0.1, 250)]
        )
        model = gmm_fit(data)
        means = np.sort(model.means)
        assert abs(means[0] - 0.0) < 0.05
        assert abs(means[1] - 5.0) < 0.05

    def test_log_likelihood_monotone(self):
        rng = np.random.default_rng(7)
        data = np.concatenate([rng.normal(0, 1, 300), rng.normal(3, 0.5, 200)])
        model = gmm_fit(data)
        ll = np.array(model.log_likelihoods)
        assert np.all(np.diff(ll) >= -1e-12)

    def test_responsibilities_normalize(self):
        rng = np.random.default_rng(3)
        data = rng.normal(0, 1, 100)
        model = gmm_fit(data)
        resp = model.responsibilities(data)
        np.testing.assert_allclose(resp.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(resp >= 0)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(5)
        model = gmm_fit(rng.normal(0, 1, 200))
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(model.variances >= 1e-6)

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateDataError):
            gmm_fit(np.full(50, 3.25))

    def test_two_values_fit(self):
        model = gmm_fit(np.array([0.0, 0.0, 1.0, 1.0]))
        assert np.isfinite(model.log_likelihoods[-1])

    def test_heavy_tailed_scores_keep_finite_log_likelihood(self):
        """Log-normal scores with sigma 4 put points so far out that both
        component densities underflow; the mean log-likelihood must stay
        finite and no floating-point warning may be raised."""
        x = np.exp(np.random.default_rng(1).normal(0.0, 4.0, 2000))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = gmm_fit(x)
        assert np.all(np.isfinite(model.log_likelihoods))


# Finite 1-D samples that can support a two-mode fit.
finite_samples = st.lists(
    st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=50
).filter(lambda v: len(set(v)) >= 2)

# Both properties held on 2000 generated samples bounded by 1e100 in
# magnitude; they fail above about 1.3e154, where a squared deviation
# overflows float64.  Each test pins one such sample as an explicit
# example, so the expected failure occurs on every run.
OVERFLOW_XFAIL = pytest.mark.xfail(
    strict=True,
    reason=(
        "gmm_fit squares raw deviations from the component means, so finite "
        "scores with |x| above ~1.3e154 overflow to inf (an overflow "
        "RuntimeWarning, then nan log-likelihoods); scores are not rescaled "
        "before the fit"
    ),
)


class TestGmmProperties:
    @OVERFLOW_XFAIL
    @given(finite_samples.flatmap(lambda v: st.tuples(st.just(v), st.permutations(v))))
    @example(([0.0, 1.0, -2.7e154], [-2.7e154, 0.0, 1.0]))
    def test_permutation_invariant(self, pair):
        a = gmm_fit(np.array(pair[0]))
        b = gmm_fit(np.array(pair[1]))
        # a nan fit does not count as unchanged
        np.testing.assert_allclose(a.means, b.means, equal_nan=False)
        np.testing.assert_allclose(a.variances, b.variances, equal_nan=False)
        np.testing.assert_allclose(a.weights, b.weights, equal_nan=False)

    @OVERFLOW_XFAIL
    @given(finite_samples)
    @example([0.0, 1.3407807929942597e154])
    def test_log_likelihoods_finite(self, values):
        model = gmm_fit(np.array(values))
        assert np.all(np.isfinite(model.log_likelihoods))


class TestCoarseSelect:
    def test_identical_scores_fall_back_to_median(self, caplog):
        ids = np.arange(10)
        scores = PoolScores(
            u_data=np.full(10, 0.5), u_dist=np.zeros(10), s_dis=np.zeros(10)
        )
        with caplog.at_level("WARNING"):
            selected, posterior, fallback = coarse_select(scores, ids)
        assert fallback
        assert "falling back" in caplog.text
        np.testing.assert_array_equal(selected, ids)

    def test_bimodal_scores_keep_low_cluster(self):
        rng = np.random.default_rng(0)
        n = 200
        u = np.concatenate([rng.normal(0.0, 0.05, n), rng.normal(10.0, 0.05, n)])
        ids = np.arange(2 * n)
        scores = PoolScores(u_data=u, u_dist=np.zeros(2 * n), s_dis=np.zeros(2 * n))
        selected, _, _ = coarse_select(scores, ids, alpha_coef=1.0, threshold=0.5)
        np.testing.assert_array_equal(np.sort(selected), ids[:n])

    def test_zero_threshold_keeps_everything(self):
        scores = make_scores(64, seed=1)
        ids = np.arange(64)
        selected, _, _ = coarse_select(scores, ids, threshold=0.0)
        np.testing.assert_array_equal(np.sort(selected), ids)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            coarse_select(make_scores(0), np.array([], dtype=int))


class TestFineSelect:
    def test_returns_all_when_budget_covers_subset(self):
        scores = make_scores(5)
        ids = np.arange(5)
        out = fine_select(scores, ids, np.ones(5, bool), budget=10)
        assert set(out) == set(ids)

    def test_argmax_of_two(self):
        scores = PoolScores(
            u_data=np.array([3.0, 1.0]),
            u_dist=np.array([0.0, 0.0]),
            s_dis=np.zeros(2),
        )
        out = fine_select(scores, np.array([7, 9]), np.ones(2, bool), 1.0, budget=1)
        np.testing.assert_array_equal(out, [7])

    def test_matches_brute_force_sort(self):
        """Exhaustive oracle: sort all (score, id) pairs and take the top."""
        scores = make_scores(100, seed=11)
        ids = np.arange(1000, 1100)
        beta = 0.5
        out = fine_select(scores, ids, np.ones(100, bool), beta, budget=10)
        key = beta * scores.u_data + scores.u_dist
        expected = [i for _, i in sorted(zip(-key, ids))][:10]
        np.testing.assert_array_equal(out, expected)

    def test_ties_break_by_ascending_id(self):
        scores = PoolScores(
            u_data=np.ones(4), u_dist=np.zeros(4), s_dis=np.zeros(4)
        )
        out = fine_select(scores, np.array([40, 10, 30, 20]), np.ones(4, bool), 1.0, 2)
        np.testing.assert_array_equal(out, [10, 20])

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            fine_select(make_scores(3), np.arange(3), np.ones(3, bool), budget=0)


class TestCoarseToFine:
    def test_query_within_coarse_subset_plus_topup(self):
        scores = make_scores(300, seed=2)
        ids = np.arange(300)
        _, posterior, _ = coarse_select(scores, ids)
        query = coarse_to_fine_select(scores, ids, budget=20)
        sub = set(ids[posterior > 0.5])
        overlap = sum(1 for q in query if q in sub)
        assert len(query) == 20
        assert len(set(query)) == 20
        # everything beyond the coarse survivors must be top-up
        assert overlap == min(20, len(sub))

    def test_budget_capped_by_pool(self):
        scores = make_scores(8, seed=3)
        query = coarse_to_fine_select(scores, np.arange(8), budget=50)
        assert len(query) == 8

    def test_topup_fills_small_subset(self):
        """A tiny low cluster forces the top-up path to spend the budget."""
        u = np.concatenate([np.full(3, 0.0), np.full(97, 10.0)])
        u += np.linspace(0, 0.01, 100)
        scores = PoolScores(u_data=u, u_dist=np.zeros(100), s_dis=np.zeros(100))
        query = coarse_to_fine_select(scores, np.arange(100), budget=10)
        assert len(query) == 10
        assert {0, 1, 2}.issubset(set(query))

    def test_order_invariance(self):
        scores = make_scores(120, seed=4)
        ids = np.arange(120)
        perm = np.random.default_rng(5).permutation(120)
        q1 = coarse_to_fine_select(scores, ids, budget=15)
        permuted = PoolScores(
            scores.u_data[perm], scores.u_dist[perm], scores.s_dis[perm]
        )
        q2 = coarse_to_fine_select(permuted, ids[perm], budget=15)
        np.testing.assert_array_equal(np.sort(q1), np.sort(q2))

    def test_zero_threshold_degenerates_to_pure_fine_ranking(self):
        """With the coarse threshold at 0 the filter passes everything and
        the pipeline reduces to the fine-stage ranking of the whole pool."""
        scores = make_scores(150, seed=9)
        ids = np.arange(150)
        query = coarse_to_fine_select(scores, ids, budget=12, threshold=0.0)
        direct = fine_select(scores, ids, np.ones(150, bool), 0.5, budget=12)
        np.testing.assert_array_equal(query, direct)

    def test_discrepancy_toggle_changes_combination(self):
        scores = make_scores(200, seed=6, s_dis_scale=5.0)
        with_dis = coarse_to_fine_select(scores, np.arange(200), 20)
        without = coarse_to_fine_select(
            scores, np.arange(200), 20, use_discrepancy=False
        )
        assert not np.array_equal(np.sort(with_dis), np.sort(without))


class TestBaselineSelect:
    def probs(self, n=40, c=4, seed=0):
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(c), size=n)
        return p

    def test_uniform_probs_entropy_reduces_to_id_order(self):
        p = np.full((10, 3), 1 / 3)
        out = baseline_select("entropy", p, np.arange(100, 110), 4)
        np.testing.assert_array_equal(out, [100, 101, 102, 103])

    def test_confident_example_ranked_last_by_least_confidence(self):
        p = np.full((5, 3), 1 / 3)
        p[2] = [1.0, 0.0, 0.0]
        out = baseline_select("least_confidence", p, np.arange(5), 4)
        assert 2 not in out

    @pytest.mark.parametrize("strategy", ["entropy", "least_confidence", "margin"])
    def test_matches_brute_force(self, strategy):
        p = self.probs(seed=8)
        ids = np.arange(500, 540)
        out = baseline_select(strategy, p, ids, 7)
        if strategy == "entropy":
            key = entropy(p)
        elif strategy == "least_confidence":
            key = 1 - p.max(axis=1)
        else:
            s = np.sort(p, axis=1)
            key = -(s[:, -1] - s[:, -2])
        expected = [i for _, i in sorted(zip(-key, ids))][:7]
        np.testing.assert_array_equal(out, expected)

    def test_random_without_replacement_and_seeded(self):
        p = self.probs()
        ids = np.arange(40)
        out1 = baseline_select("random", p, ids, 10, seed=3)
        out2 = baseline_select("random", p, ids, 10, seed=3)
        np.testing.assert_array_equal(out1, out2)
        assert len(set(out1)) == 10
        out3 = baseline_select("random", p, ids, 10, seed=4)
        assert not np.array_equal(out1, out3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            baseline_select("badge", self.probs(), np.arange(40), 5)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            baseline_select("random", np.zeros((0, 3)), np.array([]), 5)


class TestScorePool:
    def test_identical_heads_zero_discrepancy(self):
        m = init_model(6, 3, hidden_widths=(8,), seed=1)
        m.heads[1][0][:] = m.heads[0][0]
        m.heads[1][1][:] = m.heads[0][1]
        x = np.random.default_rng(0).normal(size=(12, 6))
        scores = score_pool(m, x)
        np.testing.assert_array_equal(scores.s_dis, 0.0)

    def test_duplicate_examples_identical_triples(self):
        m = init_model(6, 3, hidden_widths=(8,), seed=2)
        x = np.random.default_rng(1).normal(size=(3, 6))
        xx = np.concatenate([x, x])
        scores = score_pool(m, xx)
        np.testing.assert_array_equal(scores.u_data[:3], scores.u_data[3:])
        np.testing.assert_array_equal(scores.u_dist[:3], scores.u_dist[3:])
        np.testing.assert_array_equal(scores.s_dis[:3], scores.s_dis[3:])

    def test_matches_per_example_composition(self):
        """Composition oracle: the pooled scores equal the per-example
        evaluation of the underlying closed-form operations."""
        from openset_al.evidential import (
            data_uncertainty,
            discrepancy_score,
            distribution_uncertainty,
        )
        from openset_al.model import forward

        m = init_model(5, 4, hidden_widths=(8, 8), seed=3)
        x = np.random.default_rng(2).normal(size=(9, 5))
        scores = score_pool(m, x)
        for i in range(9):
            a1, a2 = forward(m, x[i : i + 1])
            avg = 0.5 * (a1[0] + a2[0])
            assert scores.u_data[i] == pytest.approx(
                max(data_uncertainty(avg), 0.0), abs=1e-12
            )
            assert scores.u_dist[i] == pytest.approx(
                max(distribution_uncertainty(avg), 0.0), abs=1e-12
            )
            assert scores.s_dis[i] == pytest.approx(
                discrepancy_score(a1[0], a2[0]), abs=1e-12
            )

    def test_invariants_hold(self):
        m = init_model(6, 3, hidden_widths=(8,), seed=4)
        x = np.random.default_rng(3).normal(size=(50, 6))
        scores = score_pool(m, x)
        assert np.all(scores.u_data >= 0)
        assert np.all(scores.u_data <= np.log(3) + 1e-9)
        assert np.all(scores.u_dist >= 0)
        assert np.all(scores.u_dist <= np.log(3) + 1e-9)
        assert np.all(scores.s_dis >= 0)
