"""Selection tests: EM fit against synthetic mixture oracles, the
coarse/fine stages against brute-force sorting, and baseline strategies."""

import warnings

import numpy as np
import pytest
from helpers import closed_form_distribution_uncertainty
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from openset_al.evidential import data_uncertainty, entropy
from openset_al.model import forward, init_model
from openset_al.selection import (
    DegenerateDataError,
    GmmModel,
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

# Sums over a component are taken in pool order, so a component holding
# +M and -M cancels to a rounding residue whose value depends on that
# order: the lower mean of [0, 0, 0, 1, M, -M, 0] reads 0.0 or 5.9e-11
# (M = 1e10) under two orderings.  The test pins one such pair, so the
# expected failure occurs on every run.
CANCELLATION_XFAIL = pytest.mark.xfail(
    strict=True,
    reason=(
        "gmm_fit's weighted sums cancel +M against -M in pool order, so a "
        "component mean near 0 differs between permutations by its rounding "
        "residue"
    ),
)


class TestGmmProperties:
    @CANCELLATION_XFAIL
    @given(finite_samples.flatmap(lambda v: st.tuples(st.just(v), st.permutations(v))))
    @example(([0.0, 1.0, -2.7e154], [-2.7e154, 0.0, 1.0]))
    @example(([0.0, 0.0, 0.0, 1.0, 1e10, -1e10, 0.0], [0.0, 0.0, 0.0, 1e10, -1e10, 1.0, 0.0]))
    def test_permutation_invariant(self, pair):
        a = gmm_fit(np.array(pair[0]))
        b = gmm_fit(np.array(pair[1]))
        # a nan fit does not count as unchanged
        np.testing.assert_allclose(a.means, b.means, equal_nan=False)
        np.testing.assert_allclose(a.variances, b.variances, equal_nan=False)
        np.testing.assert_allclose(a.weights, b.weights, equal_nan=False)

    @given(finite_samples)
    @example([0.0, 1.3407807929942597e154])
    @example([0.0, 1.8961503816218353e151])
    @example([0.0, 1.797693134859768e308, -1.7976931348623157e308, -1.7976931348623155e308])
    def test_log_likelihoods_finite(self, values):
        model = gmm_fit(np.array(values))
        assert np.all(np.isfinite(model.log_likelihoods))

    def test_fit_past_squared_overflow_is_scale_equivariant(self):
        """Scores times 2^510 lie past the point where squared deviations
        overflow float64; their fit is the unscaled fit with means times
        2^510, variances times 2^1020 and log-likelihoods minus 510 ln 2."""
        rng = np.random.default_rng(42)
        x = np.concatenate([rng.normal(0.0, 0.1, 250), rng.normal(5.0, 0.1, 250)])
        base = gmm_fit(x)
        big = gmm_fit(x * 2.0**510)
        np.testing.assert_allclose(big.means, base.means * 2.0**510, rtol=1e-9)
        np.testing.assert_allclose(big.variances, base.variances * 2.0**1020, rtol=1e-9)
        np.testing.assert_allclose(big.weights, base.weights, rtol=1e-9)
        np.testing.assert_allclose(
            big.log_likelihoods,
            np.array(base.log_likelihoods) - 510 * np.log(2.0),
            rtol=1e-9,
        )


def reference_e_step(model, x):
    """The E-step as one (n, 2) array: (n, 1) - (2,) broadcasts, then a
    max and a sum along axis 1; ``GmmModel._e_step`` must match it bit for
    bit."""
    x = np.asarray(x, dtype=float)[:, None]
    log_pdf = (
        -0.5 * np.log(2.0 * np.pi * model.variances)
        - 0.5 * (x - model.means) ** 2 / model.variances
    )
    log_joint = np.log(model.weights) + log_pdf
    shift = log_joint.max(axis=1, keepdims=True)
    joint = np.exp(log_joint - shift)
    total = joint.sum(axis=1, keepdims=True)
    return joint / total, float((shift + np.log(total)).mean())


def reference_gmm_fit(scores, max_iter=200, tol=1e-6):
    """``gmm_fit`` with the (n, 2) E-step above and the M-step's sums over
    axis 0 of (n, 2) arrays, as the fit was first written."""
    x = np.asarray(scores, dtype=float)
    peak = np.abs(x).max()
    if peak <= np.sqrt(np.finfo(float).max * 1e-6 / (4.0 * x.size)):
        return reference_fit_em(x, max_iter, tol)
    _, e = np.frexp(peak)
    scaled = np.ldexp(x, -e)
    model = reference_fit_em(scaled, max_iter, tol)
    model.means = np.ldexp(np.clip(model.means, scaled.min(), scaled.max()), e)
    with np.errstate(over="ignore"):
        model.variances = np.ldexp(model.variances, 2 * e)
    model.log_likelihoods = [ll - e * np.log(2.0) for ll in model.log_likelihoods]
    return model


def reference_fit_em(x, max_iter, tol):
    med = np.median(x)
    low, high = x[x <= med], x[x > med]
    if high.size == 0:
        high = x[x == x.max()]
        low = x[x < x.max()]
    pooled = max((low.var() * low.size + high.var() * high.size) / x.size, 1e-6)
    model = GmmModel(
        np.array([low.mean(), high.mean()]),
        np.array([pooled, pooled]),
        np.array([0.5, 0.5]),
        [],
    )
    prev = -np.inf
    for _ in range(max_iter):
        resp, ll = reference_e_step(model, x)
        model.log_likelihoods.append(ll)
        if ll - prev < tol and np.isfinite(prev):
            break
        prev = ll
        counts = resp.sum(axis=0)
        model.weights = counts / x.size
        model.means = (resp * x[:, None]).sum(axis=0) / counts
        model.variances = np.maximum(
            (resp * (x[:, None] - model.means) ** 2).sum(axis=0) / counts, 1e-6
        )
    return model


def em_sample(n, kind, seed, scaled):
    """n scores of one shape: a two-mode normal mixture, log-normal with a
    heavy right tail, or a few tied values.  ``scaled`` multiplies them by
    the power of two that puts their peak in [2^509, 2^510), past the
    point where gmm_fit rescales and short of where a fitted variance
    overflows."""
    rng = np.random.default_rng(seed)
    if kind == "mixture":
        k = rng.integers(1, n)
        x = np.concatenate([rng.normal(0.0, 0.1, k), rng.normal(5.0, 1.0, n - k)])
    elif kind == "lognormal":
        x = np.exp(rng.normal(0.0, rng.uniform(0.5, 4.0), n))
    else:
        x = rng.integers(-2, 3, n).astype(float)
    if not scaled:
        return x
    return np.ldexp(x, 510 - np.frexp(np.abs(x).max())[1])


class TestColumnEm:
    """The column-wise E-step and sequential M-step sums against the
    (n, 2) reference, bit for bit, on both of gmm_fit's scale paths."""

    @settings(max_examples=25, deadline=2000)
    @given(
        st.integers(2, 50_000),
        st.sampled_from(["mixture", "lognormal", "ties"]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @example(50_000, "lognormal", 0, False)
    @example(47_700, "ties", 1, True)
    @example(2, "mixture", 2, True)
    def test_fit_and_responsibilities_bitwise_equal_to_reference(
        self, n, kind, seed, scaled
    ):
        x = em_sample(n, kind, seed, scaled)
        assume(np.unique(x).size >= 2)
        # few iterations keep a 50,000-point example within the deadline;
        # each one is compared, through the log-likelihood trace
        model = gmm_fit(x, max_iter=8)
        ref = reference_gmm_fit(x, max_iter=8)
        for field in ("means", "variances", "weights", "log_likelihoods"):
            assert (
                np.asarray(getattr(model, field)).tobytes()
                == np.asarray(getattr(ref, field)).tobytes()
            ), field
        if scaled:
            # past the overflow point the posterior is evaluated on the
            # values divided by 2^e, as the fit was
            e = 510
            small = GmmModel(
                np.ldexp(ref.means, -e), np.ldexp(ref.variances, -2 * e), ref.weights, []
            )
            expected = reference_e_step(small, np.ldexp(x, -e))[0]
        else:
            expected = reference_e_step(ref, x)[0]
        assert model.responsibilities(x).tobytes() == expected.tobytes()
        low = int(np.argmin(model.means))
        assert gmm_posterior_low(model, x).tobytes() == expected[:, low].tobytes()

    @given(finite_samples)
    @example([-0.0, -0.0, -5.0, -5.0])
    def test_fit_on_arbitrary_floats_bitwise_equal_to_reference(self, values):
        """Any finite floats: signed zeros, ties, and magnitudes up to the
        float64 maximum, on either scale path."""
        x = np.array(values)
        model = gmm_fit(x)
        ref = reference_gmm_fit(x)
        for field in ("means", "variances", "weights", "log_likelihoods"):
            assert (
                np.asarray(getattr(model, field)).tobytes()
                == np.asarray(getattr(ref, field)).tobytes()
            ), field

    def test_posterior_past_squared_overflow_matches_unscaled(self):
        """100 bimodal scores times 2^515 fit to finite means and
        variances; their posterior must not overflow either, and it is the
        posterior of the unscaled scores."""
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0.0, 0.1, 50), rng.normal(5.0, 0.1, 50)])
        big = x * 2.0**515
        model = gmm_fit(big)
        post = gmm_posterior_low(model, big)
        assert np.all(np.isfinite(post))
        np.testing.assert_allclose(post, gmm_posterior_low(gmm_fit(x), x), atol=1e-9)
        np.testing.assert_allclose(model.responsibilities(big).sum(axis=1), 1.0)


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

    def test_empty_coarse_stage_spends_budget_on_best_posteriors(self):
        """A threshold that no posterior exceeds leaves no coarse survivors;
        the whole budget then goes to the highest known-mode posteriors,
        ties broken by ascending id."""
        scores = make_scores(80, seed=7)
        ids = np.random.default_rng(8).permutation(np.arange(100, 180))
        _, posterior, _ = coarse_select(scores, ids)
        threshold = posterior.max()
        sub_mask = posterior > threshold
        assert not sub_mask.any()
        query = coarse_to_fine_select(scores, ids, budget=10, threshold=threshold)
        expected = ids[np.lexsort((ids, -posterior))[:10]]
        np.testing.assert_array_equal(query, expected)

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

    @pytest.mark.parametrize("classes", [2, 4, 10])
    def test_u_dist_bitwise_equal_to_direct_closed_form(self, classes):
        """u_dist, derived from the pool's u_data, is the direct closed form
        of the averaged evidence clipped at 0, bit for bit, with evidence
        reaching both clip bounds."""
        m = init_model(16, classes, (64, 64), seed=classes, head_init_scale=3.0)
        x = np.random.default_rng(classes).normal(0.0, 8.0, size=(2000, 16))
        a1, a2 = forward(m, x)
        avg = 0.5 * (a1 + a2)
        scores = score_pool(m, x)
        expected = np.maximum(closed_form_distribution_uncertainty(avg), 0.0)
        assert scores.u_dist.tobytes() == expected.tobytes()
        expected = np.maximum(data_uncertainty(avg), 0.0)
        assert scores.u_data.tobytes() == expected.tobytes()

    def test_invariants_hold(self):
        m = init_model(6, 3, hidden_widths=(8,), seed=4)
        x = np.random.default_rng(3).normal(size=(50, 6))
        scores = score_pool(m, x)
        assert np.all(scores.u_data >= 0)
        assert np.all(scores.u_data <= np.log(3) + 1e-9)
        assert np.all(scores.u_dist >= 0)
        assert np.all(scores.u_dist <= np.log(3) + 1e-9)
        assert np.all(scores.s_dis >= 0)
