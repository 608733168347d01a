"""Selection tests: EM fit against synthetic mixture oracles, the
coarse/fine stages against brute-force sorting, and baseline strategies."""

import sys
import threading
import time
import warnings
from functools import partial

import numpy as np
import pytest
from helpers import closed_form_distribution_uncertainty, count_started_threads
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from openset_al import selection
from openset_al.evidential import (
    LOGIT_CLIP,
    data_uncertainty,
    discrepancy_score,
    distribution_uncertainty,
    entropy,
    expected_probs,
)
from openset_al.model import _forward_cached, forward, init_model
from openset_al.selection import (
    DegenerateDataError,
    GmmModel,
    PoolScores,
    RANKED_STRATEGIES,
    averaged_probs,
    baseline_rank,
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

    @pytest.mark.parametrize("values", [[], [2.0], [-0.0, 0.0, 0.0]])
    def test_fewer_than_two_distinct_values_rejected(self, values):
        """-0.0 and 0.0 count as one value, as they compare equal."""
        with pytest.raises(DegenerateDataError):
            gmm_fit(np.array(values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_raises_naming_its_index(self, bad):
        """A non-finite score used to run all 200 iterations and return
        nan means; it is rejected up front, as a plain ValueError, so the
        coarse filter does not take it for a degenerate pool."""
        x = np.array([0.0, 1.0, 5.0, bad, 6.0, bad])
        with pytest.raises(ValueError, match="index 3") as info:
            gmm_fit(x)
        assert not isinstance(info.value, DegenerateDataError)

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


# 1-D samples within the mixture's score range that can support a two-mode fit.
finite_samples = st.lists(
    st.floats(-selection.SCORE_LIMIT, selection.SCORE_LIMIT), min_size=2, max_size=50
).filter(lambda v: len(set(v)) >= 2)

# Scores up to 1e6 in magnitude, the range the selector produces.
bounded_samples = st.lists(
    st.floats(-1e6, 1e6), min_size=2, max_size=50
).filter(lambda v: len(set(v)) >= 2)


# Two modes on a grid of unit steps, each with two distinct points or more,
# the upper one shifted by 0 to 300 steps, so the modes may overlap.
grid_mode = st.lists(st.integers(0, 100), min_size=2, max_size=25).filter(
    lambda v: len(set(v)) >= 2
)
two_grid_modes = st.builds(
    lambda low, high, gap: np.array(low + [gap + v for v in high], dtype=float),
    grid_mode, grid_mode, st.integers(0, 300),
)


def assert_log_likelihood_monotone(model):
    """Each iteration's mean log-likelihood is at least the last one's,
    up to the rounding of the mean."""
    ll = np.array(model.log_likelihoods)
    floor = -1e-12 * np.maximum(np.abs(ll[:-1]), 1.0)
    assert np.all(np.diff(ll) >= floor), ll


class TestGmmProperties:
    @given(finite_samples.flatmap(lambda v: st.tuples(st.just(v), st.permutations(v))))
    @example(([0.0, 1.0, -1e100], [-1e100, 0.0, 1.0]))
    @example(([0.0, 0.0, 0.0, 1.0, 1e10, -1e10, 0.0], [0.0, 0.0, 0.0, 1e10, -1e10, 1.0, 0.0]))
    @example(([-0.0, 0.0, 1.0, 1.0, -0.0, 0.0], [1.0, -0.0, 0.0, -0.0, 1.0, 0.0]))
    @example(([-0.0, -0.0, 0.0, 4.0, 4.0], [4.0, 0.0, -0.0, 4.0, -0.0]))
    @example(([-0.0, -0.0, -5.0, -5.0], [-5.0, -0.0, -5.0, -0.0]))
    @example(([2.0, 2.0, 5.0, 5.0, 5.0, 2.0, 9.0], [5.0, 9.0, 2.0, 5.0, 2.0, 2.0, 5.0]))
    def test_permutation_invariant(self, pair):
        """gmm_fit fits the sorted scores, so any permutation of a pool
        gives the same fit and posterior, bit for bit.

        Ties are equal bytes, except for -0.0 and +0.0, which np.sort may
        order either way.  That could show only in a total that is exactly
        zero, and an IEEE sum is -0.0 only when every term is, so the sign
        of such a total depends on the scores alone, not on their order.
        """
        x = np.array(pair[0])
        a = gmm_fit(x)
        b = gmm_fit(np.array(pair[1]))
        # a nan fit does not count as unchanged
        assert np.all(np.isfinite([a.means, a.variances, a.weights]))
        assert fit_fields(a, x) == fit_fields(b, x)

    @given(bounded_samples)
    @example([0.0, 437442.0, 636805.0])
    def test_log_likelihood_monotone(self, values):
        assert_log_likelihood_monotone(gmm_fit(np.array(values)))

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the upper component collapses onto three tied points near 5.8e16 "
            "with variance 64, one ulp of their value squared, so one ulp of "
            "rounding in its mean dominates its density: the log-likelihood "
            "falls from -11.99 to -17.68 at iteration 4"
        ),
    )
    def test_log_likelihood_monotone_on_ties_far_out(self):
        x = np.array(
            [4.971343084595992e16, 5.772103213293723e16, 5.772103213293723e16,
             4.229668676505617e16, 5.772103213293723e16]
        )
        assert_log_likelihood_monotone(gmm_fit(x))

    @given(finite_samples)
    @example([0.0, 1e100])
    @example([0.0, 1e-300, 1e100])
    @example([0.0, 1e100, -1e100, -9.999999999999998e99])
    def test_log_likelihoods_finite(self, values):
        model = gmm_fit(np.array(values))
        assert np.all(np.isfinite(model.log_likelihoods))

    @given(two_grid_modes, st.floats(1e-2, 1e2), st.floats(-1e3, 1e3))
    def test_shift_and_scale_equivariant(self, x, scale, shift):
        """Fitting scale * x + shift gives x's fit moved and scaled: means
        map as the scores do, variances scale by scale**2, weights and the
        posterior stay, and each mean log-likelihood falls by log(scale).

        Both fits run exactly 30 iterations (``tol=-inf``).  The stopping
        rule compares log-likelihood gains that agree only up to rounding,
        so a gain within rounding of ``tol`` could stop one fit an
        iteration before the other.  Variances stay at least ten times
        ``VARIANCE_FLOOR`` after scaling, since the floor is absolute and
        breaks the property by design.

        Tolerance 1e-7, relative to the spread of x for the means and to
        the variances themselves.  Rounding scale * x + shift moves each
        point by at most 2^-53 (|shift| / scale + 400) <= 1.2e-11 steps of
        the grid; the tolerance lets 30 EM iterations amplify that by
        10^4.  Random sampling of 8,000 such inputs saw at most 3e-11.
        """
        fit = gmm_fit(x, max_iter=30, tol=-np.inf)
        assume(np.all(fit.variances * min(scale, 1.0) ** 2 > 10 * selection.VARIANCE_FLOOR))
        y = scale * x + shift
        moved = gmm_fit(y, max_iter=30, tol=-np.inf)
        spread = x.max() - x.min()
        np.testing.assert_allclose(
            (moved.means - shift) / scale / spread, fit.means / spread, rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(moved.variances / scale**2, fit.variances, rtol=1e-7)
        np.testing.assert_allclose(moved.weights, fit.weights, rtol=0, atol=1e-7)
        np.testing.assert_allclose(
            np.array(moved.log_likelihoods) + np.log(scale), fit.log_likelihoods, rtol=0, atol=1e-7
        )
        np.testing.assert_allclose(
            gmm_posterior_low(moved, y), gmm_posterior_low(fit, x), rtol=0, atol=1e-7
        )

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "one point at 1000 takes a component of its own (means 2.487 and "
            "1000.0), and 500 of the 501 posteriors exceed 0.5, against 250 of "
            "500 without it"
        ),
    )
    def test_single_outlier_does_not_hijack_the_fit(self):
        """Modes at 0 and 5 (250 points each, sd 0.5) and one point at 1000:
        the low-mode survivors should stay the low mode's 250 points, with
        the outlier at most."""
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(0.0, 0.5, 250), rng.normal(5.0, 0.5, 250), [1000.0]])
        posterior = gmm_posterior_low(gmm_fit(x), x)
        assert np.count_nonzero(posterior > 0.5) <= 251

    def test_posterior_is_elementwise(self):
        """A query point far from the fit does not change the posterior of
        the others: they read bitwise what they read on their own."""
        model = gmm_fit(np.array([0.0, 1.0, 5.0, 6.0]))
        alone = gmm_posterior_low(model, np.array([0.0, 3.0]))
        far = [1e100, -1e100, 1e12, -1e12]
        post = gmm_posterior_low(model, np.array([0.0, *far, 3.0]))
        assert post[[0, 5]].tobytes() == alone.tobytes()
        # at equal variances and weights: +-1e100 minus either mean rounds
        # to +-1e100, so both components see one deviation and split the
        # point evenly; +-1e12 goes to the component on its side
        np.testing.assert_array_equal(post[1:5], [0.5, 0.5, 0.0, 1.0])

    @pytest.mark.parametrize(
        "values, index",
        [
            ([0.0, 1.0, -2.7e154], 2),
            ([0.0, 1.3407807929942597e154], 1),
            ([0.0, 1.8961503816218353e151], 1),
            ([0.0, 1.797693134859768e308, -1.7976931348623157e308, -1.7976931348623155e308], 1),
            (list(np.array([0.0, 5.0, 0.1, 5.2]) * 2.0**520), 1),
            # one ulp past the limit
            ([0.0, 1e100, -np.nextafter(1e100, np.inf)], 2),
        ],
    )
    def test_score_past_the_limit_raises_naming_its_index(self, values, index):
        """Scores past SCORE_LIMIT in magnitude, which the selector never
        produces, are rejected up front by the fit and by the posterior, as
        a plain ValueError naming the first such index."""
        x = np.array(values)
        model = gmm_fit(np.array([0.0, 1.0, 5.0, 6.0]))
        for call in (gmm_fit, partial(gmm_posterior_low, model), model.responsibilities):
            with pytest.raises(ValueError, match=f"index {index} ") as info:
                call(x)
            assert not isinstance(info.value, DegenerateDataError)

    def test_unconverged_fit_logs_a_warning(self, caplog):
        x = np.concatenate([np.linspace(0.0, 1.0, 50), np.linspace(3.0, 9.0, 50)])
        with caplog.at_level("WARNING", logger="openset_al.selection"):
            model = gmm_fit(x, max_iter=2)
        assert len(model.log_likelihoods) == 2
        gain = model.log_likelihoods[1] - model.log_likelihoods[0]
        assert "2 iterations without converging" in caplog.text
        assert f"{gain:.3g}" in caplog.text
        caplog.clear()
        with caplog.at_level("WARNING", logger="openset_al.selection"):
            gmm_fit(x)
        assert caplog.text == ""


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
    """``gmm_fit`` with the (n, 2) E-step above and the M-step written out
    one component at a time, run on the sorted scores."""
    x = np.sort(np.asarray(scores, dtype=float))
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
        # one 1-D sum per responsibility column, each column contiguous
        counts, means, variances = [], [], []
        for r in resp.T.copy():
            count = np.sum(r)
            mean = np.sum(r * x) / count
            counts.append(count)
            means.append(mean)
            variances.append(max(np.sum(r * (x - mean) ** 2) / count, 1e-6))
        model.weights = np.array(counts) / x.size
        model.means = np.array(means)
        model.variances = np.array(variances)
    return model


def em_sample(n, kind, seed, scaled):
    """n scores of one shape: a two-mode normal mixture, log-normal with a
    heavy right tail, or a few tied values.  ``scaled`` multiplies them by
    the power of two that puts their peak in [2^329, 2^330), just short of
    SCORE_LIMIT (2^330 is about 2.2e99)."""
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
    return np.ldexp(x, 330 - np.frexp(np.abs(x).max())[1])


class TestColumnEm:
    """The column-wise E-step and the M-step's pairwise sums against the
    (n, 2) reference, bit for bit, from small scores to the top of the
    range."""

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
        expected = reference_e_step(ref, x)[0]
        assert model.responsibilities(x).tobytes() == expected.tobytes()
        low = int(np.argmin(model.means))
        assert gmm_posterior_low(model, x).tobytes() == expected[:, low].tobytes()

    @given(finite_samples)
    @example([-0.0, -0.0, -5.0, -5.0])
    def test_fit_on_arbitrary_floats_bitwise_equal_to_reference(self, values):
        """Any floats within SCORE_LIMIT: signed zeros, ties, and magnitudes
        up to the limit."""
        x = np.array(values)
        model = gmm_fit(x)
        ref = reference_gmm_fit(x)
        for field in ("means", "variances", "weights", "log_likelihoods"):
            assert (
                np.asarray(getattr(model, field)).tobytes()
                == np.asarray(getattr(ref, field)).tobytes()
            ), field


def fit_fields(model, x):
    """A fit's parameters, trace and posterior on x, as bytes."""
    return [
        np.asarray(v).tobytes()
        for v in (
            model.means, model.variances, model.weights, model.log_likelihoods,
            gmm_posterior_low(model, x),
        )
    ]


GATE = 2 * selection.FORWARD_MIN_BLOCK


class TestGmmFitAtAnyWorkerCount:
    """gmm_fit runs on the calling thread at any pool width and worker
    count: its fit of a pool at one worker has the same bytes as its fit
    of the reversed pool at two, neither starts a thread, and concurrent
    fits share no state."""

    @pytest.mark.parametrize("n", [GATE - 1, GATE, GATE + 1, 47_700])
    @pytest.mark.parametrize(
        "kind, scaled", [("mixture", False), ("mixture", True), ("lognormal", False)]
    )
    def test_bitwise_equal_at_widths_one_and_two(self, monkeypatch, n, kind, scaled):
        """Pools around 2 * FORWARD_MIN_BLOCK points and at wide_pool's
        width; scores near the top of the range; log-normal scores with
        points far from both components; and a posterior on points at the
        limit.  The fit on one worker and the fit of the reversed pool on
        two are the same bytes, and neither starts a thread."""
        x = em_sample(n, kind, n, scaled)
        lim = selection.SCORE_LIMIT
        probe = np.concatenate([x, [lim, -lim, 1e50]])
        fits = []
        for workers, pool in ((1, x), (2, x[::-1])):
            monkeypatch.setattr(selection, "_workers", workers)
            started = count_started_threads(monkeypatch)
            fits.append(fit_fields(gmm_fit(pool), probe))
            assert started == []
        assert fits[0] == fits[1]

    def test_fit_stopped_at_max_iter(self, caplog):
        x = em_sample(GATE + 7, "lognormal", 5, False)
        with caplog.at_level("WARNING", logger="openset_al.selection"):
            model = gmm_fit(x, max_iter=3)
        assert len(model.log_likelihoods) == 3
        assert caplog.text.count("3 iterations without converging") == 1

    def test_stress_concurrent_fits(self):
        """Three fits at once on three threads, under a very short thread
        switch interval: every fit keeps the bytes it has alone, so fits
        share no state."""
        pools = [em_sample(GATE + 1 + k, "mixture", k, False) for k in range(3)]
        serial = [fit_fields(gmm_fit(x, max_iter=20), x) for x in pools]
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runners = [
                threading.Thread(
                    target=lambda k=k: results.update(
                        {k: fit_fields(gmm_fit(pools[k], max_iter=20), pools[k])}
                    )
                )
                for k in range(3)
            ]
            for runner in runners:
                runner.start()
            for runner in runners:
                runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(runner.is_alive() for runner in runners)
        assert [results[k] for k in range(3)] == serial


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


# ranks drawn from a few values, so most of them tie
tied_ranks = st.lists(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.nan, np.inf, -np.inf]),
    min_size=1,
    max_size=60,
)


class TestTop:
    @settings(max_examples=300)
    @given(tied_ranks, st.integers(1, 70), st.randoms(use_true_random=False))
    @example([np.nan, 1.0, np.nan], 2, None)
    @example([0.0, -0.0, 0.0, -0.0], 3, None)
    def test_equals_the_full_lexsort(self, values, b, random):
        """Heavy ties, signed zeros and NaN ranks, ids in any order."""
        rank = np.array(values)
        ids = np.arange(100, 100 + 3 * rank.size, 3)
        if random is not None:
            random.shuffle(ids)
        expected = ids[np.lexsort((ids, -rank))][:b]
        got = selection._top(ids, rank, b)
        assert got.tobytes() == expected.tobytes()

    def test_sorts_only_the_candidates(self, monkeypatch):
        """47,700 ids for 400: only the ids at or above the 400th rank
        reach the lexsort."""
        rank = np.random.default_rng(0).normal(size=47_700)
        sizes = []
        real = np.lexsort

        def recorded(keys):
            sizes.append(len(keys[0]))
            return real(keys)

        monkeypatch.setattr(np, "lexsort", recorded)
        ids = np.arange(rank.size)
        got = selection._top(ids, rank, 400)
        assert sizes == [400]
        assert got.tobytes() == ids[real((ids, -rank))][:400].tobytes()


class TestCoarseToFine:
    def test_non_finite_score_raises(self):
        """A nan score used to leave every posterior nan, and the query was
        filled by ascending id: [0, 1] for this pool."""
        scores = PoolScores(
            u_data=np.array([0.0, 1.0, 5.0, 6.0, np.nan]),
            u_dist=np.zeros(5),
            s_dis=np.zeros(5),
        )
        with pytest.raises(ValueError, match="index 4"):
            coarse_to_fine_select(scores, np.arange(5), budget=2)

    def test_scores_at_the_evidence_clip_stay_far_below_the_limit(self):
        """The largest scores the selector can produce: evidence at the
        clip extremes, C = 100, one head at e^10 on every class and the
        other at e^-10.  score_pool's closed forms give a combined score of
        about sqrt(C) e^10 + ln C = 2.2e5, and the query leaves out the
        disagreeing rows (0-9) for the agreeing ones."""
        classes, k = 100, 10
        hi, lo = np.exp(LOGIT_CLIP), np.exp(-LOGIT_CLIP)
        a1 = np.repeat([hi, hi, lo], k)[:, None] * np.ones(classes)
        a2 = np.repeat([lo, hi, lo], k)[:, None] * np.ones(classes)
        cols = [np.empty(3 * k) for _ in range(3)]
        selection._score_block((a1, a2), *cols)
        scores = PoolScores(*cols)
        combined = scores.s_dis + scores.u_data
        assert combined.max() <= np.sqrt(classes) * hi + np.log(classes)
        assert combined.max() < 1e-90 * selection.SCORE_LIMIT
        query = coarse_to_fine_select(scores, np.arange(3 * k), budget=5, alpha_coef=1.0)
        assert query.size == 5 and np.all(query >= k)

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

    @pytest.mark.parametrize("budget", [0, -1])
    @pytest.mark.parametrize("threshold", [0.5, 1.0])
    def test_non_positive_budget_rejected(self, budget, threshold):
        """Rejected up front, also when the coarse stage keeps nothing
        (threshold 1.0) and the fine stage never runs."""
        scores = make_scores(100, seed=3)
        with pytest.raises(ValueError, match="budget must be positive"):
            coarse_to_fine_select(scores, np.arange(100), budget=budget, threshold=threshold)

    def test_topup_fills_small_subset(self):
        """A tiny low cluster forces the top-up path to spend the budget.
        The top-up equals its ``isin`` form: the best posteriors among the
        ids that the fine query does not hold."""
        u = np.concatenate([np.full(3, 0.0), np.full(97, 10.0)])
        u += np.linspace(0, 0.01, 100)
        scores = PoolScores(u_data=u, u_dist=np.zeros(100), s_dis=np.zeros(100))
        query = coarse_to_fine_select(scores, np.arange(100), budget=10)
        assert len(query) == 10
        assert {0, 1, 2}.issubset(set(query))
        # 14 to 46 of each random pool's 60 examples survive, so a budget
        # of 48 takes the top-up path every time
        pools = [(scores, np.arange(100), 10)]
        for seed in range(20):
            ids = 1000 + np.random.default_rng(seed).permutation(60)
            pools.append((make_scores(60, seed=seed), ids, 48))
        for pool_scores, ids, budget in pools:
            _, posterior, _ = coarse_select(pool_scores, ids)
            head = fine_select(pool_scores, ids, posterior > 0.5, budget=budget)
            assert head.size < budget
            rest = ~np.isin(ids, head)
            order = np.lexsort((ids[rest], -posterior[rest]))
            expected = np.concatenate([head, ids[rest][order[: budget - head.size]]])
            query = coarse_to_fine_select(pool_scores, ids, budget=budget)
            np.testing.assert_array_equal(query, expected)

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
        rank = selection._rank_rows("entropy", p)
        out = baseline_select("entropy", np.arange(100, 110), 4, rank=rank)
        np.testing.assert_array_equal(out, [100, 101, 102, 103])

    def test_confident_example_ranked_last_by_least_confidence(self):
        p = np.full((5, 3), 1 / 3)
        p[2] = [1.0, 0.0, 0.0]
        rank = selection._rank_rows("least_confidence", p)
        out = baseline_select("least_confidence", np.arange(5), 4, rank=rank)
        assert 2 not in out

    @pytest.mark.parametrize("strategy", ["entropy", "least_confidence", "margin"])
    def test_matches_brute_force(self, strategy):
        p = self.probs(seed=8)
        ids = np.arange(500, 540)
        out = baseline_select(strategy, ids, 7, rank=selection._rank_rows(strategy, p))
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
        ids = np.arange(40)
        out1 = baseline_select("random", ids, 10, seed=3)
        out2 = baseline_select("random", ids, 10, seed=3)
        np.testing.assert_array_equal(out1, out2)
        assert len(set(out1)) == 10
        out3 = baseline_select("random", ids, 10, seed=4)
        assert not np.array_equal(out1, out3)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            baseline_select("badge", np.arange(40), 5)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            baseline_select("random", np.array([]), 5)

    @pytest.mark.parametrize("budget", [0, -1])
    @pytest.mark.parametrize("strategy", selection.BASELINE_STRATEGIES)
    def test_non_positive_budget_rejected(self, strategy, budget):
        with pytest.raises(ValueError, match="budget must be positive"):
            baseline_select(strategy, np.arange(40), budget, rank=np.zeros(40))

    @pytest.mark.parametrize("strategy", RANKED_STRATEGIES)
    @pytest.mark.parametrize(
        "rank",
        [None, np.zeros(5), np.zeros(11), np.zeros((10, 1))],
        ids=["none", "short", "long", "column"],
    )
    def test_rank_not_shaped_like_ids_rejected(self, strategy, rank):
        """A rank must hold one value per id: five ranks for ten ids used
        to query ids 101 and 102 by the ranks of the first five."""
        with pytest.raises(ValueError, match=r"rank shaped like ids \(10,\)"):
            baseline_select(strategy, np.arange(100, 110), 2, rank=rank)


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


def stream_case(n, classes):
    """A 32 -> 64 -> 64 -> C model with logits past both clip bounds, a
    feature store of n + 37 rows and n shuffled row ids into it."""
    m = init_model(32, classes, (64, 64), seed=n + classes, head_init_scale=3.0)
    rng = np.random.default_rng(n)
    x = rng.normal(0.0, 8.0, size=(n + 37, 32))
    return m, x, rng.permutation(len(x))[:n]


def same_bytes(a, b):
    return all(u.tobytes() == v.tobytes() for u, v in zip(a, b))


class TestBlockedForward:
    """The pool pass splits a pool of at least two blocks into
    ``n // block`` row blocks, one ``forward`` call each; every block
    keeps the one-pass bits.  The block is 4096 rows for
    32 -> 64 -> 64 -> 10, 8192 for 16 -> 64 -> 64 -> 4 and 2^21 / 24 for
    5 -> 8 -> 8 -> 3, whose 10,000 rows stay one block."""

    @pytest.mark.parametrize(
        "d_in, widths, classes, rows, blocks",
        [
            (32, (64, 64), 10, 8191, 1),
            (32, (64, 64), 10, 8192, 2),
            (32, (64, 64), 10, 12_289, 3),
            (32, (64, 64), 10, 47_700, 11),
            (16, (64, 64), 4, 16_384, 2),
            (16, (64, 64), 4, 20_001, 2),
            (5, (8, 8), 3, 10_000, 1),
        ],
    )
    def test_bitwise_equal_to_training_forward(
        self, monkeypatch, d_in, widths, classes, rows, blocks
    ):
        m = init_model(d_in, classes, hidden_widths=widths, seed=5, head_init_scale=3.0)
        x = np.random.default_rng(rows).normal(0.0, 8.0, size=(rows, d_in))
        calls = []
        real = selection.forward
        monkeypatch.setattr(
            selection, "forward", lambda *a: (calls.append(1), real(*a))[1]
        )

        def keep_evidence(alphas, *cols):
            for col, a in zip(cols, alphas):
                col[:] = a

        got = selection._pool_pass(m, x, None, keep_evidence, ((classes,),) * 2)
        assert len(calls) == blocks
        for a, b in zip(got, _forward_cached(m, x)[2]):
            assert a.tobytes() == b.tobytes()


class TestStreamedScores:
    """``score_pool`` and ``averaged_probs`` stream a pool's rows through
    ``forward``'s row blocks in per-pass scratch.  The partition is
    forward's, so every block keeps the one-pass bits: 1,504 and 6,000
    rows are one block at C = 10, 47,700 are eleven."""

    SIZES = [1504, 6000, 8191, 12_289, 20_001, 47_700]

    @pytest.mark.parametrize("classes", [4, 10])
    @pytest.mark.parametrize("n", SIZES)
    def test_bitwise_equal_to_whole_pool(self, n, classes):
        m, x, rows = stream_case(n, classes)
        pool = x[rows]
        a1, a2 = forward(m, pool)
        avg = 0.5 * (a1 + a2)
        closed = PoolScores(
            np.maximum(data_uncertainty(avg), 0.0),
            np.maximum(distribution_uncertainty(avg), 0.0),
            discrepancy_score(a1, a2),
        )
        streamed = score_pool(m, x, rows=rows)
        assert same_bytes(streamed, closed)
        assert same_bytes(streamed, score_pool(m, pool))
        probs = 0.5 * (expected_probs(a1) + expected_probs(a2))
        got = averaged_probs(m, x, rows=rows)
        assert got.tobytes() == probs.tobytes()
        assert got.tobytes() == averaged_probs(m, pool).tobytes()

    @pytest.mark.parametrize("bad", [-1, "size"])
    @pytest.mark.parametrize("fn", [score_pool, averaged_probs])
    def test_out_of_range_row_raises_before_any_block(self, monkeypatch, fn, bad):
        m, x, rows = stream_case(12_289, 10)
        rows[-1] = len(x) if bad == "size" else bad
        blocks = []
        monkeypatch.setattr(selection, "forward", lambda *a: blocks.append(a))
        with pytest.raises(IndexError, match="outside"):
            fn(m, x, rows=rows)
        assert blocks == []

    @pytest.mark.parametrize("fn", [score_pool, averaged_probs])
    def test_non_finite_evidence_raises_as_the_closed_forms(self, fn):
        """A nan feature row in the last block reaches the same finiteness
        check as the whole-pool closed forms."""
        m, x, rows = stream_case(12_289, 10)
        x[rows[-1], 3] = np.nan
        with pytest.raises(ValueError, match="alpha must be finite"):
            fn(m, x, rows=rows)
        with pytest.raises(ValueError, match="alpha must be finite"):
            fn(m, x[rows])

    def test_caller_features_left_unmodified(self):
        m, x, rows = stream_case(8192, 10)
        before = x.tobytes()
        score_pool(m, x, rows=rows)
        averaged_probs(m, x, rows=rows)
        assert x.tobytes() == before

    @pytest.mark.parametrize(
        "bad, named",
        [
            (lambda rows: [rows[0] + 0.7, rows[1] + 0.2], "whole numbers"),
            (lambda rows: [rows[0], np.nan], r"whole numbers: \[nan\]"),
            (lambda rows: [True, False, True], "not bool"),
            (lambda rows: [str(rows[0])], "must be integers, not <U"),
            (lambda rows: rows[:4].reshape(2, 2), r"1-D array, not shape \(2, 2\)"),
        ],
        ids=["fractional", "nan", "boolean", "string", "2-D"],
    )
    @pytest.mark.parametrize("fn", [score_pool, averaged_probs])
    def test_non_integer_row_ids_raise_before_any_block(self, monkeypatch, fn, bad, named):
        """Row ids 2.7 and 5.2 used to be truncated to rows 2 and 5,
        [True, False, True] read as rows 1, 0, 1, and "7" as row 7; ids
        of any shape but 1-D are refused too."""
        m, x, rows = stream_case(1504, 10)
        blocks = []
        monkeypatch.setattr(selection, "forward", lambda *a: blocks.append(a))
        with pytest.raises(ValueError, match=named):
            fn(m, x, rows=bad(rows))
        assert blocks == []

    def test_whole_float_row_ids_read_as_integers(self):
        m, x, rows = stream_case(1504, 10)
        assert same_bytes(score_pool(m, x, rows=rows.astype(float)), score_pool(m, x, rows=rows))


def pool_passes(m, x, rows):
    """Every pool pass on the same pool: the three scores, the averaged
    probabilities and each ranked baseline's rank."""
    out = list(score_pool(m, x, rows=rows))
    out.append(averaged_probs(m, x, rows=rows))
    out.extend(baseline_rank(s, m, x, rows=rows) for s in RANKED_STRATEGIES)
    return out


def force_width(monkeypatch, width):
    monkeypatch.setattr(selection, "_pool_width", width)


class TestPoolWorkers:
    """The pool pass runs ``forward``'s row blocks on ``_pool_width``
    workers.  Any width gives the one-worker bytes and errors, and no
    thread outlives a pass."""

    @pytest.mark.parametrize("classes", [4, 10])
    @pytest.mark.parametrize("n", [1504, 8292, 12_289, 47_700])
    def test_bitwise_equal_to_one_worker(self, monkeypatch, n, classes):
        m, x, rows = stream_case(n, classes)
        force_width(monkeypatch, lambda blocks: 1)
        serial = pool_passes(m, x, rows)
        force_width(monkeypatch, lambda blocks: min(2, blocks))
        assert same_bytes(pool_passes(m, x, rows), serial)
        # a second pass allocates fresh scratch and gives the same bytes
        assert same_bytes(pool_passes(m, x, rows), serial)

    @pytest.mark.parametrize("widths", [(), (48,), (64, 64, 64)])
    def test_any_depth_keeps_the_unbuffered_bits(self, monkeypatch, widths):
        """The gathered rows, the layers, the evidence and the average
        share two activation rows; at any depth, and on one worker or
        two, every pass keeps the bits of an unbuffered forward."""
        m = init_model(32, 10, widths, seed=7, head_init_scale=3.0)
        rng = np.random.default_rng(7)
        x = rng.normal(0.0, 8.0, size=(20_037, 32))
        rows = rng.permutation(len(x))[:20_000]
        a1, a2 = forward(m, x[rows])
        avg = 0.5 * (a1 + a2)
        probs = 0.5 * (expected_probs(a1) + expected_probs(a2))
        expected = [
            np.maximum(data_uncertainty(avg), 0.0),
            np.maximum(distribution_uncertainty(avg), 0.0),
            discrepancy_score(a1, a2),
            probs,
            *(selection._rank_rows(s, probs) for s in RANKED_STRATEGIES),
        ]
        for width in (1, 2):
            force_width(monkeypatch, lambda blocks, width=width: min(width, blocks))
            assert same_bytes(pool_passes(m, x, rows), expected)

    def test_concurrent_passes_share_nothing(self, monkeypatch):
        """Three threads run ``score_pool`` and ``averaged_probs`` on one
        pool at once, each pass on two workers of its own; every result
        keeps the serial bytes."""
        m, x, rows = stream_case(12_289, 10)
        force_width(monkeypatch, lambda blocks: 1)
        serial = [*score_pool(m, x, rows=rows), averaged_probs(m, x, rows=rows)]
        force_width(monkeypatch, lambda blocks: min(2, blocks))
        start = threading.Barrier(3)
        results = [None] * 3

        def run(i):
            start.wait(timeout=60)
            results[i] = [*score_pool(m, x, rows=rows), averaged_probs(m, x, rows=rows)]

        runners = [threading.Thread(target=run, args=(i,)) for i in range(3)]
        for runner in runners:
            runner.start()
        for runner in runners:
            runner.join(timeout=120)
        assert not any(runner.is_alive() for runner in runners)
        assert all(got is not None and same_bytes(got, serial) for got in results)

    def test_stress_more_workers_than_cpus(self, monkeypatch):
        """Eight workers share a queue of 400 ten-row blocks under a very
        short thread switch interval: each block runs once, and the
        scores keep the one-worker bytes of the same partition."""
        m, x, rows = stream_case(4000, 10)
        monkeypatch.setattr(
            selection, "_row_blocks",
            lambda model, n: [(lo, min(lo + 10, n)) for lo in range(0, n, 10)],
        )
        force_width(monkeypatch, lambda blocks: 1)
        serial = score_pool(m, x, rows=rows)
        force_width(monkeypatch, lambda blocks: 8)
        calls = []
        real_forward = selection.forward

        def counted(*args):
            calls.append(None)
            return real_forward(*args)

        monkeypatch.setattr(selection, "forward", counted)
        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: result.append(score_pool(m, x, rows=rows)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(calls) == 400
        assert same_bytes(result[0], serial)

    def test_width_above_block_count(self, monkeypatch):
        m, x, rows = stream_case(8292, 10)
        force_width(monkeypatch, lambda blocks: 1)
        serial = pool_passes(m, x, rows)
        force_width(monkeypatch, lambda blocks: blocks + 3)
        assert same_bytes(pool_passes(m, x, rows), serial)

    @pytest.mark.parametrize("fn", [score_pool, averaged_probs])
    def test_nan_in_last_block_raises_as_one_worker(self, monkeypatch, fn):
        m, x, rows = stream_case(12_289, 10)
        x[rows[-1], 3] = np.nan
        messages = []
        for width in (1, 2):
            force_width(monkeypatch, lambda blocks, width=width: width)
            with pytest.raises(ValueError, match="alpha must be finite") as err:
                fn(m, x, rows=rows)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    def test_lowest_failing_block_raises(self, monkeypatch):
        """Block 0 (9,000 rows) fails late and block 1 (11,001 rows) at
        once; the serial loop would raise block 0's error, and so must two
        workers."""
        m, x, _ = stream_case(20_001, 10)
        force_width(monkeypatch, lambda blocks: 2)
        monkeypatch.setattr(selection, "_row_blocks", lambda model, n: [(0, 9000), (9000, n)])

        def block_fn(alphas):
            rows = len(alphas[0])
            if rows == 9000:
                time.sleep(0.05)
            raise ValueError(f"block of {rows} rows")

        with pytest.raises(ValueError, match="block of 9000 rows$"):
            selection._pool_pass(m, x, None, block_fn)

    def test_every_block_runs_under_the_callers_errstate(self, monkeypatch):
        """numpy keeps np.errstate per thread; each block sees the
        caller's, whichever worker takes it."""
        m, x, _ = stream_case(20_001, 10)
        force_width(monkeypatch, lambda blocks: 2)
        seen = []

        def block_fn(alphas):
            time.sleep(0.01)  # so that both workers take blocks
            seen.append(np.geterr()["under"])

        with np.errstate(under="raise"):
            selection._pool_pass(m, x, None, block_fn)
        assert len(seen) >= 4
        assert set(seen) == {"raise"}

    @pytest.mark.parametrize("fn", [score_pool, averaged_probs])
    def test_bad_id_raises_before_any_block(self, monkeypatch, fn):
        m, x, rows = stream_case(12_289, 10)
        rows[0] = -1
        force_width(monkeypatch, lambda blocks: 2)
        blocks = []
        monkeypatch.setattr(selection, "forward", lambda *a: blocks.append(a))
        with pytest.raises(IndexError, match="outside"):
            fn(m, x, rows=rows)
        assert blocks == []

    def test_no_thread_outlives_a_pass(self, monkeypatch):
        m, x, rows = stream_case(12_289, 10)
        force_width(monkeypatch, lambda blocks: 2)
        before = threading.active_count()
        pool_passes(m, x, rows)
        assert threading.active_count() == before
        x[rows[-1], 0] = np.nan
        with pytest.raises(ValueError):
            score_pool(m, x, rows=rows)
        assert threading.active_count() == before

    def test_one_block_starts_no_thread(self, monkeypatch):
        """A pool below two blocks, such as every desk pool and test set,
        runs inline whatever the CPU count."""
        monkeypatch.setattr(selection, "_cpu_count", lambda: 8)

        def refuse(self):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        m, x, rows = stream_case(6000, 10)
        pool_passes(m, x, rows)

    @pytest.mark.parametrize("cpus, jobs, width", [(4, 2, 2), (2, 2, 1), (2, 8, 1), (8, 3, 2)])
    def test_grid_jobs_share_the_cpus(self, monkeypatch, cpus, jobs, width):
        monkeypatch.setattr(selection, "_cpu_count", lambda: cpus)
        monkeypatch.setattr(selection, "_workers", None)
        assert selection._pool_width(11) == min(cpus, 11)
        selection._share_cpus(jobs)
        assert selection._pool_width(11) == width
        assert selection._pool_width(1) == 1


class TestBaselineRank:
    @pytest.mark.parametrize("strategy", RANKED_STRATEGIES)
    @pytest.mark.parametrize("n", [1504, 12_289])
    def test_streamed_rank_selects_as_the_probabilities(self, strategy, n):
        m, x, rows = stream_case(n, 10)
        probs = averaged_probs(m, x, rows=rows)
        rank = baseline_rank(strategy, m, x, rows=rows)
        assert rank.tobytes() == selection._rank_rows(strategy, probs).tobytes()
        ids = rows + 1000
        np.testing.assert_array_equal(
            baseline_select(strategy, ids, 60, rank=rank),
            baseline_select(strategy, ids, 60, rank=selection._rank_rows(strategy, probs)),
        )

    @pytest.mark.parametrize("strategy", ["random", "badge"])
    def test_unranked_strategy_rejected(self, strategy):
        m, x, rows = stream_case(10, 4)
        with pytest.raises(ValueError, match="unknown ranked strategy"):
            baseline_rank(strategy, m, x, rows=rows)

    def test_random_reads_no_scores(self):
        out = baseline_select("random", np.arange(40), 10, seed=3)
        assert len(set(out)) == 10
