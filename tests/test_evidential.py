"""Verification tests for the closed-form Dirichlet mathematics.

Reference values were frozen from independent computations: special
function values from a 40-digit mpmath evaluation, evidence/probability
vectors from direct exponentiation and normalization, and the uncertainty
measures against brute-force Monte-Carlo sampling oracles.
"""

import math

import numpy as np
import pytest
from helpers import closed_form_distribution_uncertainty
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openset_al.evidential import (
    LOGIT_CLIP,
    data_uncertainty,
    discrepancy_score,
    distribution_uncertainty,
    entropy,
    evidence_from_logits,
    expected_probs,
    jsd,
    kl_dirichlet_to_uniform,
)

# Two logit vectors whose softmax outputs nearly coincide while their total
# evidence differs by a factor of ~2; used throughout as a worked example.
LOGITS_HIGH_EVIDENCE = np.array([1.3, 2.3, 1.3])
LOGITS_LOW_EVIDENCE = np.array([0.7, 1.6, 0.53])

# frozen: exp of the logits above (mpmath, 12 significant digits)
ALPHA_HIGH = np.array([3.66929666762, 9.97418245481, 3.66929666762])
ALPHA_LOW = np.array([2.01375270747, 4.95303242440, 1.69893230862])

# frozen: alpha / sum(alpha) for the vectors above
PROBS_HIGH = np.array([0.211941557617, 0.576116884766, 0.211941557617])
PROBS_LOW = np.array([0.232381533474, 0.571566342708, 0.196052123819])


def alpha_vectors(min_classes=2, max_classes=10):
    """Strategy: positive evidence vectors with log-uniform components."""
    return st.integers(min_classes, max_classes).flatmap(
        lambda c: st.lists(
            st.floats(-10.0, 10.0, allow_nan=False), min_size=c, max_size=c
        ).map(lambda logs: np.exp(np.array(logs)))
    )


class TestEvidenceFromLogits:
    def test_zero_logits(self):
        np.testing.assert_array_equal(evidence_from_logits([0.0, 0.0, 0.0]), 1.0)

    def test_worked_examples(self):
        np.testing.assert_allclose(
            evidence_from_logits(LOGITS_HIGH_EVIDENCE), ALPHA_HIGH, rtol=1e-11
        )
        np.testing.assert_allclose(
            evidence_from_logits(LOGITS_LOW_EVIDENCE), ALPHA_LOW, rtol=1e-11
        )

    def test_clamp_bounds_output(self):
        a = evidence_from_logits([-50.0, 0.0, 50.0])
        assert a[0] == pytest.approx(math.exp(-LOGIT_CLIP))
        assert a[2] == pytest.approx(math.exp(LOGIT_CLIP))
        assert np.all(a > 0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            evidence_from_logits([1.0, np.inf])
        with pytest.raises(ValueError):
            evidence_from_logits([np.nan, 0.0])


class TestExpectedProbs:
    def test_symmetric(self):
        np.testing.assert_allclose(expected_probs([1.0, 1.0, 1.0]), 1 / 3)

    def test_worked_examples(self):
        np.testing.assert_allclose(expected_probs(ALPHA_HIGH), PROBS_HIGH, atol=1e-11)
        np.testing.assert_allclose(expected_probs(ALPHA_LOW), PROBS_LOW, atol=1e-11)

    def test_matches_softmax(self):
        """Normalized exp(logits) is exactly the softmax of the logits."""
        from scipy.special import softmax

        rng = np.random.default_rng(3)
        z = rng.normal(scale=2.0, size=(50, 4))
        np.testing.assert_allclose(
            expected_probs(evidence_from_logits(z)), softmax(z, axis=-1), atol=1e-12
        )

    def test_near_equal_means_despite_halved_evidence(self):
        """The two worked examples get the same top-class probability to
        within 0.01 even though one carries twice the total evidence."""
        p_high = expected_probs(ALPHA_HIGH)
        p_low = expected_probs(ALPHA_LOW)
        assert abs(p_high[1] - p_low[1]) < 0.01
        assert ALPHA_HIGH.sum() / ALPHA_LOW.sum() > 1.9

    @given(alpha_vectors())
    def test_sums_to_one(self, alpha):
        assert expected_probs(alpha).sum() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            expected_probs([1.0, 0.0])


class TestDataUncertainty:
    def test_flat_two_class(self):
        """For Dir(1, 1) the expected entropy is exactly 1/2:
        psi(3) - psi(2) = 1/2, equally weighted."""
        assert data_uncertainty([1.0, 1.0]) == pytest.approx(0.5, abs=1e-12)

    def test_monotone_approach_to_uniform_entropy(self):
        """Scaling symmetric evidence up drives the expected entropy
        monotonically toward ln 2 from below."""
        vals = [data_uncertainty([c, c]) for c in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(math.log(2), abs=1e-3)
        assert all(v < math.log(2) for v in vals)

    def test_monte_carlo_oracle(self):
        """Mean categorical entropy over 1e5 Dirichlet draws agrees with
        the closed form within 3 standard errors."""
        rng = np.random.default_rng(11)
        alpha = rng.uniform(0.5, 5.0, size=4)
        samples = rng.dirichlet(alpha, size=100_000)
        h = entropy(samples)
        se = h.std(ddof=1) / math.sqrt(len(h))
        assert abs(data_uncertainty(alpha) - h.mean()) < 3 * se

    @given(alpha_vectors())
    def test_bounds(self, alpha):
        u = data_uncertainty(alpha)
        c = len(alpha)
        assert -1e-9 <= u <= math.log(c) + 1e-9


class TestDistributionUncertainty:
    def test_flat_two_class(self):
        """ln 2 total entropy minus the 1/2 expected entropy."""
        assert distribution_uncertainty([1.0, 1.0]) == pytest.approx(
            math.log(2) - 0.5, abs=1e-12
        )

    def test_vanishes_with_abundant_evidence(self):
        vals = [distribution_uncertainty([c, c]) for c in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] == pytest.approx(0.0, abs=1e-3)

    def test_monte_carlo_oracle(self):
        """Entropy of the sample-mean probability minus the mean sample
        entropy estimates the mutual information."""
        rng = np.random.default_rng(12)
        alpha = rng.uniform(0.5, 5.0, size=4)
        samples = rng.dirichlet(alpha, size=100_000)
        h = entropy(samples)
        se = h.std(ddof=1) / math.sqrt(len(h))
        mc = entropy(samples.mean(axis=0)) - h.mean()
        assert abs(distribution_uncertainty(alpha) - mc) < 3 * se

    @settings(max_examples=50)
    @given(
        st.sampled_from([2, 4, 10]).flatmap(
            lambda c: st.lists(
                st.lists(st.floats(-10.0, 10.0), min_size=c, max_size=c),
                min_size=1,
                max_size=40,
            )
        )
    )
    def test_bitwise_equal_to_direct_closed_form(self, logs):
        """entropy(expected_probs) - data_uncertainty rounds exactly as the
        direct closed form: its expected-log term is exactly
        -data_uncertainty, and (-u) - X equals (-X) - u in IEEE
        arithmetic.  Evidence spans [e^-10, e^10] per component."""
        alpha = np.exp(np.array(logs))
        assert (
            distribution_uncertainty(alpha).tobytes()
            == closed_form_distribution_uncertainty(alpha).tobytes()
        )
        single = distribution_uncertainty(alpha[0])
        assert isinstance(single, float)
        expected = closed_form_distribution_uncertainty(alpha[0])
        assert np.float64(single).tobytes() == expected.tobytes()

    @given(alpha_vectors())
    def test_decomposition_identity(self, alpha):
        """Expected entropy plus mutual information equals the entropy of
        the expected probabilities."""
        total = data_uncertainty(alpha) + distribution_uncertainty(alpha)
        assert total == pytest.approx(entropy(expected_probs(alpha)), abs=1e-9)


class TestTranslationSensitivity:
    """Shifting all logits by a constant leaves the expected probabilities
    unchanged but moves both uncertainty measures: extra evidence shrinks
    the mutual information toward zero and pushes the expected entropy up
    toward the (fixed) entropy of the mean."""

    def test_probs_invariant_under_shift(self):
        z = np.array([0.2, 1.1, -0.4])
        for t in (-2.0, -0.5, 0.5, 2.0):
            np.testing.assert_allclose(
                expected_probs(evidence_from_logits(z + t)),
                expected_probs(evidence_from_logits(z)),
                atol=1e-12,
            )

    def test_uncertainties_track_evidence(self):
        z = np.array([0.2, 1.1, -0.4])
        shifts = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        u_data = [data_uncertainty(evidence_from_logits(z + t)) for t in shifts]
        u_dist = [distribution_uncertainty(evidence_from_logits(z + t)) for t in shifts]
        assert all(b > a for a, b in zip(u_data, u_data[1:]))
        assert all(b < a for a, b in zip(u_dist, u_dist[1:]))

    def test_worked_example_contrast(self):
        """The low-evidence vector shows the larger mutual information,
        the signal separating it from its high-evidence twin."""
        assert distribution_uncertainty(ALPHA_LOW) > distribution_uncertainty(
            ALPHA_HIGH
        )
        assert data_uncertainty(ALPHA_LOW) < data_uncertainty(ALPHA_HIGH)


class TestJsd:
    def test_identical_inputs(self):
        assert jsd([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_disjoint_supports(self):
        """Disjoint point masses reach the base-2 upper bound of 1."""
        assert jsd([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    @given(alpha_vectors())
    @settings(max_examples=50)
    def test_symmetry_and_bounds(self, alpha):
        p = expected_probs(alpha)
        q = np.roll(p, 1)
        d_pq = jsd(p, q)
        assert d_pq == pytest.approx(jsd(q, p), abs=1e-12)
        assert -1e-12 <= d_pq <= 1.0 + 1e-12

    def test_zero_only_on_equal(self):
        p = np.array([0.2, 0.8])
        q = np.array([0.2000001, 0.7999999])
        assert jsd(p, q) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            jsd([0.5, 0.5], [0.3, 0.3, 0.4])


class TestKlDirichletToUniform:
    @pytest.mark.parametrize("c", [2, 3, 10])
    def test_zero_at_uniform(self, c):
        assert kl_dirichlet_to_uniform(np.ones(c)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed(self):
        """KL(Dir(2,1) || Dir(1,1)) = ln 2 + psi(2) - psi(3) = ln 2 - 1/2."""
        assert kl_dirichlet_to_uniform([2.0, 1.0]) == pytest.approx(
            math.log(2) - 0.5, abs=1e-12
        )

    @given(alpha_vectors())
    def test_nonnegative(self, alpha):
        assert kl_dirichlet_to_uniform(alpha) >= -1e-10

    def test_limit_to_zero(self):
        """KL shrinks as the evidence vector approaches all-ones."""
        base = np.array([3.0, 0.2, 1.5])
        ones = np.ones(3)
        vals = [
            kl_dirichlet_to_uniform(ones + t * (base - ones))
            for t in (1.0, 0.1, 0.01, 0.001)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-4


class TestDiscrepancyScore:
    def test_identical(self):
        assert discrepancy_score([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_hand_computed(self):
        assert discrepancy_score([3.0, 4.0], [1.0, 1.0]) == pytest.approx(
            math.sqrt(13), abs=1e-12
        )

    @given(alpha_vectors(), st.floats(0.1, 10.0))
    @example(np.exp([10.0, 9.999999999999998]), 3.0)
    @settings(max_examples=50)
    def test_homogeneous_in_scale(self, alpha, t):
        """The distance of the scaled heads is t times theirs, up to the
        rounding of the scaled operands: fl(t * a) is within u * t * |a|
        of t * a, u = eps / 2, so component i of the difference moves by
        at most u * t * (|alpha_i| + |other_i|) and the distance by at
        most the norm of those bounds.  Heads a few ulps apart (the
        pinned example, 3% off) make that rounding the whole error;
        rel=1e-9 covers the rest."""
        other = alpha[::-1].copy()
        scaled = discrepancy_score(t * alpha, t * other)
        u = np.finfo(float).eps / 2
        rounding = u * t * np.linalg.norm(np.abs(alpha) + np.abs(other))
        expected = t * discrepancy_score(alpha, other)
        assert abs(scaled - expected) <= 1e-9 * expected + rounding

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            discrepancy_score([1.0, 2.0], [1.0, 2.0, 3.0])


class TestBatchBroadcasting:
    """All measures accept (N, C) batches and return (N,) arrays."""

    def test_shapes(self):
        rng = np.random.default_rng(0)
        alpha = np.exp(rng.normal(size=(7, 5)))
        assert expected_probs(alpha).shape == (7, 5)
        assert data_uncertainty(alpha).shape == (7,)
        assert distribution_uncertainty(alpha).shape == (7,)
        assert kl_dirichlet_to_uniform(alpha).shape == (7,)
        assert discrepancy_score(alpha, alpha[::-1]).shape == (7,)
        assert jsd(expected_probs(alpha), expected_probs(alpha[::-1])).shape == (7,)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(1)
        alpha = np.exp(rng.normal(size=(4, 3)))
        batch = data_uncertainty(alpha)
        for i in range(4):
            assert batch[i] == pytest.approx(data_uncertainty(alpha[i]), abs=1e-14)
