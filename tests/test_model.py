"""Trainer tests: analytic gradients against finite differences, freezing
contracts, optimizer arithmetic, determinism, and checkpoint round-trips."""

import copy
import math
import pickle
import sys

import numpy as np
import pytest
from helpers import (
    finite_difference_grads,
    load_repo_file,
    max_rel_err,
    reference_forward,
    reference_train_cycle,
    zeta_edl_grads,
)
from scipy import special

from openset_al import model as model_module
from openset_al.datasets import BlobSpec, make_blobs
from openset_al.evidential import LOGIT_CLIP, data_uncertainty, discrepancy_score
from openset_al.model import (
    ModelParams,
    TrainConfig,
    _edl_grads,
    _forward_cached,
    _trigamma,
    close_loss,
    close_weights,
    cross_entropy_loss,
    dis_loss,
    dis_weights,
    edl_loss,
    forward,
    init_model,
    learning_rate_at,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_cycle,
)


def tiny_model(seed=1, input_dim=5, widths=(8, 8), classes=3):
    return init_model(input_dim, classes, hidden_widths=widths, seed=seed)


def random_batch(n=4, dim=5, classes=3, seed=7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, dim)), rng.integers(0, classes, size=n)


def flat(model):
    return model.flat_params()


class TestTrainConfig:
    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"lr": 0.0}, "rates"),
            ({"momentum": -0.1}, "rates"),
            ({"coarse_threshold": 1.0}, "coarse_threshold"),
            ({"lr_milestones": (100,)}, "lr_milestones"),
            ({"batch_size": 0}, "batch_size"),
            ({"train_loss": "hinge"}, "train_loss"),
            ({"query_size": 0}, "query_size"),
            ({"discrepancy_epochs": -1}, "counts"),
            ({"hidden_widths": (0,)}, "hidden_widths"),
            ({"hidden_widths": (-3,)}, "hidden_widths"),
            ({"lr_milestones": (-5,)}, "lr_milestones"),
        ],
    )
    def test_invalid_setting_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**overrides).validate()

    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="int_past_float")]
    )
    @pytest.mark.parametrize(
        "field",
        [
            "lr", "momentum", "weight_decay", "tau1", "tau2", "alpha_coef",
            "beta_coef", "head_init_scale",
        ],
    )
    def test_non_finite_float_rejected(self, field, value):
        """A config built in Python is checked like one read by the CLI:
        NaN fails every comparison, so each must be written to fail it."""
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            *[
                (field, value)
                for field in (
                    "batch_size", "epochs", "query_size", "num_cycles", "seed",
                    "discrepancy_epochs",
                )
                for value in (2.5, 40.0, True)
            ],
            ("lr_milestones", (2.5,)),
            ("lr_milestones", (3.0,)),
            ("lr_milestones", (True,)),
            ("hidden_widths", (64.0,)),
            ("hidden_widths", (8, True)),
        ],
    )
    def test_non_integer_count_rejected(self, field, value):
        """A count given as a float or a bool fails validation by name:
        query_size 2.5 used to train cycle 0 and then fail in selection,
        and milestone 2.5 dropped the rate at epoch 3."""
        with pytest.raises(ValueError, match=f"{field} must"):
            TrainConfig(**{field: value}).validate()

    def test_numpy_integer_counts_accepted(self):
        TrainConfig(
            batch_size=np.int64(32), epochs=np.int32(20), query_size=np.int64(10),
            num_cycles=np.int64(2), seed=np.uint8(3), discrepancy_epochs=np.int64(2),
            lr_milestones=(np.int64(10),), hidden_widths=(np.int16(8),),
        ).validate()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("use_discrepancy", "false"),
            ("use_discrepancy", 0),
            ("lr", True),
            ("tau1", False),
            ("train_loss", 5),
        ],
    )
    def test_value_of_another_type_rejected(self, field, value):
        """A switch or rate of the wrong type fails validation by name:
        use_discrepancy "false" is truthy and ran the full method in the
        "no discrepancy" ablation, and lr True trained at rate 1."""
        with pytest.raises(ValueError, match=f"{field} must"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("field", ["lr", "tau1", "head_init_scale"])
    def test_int_past_int64_accepted(self, field):
        """10**30 is a finite number, as the CLI's 1e30 is; it used to raise
        TypeError from np.isfinite, which takes no int past int64."""
        TrainConfig(**{field: 10**30}).validate()

    def test_numpy_bools_and_floats_accepted(self):
        TrainConfig(
            use_discrepancy=np.False_, lr=np.float32(0.01), tau1=np.float64(3.0),
            momentum=np.int64(0),
        ).validate()


class TestForward:
    def test_zeroed_heads_give_unit_evidence(self):
        m = tiny_model()
        for w, b in m.heads:
            w[:] = 0.0
            b[:] = 0.0
        a1, a2 = forward(m, np.random.default_rng(0).normal(size=(3, 5)))
        np.testing.assert_array_equal(a1, 1.0)
        np.testing.assert_array_equal(a2, 1.0)

    def test_identical_heads_have_zero_discrepancy(self):
        m = tiny_model()
        m.heads[1][0][:] = m.heads[0][0]
        m.heads[1][1][:] = m.heads[0][1]
        a1, a2 = forward(m, np.random.default_rng(1).normal(size=(4, 5)))
        np.testing.assert_array_equal(discrepancy_score(a1, a2), 0.0)

    def test_distinct_heads_by_default(self):
        m = tiny_model()
        a1, a2 = forward(m, np.random.default_rng(2).normal(size=(4, 5)))
        assert np.all(discrepancy_score(a1, a2) > 0)

    def test_deterministic_across_runs(self):
        x = np.random.default_rng(3).normal(size=(6, 5))
        out1 = forward(tiny_model(seed=9), x)
        out2 = forward(tiny_model(seed=9), x)
        for a, b in zip(out1, out2):
            assert a.tobytes() == b.tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            forward(tiny_model(), np.zeros((2, 7)))


class TestInferenceForward:
    """``forward`` runs ``_layers`` once, the loop it shares with
    ``_forward_cached``, and computes each layer and the evidence in
    place; ``_forward_cached``, the training path, is the reference for
    its evidence."""

    @pytest.mark.parametrize("rows", [1, 128, 10_000])
    def test_bitwise_equal_to_training_forward(self, rows):
        # head weights large enough that inputs of scale 8 push logits
        # past both ends of [-LOGIT_CLIP, LOGIT_CLIP]
        m = init_model(16, 4, hidden_widths=(64, 64), seed=5, head_init_scale=3.0)
        x = np.random.default_rng(0).normal(0.0, 8.0, size=(rows, 16))
        _, logits, alphas, _ = _forward_cached(m, x)
        z = np.concatenate(logits)
        assert (z > LOGIT_CLIP).any() and (z < -LOGIT_CLIP).any()
        out = forward(m, x)
        for a, b in zip(out, alphas):
            assert a.tobytes() == b.tobytes()

    def test_logits_only_pass_builds_no_evidence(self):
        m = init_model(16, 4, hidden_widths=(64, 64), seed=5, head_init_scale=3.0)
        x = np.random.default_rng(0).normal(0.0, 8.0, size=(128, 16))
        acts, logits, _, _ = _forward_cached(m, x)
        acts2, logits2, alphas, mask = _forward_cached(m, x, evidence=False)
        assert alphas is None and mask is None
        assert logits2.tobytes() == logits.tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(acts, acts2))

    @pytest.mark.parametrize("widths", [(64, 64), ()])
    def test_input_left_unmodified(self, widths):
        """The in-place updates never write through to the caller's array,
        also when the heads read the input directly."""
        m = init_model(16, 4, hidden_widths=widths, seed=5, head_init_scale=3.0)
        x = np.random.default_rng(4).normal(0.0, 8.0, size=(64, 16))
        before = x.tobytes()
        out = forward(m, x)
        assert x.tobytes() == before
        for a, b in zip(out, _forward_cached(m, x)[2]):
            assert a.tobytes() == b.tobytes()


# frozen: trigamma at exactly representable arguments, from a 40-digit
# mpmath 1.3.0 evaluation of polygamma(1, x)
TRIGAMMA_REFERENCE = [
    (4.5399929762484854e-05, "485165197.0546151485391918723168718103717"),
    (0.001, "1000001.64253319582734466950414879516746"),
    (0.25, "17.19732915450711073927131911933522402151"),
    (1.0, "1.644934066848226436472415166646025189219"),
    (1.5, "0.9348022005446793094172454999380755676569"),
    (3.0, "0.3949340668482264364724151666460251892189"),
    (9.75, "0.1080032433366318545603115508352785231644"),
    (10.5, "0.09991695605912673320394417144547194742292"),
    (100.0, "0.01005016666333357139524566846570142253563"),
    (1234.5, "0.0008103727271269666526951330249687002610177"),
    (22026.465794806718, "0.00004540096035489210624905021559012225058828"),
    (2180621.113685865, "0.0000004585850439658551757213850951115395948595"),
]


class TestTrigamma:
    def test_frozen_reference_values(self):
        x = np.array([arg for arg, _ in TRIGAMMA_REFERENCE])
        ref = np.array([float(value) for _, value in TRIGAMMA_REFERENCE])
        got = _trigamma(x.copy())
        assert np.all(np.abs(got - ref) <= 4 * np.spacing(ref))

    def test_dense_grid_matches_zeta(self):
        """Evidence down to e^-10 and row sums up to 1 + 99 e^10."""
        x = np.exp(np.linspace(-10.0, np.log1p(99.0 * np.exp(10.0)), 100_001))
        ref = special.zeta(2, x)
        assert np.max(np.abs(_trigamma(x.copy()) - ref) / ref) < 2e-15

    def test_in_place_and_nan_propagating(self):
        x = np.array([[0.5, np.nan], [2.0, 1e6]])
        out = _trigamma(x)
        assert out is x
        assert np.isnan(x[0, 1]) and np.isfinite(np.delete(x, 1)).all()


class TestEdlGrads:
    @pytest.mark.parametrize("classes", [2, 4, 10])
    def test_matches_zeta_formula(self, classes):
        """Against the per-head zeta formula, relative to each gradient
        array's largest entry: single entries can be sums that cancel to
        far below the terms whose rounding they carry."""
        m = init_model(16, classes, hidden_widths=(64, 64), seed=5, head_init_scale=3.0)
        rng = np.random.default_rng(classes)
        x = rng.normal(0.0, 8.0, size=(128, 16))
        yy = np.eye(classes)[rng.integers(0, classes, size=128)]
        z = np.concatenate(_forward_cached(m, x)[1])
        assert (z > LOGIT_CLIP).any() and (z < -LOGIT_CLIP).any()
        _, grads = _edl_grads(m, x, yy)
        for g, ref in zip(grads, zeta_edl_grads(m, x, yy)):
            assert np.max(np.abs(g - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_one_kernel_call_per_step(self, monkeypatch, small_split):
        counts = {"_trigamma": 0, "_edl_grads": 0}
        for name in counts:
            real = getattr(model_module, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(model_module, name, counted)
        xl, yl = small_split.labeled_arrays()
        m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        train_cycle(m, xl, yl, None, quick_cfg(epochs=3, discrepancy_epochs=0))
        assert counts["_trigamma"] == counts["_edl_grads"] > 0

    def test_nan_logit_reaches_sgd_step(self, small_split):
        """A nan logit (here one class of one head, so it sits in label and
        off-label entries) stops training at the update."""
        xl, yl = small_split.labeled_arrays()
        m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        m.heads[1][1][1] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            train_cycle(m, xl, yl, None, quick_cfg(epochs=1, discrepancy_epochs=0))


class TestEdlLoss:
    def test_uniform_evidence_value(self):
        """With all-ones evidence the likelihood term is ln C and the KL
        regularizer vanishes."""
        m = tiny_model()
        for arr in flat(m):
            arr[:] = 0.0
        x, y = random_batch()
        loss, _ = edl_loss(m, x, y)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_loss_vanishes_with_label_evidence(self):
        """Raising evidence on the labeled class monotonically drives the
        loss's likelihood part toward zero."""
        losses = []
        for t in (0.5, 1.0, 2.0, 4.0, 8.0):
            m = init_model(3, 3, hidden_widths=(), seed=0)
            for w, b in m.heads:
                w[:] = t * np.eye(3)
                b[:] = 0.0
            x = np.eye(3)
            y = np.arange(3)
            loss, _ = edl_loss(m, x, y)
            losses.append(loss)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_rejects_out_of_range_labels(self):
        m = tiny_model()
        x, _ = random_batch()
        with pytest.raises(ValueError):
            edl_loss(m, x, np.array([0, 1, 2, 3]))
        with pytest.raises(ValueError):
            edl_loss(m, x, np.array([0, -1, 1, 2]))

    def test_gradients_match_finite_differences(self):
        m = tiny_model(seed=4)
        x, y = random_batch(seed=5)
        _, grads = edl_loss(m, x, y)
        numeric = finite_difference_grads(lambda: edl_loss(m, x, y)[0], flat(m))
        assert max_rel_err(grads, numeric) < 1e-4


class TestCrossEntropyLoss:
    def test_uniform_value(self):
        m = tiny_model()
        for arr in flat(m):
            arr[:] = 0.0
        x, y = random_batch()
        loss, _ = cross_entropy_loss(m, x, y)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_gradients_match_finite_differences(self):
        m = tiny_model(seed=6)
        x, y = random_batch(seed=8)
        _, grads = cross_entropy_loss(m, x, y)
        numeric = finite_difference_grads(
            lambda: cross_entropy_loss(m, x, y)[0], flat(m)
        )
        assert max_rel_err(grads, numeric) < 1e-4


class TestCloseLoss:
    def test_zero_for_identical_heads(self):
        m = tiny_model()
        m.heads[1][0][:] = m.heads[0][0]
        m.heads[1][1][:] = m.heads[0][1]
        x, _ = random_batch()
        loss, grads = close_loss(m, x)
        assert loss == 0.0
        assert all(np.all(g == 0.0) for g in grads)

    def test_weights_saturate_with_high_entropy_threshold(self):
        """tau1 far above the entropy range makes every weight ~ 1/N."""
        m = tiny_model()
        x, _ = random_batch()
        w = close_weights(forward(m, x), tau1=7.0)
        np.testing.assert_allclose(w, 1.0 / len(x), rtol=1e-2)
        assert np.all(w > 0) and np.all(w < 1.0 / len(x))

    def test_weights_vanish_when_entropy_dominates_threshold(self):
        """The sigmoid gate closes as u_data - tau1 grows large."""
        m = tiny_model()
        x, _ = random_batch()
        w = close_weights(forward(m, x), tau1=-50.0)
        np.testing.assert_allclose(w, 0.0, atol=1e-12)

    def test_backbone_gradients_match_finite_differences(self):
        m = tiny_model(seed=11)
        x, _ = random_batch(seed=12)
        w = close_weights(forward(m, x), tau1=0.5)
        _, grads = close_loss(m, x, weights=w)
        nb = m.num_backbone_arrays
        backbone_arrays = flat(m)[:nb]
        numeric = finite_difference_grads(
            lambda: close_loss(m, x, weights=w)[0], backbone_arrays
        )
        assert max_rel_err(grads[:nb], numeric) < 1e-4

    def test_head_gradients_exactly_zero(self):
        m = tiny_model(seed=11)
        x, _ = random_batch(seed=12)
        _, grads = close_loss(m, x)
        for g in grads[m.num_backbone_arrays :]:
            assert np.all(g == 0.0)


class TestDisLoss:
    def test_weights_in_range(self):
        m = tiny_model()
        x, _ = random_batch()
        w = dis_weights(forward(m, x), tau2=-5.0)
        assert np.all(w > 0) and np.all(w <= 1.0 / len(x))

    def test_loss_zero_at_maximal_divergence(self):
        """If the heads already disagree maximally (JSD = 1) the loss is 0;
        verified with hand-built one-hot evidence via extreme head biases."""
        m = init_model(2, 2, hidden_widths=(), seed=0)
        m.heads[0][0][:] = 0.0
        m.heads[1][0][:] = 0.0
        m.heads[0][1][:] = np.array([10.0, -10.0])
        m.heads[1][1][:] = np.array([-10.0, 10.0])
        x = np.zeros((3, 2))
        w = np.full(3, 1.0 / 3)
        loss, _ = dis_loss(m, x, weights=w)
        assert loss == pytest.approx(0.0, abs=1e-4)

    def test_head_gradients_match_finite_differences(self):
        m = tiny_model(seed=13)
        x, _ = random_batch(seed=14)
        w = dis_weights(forward(m, x), tau2=0.1)
        _, grads = dis_loss(m, x, weights=w)
        nb = m.num_backbone_arrays
        head_arrays = flat(m)[nb:]
        numeric = finite_difference_grads(
            lambda: dis_loss(m, x, weights=w)[0], head_arrays
        )
        assert max_rel_err(grads[nb:], numeric) < 1e-4

    def test_backbone_gradients_exactly_zero(self):
        m = tiny_model(seed=13)
        x, _ = random_batch(seed=14)
        _, grads = dis_loss(m, x)
        for g in grads[: m.num_backbone_arrays]:
            assert np.all(g == 0.0)


@pytest.mark.parametrize(
    "loss, args",
    [
        (edl_loss, (np.zeros(0, dtype=int),)),
        (cross_entropy_loss, (np.zeros(0, dtype=int),)),
        (close_loss, ()),
        (dis_loss, ()),
    ],
    ids=["edl_loss", "cross_entropy_loss", "close_loss", "dis_loss"],
)
def test_empty_batch_rejected(loss, args):
    """Every public loss refuses an empty batch by name, where a mean over
    no rows would return nan with a RuntimeWarning."""
    with pytest.raises(ValueError, match=f"{loss.__name__} requires a non-empty batch"):
        loss(tiny_model(), np.zeros((0, 5)), *args)


class TestSgdStep:
    def test_noop_with_zero_gradients(self):
        cfg = TrainConfig(weight_decay=0.0)
        m = tiny_model()
        before = [p.copy() for p in flat(m)]
        sgd_step(m, [np.zeros_like(p) for p in flat(m)], 0, cfg)
        for p, q in zip(flat(m), before):
            assert p.tobytes() == q.tobytes()

    def test_schedule(self):
        cfg = TrainConfig(lr=0.01, lr_milestones=(60, 80))
        assert learning_rate_at(0, cfg) == pytest.approx(0.01)
        assert learning_rate_at(59, cfg) == pytest.approx(0.01)
        assert learning_rate_at(60, cfg) == pytest.approx(0.001)
        assert learning_rate_at(79, cfg) == pytest.approx(0.001)
        assert learning_rate_at(80, cfg) == pytest.approx(0.0001)

    def test_hand_computed_update(self):
        """One step from a known state: v = m*v0 + g + wd*p, p -= lr*v."""
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.01)
        m = init_model(2, 2, hidden_widths=(), seed=0)
        m.heads[0][0][:] = 2.0
        m.velocity[0][:] = 0.5
        grads = [np.zeros_like(p) for p in flat(m)]
        grads[0][:] = 3.0
        sgd_step(m, grads, 0, cfg)
        v_expected = 0.9 * 0.5 + 3.0 + 0.01 * 2.0
        p_expected = 2.0 - 0.1 * v_expected
        np.testing.assert_allclose(m.heads[0][0], p_expected, atol=1e-12)
        np.testing.assert_allclose(m.velocity[0], v_expected, atol=1e-12)

    @pytest.mark.parametrize("trainable", ["all", "backbone", "heads"])
    def test_matches_per_array_reference_bitwise(self, trainable):
        """The fused update over the buffer slice equals the per-array loop
        v *= m; v += g + wd * p; p -= lr * v on the subset, bit for bit,
        and leaves every other array untouched."""
        cfg = TrainConfig(lr=0.03, momentum=0.9, weight_decay=1e-3)
        m = tiny_model(seed=3)
        rng = np.random.default_rng(0)
        for v in m.velocity:
            v[:] = rng.normal(size=v.shape)
        grads = [rng.normal(size=p.shape) for p in flat(m)]
        params = [p.copy() for p in flat(m)]
        velocity = [v.copy() for v in m.velocity]
        lr = learning_rate_at(0, cfg)
        for i in m.subsets[trainable][0]:
            velocity[i] *= cfg.momentum
            velocity[i] += grads[i] + cfg.weight_decay * params[i]
            params[i] -= lr * velocity[i]
        sgd_step(m, grads, 0, cfg, trainable=trainable)
        for got, want in zip(flat(m) + m.velocity, params + velocity):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "trainable, bad, raises",
        [("all", 2, True), ("backbone", 2, True), ("heads", 5, True), ("heads", 2, False),
         ("backbone", 5, False)],
    )
    def test_nonfinite_gradient_rejected(self, trainable, bad, raises):
        """Only the trainable subset's gradients are read: a nan inside it
        names its array, a nan outside it is ignored."""
        m = tiny_model()
        grads = [np.zeros_like(p) for p in flat(m)]
        grads[bad][0] = np.nan
        if raises:
            with pytest.raises(FloatingPointError, match=f"parameter {bad} "):
                sgd_step(m, grads, 0, TrainConfig(), trainable=trainable)
        else:
            sgd_step(m, grads, 0, TrainConfig(), trainable=trainable)
            assert all(np.all(np.isfinite(p)) for p in flat(m))

    def test_nan_reports_first_offending_array(self):
        m = tiny_model()
        grads = [np.zeros_like(p) for p in flat(m)]
        grads[3][1] = np.inf
        grads[1][0] = np.nan
        with pytest.raises(FloatingPointError, match="parameter 1 "):
            sgd_step(m, grads, 0, TrainConfig())

    def test_unknown_subset_rejected(self):
        m = tiny_model()
        before = state_bytes(m)
        with pytest.raises(ValueError, match="unknown parameter subset 'head'"):
            sgd_step(m, [np.ones_like(p) for p in flat(m)], 0, TrainConfig(), trainable="head")
        assert state_bytes(m) == before

    def test_mismatched_gradient_shapes_rejected(self):
        m = tiny_model()
        grads = [np.zeros_like(p) for p in flat(m)]
        grads[0] = grads[0].T
        with pytest.raises(ValueError, match="does not match"):
            sgd_step(m, grads, 0, TrainConfig())

    def test_subset_masking_is_bitwise(self):
        m = tiny_model()
        nb = m.num_backbone_arrays
        heads_before = [p.copy() for p in flat(m)[nb:]]
        grads = [np.ones_like(p) for p in flat(m)]
        sgd_step(m, grads, 0, TrainConfig(), trainable="backbone")
        for p, q in zip(flat(m)[nb:], heads_before):
            assert p.tobytes() == q.tobytes()


@pytest.fixture(scope="module")
def small_split():
    spec = BlobSpec(num_known=3, num_unknown=3, dim=8, per_class=60, radius=5.0, seed=5)
    return make_blobs(spec, r=0.5)


def quick_cfg(**kw):
    base = dict(epochs=30, lr_milestones=(20,), discrepancy_epochs=6, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def plain_epochs(model, x, y, cfg, rng, epochs):
    """Labeled-data epochs written out with the public loss and sgd_step."""
    loss_fn = edl_loss if cfg.train_loss == "edl" else cross_entropy_loss
    batch = min(cfg.batch_size, len(x))
    for epoch in epochs:
        order = rng.permutation(len(x))
        for s in range(0, len(x), batch):
            idx = order[s : s + batch]
            _, grads = loss_fn(model, x[idx], y[idx])
            sgd_step(model, grads, epoch, cfg)


def state_bytes(model):
    """Every parameter and velocity byte, read through the array views."""
    return b"".join(a.tobytes() for a in flat(model) + model.velocity)


class TestTrainCycle:
    def test_empty_labeled_pool_rejected(self):
        with pytest.raises(ValueError):
            train_cycle(
                tiny_model(), np.zeros((0, 5)), np.zeros(0, int), np.zeros((0, 5)),
                TrainConfig(),
            )

    def test_deterministic(self, small_split):
        xl, yl = small_split.labeled_arrays()
        xu = small_split.unlabeled_features()
        cfg = quick_cfg(epochs=5, discrepancy_epochs=2)
        runs = []
        for _ in range(2):
            m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=3)
            train_cycle(m, xl, yl, xu, cfg, rng=np.random.default_rng(cfg.seed))
            runs.append(b"".join(p.tobytes() for p in flat(m)))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("train_loss", ["edl", "cross_entropy"])
    def test_no_discrepancy_phase_equals_plain_training(self, small_split, train_loss):
        """discrepancy_epochs = 0 reproduces a bare labeled-data loop built
        from the public loss and ``sgd_step``."""
        xl, yl = small_split.labeled_arrays()
        xu = small_split.unlabeled_features()
        cfg = quick_cfg(epochs=4, discrepancy_epochs=0, train_loss=train_loss)
        m1 = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        train_cycle(m1, xl, yl, xu, cfg, rng=np.random.default_rng(0))

        m2 = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        plain_epochs(m2, xl, yl, cfg, np.random.default_rng(0), range(cfg.epochs))
        assert state_bytes(m1) == state_bytes(m2)

    def test_discrepancy_phase_equals_plain_training(self, small_split):
        """The alternating agreement/disagreement epochs reproduce a bare
        loop over ``close_loss``/``dis_loss`` and ``sgd_step``."""
        xl, yl = small_split.labeled_arrays()
        xu = small_split.unlabeled_features()
        cfg = quick_cfg(epochs=2, discrepancy_epochs=4)
        m1 = init_model(xl.shape[1], 3, hidden_widths=(16, 16), seed=4)
        train_cycle(m1, xl, yl, xu, cfg, rng=np.random.default_rng(3))

        m2 = init_model(xl.shape[1], 3, hidden_widths=(16, 16), seed=4)
        rng = np.random.default_rng(3)
        plain_epochs(m2, xl, yl, cfg, rng, range(cfg.epochs))
        batch = min(cfg.batch_size, len(xu))
        for k in range(cfg.discrepancy_epochs):
            order = rng.permutation(len(xu))
            for s in range(0, len(xu), batch):
                idx = order[s : s + batch]
                if k % 2 == 0:
                    _, grads = close_loss(m2, xu[idx], tau1=cfg.tau1)
                    subset = "backbone"
                else:
                    _, grads = dis_loss(m2, xu[idx], tau2=cfg.tau2)
                    subset = "heads"
                sgd_step(m2, grads, cfg.epochs + k, cfg, trainable=subset)
        assert state_bytes(m1) == state_bytes(m2)

    def test_out_of_range_label_rejected_before_training(self, small_split):
        """Labels are checked once at entry: a bad label anywhere in the
        pool raises before any step has changed a parameter."""
        xl, yl = small_split.labeled_arrays()
        xu = small_split.unlabeled_features()
        bad = yl.copy()
        bad[-1] = 3
        m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        before = state_bytes(m)
        cfg = quick_cfg(epochs=2, batch_size=1, discrepancy_epochs=0)
        with pytest.raises(ValueError, match="known-class"):
            train_cycle(m, xl, bad, xu, cfg, rng=np.random.default_rng(0))
        assert state_bytes(m) == before

    def test_pool_of_wrong_dim_rejected_before_training(self, small_split):
        xl, yl = small_split.labeled_arrays()
        m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        before = state_bytes(m)
        with pytest.raises(ValueError, match="input dim"):
            train_cycle(m, xl, yl, np.zeros((10, xl.shape[1] + 1)), quick_cfg(epochs=2))
        assert state_bytes(m) == before

    def test_label_count_must_match_examples(self, small_split):
        xl, yl = small_split.labeled_arrays()
        m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        with pytest.raises(ValueError, match="length"):
            train_cycle(m, xl, yl[:-1], xl[:0], quick_cfg(epochs=1))

    @pytest.mark.parametrize("phase", ["close", "dis"])
    def test_nonfinite_discrepancy_gradient_stops_the_step(
        self, small_split, monkeypatch, phase
    ):
        """A non-finite gradient stops training at the update of the step
        that made it, naming an array of the subset that phase trains, before
        any parameter or velocity byte changes: a nan pool row in an
        agreement epoch (backbone), a nan tau2 weight in a disagreement
        epoch (heads)."""
        xl, yl = small_split.labeled_arrays()
        xu = small_split.unlabeled_features().copy()
        if phase == "close":
            xu[5, 0] = np.nan
            cfg = quick_cfg(epochs=2, discrepancy_epochs=2)
        else:
            cfg = quick_cfg(epochs=2, discrepancy_epochs=2, tau2=np.nan)
        m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=2)
        updates = []
        real = model_module.sgd_step

        def recorded(model, grads, epoch, cfg, trainable="all"):
            updates.append((epoch, trainable, state_bytes(model)))
            return real(model, grads, epoch, cfg, trainable)

        monkeypatch.setattr(model_module, "sgd_step", recorded)
        with pytest.raises(FloatingPointError, match="non-finite gradient") as raised:
            train_cycle(m, xl, yl, xu, cfg, rng=np.random.default_rng(0))
        index = int(str(raised.value).split("parameter ")[1].split()[0])
        epoch, trainable, before = updates[-1]
        if phase == "close":
            assert (epoch, trainable) == (cfg.epochs, "backbone")
            assert index < m.num_backbone_arrays
        else:
            assert (epoch, trainable) == (cfg.epochs + 1, "heads")
            assert index >= m.num_backbone_arrays
        assert state_bytes(m) == before

    def test_losses_stay_finite_and_nonnegative(self, small_split):
        xl, yl = small_split.labeled_arrays()
        xu = small_split.unlabeled_features()
        cfg = quick_cfg(epochs=8, discrepancy_epochs=4)
        m = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=1)
        train_cycle(m, xl, yl, xu, cfg, rng=np.random.default_rng(1))
        for loss_fn in (edl_loss, cross_entropy_loss):
            val, _ = loss_fn(m, xl, yl)
            assert np.isfinite(val) and val >= 0
        for loss_fn, kw in ((close_loss, {}), (dis_loss, {})):
            val, _ = loss_fn(m, xu[:64], **kw)
            assert np.isfinite(val) and val >= 0
        assert all(np.all(np.isfinite(p)) for p in flat(m))

    def _train_on_blobs(self, seed):
        spec = BlobSpec(
            num_known=3, num_unknown=3, dim=8, per_class=80, radius=5.0, seed=seed
        )
        split = make_blobs(spec, r=0.5)
        xl, yl = split.labeled_arrays()
        xu = split.unlabeled_features()
        cfg = TrainConfig(epochs=60, lr_milestones=(40,), seed=seed)
        m = init_model(xl.shape[1], 3, hidden_widths=(32, 32), seed=seed)
        train_cycle(m, xl, yl, xu, cfg, rng=np.random.default_rng(seed))
        a1, a2 = forward(m, xu)
        return a1, a2, split.unknown_unlabeled_mask()

    def test_expected_entropy_separates_unknown_classes(self):
        """After training on separable blobs, unknown-class examples carry
        higher expected entropy than known-class ones, over three seeds."""
        wins = 0
        for seed in range(3):
            a1, a2, unknown = self._train_on_blobs(seed)
            u = data_uncertainty(0.5 * (a1 + a2))
            wins += u[unknown].mean() > u[~unknown].mean()
        assert wins >= 2

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the evidence-space L2 between the heads scales with the label "
            "evidence exp(logit) of confidently predicted examples, so trained "
            "known classes dominate the score at this scale regardless of the "
            "alternating agreement/disagreement schedule; see the mean-ordering "
            "analysis in the acceptance notes"
        ),
    )
    def test_head_discrepancy_separates_unknown_classes(self):
        """Intended behavior: amplified head disagreement should mark
        unknown-class examples with a larger evidence distance."""
        wins = 0
        for seed in range(3):
            a1, a2, unknown = self._train_on_blobs(seed)
            d = discrepancy_score(a1, a2)
            wins += d[unknown].mean() > d[~unknown].mean()
        assert wins >= 2


class TestTrainStepReference:
    """``train_cycle`` against the step written out array by array in
    ``tests/helpers.py`` (per-head backward into fresh gradient lists, the
    term-by-term trigamma, a concatenating update), bit for bit.  The
    loops above share the library's internals with ``train_cycle``, so
    they cannot see a rounding change common to both."""

    @pytest.mark.parametrize("widths", [(16,), (64, 64)])
    @pytest.mark.parametrize("classes", [2, 4, 10])
    @pytest.mark.parametrize("discrepancy_epochs", [0, 4])
    @pytest.mark.parametrize("train_loss", ["edl", "cross_entropy"])
    def test_parameter_and_velocity_bytes(
        self, train_loss, discrepancy_epochs, classes, widths
    ):
        rng = np.random.default_rng(classes * 100 + len(widths))
        # 75 and 70 rows in batches of 32: every epoch ends on a ragged batch
        xl = rng.normal(0.0, 8.0, size=(75, 12))
        yl = rng.integers(0, classes, size=75)
        xu = rng.normal(0.0, 8.0, size=(70, 12))
        cfg = TrainConfig(
            epochs=3, lr_milestones=(2,), batch_size=32, seed=0, train_loss=train_loss,
            discrepancy_epochs=discrepancy_epochs,
        )
        models = [
            init_model(12, classes, hidden_widths=widths, seed=9, head_init_scale=3.0)
            for _ in range(2)
        ]
        z = reference_forward(models[0], xl)[1]
        assert (z > LOGIT_CLIP).any() and (z < -LOGIT_CLIP).any()
        train_cycle(models[0], xl, yl, xu, cfg, rng=np.random.default_rng(1))
        reference_train_cycle(models[1], xl, yl, xu, cfg, np.random.default_rng(1))
        assert np.isfinite(models[0].param_buffer).all()
        assert state_bytes(models[0]) == state_bytes(models[1])

    @pytest.mark.parametrize("train_loss", ["edl", "cross_entropy"])
    def test_one_row_tail_batches(self, train_loss):
        """65 labeled and 33 unlabeled rows in batches of 32: every epoch
        of both phases ends on a one-row batch."""
        rng = np.random.default_rng(65)
        xl = rng.normal(0.0, 8.0, size=(65, 12))
        yl = rng.integers(0, 4, size=65)
        xu = rng.normal(0.0, 8.0, size=(33, 12))
        cfg = TrainConfig(
            epochs=3, lr_milestones=(2,), batch_size=32, seed=0, train_loss=train_loss,
            discrepancy_epochs=4,
        )
        models = [
            init_model(12, 4, hidden_widths=(64, 64), seed=9, head_init_scale=3.0)
            for _ in range(2)
        ]
        train_cycle(models[0], xl, yl, xu, cfg, rng=np.random.default_rng(1))
        reference_train_cycle(models[1], xl, yl, xu, cfg, np.random.default_rng(1))
        assert np.isfinite(models[0].param_buffer).all()
        assert state_bytes(models[0]) == state_bytes(models[1])

    def test_no_logit_clipped(self, monkeypatch):
        """A run in which no step's logit reaches +-LOGIT_CLIP, so every
        clip mask is all true."""
        rng = np.random.default_rng(7)
        xl = rng.normal(0.0, 1.0, size=(75, 12))
        yl = rng.integers(0, 4, size=75)
        xu = rng.normal(0.0, 1.0, size=(70, 12))
        cfg = TrainConfig(
            epochs=3, lr_milestones=(2,), batch_size=32, seed=0, discrepancy_epochs=4
        )
        models = [init_model(12, 4, hidden_widths=(16,), seed=9) for _ in range(2)]
        largest = []
        real = model_module._forward_cached

        def recorded(*args, **kwargs):
            out = real(*args, **kwargs)
            largest.append(np.abs(out[1]).max())
            return out

        monkeypatch.setattr(model_module, "_forward_cached", recorded)
        train_cycle(models[0], xl, yl, xu, cfg, rng=np.random.default_rng(1))
        monkeypatch.undo()
        reference_train_cycle(models[1], xl, yl, xu, cfg, np.random.default_rng(1))
        assert len(largest) == 3 * 3 + 4 * 3 and max(largest) < LOGIT_CLIP
        assert state_bytes(models[0]) == state_bytes(models[1])


class TestStepOverhead:
    """The per-step Python glue, counted rather than timed: ``sys.setprofile``
    sees every Python function call ("call") and builtin call ("c_call")
    and the count repeats exactly, so a change that adds per-step overhead
    fails here without a timer."""

    # Python and builtin calls of the mini-cycle below on numpy 2.4 and
    # Python 3.11; the step before this budget read 946 and 695
    CALLS = 368
    C_CALLS = 366

    def test_call_budget_of_a_mini_cycle(self):
        """200 labeled rows at batch 128 for 10 epochs, then 2 discrepancy
        epochs over 128 pool rows: 22 steps at the desk shapes."""
        rng = np.random.default_rng(0)
        xl = rng.normal(size=(200, 16))
        yl = rng.integers(0, 4, size=200)
        xu = rng.normal(size=(128, 16))
        cfg = TrainConfig(epochs=10, lr_milestones=(6,), discrepancy_epochs=2)
        counts = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event in counts:
                counts[event] += 1

        for run in range(2):  # the first run may take one-time paths
            counts.update(call=0, c_call=0)
            m = init_model(16, 4, seed=0)
            sys.setprofile(profile)
            try:
                train_cycle(m, xl, yl, xu, cfg, rng=np.random.default_rng(0))
            finally:
                sys.setprofile(None)
        # the builtin count includes the setprofile(None) call itself
        calls, c_calls = counts["call"], counts["c_call"] - 1
        assert calls <= self.CALLS and c_calls <= self.C_CALLS, (calls, c_calls)

    def test_step_cost_tool_runs_every_step_kind(self):
        """``tools/step_cost.py`` looks the gradient helpers and
        ``grad_views`` up by name, so a rename would break it without a
        failing import; each of its step kinds must run and be counted."""
        tool = load_repo_file("tools", "step_cost")
        params = init_model(16, 4, hidden_widths=(64, 64), seed=0, head_init_scale=1.0)
        steps = tool.step_fns(params, TrainConfig(), 1)
        assert sorted(steps) == ["CE", "EDL", "close", "dis"]
        for kind, step in steps.items():
            calls, c_calls = tool.count_calls(step)
            assert calls > 0 and c_calls > 0, kind


class TestModelParams:
    def test_arrays_are_views_on_the_buffers(self):
        m = tiny_model()
        assert np.concatenate([p.ravel() for p in flat(m)]).tobytes() == (
            m.param_buffer.tobytes()
        )
        assert all(np.shares_memory(p, m.param_buffer) for p in flat(m))
        assert all(np.shares_memory(v, m.velocity_buffer) for v in m.velocity)
        assert [v.shape for v in m.velocity] == [p.shape for p in flat(m)]

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))]
    )
    def test_copies_get_their_own_buffers(self, clone):
        """A copy's update reaches its own views and leaves the original."""
        m = tiny_model()
        before = state_bytes(m)
        c = clone(m)
        sgd_step(c, [np.ones_like(p) for p in flat(c)], 0, TrainConfig())
        assert state_bytes(m) == before
        assert np.concatenate([p.ravel() for p in flat(c)]).tobytes() == (
            c.param_buffer.tobytes()
        )
        assert state_bytes(c) != before

    def test_velocity_must_mirror_parameters(self):
        m = tiny_model()
        with pytest.raises(ValueError, match="mirror"):
            ModelParams(backbone=m.backbone, heads=m.heads, velocity=[np.zeros(3)])


class TestCheckpoint:
    def test_resume_matches_uninterrupted_training(self, tmp_path, small_split):
        """k epochs, save, load, continue: the same parameter and velocity
        bytes as training straight through, across an lr milestone."""
        xl, yl = small_split.labeled_arrays()
        cfg = quick_cfg(epochs=6, lr_milestones=(4,))
        m1 = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=8)
        plain_epochs(m1, xl, yl, cfg, np.random.default_rng(5), range(cfg.epochs))

        m2 = init_model(xl.shape[1], 3, hidden_widths=(16,), seed=8)
        rng = np.random.default_rng(5)
        plain_epochs(m2, xl, yl, cfg, rng, range(3))
        save_checkpoint(tmp_path / "mid.npz", m2, epoch=3, rng=rng)
        m3, epoch, rng3 = load_checkpoint(tmp_path / "mid.npz")
        plain_epochs(m3, xl, yl, cfg, rng3, range(epoch, cfg.epochs))
        assert state_bytes(m3) == state_bytes(m1)

    def test_roundtrip_bitwise(self, tmp_path):
        m = tiny_model(seed=21)
        m.velocity[0][:] = 0.25
        rng = np.random.default_rng(17)
        rng.normal(size=5)
        path = tmp_path / "model.npz"
        save_checkpoint(path, m, epoch=42, rng=rng)
        loaded, epoch, rng2 = load_checkpoint(path)
        assert epoch == 42
        for p, q in zip(flat(m), flat(loaded)):
            assert p.tobytes() == q.tobytes()
        for v, w in zip(m.velocity, loaded.velocity):
            assert v.tobytes() == w.tobytes()
        np.testing.assert_array_equal(rng.normal(size=8), rng2.normal(size=8))

    def test_path_without_suffix_is_written_as_given(self, tmp_path):
        m = tiny_model(seed=23)
        path = tmp_path / "ckpt"
        save_checkpoint(path, m, epoch=5)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        loaded, epoch, _ = load_checkpoint(path)
        assert epoch == 5
        for p, q in zip(flat(m), flat(loaded)):
            assert p.tobytes() == q.tobytes()

    def test_roundtrip_without_rng(self, tmp_path):
        m = tiny_model(seed=22)
        path = tmp_path / "model.npz"
        save_checkpoint(path, m)
        loaded, epoch, rng = load_checkpoint(path)
        assert epoch == 0 and rng is None
        assert isinstance(loaded, ModelParams)
