"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Expected values were computed with independent oracles: a
high-precision special-function reference for the worked logit example,
Monte-Carlo sampling for the uncertainty formulas, central finite
differences for gradients, and brute-force bookkeeping for the harness.

One clause is marked as an expected failure rather than weakened: see
``test_criterion_4_expected_entropy_clause``.
"""

import hashlib
import math
import time

import numpy as np
import pytest
from helpers import count_started_threads, finite_difference_grads, load_perfbench, max_rel_err

from openset_al import selection
from openset_al.datasets import BlobSpec, make_blobs
from openset_al.evidential import (
    data_uncertainty,
    distribution_uncertainty,
    entropy,
    evidence_from_logits,
    expected_probs,
)
from openset_al.harness import run_experiment, write_metrics_csv
from openset_al.model import (
    TrainConfig,
    close_loss,
    dis_loss,
    discrepancy_weights,
    edl_loss,
    forward,
    init_model,
)
from openset_al.selection import gmm_fit

BENCH_DATA = dict(num_known=4, num_unknown=4, dim=16, per_class=250)
BENCH_R = 0.5
BENCH_SEEDS = (0, 1, 2)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_decomposition_identity():
    """u_data + u_dist equals the entropy of the expected probabilities
    for 1000 random evidence vectors with log-uniform components."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for c in (2, 3, 10, 100):
        alpha = np.exp(rng.uniform(-10.0, 10.0, size=(250, c)))
        total = data_uncertainty(alpha) + distribution_uncertainty(alpha)
        target = entropy(expected_probs(alpha))
        worst = max(worst, float(np.max(np.abs(total - target))))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-9 and elapsed < 1.0,
        f"max identity error {worst:.2e} over 1000 vectors in {elapsed:.2f}s",
    )


def test_criterion_2_monte_carlo_oracle():
    """Sampling 1e5 Dirichlet draws reproduces the closed-form expected
    entropy and mutual information within 3 standard errors, 20 times."""
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    worst_z = 0.0
    for _ in range(20):
        c = rng.choice([2, 3, 10])
        alpha = np.exp(rng.uniform(-1.5, 2.5, size=c))
        samples = rng.dirichlet(alpha, size=100_000)
        h = entropy(samples)
        se = h.std(ddof=1) / math.sqrt(len(h))
        z_data = abs(data_uncertainty(alpha) - h.mean()) / se
        mc_mi = entropy(samples.mean(axis=0)) - h.mean()
        z_dist = abs(distribution_uncertainty(alpha) - mc_mi) / se
        worst_z = max(worst_z, z_data, z_dist)
    elapsed = time.perf_counter() - start
    report(
        2,
        worst_z < 3.0 and elapsed < 30.0,
        f"worst |z| = {worst_z:.2f} over 20 alphas (40 checks) in {elapsed:.1f}s",
    )


def test_criterion_3_gradient_verification():
    """Analytic gradients of all three losses on a width-8 two-hidden-layer
    network (C=3, batch 4) match central finite differences everywhere."""
    start = time.perf_counter()
    model = init_model(5, 3, hidden_widths=(8, 8), seed=33, head_init_scale=1.0)
    rng = np.random.default_rng(34)
    x = rng.normal(size=(4, 5))
    y = rng.integers(0, 3, size=4)
    params = model.flat_params()
    nb = model.num_backbone_arrays
    errors = {}

    _, grads = edl_loss(model, x, y)
    numeric = finite_difference_grads(lambda: edl_loss(model, x, y)[0], params)
    errors["edl"] = max_rel_err(grads, numeric)

    w_close = discrepancy_weights(forward(model, x), 0.5, "backbone")
    _, grads = close_loss(model, x, weights=w_close)
    numeric = finite_difference_grads(
        lambda: close_loss(model, x, weights=w_close)[0], params[:nb]
    )
    errors["close"] = max_rel_err(grads[:nb], numeric)
    assert all(np.all(g == 0) for g in grads[nb:])

    w_dis = discrepancy_weights(forward(model, x), 0.2, "heads")
    _, grads = dis_loss(model, x, weights=w_dis)
    numeric = finite_difference_grads(
        lambda: dis_loss(model, x, weights=w_dis)[0], params[nb:]
    )
    errors["dis"] = max_rel_err(grads[nb:], numeric)
    assert all(np.all(g == 0) for g in grads[:nb])

    worst = max(errors.values())
    elapsed = time.perf_counter() - start
    report(
        3,
        worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e} ({errors}) in {elapsed:.1f}s",
    )


# Two logit vectors with nearly identical softmax outputs but a 2x
# evidence gap; reference values frozen from a 40-digit independent
# computation of exp and its normalization.
LOGITS_A = np.array([1.3, 2.3, 1.3])
LOGITS_B = np.array([0.7, 1.6, 0.53])
PROBS_A = np.array([0.211941557617, 0.576116884766, 0.211941557617])
PROBS_B = np.array([0.232381533474, 0.571566342708, 0.196052123819])


def test_criterion_4_matched_probabilities_distinct_evidence():
    """The two worked logit vectors produce top-class probabilities that
    agree within 0.01 while total evidence differs by more than 1.9x, and
    the low-evidence vector carries the larger mutual information."""
    a = evidence_from_logits(LOGITS_A)
    b = evidence_from_logits(LOGITS_B)
    np.testing.assert_allclose(expected_probs(a), PROBS_A, atol=1e-9)
    np.testing.assert_allclose(expected_probs(b), PROBS_B, atol=1e-9)
    prob_gap = abs(expected_probs(a)[1] - expected_probs(b)[1])
    ratio = a.sum() / b.sum()
    mi_contrast = distribution_uncertainty(b) > distribution_uncertainty(a)
    report(
        4,
        prob_gap < 0.01 and ratio > 1.9 and mi_contrast,
        f"middle-prob gap {prob_gap:.4f} < 0.01, evidence ratio {ratio:.3f} > 1.9, "
        f"mutual information {distribution_uncertainty(b):.4f} (low evidence) > "
        f"{distribution_uncertainty(a):.4f} (high evidence); the expected-entropy "
        f"ordering is the reverse (see the xfailed clause)",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "expected entropy == entropy of the mean minus the mutual information, "
        "and both vectors share (nearly) the same mean probabilities, so the "
        "LOW-evidence vector necessarily has the SMALLER expected entropy "
        "(0.8739 vs 0.9204); the stated ordering contradicts the closed form. "
        "The evidence-level contrast lives in the mutual information, asserted "
        "in the test above."
    ),
)
def test_criterion_4_expected_entropy_clause():
    """Stated clause: the low-evidence vector should have the larger
    expected entropy.  Kept verbatim rather than weakened."""
    a = evidence_from_logits(LOGITS_A)
    b = evidence_from_logits(LOGITS_B)
    assert data_uncertainty(b) > data_uncertainty(a)


def _bench_split(seed):
    spec = BlobSpec(seed=seed, **BENCH_DATA)
    return make_blobs(spec, r=BENCH_R, init_labeled_fraction=0.05, test_fraction=0.2)


def _bench_cfg(seed, **kw):
    return TrainConfig(query_size=60, num_cycles=5, seed=seed, **kw)


# variant name -> (strategy, TrainConfig overrides)
BENCH_VARIANTS = {
    "coarse_to_fine": ("coarse_to_fine", {}),
    "random": ("random", {}),
    "entropy": ("entropy", {}),
    "no_discrepancy": ("coarse_to_fine", dict(use_discrepancy=False)),
    "cross_entropy": ("coarse_to_fine", dict(train_loss="cross_entropy")),
}


@pytest.fixture(scope="module")
def benchmark_runs():
    """Shared grid for criteria 5, 6 and 8 and the golden bytes: five
    variants x three seeds on the standard desk-scale blob benchmark."""
    out = {}
    timings = {}
    for name, (strategy, kw) in BENCH_VARIANTS.items():
        t0 = time.perf_counter()
        out[name] = [
            run_experiment(_bench_split(seed), _bench_cfg(seed, **kw), strategy)
            for seed in BENCH_SEEDS
        ]
        timings[name] = time.perf_counter() - t0
    out["_timings"] = timings
    return out


def _mean_precision(runs):
    per_seed = [
        np.mean([m.query_precision for m in metrics if m.query_precision is not None])
        for metrics in runs
    ]
    return float(np.mean(per_seed))


def _final_accuracies(runs):
    return np.array([metrics[-1].test_accuracy for metrics in runs])


def test_criterion_5_desk_scale_end_to_end(benchmark_runs):
    """Coarse-to-fine beats random query precision by at least 15 points
    and matches or beats the entropy baseline's final accuracy."""
    prec_ctf = _mean_precision(benchmark_runs["coarse_to_fine"])
    prec_rand = _mean_precision(benchmark_runs["random"])
    acc_ctf = _final_accuracies(benchmark_runs["coarse_to_fine"]).mean()
    acc_ent = _final_accuracies(benchmark_runs["entropy"]).mean()
    elapsed = sum(
        benchmark_runs["_timings"][k] for k in ("coarse_to_fine", "random", "entropy")
    )
    gap = (prec_ctf - prec_rand) * 100
    report(
        5,
        gap >= 15.0 and acc_ctf >= acc_ent and elapsed < 300.0,
        f"precision {prec_ctf:.3f} vs random {prec_rand:.3f} (gap {gap:.1f} pts), "
        f"final accuracy {acc_ctf:.3f} vs entropy {acc_ent:.3f}, {elapsed:.0f}s",
    )


def test_criterion_6_ablation_ordering(benchmark_runs):
    """Full method >= no-discrepancy variant >= cross-entropy variant on
    final accuracy, with ties allowed within one standard deviation."""
    accs = {
        name: _final_accuracies(benchmark_runs[name])
        for name in ("coarse_to_fine", "no_discrepancy", "cross_entropy")
    }
    means = {k: v.mean() for k, v in accs.items()}
    stds = {k: v.std() for k, v in accs.items()}
    slack_a = max(stds["coarse_to_fine"], stds["no_discrepancy"])
    slack_b = max(stds["no_discrepancy"], stds["cross_entropy"])
    ok = (
        means["coarse_to_fine"] >= means["no_discrepancy"] - slack_a
        and means["no_discrepancy"] >= means["cross_entropy"] - slack_b
    )
    report(
        6,
        ok,
        "final accuracy full={:.3f}+-{:.3f}, no-discrepancy={:.3f}+-{:.3f}, "
        "cross-entropy={:.3f}+-{:.3f}".format(
            means["coarse_to_fine"],
            stds["coarse_to_fine"],
            means["no_discrepancy"],
            stds["no_discrepancy"],
            means["cross_entropy"],
            stds["cross_entropy"],
        ),
    )


def test_criterion_7_gmm_recovery():
    """1-D EM recovers the means of 0.5 N(0, 0.01) + 0.5 N(5, 0.01) from
    500 samples within 0.05, with a monotone log-likelihood trace."""
    rng = np.random.default_rng(707)
    data = np.concatenate([rng.normal(0.0, 0.1, 250), rng.normal(5.0, 0.1, 250)])
    model = gmm_fit(data)
    means = np.sort(model.means)
    ll = np.array(model.log_likelihoods)
    monotone = bool(np.all(np.diff(ll) >= -1e-12))
    ok = abs(means[0]) < 0.05 and abs(means[1] - 5.0) < 0.05 and monotone
    report(
        7,
        ok,
        f"recovered means ({means[0]:+.4f}, {means[1]:.4f}), "
        f"log-likelihood monotone over {len(ll)} iterations: {monotone}",
    )


def test_criterion_8_determinism_and_accounting(benchmark_runs, tmp_path):
    """Identical seeds give byte-identical metric CSVs; example counts are
    conserved and the labeled pool stays pure at every cycle (purity is
    revalidated inside the harness after every oracle call)."""
    conserved = True
    for name in ("coarse_to_fine", "random", "entropy"):
        for metrics in benchmark_runs[name]:
            totals = {
                m.labeled_size + m.unlabeled_size + m.discarded_unknown
                for m in metrics
            }
            conserved &= len(totals) == 1

    seed = BENCH_SEEDS[0]
    rerun = run_experiment(_bench_split(seed), _bench_cfg(seed), "coarse_to_fine")
    identical_objects = rerun == benchmark_runs["coarse_to_fine"][0]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics_csv(p1, benchmark_runs["coarse_to_fine"][0], "coarse_to_fine", seed, BENCH_R)
    write_metrics_csv(p2, rerun, "coarse_to_fine", seed, BENCH_R)
    byte_identical = p1.read_bytes() == p2.read_bytes()
    report(
        8,
        conserved and identical_objects and byte_identical,
        f"counts conserved: {conserved}, rerun metrics equal: {identical_objects}, "
        f"CSV byte-identical: {byte_identical}",
    )


@pytest.mark.parametrize("variant", sorted(BENCH_VARIANTS))
def test_golden_metrics_bytes(benchmark_runs, variant, tmp_path):
    """Every seed's metrics CSV of each benchmark variant keeps the bytes
    whose sha256 perfbench records as ``desk/<variant>/s<seed>``.  The
    variants between them exercise all four losses and the coarse-to-fine
    selector, so a refactor of any of them that changes a single bit fails
    here."""
    golden = load_perfbench("workloads").load_golden()
    strategy = BENCH_VARIANTS[variant][0]
    digests, expected = {}, {}
    for seed, metrics in zip(BENCH_SEEDS, benchmark_runs[variant]):
        path = tmp_path / f"{variant}_s{seed}.csv"
        write_metrics_csv(path, metrics, strategy, seed, BENCH_R)
        digests[seed] = hashlib.sha256(path.read_bytes()).hexdigest()
        expected[seed] = golden[f"desk/{variant}/s{seed}"]
    assert digests == expected


def test_wide_pool_golden_bytes_on_two_workers(monkeypatch, tmp_path):
    """The seed-0 wide_pool cells of perfbench keep their golden bytes on
    two workers: their pools are eleven row blocks, which the pool passes
    run on a helper thread beside the caller, as on a 2-CPU machine."""
    workloads = load_perfbench("workloads")
    wide = workloads.WORKLOADS["wide_pool"]
    split = make_blobs(
        BlobSpec(seed=0, **wide.data), wide.r, init_labeled_fraction=wide.init_labeled_fraction
    )
    golden = workloads.load_golden()
    monkeypatch.setattr(selection, "_workers", 2)
    started = count_started_threads(monkeypatch)
    cells = [(variant, 0) for variant in wide.variants]
    results = workloads.run_api_pass(wide, {0: split}, cells, tmp_path, golden)
    assert [r.key for r in results] == ["wide/coarse_to_fine/s0", "wide/entropy/s0"]
    assert all(r.key in golden for r in results)
    assert [r.error for r in results if not r.ok] == []
    assert started
