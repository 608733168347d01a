"""Fast self-check suite: closed-form identities, special-function
recurrences, gradient spot checks on a tiny network, and the numeric
kernels whose results depend on the machine (the trigamma kernel, the
buffered training step, the averaged probabilities and pool scores
streamed through the pool pass's row blocks, and the EM fit's
independence of the pool's order).

Each check returns (name, passed, detail) so the CLI can print one line
per property.  The whole suite runs in a few seconds.  Checks call the
library through module attributes (``evidential.data_uncertainty`` and
friends), so fault-injection tests can monkeypatch a single operation and
watch the right property fail.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from . import evidential, model, selection

__all__ = ["run_checks", "CHECK_NAMES"]


def _random_alphas(rng, count, classes):
    out = []
    for _ in range(count):
        c = rng.choice(classes)
        out.append(np.exp(rng.uniform(-6, 6, size=c)))
    return out


def _check_decomposition(rng):
    # distribution_uncertainty shares data_uncertainty's expected-entropy
    # term, so the identity holds even when that term is wrong; data_uncertainty
    # is also held against psi(S + 1) - sum_c p_c psi(alpha_c + 1), its
    # closed form rearranged with sum_c p_c = 1
    worst = 0.0
    for alpha in _random_alphas(rng, 200, [2, 3, 10]):
        p = alpha / alpha.sum()
        u_data = evidential.data_uncertainty(alpha)
        direct = special.digamma(alpha.sum() + 1.0) - p @ special.digamma(alpha + 1.0)
        total = u_data + evidential.distribution_uncertainty(alpha)
        target = evidential.entropy(evidential.expected_probs(alpha))
        worst = max(worst, abs(u_data - direct), abs(total - target))
    return worst < 1e-9, f"max |u_data - psi form|, |u_data + u_dist - H| = {worst:.3e}"


def _check_digamma(rng):
    x = np.logspace(-2, 4, 400)
    err = np.max(np.abs(special.digamma(x + 1) - (special.digamma(x) + 1 / x)))
    return err < 1e-10, f"max recurrence error = {err:.3e}"


def _check_log_gamma(rng):
    x = np.logspace(-2, 4, 400)
    err = np.max(np.abs(special.gammaln(x + 1) - (special.gammaln(x) + np.log(x))))
    return err < 1e-10, f"max recurrence error = {err:.3e}"


def _check_jsd(rng):
    ok = True
    worst = 0.0
    for _ in range(50):
        c = rng.choice([2, 3, 5])
        p = rng.dirichlet(np.ones(c))
        q = rng.dirichlet(np.ones(c))
        d = evidential.jsd(p, q)
        ok &= abs(d - evidential.jsd(q, p)) < 1e-12
        ok &= -1e-12 <= d <= 1 + 1e-12
        worst = max(worst, abs(evidential.jsd(p, p)))
    edge = abs(evidential.jsd([1.0, 0.0], [0.0, 1.0]) - 1.0)
    ok &= worst < 1e-12 and edge < 1e-12
    return bool(ok), f"self-jsd max = {worst:.1e}, disjoint gap = {edge:.1e}"


def _check_kl(rng):
    ok = abs(evidential.kl_dirichlet_to_uniform(np.ones(5))) < 1e-12
    vals = [
        evidential.kl_dirichlet_to_uniform(a) for a in _random_alphas(rng, 50, [2, 4])
    ]
    ok &= all(v >= -1e-10 for v in vals)
    return bool(ok), f"min KL = {min(vals):.3e}"


def _check_gradients(rng):
    """Spot-check each public loss's gradient against central differences.

    ``close_loss`` and ``dis_loss`` run with frozen weights and are checked
    on the parameters they train (backbone and heads respectively)."""
    m = model.init_model(
        4, 3, hidden_widths=(6,), seed=int(rng.integers(1 << 31)), head_init_scale=1.0
    )
    x = rng.normal(size=(3, 4))
    y = rng.integers(0, 3, size=3)
    alphas = model.forward(m, x)
    w_close = model.close_weights(alphas, tau1=0.5)
    w_dis = model.dis_weights(alphas, tau2=0.2)
    nb = m.num_backbone_arrays
    losses = {
        "edl": (lambda: model.edl_loss(m, x, y), slice(None)),
        "cross_entropy": (lambda: model.cross_entropy_loss(m, x, y), slice(None)),
        "close": (lambda: model.close_loss(m, x, weights=w_close), slice(nb)),
        "dis": (lambda: model.dis_loss(m, x, weights=w_dis), slice(nb, None)),
    }
    h = 1e-5
    worst = {}
    for name, (loss, part) in losses.items():
        _, grads = loss()
        worst[name] = 0.0
        # spot-check a handful of coordinates per array
        for arr, g in zip(m.flat_params()[part], grads[part]):
            flat = arr.reshape(-1)
            gflat = g.reshape(-1)
            for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                fp, _ = loss()
                flat[idx] = orig - h
                fm, _ = loss()
                flat[idx] = orig
                num = (fp - fm) / (2 * h)
                denom = max(abs(num), abs(gflat[idx]), 1e-6)
                worst[name] = max(worst[name], abs(num - gflat[idx]) / denom)
    detail = ", ".join(f"{name} {err:.3e}" for name, err in worst.items())
    return max(worst.values()) < 1e-4, f"max relative gradient error: {detail}"


def _check_trigamma(rng):
    """The EDL step's trigamma kernel against ``scipy.special.zeta(2, .)``
    over the arguments it sees: evidence down to e^-10 and row sums up to
    1 + 99 e^10 (100 classes)."""
    x = np.exp(np.linspace(-10.0, np.log1p(99.0 * np.exp(10.0)), 4001))
    ref = special.zeta(2, x)
    err = np.max(np.abs(model._trigamma(x.copy()) - ref) / ref)
    return err < 2e-15, f"max relative error vs zeta(2, x) = {err:.3e}"


def _public_loss_epochs(m, xl, yl, xu, cfg, rng):
    """``train_cycle`` written as a loop over the public losses and
    ``sgd_step``, each step with a fresh gradient list."""
    loss_fn = model.edl_loss if cfg.train_loss == "edl" else model.cross_entropy_loss
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(xl))
        for lo in range(0, len(xl), cfg.batch_size):
            idx = order[lo : lo + cfg.batch_size]
            model.sgd_step(m, loss_fn(m, xl[idx], yl[idx])[1], epoch, cfg)
    for k in range(cfg.discrepancy_epochs):
        if k % 2 == 0:
            loss_fn, tau, trainable = model.close_loss, cfg.tau1, "backbone"
        else:
            loss_fn, tau, trainable = model.dis_loss, cfg.tau2, "heads"
        order = rng.permutation(len(xu))
        for lo in range(0, len(xu), cfg.batch_size):
            grads = loss_fn(m, xu[order[lo : lo + cfg.batch_size]], tau)[1]
            model.sgd_step(m, grads, cfg.epochs + k, cfg, trainable=trainable)


def _check_training_step(rng):
    """``train_cycle`` runs every step through the model's gradient
    buffer; its parameters and momentum must equal, bit for bit, a loop
    over the public losses, which return fresh gradients.  Two epochs of
    edl with two discrepancy epochs, and two of cross_entropy, on a
    10-class toy whose logits pass the clip and whose batches are
    ragged."""
    seed = int(rng.integers(1 << 31))
    xl = rng.normal(0.0, 8.0, size=(45, 6))
    yl = rng.integers(0, 10, size=45)
    xu = rng.normal(0.0, 8.0, size=(40, 6))
    differ, total = 0, 0
    for train_loss, discrepancy_epochs in (("edl", 2), ("cross_entropy", 0)):
        cfg = model.TrainConfig(
            epochs=2, lr_milestones=(1,), batch_size=16, train_loss=train_loss,
            discrepancy_epochs=discrepancy_epochs,
        )
        buffered, public = (
            model.init_model(6, 10, hidden_widths=(8,), seed=seed, head_init_scale=3.0)
            for _ in range(2)
        )
        model.train_cycle(buffered, xl, yl, xu, cfg, rng=np.random.default_rng(seed))
        _public_loss_epochs(public, xl, yl, xu, cfg, np.random.default_rng(seed))
        for a, b in zip(
            buffered.flat_params() + buffered.velocity, public.flat_params() + public.velocity
        ):
            differ += a.tobytes() != b.tobytes()
            total += 1
    return differ == 0, f"{differ} of {total} parameter and velocity arrays differ"


def _two_worker_pass(rng, pass_fn):
    """``pass_fn`` on two workers over the shuffled rows of a pool of 2B
    + 100 rows (B = 4,096), which the pool pass splits into two blocks,
    the pool's ``_forward_cached`` evidence, and the pass's block and
    worker counts.  A partition with a short tail rounds the tail through
    another BLAS kernel."""
    m = model.init_model(32, 10, seed=int(rng.integers(1 << 31)), head_init_scale=3.0)
    n = 2 * selection._forward_block_rows(m) + 100
    x = rng.normal(0.0, 8.0, size=(n + 99, 32))
    rows = rng.permutation(len(x))[:n]
    blocks = len(selection._row_blocks(m, n))
    saved, selection._workers = selection._workers, 2
    try:
        got = pass_fn(m, x, rows=rows)
        workers = selection._pool_width(blocks)
    finally:
        selection._workers = saved
    return got, model._forward_cached(m, x[rows])[2], (blocks, workers)


def _same_rows(got, expected, partition):
    """(passed, detail) of comparing ``got`` with ``expected`` row by row,
    computed in ``partition``'s (blocks, workers)."""
    differ = np.zeros(len(got[0]), dtype=bool)
    for a, b in zip(got, expected):
        differ |= (a.view(np.int64) != b.view(np.int64)).reshape(len(a), -1).any(axis=1)
    blocks, workers = partition
    detail = (
        f"{differ.sum()} of {len(differ)} rows differ in {blocks} row blocks "
        f"on {workers} workers"
    )
    return not differ.any(), detail


def _check_blocked_forward(rng):
    """``averaged_probs`` runs a pool's row blocks through ``forward``;
    each block must keep the one-pass BLAS kernel, so the result is the
    closed form on the training forward's evidence, bit for bit."""
    got, (a1, a2), partition = _two_worker_pass(rng, selection.averaged_probs)
    expected = 0.5 * (evidential.expected_probs(a1) + evidential.expected_probs(a2))
    return _same_rows([got], [expected], partition)


def _check_streamed_scores(rng):
    """``score_pool`` scores a pool block by block; each score must be the
    evidential closed form on the pool, bit for bit.  Both call the same
    kernels, so this guards the row partition."""
    got, (a1, a2), partition = _two_worker_pass(rng, selection.score_pool)
    avg = 0.5 * (a1 + a2)
    expected = (
        np.maximum(evidential.data_uncertainty(avg), 0.0),
        np.maximum(evidential.distribution_uncertainty(avg), 0.0),
        evidential.discrepancy_score(a1, a2),
    )
    return _same_rows(got, expected, partition)


def _check_order_free_em(rng):
    """``gmm_fit`` fits the sorted scores, so a pool and its reverse must
    give the same fit and posterior, bit for bit.  A shuffled two-mode
    pool of 2B + 101 points (B = 4,096), with a heavy tail; the reverse
    moves every point but the middle one."""
    n = 2 * selection.FORWARD_MIN_BLOCK + 101
    k = int(rng.integers(n // 4, 3 * n // 4))
    x = np.concatenate([rng.normal(0.0, 0.3, k), np.exp(rng.normal(1.0, 1.0, n - k))])
    x = rng.permutation(x)
    fields = ("means", "variances", "weights", "log_likelihoods")
    fits = []
    for pool in (x, x[::-1]):
        fit = selection.gmm_fit(pool)
        got = {name: np.asarray(getattr(fit, name)).tobytes() for name in fields}
        got["posterior"] = selection.gmm_posterior_low(fit, x).tobytes()
        fits.append(got)
    differ = ", ".join(name for name in fits[0] if fits[0][name] != fits[1][name])
    detail = (
        f"{len(fit.log_likelihoods)} EM iterations on {n} points and their reverse; "
        f"differ: {differ or 'none'}"
    )
    return not differ, detail


CHECKS = {
    "decomposition_identity": _check_decomposition,
    "digamma_recurrence": _check_digamma,
    "log_gamma_recurrence": _check_log_gamma,
    "jsd_properties": _check_jsd,
    "kl_to_uniform": _check_kl,
    "gradient_spot_check": _check_gradients,
    "trigamma_kernel": _check_trigamma,
    "training_step_bitwise": _check_training_step,
    "blocked_forward_bitwise": _check_blocked_forward,
    "streamed_scores_bitwise": _check_streamed_scores,
    "order_free_em_bitwise": _check_order_free_em,
}
CHECK_NAMES = tuple(CHECKS)


def run_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every invariant check; returns (name, passed, detail) rows."""
    rng = np.random.default_rng(seed)
    results = []
    for name, check in CHECKS.items():
        try:
            passed, detail = check(rng)
        except Exception as exc:  # a crash counts as a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
