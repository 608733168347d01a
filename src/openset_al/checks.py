"""Fast self-check suite: closed-form identities, special-function
recurrences, and gradient spot checks on a tiny network.

Each check returns (name, passed, detail) so the CLI can print one line
per property.  The whole suite runs in a few seconds.  Checks call the
library through module attributes (``evidential.data_uncertainty`` and
friends), so fault-injection tests can monkeypatch a single operation and
watch the right property fail.
"""

from __future__ import annotations

import numpy as np

from . import evidential, model

__all__ = ["run_checks", "CHECK_NAMES"]

CHECK_NAMES = (
    "decomposition_identity",
    "digamma_recurrence",
    "log_gamma_recurrence",
    "jsd_properties",
    "kl_to_uniform",
    "gradient_spot_check",
)


def _random_alphas(rng, count, classes):
    out = []
    for _ in range(count):
        c = rng.choice(classes)
        out.append(np.exp(rng.uniform(-6, 6, size=c)))
    return out


def _check_decomposition(rng):
    # distribution_uncertainty is computed from data_uncertainty, so the
    # identity holds even when data_uncertainty is wrong; data_uncertainty
    # is also held against psi(S + 1) - sum_c p_c psi(alpha_c + 1), its
    # closed form rearranged with sum_c p_c = 1
    worst = 0.0
    for alpha in _random_alphas(rng, 200, [2, 3, 10]):
        p = alpha / alpha.sum()
        u_data = evidential.data_uncertainty(alpha)
        direct = evidential.digamma(alpha.sum() + 1.0) - p @ evidential.digamma(alpha + 1.0)
        total = u_data + evidential.distribution_uncertainty(alpha)
        target = evidential.entropy(evidential.expected_probs(alpha))
        worst = max(worst, abs(u_data - direct), abs(total - target))
    return worst < 1e-9, f"max |u_data - psi form|, |u_data + u_dist - H| = {worst:.3e}"


def _check_digamma(rng):
    x = np.logspace(-2, 4, 400)
    err = np.max(np.abs(evidential.digamma(x + 1) - (evidential.digamma(x) + 1 / x)))
    return err < 1e-10, f"max recurrence error = {err:.3e}"


def _check_log_gamma(rng):
    x = np.logspace(-2, 4, 400)
    err = np.max(
        np.abs(evidential.log_gamma(x + 1) - (evidential.log_gamma(x) + np.log(x)))
    )
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


def run_checks(seed: int = 0) -> list[tuple[str, bool, str]]:
    """Run every invariant check; returns (name, passed, detail) rows."""
    rng = np.random.default_rng(seed)
    checks = {
        "decomposition_identity": _check_decomposition,
        "digamma_recurrence": _check_digamma,
        "log_gamma_recurrence": _check_log_gamma,
        "jsd_properties": _check_jsd,
        "kl_to_uniform": _check_kl,
        "gradient_spot_check": _check_gradients,
    }
    results = []
    for name in CHECK_NAMES:
        try:
            passed, detail = checks[name](rng)
        except Exception as exc:  # a crash counts as a failure, not an abort
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, passed, detail))
    return results
