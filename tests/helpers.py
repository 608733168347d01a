"""Shared numerical oracles, file writers and loaders for the test suite."""

import importlib.util
import struct
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
from scipy import special

from openset_al.evidential import LOGIT_CLIP
from openset_al.model import learning_rate_at


def finite_difference_grads(value_fn, arrays, h=1e-5):
    """Central finite differences of a scalar function with respect to
    every entry of every array in ``arrays`` (perturbed in place)."""
    out = []
    for arr in arrays:
        g = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = arr[idx]
            arr[idx] = orig + h
            f_plus = value_fn()
            arr[idx] = orig - h
            f_minus = value_fn()
            arr[idx] = orig
            g[idx] = (f_plus - f_minus) / (2.0 * h)
        out.append(g)
    return out


def max_rel_err(analytic, numeric, floor=1e-6):
    """Worst entry-wise relative error between two gradient lists; entries
    below ``floor`` in magnitude are compared on an absolute scale."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def closed_form_distribution_uncertainty(alpha):
    """Mutual information in its direct closed form,
    sum_c p_c (psi(alpha_c + 1) - psi(S + 1)) - sum_c p_c ln p_c, evaluated
    in the order ``distribution_uncertainty`` used before it was derived
    from ``data_uncertainty``."""
    a = np.asarray(alpha, dtype=float)
    s = a.sum(axis=-1, keepdims=True)
    p = a / s
    expected_term = (p * (special.digamma(a + 1.0) - special.digamma(s + 1.0))).sum(axis=-1)
    return expected_term - special.xlogy(p, p).sum(axis=-1)


# ---------------------------------------------------------------------------
# The training step written out array by array: a per-head backward pass
# returning a fresh gradient list (zeros outside the trained subset), the
# trigamma recurrence term by term, and an update that concatenates the
# subset's gradients.  ``model.train_cycle`` must match it bit for bit.


def reference_forward(model, x):
    """(activations, logits, evidence, float clip masks); the heads stacked
    as (2, n, C)."""
    h = x
    acts = [h]
    for w, b in model.backbone:
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    logits = np.empty((2, h.shape[0], model.num_classes))
    for (w, b), z in zip(model.heads, logits):
        np.matmul(h, w, out=z)
        z += b
    alphas = np.exp(np.clip(logits, -LOGIT_CLIP, LOGIT_CLIP))
    masks = (np.abs(logits) < LOGIT_CLIP).astype(float)
    return acts, logits, alphas, masks


def reference_backward(model, acts, dzs, heads=True, backbone=True):
    """Flat gradient list; arrays outside the requested subset are zeros."""
    params = model.flat_params()
    nb = model.num_backbone_arrays
    grads = [np.zeros_like(p) for p in params]
    if heads:
        for h_idx, dz in enumerate(dzs):
            grads[nb + 2 * h_idx] = acts[-1].T @ dz
            grads[nb + 2 * h_idx + 1] = dz.sum(axis=0)
    if backbone:
        (w1, _), (w2, _) = model.heads
        dh = dzs[0] @ w1.T
        dh += dzs[1] @ w2.T
        for i in reversed(range(len(model.backbone))):
            da = dh * (acts[i + 1] > 0)
            grads[2 * i] = acts[i].T @ da
            grads[2 * i + 1] = da.sum(axis=0)
            dh = da @ model.backbone[i][0].T
    return grads


def reference_trigamma(x):
    """sum_{k=9..1} 1/(x + k)^2 term by term, then the asymptotic series
    at x + 10 and 1/x^2."""
    acc = np.zeros_like(x)
    for k in range(9, 0, -1):
        t = x + k
        acc += 1.0 / (t * t)
    w = 1.0 / (x + 10)
    w2 = w * w
    tail = np.full_like(x, -3617 / 510)
    for b in (7 / 6, -691 / 2730, 5 / 66, -1 / 30, 1 / 42, -1 / 30, 1 / 6):
        tail = tail * w2 + b
    tail = ((tail * w + 0.5) * w2 + w)
    return (acc + tail) + 1.0 / (x * x)


def reference_edl_grads(model, x, yy):
    acts, _, alpha, mask = reference_forward(model, x)
    n, c = x.shape[0], model.num_classes
    off_label = 1.0 - yy
    s = alpha.sum(axis=2, keepdims=True)
    a_t = yy + off_label * alpha
    s_t = a_t.sum(axis=2, keepdims=True)
    label = yy > 0
    psi = reference_trigamma(np.where(label, s_t, a_t))
    dkl_dat = (a_t - 1.0) * psi - psi[:, label][..., None] * (s_t - c)
    dl_dalpha = (1.0 / s) - yy / alpha + dkl_dat * off_label
    return reference_backward(model, acts, dl_dalpha * alpha * mask / (2.0 * n))


def reference_cross_entropy_grads(model, x, yy):
    acts, logits, _, _ = reference_forward(model, x)
    dzs = []
    for z in logits:
        zmax = z.max(axis=1, keepdims=True)
        logp = z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
        dzs.append((np.exp(logp) - yy) / (2.0 * x.shape[0]))
    return reference_backward(model, acts, dzs)


def reference_uncertainties(alphas):
    """(u_data, u_dist) of the heads' averaged evidence, each closed form
    normalising the evidence on its own."""
    a = 0.5 * (alphas[0] + alphas[1])
    s = a.sum(axis=-1, keepdims=True)
    u_data = (a / s * (special.digamma(s + 1.0) - special.digamma(a + 1.0))).sum(axis=-1)
    p = a / a.sum(axis=-1, keepdims=True)
    return u_data, -special.xlogy(p, p).sum(axis=-1) - u_data


def reference_jsd_grads(model, x, tau, close):
    """Weighted JSD logit gradients, per head, through the backbone only
    (``close``) or, negated, through the heads only."""
    acts, _, alphas, masks = reference_forward(model, x)
    u_data, u_dist = reference_uncertainties(alphas)
    n = x.shape[0]
    if close:
        w = (1.0 - special.expit(u_data - tau)) / n
    else:
        w = special.expit(u_dist - tau) / n
    p, q = (a / a.sum(axis=1, keepdims=True) for a in alphas)
    m = 0.5 * (p + q)
    dzs = []
    for r, mask in zip((p, q), masks):
        g = np.log(r / m) / (2.0 * np.log(2.0))
        dzs.append(w[:, None] * (r * (g - (r * g).sum(axis=1, keepdims=True)) * mask))
    if close:
        return reference_backward(model, acts, dzs, heads=False)
    return reference_backward(model, acts, [-dz for dz in dzs], backbone=False)


def reference_sgd_step(model, grads, epoch, cfg, trainable):
    lr = learning_rate_at(epoch, cfg)
    idx = model.subsets[trainable][0]
    g = np.concatenate(grads[idx.start : idx.stop], axis=None)
    if not np.isfinite(g).all():
        raise FloatingPointError("non-finite gradient")
    lo, hi = model.offsets[idx.start], model.offsets[idx.stop]
    p, v = model.param_buffer[lo:hi], model.velocity_buffer[lo:hi]
    v *= cfg.momentum
    step = cfg.weight_decay * p
    step += g
    v += step
    p -= v * lr


def reference_train_cycle(model, x_labeled, y_labeled, x_unlabeled, cfg, rng):
    """``train_cycle`` over the reference step."""
    yy = np.eye(model.num_classes)[y_labeled]
    grad_fn = reference_edl_grads if cfg.train_loss == "edl" else reference_cross_entropy_grads
    n = len(x_labeled)
    batch = min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            grads = grad_fn(model, x_labeled[idx], yy[idx])
            reference_sgd_step(model, grads, epoch, cfg, "all")
    if not (cfg.use_discrepancy and cfg.discrepancy_epochs > 0):
        return model
    n = len(x_unlabeled)
    batch = min(cfg.batch_size, max(n, 1))
    for k in range(cfg.discrepancy_epochs):
        close = k % 2 == 0
        tau, subset = (cfg.tau1, "backbone") if close else (cfg.tau2, "heads")
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            grads = reference_jsd_grads(model, x_unlabeled[idx], tau, close)
            reference_sgd_step(model, grads, cfg.epochs + k, cfg, subset)
    return model


def zeta_edl_grads(model, x, yy):
    """The EDL gradient written per head with trigamma from
    ``scipy.special.zeta(2, .)`` on every entry; returns the flat
    gradient list."""
    acts, _, alphas, clip_masks = reference_forward(model, x)
    n, c = acts[0].shape[0], model.num_classes
    off_label = 1.0 - yy
    dzs = []
    for alpha, mask in zip(alphas, clip_masks):
        s = alpha.sum(axis=1, keepdims=True)
        a_t = yy + off_label * alpha
        s_t = a_t.sum(axis=1, keepdims=True)
        dkl_dat = (a_t - 1.0) * special.zeta(2, a_t) - special.zeta(2, s_t) * (s_t - c)
        dl_dalpha = (1.0 / s) - yy / alpha + dkl_dat * off_label
        dzs.append(dl_dalpha * alpha * mask / (2.0 * n))
    return reference_backward(model, acts, dzs)


def write_idx_images(path, images):
    """Independent minimal IDX writer used as the round-trip oracle."""
    n, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def traced_peak(fn, *args):
    """Peak bytes that tracemalloc sees allocated during one call of
    ``fn(*args)``; numpy reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_started_threads(monkeypatch):
    """A list that collects every thread started while ``monkeypatch`` is
    active."""
    started = []
    real = threading.Thread.start

    def counted(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module, as it stands, read from its file
    without putting ``perfbench`` on the import path."""
    return load_repo_file("perfbench", name)


def load_repo_file(directory, name):
    """``<directory>/<name>.py`` of this checkout as a module named
    ``<directory>_<name>``, read from its file without putting
    ``directory`` on the import path."""
    path = Path(__file__).resolve().parents[1] / directory / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{directory}_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses looks the defining module up while building its classes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module
