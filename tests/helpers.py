"""Shared numerical oracles and file writers for the test suite."""

import struct

import numpy as np
from scipy import special

from openset_al.model import _backward, _forward_cached


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


def zeta_edl_grads(model, x, yy):
    """``model._edl_grads`` as it was written per head with trigamma from
    ``scipy.special.zeta(2, .)`` on every entry; returns the flat
    gradient list."""
    acts, _, alphas, clip_masks = _forward_cached(model, x)
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
    return _backward(model, acts, dzs)


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
