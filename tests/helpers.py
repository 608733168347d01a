"""Shared numerical oracles and file writers for the test suite."""

import struct

import numpy as np
from scipy import special


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
