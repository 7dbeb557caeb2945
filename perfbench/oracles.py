"""Independent numpy oracles for the pooled numbers and leave-one-out flags.

They recompute from the input table alone (no pvaudit import), so an output
check built on them does not share code with the program it checks.
"""

from __future__ import annotations

import numpy as np

Z_975 = 1.96


def effects(rr, cl_low, cl_high):
    """Linear-scale (effect, se) arrays at 95%: effect = rr - 1, se = width / (2 z)."""
    rr = np.asarray(rr, dtype=float)
    width = np.asarray(cl_high, dtype=float) - np.asarray(cl_low, dtype=float)
    return rr - 1.0, width / (2.0 * Z_975)


def dersimonian_laird(y, se) -> dict:
    """Moment (DerSimonian-Laird) pooling with numpy sums."""
    y = np.asarray(y, dtype=float)
    w = 1.0 / np.asarray(se, dtype=float) ** 2
    k = y.size
    sw = w.sum()
    fixed = (w * y).sum() / sw
    q = (w * (y - fixed) ** 2).sum()
    denom = sw - (w * w).sum() / sw
    tau2 = max(0.0, (q - (k - 1)) / denom) if denom > 0 else 0.0
    wr = 1.0 / (1.0 / w + tau2)
    swr = wr.sum()
    return {
        "fixed_mean": fixed,
        "q": q,
        "tau2": tau2,
        "random_mean": (wr * y).sum() / swr,
        "random_se": swr ** -0.5,
    }


def loo_influence(y, se, chunk: int = 256) -> np.ndarray:
    """|full RE mean - RE mean without i| / full RE se for every study i.

    Each leave-one-out fit is a masked row of a (chunk, k) block, so memory
    stays O(chunk * k) instead of O(k^2).
    """
    y = np.asarray(y, dtype=float)
    v = np.asarray(se, dtype=float) ** 2
    k = y.size
    full = dersimonian_laird(y, np.sqrt(v))
    w = 1.0 / v
    out = np.empty(k)
    for start in range(0, k, chunk):
        rows = np.arange(start, min(start + chunk, k))
        keep = np.ones((rows.size, k))
        keep[np.arange(rows.size), rows] = 0.0
        wk = keep * w
        sw = wk.sum(axis=1)
        fixed = (wk @ y) / sw
        q = (wk * (y[None, :] - fixed[:, None]) ** 2).sum(axis=1)
        denom = sw - (wk * w).sum(axis=1) / sw
        tau2 = np.where(denom > 0, np.maximum(0.0, (q - (k - 2)) / denom), 0.0)
        wr = keep / (v[None, :] + tau2[:, None])
        mean = (wr @ y) / wr.sum(axis=1)
        out[rows] = np.abs(full["random_mean"] - mean) / full["random_se"]
    return out
