"""Numeric hot kernels in plain numpy: Gaussian log-weight enumeration over
discrete-support atoms and swept-disc rasterization on a unit-cell grid.
"""

import math

import numpy as np

_LOG_2PI = math.log(2.0 * math.pi)

# Read by the benchmark harness's machine facts; numpy is the only backend.
BACKEND = "numpy"


def gauss_logweights_batch(x0s, logp, xts, t):
    """Log posterior weights log p_a + log N(xt_b; (1-t) x0_a, t^2 I), shape (B, A)."""
    x0s = np.ascontiguousarray(x0s, dtype=np.float64)
    logp = np.ascontiguousarray(logp, dtype=np.float64)
    xts = np.ascontiguousarray(xts, dtype=np.float64)
    t = float(t)
    d = xts.shape[1]
    diff = xts[:, None, :] - (1.0 - t) * x0s[None, :, :]
    sq = np.sum(diff * diff, axis=2)
    return logp[None, :] - 0.5 * sq / (t * t) - d * math.log(t) - 0.5 * d * _LOG_2PI


def sweep_disc_mask(positions, radii, h, w):
    """Union over frames of rasterized discs on an (h, w) grid of unit cells."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    radii = np.ascontiguousarray(radii, dtype=np.float64)
    h, w = int(h), int(w)
    # cell (i, j) has center (j + 0.5, i + 0.5); set iff within radius at some frame
    cx = np.arange(w, dtype=np.float64) + 0.5
    cy = np.arange(h, dtype=np.float64) + 0.5
    dx = cx[None, None, :] - positions[:, 0][:, None, None]
    dy = cy[None, :, None] - positions[:, 1][:, None, None]
    hit = dx * dx + dy * dy <= (radii * radii)[:, None, None]
    return np.any(hit, axis=0)
