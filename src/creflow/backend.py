"""Numeric hot kernels in plain numpy: Gaussian log-weight enumeration over
discrete-support atoms and swept-disc rasterization on a unit-cell grid.
"""

import math

import numpy as np

from .errors import ShapeMismatch

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
    """Union over frames of rasterized discs on an (h, w) grid of unit cells.

    ``positions`` (..., T, 2) and ``radii`` (..., T) give (..., h, w): cell
    (i, j), centred at (j + 0.5, i + 0.5), is set iff dx^2 + dy^2 <= r^2 at
    some frame. Only candidate cells are tested: the rows with dy^2 <= r^2
    crossed with the columns with dx^2 <= r^2. Adding a non-negative float
    never gives a sum below either term, so no other cell can pass, and the
    candidates run the same arithmetic as a test of every cell.
    """
    positions = np.asarray(positions, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim < 1 or positions.shape != radii.shape + (2,):
        raise ShapeMismatch(f"positions {positions.shape} need shape {radii.shape + (2,)}")
    h, w = int(h), int(w)
    frames = radii.shape[-1]
    r2 = (radii * radii).ravel()  # one entry per disc k
    dx = (np.arange(w, dtype=np.float64) + 0.5) - positions[..., 0].reshape(-1, 1)
    dy = (np.arange(h, dtype=np.float64) + 0.5) - positions[..., 1].reshape(-1, 1)
    dx2 = dx * dx  # (K, w)
    dy2 = dy * dy  # (K, h)
    row_disc, rows = np.divmod(np.flatnonzero(dy2 <= r2[:, None]), h)
    col_disc, cols = np.divmod(np.flatnonzero(dx2 <= r2[:, None]), w)
    # pair each candidate row of disc k with each candidate column of disc k
    n_cols = np.bincount(col_disc, minlength=r2.size)
    per_row = n_cols[row_disc]
    disc = np.repeat(row_disc, per_row)
    row = np.repeat(rows, per_row)
    first_col = np.repeat((np.cumsum(n_cols) - n_cols)[row_disc], per_row)
    offset = np.arange(disc.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    col = cols[first_col + offset]
    hit = dx2[disc, col] + dy2[disc, row] <= r2[disc]
    out = np.zeros(radii.shape[:-1] + (h, w), dtype=bool)
    out.reshape(-1)[((disc[hit] // frames) * h + row[hit]) * w + col[hit]] = True
    return out
