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


# Below this coordinate and radius magnitude, the rounding of a window bound
# and of the cell test together move a cell's reach by under 2**-9 cells, so
# _SLACK covers it; a disc at or beyond it (or with an infinite coordinate or
# radius) is tested over the whole grid.
_WINDOW_LIMIT = 2.0**40
_SLACK = 2.0**-8


def sweep_disc_mask(positions, radii, h, w):
    """Union over frames of rasterized discs on an (h, w) grid of unit cells.

    ``positions`` (..., T, 2) and ``radii`` (..., T) give (..., h, w): cell
    (i, j), centred at (j + 0.5, i + 0.5), is set iff dx^2 + dy^2 <= r^2 at
    some frame. Each disc is tested only over a window: the columns j with
    |j + 0.5 - x| <= |r|, found by ceil and floor with _SLACK to spare,
    crossed with the rows likewise, cut to the grid. A cell outside has
    dx^2 > r^2 or dy^2 > r^2, and adding a non-negative float never gives a
    sum below either term, so it cannot pass. Every window is widened to the
    largest one's size (shifted to stay on the grid), so one array op tests
    them all; each cell runs the same arithmetic as a test of every cell. A
    disc with a NaN coordinate or radius sets no cell.
    """
    positions = np.asarray(positions, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if radii.ndim < 1 or positions.shape != radii.shape + (2,):
        raise ShapeMismatch(f"positions {positions.shape} need shape {radii.shape + (2,)}")
    h, w = int(h), int(w)
    frames = radii.shape[-1]
    xy = positions.reshape(-1, 2)  # one row per disc
    reach = np.abs(radii).reshape(-1, 1)
    r2 = (reach * reach)[:, 0]
    out = np.zeros(radii.shape[:-1] + (h, w), dtype=bool)
    flat = out.reshape(-1)

    def mark(k, start, nx, ny):
        """Set the hits of discs ``k`` over the ny x nx cells from (column, row) ``start``."""
        col = start[:, :1] + np.arange(nx)
        row = start[:, 1:] + np.arange(ny)
        dx = (col + 0.5) - xy[k, :1]
        dy = (row + 0.5) - xy[k, 1:]
        hit = (dx * dx)[:, None, :] + (dy * dy)[:, :, None] <= r2[k, None, None]
        cell = ((k // frames) * (h * w))[:, None, None] + (row * w)[:, :, None] + col[:, None, :]
        flat[cell[hit]] = True

    windowed = np.abs(xy).sum(axis=1) + reach[:, 0] < _WINDOW_LIMIT  # False for NaN and inf
    k = np.flatnonzero(windowed)
    # cell j's centre is within r of x iff |j - (x - 0.5)| <= r
    centre = xy[k] - 0.5
    size = np.array([w, h])
    start = np.maximum(np.ceil(centre - reach[k] - _SLACK), 0.0)
    stop = np.minimum(np.floor(centre + reach[k] + _SLACK) + 1.0, size)
    on_grid = (start < stop).all(axis=1)
    if on_grid.any():
        start, stop = start[on_grid], stop[on_grid]
        nx, ny = (stop - start).max(axis=0).astype(np.intp).tolist()
        mark(k[on_grid], np.minimum(start, size - (nx, ny)).astype(np.intp), nx, ny)
    if k.size < windowed.size:
        k = np.flatnonzero(~windowed & ~np.isnan(xy).any(axis=1) & ~np.isnan(r2))
        mark(k, np.zeros((k.size, 2), dtype=np.intp), w, h)
    return out
