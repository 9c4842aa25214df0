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
    # one entry per disc; discs run along the last axis of every array below
    x, y = positions[..., 0].reshape(-1), positions[..., 1].reshape(-1)
    reach = np.abs(radii).reshape(-1)
    r2 = reach * reach
    out = np.zeros(radii.shape[:-1] + (h, w), dtype=bool)
    flat = out.reshape(-1)
    # where each disc's raster starts in ``flat``: discs of one leading index share it
    origin = (np.arange(reach.size) // radii.shape[-1] * (h * w) if radii.ndim > 1
              else np.zeros(reach.size, dtype=np.intp))

    def mark(disc, col, row, nx, ny):
        """Set the hits of discs ``disc`` (all if None) in ny x nx cells from ``col``, ``row``."""
        cx, cy, cr2, corner = ((x, y, r2, origin) if disc is None
                               else (x[disc], y[disc], r2[disc], origin[disc]))
        dx = (np.arange(nx)[:, None] + col + 0.5) - cx  # (nx, discs)
        dy = (np.arange(ny)[:, None] + row + 0.5) - cy  # (ny, discs)
        hit = (dx * dx)[None] + (dy * dy)[:, None] <= cr2  # (ny, nx, discs)
        cell = np.arange(ny)[:, None, None] * w + np.arange(nx)[:, None] + (corner + row * w + col)
        flat[cell[hit]] = True

    windowed = np.abs(x) + np.abs(y) + reach < _WINDOW_LIMIT  # False for NaN and inf
    every = windowed.all()
    disc = None if every else np.flatnonzero(windowed)
    wx, wy, wr = (x, y, reach) if every else (x[disc], y[disc], reach[disc])
    # cell j's centre is within r of x iff |j - (x - 0.5)| <= r
    col = np.maximum(np.ceil(wx - 0.5 - wr - _SLACK), 0.0)
    col_stop = np.minimum(np.floor(wx - 0.5 + wr + _SLACK) + 1.0, w)
    row = np.maximum(np.ceil(wy - 0.5 - wr - _SLACK), 0.0)
    row_stop = np.minimum(np.floor(wy - 0.5 + wr + _SLACK) + 1.0, h)
    on_grid = (col < col_stop) & (row < row_stop)
    if not on_grid.all():
        col, col_stop = col[on_grid], col_stop[on_grid]
        row, row_stop = row[on_grid], row_stop[on_grid]
        disc = np.flatnonzero(on_grid) if every else disc[on_grid]
    if col.size:
        nx, ny = int((col_stop - col).max()), int((row_stop - row).max())
        mark(disc, np.minimum(col, w - nx).astype(np.intp), np.minimum(row, h - ny).astype(np.intp),
             nx, ny)
    if not every:
        disc = np.flatnonzero(~(windowed | np.isnan(x) | np.isnan(y) | np.isnan(r2)))
        mark(disc, np.zeros(disc.size, np.intp), np.zeros(disc.size, np.intp), w, h)
    return out
