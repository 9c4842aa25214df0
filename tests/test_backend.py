import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creflow import backend
from creflow.errors import ShapeMismatch


def sweep_disc_mask_loop(positions, radii, h, w):
    """Per-cell reference: cell (i, j) is set iff its center lies in some disc."""
    out = np.zeros((h, w), dtype=bool)
    for (px, py), r in zip(positions, radii):
        for i in range(h):
            for j in range(w):
                dx = (j + 0.5) - px
                dy = (i + 0.5) - py
                if dx * dx + dy * dy <= r * r:
                    out[i, j] = True
    return out


class TestKernelReference:
    def test_sweep_disc_mask_matches_cell_loop(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = rng.integers(1, 12)
            h, w = rng.integers(1, 14, size=2)
            # discs may sit partly or wholly off the grid
            positions = rng.uniform(-4.0, 18.0, (t, 2))
            radii = rng.uniform(0.0, 3.0, t)
            radii[rng.random(t) < 0.3] = 0.0
            # radius 0 hits only a cell whose center it sits on exactly
            positions[0] = rng.integers(0, [w, h]) + 0.5
            radii[0] = 0.0
            got = backend.sweep_disc_mask(positions, radii, h, w)
            assert got.dtype == bool and got.shape == (h, w)
            assert np.array_equal(got, sweep_disc_mask_loop(positions, radii, h, w))


# Off-grid, half-cell-aligned and on-centre coordinates; radii that are zero,
# negative, fractional, half-cell or larger than any grid drawn here. NaN,
# infinite and huge values (whose squares or offsets overflow, or whose
# rounding exceeds a cell) are mixed into both.
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf, 1e200, -1e200, 2.0**41 + 0.25])
COORDS = (st.floats(-20.0, 30.0, allow_subnormal=False)
          | st.integers(-40, 60).map(lambda k: k / 2.0) | NON_FINITE)
RADII = (st.just(0.0) | st.floats(-4.0, 4.0, allow_subnormal=False)
         | st.integers(-8, 8).map(lambda k: k / 2.0) | st.floats(15.0, 100.0) | NON_FINITE)


@st.composite
def disc_sweeps(draw):
    """(positions (..., T, 2), radii (..., T), h, w), with no or one/two batch axes."""
    batch = tuple(draw(st.lists(st.integers(0, 3), max_size=2)))
    frames = draw(st.integers(0, 6))
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    positions = draw(hnp.arrays(np.float64, batch + (frames, 2), elements=COORDS))
    radii = draw(hnp.arrays(np.float64, batch + (frames,), elements=RADII))
    return positions, radii, h, w


class TestCandidateKernel:
    @settings(max_examples=300, deadline=None)
    @given(disc_sweeps())
    def test_equals_cell_loop(self, sweep):
        positions, radii, h, w = sweep
        with np.errstate(over="ignore"):
            got = backend.sweep_disc_mask(positions, radii, h, w)
            assert got.dtype == bool and got.shape == radii.shape[:-1] + (h, w)
            for idx in np.ndindex(radii.shape[:-1]):
                expected = sweep_disc_mask_loop(positions[idx], radii[idx], h, w)
                assert np.array_equal(got[idx], expected)

    @pytest.mark.parametrize("positions_shape,radii_shape", [
        ((5, 2), (4,)), ((5, 3), (5,)), ((2, 5, 2), (5,)), ((2,), ()),
    ])
    def test_rejects_mismatched_shapes(self, positions_shape, radii_shape):
        with pytest.raises(ShapeMismatch):
            backend.sweep_disc_mask(np.zeros(positions_shape), np.zeros(radii_shape), 4, 4)


class TestSemantics:
    def test_radius_zero_center_hit_only(self):
        positions = np.array([[3.5, 2.5]])
        mask = backend.sweep_disc_mask(positions, np.zeros(1), 8, 8)
        assert mask.sum() == 1 and mask[2, 3]
        off_center = backend.sweep_disc_mask(np.array([[3.6, 2.5]]), np.zeros(1), 8, 8)
        assert off_center.sum() == 0

    def test_logweights_match_direct_density(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, d, b = rng.integers(1, 20), rng.integers(1, 8), rng.integers(1, 40)
            x0s = rng.standard_normal((a, d))
            logp = np.log(rng.dirichlet(np.ones(a)))
            xts = rng.standard_normal((b, d))
            t = rng.uniform(0.01, 1.0)
            got = backend.gauss_logweights_batch(x0s, logp, xts, t)
            assert got.shape == (b, a)
            for i in range(b):
                for k in range(a):
                    diff = xts[i] - (1 - t) * x0s[k]
                    direct = (logp[k] - 0.5 * diff @ diff / t**2
                              - d * np.log(t) - 0.5 * d * np.log(2 * np.pi))
                    assert np.isclose(got[i, k], direct, rtol=1e-12, atol=1e-12)
