import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creflow import mask as mask_module
from creflow import simworld
from creflow.backend import sweep_disc_mask
from creflow.errors import LayoutMismatch
from creflow.ltlf import Witness
from creflow.mask import CreditMask, LatentLayout, build_group_mask
from creflow.monitor import Verdict, run_group_monitor, run_monitor
from creflow.trace import (
    Atlas,
    ClauseDecl,
    EntityDecl,
    EntityState,
    PredicateDecl,
    TaskSpec,
    TraceGroup,
    make_condition,
)


def make_verdict(reward, witness_frames, atlas_cells, horizon=6, grid=(8, 8), entity="cup"):
    masks = {entity: np.zeros(grid, bool)}
    for i, j in atlas_cells:
        masks[entity][i, j] = True
    frames = np.zeros((1, horizon), bool)
    frames[0, [t - 1 for t in witness_frames]] = True  # frames are 1-indexed
    return Verdict(
        reward=reward,
        violations=[("k0", Witness([((entity,), frames)], 0))],
        atlas=Atlas(masks),
        horizon=horizon,
    )


ENTITY_LAYOUT = LatentLayout.entity(6, ("arm", "cup", "bin"), channels=2)
PIXEL_LAYOUT = LatentLayout.pixel(6, (8, 8), channels=1)


class TestBuildGroupMask:
    def test_all_success_zero_mask(self):
        verdicts = [make_verdict(1, [], [(0, 0)]) for _ in range(4)]
        mask = build_group_mask(verdicts, PIXEL_LAYOUT)
        assert not mask.full.any()
        assert not mask.temporal.any()
        assert mask.spatial.any()  # atlases union regardless of reward

    def test_single_failure_counts(self):
        cells = [(i, j) for i in range(2) for j in range(5)]  # 10 cells
        verdicts = [
            make_verdict(0, [3], cells),
            make_verdict(1, [], [(5, 5)]),
            make_verdict(1, [], [(6, 6)]),
            make_verdict(1, [], [(6, 7)]),
        ]
        mask = build_group_mask(verdicts, PIXEL_LAYOUT)
        assert mask.temporal.sum() == 1 and mask.temporal[2]
        assert mask.spatial.sum() == 13  # 10 failure cells + 3 distinct success cells
        assert mask.full.sum() == 13

    def test_disjoint_witness_frames_union(self):
        verdicts = [
            make_verdict(0, [2], [(0, 0)]),
            make_verdict(0, [5], [(0, 0)]),
        ]
        mask = build_group_mask(verdicts, PIXEL_LAYOUT)
        assert list(np.nonzero(mask.temporal)[0]) == [1, 4]
        # both rows present, same spatial support: rank-1 structure
        assert np.array_equal(mask.full[1], mask.full[4])

    def test_union_monotone_in_verdicts(self):
        rng = np.random.default_rng(0)
        verdicts = []
        previous = np.zeros((6, 64), bool)
        for k in range(6):
            frames = rng.choice(range(1, 7), size=rng.integers(0, 3), replace=False)
            cells = [(int(rng.integers(8)), int(rng.integers(8))) for _ in range(3)]
            verdicts.append(make_verdict(int(not len(frames)), list(frames), cells))
            mask = build_group_mask(verdicts, PIXEL_LAYOUT)
            assert np.all(previous <= mask.full)
            previous = mask.full

    def test_entity_sites_use_clause_entities(self):
        verdicts = [make_verdict(0, [1], [(0, 0)])]
        mask = build_group_mask(verdicts, ENTITY_LAYOUT, clause_entities={"arm", "cup"})
        assert mask.spatial.tolist() == [True, True, False]

    def test_entity_sites_require_clause_entities(self):
        verdicts = [make_verdict(0, [1], [(0, 0)])]
        with pytest.raises(LayoutMismatch):
            build_group_mask(verdicts, ENTITY_LAYOUT)

    def test_horizon_mismatch(self):
        verdicts = [make_verdict(0, [1], [(0, 0)], horizon=5)]
        with pytest.raises(LayoutMismatch):
            build_group_mask(verdicts, PIXEL_LAYOUT)


@st.composite
def decoded_verdicts(draw):
    """Verdicts of a decoded group whose atlases are left lazy, given, or read."""
    template = draw(st.sampled_from(simworld.TEMPLATES))
    grid = (draw(st.integers(4, 16)), draw(st.integers(4, 16)))
    half = draw(st.floats(0.0, 0.18 * grid[1], exclude_max=True))  # a box the grid can hold
    world = simworld.WorldConfig(template=template,
                                 n_objects=simworld.TEMPLATES[template].named,
                                 grid=grid, container_half_extents=(half, half))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    condition = simworld.sample_condition(world, rng)
    demos = np.stack([simworld.scripted_demo(world, condition, rng) for _ in range(4)])
    demos += draw(st.floats(0.0, 0.5)) * rng.standard_normal(demos.shape)
    verdicts = run_group_monitor(simworld.build_task_spec(world),
                                 simworld.RolloutDecoder(world)(demos, [condition]))
    modes = draw(st.lists(st.sampled_from(["lazy", "given", "read"]), min_size=4, max_size=4))
    for v, mode in zip(verdicts, modes):
        if mode == "given":
            v.atlas = Atlas({"given": rng.random(world.grid) < 0.1})
        elif mode == "read":
            v.atlas.masks
    return world, verdicts, modes


class TestOneCallUnion:
    @settings(max_examples=60, deadline=None)
    @given(decoded_verdicts())
    def test_pixel_mask_is_union_of_every_atlas(self, case):
        world, verdicts, modes = case
        layout = LatentLayout.pixel(world.horizon, world.grid)
        mask = build_group_mask(verdicts, layout)
        assert [v.pending_discs() is not None for v in verdicts] == [m == "lazy" for m in modes]
        union = np.zeros(world.grid, bool)
        for v in verdicts:
            for m in v.atlas.masks.values():
                union |= m
        assert np.array_equal(mask.spatial, union.ravel())

    def test_pixel_mask_is_one_sweep_over_every_pending_disc(self, monkeypatch):
        spec = TaskSpec(task_id="toy", entities=[EntityDecl("cup", "object")],
                        predicates=[PredicateDecl("moving", 1, "moving", {"speed": 0.5})],
                        clauses=[ClauseDecl("k0", "G moving(cup)")],
                        condition=make_condition("toy", {"cup": (1.0, 1.0)}))
        rows = [[(1.0, 1.0, 0.5)] * 6,
                [(1.0, 1.0, 0.5)] * 2 + [(3.5, 2.0, 1.5)] * 3 + [(-0.0, 6.0, 2.0)],
                [(0.0, 6.0, 2.0), (3.5, 2.0, 1.5), (3.5, 2.0, 1.5), (3.5, 2.0, 2.5),
                 (7.0, 7.0, 1.0), (1.0, 1.0, 0.5)]]
        traces = [TraceGroup.from_frames(
            6, [{"cup": EntityState(np.array([x, y]), r)} for x, y, r in row], (8, 8))
            for row in rows]
        verdicts = [run_monitor(spec, trace) for trace in traces]
        discs = np.array([disc for row in rows for disc in row])
        sent = []
        monkeypatch.setattr(mask_module, "sweep_disc_mask",
                            lambda xy, r, *grid: sent.append((xy, r)) or sweep_disc_mask(xy, r, *grid))
        mask = build_group_mask(verdicts, PIXEL_LAYOUT)
        assert len(sent) == 1  # one kernel call takes all 18 discs, repeats included
        assert np.array_equal(sent[0][0], discs[:, :2]) and np.array_equal(sent[0][1], discs[:, 2])
        assert np.array_equal(mask.spatial, sweep_disc_mask(discs[:, :2], discs[:, 2], 8, 8).ravel())

    def test_lazy_atlas_on_another_grid_raises_like_given_one(self):
        frames = [{"cup": EntityState(np.array([1.0, 1.0]), 0.5)}] * 6
        trace = TraceGroup.from_frames(6, frames, (8, 10))
        spec = TaskSpec(task_id="toy", entities=[EntityDecl("cup", "object")],
                        predicates=[PredicateDecl("moving", 1, "moving", {"speed": 0.5})],
                        clauses=[ClauseDecl("k0", "G moving(cup)")],
                        condition=make_condition("toy", {"cup": (1.0, 1.0)}))
        lazy = run_monitor(spec, trace)
        given = make_verdict(0, [1], [], grid=(8, 10))
        messages = []
        for verdict in (lazy, given):
            with pytest.raises(LayoutMismatch) as err:
                build_group_mask([make_verdict(0, [2], [(0, 0)]), verdict], PIXEL_LAYOUT)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == (
            "atlas raster (8, 10) does not match layout grid (8, 8)")


class TestMaskFlat:
    def test_identity_and_zero(self):
        rng = np.random.default_rng(1)
        residual = rng.standard_normal(ENTITY_LAYOUT.dim)
        ones = CreditMask.ones(ENTITY_LAYOUT)
        assert np.array_equal(residual * ones.flat(ENTITY_LAYOUT), residual)
        zeros = CreditMask.from_axes(np.zeros(6, bool), np.zeros(3, bool))
        assert not (residual * zeros.flat(ENTITY_LAYOUT)).any()

    def test_single_site_broadcasts_channels(self):
        temporal = np.zeros(6, bool)
        temporal[2] = True
        spatial = np.zeros(3, bool)
        spatial[1] = True
        out = CreditMask.from_axes(temporal, spatial).flat(ENTITY_LAYOUT)
        assert out.sum() == ENTITY_LAYOUT.channels
        assert out.reshape(ENTITY_LAYOUT.tensor_shape())[2, 1].tolist() == [1.0, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        residual = rng.standard_normal(ENTITY_LAYOUT.dim)
        mask = CreditMask.from_axes(
            rng.integers(0, 2, 6).astype(bool), rng.integers(0, 2, 3).astype(bool)
        )
        once = residual * mask.flat(ENTITY_LAYOUT)
        twice = once * mask.flat(ENTITY_LAYOUT)
        assert np.array_equal(once, twice)

    def test_wrong_layout_for_mask(self):
        mask = CreditMask.ones(PIXEL_LAYOUT)
        with pytest.raises(LayoutMismatch):
            mask.flat(ENTITY_LAYOUT)


@st.composite
def masked_residuals(draw):
    """(layout, mask, residual (T, S, C)) over pixel and entity layouts."""
    horizon, channels = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        layout = LatentLayout.pixel(horizon, (draw(st.integers(1, 4)), draw(st.integers(1, 4))),
                                    channels)
    else:
        ids = [f"e{k}" for k in range(draw(st.integers(1, 4)))]
        layout = LatentLayout.entity(horizon, ids, channels)
    mask = CreditMask.from_axes(draw(hnp.arrays(bool, horizon)), draw(hnp.arrays(bool, layout.sites)))
    residual = draw(hnp.arrays(np.float64, layout.tensor_shape(),
                               elements=st.floats(allow_nan=False, allow_infinity=False)))
    return layout, mask, residual


class TestMaskIdentities:
    @settings(max_examples=200, deadline=None)
    @given(masked_residuals())
    def test_flat_is_full_broadcast_over_channels(self, case):
        layout, mask, _ = case
        flat = mask.flat(layout)
        assert flat.dtype == np.float64 and flat.shape == (layout.dim,)
        tensor = flat.reshape(layout.tensor_shape())
        for c in range(layout.channels):
            assert np.array_equal(tensor[:, :, c], mask.full.astype(np.float64))

    @settings(max_examples=200, deadline=None)
    @given(masked_residuals())
    def test_ones_mask_is_identity(self, case):
        layout, _, residual = case
        ones = CreditMask.ones(layout)
        assert (residual.ravel() * ones.flat(layout)).tobytes() == residual.tobytes()


@st.composite
def axis_masks(draw):
    """(layout, temporal, spatial) with each axis drawn, all false or all true; sizes from 1."""
    horizon, channels = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    if draw(st.booleans()):
        layout = LatentLayout.pixel(horizon, (draw(st.integers(1, 4)), draw(st.integers(1, 4))),
                                    channels)
    else:
        layout = LatentLayout.entity(horizon, [f"e{k}" for k in range(draw(st.integers(1, 4)))],
                                     channels)

    def axis(size):
        fill = draw(st.sampled_from(["drawn", "none", "all"]))
        return draw(hnp.arrays(bool, size)) if fill == "drawn" else np.full(size, fill == "all")

    return layout, axis(horizon), axis(layout.sites)


class TestAxisOnlyMask:
    @settings(max_examples=300, deadline=None)
    @given(axis_masks())
    def test_density_and_flat_equal_the_dense_product(self, case):
        layout, temporal, spatial = case
        mask = CreditMask.from_axes(temporal, spatial)
        dense = np.outer(temporal, spatial)
        density = mask.density()
        assert type(density) is float
        assert np.float64(density).tobytes() == np.float64(np.mean(dense)).tobytes()
        flat = mask.flat(layout)
        broadcast = np.repeat(dense[:, :, None], layout.channels, axis=2).ravel()
        assert flat.dtype == np.float64 and flat.tobytes() == broadcast.astype(np.float64).tobytes()
        assert mask.full.dtype == bool and np.array_equal(mask.full, dense)

    def test_pixel_group_sizes(self):
        # 32 frames x 4096 sites, the replay group's layout, at a few set counts
        layout = LatentLayout.pixel(32, (64, 64))
        rng = np.random.default_rng(5)
        for share in (0.0, 0.013, 0.5, 1.0):
            mask = CreditMask.from_axes(rng.random(32) < share, rng.random(4096) < share)
            assert mask.density() == float(np.mean(np.outer(mask.temporal, mask.spatial)))
            assert np.array_equal(mask.flat(layout), mask.full.ravel().astype(np.float64))
