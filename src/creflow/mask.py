"""Group-shared spatio-temporal credit masks over latent layouts.

A frame-site layout factors a latent of dimension D into frames x sites x
channels. The group mask is the outer product of a temporal mask (union of
witness frames from failed clauses across the group) and a spatial mask
(union of entity atlases for pixel sites, or the clause-implicated entity
ids for entity sites). An all-success group yields the all-zero mask.
"""

import math
from dataclasses import dataclass

import numpy as np

from .backend import sweep_disc_mask
from .errors import LayoutMismatch, ShapeMismatch

FRAME_SITE = "frame_site"
PIXEL_SITES = "pixel"
ENTITY_SITES = "entity"


@dataclass(frozen=True)
class LatentLayout:
    dim: int
    horizon: int
    site_kind: str
    grid: tuple = None  # pixel sites: (H, W)
    entity_ids: tuple = None  # entity sites, in site order
    channels: int = 1

    @classmethod
    def pixel(cls, horizon, grid, channels=1):
        h, w = grid
        return cls(
            dim=horizon * h * w * channels,
            horizon=horizon,
            site_kind=PIXEL_SITES,
            grid=(int(h), int(w)),
            channels=int(channels),
        )

    @classmethod
    def entity(cls, horizon, entity_ids, channels=2):
        ids = tuple(entity_ids)
        return cls(
            dim=horizon * len(ids) * channels,
            horizon=horizon,
            site_kind=ENTITY_SITES,
            entity_ids=ids,
            channels=int(channels),
        )

    @property
    def sites(self):
        if self.site_kind == PIXEL_SITES:
            return self.grid[0] * self.grid[1]
        return len(self.entity_ids)

    def tensor_shape(self):
        return (self.horizon, self.sites, self.channels)

    def describe(self):
        out = {
            "kind": FRAME_SITE,
            "horizon": self.horizon,
            "site_kind": self.site_kind,
            "channels": self.channels,
        }
        if self.site_kind == PIXEL_SITES:
            out["grid"] = list(self.grid)
        else:
            out["entity_ids"] = list(self.entity_ids)
        return out


@dataclass(frozen=True)
class CreditMask:
    """A group's credit mask, the outer product of a temporal and a spatial axis.

    Only the two axes are held; ``full``, ``density`` and ``flat`` are formed
    from them when called.
    """

    temporal: np.ndarray  # (T,) bool
    spatial: np.ndarray  # (S,) bool

    @classmethod
    def from_axes(cls, temporal, spatial):
        return cls(np.asarray(temporal, dtype=bool), np.asarray(spatial, dtype=bool))

    @classmethod
    def ones(cls, layout: LatentLayout):
        return cls.from_axes(np.ones(layout.horizon, bool), np.ones(layout.sites, bool))

    @property
    def shape(self):
        return (self.temporal.size, self.spatial.size)

    @property
    def full(self) -> np.ndarray:
        """(T, S) bool, the outer product of the two axes, formed on each read."""
        return np.outer(self.temporal, self.spatial)

    def density(self):
        """Share of set cells in ``full``: set frames x set sites over T x S.

        An exact integer count over an integer size, so the float is the one
        np.mean(full) gives.
        """
        cells = np.count_nonzero(self.temporal) * np.count_nonzero(self.spatial)
        return float(np.float64(cells) / math.prod(self.shape))

    def flat(self, layout: LatentLayout) -> np.ndarray:
        """Per-coordinate 0/1 vector of length layout.dim (channel broadcast)."""
        if self.shape != (layout.horizon, layout.sites):
            raise LayoutMismatch(
                f"mask shape {self.shape} does not match layout "
                f"({layout.horizon}, {layout.sites})"
            )
        out = np.empty(layout.tensor_shape())
        out[...] = (self.temporal[:, None] & self.spatial)[:, :, None]
        return out.ravel()


def _check_raster(shape, layout: LatentLayout):
    if tuple(shape) != layout.grid:
        raise LayoutMismatch(
            f"atlas raster {tuple(map(int, shape))} does not match layout grid {layout.grid}")


def build_group_mask(verdicts, layout: LatentLayout, clause_entities=None) -> CreditMask:
    """Aggregate a rollout group's verdicts into the shared credit mask.

    The temporal axis unions witness frames over all rollouts (satisfied
    clauses contribute nothing). For pixel sites the spatial axis unions the
    entity atlases of all rollouts regardless of reward: given, assigned or
    already-read atlases by their masks, and the discs of every atlas not yet
    built in one ``sweep_disc_mask`` call (which leaves those atlases
    unbuilt), less each disc equal to the one before it. For entity sites it
    selects the ids in ``clause_entities``.
    """
    if not verdicts:
        raise LayoutMismatch("need at least one verdict")
    t_count = layout.horizon
    for v in verdicts:
        if v.horizon != t_count:
            raise LayoutMismatch(
                f"verdict horizon {v.horizon} does not match layout horizon {t_count}"
            )

    temporal = np.zeros(t_count, dtype=bool)
    for v in verdicts:
        for _, witness in v.violations:
            witness.mark_frames(temporal)  # satisfied clauses mark nothing

    if layout.site_kind == PIXEL_SITES:
        spatial = np.zeros(layout.sites, dtype=bool)
        positions, radii = [], []
        for v in verdicts:
            discs = v.pending_discs()
            if discs is None:
                for m in v.atlas.masks.values():
                    _check_raster(m.shape, layout)
                    spatial |= m.ravel()
            else:
                _check_raster(discs[2], layout)
                positions.append(discs[0])
                radii.append(discs[1])
        if positions:
            # Entity by entity, frame by frame, an entity that stays put repeats
            # its disc; equal discs give equal rasters, so drop the repeats.
            xy, r = np.concatenate(positions).reshape(-1, 2), np.concatenate(radii).reshape(-1)
            x, y = xy[:, 0], xy[:, 1]
            moved = np.ones(r.size, dtype=bool)
            moved[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (r[1:] != r[:-1])
            keep = np.flatnonzero(moved)
            spatial |= sweep_disc_mask(xy.take(keep, axis=0), r.take(keep), *layout.grid).ravel()
    else:
        if clause_entities is None:
            raise LayoutMismatch("entity-site masks need the clause-implicated entity ids")
        implicated = set(clause_entities)
        spatial = np.array([eid in implicated for eid in layout.entity_ids])

    return CreditMask.from_axes(temporal, spatial)


def apply_mask(mask: CreditMask, residual, layout: LatentLayout):
    """Elementwise mask product, broadcast across channels.

    Accepts the residual either flat (dim,) or shaped (T, S, C); the result
    has the same shape as the input.
    """
    residual = np.asarray(residual, dtype=np.float64)
    flat_mask = mask.flat(layout)
    if residual.shape == (layout.dim,):
        return residual * flat_mask
    if residual.shape == layout.tensor_shape():
        return (residual.ravel() * flat_mask).reshape(residual.shape)
    raise ShapeMismatch(
        f"residual shape {residual.shape} matches neither ({layout.dim},) "
        f"nor {layout.tensor_shape()}"
    )
