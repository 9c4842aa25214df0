"""Synthetic bimanual manipulation world and the online RL loop.

Rollout latents are (T, sites, 2) tensors: one site per task entity plus a
reserved row whose two channels carry the arms' gripper scalars (>0 means
closed). Decoding reads arm positions directly; objects follow the nearest
grasping arm while the grasp condition holds and stay put otherwise, and the
container is static at its layout position. A rollout group is decoded at
once into a TraceGroup. World coordinates are an affine
rescale of latent units so that latents live at unit scale.

The reference policy is pretrained by plain flow matching on scripted
demonstrations (a mix of successful and perturbed-failing trajectories), so
the initial monitor success fraction sits mid-range and groups are mixed.
The online loop then alternates rollout sampling, monitoring, group-mask
construction and one gradient step on the combined objective.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteLoss, SpecValidationError
from .flow import (
    T_MIN,
    LinearVelocity,
    MLPVelocity,
    ModelBundle,
    interpolate,
    sample_rollout_group,
)
from .mask import LatentLayout, build_group_mask
from .monitor import run_group_monitor, run_monitor
from .objectives import (
    LossConfig,
    RolloutGroup,
    draw_sample_batch,
    loss_total,
)
from .trace import (
    ClauseDecl,
    EntityDecl,
    PredicateDecl,
    TaskSpec,
    TraceGroup,
    make_condition,
)

log = logging.getLogger(__name__)

TEMPLATES = ("pick_place", "ordered_stack", "persist_hold")
AUX_SITE = "grip_aux"
ARMS = ("arm_left", "arm_right")
LATENT_SCALE = 6.0

METRIC_COLUMNS = [
    "iteration",
    "success_fraction",
    "loss_total",
    "loss_nft",
    "loss_cr",
    "loss_kl",
    "mask_density",
    "offmask_drift",
]
METRICS_VERSION = 1


@dataclass
class WorldConfig:
    template: str = "pick_place"
    horizon: int = 12
    grid: tuple = (24, 24)
    n_objects: int = 1
    arm_radius: float = 0.9
    object_radius: float = 0.7
    container_radius: float = 1.2
    container_half_extents: tuple = (3.0, 3.0)
    grasp_distance: float = 1.8
    move_speed: float = 0.3
    group_size: int = 8
    iterations: int = 300
    seed: int = 0
    rollout_steps: int = 16
    model_kind: str = "linear"
    hidden: tuple = (64,)
    learning_rate: float = 3e-4
    ema_rate: float = 1.0
    demo_count: int = 384
    demo_noise: float = 0.06
    fail_fraction: float = 0.5
    pretrain_steps: int = 1500
    pretrain_lr: float = 0.02
    pretrain_batch: int = 32
    probe_count: int = 16

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise SpecValidationError(f"unknown template {self.template!r}")
        if not 8 <= self.horizon <= 32:
            raise SpecValidationError("horizon must be in [8, 32]")
        if self.group_size < 2:
            raise SpecValidationError("group size must be >= 2")
        if not 1 <= self.n_objects <= 3:
            raise SpecValidationError("n_objects must be in [1, 3]")
        if self.template == "ordered_stack" and self.n_objects < 2:
            raise SpecValidationError(
                f"ordered_stack needs n_objects >= 2, got {self.n_objects}"
            )
        if self.model_kind not in ("linear", "mlp"):
            raise SpecValidationError(
                f"model_kind must be 'linear' or 'mlp', got {self.model_kind!r}")
        if any(width < 1 for width in self.hidden):
            raise SpecValidationError(f"hidden widths must be >= 1, got {list(self.hidden)}")
        for name, least in (("iterations", 1), ("rollout_steps", 1), ("demo_count", 1),
                            ("pretrain_batch", 1), ("probe_count", 1), ("pretrain_steps", 0),
                            ("arm_radius", 0), ("object_radius", 0), ("container_radius", 0),
                            ("grasp_distance", 0), ("move_speed", 0), ("learning_rate", 0),
                            ("pretrain_lr", 0), ("demo_noise", 0)):
            if getattr(self, name) < least:
                raise SpecValidationError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("fail_fraction", "ema_rate"):
            if not 0 <= getattr(self, name) <= 1:
                raise SpecValidationError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if min(self.container_half_extents) < 0:
            raise SpecValidationError(
                f"container_half_extents must be >= 0, got {list(self.container_half_extents)}")
        if min(self.grid) < 4:
            raise SpecValidationError(f"grid must be at least 4x4, got {list(self.grid)}")


def object_ids(config):
    if config.template == "pick_place":
        base = ["cube", "cube_b", "cube_c"]
    elif config.template == "ordered_stack":
        base = ["cube_a", "cube_b", "cube_c"]
    else:
        base = ["orb", "orb_b", "orb_c"]
    return base[: config.n_objects]


def container_id(config):
    return {"pick_place": "bin", "ordered_stack": "pad", "persist_hold": "bin"}[config.template]


def world_entities(config):
    ents = [EntityDecl(arm, "arm") for arm in ARMS]
    ents += [EntityDecl(oid, "object") for oid in object_ids(config)]
    ents.append(
        EntityDecl(container_id(config), "container", tuple(config.container_half_extents))
    )
    return ents


def check_spec_matches_world(spec, config):
    """Raise unless the world's traces can be scored against the spec.

    The spec must declare exactly the world's entities (else SpecValidationError),
    and each predicate must find the grippers and flags it reads on them: the
    spec is scored once on the trace decoded from an all-zero latent, under a
    condition drawn from a stream of its own, and the monitor's error is raised.
    """
    world, declared = {e.id for e in world_entities(config)}, set(spec.entity_ids())
    if declared != world:
        raise SpecValidationError(
            "task spec entities do not match the world config: "
            f"missing {sorted(world - declared)}, extra {sorted(declared - world)}")
    condition = sample_condition(config, np.random.default_rng((config.seed, 505)))
    decoder = RolloutDecoder(config)
    run_group_monitor(spec, decoder(np.zeros((1,) + decoder.latent_shape), condition))


def site_ids(config):
    return tuple(e.id for e in world_entities(config)) + (AUX_SITE,)


def world_layout(config) -> LatentLayout:
    return LatentLayout.entity(config.horizon, site_ids(config), channels=2)


def _center(config):
    h, w = config.grid
    return np.array([w / 2.0, h / 2.0])


def latent_to_world(z, config):
    return _center(config) + LATENT_SCALE * np.asarray(z, dtype=np.float64)


def world_to_latent(p, config):
    return (np.asarray(p, dtype=np.float64) - _center(config)) / LATENT_SCALE


def condition_embedding(config, condition):
    one_hot = np.zeros(len(TEMPLATES))
    one_hot[TEMPLATES.index(config.template)] = 1.0
    coords = []
    for eid in object_ids(config) + [container_id(config)]:
        coords.append(world_to_latent(condition.position(eid), config))
    return np.concatenate([one_hot, *coords])


def condition_dim(config):
    return len(TEMPLATES) + 2 * (config.n_objects + 1)


# --------------------------------------------------------------------------
# Task specs
# --------------------------------------------------------------------------

def _grasp_any(obj):
    return f"(grasp(arm_left, {obj}) | grasp(arm_right, {obj}))"


def build_task_spec(config, condition=None) -> TaskSpec:
    """Instantiate the template's entities, predicates and clauses."""
    cont = container_id(config)
    objs = object_ids(config)
    predicates = [
        PredicateDecl("grasp", 2, "grasp", {"distance": config.grasp_distance}),
        PredicateDecl("inside", 2, "inside", {}),
        PredicateDecl("moving", 1, "moving", {"speed": config.move_speed}),
    ]
    clauses = []

    def clause(cid, src):
        clauses.append(ClauseDecl(cid, src))

    if config.template == "pick_place":
        for obj in objs:
            clause(f"terminal_{obj}", f"F G inside({obj}, {cont})")
            clause(f"causal_{obj}", f"G (moving({obj}) -> {_grasp_any(obj)})")
            clause(f"order_{obj}", f"!inside({obj}, {cont}) U {_grasp_any(obj)}")
        instruction = f"put the {objs[0]} into the {cont}"
    elif config.template == "ordered_stack":
        first, second = objs[0], objs[1]
        clause("order_pair", f"!inside({second}, {cont}) U inside({first}, {cont})")
        for obj in objs[:2]:
            clause(f"terminal_{obj}", f"F G inside({obj}, {cont})")
            clause(f"causal_{obj}", f"G (moving({obj}) -> {_grasp_any(obj)})")
        instruction = f"stack {first} then {second} on the {cont}"
    else:
        obj = objs[0]
        clause("hold_to_end", f"F G {_grasp_any(obj)}")
        clause("no_unaided_motion", f"G (!moving({obj}) | {_grasp_any(obj)})")
        clause("avoid_zone", f"G !inside({obj}, {cont})")
        instruction = f"hold the {obj} and keep it out of the {cont}"

    if condition is None:
        condition = sample_condition(config, np.random.default_rng(config.seed))
    return TaskSpec(
        task_id=config.template,
        entities=world_entities(config),
        predicates=predicates,
        clauses=clauses,
        condition=make_condition(instruction, dict(condition.layout)),
    )


def sample_condition(config, rng):
    """Random initial layout: objects on the left band, container on the right."""
    h, w = config.grid
    layout = {}
    placed = []
    for oid in object_ids(config):
        for _ in range(64):
            pos = np.array(
                [rng.uniform(0.18 * w, 0.42 * w), rng.uniform(0.28 * h, 0.72 * h)]
            )
            if all(np.linalg.norm(pos - q) >= 2.5 for q in placed):
                break
        placed.append(pos)
        layout[oid] = pos
    layout[container_id(config)] = np.array(
        [rng.uniform(0.60 * w, 0.80 * w), rng.uniform(0.30 * h, 0.70 * h)]
    )
    instruction = f"{config.template} episode"
    return make_condition(instruction, layout)


# --------------------------------------------------------------------------
# Decoding
# --------------------------------------------------------------------------

def latent_from_flat(flat, config) -> np.ndarray:
    """One flat rollout latent as its (T, sites, 2) tensor."""
    return np.asarray(flat, dtype=np.float64).reshape(world_layout(config).tensor_shape())


def _carry(arm_xy, closed, start, reach):
    """Object paths (N, T, objects, 2) from starts (objects, 2) or (N, objects, 2).

    An object moves with an arm iff the grasp condition (near + closed) held
    at the previous frame and the gripper stays closed; distances are measured
    before the arm moves, so carrying does not depend on the carry speed. The
    left arm is tried first and the right arm takes over on a distance no
    larger, so the right arm wins a tie. Vectorised over rollouts, objects and
    arms; only the recurrence loops over frames.
    """
    n, t_count = arm_xy.shape[:2]
    path = np.empty((n, t_count) + start.shape[-2:])
    path[:, 0] = start
    held = closed[:, 1:] & closed[:, :-1]  # (N, T-1, arms)
    for t, any_held in enumerate(held.any(axis=(0, 2)).tolist(), start=1):
        if not any_held:  # no gripper stays closed into frame t: nothing moves
            path[:, t] = path[:, t - 1]
            continue
        gap = arm_xy[:, t - 1, None, :, :] - path[:, t - 1, :, None, :]  # (N, objects, arms, 2)
        # vecdot is the BLAS dot np.linalg.norm uses for a single vector; an
        # axis-wise norm sums the squares differently and can flip a tie in
        # the last bit, so the distances here are the single-vector ones
        d = np.sqrt(np.vecdot(gap, gap))
        ok = held[:, t - 1, None, :] & (d <= reach)
        right = ok[..., 1] & (~ok[..., 0] | (d[..., 1] <= d[..., 0]))
        left = ok[..., 0] & ~right
        path[:, t] = np.where(
            right[..., None], arm_xy[:, t, None, 1],
            np.where(left[..., None], arm_xy[:, t, None, 0], path[:, t - 1]),
        )
    return path


class RolloutDecoder:
    """Lifts rollout latents to traces; the site layout is resolved once."""

    def __init__(self, config: WorldConfig):
        self.config = config
        sites = site_ids(config)
        self.latent_shape = world_layout(config).tensor_shape()
        self.arm_sites = [sites.index(arm) for arm in ARMS]
        self.aux_site = sites.index(AUX_SITE)
        self.objects = object_ids(config)
        self.container = container_id(config)
        self.entity_ids = tuple(e.id for e in world_entities(config))
        self.radius = np.array(
            [config.arm_radius] * len(ARMS)
            + [config.object_radius] * len(self.objects)
            + [config.container_radius]
        )

    def __call__(self, latents, condition) -> TraceGroup:
        """Decode N latents (flat (N, D) or (N, T, sites, 2)) into a TraceGroup."""
        config = self.config
        z = np.asarray(latents, dtype=np.float64).reshape((-1,) + self.latent_shape)
        n, t_count = z.shape[:2]
        arm_xy = latent_to_world(z[:, :, self.arm_sites, :], config)  # (N, T, arms, 2)
        closed = z[:, :, self.aux_site, :] > 0.0  # channel k is arm k's gripper
        start = np.array([condition.position(oid) for oid in self.objects])
        obj_xy = _carry(arm_xy, closed, start, config.grasp_distance)
        cont_xy = np.broadcast_to(condition.position(self.container), (n, t_count, 1, 2))
        hx, hy = config.container_half_extents
        delta = np.abs(obj_xy - cont_xy)
        inside = (delta[..., 0] <= hx) & (delta[..., 1] <= hy)

        arms, objs = len(ARMS), len(self.objects)
        shape = (n, t_count, len(self.entity_ids))
        gripper = np.full(shape, -1, dtype=np.int8)
        gripper[:, :, :arms] = closed
        flags = np.full(shape + (1,), -1, dtype=np.int8)
        flags[:, :, arms:arms + objs, 0] = inside
        return TraceGroup(
            horizon=t_count,
            grid=tuple(config.grid),
            entity_ids=self.entity_ids,
            xy=np.concatenate([arm_xy, obj_xy, cont_xy], axis=2),
            radius=np.broadcast_to(self.radius, shape),
            gripper=gripper,
            flag_names=("in_container",),
            flags=flags,
            present=np.ones(shape, dtype=bool),
        )


def decode_trace(latent, config: WorldConfig, condition) -> TraceGroup:
    """Deterministically lift one (T, sites, 2) latent to a trace (a group of one row)."""
    return RolloutDecoder(config)(latent, condition).single()


# --------------------------------------------------------------------------
# Scripted demonstrations and pretraining
# --------------------------------------------------------------------------

def _homes(config):
    h, w = config.grid
    return {
        "arm_left": np.array([0.12 * w, 0.12 * h]),
        "arm_right": np.array([0.88 * w, 0.12 * h]),
    }


def _segment(path, start, end, t0, t1):
    """Linear waypoints filled into path rows t0..t1 inclusive (0-indexed)."""
    steps = t1 - t0
    for k in range(steps + 1):
        path[t0 + k] = start + (end - start) * (k / max(steps, 1))


def _outside_box_offset(half_extents, rng, margin_lo=1.0, margin_hi=3.0):
    """Random offset guaranteed to land outside the +-half_extents box."""
    hx, hy = half_extents
    angle = rng.uniform(0, 2 * math.pi)
    u = np.array([math.cos(angle), math.sin(angle)])
    margin = rng.uniform(margin_lo, margin_hi)
    scale = math.inf
    for component, extent in ((u[0], hx), (u[1], hy)):
        if abs(component) > 1e-9:
            scale = min(scale, (extent + margin) / abs(component))
    return scale * u


def _script_arm(config, pickup, target, t_grab, t_place):
    """Home -> pickup (grab) -> target (release) -> drift home."""
    t_count = config.horizon
    home = _homes(config)["arm_left"]
    path = np.empty((t_count, 2))
    _segment(path, home, pickup, 0, t_grab - 1)
    _segment(path, pickup, target, t_grab - 1, t_place - 1)
    hold_until = min(t_place + 1, t_count - 1)
    for t in range(t_place - 1, hold_until + 1):
        path[t] = target
    if hold_until + 1 < t_count:
        _segment(path, target, (target + home) / 2.0, hold_until, t_count - 1)
    return path


def _script_demo(config, condition, rng):
    """Arm and gripper rows of one demo latent, and its noise, drawn from rng.

    Perturbed variants fail the task on purpose. Object and container rows
    are left for ``_finish_demos``, which decodes many scripts at once.
    """
    t_count = config.horizon
    sites = site_ids(config)
    z = np.zeros((t_count, len(sites), 2))
    homes = _homes(config)
    cont = container_id(config)
    cont_pos = condition.position(cont)
    failing = rng.uniform() < config.fail_fraction
    mode = rng.choice(["miss", "no_grasp"]) if failing else "clean"

    closed_left = np.zeros(t_count, dtype=bool)
    if config.template == "persist_hold":
        obj = object_ids(config)[0]
        pickup = condition.position(obj)
        t_grab = 4
        if mode == "miss":
            # carry into the forbidden zone
            path = _script_arm(config, pickup, cont_pos, t_grab, 9)
            closed_left[t_grab - 1 :] = True
        elif mode == "no_grasp":
            # let go midway: open gripper and drift home
            path = _script_arm(config, pickup, pickup, t_grab, 8)
            closed_left[t_grab - 1 : 8] = True
            _segment(path, pickup, homes["arm_left"], 8, t_count - 1)
        else:
            path = np.empty((t_count, 2))
            _segment(path, homes["arm_left"], pickup, 0, t_grab - 1)
            path[t_grab - 1 :] = pickup
            closed_left[t_grab - 1 :] = True
        arm_left = path
        arm_right = np.repeat(homes["arm_right"][None, :], t_count, axis=0)
    else:
        objs = object_ids(config)
        arm_left = None
        arm_right = np.repeat(homes["arm_right"][None, :], t_count, axis=0)
        order = objs[:2] if config.template == "ordered_stack" else objs[:1]
        if config.template == "ordered_stack" and mode == "no_grasp":
            order = order[::-1]  # wrong order: second object placed first
        t_grab, span = 4, 5
        for k, obj in enumerate(order):
            pickup = condition.position(obj)
            target = cont_pos.copy()
            if mode == "miss" and k == len(order) - 1:
                target = cont_pos + _outside_box_offset(
                    config.container_half_extents, rng
                )
            if mode == "no_grasp" and config.template == "pick_place":
                # shift the grab point sideways so the approach and the carry
                # both stay clear of the object, with margin for demo jitter
                heading = cont_pos - pickup
                heading /= max(np.linalg.norm(heading), 1e-9)
                normal = np.array([-heading[1], heading[0]])
                gap = config.grasp_distance + rng.uniform(1.8, 3.2)
                pickup = pickup + gap * normal * rng.choice([-1.0, 1.0])
            grab = t_grab + k * span
            place = grab + 3
            if k == 0:
                arm_left = _script_arm(config, pickup, target, grab, place)
                closed_left[grab - 1 : place + 1] = True
            else:
                seg = _script_arm(config, pickup, target, grab, place)
                arm_left[grab - 2 :] = seg[grab - 2 :]
                closed_left[grab - 1 : min(place + 1, t_count)] = True

    for arm, path in (("arm_left", arm_left), ("arm_right", arm_right)):
        z[:, sites.index(arm), :] = world_to_latent(path, config)
    z[:, sites.index(AUX_SITE), 0] = np.where(closed_left, 0.8, -0.8)
    z[:, sites.index(AUX_SITE), 1] = -0.8
    return z, config.demo_noise * rng.standard_normal(z.shape)


def _finish_demos(config, conditions, scripts):
    """Flat demo latents (N, D) from scripts: objects decoded at once, noise added.

    Object rows hold the objects' decoded paths, so the latents are
    self-consistent; the container row holds its fixed position.
    """
    z = np.stack([script for script, _ in scripts])
    decode = RolloutDecoder(config)
    sites = site_ids(config)
    start = np.array([[c.position(oid) for oid in decode.objects] for c in conditions])
    arm_xy = latent_to_world(z[:, :, decode.arm_sites, :], config)
    obj_xy = _carry(arm_xy, z[:, :, decode.aux_site, :] > 0.0, start, config.grasp_distance)
    for k, oid in enumerate(decode.objects):
        z[:, :, sites.index(oid), :] = world_to_latent(obj_xy[:, :, k], config)
    cont = np.array([c.position(decode.container) for c in conditions])
    z[:, :, sites.index(decode.container), :] = world_to_latent(cont[:, None, :], config)
    z += np.stack([noise for _, noise in scripts])
    return z.reshape(len(scripts), -1)


def scripted_demo(config, condition, rng):
    """One demonstration latent; perturbed variants fail the task on purpose."""
    return _finish_demos(config, [condition], [_script_demo(config, condition, rng)])[0]


class Adam:
    """Minimal Adam updater over a flat parameter vector, in place.

    Every step is m = b1 m + (1-b1) g, v = b2 v + ((1-b2) g) g and
    params -= (lr (m/c1)) / (sqrt(v/c2) + eps), evaluated in that order into
    preallocated buffers, so it allocates nothing.
    """

    def __init__(self, n_params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self._num = np.empty(n_params)
        self._den = np.empty(n_params)
        self.step_count = 0

    def step(self, params, grad):
        """Update ``params`` in place by one Adam step on ``grad``."""
        self.step_count += 1
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= self.b1
        np.multiply(grad, 1 - self.b1, out=num)
        m += num
        v *= self.b2
        np.multiply(grad, 1 - self.b2, out=num)
        num *= grad
        v += num
        np.divide(m, 1 - self.b1**self.step_count, out=num)
        num *= self.lr
        np.divide(v, 1 - self.b2**self.step_count, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        params -= num


def make_model(config, rng):
    layout = world_layout(config)
    if config.model_kind == "linear":
        return LinearVelocity(layout.dim, condition_dim(config), rng=rng, scale=0.01)
    return MLPVelocity(layout.dim, condition_dim(config), config.hidden, rng=rng)


def pretrain_reference(config, rng=None) -> ModelBundle:
    """Flow-match a fresh model on scripted demos; bundle clones it three ways."""
    if rng is None:
        rng = np.random.default_rng((config.seed, 101))
    conditions, scripts = [], []
    for _ in range(config.demo_count):
        condition = sample_condition(config, rng)
        conditions.append(condition)
        scripts.append(_script_demo(config, condition, rng))
    demos = _finish_demos(config, conditions, scripts)
    conds = np.array([condition_embedding(config, c) for c in conditions])

    model = make_model(config, rng)
    opt = Adam(model.n_params, config.pretrain_lr)
    n = demos.shape[0]
    for _ in range(config.pretrain_steps):
        idx = rng.integers(0, n, size=config.pretrain_batch)
        x0 = demos[idx]
        cond = conds[idx]
        t = rng.uniform(T_MIN, 1.0, size=config.pretrain_batch)
        eps = rng.standard_normal(x0.shape)
        acts = model.forward(model.encode(interpolate(x0, eps, t), t, cond))
        adj = 2.0 * (acts[-1] - (eps - x0)) / config.pretrain_batch
        opt.step(model.params, model.vjp(acts, adj))
    return ModelBundle.from_model(model, ema_rate=config.ema_rate)


# --------------------------------------------------------------------------
# Online loop
# --------------------------------------------------------------------------

@dataclass
class MetricsSeries:
    columns: list
    rows: list
    summary: dict = field(default_factory=dict)


def _success_window(rows, tail):
    vals = [r["success_fraction"] for r in rows]
    k = max(1, min(tail, len(vals) // 2))
    return float(np.mean(vals[:k])), float(np.mean(vals[-k:]))


def run_online_loop(config: WorldConfig, spec: TaskSpec, bundle: ModelBundle,
                    loss_config: LossConfig) -> MetricsSeries:
    """Rollout, monitor, mask, and update for config.iterations steps.

    At DEBUG level each iteration logs its success fraction, the number of
    failing rollouts per clause id and the mask's temporal and spatial
    density.
    """
    check_spec_matches_world(spec, config)
    layout = world_layout(config)
    clause_entities = spec.clause_entities()
    n = config.group_size
    dim = layout.dim
    decode = RolloutDecoder(config)

    # fixed probe points for the off-mask drift metric
    probe_rng = np.random.default_rng((config.seed, 202))
    probe_conditions = [sample_condition(config, probe_rng) for _ in range(config.probe_count)]
    probe_embeds = np.array([condition_embedding(config, c) for c in probe_conditions])
    probe_eps = probe_rng.standard_normal((config.probe_count, dim))
    probe_x0 = np.array(
        [scripted_demo(config, c, probe_rng) for c in probe_conditions]
    )
    probe_t = probe_rng.uniform(0.05, 0.95, size=config.probe_count)
    probe_feats = bundle.current.encode(
        interpolate(probe_x0, probe_eps, probe_t), probe_t, probe_embeds
    )
    probe_v_ref = bundle.reference.forward(probe_feats)[-1]  # the reference is frozen

    rows = []
    for iteration in range(config.iterations):
        cond_rng = np.random.default_rng((config.seed, 1, iteration))
        condition = sample_condition(config, cond_rng)
        embed = condition_embedding(config, condition)

        eps = np.stack(
            [
                np.random.default_rng((config.seed, 2, iteration, i)).standard_normal(dim)
                for i in range(n)
            ]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            x0s = sample_rollout_group(bundle, embed, config.rollout_steps, eps)
        if not np.all(np.isfinite(x0s)):
            raise NonFiniteLoss(
                f"behavior policy produced non-finite rollouts at iteration {iteration}"
            )

        verdicts = run_group_monitor(spec, decode(x0s, condition))
        rewards = np.array([v.reward for v in verdicts])

        group_mask = build_group_mask(verdicts, layout, clause_entities)
        if log.isEnabledFor(logging.DEBUG):
            failing = np.sum([[bool(w) for _, w in v.violations] for v in verdicts], axis=0)
            log.debug(
                "iteration %d: success %.4f; failing rollouts %s; "
                "mask density temporal %.4f spatial %.4f",
                iteration, rewards.mean(),
                " ".join(f"{c.id}={k}" for c, k in zip(spec.clauses, failing.tolist())),
                group_mask.temporal.mean(), group_mask.spatial.mean())
        group = RolloutGroup(embed, x0s, rewards, layout, group_mask)
        batch = draw_sample_batch(group, np.random.default_rng((config.seed, 3, iteration)))

        with np.errstate(over="ignore", invalid="ignore"):
            total, grad, parts = loss_total(group, bundle, batch, loss_config)
        if not (np.isfinite(total) and np.all(np.isfinite(grad))):
            raise NonFiniteLoss(
                f"non-finite loss at iteration {iteration}: total={total}"
            )
        bundle.current.params -= config.learning_rate * grad
        bundle.ema_sync()

        inv_mask = 1.0 - group_mask.flat(layout)
        v_cur = bundle.current.forward(probe_feats)[-1]
        drift = float(np.mean(np.linalg.norm((v_cur - probe_v_ref) * inv_mask, axis=1)))

        rows.append(
            {
                "iteration": iteration,
                "success_fraction": float(rewards.mean()),
                "loss_total": float(total),
                "loss_nft": parts["nft"],
                "loss_cr": parts["cr"],
                "loss_kl": parts["kl"],
                "mask_density": group_mask.density(),
                "offmask_drift": drift,
            }
        )

    first, last = _success_window(rows, 50)
    drift_vals = [r["offmask_drift"] for r in rows]
    summary = {
        "iterations": config.iterations,
        "first_window_success": first,
        "last_window_success": last,
        "mean_offmask_drift": float(np.mean(drift_vals)),
        "final_offmask_drift": float(np.mean(drift_vals[-min(50, len(drift_vals)):])),
        "metrics_version": METRICS_VERSION,
    }
    return MetricsSeries(list(METRIC_COLUMNS), rows, summary)


def sample_decoded_rollouts(config: WorldConfig, bundle: ModelBundle, count, spec: TaskSpec):
    """Fresh rollouts from the behavior policy, decoded and scored under ``spec``."""
    rng = np.random.default_rng((config.seed, 404))
    decode = RolloutDecoder(config)
    out = []
    for _ in range(count):
        condition = sample_condition(config, rng)
        embed = condition_embedding(config, condition)
        eps = rng.standard_normal((1, world_layout(config).dim))
        with np.errstate(over="ignore", invalid="ignore"):
            x0s = sample_rollout_group(bundle, embed, config.rollout_steps, eps)
        trace = decode(x0s, condition)
        out.append((trace, run_monitor(spec, trace).reward))
    return out
