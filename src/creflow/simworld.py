"""Synthetic bimanual manipulation world and the online RL loop.

Rollout latents are (T, sites, 2) tensors: one site per task entity plus a
reserved row whose two channels carry the arms' gripper scalars (>0 means
closed). Decoding reads arm positions directly; objects follow the nearest
grasping arm while the grasp condition holds and stay put otherwise, and the
container is static at its layout position. ``RolloutDecoder`` decodes every
latent, sampled or scripted, a group at a time into a TraceGroup. World
coordinates are an affine rescale of latent units so latents live at unit scale.

Each task template is one row of ``TEMPLATES``; the task spec, the condition's
instruction, the config's limits and the objects a demo script moves are read
from it. The reference policy is pretrained by plain flow matching on scripted
demonstrations (a mix of successful and perturbed-failing trajectories), so
the initial monitor success fraction sits mid-range and groups are mixed.
The online loop then alternates rollout sampling, monitoring, group-mask
construction and one gradient step on the combined objective.
"""

import logging
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteLoss, ShapeMismatch, SpecValidationError
from .flow import (
    T_MIN,
    LinearVelocity,
    MLPVelocity,
    ModelBundle,
    interpolate,
    sample_rollout_group,
)
from .mask import LatentLayout, build_group_mask
from .monitor import run_group_monitor
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
    check_settings,
    make_condition,
    setting,
)

log = logging.getLogger(__name__)

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


@dataclass(frozen=True)
class Template:
    """A task template as data; a world takes the first n_objects of ``objects``.

    The instruction names each of the first ``named`` objects once, the clauses
    constrain exactly those, and the rest are distractors. Patterns are
    str.format strings over {o[k]} (object k), {c} (the container) and {held[k]}
    (either arm grasps object k); ``min_horizon`` is the shortest horizon the
    demo script fits in.
    """

    objects: tuple
    container: str
    instruction: str
    clauses: tuple  # (id, formula) pattern pairs
    min_horizon: int

    @property
    def named(self):
        return self.instruction.count("{o[")

    def fill(self, pattern):
        held = ["(" + " | ".join(f"grasp({arm}, {o})" for arm in ARMS) + ")" for o in self.objects]
        return pattern.format(o=self.objects, c=self.container, held=held)


# Ordered, so iterating gives the names in one-hot order and hypothesis can sample them.
TEMPLATES = OrderedDict(
    pick_place=Template(
        ("cube", "cube_b", "cube_c"), "bin", "put the {o[0]} into the {c}", (
            ("terminal_{o[0]}", "F G inside({o[0]}, {c})"),
            ("causal_{o[0]}", "G (moving({o[0]}) -> {held[0]})"),
            ("order_{o[0]}", "!inside({o[0]}, {c}) U {held[0]}"),
        ), min_horizon=8),
    ordered_stack=Template(
        ("cube_a", "cube_b", "cube_c"), "pad", "stack {o[0]} then {o[1]} on the {c}", (
            ("order_pair", "!inside({o[1]}, {c}) U inside({o[0]}, {c})"),
            ("terminal_{o[0]}", "F G inside({o[0]}, {c})"),
            ("causal_{o[0]}", "G (moving({o[0]}) -> {held[0]})"),
            ("terminal_{o[1]}", "F G inside({o[1]}, {c})"),
            ("causal_{o[1]}", "G (moving({o[1]}) -> {held[1]})"),
        ), min_horizon=12),
    persist_hold=Template(
        ("orb", "orb_b", "orb_c"), "bin", "hold the {o[0]} and keep it out of the {c}", (
            ("hold_to_end", "F G {held[0]}"),
            ("no_unaided_motion", "G (!moving({o[0]}) | {held[0]})"),
            ("avoid_zone", "G !inside({o[0]}, {c})"),
        ), min_horizon=9),
)


@dataclass
class WorldConfig:
    """Each field's default, kind, bounds and choices are declared on it (``setting``);
    ``__post_init__`` adds the checks that read more than one field."""

    template: str = setting("pick_place", "a string", choices=tuple(TEMPLATES))
    horizon: int = setting(12, "an integer", least=8, most=32)
    grid: tuple = setting((24, 24), "two integers", least=4)
    n_objects: int = setting(1, "an integer", least=1)
    arm_radius: float = setting(0.9, "a finite number", least=0)
    object_radius: float = setting(0.7, "a finite number", least=0)
    container_radius: float = setting(1.2, "a finite number", least=0)
    container_half_extents: tuple = setting((3.0, 3.0), "two finite numbers", least=0)
    grasp_distance: float = setting(1.8, "a finite number", least=0)
    move_speed: float = setting(0.3, "a finite number", least=0)
    group_size: int = setting(8, "an integer", least=2)
    iterations: int = setting(300, "an integer", least=1)
    seed: int = setting(0, "an integer", least=0)
    rollout_steps: int = setting(16, "an integer", least=1)
    model_kind: str = setting("linear", "a string", choices=("linear", "mlp"))
    hidden: tuple = setting((64,), "a list of integers", least=1)
    learning_rate: float = setting(3e-4, "a finite number", least=0)
    ema_rate: float = setting(1.0, "a finite number", least=0, most=1)
    demo_count: int = setting(384, "an integer", least=1)
    demo_noise: float = setting(0.06, "a finite number", least=0)
    fail_fraction: float = setting(0.5, "a finite number", least=0, most=1)
    pretrain_steps: int = setting(1500, "an integer", least=0)
    pretrain_lr: float = setting(0.02, "a finite number", least=0)
    pretrain_batch: int = setting(32, "an integer", least=1)
    probe_count: int = setting(16, "an integer", least=1)

    def __post_init__(self):
        check_settings(self)
        row = TEMPLATES[self.template]
        for name, least in (("n_objects", row.named), ("horizon", row.min_horizon)):
            if getattr(self, name) < least:
                raise SpecValidationError(
                    f"{self.template} needs {name} >= {least}, got {getattr(self, name)}")
        if self.n_objects > len(row.objects):
            raise SpecValidationError(
                f"{self.template} needs n_objects <= {len(row.objects)}, got {self.n_objects}")
        # Objects start at x <= 0.42 W and the container at x >= 0.60 W (sample_condition),
        # so the container box reaches the objects' band unless 0.18 W exceeds its half-width.
        width, half_width = self.grid[1], self.container_half_extents[0]
        if 0.18 * width <= half_width:
            raise SpecValidationError(
                f"grid width {width} is too narrow for container_half_extents[0] {half_width}: "
                f"needs 0.18 * width > {half_width}")


def world_entities(config):
    row = TEMPLATES[config.template]
    ents = [EntityDecl(arm, "arm") for arm in ARMS]
    ents += [EntityDecl(oid, "object") for oid in row.objects[:config.n_objects]]
    ents.append(EntityDecl(row.container, "container", tuple(config.container_half_extents)))
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
    run_group_monitor(spec, RolloutDecoder(config)(np.zeros(world_layout(config).dim), [condition]))


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
    row = TEMPLATES[config.template]
    one_hot = np.eye(len(TEMPLATES))[list(TEMPLATES).index(config.template)]
    coords = [world_to_latent(condition.position(eid), config)
              for eid in row.objects[:config.n_objects] + (row.container,)]
    return np.concatenate([one_hot, *coords])


def condition_dim(config):
    return len(TEMPLATES) + 2 * (config.n_objects + 1)


# --------------------------------------------------------------------------
# Task specs
# --------------------------------------------------------------------------

def build_task_spec(config) -> TaskSpec:
    """The template's entities, predicates and filled-in clauses."""
    row = TEMPLATES[config.template]
    predicates = [
        PredicateDecl("grasp", 2, "grasp", {"distance": config.grasp_distance}),
        PredicateDecl("inside", 2, "inside", {}),
        PredicateDecl("moving", 1, "moving", {"speed": config.move_speed}),
    ]
    return TaskSpec(
        task_id=config.template,
        entities=world_entities(config),
        predicates=predicates,
        clauses=[ClauseDecl(row.fill(cid), row.fill(src)) for cid, src in row.clauses],
        condition=sample_condition(config, np.random.default_rng(config.seed)),
    )


def sample_condition(config, rng):
    """The template's instruction and a random initial layout: objects on the
    left band, container on the right."""
    row = TEMPLATES[config.template]
    h, w = config.grid
    layout = {}
    for oid in row.objects[:config.n_objects]:
        for _ in range(64):
            pos = np.array(
                [rng.uniform(0.18 * w, 0.42 * w), rng.uniform(0.28 * h, 0.72 * h)]
            )
            if all(np.linalg.norm(pos - q) >= 2.5 for q in layout.values()):
                break
        layout[oid] = pos
    layout[row.container] = np.array(
        [rng.uniform(0.60 * w, 0.80 * w), rng.uniform(0.30 * h, 0.70 * h)]
    )
    return make_condition(row.fill(row.instruction), layout)


# --------------------------------------------------------------------------
# Decoding
# --------------------------------------------------------------------------

def latent_from_flat(flat, config) -> np.ndarray:
    """One flat rollout latent as its (T, sites, 2) tensor."""
    return np.asarray(flat, dtype=np.float64).reshape(world_layout(config).tensor_shape())


def _carry(arm_xy, closed, start, reach):
    """Object paths (N, T, objects, 2) from per-row starts (N, objects, 2).

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
    """Lifts every latent (rollout or demo) to a trace; the site layout is resolved once."""

    def __init__(self, config: WorldConfig):
        self.config = config
        sites = site_ids(config)
        self.latent_shape = world_layout(config).tensor_shape()
        self.arm_sites = [sites.index(arm) for arm in ARMS]
        self.aux_site = sites.index(AUX_SITE)
        self.entity_ids = tuple(e.id for e in world_entities(config))
        self.placed = self.entity_ids[len(ARMS):]  # the objects, then the container
        self.radius = np.array([config.arm_radius] * len(ARMS)
                               + [config.object_radius] * (len(self.placed) - 1)
                               + [config.container_radius])

    def __call__(self, latents, conditions) -> TraceGroup:
        """Decode N latents (flat (N, D) or (N, T, sites, 2)) into a TraceGroup under one
        condition for the whole group or one per row; any other count raises ShapeMismatch."""
        config = self.config
        z = np.asarray(latents, dtype=np.float64).reshape((-1,) + self.latent_shape)
        n, t_count = z.shape[:2]
        if len(conditions) not in (1, n):
            raise ShapeMismatch(f"{len(conditions)} conditions for {n} latents: give 1 or {n}")
        layout = np.broadcast_to([[c.position(eid) for eid in self.placed] for c in conditions],
                                 (n, len(self.placed), 2))  # per row: object starts, container
        arm_xy = latent_to_world(z[:, :, self.arm_sites, :], config)  # (N, T, arms, 2)
        closed = z[:, :, self.aux_site, :] > 0.0  # channel k is arm k's gripper
        obj_xy = _carry(arm_xy, closed, layout[:, :-1], config.grasp_distance)
        cont_xy = np.broadcast_to(layout[:, None, -1:], (n, t_count, 1, 2))
        inside = np.all(np.abs(obj_xy - cont_xy) <= config.container_half_extents, axis=-1)

        arms, objs = len(ARMS), obj_xy.shape[2]
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
    return RolloutDecoder(config)(latent, [condition]).single()


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
    path[t0:t1 + 1] = start + (end - start) * (np.arange(steps + 1) / max(steps, 1))[:, None]


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
    are left for ``_finish_demos``, which decodes many scripts as one group.
    """
    t_count = config.horizon
    sites = site_ids(config)
    z = np.zeros((t_count, len(sites), 2))
    homes = _homes(config)
    row = TEMPLATES[config.template]
    moved = row.objects[:row.named]  # the distractors stay put
    cont_pos = condition.position(row.container)
    failing = rng.uniform() < config.fail_fraction
    mode = rng.choice(["miss", "no_grasp"]) if failing else "clean"

    closed_left = np.zeros(t_count, dtype=bool)
    if config.template == "persist_hold":
        pickup = condition.position(moved[0])
        t_grab = 4
        if mode == "miss":
            # carry into the forbidden zone
            arm_left = _script_arm(config, pickup, cont_pos, t_grab, 9)
            closed_left[t_grab - 1 :] = True
        elif mode == "no_grasp":
            # let go midway: open gripper and drift home
            arm_left = _script_arm(config, pickup, pickup, t_grab, 8)
            closed_left[t_grab - 1 : 8] = True
            _segment(arm_left, pickup, homes["arm_left"], 8, t_count - 1)
        else:
            arm_left = np.empty((t_count, 2))
            _segment(arm_left, homes["arm_left"], pickup, 0, t_grab - 1)
            arm_left[t_grab - 1 :] = pickup
            closed_left[t_grab - 1 :] = True
    else:
        if config.template == "ordered_stack" and mode == "no_grasp":
            moved = moved[::-1]  # wrong order: second object placed first
        t_grab, span = 4, 5
        for k, obj in enumerate(moved):
            pickup = condition.position(obj)
            target = cont_pos.copy()
            if mode == "miss" and k == len(moved) - 1:
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
            seg = _script_arm(config, pickup, target, grab, place)
            if k == 0:
                arm_left = seg
            else:  # the next carry takes over one frame before it reaches its object
                arm_left[grab - 2 :] = seg[grab - 2 :]
            closed_left[grab - 1 : place + 1] = True

    z[:, sites.index("arm_left"), :] = world_to_latent(arm_left, config)
    z[:, sites.index("arm_right"), :] = world_to_latent(homes["arm_right"], config)  # stays home
    z[:, sites.index(AUX_SITE), 0] = np.where(closed_left, 0.8, -0.8)
    z[:, sites.index(AUX_SITE), 1] = -0.8
    return z, config.demo_noise * rng.standard_normal(z.shape)


def _finish_demos(config, conditions, scripts):
    """Flat demo latents (N, D) from scripts, one condition each, with noise added.

    The scripts decode as one group, and the decoded object and container paths
    fill their rows (site e is entity column e), so the latents are self-consistent."""
    z = np.stack([script for script, _ in scripts])
    xy = RolloutDecoder(config)(z, conditions).xy[:, :, len(ARMS):]
    z[:, :, len(ARMS):len(ARMS) + xy.shape[2]] = world_to_latent(xy, config)
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


def pretrain_reference(config) -> ModelBundle:
    """Flow-match a fresh model on scripted demos; bundle clones it three ways."""
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


def _norm(v):
    """The Euclidean norm of ``v``; None if ``v`` is None or the norm is not finite."""
    if v is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(v))
    return norm if math.isfinite(norm) else None


def _diverged(message, iteration, rows, params, rewards=None, grad=None):
    """A NonFiniteLoss carrying the loop's state at ``iteration`` for the diagnostic dump."""
    return NonFiniteLoss(message, {
        "iteration": iteration, "rows": rows,
        "rewards": None if rewards is None else rewards.tolist(),
        "param_norm": _norm(params), "grad_norm": _norm(grad)})


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
    probe_x0 = _finish_demos(config, probe_conditions,
                             [_script_demo(config, c, probe_rng) for c in probe_conditions])
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
            raise _diverged(
                f"behavior policy produced non-finite rollouts at iteration {iteration}",
                iteration, rows, bundle.current.params)

        verdicts = run_group_monitor(spec, decode(x0s, [condition]))
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
            raise _diverged(f"non-finite loss at iteration {iteration}: total={total}",
                            iteration, rows, bundle.current.params, rewards, grad)
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
    """(one-row trace, reward) for ``count`` fresh rollouts of the behavior policy.

    Each is integrated alone, so its bits cannot depend on how a batched product
    is split; all are then decoded and scored under ``spec`` as one group."""
    rng = np.random.default_rng((config.seed, 404))
    conditions, x0s = [], []
    for _ in range(count):
        conditions.append(sample_condition(config, rng))
        embed = condition_embedding(config, conditions[-1])
        eps = rng.standard_normal((1, world_layout(config).dim))
        with np.errstate(over="ignore", invalid="ignore"):
            x0s.append(sample_rollout_group(bundle, embed, config.rollout_steps, eps))
    group = RolloutDecoder(config)(np.concatenate(x0s), conditions)
    return [(group.row(i), v.reward) for i, v in enumerate(run_group_monitor(spec, group))]
