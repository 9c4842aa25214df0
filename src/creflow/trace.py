"""Task specifications, per-entity state traces, predicate streams, atlases.

Traces are arrays: a TraceGroup holds N traces' positions, radii, gripper
bits and flags, and a single trace is a TraceGroup of one row. Predicates
are evaluated on ground-truth geometric state, one (N, T) Boolean array per
atom over a whole group. The built-in evaluators, one row each of
``EVALUATORS`` (arity, params, function), are ``near`` (distance
threshold), ``inside`` (axis-aligned box attached to a container entity),
``grasp`` (near + closed gripper), ``flag`` (boolean attribute) and
``moving`` (frame-to-frame displacement). Each entity also has a
swept-disc raster on the trace grid; the union over frames forms its atlas
mask.
"""

import sys
from dataclasses import dataclass, field

import numpy as np

from . import backend, ltlf
from .errors import (
    HorizonMismatch,
    MissingAttribute,
    ShapeMismatch,
    SpecValidationError,
    UnknownEntity,
    UnknownEvaluator,
    UnknownPredicate,
)

ENTITY_KINDS = ("arm", "object", "container", "region")


@dataclass(frozen=True)
class EntityDecl:
    id: str
    kind: str
    half_extents: tuple = None  # containers/regions: box = position +- this


@dataclass(frozen=True)
class PredicateDecl:
    """A predicate of one of the ``EVALUATORS``, checked against its row once, when made.

    The arity must be the evaluator's and ``params`` (a mapping or pairs,
    kept as sorted pairs) exactly the params it reads, each of its kind;
    ``values`` maps each param to the value the evaluator reads.
    """

    name: str
    arity: int
    evaluator: str
    params: tuple = ()
    values: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.evaluator not in EVALUATORS:
            raise UnknownEvaluator(f"predicate {self.name!r} has unknown evaluator "
                                   f"{self.evaluator!r}; choose from {', '.join(EVALUATORS)}")
        arity, kinds, _ = EVALUATORS[self.evaluator]
        if self.arity != arity:
            raise SpecValidationError(f"predicate {self.name!r} has arity {self.arity}, "
                                      f"but evaluator {self.evaluator!r} takes {arity}")
        given = dict(self.params)
        for key in given:
            if key not in kinds:
                raise SpecValidationError(
                    f"predicate {self.name!r} has param {key!r}, "
                    f"which evaluator {self.evaluator!r} does not read")
        for key, kind in kinds.items():
            if key not in given:
                raise SpecValidationError(f"predicate {self.name!r} is missing param {key!r}")
            checked(given[key], kind, f"predicate {self.name!r} param {key!r}",
                    SpecValidationError)
        object.__setattr__(self, "params", tuple(sorted(given.items())))
        object.__setattr__(self, "values", given)


@dataclass(frozen=True)
class ClauseDecl:
    """A clause is its source text; ``formula`` is parsed from it."""

    id: str
    source: str
    formula: ltlf.Formula = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "formula", ltlf.parse_formula(self.source))


@dataclass(frozen=True)
class ConditionDecl:
    instruction: str
    layout: tuple  # sorted (entity id, (x, y)) pairs

    def position(self, entity_id):
        for eid, pos in self.layout:
            if eid == entity_id:
                return np.asarray(pos, dtype=float)
        raise UnknownEntity(f"no layout position for {entity_id}")


def make_condition(instruction, layout):
    items = tuple(sorted((k, (float(v[0]), float(v[1]))) for k, v in layout.items()))
    return ConditionDecl(instruction, items)


@dataclass(frozen=True)
class TaskSpec:
    """A task's declarations and clauses, fixed once made.

    ``entities``, ``predicates`` and ``clauses`` are stored as tuples, and the
    lookups and the compiled clause ``program`` are derived from them once, so
    a spec cannot be changed under its program; ``dataclasses.replace`` makes
    a new spec.
    """

    task_id: str
    entities: tuple
    predicates: tuple
    clauses: tuple
    condition: ConditionDecl

    def __post_init__(self):
        for name in ("entities", "predicates", "clauses"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "_entity_map", {e.id: e for e in self.entities})
        object.__setattr__(self, "_pred_map", {p.name: p for p in self.predicates})
        self.validate()
        object.__setattr__(self, "program", ltlf.ClauseProgram(c.formula for c in self.clauses))

    def entity(self, entity_id) -> EntityDecl:
        if entity_id not in self._entity_map:
            raise UnknownEntity(f"entity {entity_id!r} not declared")
        return self._entity_map[entity_id]

    def predicate(self, name) -> PredicateDecl:
        if name not in self._pred_map:
            raise UnknownPredicate(f"predicate {name!r} not declared")
        return self._pred_map[name]

    def entity_ids(self):
        return [e.id for e in self.entities]

    def clause_atoms(self):
        """Distinct atoms of all clauses, in order of first appearance."""
        return list(dict.fromkeys(a for c in self.clauses for a in c.formula.atoms()))

    def clause_entities(self):
        """Entity ids appearing in any clause's atoms."""
        return set().union(*(c.formula.entities() for c in self.clauses))

    def validate(self):
        if len(self.clauses) < 1:
            raise SpecValidationError("task spec needs at least one clause")
        if len(self._entity_map) != len(self.entities):
            raise SpecValidationError("duplicate entity ids")
        for what, names in (("predicate name", [p.name for p in self.predicates]),
                            ("clause id", [c.id for c in self.clauses])):
            repeated = _first_repeat(names)
            if repeated is not None:
                raise SpecValidationError(f"duplicate {what} {repeated!r}")
        for e in self.entities:
            if e.kind not in ENTITY_KINDS:
                raise SpecValidationError(f"unknown entity kind {e.kind!r}")
        for atom in self.clause_atoms():
            decl = self.predicate(atom.name)
            if len(atom.args) != decl.arity:
                raise SpecValidationError(
                    f"atom {atom} has arity {len(atom.args)}, declared {decl.arity}"
                )
            for arg in atom.args:
                self.entity(arg)
            if decl.evaluator == "inside":
                outer = atom.args[1]
                _box(outer, self.entity(outer), SpecValidationError)


def _first_repeat(names):
    """The first name that occurs a second time, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)
    return None


@dataclass
class EntityState:
    """One entity at one frame: the per-frame form traces are built from and viewed as."""

    position: np.ndarray  # world units, shape (2,)
    radius: float
    gripper_closed: bool = None  # arms only
    attribute_flags: dict = field(default_factory=dict)


@dataclass(eq=False)
class TraceGroup:
    """N traces over one entity set, horizon and grid, stored as arrays.

    Entity ``entity_ids[e]`` is column ``e``. Absent entries (an entity missing
    from a frame, an entity without a gripper, a flag not set on an entity)
    are marked in ``present`` and by -1 in ``gripper`` and ``flags``; they
    raise when a predicate or the monitor reads them. A single trace is a
    group of one row; ``frames`` and ``positions`` read that row
    and raise ShapeMismatch on any other row count.
    """

    horizon: int
    grid: tuple  # (H, W)
    entity_ids: tuple
    xy: np.ndarray  # (N, T, E, 2) world units
    radius: np.ndarray  # (N, T, E)
    gripper: np.ndarray  # (N, T, E) int8: 1 closed, 0 open, -1 no gripper
    flag_names: tuple
    flags: np.ndarray  # (N, T, E, len(flag_names)) int8: 1 set, 0 clear, -1 absent
    present: np.ndarray  # (N, T, E) bool

    def __post_init__(self):
        frames = self.xy.shape[1]
        if self.horizon < 1 or frames != self.horizon:
            raise HorizonMismatch(f"trace has {frames} frames, horizon {self.horizon}")
        h, w = self.grid
        if h < 4 or w < 4:
            raise SpecValidationError(f"grid must be at least 4x4, got {self.grid}")
        self._columns = {eid: e for e, eid in enumerate(self.entity_ids)}
        # ids present in every frame of every row; the arrays are not modified later
        everywhere = self.present.all(axis=(0, 1)).tolist()
        self._complete = {eid for eid, ok in zip(self.entity_ids, everywhere) if ok}

    @classmethod
    def from_frames(cls, horizon, frames, grid):
        """A group of one trace from per-frame dicts of entity id -> EntityState."""
        ids = tuple(dict.fromkeys(eid for frame in frames for eid in frame))
        names = tuple(dict.fromkeys(
            k for frame in frames for s in frame.values() for k in s.attribute_flags))
        columns = {eid: e for e, eid in enumerate(ids)}
        slots = {name: k for k, name in enumerate(names)}
        shape = (1, len(frames), len(ids))
        xy = np.zeros(shape + (2,))
        radius = np.zeros(shape)
        gripper = np.full(shape, -1, dtype=np.int8)
        flags = np.full(shape + (len(names),), -1, dtype=np.int8)
        present = np.zeros(shape, dtype=bool)
        for t, frame in enumerate(frames):
            for eid, s in frame.items():
                e = columns[eid]
                present[0, t, e] = True
                xy[0, t, e] = s.position
                radius[0, t, e] = s.radius
                if s.gripper_closed is not None:
                    gripper[0, t, e] = bool(s.gripper_closed)
                for name, value in s.attribute_flags.items():
                    flags[0, t, e, slots[name]] = bool(value)
        return cls(horizon, grid, ids, xy, radius, gripper, names, flags, present)

    def __len__(self):
        return self.xy.shape[0]

    def row(self, i) -> "TraceGroup":
        """Row ``i`` as a group of one (array views, no copy)."""
        s = slice(i, i + 1)
        return TraceGroup(self.horizon, self.grid, self.entity_ids, self.xy[s], self.radius[s],
                          self.gripper[s], self.flag_names, self.flags[s], self.present[s])

    def require(self, entity_ids):
        """Raise UnknownEntity for the earliest frame, then the first id, absent in a row."""
        if self._complete.issuperset(entity_ids):
            return
        cols = [self._columns.get(eid) for eid in entity_ids]
        absent = np.stack(
            [np.ones(self.horizon, bool) if c is None else ~self.present[..., c].all(axis=0)
             for c in cols], axis=1)
        t, k = np.argwhere(absent)[0]
        raise UnknownEntity(f"entity {entity_ids[k]!r} absent from frame {t + 1}")

    def column(self, entity_id) -> int:
        """Column of an entity that is present in every frame of every row."""
        if entity_id not in self._complete:
            self.require([entity_id])
        return self._columns[entity_id]

    def single(self) -> "TraceGroup":
        """This group, checked to hold one trace: a trace is a group of one row."""
        if len(self) != 1:
            raise ShapeMismatch(f"a trace is a group of one row, got {len(self)}")
        return self

    @property
    def frames(self):
        """Per frame: entity id -> EntityState, built from the arrays on each read."""
        self.single()
        present, xy, radius = self.present[0].tolist(), self.xy[0], self.radius[0].tolist()
        gripper, flags = self.gripper[0].tolist(), self.flags[0].tolist()
        frames = []
        for t in range(self.horizon):
            frame = {}
            for e, eid in enumerate(self.entity_ids):
                if not present[t][e]:
                    continue
                closed = gripper[t][e]
                frame[eid] = EntityState(
                    position=xy[t, e],
                    radius=radius[t][e],
                    gripper_closed=None if closed < 0 else bool(closed),
                    attribute_flags={name: bool(v) for name, v in zip(self.flag_names, flags[t][e])
                                     if v >= 0},
                )
            frames.append(frame)
        return frames

    def positions(self, entity_id) -> np.ndarray:
        return self.single().xy[0, :, self.column(entity_id)].copy()


@dataclass
class Atlas:
    masks: dict  # entity id -> (H, W) bool raster


# --------------------------------------------------------------------------
# Predicate evaluation
# --------------------------------------------------------------------------

def _length(v):
    """Euclidean length of (..., 2) vectors; bit-equal to np.linalg.norm(v, axis=-1)."""
    square = v * v
    return np.sqrt(square[..., 0] + square[..., 1])


def _first_frame(bad):
    """1-indexed first frame that is bad in some row of an (N, T) mask."""
    return int(bad.any(axis=0).argmax()) + 1


def _near(group, args, entities, distance):
    p1, p2 = (group.xy[:, :, group.column(eid)] for eid in args)
    return _length(p1 - p2) <= distance


def _box(outer, outer_decl, error):
    """The half extents of an ``inside`` atom's outer entity; ``error`` if it has none."""
    if outer_decl.half_extents is None:
        raise error(f"entity {outer!r} has no half_extents box")
    return outer_decl.half_extents


def _inside(group, args, entities):
    inner, outer = args
    if entities is None:
        raise UnknownEvaluator("'inside' needs entity declarations")
    outer_decl = entities[outer] if not isinstance(entities, TaskSpec) else entities.entity(outer)
    hx, hy = _box(outer, outer_decl, MissingAttribute)
    delta = np.abs(group.xy[:, :, group.column(inner)] - group.xy[:, :, group.column(outer)])
    return (delta[..., 0] <= hx) & (delta[..., 1] <= hy)


def _grasp(group, args, entities, distance):
    arm, obj = args
    a, o = group.column(arm), group.column(obj)
    closed = group.gripper[:, :, a]
    if (closed < 0).any():
        raise MissingAttribute(
            f"entity {arm!r} has no gripper state at frame {_first_frame(closed < 0)}")
    return (_length(group.xy[:, :, a] - group.xy[:, :, o]) <= distance) & (closed > 0)


def _flag(group, args, entities, flag):
    (eid,) = args
    e = group._columns.get(eid)
    if e is None:
        raise UnknownEntity(f"entity {eid!r} absent from frame 1")
    if flag in group.flag_names:
        values = group.flags[:, :, e, group.flag_names.index(flag)]
    else:
        values = np.full(group.present.shape[:2], -1)
    if (values < 0).any():
        # the earliest bad frame decides: a missing entity, else a missing flag
        t = _first_frame(values < 0)
        if not group.present[:, t - 1, e].all():
            raise UnknownEntity(f"entity {eid!r} absent from frame {t}")
        raise MissingAttribute(f"flag {flag!r} absent on {eid!r} at frame {t}")
    return values > 0


def _moving(group, args, entities, speed):
    (eid,) = args
    pos = group.xy[:, :, group.column(eid)]
    if group.horizon == 1:
        return np.zeros((len(group), 1), dtype=bool)
    step = np.empty(pos.shape[:2], dtype=bool)  # frame 1 takes frame 2's step
    np.greater(_length(pos[:, 1:] - pos[:, :-1]), speed, out=step[:, 1:])
    step[:, 0] = step[:, 1]
    return step


def finite_number(value) -> bool:
    """True for a finite int or float, however large the int; a bool is not a number."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _integer(value) -> bool:
    return type(value) is int


def _list_of(check, length=None):
    """The check for a list of values ``check`` accepts, of ``length`` items if given."""
    return lambda v: (type(v) is list and (length is None or len(v) == length)
                      and all(map(check, v)))


# Every kind of value an input field or predicate param may hold: what a value
# of the kind must be -> its check, which takes no other type and coerces nothing.
KINDS = {
    "a finite number": finite_number,
    "a finite number >= 0": lambda v: finite_number(v) and v >= 0,
    "an integer": _integer,
    "a string": lambda v: type(v) is str,
    "true or false": lambda v: type(v) is bool,
    "two finite numbers": _list_of(finite_number, 2),
    "two integers": _list_of(_integer, 2),
    "a list of integers": _list_of(_integer),
}


def checked(value, kind, what, error):
    """``value`` if it is of ``kind`` (a key of KINDS); otherwise ``error`` naming ``what``."""
    if not KINDS[kind](value):
        raise error(f"{what} must be {kind}, got {value!r}")
    return value


# The built-in evaluators, each the one definition of its predicates: name ->
# (arity, {param: kind}, function of (group, entity ids, entity declarations,
# **param values) giving an (N, T) Boolean array).
EVALUATORS = {
    "near": (2, {"distance": "a finite number >= 0"}, _near),
    "grasp": (2, {"distance": "a finite number >= 0"}, _grasp),
    "inside": (2, {}, _inside),
    "moving": (1, {"speed": "a finite number >= 0"}, _moving),
    "flag": (1, {"flag": "a string"}, _flag),
}


def eval_group_predicate(decl: PredicateDecl, group: TraceGroup, atom: ltlf.Atom, entities=None):
    """Evaluate one entity-grounded predicate on every row: an (N, T) Boolean array.

    ``entities`` maps entity id to EntityDecl and is required by evaluators
    that read declaration-level geometry (``inside``).
    """
    if len(atom.args) != decl.arity:
        raise SpecValidationError(f"atom {atom} does not match arity {decl.arity}")
    return EVALUATORS[decl.evaluator][2](group, atom.args, entities, **decl.values)


def eval_predicate(decl: PredicateDecl, trace: TraceGroup, atom: ltlf.Atom, entities=None):
    """Evaluate one entity-grounded predicate on one trace: a length-T Boolean stream."""
    return eval_group_predicate(decl, trace.single(), atom, entities)[0]


def build_atlas(trace: TraceGroup, entity_ids) -> Atlas:
    """Swept-disc rasters: cell set iff its center is within radius at some frame.

    One kernel call rasterises every entity; a multi-row group raises
    ShapeMismatch and an id absent from some frame raises UnknownEntity.
    """
    trace = trace.single()
    cols = [trace.column(eid) for eid in entity_ids]
    h, w = trace.grid
    rasters = backend.sweep_disc_mask(
        trace.xy[0][:, cols].swapaxes(0, 1), trace.radius[0][:, cols].T, h, w)
    return Atlas(dict(zip(entity_ids, rasters)))
