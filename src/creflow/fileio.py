"""Structured-text file formats and machine-readable reports.

Human-edited inputs (task specs, traces, experiment configs) are YAML
documents carrying ``schema_version`` and ``kind`` fields; reports (verdicts,
mask dumps, verification results, training summaries) are JSON. Metrics are
CSV with a versioned, append-only column set.
"""

import csv
import json
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np
import yaml
from yaml.events import (
    DocumentEndEvent,
    DocumentStartEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode
from yaml.representer import RepresenterError

from .errors import (
    CreflowError,
    FormulaSyntaxError,
    HorizonMismatch,
    SchemaError,
    SpecValidationError,
)
from .mask import CreditMask, LatentLayout
from .objectives import LossConfig
from .simworld import METRIC_COLUMNS, METRICS_VERSION, MetricsSeries, WorldConfig
from .trace import (
    KINDS,
    ClauseDecl,
    EntityDecl,
    EntityState,
    PredicateDecl,
    TaskSpec,
    TraceGroup,
    checked,
    make_condition,
)

try:
    from yaml import CSafeDumper as YamlDumper, CSafeLoader as YamlLoader
except ImportError:  # PyYAML built without libyaml
    from yaml import SafeDumper as YamlDumper, SafeLoader as YamlLoader

SCHEMA_VERSION = 1


# Plain documents hold mappings with string keys, lists, and scalars of these tags.
_TAG = "tag:yaml.org,2002:"
_STR, _FLOAT, _MAP, _SEQ = _TAG + "str", _TAG + "float", _TAG + "map", _TAG + "seq"
_PLAIN_SCALAR_TAGS = {_STR, _FLOAT, _TAG + "int", _TAG + "bool", _TAG + "null"}
_PLAIN_SCALAR_TYPES = (str, float, int, bool, type(None))


class _NotPlain(Exception):
    """The document uses a YAML feature plain documents leave out."""


_KEY = object()  # an open mapping's next node is a key


def _plain_document(loader):
    """The one document of ``loader``'s event stream, built straight from its events.

    A plain scalar is resolved by the loader's implicit resolvers and converted
    by its constructor for that tag; a quoted or block scalar is a string.
    Anything else (an anchor, alias or explicit tag, a non-string key, a
    scalar of another tag, a second document) raises _NotPlain.
    """
    resolve, constructors = loader.resolve, loader.yaml_constructors
    node = ScalarNode(None, None)  # the constructors read a scalar's text from a node
    known = {}  # plain scalar text -> its value
    get_event = loader.get_event
    get_event()  # stream start
    if type(get_event()) is StreamEndEvent:
        return None
    stack = []  # [collection, key] per open collection: key None in a list, _KEY awaiting one
    while True:
        event = get_event()
        kind = type(event)
        if kind is ScalarEvent:
            if event.anchor is not None or event.tag is not None:
                raise _NotPlain
            text = event.value
            if not event.implicit[0]:  # quoted or block
                value = text
            elif text in known:
                value = known[text]
            else:
                tag = resolve(ScalarNode, text, (True, False))
                if tag not in _PLAIN_SCALAR_TAGS:
                    raise _NotPlain
                node.value = text
                value = known[text] = constructors[tag](loader, node)
        elif kind is MappingStartEvent or kind is SequenceStartEvent:
            if event.anchor is not None or event.tag is not None or (
                    stack and stack[-1][1] is _KEY):
                raise _NotPlain
            stack.append([{}, _KEY] if kind is MappingStartEvent else [[], None])
            continue
        elif kind is MappingEndEvent or kind is SequenceEndEvent:
            value = stack.pop()[0]
        elif kind is DocumentEndEvent:
            break
        else:  # an alias
            raise _NotPlain
        if not stack:
            doc = value
            continue
        top = stack[-1]
        collection, key = top
        if key is None:
            collection.append(value)
        elif key is _KEY:
            if type(value) is not str:
                raise _NotPlain
            top[1] = value
        else:
            collection[key] = value  # a repeated key keeps its last value
            top[1] = _KEY
    if type(get_event()) is not StreamEndEvent:
        raise _NotPlain
    return doc


def _read_yaml(fh):
    """The document in ``fh``: from its events if plain, else (or on any error) by ``yaml.load``.

    Either way the result, and the error raised for a bad file, is
    ``yaml.load(fh, Loader=YamlLoader)``'s: that call builds the whole node
    graph before it converts a scalar, so a file with both a bad scalar
    (``0x_``) and bad syntax after it fails on the syntax.
    """
    loader = YamlLoader(fh)
    try:
        return _plain_document(loader)
    except (_NotPlain, yaml.YAMLError, ValueError):  # ValueError: also UnicodeDecodeError
        pass
    finally:
        loader.dispose()
    fh.seek(0)
    return yaml.load(fh, Loader=YamlLoader)


def _load_yaml(path, kind):
    try:
        with open(path) as fh:
            doc = _read_yaml(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as err:
        raise SchemaError(f"{path}: malformed YAML: {err}") from err
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected a mapping at top level")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"{path}: schema_version {doc.get('schema_version')!r}, expected {SCHEMA_VERSION}"
        )
    if doc.get("kind") != kind:
        raise SchemaError(f"{path}: kind {doc.get('kind')!r}, expected {kind!r}")
    return doc


def _dump_plain_yaml(path, doc):
    """Write a plain document as ``yaml.dump(doc, Dumper=YamlDumper, sort_keys=False)`` does.

    Emits the serializer's events straight from ``doc``: scalar text from the
    dumper's representers and implicit flags as its serializer sets them, each
    distinct text resolved once and every scalar but a float represented once.
    Plain means dicts, lists, str, int, float, bool and None, with no dict or
    list met twice (``yaml.dump`` would write an alias); a value of another
    type raises the RepresenterError ``yaml.dump`` raises for a value it cannot
    represent.
    """
    with open(path, "w") as fh:
        dumper = YamlDumper(fh, default_flow_style=False, sort_keys=False)
        represent, resolve, emit = dumper.yaml_representers, dumper.resolve, dumper.emit
        resolved, scalars = {}, {}

        def scalar(kind, value):
            node = represent[kind](dumper, value)
            tag, text = node.tag, node.value
            if text not in resolved:
                resolved[text] = resolve(ScalarNode, text, (True, False))
            return ScalarEvent(None, tag, (tag == resolved[text], tag == _STR), text)

        def add(value):
            kind = type(value)
            if kind is float:  # not cached: -0.0 == 0.0
                emit(scalar(kind, value))
            elif kind is dict:
                emit(MappingStartEvent(None, _MAP, True, flow_style=False))
                for key, item in value.items():
                    add(key)
                    add(item)
                emit(MappingEndEvent())
            elif kind is list:
                emit(SequenceStartEvent(None, _SEQ, True, flow_style=False))
                for item in value:
                    add(item)
                emit(SequenceEndEvent())
            elif kind in _PLAIN_SCALAR_TYPES:
                key = kind, value  # True == 1, so the type is part of the key
                if key not in scalars:
                    scalars[key] = scalar(kind, value)
                emit(scalars[key])
            else:
                raise RepresenterError("cannot represent an object", value)

        try:
            dumper.open()
            emit(DocumentStartEvent(explicit=False))
            add(doc)
            emit(DocumentEndEvent(explicit=False))
            dumper.close()
        finally:
            dumper.dispose()


def _mapping(value, where):
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a mapping, got {value!r}")
    return value


def _entries(doc, key, path):
    """(where, entry) for the list under ``key``, every entry checked to be a mapping."""
    entries = _key(doc, key, path)
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: {key!r} must be a list, got {entries!r}")
    out = []
    for i, entry in enumerate(entries):
        where = f"{path}: {key}[{i}]"
        out.append((where, _mapping(entry, where)))
    return out


def _key(entry, key, where):
    if key not in entry:
        raise SchemaError(f"{where}: missing key {key!r}")
    return entry[key]


_REQUIRED = object()


def _field(entry, key, where, kind="a string", default=_REQUIRED):
    """``entry[key]``, of ``kind`` (a string unless given); ``default`` if absent and given."""
    if key not in entry and default is not _REQUIRED:
        return default
    value = _key(entry, key, where)
    # the message is formatted only for a bad value: traces check thousands of good ones
    return value if KINDS[kind](value) else checked(value, kind, f"{where}: {key!r}", SchemaError)


# --------------------------------------------------------------------------
# Task specs
# --------------------------------------------------------------------------

def _half_extents(entity, where):
    if entity.get("half_extents") is None:
        return None
    return tuple(_field(entity, "half_extents", where, "two finite numbers"))


def _clause(entry, where) -> ClauseDecl:
    try:
        return ClauseDecl(_field(entry, "id", where), _field(entry, "formula", where))
    except FormulaSyntaxError as err:
        raise SchemaError(f"{where}: {err}") from err


def _predicate(entry, where) -> PredicateDecl:
    try:
        return PredicateDecl(_field(entry, "name", where),
                             _field(entry, "arity", where, "an integer"),
                             _field(entry, "evaluator", where),
                             _mapping(entry.get("params") or {}, f"{where}: params"))
    except SpecValidationError as err:  # an evaluator, arity or params it does not take
        raise SchemaError(f"{where}: {err}") from err


def _condition(cond, where):
    cond = _mapping(cond, where)
    layout = _mapping(cond.get("layout", {}), f"{where} layout")
    for eid, xy in layout.items():
        checked(eid, "a string", f"{where}: layout key", SchemaError)
        checked(xy, "two finite numbers", f"{where}: layout {eid!r}", SchemaError)
    return make_condition(_field(cond, "instruction", where, default=""), layout)


def load_task_spec(path) -> TaskSpec:
    """A task spec file; a bad value, formula or declaration is a SchemaError naming the file."""
    doc = _load_yaml(path, "task_spec")
    try:
        entities = [
            EntityDecl(_field(e, "id", where), _field(e, "kind", where), _half_extents(e, where))
            for where, e in _entries(doc, "entities", path)
        ]
        predicates = [_predicate(p, where) for where, p in _entries(doc, "predicates", path)]
        clauses = [_clause(c, where) for where, c in _entries(doc, "clauses", path)]
        condition = _condition(_key(doc, "condition", path), f"{path}: condition")
        task_id = _field(doc, "task_id", path)
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"{path}: {err!r}") from err
    try:
        return TaskSpec(task_id, entities, predicates, clauses, condition)
    except CreflowError as err:  # a declaration the clauses or other entries contradict
        raise SchemaError(f"{path}: {err}") from err


def save_task_spec(path, spec: TaskSpec):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "task_spec",
        "task_id": spec.task_id,
        "entities": [
            {
                "id": e.id,
                "kind": e.kind,
                **({"half_extents": list(e.half_extents)} if e.half_extents else {}),
            }
            for e in spec.entities
        ],
        "predicates": [
            {
                "name": p.name,
                "arity": p.arity,
                "evaluator": p.evaluator,
                "params": dict(p.params),
            }
            for p in spec.predicates
        ],
        "clauses": [{"id": c.id, "formula": c.source} for c in spec.clauses],
        "condition": {
            "instruction": spec.condition.instruction,
            "layout": {k: list(v) for k, v in spec.condition.layout},
        },
    }
    _dump_plain_yaml(path, doc)


# --------------------------------------------------------------------------
# Traces
# --------------------------------------------------------------------------

def _entity_state(state, where) -> EntityState:
    """One entity's state from a trace file; every field is checked, none coerced."""
    _mapping(state, where)
    position = _field(state, "position", where, "two finite numbers")
    radius = _field(state, "radius", where, "a finite number")
    if radius < 0:
        raise SchemaError(f"{where}: 'radius' must be a finite number >= 0, got {radius!r}")
    closed = _field(state, "gripper_closed", where, "true or false", None)
    flags = _mapping(state.get("flags", {}), f"{where}: flags")
    for name, value in flags.items():
        checked(value, "true or false", f"{where}: flag {name!r}", SchemaError)
    return EntityState(np.asarray(position, dtype=float), float(radius), closed, dict(flags))


def load_trace(path) -> TraceGroup:
    """A trace file as a group of one row."""
    doc = _load_yaml(path, "trace")
    horizon = _field(doc, "horizon", path, "an integer")
    grid = _field(doc, "grid", path, "two integers")
    frames = [{eid: _entity_state(state, f"{where}[{eid!r}]") for eid, state in frame.items()}
              for where, frame in _entries(doc, "frames", path)]
    try:
        return TraceGroup.from_frames(horizon, frames, tuple(grid))
    except (HorizonMismatch, SpecValidationError) as err:
        raise SchemaError(f"{path}: {err}") from err


def save_trace(path, trace: TraceGroup):
    frames = []
    for frame in trace.frames:
        frame_doc = {}
        for eid, state in frame.items():
            entry = {
                "position": [float(state.position[0]), float(state.position[1])],
                "radius": float(state.radius),
                "flags": {k: bool(v) for k, v in state.attribute_flags.items()},
            }
            if state.gripper_closed is not None:
                entry["gripper_closed"] = bool(state.gripper_closed)
            frame_doc[eid] = entry
        frames.append(frame_doc)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trace",
        "horizon": trace.horizon,
        "grid": list(trace.grid),
        "frames": frames,
    }
    _dump_plain_yaml(path, doc)


# --------------------------------------------------------------------------
# Experiment configs
# --------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    world: WorldConfig
    loss: LossConfig
    out_dir: str = "out"
    spec_path: str = None  # default: built from the world template
    corrective_enabled: bool = True

    def effective_loss_config(self) -> LossConfig:
        return replace(self.loss, lambda_cr=self.loss.lambda_cr if self.corrective_enabled else 0.0)


# Loss switches that exist only under ``loss:``; at top level they are rejected.
LOSS_ONLY_KEYS = ("mask_enabled", "weight_scheme")
EXPERIMENT_KEYS = ("schema_version", "kind", "out_dir", "spec_path", "corrective_enabled",
                   "world", "loss")


# The kind of each config field: by its annotated type, or by name for a tuple.
_FIELD_KINDS = {
    int: "an integer",
    float: "a finite number",
    str: "a string",
    bool: "true or false",
    "grid": "two integers",
    "container_half_extents": "two finite numbers",
    "hidden": "a list of integers",
}


def _field_kind(f) -> str:
    """The kind (a key of ``trace.KINDS``) a config dataclass field ``f`` holds."""
    return _FIELD_KINDS[f.name if f.type is tuple else f.type]


def _config_section(doc, key, cls, path):
    """Keyword arguments for ``cls`` from the ``key:`` mapping; every key known, every value typed."""
    section = _mapping(doc.get(key, {}), f"{path}: {key}")
    kinds = {f.name: _field_kind(f) for f in fields(cls)}
    for name, value in section.items():
        if name not in kinds:
            raise SchemaError(f"{path}: unknown key {name!r} under '{key}:'")
        checked(value, kinds[name], f"{path}: '{key}.{name}'", SchemaError)
    return {name: tuple(v) if isinstance(v, list) else v for name, v in section.items()}


def world_config_dict(world: WorldConfig) -> dict:
    """Plain-data form of a world config (tuples as lists) for YAML and JSON."""
    return {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(world).items()}


def load_experiment_config(path) -> ExperimentConfig:
    doc = _load_yaml(path, "experiment")
    for key in LOSS_ONLY_KEYS:
        if key in doc:
            raise SchemaError(f"{path}: {key!r} belongs under 'loss:', not at top level")
    for key in doc:
        if key not in EXPERIMENT_KEYS:
            raise SchemaError(f"{path}: unknown top-level key {key!r}")
    corrective = _field(doc, "corrective_enabled", path, "true or false", True)
    out_dir = _field(doc, "out_dir", path, default="out")
    spec_path = _field(doc, "spec_path", path, default=None)
    _key(doc, "world", path)
    world_args = _config_section(doc, "world", WorldConfig, path)
    if world_args.get("seed", 0) < 0:
        raise SchemaError(f"{path}: 'world.seed' must be >= 0, got {world_args['seed']}")
    loss_args = _config_section(doc, "loss", LossConfig, path)
    try:
        world = WorldConfig(**world_args)
        loss = LossConfig(**loss_args)
        return ExperimentConfig(
            world=world,
            loss=loss,
            out_dir=out_dir,
            spec_path=spec_path,
            corrective_enabled=corrective,
        )
    except (SpecValidationError, ValueError) as err:  # a WorldConfig or LossConfig range check
        raise SchemaError(f"{path}: {err}") from err


def save_experiment_config(path, cfg: ExperimentConfig):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "experiment",
        "out_dir": cfg.out_dir,
        **({"spec_path": cfg.spec_path} if cfg.spec_path else {}),
        "corrective_enabled": cfg.corrective_enabled,
        "world": world_config_dict(cfg.world),
        "loss": vars(cfg.loss).copy(),
    }
    _dump_plain_yaml(path, doc)


# What a training run writes next to metrics.csv and summary.json.
RUN_CONFIG_FILE = "experiment.yaml"
RUN_SPEC_FILE = "task_spec.yaml"


def save_run_inputs(cfg: ExperimentConfig, spec: TaskSpec):
    """Write a run's resolved config and its task spec into its ``out_dir``.

    The config carries the effective seed and output directory. If the run
    read its spec from a file, the config points at the saved copy (by
    absolute path); otherwise the spec is rebuilt from the world template.
    ``creflow train --config <out_dir>/experiment.yaml`` repeats the run.
    """
    spec_file = os.path.join(cfg.out_dir, RUN_SPEC_FILE)
    save_task_spec(spec_file, spec)
    resolved = replace(cfg, spec_path=os.path.abspath(spec_file) if cfg.spec_path else None)
    save_experiment_config(os.path.join(cfg.out_dir, RUN_CONFIG_FILE), resolved)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

def verdict_report(verdict) -> dict:
    return {
        "reward": int(verdict.reward),
        "horizon": verdict.horizon,
        "clauses": [
            {
                "id": cid,
                "satisfied": not witness,
                "witness": [[e, t] for e, t in sorted(witness.pairs)],
            }
            for cid, witness in verdict.violations
        ],
        "atlas": {
            eid: {"cells": int(m.sum()), "grid": list(m.shape)}
            for eid, m in verdict.atlas.masks.items()
        },
    }


def mask_report(mask: CreditMask, layout: LatentLayout) -> dict:
    return {
        "layout": layout.describe(),
        "temporal_bits": mask.temporal.astype(int).tolist(),
        "spatial_bits": mask.spatial.astype(int).tolist(),
        "density": mask.density(),
    }


def _null_nonfinite(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _null_nonfinite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_nonfinite(v) for v in value]
    return value


def json_text(payload) -> str:
    """A report as RFC 8259 JSON: indented, sorted keys, a non-finite float as null."""
    return json.dumps(_null_nonfinite(payload), indent=2, sort_keys=True, allow_nan=False)


def write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json_text(payload) + "\n")


def write_metrics_csv(path, series: MetricsSeries):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(series.columns)
        for row in series.rows:
            writer.writerow([repr(row[c]) if isinstance(row[c], float) else row[c]
                             for c in series.columns])


def train_summary(series: MetricsSeries, cfg: ExperimentConfig) -> dict:
    loss_cfg = cfg.effective_loss_config()
    return {
        "metrics_version": METRICS_VERSION,
        "columns": list(METRIC_COLUMNS),
        "summary": series.summary,
        "world": world_config_dict(cfg.world),
        "loss": vars(loss_cfg).copy(),
        "mode": {
            "mask_enabled": cfg.loss.mask_enabled,
            "corrective_enabled": cfg.corrective_enabled,
            "weight_scheme": cfg.loss.weight_scheme,
        },
    }
