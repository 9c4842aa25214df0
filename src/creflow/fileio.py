"""Structured-text file formats and machine-readable reports.

Human-edited inputs (task specs, traces, experiment configs) are YAML
documents carrying ``schema_version`` and ``kind`` fields; reports (verdicts,
mask dumps, verification results, training summaries) are JSON. Metrics are
CSV with a versioned, append-only column set.

YAML is written by one writer, ``_dump_plain_yaml``. It is read line by line
when the text is in the block subset that writer produces, and by
``yaml.load`` otherwise; either way the document, and the error for a bad
file, is ``yaml.load``'s. Loaders format an error's location only for a bad value.
"""

import csv
import json
import math
import os
import re
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
_STR, _MAP, _SEQ = _TAG + "str", _TAG + "map", _TAG + "seq"
_PLAIN_SCALAR_TAGS = {_STR, _TAG + "float", _TAG + "int", _TAG + "bool", _TAG + "null"}
_PLAIN_SCALAR_TYPES = (str, float, int, bool, type(None))

# The line reader's subset: printable ASCII lines ``indent (- )? (key:)? (value)?``,
# none starting with a ``---`` or ``...`` marker. A key holds no ``:``
# unless single-quoted, and is followed by ``: value`` or the end of the line.
_LINE = re.compile(r"(?!(?:---|\.\.\.)(?: |$))( *)(- )?"
                   r"(?:('[ -&(-~]*(?:''[ -&(-~]*)*'|[!-9;-~][ -9;-~]*):(?= [!-~]|$) ?)?"
                   r"([!-~][ -~]*)?")
# Each key and value is then one of these scalars (or a value ``{}`` or ``[]``).
# A plain one starts with no indicator (a ``-`` only before a non-space) and
# holds no ``": "``, no ``" #"`` and no trailing ``:`` or space; a quoted one
# is single-quoted, ``''`` its only escape.
_SCALAR = re.compile(r"(?:(?![-?:,\[\]{}#&*!|>'\"%@`])[!-~]|-(?=[!-~]))"
                     r"[!-9;-~]*(?:(?: +(?!#):*|:+)[!-9;-~]+)*"
                     r"|'[ -&(-~]*(?:''[ -&(-~]*)*'")
# ``represent_float``'s text for every finite float: YAML 1.1 resolves each such
# text to a float, and ``construct_yaml_float`` gives ``float(text)`` for it.
_DECIMAL = re.compile(r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?")
_SIMPLE_KEY_MAX = 1024  # YAML reads a longer one-line key as an error
_OUTSIDE = object()  # a scalar outside the subset


def _line_document(text, loader):
    """The document of ``text`` read line by line, or None if ``text`` is outside the subset.

    The subset is the block style ``_dump_plain_yaml`` writes: lines of
    ``_LINE``, each ending in a newline, that make block mappings and block
    sequences (indented or not; an entry ``- key: value`` opens a mapping)
    of ``_SCALAR`` keys and values. Each distinct line is matched once, and
    each distinct scalar text converted once: a ``_DECIMAL`` text by
    ``float``, any other plain one by ``loader``'s implicit resolvers and its
    constructor for that tag; a quoted one is a string. A key
    that is not a string, a scalar of another tag, a ``key:`` with no block
    below it, an empty line or a lone ``-`` is outside the subset. A
    constructor's ValueError (for a bad ``0x_``) is raised.
    """
    if not (text.endswith("\n") and text.isascii()):
        return None
    lines = text[:-1].split("\n")
    parts = dict.fromkeys(lines)  # each distinct line -> its groups, matched once
    for line in parts:
        match = _LINE.fullmatch(line)
        if match is None:
            return None
        parts[line] = match.groups()
    resolve, constructors = loader.resolve, loader.yaml_constructors
    node = ScalarNode(None, None)  # the constructors read a scalar's text from a node

    def scalar(text):
        if _DECIMAL.fullmatch(text):
            return float(text)
        if _SCALAR.fullmatch(text) is None:
            return _OUTSIDE
        if text[0] == "'":
            return text[1:-1].replace("''", "'")
        tag = resolve(ScalarNode, text, (True, False))
        if tag not in _PLAIN_SCALAR_TAGS:
            return _OUTSIDE
        node.value = text
        return constructors[tag](loader, node)

    known, keys = {}, {}  # scalar text -> its value; key text -> its string
    root = [None]
    at, top = -1, root  # the innermost open collection and the column of its entries
    stack = []  # (column, collection) of the collections around it, outermost first
    pending = root, 0, -1  # (mapping, key, column) of a ``key:`` whose value starts below
    for indent, dash, key, value in map(parts.__getitem__, lines):
        column = len(indent)
        if pending is not None:  # this line starts the pending key's value
            mapping, name, above = pending
            if column < above or column == above and not dash:
                return None  # an empty value
            stack.append((at, top))
            at = column
            top = mapping[name] = [] if dash else {}
            pending = None
        else:
            while at > column:
                at, top = stack.pop()
            if at == column and not dash and type(top) is list:
                at, top = stack.pop()  # a key ends an unindented sequence
            if at != column:
                return None
        if dash:
            if type(top) is not list or not (key or value):
                return None
            if key:  # ``- key:`` opens a mapping two columns in
                stack.append((at, top))
                at = column = column + 2
                top.append({})
                top = top[-1]
        elif type(top) is not dict or not key:
            return None
        if value in known:
            item = known[value]
        elif value == "{}":
            item = {}
        elif value == "[]":
            item = []
        elif value:
            item = known[value] = scalar(value)
            if item is _OUTSIDE:
                return None
        if not key:
            top.append(item)
            continue
        if key in keys:
            name = keys[key]
        else:
            name = keys[key] = scalar(key) if len(key) <= _SIMPLE_KEY_MAX else None
            if type(name) is not str:
                return None
        if value:
            top[name] = item  # a repeated key keeps its last value
        else:
            pending = top, name, column
    return None if pending is not None else root[0]


def _read_yaml(fh):
    """The document in ``fh``: read line by line if in the subset, else by ``yaml.load``.

    ``_line_document`` reads the block subset ``_dump_plain_yaml`` writes;
    any other text, an undecodable file, or a subset text with a scalar its
    constructor rejects (``0x_``) is read by ``yaml.load(fh,
    Loader=YamlLoader)``. Either way the document, and the error raised for
    a bad file, is ``yaml.load``'s.
    """
    try:
        text = fh.read()
        loader = YamlLoader("")
        try:
            doc = _line_document(text, loader)
        finally:
            loader.dispose()
    except ValueError:  # an undecodable file, or a scalar its constructor rejects
        doc = None
    if doc is not None:
        return doc
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
    """The list under ``key``, every entry checked to be a mapping (located only if not)."""
    entries = _key(doc, key, path)
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: {key!r} must be a list, got {entries!r}")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            _mapping(entry, f"{path}: {key}[{i}]")
    return entries


def _located(doc, key, path):
    """(where, entry) for each of the ``_entries`` under ``key``."""
    return [(f"{path}: {key}[{i}]", entry) for i, entry in enumerate(_entries(doc, key, path))]


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
    box = tuple(_field(entity, "half_extents", where, "two finite numbers"))
    if min(box) < 0:
        raise SchemaError(f"{where}: 'half_extents' must be >= 0, got {list(box)}")
    return box


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
            for where, e in _located(doc, "entities", path)
        ]
        predicates = [_predicate(p, where) for where, p in _located(doc, "predicates", path)]
        clauses = [_clause(c, where) for where, c in _located(doc, "clauses", path)]
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

def load_trace(path) -> TraceGroup:
    """A trace file as a group of one row, its arrays filled straight from the document.

    Every frame must be a mapping; then, frame by frame and entity by entity,
    the entity id must be a string and its state a mapping with a position, a
    radius >= 0, an optional gripper bit and a mapping of string flag names
    to bits, checked in that order; none is coerced. A location is formatted,
    and the check repeated through ``_field``, only for a bad value.
    """
    doc = _load_yaml(path, "trace")
    horizon = _field(doc, "horizon", path, "an integer")
    grid = _field(doc, "grid", path, "two integers")
    entries = _entries(doc, "frames", path)
    pair, nonnegative = KINDS["two finite numbers"], KINDS["a finite number >= 0"]
    columns, slots = {}, {}  # entity id -> column, flag name -> slot, by first appearance
    cells, positions, radii, grippers, flag_cells, flag_bits = [], [], [], [], [], []
    for t, frame in enumerate(entries):
        for eid, state in frame.items():
            if not (type(eid) is str and type(state) is dict and pair(state.get("position"))
                    and nonnegative(state.get("radius"))
                    and type(state.get("gripper_closed", False)) is bool
                    and type(state.get("flags", {})) is dict):  # else raise the first error
                where = f"{path}: frames[{t}]"
                checked(eid, "a string", f"{where}: entity key", SchemaError)
                at = f"{where}[{eid!r}]"
                _mapping(state, at)
                _field(state, "position", at, "two finite numbers")
                _field(state, "radius", at, "a finite number >= 0")
                _field(state, "gripper_closed", at, "true or false", None)
                _mapping(state.get("flags", {}), f"{at}: flags")
            positions.append(state["position"])
            radii.append(state["radius"])
            closed = state.get("gripper_closed")
            grippers.append(-1 if closed is None else closed)
            cell = t, columns.setdefault(eid, len(columns))
            cells.append(cell)
            for name, value in state.get("flags", {}).items():
                if type(name) is not str or type(value) is not bool:
                    at = f"{path}: frames[{t}][{eid!r}]"
                    checked(name, "a string", f"{at}: flag key", SchemaError)
                    checked(value, "true or false", f"{at}: flag {name!r}", SchemaError)
                flag_cells.append(cell + (slots.setdefault(name, len(slots)),))
                flag_bits.append(value)
    shape = (1, len(entries), len(columns))
    xy = np.zeros(shape + (2,))
    radius = np.zeros(shape)
    gripper = np.full(shape, -1, dtype=np.int8)
    flags = np.full(shape + (len(slots),), -1, dtype=np.int8)
    present = np.zeros(shape, dtype=bool)
    if cells:
        t, e = np.array(cells).T
        present[0, t, e] = True
        xy[0, t, e] = np.array(positions, dtype=float)
        radius[0, t, e] = np.array(radii, dtype=float)
        gripper[0, t, e] = grippers
    if flag_cells:
        t, e, k = np.array(flag_cells).T
        flags[0, t, e, k] = flag_bits
    try:
        return TraceGroup(horizon, tuple(grid), tuple(columns), xy, radius, gripper,
                          tuple(slots), flags, present)
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

    def effective_loss_config(self) -> LossConfig:
        """``loss``, whose ``lambda_cr > 0`` turns the corrective term on (the benchmark calls this)."""
        return self.loss


# Loss switches that exist only under ``loss:``; at top level they are rejected.
LOSS_ONLY_KEYS = ("mask_enabled", "weight_scheme")
EXPERIMENT_KEYS = ("schema_version", "kind") + tuple(f.name for f in fields(ExperimentConfig))


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
        return ExperimentConfig(world=world, loss=loss, out_dir=out_dir, spec_path=spec_path)
    except (SpecValidationError, ValueError) as err:  # a WorldConfig or LossConfig range check
        raise SchemaError(f"{path}: {err}") from err


def save_experiment_config(path, cfg: ExperimentConfig):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": "experiment",
        "out_dir": cfg.out_dir,
        **({"spec_path": cfg.spec_path} if cfg.spec_path else {}),
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
    return {
        "metrics_version": METRICS_VERSION,
        "columns": list(METRIC_COLUMNS),
        "summary": series.summary,
        "world": world_config_dict(cfg.world),
        "loss": vars(cfg.loss).copy(),
        "mode": {
            "mask_enabled": cfg.loss.mask_enabled,
            "corrective_enabled": cfg.loss.lambda_cr > 0,
            "weight_scheme": cfg.loss.weight_scheme,
        },
    }
