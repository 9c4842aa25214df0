"""Structured-text file formats and machine-readable reports.

Human-edited inputs (task specs, traces, experiment configs) are YAML
documents carrying ``schema_version`` and ``kind`` fields; reports (verdicts,
mask dumps, verification results, training summaries) are JSON. Metrics are
CSV with a versioned, append-only column set.

Specs and configs are read by ``yaml.load`` and written by ``yaml.dump``. A
trace file has one canonical text, the one ``yaml.dump`` writes for a trace
whose names and numbers are plain. Both ways a trace passes through its cell
columns, its one per-cell form (parallel columns of frame, entity id, x, y,
radius, gripper bit and flag pairs): ``save_trace`` writes the canonical text
line by line from ``TraceGroup.cells()``, and ``load_trace`` matches it block
by block, then converts and checks the blocks' fields column by column for
``TraceGroup.from_cells``. A trace outside that form is written by
``yaml.dump`` of the document built from its cells and read by ``yaml.load``
and the document checks, which alone raise errors; both readers hand their
columns to ``from_cells``, so groups and errors are the same.
"""

import csv
import json
import math
import os
import re
from dataclasses import dataclass, fields, replace
from itertools import accumulate

import numpy as np
import yaml
from yaml.nodes import ScalarNode

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
    ClauseDecl,
    EntityDecl,
    PredicateDecl,
    TaskSpec,
    TraceGroup,
    cell_columns,
    checked,
    make_condition,
)

try:
    from yaml import CSafeDumper as YamlDumper, CSafeLoader as YamlLoader
except ImportError:  # PyYAML built without libyaml
    from yaml import SafeDumper as YamlDumper, SafeLoader as YamlLoader

SCHEMA_VERSION = 1


def _load_yaml(path, kind):
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=YamlLoader)
    # ValueError: not UTF-8, or an int or date text with no value (``0x_``, ``2001-13-45``)
    except (yaml.YAMLError, ValueError) as err:
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


def _dump_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.dump(doc, fh, Dumper=YamlDumper, sort_keys=False)


def _mapping(value, where):
    if not isinstance(value, dict):
        raise SchemaError(f"{where}: expected a mapping, got {value!r}")
    return value


def _entries(doc, key, path):
    """(where, entry) for each entry of the list under ``key``, every entry checked to be
    a mapping."""
    entries = _key(doc, key, path)
    if not isinstance(entries, list):
        raise SchemaError(f"{path}: {key!r} must be a list, got {entries!r}")
    located = [(f"{path}: {key}[{i}]", entry) for i, entry in enumerate(entries)]
    for where, entry in located:
        _mapping(entry, where)
    return located


def _key(entry, key, where):
    if key not in entry:
        raise SchemaError(f"{where}: missing key {key!r}")
    return entry[key]


_REQUIRED = object()


def _field(entry, key, where, kind="a string", default=_REQUIRED):
    """``entry[key]``, of ``kind`` (a string unless given); ``default`` if absent and given."""
    if key not in entry and default is not _REQUIRED:
        return default
    return checked(_key(entry, key, where), kind, f"{where}: {key!r}", SchemaError)


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
    _dump_yaml(path, doc)


# --------------------------------------------------------------------------
# Traces
# --------------------------------------------------------------------------

# A trace file's canonical text is the one ``yaml.dump`` writes for a trace in
# which every frame holds an entity, every id and flag name is a ``_NAME`` the
# resolver reads as a string, and every number is finite. After the header
#
#   schema_version: 1
#   kind: trace
#   horizon: 12
#   grid:
#   - 24
#   - 24
#   frames:
#
# each entity of each frame is one block, opened by ``- `` for a frame's first
# entity and by two spaces for the others:
#
#   - cube:
#       position:
#       - 3.5
#       - -1.0e-05
#       radius: 0.7
#       flags:
#         in_container: false
#       gripper_closed: true
#
# ``flags: {}`` stands for no flag set, and ``gripper_closed`` is left out for
# an entity without a gripper.

# PyYAML's pure-Python dumper writes a key of more than 122 characters as ``? key``
# (libyaml's, one of more than 128)
_NAME = r"[A-Za-z_][A-Za-z0-9_]{0,121}"
_DECIMAL = r"-?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?"  # represent_float's text for a finite float
_COUNT = r"0|[1-9][0-9]*"
_PLAIN_NAME = re.compile(_NAME)
_TRACE_HEADER = re.compile(
    rf"schema_version: {SCHEMA_VERSION}\nkind: trace\nhorizon: ({_COUNT})\n"
    rf"grid:\n- ({_COUNT})\n- ({_COUNT})\nframes:\n")
_ENTITY_BLOCK = re.compile(  # the whole block is group 1
    rf"((- |  )({_NAME}):\n    position:\n    - ({_DECIMAL})\n    - ({_DECIMAL})\n"
    rf"    radius: ({_DECIMAL})\n    flags:(?: \{{\}}\n|\n((?:      {_NAME}: (?:true|false)\n)+))"
    r"(?:    gripper_closed: (true|false)\n)?)")
_FLAG = re.compile(rf"      ({_NAME}): (true|false)\n")
_GRIPPER = {"": -1, "false": 0, "true": 1}


def _plain_names(names):
    """True if every name is a ``_NAME`` that ``YamlLoader``'s resolver reads as a string."""
    if not all(type(name) is str and _PLAIN_NAME.fullmatch(name) for name in names):
        return False
    loader = YamlLoader("")
    try:  # ``yes``, ``Null`` or ``ON`` read as a bool or null
        return all(loader.resolve(ScalarNode, name, (True, False)) == "tag:yaml.org,2002:str"
                   for name in names)
    finally:
        loader.dispose()


def _number_text(value):
    """``represent_float``'s text for a finite float."""
    text = repr(value)
    return text.replace("e", ".0e", 1) if "e" in text and "." not in text else text


def _canonical_cells(text):
    """``TraceGroup.from_cells``'s arguments for a canonical text, else None.

    The header is matched once and ``_ENTITY_BLOCK`` found in one pass over
    the rest, which the blocks must tile: they do not overlap, so they leave
    no text between or after them exactly when their lengths add up to the
    rest's. The blocks' fields are then converted and checked column by
    column, and each distinct flag text is parsed once. A number is
    ``float(text)``: YAML 1.1 resolves every ``_DECIMAL`` text to a float, and
    ``construct_yaml_float`` gives exactly ``float(text)`` for it. Any other
    text, a repeated entity or flag, a name the resolver does not read as a
    string, or a value the document checks reject gives None, so ``yaml.load``
    and those checks read it and raise the error.
    """
    header = _TRACE_HEADER.match(text)
    if header is None:
        return None
    blocks = _ENTITY_BLOCK.findall(text, header.end())
    if not blocks:
        return None
    whole, dashes, eids, x, y, radii, flag_texts, closed = zip(*blocks)
    if sum(map(len, whole)) != len(text) - header.end() or dashes[0] != "- ":
        return None  # text between or after the blocks, or a frame without ``- ``
    t = list(accumulate(map("- ".__eq__, dashes), initial=-1))[1:]
    x, y, radii = list(map(float, x)), list(map(float, y)), list(map(float, radii))
    if not (-math.inf < min(x) and max(x) < math.inf and -math.inf < min(y)
            and max(y) < math.inf and 0.0 <= min(radii) and max(radii) < math.inf):
        return None
    if len(set(zip(t, eids))) < len(eids):
        return None  # a repeated entity in a frame
    parsed = {lines: tuple((name, bit == "true") for name, bit in _FLAG.findall(lines))
              for lines in set(flag_texts)}
    if any(len(dict(pairs)) < len(pairs) for pairs in parsed.values()):
        return None  # a repeated flag
    if not _plain_names(set(eids).union(name for pairs in parsed.values() for name, _ in pairs)):
        return None
    horizon, rows, cols = map(int, header.groups())
    return horizon, (rows, cols), t[-1] + 1, (
        t, eids, x, y, radii, [_GRIPPER[c] for c in closed], [parsed[f] for f in flag_texts])


def _document_cells(path):
    """``TraceGroup.from_cells``'s arguments for any trace ``yaml.load`` reads.

    Every frame must be a mapping; then, frame by frame and entity by entity,
    the entity id must be a string and its state a mapping with a position, a
    radius >= 0, an optional gripper bit and a mapping of string flag names
    to bits, checked in that order; none is coerced.
    """
    doc = _load_yaml(path, "trace")
    horizon = _field(doc, "horizon", path, "an integer")
    grid = _field(doc, "grid", path, "two integers")
    frames = _entries(doc, "frames", path)
    cells = []
    for t, (where, frame) in enumerate(frames):
        for eid, state in frame.items():
            checked(eid, "a string", f"{where}: entity key", SchemaError)
            at = f"{where}[{eid!r}]"
            _mapping(state, at)
            position = _field(state, "position", at, "two finite numbers")
            radius = _field(state, "radius", at, "a finite number >= 0")
            closed = _field(state, "gripper_closed", at, "true or false", -1)
            flags = tuple(_mapping(state.get("flags", {}), f"{at}: flags").items())
            for name, value in flags:
                checked(name, "a string", f"{at}: flag key", SchemaError)
                checked(value, "true or false", f"{at}: flag {name!r}", SchemaError)
            cells.append((t, eid, *position, radius, closed, flags))
    return horizon, tuple(grid), len(frames), cell_columns(cells)


def load_trace(path) -> TraceGroup:
    """A trace file as a group of one row: its canonical text read block by block
    into cell columns, any other text by ``yaml.load`` and the document checks."""
    try:
        with open(path) as fh:
            read = _canonical_cells(fh.read())
    except UnicodeDecodeError:  # reported by yaml.load's path
        read = None
    args = read or _document_cells(path)
    try:
        return TraceGroup.from_cells(*args)
    except (HorizonMismatch, SpecValidationError) as err:  # a frame count or grid it rejects
        raise SchemaError(f"{path}: {err}") from err


def _canonical_text(trace, cells):
    """The canonical text of a group of one row and its ``cells()``, or None if the
    group is outside the form."""
    present = trace.present[0]
    if not (type(trace.horizon) is int and all(type(n) is int for n in trace.grid)
            and present.any(axis=1).all() and np.isfinite(trace.xy[0][present]).all()
            and np.isfinite(trace.radius[0][present]).all()
            and _plain_names(trace.entity_ids + trace.flag_names)):
        return None
    rows, cols = trace.grid
    lines = [f"schema_version: {SCHEMA_VERSION}\nkind: trace\nhorizon: {trace.horizon}\n"
             f"grid:\n- {rows}\n- {cols}\nframes:\n"]
    frame = None
    for t, eid, x, y, radius, closed, flags in zip(*cells):
        set_flags = "".join(f"      {name}: {'true' if bit else 'false'}\n" for name, bit in flags)
        lines.append(f"{'  ' if t == frame else '- '}{eid}:\n    position:\n"
                     f"    - {_number_text(x)}\n    - {_number_text(y)}\n"
                     f"    radius: {_number_text(radius)}\n"
                     + (f"    flags:\n{set_flags}" if set_flags else "    flags: {}\n"))
        if closed >= 0:
            lines.append(f"    gripper_closed: {'true' if closed else 'false'}\n")
        frame = t
    return "".join(lines)


def save_trace(path, trace: TraceGroup):
    """Write a group of one row: its canonical text, or else ``yaml.dump`` of its document."""
    cells = trace.cells()
    text = _canonical_text(trace, cells)
    if text is not None:
        with open(path, "w") as fh:
            fh.write(text)
        return
    frames = [{} for _ in range(trace.horizon)]
    for t, eid, x, y, radius, closed, flags in zip(*cells):
        frames[t][eid] = {"position": [x, y], "radius": radius, "flags": dict(flags),
                          **({} if closed < 0 else {"gripper_closed": closed > 0})}
    _dump_yaml(path, {"schema_version": SCHEMA_VERSION, "kind": "trace",
                      "horizon": trace.horizon, "grid": list(trace.grid), "frames": frames})


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


def _config_section(doc, key, cls, path):
    """Keyword arguments for ``cls`` from the ``key:`` mapping; every key known, every value typed."""
    section = _mapping(doc.get(key, {}), f"{path}: {key}")
    kinds = {f.name: f.metadata["kind"] for f in fields(cls)}
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
    paths = {key: _field(doc, key, path) for key in ("out_dir", "spec_path") if key in doc}
    _key(doc, "world", path)
    world_args = _config_section(doc, "world", WorldConfig, path)
    loss_args = _config_section(doc, "loss", LossConfig, path)
    try:
        world = WorldConfig(**world_args)
        loss = LossConfig(**loss_args)
        return ExperimentConfig(world=world, loss=loss, **paths)
    except SpecValidationError as err:  # a WorldConfig or LossConfig range check
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
    _dump_yaml(path, doc)


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
