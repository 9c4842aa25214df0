"""Structured-text file formats and machine-readable reports.

Human-edited inputs (task specs, traces, experiment configs) are YAML
documents carrying ``schema_version`` and ``kind`` fields; reports (verdicts,
mask dumps, verification results, training summaries) are JSON. Metrics are
CSV with a versioned, append-only column set.
"""

import csv
import json
from dataclasses import dataclass, replace

import numpy as np
import yaml

from .errors import SchemaError
from .ltlf import parse_formula
from .mask import CreditMask, LatentLayout
from .objectives import LossConfig
from .simworld import METRIC_COLUMNS, METRICS_VERSION, MetricsSeries, WorldConfig
from .trace import (
    ClauseDecl,
    EntityDecl,
    EntityState,
    TaskSpec,
    Trace,
    make_condition,
    make_predicate_decl,
)

SCHEMA_VERSION = 1


def _load_yaml(path, kind):
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as err:
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


def _require(doc, key, path):
    if key not in doc:
        raise SchemaError(f"{path}: missing required field {key!r}")
    return doc[key]


# --------------------------------------------------------------------------
# Task specs
# --------------------------------------------------------------------------

def load_task_spec(path) -> TaskSpec:
    doc = _load_yaml(path, "task_spec")
    try:
        entities = [
            EntityDecl(
                e["id"],
                e["kind"],
                tuple(e["half_extents"]) if e.get("half_extents") else None,
            )
            for e in _require(doc, "entities", path)
        ]
        predicates = [
            make_predicate_decl(p["name"], int(p["arity"]), p["evaluator"], p.get("params"))
            for p in _require(doc, "predicates", path)
        ]
        clauses = [
            ClauseDecl(c["id"], c["formula"], parse_formula(c["formula"]))
            for c in _require(doc, "clauses", path)
        ]
        cond = _require(doc, "condition", path)
        condition = make_condition(cond.get("instruction", ""), cond.get("layout", {}))
        return TaskSpec(
            task_id=_require(doc, "task_id", path),
            entities=entities,
            predicates=predicates,
            clauses=clauses,
            condition=condition,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"{path}: {err!r}") from err


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
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


# --------------------------------------------------------------------------
# Traces
# --------------------------------------------------------------------------

def load_trace(path) -> Trace:
    doc = _load_yaml(path, "trace")
    try:
        frames = []
        for t, frame_doc in enumerate(_require(doc, "frames", path)):
            frame = {}
            for eid, state in frame_doc.items():
                frame[eid] = EntityState(
                    position=np.asarray(state["position"], dtype=float),
                    radius=float(state["radius"]),
                    gripper_closed=state.get("gripper_closed"),
                    attribute_flags=dict(state.get("flags", {})),
                )
            frames.append(frame)
        return Trace(
            horizon=int(_require(doc, "horizon", path)),
            frames=frames,
            grid=tuple(_require(doc, "grid", path)),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"{path}: {err!r}") from err


def save_trace(path, trace: Trace):
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
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


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
    corrective = doc.get("corrective_enabled", True)
    if not isinstance(corrective, bool):
        raise SchemaError(f"{path}: 'corrective_enabled' must be true or false, got {corrective!r}")
    try:
        world_doc = dict(_require(doc, "world", path))
        for key in ("grid", "container_half_extents", "hidden"):
            if key in world_doc:
                world_doc[key] = tuple(world_doc[key])
        world = WorldConfig(**world_doc)
        loss = LossConfig(**doc.get("loss", {}))
        return ExperimentConfig(
            world=world,
            loss=loss,
            out_dir=doc.get("out_dir", "out"),
            spec_path=doc.get("spec_path"),
            corrective_enabled=corrective,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise SchemaError(f"{path}: {err!r}") from err


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
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


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


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
