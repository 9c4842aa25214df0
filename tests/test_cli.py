import datetime
import json
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import fields

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from creflow import cli, fileio, simworld
from creflow.cli import main
from creflow.errors import SchemaError, SpecValidationError
from creflow.objectives import LossConfig
from creflow.trace import EVALUATORS, KINDS, EntityState, TraceGroup

from conftest import experiment_configs, task_specs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Spec, clean/violating trace fixtures, and a small experiment config."""
    root = tmp_path_factory.mktemp("cli")
    config = simworld.WorldConfig(template="pick_place", seed=0, demo_noise=0.0)
    spec = simworld.build_task_spec(config)
    spec_path = str(root / "spec.yaml")
    fileio.save_task_spec(spec_path, spec)

    cond = spec.condition
    clean_cfg = simworld.WorldConfig(template="pick_place", seed=0, fail_fraction=0.0, demo_noise=0.0)
    z = simworld.scripted_demo(clean_cfg, cond, np.random.default_rng(1))
    trace = simworld.decode_trace(simworld.latent_from_flat(z, clean_cfg), clean_cfg, cond)
    clean_path = str(root / "clean.yaml")
    fileio.save_trace(clean_path, trace)

    bad_cfg = simworld.WorldConfig(template="pick_place", seed=0, fail_fraction=1.0, demo_noise=0.0)
    z = simworld.scripted_demo(bad_cfg, cond, np.random.default_rng(2))
    trace = simworld.decode_trace(simworld.latent_from_flat(z, bad_cfg), bad_cfg, cond)
    bad_path = str(root / "violating.yaml")
    fileio.save_trace(bad_path, trace)

    exp = fileio.ExperimentConfig(
        world=simworld.WorldConfig(
            template="pick_place", seed=0, iterations=8, demo_count=48,
            pretrain_steps=120, group_size=4, probe_count=2,
        ),
        loss=LossConfig(beta=1.0, lambda_cr=1.0, lambda_kl=0.1),
        out_dir=str(root / "out"),
        spec_path=spec_path,
    )
    exp_path = str(root / "experiment.yaml")
    fileio.save_experiment_config(exp_path, exp)
    return {
        "root": root,
        "spec": spec_path,
        "clean": clean_path,
        "violating": bad_path,
        "experiment": exp_path,
    }


class TestFileIO:
    def test_spec_round_trip(self, workdir):
        spec = fileio.load_task_spec(workdir["spec"])
        reloaded_path = str(workdir["root"] / "spec2.yaml")
        fileio.save_task_spec(reloaded_path, spec)
        again = fileio.load_task_spec(reloaded_path)
        assert [c.source for c in again.clauses] == [c.source for c in spec.clauses]
        assert again.entity_ids() == spec.entity_ids()

    def test_trace_round_trip(self, workdir):
        trace = fileio.load_trace(workdir["clean"])
        path = str(workdir["root"] / "trace2.yaml")
        fileio.save_trace(path, trace)
        again = fileio.load_trace(path)
        assert again.horizon == trace.horizon
        for t in range(trace.horizon):
            for eid, state in trace.frames[t].items():
                assert np.allclose(again.frames[t][eid].position, state.position)

    def test_schema_version_enforced(self, workdir):
        path = str(workdir["root"] / "wrong_version.yaml")
        with open(workdir["spec"]) as fh:
            doc = fh.read().replace("schema_version: 1", "schema_version: 9")
        with open(path, "w") as fh:
            fh.write(doc)
        with pytest.raises(SchemaError):
            fileio.load_task_spec(path)

    def test_wrong_kind_rejected(self, workdir):
        with pytest.raises(SchemaError):
            fileio.load_trace(workdir["spec"])

    def test_experiment_round_trip(self, workdir):
        with open(workdir["experiment"]) as fh:
            doc = yaml.safe_load(fh)
        assert "mask_enabled" not in doc and "weight_scheme" not in doc
        assert doc["loss"]["mask_enabled"] is True
        cfg = fileio.load_experiment_config(workdir["experiment"])
        assert cfg.world.iterations == 8
        assert cfg.loss.lambda_cr == 1.0
        assert cfg.effective_loss_config() is cfg.loss

    def test_every_config_field_and_param_has_a_kind(self):
        # so no field or param can be added without a check at load
        for cls in (simworld.WorldConfig, LossConfig):
            for f in fields(cls):
                assert f.metadata["kind"] in KINDS, f.name
        for _, kinds, _ in EVALUATORS.values():
            assert set(kinds.values()) <= set(KINDS)

    @pytest.mark.parametrize("cls,name,value", [
        *[(cls, f.name, math.nan) for cls in (simworld.WorldConfig, LossConfig)
          for f in fields(cls) if f.metadata["kind"] == "a finite number"],
        (simworld.WorldConfig, "container_half_extents", (3.0, math.nan)),
        (simworld.WorldConfig, "demo_noise", math.inf),
        (simworld.WorldConfig, "horizon", "12"),
        (simworld.WorldConfig, "seed", True),
        (simworld.WorldConfig, "grid", (24.0, 24)),
        (simworld.WorldConfig, "grid", (24, 24, 24)),
        (simworld.WorldConfig, "hidden", (64, "8")),
        (simworld.WorldConfig, "template", 3),
        (LossConfig, "beta", "1"),
        (LossConfig, "mask_enabled", 1),
    ])
    def test_config_in_code_rejects_a_value_not_of_its_kind(self, cls, name, value):
        # the loader checks each value's kind; a config built in code gets the same check
        kind = next(f.metadata["kind"] for f in fields(cls) if f.name == name)
        shown = list(value) if isinstance(value, tuple) else value
        with pytest.raises(SpecValidationError) as raised:
            cls(**{name: value})
        assert str(raised.value) == f"{name} must be {kind}, got {shown!r}"


class TestExperimentFileRoundTrip:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(experiment_configs())
    def test_load_save_round_trip(self, cfg):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "experiment.yaml")
            fileio.save_experiment_config(path, cfg)
            assert fileio.load_experiment_config(path) == cfg


class TestSpecFileRoundTrip:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(task_specs())
    def test_load_save_round_trip(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "spec.yaml")
            fileio.save_task_spec(path, spec)
            assert fileio.load_task_spec(path) == spec


def same_frames(a, b):
    """Field-by-field equality of two traces' frames views."""
    if a.horizon != b.horizon or tuple(a.grid) != tuple(b.grid):
        return False
    for fa, fb in zip(a.frames, b.frames, strict=True):
        if fa.keys() != fb.keys():
            return False
        for eid, sa in fa.items():
            sb = fb[eid]
            if not (np.array_equal(sa.position, sb.position) and sa.radius == sb.radius
                    and sa.gripper_closed == sb.gripper_closed
                    and sa.attribute_flags == sb.attribute_flags):
                return False
    return True


# ids and flag names that YAML would read as other scalars unless quoted
NAMES = ["cube", "arm_left", "yes", "null", "1", "on", "x y"]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def trace_groups(draw):
    """Groups of one with absent entities, unset flags and entities without a gripper."""
    horizon = draw(st.integers(1, 5))
    frames = []
    for _ in range(horizon):
        ids = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=4))
        frames.append({
            eid: EntityState(
                position=np.array([draw(FINITE), draw(FINITE)]),
                radius=draw(st.floats(min_value=0.0, allow_infinity=False)),
                gripper_closed=draw(st.sampled_from([None, True, False])),
                attribute_flags=draw(st.dictionaries(st.sampled_from(NAMES), st.booleans(),
                                                     max_size=3)),
            )
            for eid in ids
        })
    grid = (draw(st.integers(4, 64)), draw(st.integers(4, 64)))
    return TraceGroup.from_frames(horizon, frames, grid)


class TestTraceFileRoundTrip:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trace_groups())
    def test_load_save_round_trip(self, trace):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "trace.yaml")
            fileio.save_trace(path, trace)
            again = fileio.load_trace(path)
        assert same_frames(again, trace)

    def test_libyaml_used_when_built_in(self):
        if yaml.__with_libyaml__:
            assert fileio.YamlLoader is yaml.CSafeLoader
            assert fileio.YamlDumper is yaml.CSafeDumper
        else:
            assert fileio.YamlLoader is yaml.SafeLoader


def _edit_trace(source, dest, edit):
    """Copy a trace file with ``edit`` applied to its parsed document."""
    with open(source) as fh:
        doc = yaml.safe_load(fh)
    edit(doc["frames"])
    with open(dest, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)


def _set(frame, eid, key, value):
    def edit(frames):
        frames[frame][eid][key] = value
    return edit


def _drop(frame, eid, key):
    def edit(frames):
        del frames[frame][eid][key]
    return edit


def _set_flag(frames):
    frames[2]["cube"]["flags"]["in_container"] = "false"


def _frame_not_mapping(frames):
    frames[3] = ["arm_left", "cube"]


def _state_not_mapping(frames):
    frames[1]["cube"] = "here"


def _renamed(keys, old, new):
    """``keys`` (a mapping) with key ``old`` renamed ``new`` in its place."""
    renamed = {new if k == old else k: v for k, v in keys.items()}
    keys.clear()
    keys.update(renamed)


def _int_entity_id(frames):
    _renamed(frames[0], "arm_left", 7)


def _int_flag_name(frames):
    _renamed(frames[2]["cube"]["flags"], "in_container", 1)


def _edits(*edits):
    def edit(frames):
        for each in edits:
            each(frames)
    return edit


def _error_text(load, path):
    try:
        load(path)
    except SchemaError as err:
        return str(err)
    return None


@pytest.fixture
def errors_as_yaml_load(monkeypatch):
    """Each spec, trace or config loaded fails as it does with the canonical trace reader
    off, when ``yaml.load`` and the document checks read every file."""
    def checked(load):
        def load_and_compare(path):
            with monkeypatch.context() as m:
                m.setattr(fileio, "_canonical_cells", lambda text: None)
                expected = _error_text(load, path)
            assert _error_text(load, path) == expected
            return load(path)
        return load_and_compare
    for name in ("load_trace", "load_task_spec", "load_experiment_config"):
        monkeypatch.setattr(fileio, name, checked(getattr(fileio, name)))


@pytest.mark.usefixtures("errors_as_yaml_load")
class TestMalformedTraceFiles:
    @pytest.mark.parametrize("edit,message", [
        (_set(0, "arm_left", "gripper_closed", "no"),
         "frames[0]['arm_left']: 'gripper_closed' must be true or false, got 'no'"),
        (_set_flag, "frames[2]['cube']: flag 'in_container' must be true or false, got 'false'"),
        (_frame_not_mapping, "frames[3]: expected a mapping, got ['arm_left', 'cube']"),
        (_state_not_mapping, "frames[1]['cube']: expected a mapping, got 'here'"),
        (_set(4, "cube", "position", [math.nan, 1.0]),
         "frames[4]['cube']: 'position' must be two finite numbers, got [nan, 1.0]"),
        (_set(5, "bin", "radius", -0.5),
         "frames[5]['bin']: 'radius' must be a finite number >= 0, got -0.5"),
        (_int_entity_id, "frames[0]: entity key must be a string, got 7"),
        (_int_flag_name, "frames[2]['cube']: flag key must be a string, got 1"),
        (_drop(3, "cube", "position"), "frames[3]['cube']: missing key 'position'"),
        (_drop(7, "bin", "radius"), "frames[7]['bin']: missing key 'radius'"),
        (_set(2, "arm_left", "gripper_closed", None),
         "frames[2]['arm_left']: 'gripper_closed' must be true or false, got None"),
        (_set(6, "cube", "flags", None), "frames[6]['cube']: flags: expected a mapping, got None"),
        (_set(1, "bin", "flags", ["a"]), "frames[1]['bin']: flags: expected a mapping, got ['a']"),
    ], ids=["gripper_string", "flag_string", "frame_not_mapping", "state_not_mapping",
            "nan_position", "negative_radius", "int_entity_id", "int_flag_name",
            "missing_position", "missing_radius", "null_gripper", "null_flags", "list_flags"])
    def test_monitor_rejects(self, workdir, tmp_path, capsys, edit, message):
        path = str(tmp_path / "bad_trace.yaml")
        _edit_trace(workdir["clean"], path, edit)
        with pytest.raises(SchemaError) as err:
            fileio.load_trace(path)
        assert str(err.value) == f"{path}: {message}"
        assert main(["monitor", "--spec", workdir["spec"], "--trace", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("edit,message", [
        (_int_entity_id, "frames[0]: entity key must be a string, got 7"),
        (_int_flag_name, "frames[2]['cube']: flag key must be a string, got 1"),
    ], ids=["int_entity_id", "int_flag_name"])
    def test_mask_rejects_non_string_keys(self, workdir, tmp_path, capsys, edit, message):
        path = str(tmp_path / "bad_trace.yaml")
        _edit_trace(workdir["clean"], path, edit)
        assert main(["mask", "--spec", workdir["spec"], "--trace", workdir["clean"],
                     "--trace", path, "--layout", "entity"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    # Two bad values: the first in frame order is reported, and within an entity
    # position, then radius, then gripper_closed, then flags.
    @pytest.mark.parametrize("edit,message", [
        (_edits(_set(4, "arm_left", "position", [0.0]), _set_flag),
         "frames[2]['cube']: flag 'in_container' must be true or false, got 'false'"),
        (_edits(_set(3, "bin", "radius", "1"), _set(3, "cube", "radius", -1.0)),
         "frames[3]['cube']: 'radius' must be a finite number >= 0, got -1.0"),
        (_edits(_set(6, "arm_right", "radius", -1.0), _set(6, "arm_right", "position", None)),
         "frames[6]['arm_right']: 'position' must be two finite numbers, got None"),
        (_edits(_set(1, "arm_left", "gripper_closed", 0), _set(1, "arm_left", "radius", True)),
         "frames[1]['arm_left']: 'radius' must be a finite number >= 0, got True"),
        (_edits(_set(2, "cube", "flags", []), _set(2, "cube", "gripper_closed", None)),
         "frames[2]['cube']: 'gripper_closed' must be true or false, got None"),
        (_edits(_set(0, "bin", "flags", {"full": "no"}), _int_entity_id),
         "frames[0]: entity key must be a string, got 7"),
    ], ids=["frame_before_field", "entity_order", "position_before_radius",
            "radius_before_gripper", "gripper_before_flags", "entity_key_first"])
    def test_reports_first_bad_value(self, workdir, tmp_path, capsys, edit, message):
        path = str(tmp_path / "bad_trace.yaml")
        _edit_trace(workdir["clean"], path, edit)
        assert main(["monitor", "--spec", workdir["spec"], "--trace", path]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("key,value,message", [
        ("horizon", "12", "'horizon' must be an integer, got '12'"),
        ("grid", [24], "'grid' must be two integers, got [24]"),
        ("horizon", 11, "trace has 12 frames, horizon 11"),
    ])
    def test_monitor_rejects_header(self, workdir, tmp_path, capsys, key, value, message):
        with open(workdir["clean"]) as fh:
            doc = yaml.safe_load(fh)
        doc[key] = value
        path = tmp_path / "bad_header.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["monitor", "--spec", workdir["spec"], "--trace", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_malformed_yaml(self, workdir, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text("schema_version: 1\nkind: trace\nframes: [\n")
        assert main(["monitor", "--spec", workdir["spec"], "--trace", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed YAML: ")

    def test_int_with_no_value(self, workdir, tmp_path, capsys):
        with open(workdir["clean"]) as fh:
            text = fh.read()
        path = tmp_path / "hex.yaml"
        path.write_text(text.replace("horizon: 12", "horizon: 0x_"))
        assert main(["monitor", "--spec", workdir["spec"], "--trace", str(path)]) == 2
        assert capsys.readouterr().err == (f"error: {path}: malformed YAML: "
                                           "invalid literal for int() with base 16: ''\n")


def _config_with_clause(workdir, tmp_path, clause, predicate=None):
    """(config, spec) paths: the workdir experiment on its spec plus ``clause`` (and
    ``predicate``), writing to ``tmp_path / "out"``."""
    with open(workdir["spec"]) as fh:
        doc = yaml.safe_load(fh)
    doc["clauses"].append(clause)
    if predicate is not None:
        doc["predicates"].append(predicate)
    spec_path = tmp_path / "bad_spec.yaml"
    spec_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    with open(workdir["experiment"]) as fh:
        config = yaml.safe_load(fh)
    config.update(spec_path=str(spec_path), out_dir=str(tmp_path / "out"))
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=False))
    return str(config_path), spec_path


@pytest.mark.usefixtures("errors_as_yaml_load")
class TestMalformedInputs:
    @pytest.mark.parametrize("key,message", [
        ("condition", "condition: expected a mapping, got 'put the cube away'"),
        ("entities", "entities[1]: expected a mapping, got 'put the cube away'"),
        ("predicates", "predicates[1]: expected a mapping, got 'put the cube away'"),
        ("clauses", "clauses[1]: expected a mapping, got 'put the cube away'"),
    ])
    def test_spec_entry_not_mapping(self, workdir, tmp_path, capsys, key, message):
        with open(workdir["spec"]) as fh:
            doc = yaml.safe_load(fh)
        if key == "condition":
            doc[key] = "put the cube away"
        else:
            doc[key][1] = "put the cube away"
        path = tmp_path / "bad_spec.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["monitor", "--spec", str(path), "--trace", workdir["clean"]]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("section,key,value,message", [
        ("world", "learning_rate", "0.0003",
         "'world.learning_rate' must be a finite number, got '0.0003'"),
        ("world", "demo_noise", True, "'world.demo_noise' must be a finite number, got True"),
        ("world", "horizon", 12.0, "'world.horizon' must be an integer, got 12.0"),
        ("world", "grid", [24, 24, 24], "'world.grid' must be two integers, got [24, 24, 24]"),
        ("world", "container_half_extents", [3.0, "3"],
         "'world.container_half_extents' must be two finite numbers, got [3.0, '3']"),
        ("world", "hidden", 64, "'world.hidden' must be a list of integers, got 64"),
        ("world", "model_kind", None, "'world.model_kind' must be a string, got None"),
        ("world", "sed", 0, "unknown key 'sed' under 'world:'"),
        ("world", "seed", -1, "seed must be >= 0, got -1"),
        ("world", "horizon", 40, "horizon must be in [8, 32], got 40"),
        ("world", "template", "ordered_stack", "ordered_stack needs n_objects >= 2, got 1"),
        ("world", "group_size", 1, "group_size must be >= 2, got 1"),
        ("world", "model_kind", "lnear",
         "model_kind must be one of ('linear', 'mlp'), got 'lnear'"),
        ("world", "hidden", [0], "hidden must be >= 1, got [0]"),
        ("world", "hidden", [64, -3], "hidden must be >= 1, got [64, -3]"),
        ("world", "iterations", 0, "iterations must be >= 1, got 0"),
        ("world", "rollout_steps", 0, "rollout_steps must be >= 1, got 0"),
        ("world", "demo_count", 0, "demo_count must be >= 1, got 0"),
        ("world", "pretrain_batch", 0, "pretrain_batch must be >= 1, got 0"),
        ("world", "probe_count", -2, "probe_count must be >= 1, got -2"),
        ("world", "pretrain_steps", -5, "pretrain_steps must be >= 0, got -5"),
        ("world", "arm_radius", -0.9, "arm_radius must be >= 0, got -0.9"),
        ("world", "object_radius", -0.7, "object_radius must be >= 0, got -0.7"),
        ("world", "container_radius", -1.2, "container_radius must be >= 0, got -1.2"),
        ("world", "container_half_extents", [-3, -3],
         "container_half_extents must be >= 0, got [-3, -3]"),
        ("world", "container_half_extents", [3.0, -0.5],
         "container_half_extents must be >= 0, got [3.0, -0.5]"),
        ("world", "grid", [3, 3], "grid must be >= 4, got [3, 3]"),
        ("world", "grid", [24, 2], "grid must be >= 4, got [24, 2]"),
        ("world", "grid", [12, 12],
         "grid width 12 is too narrow for container_half_extents[0] 3.0: needs 0.18 * width > 3.0"),
        ("world", "container_half_extents", [5.0, 3.0],
         "grid width 24 is too narrow for container_half_extents[0] 5.0: needs 0.18 * width > 5.0"),
        ("world", "grasp_distance", -1.8, "grasp_distance must be >= 0, got -1.8"),
        ("world", "move_speed", -0.3, "move_speed must be >= 0, got -0.3"),
        ("world", "learning_rate", -0.0003, "learning_rate must be >= 0, got -0.0003"),
        ("world", "pretrain_lr", -0.02, "pretrain_lr must be >= 0, got -0.02"),
        ("world", "demo_noise", -0.06, "demo_noise must be >= 0, got -0.06"),
        ("world", "fail_fraction", 2.0, "fail_fraction must be in [0, 1], got 2.0"),
        ("world", "fail_fraction", -0.5, "fail_fraction must be in [0, 1], got -0.5"),
        ("world", "ema_rate", 5.0, "ema_rate must be in [0, 1], got 5.0"),
        ("loss", "beta", 0.0, "beta must be > 0"),
        ("loss", "beta", "1.0", "'loss.beta' must be a finite number, got '1.0'"),
        ("loss", "weight_scheme", 1, "'loss.weight_scheme' must be a string, got 1"),
        ("loss", "mask_enabled", "false", "'loss.mask_enabled' must be true or false, got 'false'"),
        ("loss", "lambda_cr", -1, "lambda_cr must be >= 0, got -1"),
        ("loss", "lambda_kl", -1, "lambda_kl must be >= 0, got -1"),
        ("loss", "weight_scheme", "gauss",
         "weight_scheme must be one of ('uniform', 'kernel'), got 'gauss'"),
        ("loss", None, {"weight_scheme": "kernel", "kernel_tau": 0},
         "kernel bandwidth must be > 0"),
        ("world", "template", "pick",
         "template must be one of ('pick_place', 'ordered_stack', 'persist_hold'), got 'pick'"),
        ("world", "n_objects", 4, "pick_place needs n_objects <= 3, got 4"),
    ])
    def test_experiment_value_types(self, workdir, tmp_path, capsys, section, key, value,
                                    message):
        # a row without a key sets every key of its mapping value
        with open(workdir["experiment"]) as fh:
            doc = yaml.safe_load(fh)
        doc[section].update(value if key is None else {key: value})
        path = tmp_path / "typed.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["train", "--config", str(path), "--dry-run"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    # Horizons in [8, 32] that the template's demo script does not fit in: these
    # change the template too, so they cannot be rows of the one-key table above.
    @pytest.mark.parametrize("flags", [["--dry-run"], []], ids=["dry_run", "run"])
    @pytest.mark.parametrize("template,n_objects,horizon,least", [
        ("ordered_stack", 2, 8, 12),
        ("ordered_stack", 3, 9, 12),
        ("ordered_stack", 2, 10, 12),
        ("ordered_stack", 2, 11, 12),
        ("persist_hold", 1, 8, 9),
    ])
    def test_horizon_shorter_than_the_demo_script(self, workdir, tmp_path, capsys, flags,
                                                   template, n_objects, horizon, least):
        with open(workdir["experiment"]) as fh:
            doc = yaml.safe_load(fh)
        doc["world"].update(template=template, n_objects=n_objects, horizon=horizon)
        del doc["spec_path"]  # the spec is built from the world
        doc["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "short.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["train", "--config", str(path), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {template} needs horizon >= {least}, got {horizon}\n")
        assert os.listdir(tmp_path) == ["short.yaml"]

    # Grids on which an object can start inside the container box (see sample_condition).
    @pytest.mark.parametrize("flags", [["--dry-run"], []], ids=["dry_run", "run"])
    @pytest.mark.parametrize("grid", [[4, 4], [24, 16]])
    def test_grid_too_narrow_for_the_container(self, workdir, tmp_path, capsys, flags, grid):
        with open(workdir["experiment"]) as fh:
            doc = yaml.safe_load(fh)
        doc["world"]["grid"] = grid
        doc["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "narrow.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["train", "--config", str(path), *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: grid width {grid[1]} is too narrow for container_half_extents[0] "
            "3.0: needs 0.18 * width > 3.0\n")
        assert os.listdir(tmp_path) == ["narrow.yaml"]

    def test_experiment_date_with_no_value(self, workdir, tmp_path, capsys):
        with open(workdir["experiment"]) as fh:
            text = fh.read()
        path = tmp_path / "dated.yaml"
        path.write_text(text.replace("out_dir:", "note: 2001-13-45\nout_dir:", 1))
        assert main(["train", "--config", str(path), "--dry-run"]) == 2
        assert capsys.readouterr().err == (f"error: {path}: malformed YAML: "
                                           "month must be in 1..12\n")

    @pytest.mark.parametrize("key,field,message", [
        ("entities", "id", "entities[0]: missing key 'id'"),
        ("predicates", "evaluator", "predicates[0]: missing key 'evaluator'"),
        ("clauses", "formula", "clauses[0]: missing key 'formula'"),
    ])
    def test_spec_entry_missing_key(self, workdir, tmp_path, capsys, key, field, message):
        with open(workdir["spec"]) as fh:
            doc = yaml.safe_load(fh)
        doc[key][0]["name_" + field] = doc[key][0].pop(field)
        path = tmp_path / "missing_key.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["monitor", "--spec", str(path), "--trace", workdir["clean"]]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("command", ["monitor", "mask"])
    @pytest.mark.parametrize("key,index,field,value,message", [
        ("clauses", 0, "formula", "G (",
         "{path}: clauses[0]: expected formula, found 'end of input' (at offset 3)"),
        ("clauses", 0, "formula", "G far(cube, bin)", "{path}: predicate 'far' not declared"),
        ("clauses", 0, "formula", "G inside(cube, shelf)", "{path}: entity 'shelf' not declared"),
        ("clauses", 0, "formula", "G moving(cube, bin)",
         "{path}: atom moving(cube,bin) has arity 2, declared 1"),
        ("clauses", 0, "formula", 4, "{path}: clauses[0]: 'formula' must be a string, got 4"),
        ("clauses", 0, "id", 7, "{path}: clauses[0]: 'id' must be a string, got 7"),
        ("clauses", None, None, [], "{path}: task spec needs at least one clause"),
        ("entities", 1, "id", "arm_left", "{path}: duplicate entity ids"),
        ("entities", 0, "id", 7, "{path}: entities[0]: 'id' must be a string, got 7"),
        ("entities", 0, "kind", "robot", "{path}: unknown entity kind 'robot'"),
        ("entities", 0, "kind", 3, "{path}: entities[0]: 'kind' must be a string, got 3"),
        ("entities", 3, "half_extents", [1.0],
         "{path}: entities[3]: 'half_extents' must be two finite numbers, got [1.0]"),
        ("entities", 3, "half_extents", ["a", "b"],
         "{path}: entities[3]: 'half_extents' must be two finite numbers, got ['a', 'b']"),
        ("entities", 3, "half_extents", [3.0, -3.0],
         "{path}: entities[3]: 'half_extents' must be >= 0, got [3.0, -3.0]"),
        ("predicates", 0, "arity", "2", "{path}: predicates[0]: 'arity' must be an integer, got '2'"),
        ("predicates", 0, "name", 1, "{path}: predicates[0]: 'name' must be a string, got 1"),
        ("predicates", 0, "evaluator", 2,
         "{path}: predicates[0]: 'evaluator' must be a string, got 2"),
        ("predicates", 0, "params", {"distance": "far"},
         "{path}: predicates[0]: predicate 'grasp' param 'distance' must be a finite number >= 0, "
         "got 'far'"),
        ("predicates", 0, "arity", 1,
         "{path}: predicates[0]: predicate 'grasp' has arity 1, but evaluator 'grasp' takes 2"),
        ("predicates", 1, "arity", 3,
         "{path}: predicates[1]: predicate 'inside' has arity 3, but evaluator 'inside' takes 2"),
        ("predicates", 2, "arity", 2,
         "{path}: predicates[2]: predicate 'moving' has arity 2, but evaluator 'moving' takes 1"),
        ("predicates", 3, None, {"name": "close", "arity": 1, "evaluator": "near",
                                 "params": {"distance": 1.0}},
         "{path}: predicates[3]: predicate 'close' has arity 1, but evaluator 'near' takes 2"),
        ("predicates", 3, None, {"name": "full", "arity": 2, "evaluator": "flag",
                                 "params": {"flag": "full"}},
         "{path}: predicates[3]: predicate 'full' has arity 2, but evaluator 'flag' takes 1"),
        ("predicates", 0, "evaluator", "telepathy",
         "{path}: predicates[0]: predicate 'grasp' has unknown evaluator 'telepathy'; "
         "choose from near, grasp, inside, moving, flag"),
        ("predicates", 2, "params", {},
         "{path}: predicates[2]: predicate 'moving' is missing param 'speed'"),
        ("predicates", 1, "params", {"note": [1, 2]},
         "{path}: predicates[1]: predicate 'inside' has param 'note', "
         "which evaluator 'inside' does not read"),
        ("predicates", 0, "params", {"distance": 1.8, "since": datetime.date(2001, 12, 14)},
         "{path}: predicates[0]: predicate 'grasp' has param 'since', "
         "which evaluator 'grasp' does not read"),
        ("predicates", 0, "params", {"distance": math.nan},
         "{path}: predicates[0]: predicate 'grasp' param 'distance' must be a finite number >= 0, "
         "got nan"),
        ("predicates", 0, "params", {"distance": -1.8},
         "{path}: predicates[0]: predicate 'grasp' param 'distance' must be a finite number >= 0, "
         "got -1.8"),
        ("predicates", 3, None, {"name": "close", "arity": 2, "evaluator": "near",
                                 "params": {"distance": -1.0}},
         "{path}: predicates[3]: predicate 'close' param 'distance' must be a finite number >= 0, "
         "got -1.0"),
        ("predicates", 2, "params", {"speed": -0.5},
         "{path}: predicates[2]: predicate 'moving' param 'speed' must be a finite number >= 0, "
         "got -0.5"),
        ("predicates", 0, "params", {"distance": True},
         "{path}: predicates[0]: predicate 'grasp' param 'distance' must be a finite number >= 0, "
         "got True"),
        ("predicates", 2, "params", {"speed": datetime.date(2001, 12, 14)},
         "{path}: predicates[2]: predicate 'moving' param 'speed' must be a finite number >= 0, "
         "got datetime.date(2001, 12, 14)"),
        ("predicates", 2, "params", {"speed": {"fast"}},
         "{path}: predicates[2]: predicate 'moving' param 'speed' must be a finite number >= 0, "
         "got {{'fast'}}"),
        ("predicates", 3, None, {"name": "full", "arity": 1, "evaluator": "flag",
                                 "params": {"flag": 1}},
         "{path}: predicates[3]: predicate 'full' param 'flag' must be a string, got 1"),
        ("predicates", 3, None, {"name": "close", "arity": 2, "evaluator": "near",
                                 "params": {"distance": "far"}},
         "{path}: predicates[3]: predicate 'close' param 'distance' must be a finite number >= 0, "
         "got 'far'"),
        ("task_id", None, None, 5, "{path}: 'task_id' must be a string, got 5"),
        ("predicates", 3, None, {"name": "grasp", "arity": 2, "evaluator": "near",
                                 "params": {"distance": 100.0}},
         "{path}: duplicate predicate name 'grasp'"),
        ("clauses", 3, None, {"id": "terminal_cube", "formula": "G moving(cube)"},
         "{path}: duplicate clause id 'terminal_cube'"),
        ("clauses", 3, None, {"id": "arm_outside", "formula": "G !inside(cube, arm_left)"},
         "{path}: entity 'arm_left' has no half_extents box"),
    ])
    def test_bad_spec_exits_2(self, workdir, tmp_path, capsys, command, key, index, field, value,
                              message):
        with open(workdir["spec"]) as fh:
            doc = yaml.safe_load(fh)
        if index is None:
            doc[key] = value
        elif field is None:  # a new entry, declared but used by no clause
            doc[key].insert(index, value)
        else:
            doc[key][index][field] = value
        path = tmp_path / "bad_spec.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main([command, "--spec", str(path), "--trace", workdir["violating"]]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"

    @pytest.mark.parametrize("key,value,message", [
        ("instruction", 5, "'instruction' must be a string, got 5"),
        ("cube", [1.0, 2.0, 3.0], "layout 'cube' must be two finite numbers, got [1.0, 2.0, 3.0]"),
        ("cube", [True, False], "layout 'cube' must be two finite numbers, got [True, False]"),
        ("cube", [1.0], "layout 'cube' must be two finite numbers, got [1.0]"),
        ("cube", [1.0, "a"], "layout 'cube' must be two finite numbers, got [1.0, 'a']"),
        ("cube", 3, "layout 'cube' must be two finite numbers, got 3"),
    ], ids=["instruction_int", "three_numbers", "booleans", "one_number", "not_a_number",
            "scalar"])
    def test_bad_spec_condition_exits_2(self, workdir, tmp_path, capsys, key, value, message):
        with open(workdir["spec"]) as fh:
            doc = yaml.safe_load(fh)
        if key == "instruction":
            doc["condition"][key] = value
        else:
            doc["condition"]["layout"][key] = value
        path = tmp_path / "bad_condition.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        assert main(["monitor", "--spec", str(path), "--trace", workdir["clean"]]) == 2
        assert capsys.readouterr().err == f"error: {path}: condition: {message}\n"

    @pytest.mark.parametrize("flags", [["--dry-run"], []], ids=["dry_run", "run"])
    def test_train_rejects_inside_without_box_before_writing(self, workdir, tmp_path, capsys,
                                                             flags):
        config_path, spec_path = _config_with_clause(
            workdir, tmp_path, {"id": "arm_outside", "formula": "G !inside(cube, arm_left)"})
        assert main(["train", "--config", config_path, *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: {spec_path}: entity 'arm_left' has no half_extents box\n")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("flags", [["--dry-run"], []], ids=["dry_run", "run"])
    @pytest.mark.parametrize("predicate,clause,message", [
        (None, {"id": "cube_never_grasps", "formula": "G !grasp(cube, bin)"},
         "clause 'cube_never_grasps': entity 'cube' has no gripper state at frame 1"),
        ({"name": "full", "arity": 1, "evaluator": "flag", "params": {"flag": "full"}},
         {"id": "cube_never_full", "formula": "G !full(cube)"},
         "clause 'cube_never_full': flag 'full' absent on 'cube' at frame 1"),
    ], ids=["grasp_by_object", "flag_the_world_never_sets"])
    def test_train_rejects_spec_the_world_cannot_evaluate(self, workdir, tmp_path, capsys,
                                                         predicate, clause, message, flags):
        config_path, _ = _config_with_clause(workdir, tmp_path, clause, predicate)
        assert main(["train", "--config", config_path, *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.path.exists(tmp_path / "out")

    def test_train_out_dir_that_is_a_file_exits_2(self, workdir, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept")
        assert main(["train", "--config", workdir["experiment"], "--out-dir", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and str(taken) in err
        assert os.listdir(tmp_path) == ["taken"] and taken.read_text() == "kept"

    def test_train_rejects_spec_that_contradicts_world(self, workdir, tmp_path, capsys):
        with open(workdir["experiment"]) as fh:
            doc = yaml.safe_load(fh)
        doc["world"]["n_objects"] = 2
        doc["out_dir"] = str(tmp_path / "out")
        path = tmp_path / "two_objects.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        message = ("error: task spec entities do not match the world config: "
                   "missing ['cube_b'], extra []\n")
        assert main(["train", "--config", str(path), "--dry-run"]) == 2
        assert capsys.readouterr().err == message
        assert main(["train", "--config", str(path)]) == 2
        assert capsys.readouterr().err == message
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("payload,message", [
        ([1, 2], "expected a JSON object, got list"),
        ({"summary": [0.5]}, "'summary' must be a JSON object, got list"),
    ])
    def test_compare_rejects_non_object(self, tmp_path, capsys, payload, message):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(payload))
        assert main(["compare", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("payload,message", [
        ({"summary": {"first_window_success": True}},
         "'summary.first_window_success' must be a finite number, got True"),
        ({"summary": {"first_window_success": "x"}},
         "'summary.first_window_success' must be a finite number, got 'x'"),
        ({"summary": {"final_offmask_drift": math.inf}},
         "'summary.final_offmask_drift' must be a finite number, got inf"),
        ({"mode": {"mask_enabled": [1]}}, "'mode.mask_enabled' must be true or false, got [1]"),
        ({"mode": {"corrective_enabled": 1}},
         "'mode.corrective_enabled' must be true or false, got 1"),
        ({"mode": {"corrective_enabled": None}},
         "'mode.corrective_enabled' must be true or false, got None"),
    ], ids=["number_true", "number_text", "number_inf", "flag_list", "flag_one", "flag_null"])
    def test_compare_rejects_malformed_values(self, tmp_path, capsys, payload, message):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps(payload))
        assert main(["compare", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n" and captured.out == ""

    def test_compare_accepts_absent_keys_and_null_numbers(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_text(json.dumps({"summary": {"first_window_success": None,
                                                "last_window_success": 0.25},
                                    "mode": {"mask_enabled": False}}))
        assert main(["compare", str(path)]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row.split() == [str(path), "False", "None", "-", "0.250", "-"]

    def test_compare_rejects_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "summary.json"
        path.write_bytes(b'{"summary": "\xd0"}')
        assert main(["compare", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: 'utf-8' codec can't decode byte 0xd0")

    def test_negative_dump_traces(self, workdir, capsys):
        assert main(["train", "--config", workdir["experiment"], "--dump-traces", "-2"]) == 2
        assert capsys.readouterr().err == "error: --dump-traces must be >= 0, got -2\n"

    def test_verify_negative_seed(self, capsys):
        assert main(["verify", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    def test_train_negative_seed(self, workdir, capsys):
        assert main(["train", "--config", workdir["experiment"], "--seed", "-1", "--dry-run"]) == 2
        assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"

    def test_train_seed_goes_through_the_world_check(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_check_seed", lambda seed: None)  # the flag's own message off
        assert main(["train", "--config", workdir["experiment"], "--seed", "-1", "--dry-run"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestCliExitCodes:
    def test_monitor_pass(self, workdir, capsys):
        code = main(["monitor", "--spec", workdir["spec"], "--trace", workdir["clean"]])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reward"] == 1
        assert all(c["witness"] == [] for c in payload["clauses"])

    def test_monitor_violation(self, workdir, capsys):
        code = main(["monitor", "--spec", workdir["spec"], "--trace", workdir["violating"]])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["reward"] == 0
        assert any(c["witness"] for c in payload["clauses"])

    @pytest.mark.usefixtures("errors_as_yaml_load")
    def test_monitor_malformed_trace(self, workdir, tmp_path, capsys):
        bad = tmp_path / "broken.yaml"
        bad.write_text("schema_version: 1\nkind: trace\nhorizon: 2\nframes: []\n")
        code = main(["monitor", "--spec", workdir["spec"], "--trace", str(bad)])
        assert code == 2

    def test_mask_command(self, workdir, capsys):
        code = main(
            [
                "mask",
                "--spec", workdir["spec"],
                "--trace", workdir["clean"],
                "--trace", workdir["violating"],
                "--layout", "entity",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["layout"]["site_kind"] == "entity"
        assert sum(payload["temporal_bits"]) > 0
        assert sum(payload["spatial_bits"]) == 4  # arms, cube, bin

    def test_verify_unknown_suite(self, capsys):
        assert main(["verify", "--suite", "nonsense"]) == 2

    def test_verify_nft(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["verify", "--suite", "nft", "--seed", "3", "--out", out])
        assert code == 0
        with open(out) as fh:
            payload = json.load(fh)
        assert payload["passed"] and payload["suite"] == "nft"

    def test_verify_report_is_strict_json(self, tmp_path, capsys):
        # seed 63's variance curves never cross, so t* is NaN: it is written as null
        def reject(token):
            raise ValueError(f"non-JSON token {token}")

        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "variance", "--seed", "63", "--out", str(out)]) == 1
        printed = json.loads(capsys.readouterr().out, parse_constant=reject)
        written = json.loads(out.read_text(), parse_constant=reject)
        assert printed == written
        crossing = [c for c in written["checks"] if c["name"] == "variance_crossing"]
        assert crossing[0]["value"] is None and not crossing[0]["passed"]

    def test_train_dry_run(self, workdir):
        assert main(["train", "--config", workdir["experiment"], "--dry-run"]) == 0

    def test_train_missing_config(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("key,value", [("mask_enabled", "false"), ("weight_scheme", "uniform")])
    def test_train_rejects_top_level_loss_flag(self, workdir, tmp_path, capsys, key, value):
        path = tmp_path / "top_level.yaml"
        with open(workdir["experiment"]) as fh:
            path.write_text(fh.read() + f"{key}: {value}\n")
        assert main(["train", "--config", str(path), "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert f"{key!r} belongs under 'loss:', not at top level" in err

    @pytest.mark.parametrize("key,value,message", [
        ("corective_enabled", False, "unknown top-level key 'corective_enabled'"),
        ("corrective_enabled", False, "unknown top-level key 'corrective_enabled'"),
        ("out_dir", 5, "'out_dir' must be a string, got 5"),
        ("spec_path", True, "'spec_path' must be a string, got True"),
    ])
    def test_train_rejects_bad_top_level_key(self, workdir, tmp_path, capsys, key, value,
                                             message):
        with open(workdir["experiment"]) as fh:
            doc = yaml.safe_load(fh)
        doc[key] = value
        path = tmp_path / "bad_key.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        with pytest.raises(SchemaError, match=message):
            fileio.load_experiment_config(str(path))
        assert main(["train", "--config", str(path), "--dry-run"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["LOUD", "BASIC_FORMAT"])
    def test_invalid_log_level_rejected(self, workdir, monkeypatch, capsys, value):
        monkeypatch.setenv("CREFLOW_LOG", value)
        assert main(["train", "--config", workdir["experiment"], "--dry-run"]) == 2
        assert capsys.readouterr().err == (
            "error: CREFLOW_LOG must be one of DEBUG, INFO, WARNING, ERROR, CRITICAL, "
            f"got {value!r}\n"
        )

    def test_train_and_compare(self, workdir, capsys):
        out_a = str(workdir["root"] / "run_a")
        out_b = str(workdir["root"] / "run_b")
        assert main(["train", "--config", workdir["experiment"], "--out-dir", out_a]) == 0
        assert main(["train", "--config", workdir["experiment"], "--out-dir", out_b]) == 0
        capsys.readouterr()
        with open(os.path.join(out_a, "metrics.csv"), "rb") as fh:
            bytes_a = fh.read()
        with open(os.path.join(out_b, "metrics.csv"), "rb") as fh:
            bytes_b = fh.read()
        assert bytes_a == bytes_b  # same seed, same config: identical output
        code = main(
            ["compare", os.path.join(out_a, "summary.json"), os.path.join(out_b, "summary.json")]
        )
        assert code == 0
        table = capsys.readouterr().out
        assert "first" in table and table.count("run_") == 2

    def test_run_directory_reproduces_the_run(self, workdir, capsys):
        first = str(workdir["root"] / "run_seed1")
        again = str(workdir["root"] / "run_seed1_again")
        assert main(["train", "--config", workdir["experiment"], "--seed", "1",
                     "--out-dir", first]) == 0
        assert sorted(os.listdir(first)) == [
            "experiment.yaml", "metrics.csv", "summary.json", "task_spec.yaml"]
        saved = fileio.load_experiment_config(os.path.join(first, fileio.RUN_CONFIG_FILE))
        assert saved.world.seed == 1 and saved.out_dir == first
        assert saved.spec_path == os.path.abspath(os.path.join(first, fileio.RUN_SPEC_FILE))
        spec = fileio.load_task_spec(saved.spec_path)
        assert [c.source for c in spec.clauses] == [
            c.source for c in fileio.load_task_spec(workdir["spec"]).clauses]
        assert main(["train", "--config", os.path.join(first, fileio.RUN_CONFIG_FILE),
                     "--out-dir", again]) == 0
        capsys.readouterr()
        with open(os.path.join(first, "metrics.csv"), "rb") as fa, \
                open(os.path.join(again, "metrics.csv"), "rb") as fb:
            assert fa.read() == fb.read()

    def test_dumped_trace_names_carry_the_run_spec_reward(self, workdir, tmp_path, capsys):
        with open(workdir["spec"]) as fh:
            spec_doc = yaml.safe_load(fh)
        spec_doc["clauses"] = [{"id": "avoid_bin", "formula": "G !inside(cube, bin)"}]
        spec_path = tmp_path / "avoid_bin.yaml"
        spec_path.write_text(yaml.safe_dump(spec_doc, sort_keys=False))
        cfg = fileio.load_experiment_config(workdir["experiment"])
        cfg.spec_path, cfg.out_dir = str(spec_path), str(tmp_path / "out")
        config_path = str(tmp_path / "experiment.yaml")
        fileio.save_experiment_config(config_path, cfg)
        assert main(["train", "--config", config_path, "--dump-traces", "8"]) == 0
        names = sorted(os.listdir(tmp_path / "out" / "traces"))
        assert len(names) == 8
        for name in names:
            reward = int(name.removesuffix(".yaml").rsplit("_r", 1)[1])
            trace = str(tmp_path / "out" / "traces" / name)
            assert main(["monitor", "--spec", str(spec_path), "--trace", trace]) == 1 - reward
        capsys.readouterr()

    def test_train_nonfinite_dump(self, workdir, capsys):
        cfg = fileio.load_experiment_config(workdir["experiment"])
        cfg.world.learning_rate = 50.0
        cfg.out_dir = str(workdir["root"] / "diverge")
        path = str(workdir["root"] / "diverging.yaml")
        fileio.save_experiment_config(path, cfg)
        assert main(["train", "--config", path]) == 1
        with open(os.path.join(cfg.out_dir, "diagnostic_dump.json")) as fh:
            dump = json.load(fh)
        assert set(dump) == {"error", "world", "iteration", "rows", "rewards", "param_norm",
                             "grad_norm"}
        assert f"at iteration {dump['iteration']}" in dump["error"]
        assert dump["world"]["learning_rate"] == 50.0
        assert [row["iteration"] for row in dump["rows"]] == list(range(dump["iteration"]))
        assert all(set(row) == set(simworld.METRIC_COLUMNS) for row in dump["rows"])
        assert set(dump["rewards"] or []) <= {0, 1}
        for key in ("param_norm", "grad_norm"):
            assert dump[key] is None or math.isfinite(dump[key]) and dump[key] >= 0
        assert not os.path.exists(os.path.join(cfg.out_dir, "metrics.csv"))


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "creflow.cli", "verify", "--suite", "masked"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stderr
