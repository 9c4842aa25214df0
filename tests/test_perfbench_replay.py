"""The benchmark's replay checks hold on its whole pool after a file round trip,
``traces_equal`` sees one changed cell, and full-size training runs give the
recorded metric rows.

``perfbench/test_smoke.py`` is outside the Tier-1 test paths, yet the
``replay_pixel`` workload counts a failed operation whenever a trace it loads
differs from the one it saved (``workloads.traces_equal``, which reads
``TraceGroup.frames``), or a group's rewards or mask bits differ from the
independent oracle's and the recorded ones; the ``train_pick_place``
workload counts one whenever a run's rows differ from the digest recorded for
its seed at the benchmark's size (300 iterations, full pretraining). The
script is imported here as it is, with no bytecode written next to it.
"""

import dataclasses
import importlib.util
import os
import sys

import numpy as np
import pytest

from creflow import fileio, simworld
from creflow.mask import LatentLayout

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sys, "dont_write_bytecode", True)
        m.syspath_prepend(PERFBENCH)  # for its ``from harness import ...``
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def replay_trace(workloads):
    return workloads.replay_group_traces(workloads.replay_world(), 0)[0]


def edited(trace, name, edit):
    """``trace`` with ``edit`` applied to a copy of its array ``name``."""
    array = getattr(trace, name).copy()
    edit(array)
    return dataclasses.replace(trace, **{name: array})


def _move(xy):
    xy[0, 5, 0, 1] += 0.25


def _flip_first_set(array):
    """Flip the first cell of ``array`` that is set or clear (not -1)."""
    at = tuple(np.argwhere(array >= 0)[0])
    array[at] = 1 - array[at]


def test_traces_equal_holds_for_a_loaded_trace(workloads, replay_trace, tmp_path):
    path = tmp_path / "trace.yaml"
    fileio.save_trace(path, replay_trace)
    assert workloads.traces_equal(fileio.load_trace(path), replay_trace)


@pytest.mark.parametrize("name,edit", [("xy", _move), ("flags", _flip_first_set),
                                       ("gripper", _flip_first_set)],
                         ids=["moved_coordinate", "flipped_flag", "flipped_gripper"])
def test_traces_equal_sees_one_changed_cell(workloads, replay_trace, tmp_path, name, edit):
    path = tmp_path / "trace.yaml"
    fileio.save_trace(path, replay_trace)
    assert not workloads.traces_equal(fileio.load_trace(path), edited(replay_trace, name, edit))


def test_replay_pool_checks_hold_after_a_file_round_trip(workloads, tmp_path):
    world = workloads.replay_world()
    spec = simworld.build_task_spec(world)
    layout = LatentLayout.pixel(world.horizon, world.grid)
    groups = workloads.load_reference()["replay"]["groups"]
    assert len(groups) == 32
    for gid, recorded in groups.items():
        loaded = []
        for i, trace in enumerate(workloads.replay_group_traces(world, int(gid))):
            path = tmp_path / f"group{gid}-{i}.yaml"
            fileio.save_trace(path, trace)
            loaded.append(fileio.load_trace(path))
            assert workloads.traces_equal(loaded[-1], trace), path.name
        verdicts, group_mask = workloads.score_group(spec, layout, loaded)
        rewards = [v.reward for v in verdicts]
        assert rewards == [workloads.bruteforce_reward(spec, t) for t in loaded], gid
        assert rewards == recorded["rewards"], gid
        assert workloads.mask_fingerprint(group_mask) == recorded["mask"], gid


@pytest.mark.parametrize("seed", [0, 1])
def test_full_size_train_rows_match_the_reference(workloads, seed):
    cfg = fileio.load_experiment_config(workloads.TRAIN_CONFIG)
    world = dataclasses.replace(cfg.world, seed=seed,
                                iterations=workloads.Sizes().train_iterations)
    _, _, rows = workloads.train_job(world, simworld.build_task_spec(world), cfg.loss)
    recorded = workloads.load_reference()["train"]["seeds"][str(seed)][str(world.iterations)]
    assert workloads.rows_digest(rows) == recorded
