"""The benchmark's replay check holds for a saved and loaded trace and sees one changed cell.

``perfbench/test_smoke.py`` is outside the Tier-1 test paths, yet the
``replay_pixel`` workload checks every trace it loads against the one it saved
with ``workloads.traces_equal``, which reads ``TraceGroup.frames``. The script
is imported here as it is, with no bytecode written next to it.
"""

import dataclasses
import importlib.util
import os
import sys

import numpy as np
import pytest

from creflow import fileio

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
