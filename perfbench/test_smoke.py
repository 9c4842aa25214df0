"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root: python3 -m pytest -q perfbench/test_smoke.py
Every workload runs untraced and traced (a few iterations, one seed, one
group, one suite); the correctness checks are shown to count real failures.
"""

import copy
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

TINY = wl.Sizes(setup_reps=1, train_iterations=5, train_traced_jobs=1,
                verify_suites=(wl.VERIFY_STEP_SUITE,), verify_traced_jobs=1,
                replay_groups=1, replay_scores_per_round=1, replay_traced_rounds=1,
                kernel_reps=2)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_harness():
    import run

    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == wl.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == wl.PER_LAYER


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_workload_runs_clean(workload, traced):
    result = wl.run(workload, seed=0, seconds=0, traced=traced, sizes=TINY)
    assert result.outcome.attempted >= 1
    assert result.outcome.failed == 0, result.outcome.failures
    expected = wl.PER_LAYER if traced else wl.END_TO_END
    assert [(name, unit) for name, (_, unit) in result.metrics.items()] == \
        [(name, unit) for name, unit, _ in expected]
    assert all(math.isfinite(value) for value, _ in result.metrics.values())
    if not traced:
        assert all(value > 0 for value, _ in result.metrics.values())


def test_traced_runs_see_their_layers():
    train = wl.run("train_pick_place", 0, 0, True, sizes=TINY).metrics
    replay = wl.run("replay_pixel", 0, 0, True, sizes=TINY).metrics
    assert train["monitor.run_monitor.calls"][0] == 5 * 8
    assert train["trace.atlas_consumed_ratio"][0] == 0.0
    assert replay["trace.atlas_consumed_ratio"][0] == 1.0
    assert replay["simworld.decode_trace.calls"][0] == 0.0


def test_failed_checks_are_counted_and_the_run_continues():
    ref = wl.load_reference()
    bad = copy.deepcopy(ref)
    for digests in bad["train"]["seeds"].values():
        digests["5"] = "0" * 64
    for group in bad["replay"]["groups"].values():
        group["mask"]["spatial_cells"] += 1
    # real failures of the program's own checks, recorded at the reference commit
    bad["verify"]["passing_seeds"] = [
        int(seed) for seed, checks in ref["verify"]["failing_at_record"].items()
        if "variance_crossing" in checks][:1]

    train = wl.run("train_pick_place", 0, 0, False, sizes=TINY, ref=bad).outcome
    assert (train.attempted, train.failed) == (1, 1)
    verify = wl.run("verify_oracle", 0, 0, False, sizes=TINY, ref=bad).outcome
    assert (verify.attempted, verify.failed) == (1, 1)
    replay = wl.run("replay_pixel", 0, 0, False, sizes=TINY, ref=bad).outcome
    assert (replay.attempted, replay.failed) == (wl.REPLAY_GROUP + 1, 1)


def test_run_refuses_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_oracle", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
