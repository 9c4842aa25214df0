"""Record the reference outputs the benchmark checks against.

Run from the repository root: python3 perfbench/record_reference.py
It rewrites perfbench/reference.json from the current program, so run it
only at a commit whose outputs are the accepted ones (about two minutes on
two cores).

- train: for each world seed in the pool, the sha256 of the version-1
  metrics rows of configs/creflow.yaml after 5 and after 300 iterations.
- verify: the oracle seeds whose six suites all pass; seeds that fail are
  listed with their failing checks and left out of the pool.
- replay: for each group in the pool, the rewards and the pixel group-mask
  bits.
"""

import dataclasses
import json
import os
import sys

import harness

harness.limit_blas_threads()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from creflow import fileio, oracle, simworld  # noqa: E402
from creflow.mask import LatentLayout  # noqa: E402

import workloads as wl  # noqa: E402

TRAIN_SEEDS = range(24)
VERIFY_SEEDS = range(80)
REPLAY_GROUPS = range(32)


def record_train():
    cfg = fileio.load_experiment_config(wl.TRAIN_CONFIG)
    seeds = {}
    for seed in TRAIN_SEEDS:
        world = dataclasses.replace(cfg.world, seed=seed)
        spec = simworld.build_task_spec(world)
        _, _, rows = wl.train_job(world, spec, cfg.effective_loss_config())
        seeds[str(seed)] = {str(k): wl.rows_digest(rows[:k]) for k in wl.TRAIN_PREFIXES}
        print(f"train seed {seed}: last success {rows[-1]['success_fraction']}", flush=True)
    return {"config": "configs/creflow.yaml", "seeds": seeds}


def record_verify():
    passing, failing = [], {}
    for seed in VERIFY_SEEDS:
        bad = [c.name for name in oracle.SUITES
               for c in oracle.run_suite(name, seed).checks if not c.passed]
        if bad:
            failing[str(seed)] = bad
        else:
            passing.append(seed)
    print(f"verify: {len(passing)} passing, failing {failing}", flush=True)
    return {"passing_seeds": passing, "failing_at_record": failing}


def record_replay():
    world = wl.replay_world()
    spec = simworld.build_task_spec(world)
    layout = LatentLayout.pixel(world.horizon, world.grid)
    groups = {}
    for gid in REPLAY_GROUPS:
        verdicts, group_mask = wl.score_group(spec, layout, wl.replay_group_traces(world, gid))
        groups[str(gid)] = {"rewards": [v.reward for v in verdicts],
                            "mask": wl.mask_fingerprint(group_mask)}
    failing = sum(r == 0 for g in groups.values() for r in g["rewards"])
    print(f"replay: {failing} of {len(groups) * wl.REPLAY_GROUP} traces fail", flush=True)
    return {"world": {k: list(v) if isinstance(v, tuple) else v
                      for k, v in wl.REPLAY_WORLD.items()}, "groups": groups}


def main():
    reference = {"replay": record_replay(), "verify": record_verify(), "train": record_train()}
    with open(wl.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
