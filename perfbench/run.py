"""creflow benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload train_pick_place --seed 0 --seconds 20 --trace 0

Workloads: train_pick_place, verify_oracle, replay_pixel (see README.md).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The human-readable lines come first; the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Exit code 2 means the benchmark
could not run (bad arguments, or no creflow sources next to it).

The program runs in this one process with BLAS/OpenMP limited to one thread.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import harness  # noqa: E402

harness.limit_blas_threads()

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("train_pick_place", "verify_oracle", "replay_pixel")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds >= 0:
        parser.error("--seconds must be >= 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "creflow", "__init__.py")):
        print(f"error: creflow sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    import_s = time.perf_counter() - _START
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           import_s=import_s)
    outcome = result.outcome

    mode = "per-layer (traced run)" if args.trace else "end-to-end (untraced run)"
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} {mode}")
    for name, value, unit, samples in result.report:
        print(f"{name:40s} {value:14.6g} {unit:6s} n={samples}")
    for name, (value, unit) in result.metrics.items():
        samples = result.samples.get(name)
        print(f"{name:40s} {value:14.6g} {unit:6s}" + (f" n={samples}" if samples else ""))
    print(f"{'failed_ops_frac':40s} {outcome.failed / max(outcome.attempted, 1):14.6g} frac"
          f"   n={outcome.attempted}")
    print("machine " + json.dumps(harness.machine_facts(), sort_keys=True))

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result.metrics.items()}
    correct = outcome.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
