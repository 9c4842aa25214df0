"""Command-line surface: monitor, mask, verify, train, compare.

Exit codes: 0 success/pass, 1 semantic failure (violated spec, failed
verification check, non-finite training loss), 2 usage or input-parse error.
A command raises a CreflowError or OSError for a bad input; ``main`` alone
reports it, as one ``error:`` line on stderr and exit 2.
All randomness flows from --seed; CREFLOW_LOG sets the logging level.
"""

import argparse
import dataclasses
import json
import logging
import os
import sys

from . import fileio, oracle, simworld
from .errors import CreflowError, NonFiniteLoss, SchemaError
from .mask import LatentLayout, build_group_mask
from .monitor import run_monitor
from .trace import checked

log = logging.getLogger("creflow")

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")


def _setup_logging() -> bool:
    """Apply CREFLOW_LOG; report and return False if it names no level."""
    value = os.environ.get("CREFLOW_LOG", "WARNING")
    if value.upper() not in LOG_LEVELS:
        print(f"error: CREFLOW_LOG must be one of {', '.join(LOG_LEVELS)}, got {value!r}",
              file=sys.stderr)
        return False
    logging.basicConfig(level=value.upper(), format="%(levelname)s %(name)s: %(message)s")
    return True


def _emit(payload, out_path):
    if out_path:
        fileio.write_json(out_path, payload)
    print(fileio.json_text(payload))


def cmd_monitor(args) -> int:
    spec = fileio.load_task_spec(args.spec)
    verdict = run_monitor(spec, fileio.load_trace(args.trace))
    _emit(fileio.verdict_report(verdict), args.out)
    return EXIT_OK if verdict.reward == 1 else EXIT_FAIL


def cmd_mask(args) -> int:
    spec = fileio.load_task_spec(args.spec)
    traces = [fileio.load_trace(p) for p in args.trace]
    verdicts = [run_monitor(spec, t) for t in traces]
    horizon = traces[0].horizon
    if args.layout == "pixel":
        layout = LatentLayout.pixel(horizon, traces[0].grid)
    else:
        layout = LatentLayout.entity(horizon, spec.entity_ids(), channels=2)
    mask = build_group_mask(verdicts, layout, spec.clause_entities())
    _emit(fileio.mask_report(mask, layout), args.out)
    return EXIT_OK


def _check_seed(seed):
    """The ``--seed`` flag's own message; a config's seed is checked by ``WorldConfig``."""
    if seed is not None and seed < 0:
        raise CreflowError(f"--seed must be >= 0, got {seed}")


def cmd_verify(args) -> int:
    _check_seed(args.seed)
    if args.suite != "all" and args.suite not in oracle.SUITES:
        raise CreflowError(
            f"unknown suite {args.suite!r}; choose from all, {', '.join(oracle.SUITES)}")
    report = oracle.run_suite(args.suite, args.seed)
    _emit(report.to_dict(), args.out)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: value={check.value:.6g} tol={check.tolerance:.6g}",
              file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_train(args) -> int:
    if args.dump_traces < 0:
        raise CreflowError(f"--dump-traces must be >= 0, got {args.dump_traces}")
    _check_seed(args.seed)
    cfg = fileio.load_experiment_config(args.config)
    if args.seed is not None:
        cfg.world = dataclasses.replace(cfg.world, seed=args.seed)
    if args.out_dir:
        cfg.out_dir = args.out_dir
    if cfg.spec_path:
        spec = fileio.load_task_spec(cfg.spec_path)
    else:
        spec = simworld.build_task_spec(cfg.world)
    simworld.check_spec_matches_world(spec, cfg.world)
    if args.dry_run:
        log.info("config and spec validated")
        return EXIT_OK
    os.makedirs(cfg.out_dir, exist_ok=True)
    fileio.save_run_inputs(cfg, spec)
    bundle = simworld.pretrain_reference(cfg.world)
    try:
        series = simworld.run_online_loop(cfg.world, spec, bundle, cfg.loss)
    except NonFiniteLoss as err:
        dump_path = os.path.join(cfg.out_dir, "diagnostic_dump.json")
        fileio.write_json(dump_path, {"error": str(err),
                                      "world": fileio.world_config_dict(cfg.world), **err.state})
        print(f"error: {err} (diagnostics: {dump_path})", file=sys.stderr)
        return EXIT_FAIL
    csv_path = os.path.join(cfg.out_dir, "metrics.csv")
    summary_path = os.path.join(cfg.out_dir, "summary.json")
    fileio.write_metrics_csv(csv_path, series)
    fileio.write_json(summary_path, fileio.train_summary(series, cfg))
    if args.dump_traces:
        trace_dir = os.path.join(cfg.out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        for i, (trace, reward) in enumerate(
            simworld.sample_decoded_rollouts(cfg.world, bundle, args.dump_traces, spec)
        ):
            fileio.save_trace(os.path.join(trace_dir, f"rollout_{i:03d}_r{reward}.yaml"), trace)
        log.info("wrote %d rollout traces to %s", args.dump_traces, trace_dir)
    print(fileio.json_text(series.summary))
    log.info("metrics: %s summary: %s", csv_path, summary_path)
    return EXIT_OK


# The columns ``compare`` prints: (section, key, kind of its value). A key may
# be absent, and a number null (a non-finite one is written as null).
COMPARE_COLUMNS = (
    ("mode", "mask_enabled", "true or false"),
    ("mode", "corrective_enabled", "true or false"),
    ("summary", "first_window_success", "a finite number"),
    ("summary", "last_window_success", "a finite number"),
    ("summary", "final_offmask_drift", "a finite number"),
)


def cmd_compare(args) -> int:
    rows = []
    for path in args.summaries:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as err:  # ValueError: bad JSON or not UTF-8 text
            raise SchemaError(f"{path}: {err}") from err
        if not isinstance(doc, dict):
            raise SchemaError(f"{path}: expected a JSON object, got {type(doc).__name__}")
        sections = {key: doc.get(key, {}) for key in ("summary", "mode")}
        for key, value in sections.items():
            if not isinstance(value, dict):
                raise SchemaError(
                    f"{path}: {key!r} must be a JSON object, got {type(value).__name__}")
        row = [path]
        for section, key, kind in COMPARE_COLUMNS:
            value = sections[section].get(key)
            if key in sections[section] and (value is not None or kind != "a finite number"):
                checked(value, kind, f"{path}: '{section}.{key}'", SchemaError)
            row.append(value)
        rows.append(row)
    header = f"{'summary':40s} {'mask':>5s} {'corr':>5s} {'first':>7s} {'last':>7s} {'drift':>9s}"
    print(header)
    for path, m, c, first, last, drift in rows:
        def fmt(v, width, prec):
            return f"{v:{width}.{prec}f}" if isinstance(v, (int, float)) else " " * (width - 1) + "-"
        print(f"{path:40s} {str(m):>5s} {str(c):>5s} "
              f"{fmt(first, 7, 3)} {fmt(last, 7, 3)} {fmt(drift, 9, 5)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="creflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("monitor", help="evaluate a trace against a task spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--trace", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_monitor)

    p = sub.add_parser("mask", help="build the group credit mask from traces")
    p.add_argument("--spec", required=True)
    p.add_argument("--trace", action="append", required=True)
    p.add_argument("--layout", choices=("entity", "pixel"), default="entity")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_mask)

    p = sub.add_parser("verify", help="run the analytic verification suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="run one online-RL experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--dry-run", action="store_true")
    p.add_argument("--dump-traces", type=int, default=0, metavar="N",
                   help="save N decoded rollouts of the final policy for the monitor")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="tabulate training summaries side by side")
    p.add_argument("summaries", nargs="+")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    if not _setup_logging():
        return EXIT_USAGE
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CreflowError, OSError) as err:  # a bad input or file, whichever command read it
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
