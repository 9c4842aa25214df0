"""The benchmark's workloads, their correctness checks and their traced runs.

Each workload turns the benchmark seed into inputs, times the program's
public functions from here (no timers inside the package, no monkeypatching)
and checks every operation's output:

- ``train_pick_place``: ``simworld.pretrain_reference`` + ``run_online_loop``
  on ``configs/creflow.yaml`` over world seeds; rows must match the digests
  recorded in ``reference.json``.
- ``verify_oracle``: ``oracle.run_suite`` for every suite over oracle seeds;
  every check of every report must pass.
- ``replay_pixel``: scripted-demo traces (horizon 32, 64x64 grid) saved as
  YAML in set-up, then loaded with ``fileio.load_trace`` and scored with
  ``run_monitor`` x 8 + ``build_group_mask`` on a pixel layout; rewards must
  agree with ``ltlf.eval_bruteforce`` and mask bits with ``reference.json``.

A traced run (``trace=True``) runs a fixed amount of work twice, first
untraced and then with spans around every public call, and reports the
per-layer metrics plus the difference between the two passes.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from creflow import backend, fileio, ltlf, oracle, simworld
from creflow.errors import NonFiniteLoss, SpecValidationError
from creflow.flow import sample_rollout_group
from creflow.mask import LatentLayout, build_group_mask
from creflow.monitor import run_monitor
from creflow.objectives import RolloutGroup, draw_sample_batch, loss_total
from creflow.trace import Atlas, build_atlas, eval_predicate

from harness import Outcome, Tracer, p90, peak_rss_mb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference.json")
TRAIN_CONFIG = os.path.join(ROOT, "configs", "creflow.yaml")

# Metrics-CSV columns of METRICS_VERSION 1. Columns appended by later
# versions are ignored, so the check keeps passing when they are added.
V1_COLUMNS = ("iteration", "success_fraction", "loss_total", "loss_nft",
              "loss_cr", "loss_kl", "mask_density", "offmask_drift")
TRAIN_PREFIXES = (5, 300)  # row counts whose digests the reference keeps

REPLAY_WORLD = {"template": "pick_place", "horizon": 32, "grid": (64, 64)}
REPLAY_STREAM = 7  # rng stream of the replay group pool
REPLAY_GROUP = 8
VERIFY_STEP_SUITE = "variance"

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("job_s", "s", "lower"),
    ("step_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

_CALLS = ("calls", "count", "lower")
_MS_PER_CALL = ("ms_per_call", "ms", "lower")
_SHARE = ("share", "frac", "lower")


def _layer(prefix, *quantities):
    return [(f"{prefix}.{q}", unit, better) for q, unit, better in quantities]


PER_LAYER = [
    *_layer("monitor.run_monitor", _CALLS, _MS_PER_CALL, _SHARE,
            ("unattributed_ms_per_call", "ms", "lower")),
    *_layer("trace.eval_predicate", _CALLS, _MS_PER_CALL),
    *_layer("ltlf.eval_clause", _CALLS, _MS_PER_CALL),
    *_layer("trace.build_atlas", _CALLS, _MS_PER_CALL),
    ("trace.atlas_consumed_ratio", "frac", "higher"),
    *_layer("backend.sweep_disc_mask", ("ms", "ms", "lower"), ("flops", "flop", "lower"),
            ("bytes", "B", "lower")),
    *_layer("simworld.decode_trace", _CALLS, _MS_PER_CALL, _SHARE),
    *_layer("flow.sample_rollout_group", _CALLS, _MS_PER_CALL, _SHARE),
    ("flow.velocity_batch.ms_per_call", "ms", "lower"),
    ("simworld.pretrain_reference.ms", "ms", "lower"),
    *_layer("objectives.loss_total", _CALLS, _MS_PER_CALL, _SHARE),
    ("objectives.mixed_group_ratio", "frac", "higher"),
    *_layer("mask.build_group_mask", _CALLS, _MS_PER_CALL),
    *[(f"oracle.suite.{name}.ms", "ms", "lower") for name in oracle.SUITES],
    *_layer("backend.gauss_logweights_batch", ("ms", "ms", "lower"),
            ("flops", "flop", "lower"), ("bytes", "B", "lower")),
    *_layer("fileio.load_trace", _MS_PER_CALL, ("bytes", "B", "lower")),
    ("fileio.save_trace.ms_per_call", "ms", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]


@dataclass(frozen=True)
class Sizes:
    """How much work a run does; the smoke test shrinks every field."""

    setup_reps: int = 5
    train_iterations: int = 300
    train_traced_jobs: int = 2
    verify_suites: tuple = tuple(oracle.SUITES)
    verify_traced_jobs: int = 8
    replay_groups: int = 4
    replay_scores_per_round: int = 8
    replay_traced_rounds: int = 8
    kernel_reps: int = 30


@dataclass
class Result:
    outcome: Outcome
    metrics: dict  # name -> (value, unit)
    report: list  # (name, value, unit, samples), printed for people
    samples: dict = dataclasses.field(default_factory=dict)  # metric name -> sample count


def load_reference(path=REFERENCE):
    with open(path) as fh:
        return json.load(fh)


def seed_order(pool, seed):
    """The benchmark seed picks an order over a recorded input pool."""
    pool = list(pool)
    return [pool[i] for i in np.random.default_rng(seed).permutation(len(pool))]


def _ms(start):
    return (time.perf_counter() - start) * 1e3


# --------------------------------------------------------------------------
# Correctness helpers, shared with record_reference.py
# --------------------------------------------------------------------------

def rows_digest(rows):
    """sha256 of the version-1 metrics CSV text for these rows."""
    h = hashlib.sha256((",".join(V1_COLUMNS) + "\n").encode())
    for row in rows:
        cells = (repr(float(row[c])) if isinstance(row[c], float) else str(row[c])
                 for c in V1_COLUMNS)
        h.update((",".join(cells) + "\n").encode())
    return h.hexdigest()


def mask_fingerprint(group_mask):
    spatial = np.asarray(group_mask.spatial, dtype=bool)
    return {
        "temporal": "".join("1" if b else "0" for b in group_mask.temporal),
        "spatial_cells": int(spatial.sum()),
        "spatial_sha256": hashlib.sha256(np.packbits(spatial).tobytes()).hexdigest(),
    }


def replay_world():
    return simworld.WorldConfig(**REPLAY_WORLD)


def replay_group_traces(world, gid):
    """Eight decoded scripted demos; the pool's gid fixes them."""
    rng = np.random.default_rng((REPLAY_STREAM, gid))
    traces = []
    for _ in range(REPLAY_GROUP):
        condition = simworld.sample_condition(world, rng)
        z = simworld.scripted_demo(world, condition, rng)
        traces.append(simworld.decode_trace(simworld.latent_from_flat(z, world), world, condition))
    return traces


def bruteforce_reward(spec, trace):
    """Reward from the independent LTLf oracle on the same predicate streams."""
    streams = {atom: eval_predicate(spec.predicate(atom.name), trace, atom, spec)
               for atom in spec.clause_atoms()}
    return int(all(ltlf.eval_bruteforce(c.formula, streams, trace.horizon)
                   for c in spec.clauses))


def traces_equal(a, b):
    if a.horizon != b.horizon or tuple(a.grid) != tuple(b.grid):
        return False
    for fa, fb in zip(a.frames, b.frames):
        if fa.keys() != fb.keys():
            return False
        for eid, sa in fa.items():
            sb = fb[eid]
            if not (np.array_equal(sa.position, sb.position) and sa.radius == sb.radius
                    and sa.gripper_closed == sb.gripper_closed
                    and sa.attribute_flags == sb.attribute_flags):
                return False
    return True


class _ReadTrackingMasks(dict):
    """Atlas masks that note whether the group mask read them."""

    read = False

    def values(self):
        self.read = True
        return super().values()

    def items(self):
        self.read = True
        return super().items()

    def __getitem__(self, key):
        self.read = True
        return super().__getitem__(key)


def _track_atlases(verdicts):
    for v in verdicts:
        v.atlas = Atlas(_ReadTrackingMasks(v.atlas.masks))


def _atlases_read(verdicts):
    return sum(1 for v in verdicts if v.atlas.masks.read)


def monitor_breakdown(spec, trace, tracer):
    """run_monitor's three public sub-calls, timed on a trace it just scored.

    Returns the reward they imply, so the caller can check it against the
    verdict.
    """
    with tracer.span("probe.monitor_breakdown"):
        streams = {}
        for atom in spec.clause_atoms():
            with tracer.span("trace.eval_predicate"):
                streams[atom] = eval_predicate(spec.predicate(atom.name), trace, atom, spec)
        reward = 1
        for clause in spec.clauses:
            with tracer.span("ltlf.eval_clause"):
                truth, _ = ltlf.eval_clause(clause.formula, streams, trace.horizon)
            reward &= int(truth)
        with tracer.span("trace.build_atlas"):
            build_atlas(trace, spec.entity_ids())
    return reward


# --------------------------------------------------------------------------
# train_pick_place
# --------------------------------------------------------------------------

def train_setup(seed, sizes, ref, tracer=None):
    cfg = fileio.load_experiment_config(TRAIN_CONFIG)
    jobs = []
    for world_seed in seed_order(map(int, ref["train"]["seeds"]), seed):
        world = dataclasses.replace(cfg.world, seed=world_seed,
                                    iterations=sizes.train_iterations)
        jobs.append((world, simworld.build_task_spec(world)))
    return jobs, cfg.effective_loss_config()


def _train_expected(ref, world, rows):
    return ref["train"]["seeds"][str(world.seed)].get(str(len(rows)))


def train_job(world, spec, loss_config):
    start = time.perf_counter()
    bundle = simworld.pretrain_reference(world)
    mid = time.perf_counter()
    series = simworld.run_online_loop(world, spec, bundle, loss_config)
    return mid - start, time.perf_counter() - mid, series.rows


def traced_train_job(world, spec, loss_config, tracer, counters):
    job = f"seed{world.seed}"
    tracer.request = f"{job}/pretrain"
    with tracer.span("simworld.pretrain_reference"):
        bundle = simworld.pretrain_reference(world)
    return traced_online_loop(world, spec, bundle, loss_config, tracer, counters, job)


def traced_online_loop(config, spec, bundle, loss_config, tracer, counters, job):
    """run_online_loop, one public call at a time, with a span around each.

    Mirrors simworld.run_online_loop statement for statement; the caller
    checks that the rows match the recorded reference digest exactly.
    """
    layout = simworld.world_layout(config)
    if set(spec.entity_ids()) != {e.id for e in simworld.world_entities(config)}:
        raise SpecValidationError("task spec entities do not match the world config")
    clause_entities = spec.clause_entities()
    n = config.group_size
    dim = layout.dim

    tracer.request = f"{job}/setup"
    with tracer.span("simworld.online_setup"):
        probe_rng = np.random.default_rng((config.seed, 202))
        probe_conditions = [simworld.sample_condition(config, probe_rng)
                            for _ in range(config.probe_count)]
        probe_embeds = np.array([simworld.condition_embedding(config, c)
                                 for c in probe_conditions])
        probe_eps = probe_rng.standard_normal((config.probe_count, dim))
        probe_x0 = np.array([simworld.scripted_demo(config, c, probe_rng)
                             for c in probe_conditions])
        probe_t = probe_rng.uniform(0.05, 0.95, size=config.probe_count)
        probe_xt = (1.0 - probe_t)[:, None] * probe_x0 + probe_t[:, None] * probe_eps

    rows = []
    consistent = True
    for iteration in range(config.iterations):
        tracer.request = f"{job}/{iteration}"
        with tracer.span("simworld.online_iteration"):
            cond_rng = np.random.default_rng((config.seed, 1, iteration))
            condition = simworld.sample_condition(config, cond_rng)
            embed = simworld.condition_embedding(config, condition)
            eps = np.stack([
                np.random.default_rng((config.seed, 2, iteration, i)).standard_normal(dim)
                for i in range(n)
            ])
            with tracer.span("flow.sample_rollout_group"):
                with np.errstate(over="ignore", invalid="ignore"):
                    x0s = sample_rollout_group(bundle, embed, config.rollout_steps, eps)
            if not np.all(np.isfinite(x0s)):
                raise NonFiniteLoss(
                    f"behavior policy produced non-finite rollouts at iteration {iteration}")

            traces, verdicts = [], []
            for i in range(n):
                with tracer.span("simworld.decode_trace"):
                    trace = simworld.decode_trace(
                        simworld.latent_from_flat(x0s[i], config), config, condition)
                with tracer.span("monitor.run_monitor"):
                    verdicts.append(run_monitor(spec, trace))
                traces.append(trace)
            rewards = np.array([v.reward for v in verdicts])

            _track_atlases(verdicts)
            with tracer.span("mask.build_group_mask"):
                group_mask = build_group_mask(verdicts, layout, clause_entities)
            group = RolloutGroup(embed, x0s, rewards, layout, group_mask)
            batch = draw_sample_batch(group, np.random.default_rng((config.seed, 3, iteration)))

            with tracer.span("objectives.loss_total"):
                with np.errstate(over="ignore", invalid="ignore"):
                    total, grad, parts = loss_total(group, bundle, batch, loss_config)
            if not (np.isfinite(total) and np.all(np.isfinite(grad))):
                raise NonFiniteLoss(f"non-finite loss at iteration {iteration}: total={total}")
            bundle.current.set_params(bundle.current.get_params() - config.learning_rate * grad)
            bundle.ema_sync()

            inv_mask = 1.0 - group_mask.flat(layout)
            with tracer.span("flow.velocity_batch"):
                v_cur = bundle.current.velocity_batch(probe_xt, probe_t, probe_embeds)
            with tracer.span("flow.velocity_batch"):
                v_ref = bundle.reference.velocity_batch(probe_xt, probe_t, probe_embeds)
            drift = float(np.mean(np.linalg.norm((v_cur - v_ref) * inv_mask, axis=1)))

            rows.append({
                "iteration": iteration,
                "success_fraction": float(rewards.mean()),
                "loss_total": float(total),
                "loss_nft": parts["nft"],
                "loss_cr": parts["cr"],
                "loss_kl": parts["kl"],
                "mask_density": group_mask.density(),
                "offmask_drift": drift,
            })

        counters["atlases_built"] += len(verdicts)
        counters["atlases_read"] += _atlases_read(verdicts)
        counters["groups"] += 1
        counters["mixed_groups"] += int(0 < rewards.sum() < n)
        for trace, verdict in zip(traces, verdicts):
            consistent &= monitor_breakdown(spec, trace, tracer) == verdict.reward
    return rows, consistent


def run_train(seed, seconds, sizes, ref, setup, setup_ms, tracer):
    outcome = Outcome()
    jobs, loss_config = setup

    def untraced(world, spec):
        ok, out = outcome.guarded(f"train seed {world.seed}", train_job, world, spec, loss_config)
        if ok:
            outcome.record(rows_digest(out[2]) == _train_expected(ref, world, out[2]),
                           f"train seed {world.seed}: metrics rows differ from reference")
        return out

    if tracer is None:
        pretrain_s, loop_s, iters = [], [], []
        deadline = time.perf_counter() + seconds
        for world, spec in itertools.cycle(jobs):
            out = untraced(world, spec)
            if out is not None:
                pretrain_s.append(out[0])
                loop_s.append(out[1])
                iters.append(len(out[2]))
            if time.perf_counter() >= deadline:
                break
        n = len(loop_s)
        job_s = median(p + lo for p, lo in zip(pretrain_s, loop_s))
        report = [
            ("pretrain_s", median(pretrain_s), "s", n),
            ("online_iters_per_s", sum(iters) / sum(loop_s), "1/s", sum(iters)),
            ("train_run_s", job_s, "s", n),
        ]
        return _e2e(outcome, report, setup_ms, sizes, job_s=(job_s, n),
                    step_ms=(median(lo / it * 1e3 for lo, it in zip(loop_s, iters)), n))

    counters = dict.fromkeys(("atlases_built", "atlases_read", "groups", "mixed_groups"), 0)
    untraced_s = traced_s = 0.0
    for world, spec in jobs[: sizes.train_traced_jobs]:
        out = untraced(world, spec)
        first_span = len(tracer.spans)
        start = time.perf_counter()
        ok, res = outcome.guarded(f"traced train seed {world.seed}", traced_train_job,
                                  world, spec, loss_config, tracer, counters)
        elapsed = time.perf_counter() - start
        if not ok:
            continue
        rows, consistent = res
        outcome.record(consistent and rows_digest(rows) == _train_expected(ref, world, rows),
                       f"traced train seed {world.seed}: rows or monitor breakdown differ")
        if out is not None:
            probe_ns = sum(e - s for _, _, name, _, s, e in tracer.spans[first_span:]
                           if name == "probe.monitor_breakdown")
            untraced_s += out[0] + out[1]
            traced_s += elapsed - probe_ns / 1e9
    per_layer = _per_layer(tracer.totals(), "simworld.online_iteration", sizes.kernel_reps)
    per_layer["trace.atlas_consumed_ratio"] = (counters["atlases_read"]
                                               / max(counters["atlases_built"], 1))
    per_layer["objectives.mixed_group_ratio"] = counters["mixed_groups"] / max(counters["groups"], 1)
    per_layer["trace_overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    tracer.write(os.path.join(WORK, f"spans-train_pick_place-seed{seed}.jsonl"))
    return Result(outcome, _with_units(per_layer), [])


# --------------------------------------------------------------------------
# verify_oracle
# --------------------------------------------------------------------------

def verify_setup(seed, sizes, ref, tracer=None):
    return seed_order(ref["verify"]["passing_seeds"], seed)


def verify_job(outcome, oracle_seed, suites, tracer=None):
    """Every suite once at one seed; returns per-suite ms, or None on failure."""
    times = {}
    passed = True
    for name in suites:
        start = time.perf_counter()
        if tracer is None:
            ok, report = outcome.guarded(f"verify seed {oracle_seed}", oracle.run_suite,
                                         name, oracle_seed)
        else:
            with tracer.span(f"oracle.suite.{name}"):
                ok, report = outcome.guarded(f"verify seed {oracle_seed}", oracle.run_suite,
                                             name, oracle_seed)
        times[name] = _ms(start)
        if not ok:
            return None
        passed &= report.passed
    outcome.record(passed, f"verify seed {oracle_seed}: a check failed")
    return times


def run_verify(seed, seconds, sizes, ref, setup, setup_ms, tracer):
    outcome = Outcome()
    seeds = setup
    if tracer is None:
        jobs = []
        deadline = time.perf_counter() + seconds
        for oracle_seed in itertools.cycle(seeds):
            times = verify_job(outcome, oracle_seed, sizes.verify_suites)
            if times is not None:
                jobs.append(times)
            if time.perf_counter() >= deadline:
                break
        n = len(jobs)
        job_s = median(sum(t.values()) for t in jobs) / 1e3
        report = [("verify_all_s", job_s, "s", n)]
        return _e2e(outcome, report, setup_ms, sizes, job_s=(job_s, n),
                    step_ms=(median(t[VERIFY_STEP_SUITE] for t in jobs), n))

    untraced_ms = traced_ms = 0.0
    for oracle_seed in seeds[: sizes.verify_traced_jobs]:
        plain = verify_job(outcome, oracle_seed, sizes.verify_suites)
        tracer.request = f"seed{oracle_seed}"
        spanned = verify_job(outcome, oracle_seed, sizes.verify_suites, tracer)
        if plain is not None and spanned is not None:
            untraced_ms += sum(plain.values())
            traced_ms += sum(spanned.values())
    per_layer = _per_layer(tracer.totals(), None, sizes.kernel_reps)
    per_layer["trace_overhead_frac"] = traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0
    tracer.write(os.path.join(WORK, f"spans-verify_oracle-seed{seed}.jsonl"))
    return Result(outcome, _with_units(per_layer), [])


# --------------------------------------------------------------------------
# replay_pixel
# --------------------------------------------------------------------------

def replay_setup(seed, sizes, ref, tracer=None):
    """Decode the seed's groups and save each trace as a YAML file."""
    world = replay_world()
    spec = simworld.build_task_spec(world)
    groups = []
    out_dir = os.path.join(WORK, "replay")
    os.makedirs(out_dir, exist_ok=True)
    for gid in seed_order(map(int, ref["replay"]["groups"]), seed)[: sizes.replay_groups]:
        traces = replay_group_traces(world, gid)
        paths = []
        for i, trace in enumerate(traces):
            path = os.path.join(out_dir, f"group{gid}-{i}.yaml")
            if tracer is None:
                fileio.save_trace(path, trace)
            else:
                with tracer.span("fileio.save_trace"):
                    fileio.save_trace(path, trace)
            paths.append(path)
        groups.append((gid, paths, traces))
    return spec, LatentLayout.pixel(world.horizon, world.grid), groups


def score_group(spec, layout, traces, tracer=None):
    if tracer is None:
        verdicts = [run_monitor(spec, t) for t in traces]
        return verdicts, build_group_mask(verdicts, layout)
    with tracer.span("replay.score_group"):
        verdicts = []
        for t in traces:
            with tracer.span("monitor.run_monitor"):
                verdicts.append(run_monitor(spec, t))
        _track_atlases(verdicts)
        with tracer.span("mask.build_group_mask"):
            group_mask = build_group_mask(verdicts, layout)
    return verdicts, group_mask


def replay_round(outcome, spec, layout, group, scores, ref, tracer=None):
    """Load one group's traces, then score the group ``scores`` times.

    Returns (load ms list, score ms list, (traces, verdicts of the last
    score) or None when a load failed).
    """
    gid, paths, originals = group
    load_ms, score_ms, loaded = [], [], []
    for path, original in zip(paths, originals):
        start = time.perf_counter()
        if tracer is None:
            ok, trace = outcome.guarded(f"load {path}", fileio.load_trace, path)
        else:
            with tracer.span("fileio.load_trace"):
                ok, trace = outcome.guarded(f"load {path}", fileio.load_trace, path)
        elapsed = _ms(start)
        if not ok:
            return load_ms, score_ms, None
        load_ms.append(elapsed)
        outcome.record(traces_equal(trace, original), f"load {path}: trace differs from saved")
        loaded.append(trace)

    expected_rewards = [bruteforce_reward(spec, t) for t in loaded]
    expected_mask = ref["replay"]["groups"][str(gid)]["mask"]
    verdicts = None
    for _ in range(scores):
        start = time.perf_counter()
        ok, res = outcome.guarded(f"score group {gid}", score_group, spec, layout, loaded, tracer)
        elapsed = _ms(start)
        if not ok:
            continue
        score_ms.append(elapsed)
        verdicts, group_mask = res
        outcome.record(
            [v.reward for v in verdicts] == expected_rewards
            and mask_fingerprint(group_mask) == expected_mask,
            f"score group {gid}: rewards disagree with eval_bruteforce or mask bits differ")
    return load_ms, score_ms, (loaded, verdicts)


def run_replay(seed, seconds, sizes, ref, setup, setup_ms, tracer):
    outcome = Outcome()
    spec, layout, groups = setup
    if tracer is None:
        load_ms, score_ms = [], []
        deadline = time.perf_counter() + seconds
        for group in itertools.cycle(groups):
            loads, scores, _ = replay_round(outcome, spec, layout, group,
                                            sizes.replay_scores_per_round, ref)
            load_ms += loads
            score_ms += scores
            if time.perf_counter() >= deadline:
                break
        report = [
            ("trace_load_ms_p50", median(load_ms), "ms", len(load_ms)),
            ("trace_load_ms_p90", p90(load_ms), "ms", len(load_ms)),
            ("group_score_ms_p50", median(score_ms), "ms", len(score_ms)),
            ("group_score_ms_p90", p90(score_ms), "ms", len(score_ms)),
        ]
        # The fastest samples, not the medians: see _e2e.
        return _e2e(outcome, report, setup_ms, sizes,
                    job_s=((REPLAY_GROUP * min(load_ms) + min(score_ms)) / 1e3, len(load_ms)),
                    step_ms=(min(score_ms), len(score_ms)))

    untraced_ms = traced_ms = 0.0
    atlases_read = atlases_built = 0
    for r in range(sizes.replay_traced_rounds):
        group = groups[r % len(groups)]
        loads, scores, _ = replay_round(outcome, spec, layout, group,
                                        sizes.replay_scores_per_round, ref)
        tracer.request = f"round{r}"
        t_loads, t_scores, res = replay_round(outcome, spec, layout, group,
                                              sizes.replay_scores_per_round, ref, tracer)
        if res is None or res[1] is None:
            continue
        untraced_ms += sum(loads) + sum(scores)
        traced_ms += sum(t_loads) + sum(t_scores)
        loaded, verdicts = res
        atlases_built += len(verdicts)
        atlases_read += _atlases_read(verdicts)
        consistent = all(monitor_breakdown(spec, t, tracer) == v.reward
                         for t, v in zip(loaded, verdicts))
        outcome.record(consistent, f"round {r}: monitor breakdown disagrees with run_monitor")
    per_layer = _per_layer(tracer.totals(), "replay.score_group", sizes.kernel_reps)
    per_layer["trace.atlas_consumed_ratio"] = atlases_read / max(atlases_built, 1)
    per_layer["fileio.load_trace.bytes"] = float(np.mean(
        [os.path.getsize(p) for _, paths, _ in groups for p in paths]))
    per_layer["trace_overhead_frac"] = traced_ms / untraced_ms - 1.0 if untraced_ms else 0.0
    tracer.write(os.path.join(WORK, f"spans-replay_pixel-seed{seed}.jsonl"))
    return Result(outcome, _with_units(per_layer), [])


# --------------------------------------------------------------------------
# Kernels and metric assembly
# --------------------------------------------------------------------------

def kernel_probes(reps):
    """The two numpy kernels at the sizes of benchmarks/bench_backend.py.

    flops and bytes are computed from the array sizes, not counted: flops
    are the elementwise operations the numpy expression performs, bytes the
    compulsory traffic (inputs read once, output written once, float64 and
    bool elements).
    """
    rng = np.random.default_rng(0)
    a, d, b = 32, 16, 4096
    x0s = rng.standard_normal((a, d))
    logp = np.log(np.full(a, 1.0 / a))
    xts = rng.standard_normal((b, d))
    t_frames, h, w = 32, 64, 64
    positions = rng.uniform(0, 64, (t_frames, 2))
    radii = np.full(t_frames, 2.5)

    def median_ms(fn, *args):
        fn(*args)
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            fn(*args)
            samples.append(_ms(start))
        return median(samples)

    return {
        "backend.gauss_logweights_batch.ms":
            median_ms(backend.gauss_logweights_batch, x0s, logp, xts, 0.3),
        "backend.gauss_logweights_batch.flops": float(a * d + b * a * (3 * d - 1) + 5 * b * a),
        "backend.gauss_logweights_batch.bytes": float(8 * (a * d + a + b * d + b * a)),
        "backend.sweep_disc_mask.ms": median_ms(backend.sweep_disc_mask, positions, radii, h, w),
        "backend.sweep_disc_mask.flops": float(3 * t_frames * h * w + 2 * t_frames * (h + w)
                                               + t_frames),
        "backend.sweep_disc_mask.bytes": float(8 * 3 * t_frames + h * w),
    }


def _per_layer(totals, share_base, kernel_reps):
    """Per-layer values from span totals; layers the run never called read 0."""
    out = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    base = totals.get(share_base, (0, 0.0))[1]
    for layer in ("monitor.run_monitor", "trace.eval_predicate", "ltlf.eval_clause",
                  "trace.build_atlas", "simworld.decode_trace", "flow.sample_rollout_group",
                  "objectives.loss_total", "mask.build_group_mask", "flow.velocity_batch",
                  "fileio.load_trace", "fileio.save_trace"):
        calls, total = totals.get(layer, (0, 0.0))
        for key, value in (("calls", float(calls)),
                           ("ms_per_call", total / calls if calls else 0.0),
                           ("share", total / base if base else 0.0)):
            if f"{layer}.{key}" in out:
                out[f"{layer}.{key}"] = value
    calls, total = totals.get("monitor.run_monitor", (0, 0.0))
    probed = totals.get("probe.monitor_breakdown", (0, 0.0))[0]
    if calls and probed:
        parts = sum(totals.get(n, (0, 0.0))[1] for n in
                    ("trace.eval_predicate", "ltlf.eval_clause", "trace.build_atlas"))
        out["monitor.run_monitor.unattributed_ms_per_call"] = total / calls - parts / probed
    calls, total = totals.get("simworld.pretrain_reference", (0, 0.0))
    out["simworld.pretrain_reference.ms"] = total / calls if calls else 0.0
    for name in oracle.SUITES:
        calls, total = totals.get(f"oracle.suite.{name}", (0, 0.0))
        out[f"oracle.suite.{name}.ms"] = total / calls if calls else 0.0
    out.update(kernel_probes(kernel_reps))
    return out


def _with_units(values):
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}


def _e2e(outcome, report, setup_ms, sizes, job_s, step_ms):
    """The end-to-end metrics; job_s and step_ms are (value, sample count).

    The shared host slows every process on it, pure-Python loops as much as
    the program, by 30-80% for seconds to minutes at a time (no steal time
    shows, so process CPU time grows as much as wall time). Jobs of half a
    second or more span several such spells, and the median over the run is the
    steadier figure. replay_pixel's operations take 10-80 ms, and hundreds
    of them run: the median moves with the share of the run spent in slow
    spells, the fastest sample far less, so replay_pixel reports the fastest
    load and score, and job_s as 8 fastest loads plus the fastest score.
    """
    metrics = {
        "setup_s": (setup_ms / 1e3, "s"),
        "job_s": (job_s[0], "s"),
        "step_ms": (step_ms[0], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {"setup_s": sizes.setup_reps, "job_s": job_s[1], "step_ms": step_ms[1],
               "peak_rss_mb": 1}
    return Result(outcome, metrics, report, samples)


# --------------------------------------------------------------------------
# Entry point used by run.py and the smoke test
# --------------------------------------------------------------------------

SETUPS = {"train_pick_place": train_setup, "verify_oracle": verify_setup,
          "replay_pixel": replay_setup}
RUNS = {"train_pick_place": run_train, "verify_oracle": run_verify,
        "replay_pixel": run_replay}
WORKLOADS = tuple(RUNS)


def run(workload, seed, seconds, traced, import_s=0.0, sizes=Sizes(), ref=None):
    """Set up and run one workload.

    An untraced run sets up ``sizes.setup_reps`` times and reports setup_s as
    the import time plus the median set-up; the last set-up's inputs are
    the ones measured. A traced run sets up once, with spans.
    """
    ref = load_reference() if ref is None else ref
    tracer = Tracer() if traced else None
    setup_ms = []
    for _ in range(1 if traced else sizes.setup_reps):
        start = time.perf_counter()
        setup = SETUPS[workload](seed, sizes, ref, tracer)
        setup_ms.append(_ms(start))
    setup_total = import_s * 1e3 + median(setup_ms)
    return RUNS[workload](seed, seconds, sizes, ref, setup, setup_total, tracer)
