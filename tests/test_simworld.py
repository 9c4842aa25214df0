import dataclasses
import hashlib
import logging
import re

import numpy as np
import pytest

from creflow import simworld
from creflow.errors import MissingAttribute, NonFiniteLoss, ShapeMismatch, SpecValidationError
from creflow.flow import sample_rollout_group
from creflow.fileio import save_task_spec
from creflow.monitor import run_group_monitor, run_monitor
from creflow.objectives import LossConfig
from creflow.simworld import (
    AUX_SITE,
    Adam,
    RolloutDecoder,
    WorldConfig,
    build_task_spec,
    condition_embedding,
    decode_trace,
    latent_from_flat,
    pretrain_reference,
    run_online_loop,
    sample_condition,
    sample_decoded_rollouts,
    scripted_demo,
    _finish_demos,
    _script_demo,
    site_ids,
    world_layout,
    world_to_latent,
)
from creflow.trace import ClauseDecl, PredicateDecl, make_condition


def small_config(**overrides):
    defaults = dict(
        template="pick_place",
        seed=0,
        iterations=12,
        demo_count=64,
        pretrain_steps=200,
        group_size=4,
        probe_count=4,
    )
    defaults.update(overrides)
    return WorldConfig(**defaults)


class TestConfig:
    def test_validation(self):
        with pytest.raises(SpecValidationError):
            WorldConfig(horizon=4)
        with pytest.raises(SpecValidationError):
            WorldConfig(group_size=1)
        with pytest.raises(SpecValidationError):
            WorldConfig(template="juggling")

    def test_seed_must_be_nonnegative(self):
        # numpy's seeding would reject it later with a bare ValueError
        with pytest.raises(SpecValidationError, match="seed must be >= 0, got -1"):
            WorldConfig(seed=-1)
        assert WorldConfig(seed=0).seed == 0


def accepted(**world):
    """The WorldConfig of these settings, or None if it rejects them."""
    try:
        return WorldConfig(**world)
    except SpecValidationError:
        return None


# Every valid (template, n_objects) pair: at least the objects the instruction names.
TEMPLATE_PAIRS = [(t, n) for t in simworld.TEMPLATES
                  for n in range(simworld.TEMPLATES[t].named, 4)]


class TestTemplates:
    @pytest.mark.parametrize("template", simworld.TEMPLATES)
    def test_needs_the_objects_its_instruction_names(self, template):
        named = simworld.TEMPLATES[template].named
        message = (f"{template} needs n_objects >= {named}" if named > 1
                   else "n_objects must be >= 1, got 0")
        with pytest.raises(SpecValidationError, match=message):
            WorldConfig(template=template, n_objects=named - 1)
        assert WorldConfig(template=template, n_objects=named).n_objects == named

    @pytest.mark.parametrize("template", simworld.TEMPLATES)
    def test_min_horizon_is_the_shortest_the_demo_script_fits(self, template):
        row = simworld.TEMPLATES[template]
        least = row.min_horizon
        config = WorldConfig(template=template, n_objects=row.named, horizon=least,
                             fail_fraction=0.5)
        rng = np.random.default_rng(7)
        for _ in range(200):  # every failure mode is drawn
            _script_demo(config, sample_condition(config, rng), rng)
        if least > 8:  # [8, 32] is the range for every template
            with pytest.raises(SpecValidationError,
                               match=f"{template} needs horizon >= {least}, got {least - 1}"):
                WorldConfig(template=template, n_objects=row.named, horizon=least - 1)
            config.horizon = least - 1  # past the check: the script no longer fits
            with pytest.raises(ValueError, match="could not broadcast"):
                for _ in range(200):
                    _script_demo(config, sample_condition(config, rng), rng)

    # sha256 of save_task_spec at the defaults. Recorded before the templates
    # became one table; the pick_place pairs with 2 and 3 objects were
    # re-recorded when their clauses stopped naming the distractors.
    @pytest.mark.parametrize("template,n_objects,digest", [
        ("pick_place", 1, "812b6b9a72f32b76c2606c52a71b53943529c8958ea66de57f9b1860754c9a6e"),
        ("pick_place", 2, "15390ef7427e5b37180a4b6a5f3d3bbc0557584037e99e3bc4491d9552aed2dc"),
        ("pick_place", 3, "01da175f6aabe653942de45b891c36803f4249f90ca11f25adae8d0d0104bde7"),
        ("ordered_stack", 2, "9d03a85547b0def5815f283e6124a99eb9c0f532e8688863dab3fd9ff8fc8991"),
        ("ordered_stack", 3, "1a6c5b8b61f3c659f5af27b32f9137b8d2eab5f521176c5ad86595d3576a4588"),
        ("persist_hold", 1, "2366a3694b0f8b2b6e09862b92588d6b042102dd888caf71d5b76bd718e01d5b"),
        ("persist_hold", 2, "e9bef7b24d0af0f2588402a9535ec1e4edbdc8464f9170e48b0c65b8c4bfe9ad"),
        ("persist_hold", 3, "36fbd2f75639600de8555cc1fe737aece3b023c9f6d2e21f008ce485c11f482c"),
    ])
    def test_task_spec_bytes_are_pinned(self, tmp_path, template, n_objects, digest):
        path = tmp_path / "spec.yaml"
        save_task_spec(str(path), build_task_spec(WorldConfig(template=template,
                                                              n_objects=n_objects)))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    # on the default grid and on the narrowest square grid the config accepts, where the
    # container box comes closest to the objects' band
    @pytest.mark.parametrize("template,n_objects", TEMPLATE_PAIRS)
    def test_clean_demos_satisfy_their_spec(self, template, n_objects):
        world = dict(template=template, n_objects=n_objects, fail_fraction=0.0, demo_noise=0.0)
        narrowest = next(c for w in range(4, 65) if (c := accepted(grid=(w, w), **world)))
        assert narrowest.grid == (17, 17)  # 0.18 * 17 > 3.0, the default box's half-width
        for config in (WorldConfig(**world), narrowest):
            rng = np.random.default_rng(8)
            conditions = [sample_condition(config, rng) for _ in range(64)]
            demos = _finish_demos(config, conditions,
                                  [_script_demo(config, c, rng) for c in conditions])
            verdicts = run_group_monitor(build_task_spec(config),
                                         RolloutDecoder(config)(demos, conditions))
            assert [dict(v.violations) for v in verdicts if v.reward != 1] == [], config.grid


class TestDecode:
    def test_untouched_object_stays_put(self):
        config = small_config()
        layout = world_layout(config)
        cond = sample_condition(config, np.random.default_rng(0))
        z = np.zeros(layout.tensor_shape())
        z[:, list(site_ids(config)).index(AUX_SITE), :] = -1.0  # grippers open
        trace = decode_trace(latent_from_flat(z.ravel(), config), config, cond)
        positions = trace.positions("cube")
        assert np.allclose(positions, positions[0])

    def test_scripted_carry_reaches_container(self):
        config = small_config(demo_noise=0.0, fail_fraction=0.0)
        cond = make_condition("t", {"cube": (7.0, 12.0), "bin": (17.0, 12.0)})
        z = scripted_demo(config, cond, np.random.default_rng(1))
        trace = decode_trace(latent_from_flat(z, config), config, cond)
        final = trace.positions("cube")[-1]
        assert np.linalg.norm(final - np.array([17.0, 12.0])) < 1e-9
        assert trace.frames[-1]["cube"].attribute_flags["in_container"]

    def test_deterministic(self):
        config = small_config()
        cond = sample_condition(config, np.random.default_rng(2))
        z = scripted_demo(config, cond, np.random.default_rng(3))
        a = decode_trace(latent_from_flat(z, config), config, cond)
        b = decode_trace(latent_from_flat(z, config), config, cond)
        for t in range(config.horizon):
            for eid in a.frames[t]:
                assert np.array_equal(a.frames[t][eid].position, b.frames[t][eid].position)

    @pytest.mark.parametrize("template", simworld.TEMPLATES)
    def test_clean_demos_succeed_perturbed_fail(self, template):
        n_objects = simworld.TEMPLATES[template].named
        config = WorldConfig(template=template, n_objects=n_objects, seed=0,
                             fail_fraction=0.0, demo_noise=0.0)
        spec = build_task_spec(config)
        rng = np.random.default_rng(4)
        for _ in range(20):
            cond = sample_condition(config, rng)
            z = scripted_demo(config, cond, rng)
            trace = decode_trace(latent_from_flat(z, config), config, cond)
            assert run_monitor(spec, trace).reward == 1
        config_fail = WorldConfig(template=template, n_objects=n_objects, seed=0,
                                  fail_fraction=1.0, demo_noise=0.0)
        failures = 0
        for _ in range(20):
            cond = sample_condition(config_fail, rng)
            z = scripted_demo(config_fail, cond, rng)
            trace = decode_trace(latent_from_flat(z, config_fail), config_fail, cond)
            failures += 1 - run_monitor(spec, trace).reward
        assert failures >= 18

    def test_hand_computed_object_paths(self):
        # all coordinates are multiples of 1.5 world units (0.25 latent units),
        # so the latent <-> world rescale is exact and paths compare with ==
        config = WorldConfig(template="pick_place", horizon=8, grid=(24, 24))
        cond = make_condition("t", {"cube": (12.0, 12.0), "bin": (21.0, 12.0)})
        sites = list(site_ids(config))
        t = np.arange(8)

        def latent(left, right, left_closed, right_closed):
            z = np.zeros(world_layout(config).tensor_shape())
            z[:, sites.index("arm_left")] = world_to_latent(left, config)
            z[:, sites.index("arm_right")] = world_to_latent(right, config)
            z[:, sites.index(AUX_SITE), 0] = np.where(left_closed, 1.0, -1.0)
            z[:, sites.index(AUX_SITE), 1] = np.where(right_closed, 1.0, -1.0)
            return z.ravel()

        still_left = np.tile([10.5, 12.0], (8, 1))  # 1.5 left of the cube
        sweep_right = np.stack([13.5 + 1.5 * t, np.full(8, 12.0)], axis=1)  # 1.5 right, moving
        closed = np.ones(8, bool)
        # tie at frame 1 (both arms 1.5 away, both closed): the right arm carries
        tie = latent(still_left, sweep_right, closed, closed)
        # the right gripper opens at frame 5 (index 4): the cube stays where it was left
        release = latent(still_left, sweep_right, closed, t < 4)
        # the left gripper sits on the cube but is closed for one frame only: no carry
        on_cube = np.where((t < 3)[:, None], [12.0, 12.0], [15.0, 12.0])
        blink = latent(on_cube, np.tile([18.0, 12.0], (8, 1)), t == 2, np.zeros(8, bool))

        expected = {
            "tie": np.concatenate([[[12.0, 12.0]], sweep_right[1:]]),
            "release": np.concatenate([[[12.0, 12.0]], sweep_right[1:4],
                                       np.tile(sweep_right[3], (4, 1))]),
            "blink": np.tile([12.0, 12.0], (8, 1)),
        }
        group = RolloutDecoder(config)(np.stack([tie, release, blink]), [cond])
        for i, (name, z) in enumerate(zip(expected, (tie, release, blink))):
            alone = decode_trace(latent_from_flat(z, config), config, cond)
            assert np.array_equal(group.row(i).positions("cube"), expected[name]), name
            assert np.array_equal(alone.positions("cube"), expected[name]), name
        assert group.row(0).frames[1]["arm_right"].gripper_closed
        assert not group.row(1).frames[4]["arm_right"].gripper_closed
        assert group.row(2).frames[0]["cube"].gripper_closed is None

    def test_near_tie_uses_single_vector_distance(self):
        # the arms' gaps to the cube are (u, v) and (v, u): an axis-wise norm
        # ties them exactly, while the single-vector np.linalg.norm the carry
        # rule is defined by can put one arm an ulp nearer (it does with
        # OpenBLAS on x86-64, where the left arm is nearer)
        config = WorldConfig(template="pick_place", horizon=8, grid=(24, 24))
        cond = make_condition("t", {"cube": (12.0, 12.0), "bin": (21.0, 12.0)})
        sites = list(site_ids(config))
        z = np.zeros(world_layout(config).tensor_shape())
        z[:, sites.index("arm_left")] = (1 / 97, 8 / 89)
        z[:, sites.index("arm_right")] = (8 / 89, 1 / 97)
        z[:, sites.index(AUX_SITE)] = 1.0
        trace = decode_trace(latent_from_flat(z.ravel(), config), config, cond)
        d_left, d_right = (float(np.linalg.norm(trace.positions(arm)[0] - (12.0, 12.0)))
                           for arm in ("arm_left", "arm_right"))
        carrier = "arm_right" if d_right <= d_left else "arm_left"
        assert np.array_equal(trace.positions("cube")[1:], trace.positions(carrier)[1:])

    def test_group_carry_matches_per_frame_loop(self):
        # reference: the carry rule one rollout, object and arm at a time
        def reference_path(arm_pos, closed, start, reach):
            path = [np.asarray(start, float)]
            for t in range(1, len(arm_pos)):
                carrier, best = None, reach
                for arm in (0, 1):
                    if not (closed[t, arm] and closed[t - 1, arm]):
                        continue
                    d = float(np.linalg.norm(arm_pos[t - 1, arm] - path[t - 1]))
                    if d <= best:
                        carrier, best = arm, d
                path.append(arm_pos[t, carrier] if carrier is not None else path[t - 1])
            return np.array(path)

        config = WorldConfig(template="ordered_stack", n_objects=3, horizon=16, grid=(12, 12),
                             container_half_extents=(2.0, 2.0))
        cond = sample_condition(config, np.random.default_rng(6))
        rng = np.random.default_rng(7)
        # arms wander over the objects' band with grippers that often stay closed
        latents = 0.4 * rng.standard_normal((32,) + world_layout(config).tensor_shape())
        latents[:, :, list(site_ids(config)).index(AUX_SITE)] += 0.5
        group = RolloutDecoder(config)(latents, [cond])
        moved = 0
        for i, z in enumerate(latents):
            trace = group.row(i)
            arm_pos = np.stack([trace.positions("arm_left"), trace.positions("arm_right")], axis=1)
            closed = z[:, list(site_ids(config)).index(AUX_SITE)] > 0.0
            for oid in ("cube_a", "cube_b", "cube_c"):
                expected = reference_path(arm_pos, closed, cond.position(oid), config.grasp_distance)
                assert np.array_equal(trace.positions(oid), expected)
                moved += int(not np.array_equal(expected, expected[:1].repeat(16, axis=0)))
        assert moved > 10  # the rule was exercised, not only the resting branch

    def test_per_row_conditions_equal_one_row_calls(self):
        config = WorldConfig(template="ordered_stack", n_objects=3, horizon=16, grid=(12, 12),
                             container_half_extents=(2.0, 2.0))
        rng = np.random.default_rng(11)
        conditions = [sample_condition(config, rng) for _ in range(6)]
        assert len({c.layout for c in conditions}) == 6
        latents = 0.4 * rng.standard_normal((6,) + world_layout(config).tensor_shape())
        latents[:, :, list(site_ids(config)).index(AUX_SITE)] += 0.5
        decode = RolloutDecoder(config)
        group = decode(latents, conditions)
        rows = [decode(z[None], [c]) for z, c in zip(latents, conditions)]
        for name in ("xy", "radius", "gripper", "flags", "present"):
            assert np.array_equal(getattr(group, name),
                                  np.concatenate([getattr(r, name) for r in rows])), name
        assert (group.entity_ids, group.flag_names) == (rows[0].entity_ids, rows[0].flag_names)

    @pytest.mark.parametrize("count", [0, 2, 5])
    def test_condition_count_must_be_one_or_the_row_count(self, count):
        config = WorldConfig(template="pick_place", horizon=8, grid=(24, 24))
        conditions = [sample_condition(config, np.random.default_rng(0))] * count
        latents = np.zeros((4,) + world_layout(config).tensor_shape())
        with pytest.raises(ShapeMismatch, match=f"^{count} conditions for 4 latents: give 1 or 4$"):
            RolloutDecoder(config)(latents, conditions)

    def test_sampled_rollouts_equal_one_at_a_time(self):
        def one_at_a_time(config, bundle, count, spec):
            # the rollouts decoded and scored one by one
            rng = np.random.default_rng((config.seed, 404))
            out = []
            for _ in range(count):
                condition = sample_condition(config, rng)
                embed = condition_embedding(config, condition)
                eps = rng.standard_normal((1, world_layout(config).dim))
                x0s = sample_rollout_group(bundle, embed, config.rollout_steps, eps)
                trace = decode_trace(latent_from_flat(x0s[0], config), config, condition)
                out.append((trace, run_monitor(spec, trace).reward))
            return out

        config = small_config()
        spec = build_task_spec(config)
        bundle = pretrain_reference(config)
        got = sample_decoded_rollouts(config, bundle, 8, spec)
        want = one_at_a_time(config, bundle, 8, spec)
        assert [reward for _, reward in got] == [reward for _, reward in want]
        assert 0 < sum(reward for _, reward in got) < 8  # both rewards were compared
        for (trace, _), (expected, _) in zip(got, want):
            assert len(trace) == 1
            for name in ("xy", "radius", "gripper", "flags", "present"):
                assert np.array_equal(getattr(trace, name), getattr(expected, name)), name

    def test_rollouts_always_monitorable(self):
        config = small_config()
        spec = build_task_spec(config)
        bundle = pretrain_reference(config)
        rng = np.random.default_rng(5)
        cond = sample_condition(config, rng)
        embed = condition_embedding(config, cond)
        eps = rng.standard_normal((6, world_layout(config).dim))
        for x0 in sample_rollout_group(bundle, embed, config.rollout_steps, eps):
            trace = decode_trace(latent_from_flat(x0, config), config, cond)
            run_monitor(spec, trace)  # must not raise


class TestLoop:
    @pytest.mark.parametrize("world_objects,spec_objects,missing,extra", [
        (2, 1, ["cube_b"], []),
        (1, 2, [], ["cube_b"]),
    ], ids=["spec_lacks_entity", "spec_has_extra_entity"])
    def test_rejects_spec_of_another_world(self, world_objects, spec_objects, missing, extra):
        config = small_config(n_objects=world_objects)
        spec = build_task_spec(small_config(n_objects=spec_objects))
        message = ("task spec entities do not match the world config: "
                   f"missing {missing}, extra {extra}")
        with pytest.raises(SpecValidationError, match=f"^{re.escape(message)}$"):
            run_online_loop(config, spec, pretrain_reference(config), LossConfig())

    def test_rejects_flag_the_world_never_sets(self):
        config = small_config()
        spec = build_task_spec(config)
        spec = dataclasses.replace(
            spec,
            predicates=spec.predicates + (PredicateDecl("full", 1, "flag", {"flag": "full"}),),
            clauses=spec.clauses + (ClauseDecl("cube_never_full", "G !full(cube)"),),
        )
        message = "clause 'cube_never_full': flag 'full' absent on 'cube' at frame 1"
        with pytest.raises(MissingAttribute, match=f"^{re.escape(message)}$"):
            run_online_loop(config, spec, pretrain_reference(config), LossConfig())

    def test_metrics_deterministic(self):
        config = small_config()
        spec = build_task_spec(config)
        loss_config = LossConfig(beta=1.0, lambda_cr=1.0, lambda_kl=0.1)
        series_a = run_online_loop(config, spec, pretrain_reference(config), loss_config)
        series_b = run_online_loop(config, spec, pretrain_reference(config), loss_config)
        assert series_a.rows == series_b.rows
        assert series_a.summary == series_b.summary

    @pytest.mark.parametrize("model_kind", ["linear", "mlp"])
    def test_copied_bundle_runs_like_fresh_pretraining(self, model_kind):
        config = small_config(iterations=6, model_kind=model_kind)
        loss_config = LossConfig(beta=1.0, lambda_cr=1.0, lambda_kl=0.1)
        pretrained = pretrain_reference(config)
        theta = pretrained.current.get_params()
        spec = build_task_spec(config)
        fresh = run_online_loop(config, spec, pretrain_reference(config), loss_config)
        for _ in range(2):
            series = run_online_loop(config, spec, pretrained.copy(), loss_config)
            assert series.rows == fresh.rows and series.summary == fresh.summary
        assert np.array_equal(pretrained.current.get_params(), theta)

    def test_debug_log_explains_each_iteration(self, caplog):
        config = small_config(iterations=3)
        spec = build_task_spec(config)
        bundle = pretrain_reference(config)
        with caplog.at_level(logging.INFO, logger="creflow"):
            quiet = run_online_loop(config, spec, bundle.copy(), LossConfig())
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="creflow"):
            series = run_online_loop(config, spec, bundle.copy(), LossConfig())
        assert series.rows == quiet.rows
        lines = [r.getMessage() for r in caplog.records if r.name == "creflow.simworld"]
        assert len(lines) == config.iterations
        pattern = (r"iteration (\d+): success (\S+); failing rollouts "
                   r"terminal_cube=(\d+) causal_cube=(\d+) order_cube=(\d+); "
                   r"mask density temporal (\S+) spatial (\S+)")
        for row, line in zip(series.rows, lines):
            match = re.fullmatch(pattern, line)
            assert match, line
            assert int(match[1]) == row["iteration"]
            assert float(match[2]) == pytest.approx(row["success_fraction"], abs=5e-5)
            failing = [int(match[k]) for k in (3, 4, 5)]
            assert all(0 <= k <= config.group_size for k in failing)
            # a rollout fails iff some clause fails
            assert (row["success_fraction"] == 1.0) == (max(failing) == 0)
            temporal, spatial = float(match[6]), float(match[7])
            assert temporal * spatial == pytest.approx(row["mask_density"], abs=1e-3)

    def test_mask_density_interior_for_mixed_groups(self):
        config = small_config(iterations=20)
        spec = build_task_spec(config)
        series = run_online_loop(
            config, spec, pretrain_reference(config), LossConfig(lambda_cr=1.0)
        )
        for row in series.rows:
            frac = row["success_fraction"]
            if 0.0 < frac < 1.0:
                assert 0.0 < row["mask_density"] < 1.0

    def test_degenerate_weights_do_not_learn(self):
        config = small_config(iterations=30)
        spec = build_task_spec(config)
        loss_config = LossConfig(beta=1.0, lambda_cr=0.0, lambda_kl=0.0, mask_enabled=True)
        bundle = pretrain_reference(config)
        theta0 = bundle.current.get_params()
        # all-zero temporal masks never happen, so zero out the update instead
        config_frozen = small_config(iterations=30, learning_rate=0.0)
        series = run_online_loop(config_frozen, spec, bundle, loss_config)
        assert np.array_equal(bundle.current.get_params(), theta0)
        successes = {row["success_fraction"] for row in series.rows}
        assert len(successes) >= 1  # random walk around the initial level

    def test_non_finite_abort(self):
        config = small_config(iterations=40, learning_rate=50.0)
        spec = build_task_spec(config)
        with pytest.raises(NonFiniteLoss) as caught:
            run_online_loop(config, spec, pretrain_reference(config), LossConfig(lambda_cr=1.0))
        state = caught.value.state
        assert f"at iteration {state['iteration']}" in str(caught.value)
        assert [row["iteration"] for row in state["rows"]] == list(range(state["iteration"]))

    @pytest.mark.parametrize("total,grad_value", [(np.nan, 2.0), (1.0, np.inf)],
                             ids=["nan_total", "inf_gradient"])
    def test_non_finite_loss_carries_rewards_and_norms(self, monkeypatch, total, grad_value):
        config = small_config(iterations=3)
        bundle = pretrain_reference(config)
        params = bundle.current.get_params()

        def loss_total(group, bundle, batch, loss_config):
            return total, np.full(bundle.current.n_params, grad_value), {}

        monkeypatch.setattr(simworld, "loss_total", loss_total)
        with pytest.raises(NonFiniteLoss, match="non-finite loss at iteration 0") as caught:
            run_online_loop(config, build_task_spec(config), bundle, LossConfig())
        state = caught.value.state
        assert state["iteration"] == 0 and state["rows"] == []
        assert len(state["rewards"]) == config.group_size and set(state["rewards"]) <= {0, 1}
        assert state["param_norm"] == float(np.linalg.norm(params))
        finite = np.isfinite(grad_value)  # a norm that is not finite is None
        assert state["grad_norm"] == (pytest.approx(grad_value * np.sqrt(params.size))
                                      if finite else None)

    @pytest.mark.parametrize("template", ["ordered_stack", "persist_hold"])
    def test_other_templates_run(self, template):
        n_objects = simworld.TEMPLATES[template].named
        config = small_config(template=template, n_objects=n_objects, iterations=6)
        series = run_online_loop(config, build_task_spec(config), pretrain_reference(config),
                                 LossConfig(lambda_cr=1.0))
        assert len(series.rows) == 6

    def test_offmask_drift_nonnegative_and_finite(self):
        config = small_config(iterations=10)
        series = run_online_loop(config, build_task_spec(config), pretrain_reference(config),
                                 LossConfig(lambda_cr=1.0))
        for row in series.rows:
            assert np.isfinite(row["offmask_drift"]) and row["offmask_drift"] >= 0.0


class TestPretrain:
    def test_adam_equals_textbook_formula(self):
        rng = np.random.default_rng(0)
        n, lr, b1, b2, eps = 64, 0.02, 0.9, 0.999, 1e-8
        opt = Adam(n, lr)
        params = rng.standard_normal(n)
        ref, m, v = params.copy(), np.zeros(n), np.zeros(n)
        buffers = (opt.m, opt.v, params)
        for k in range(1, 201):
            grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 1)
            opt.step(params, grad)
            m = b1 * m + (1 - b1) * grad
            v = b2 * v + (1 - b2) * grad * grad
            ref = ref - lr * (m / (1 - b1**k)) / (np.sqrt(v / (1 - b2**k)) + eps)
            assert np.array_equal(params, ref)
        assert (opt.m, opt.v, params) == buffers  # updated in place

    @pytest.mark.parametrize("template", simworld.TEMPLATES)
    def test_demo_batch_equals_one_at_a_time(self, template):
        config = small_config(template=template, n_objects=simworld.TEMPLATES[template].named)
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        conditions, scripts, one_by_one = [], [], []
        for _ in range(12):
            condition = sample_condition(config, rng_a)
            one_by_one.append(scripted_demo(config, condition, rng_a))
            assert sample_condition(config, rng_b).layout == condition.layout
            conditions.append(condition)
            scripts.append(_script_demo(config, condition, rng_b))
        assert np.array_equal(_finish_demos(config, conditions, scripts), np.array(one_by_one))
