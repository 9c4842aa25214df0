import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creflow import ltlf, simworld
from creflow.errors import ShapeMismatch, SpecValidationError, UnknownEntity
from creflow.ltlf import TemplateFamily, classify_template, eval_bruteforce
from creflow.monitor import run_group_monitor, run_monitor
from creflow.trace import (
    Atlas,
    ClauseDecl,
    EntityDecl,
    EntityState,
    PredicateDecl,
    TaskSpec,
    TraceGroup,
    eval_group_predicate,
    eval_predicate,
    make_condition,
)

from conftest import task_specs


def state(x, y, closed=None, flags=None):
    return EntityState(np.array([x, y], float), 0.5, closed, flags or {})


def build_spec(clause_sources):
    clauses = [ClauseDecl(f"k{i}", src) for i, src in enumerate(clause_sources)]
    return TaskSpec(
        task_id="toy",
        entities=[EntityDecl("arm", "arm"), EntityDecl("cup", "object")],
        predicates=[
            PredicateDecl("near", 2, "near", {"distance": 1.5}),
            PredicateDecl("moving", 1, "moving", {"speed": 0.5}),
        ],
        clauses=clauses,
        condition=make_condition("toy", {"cup": (4.0, 4.0)}),
    )


def toy_trace(arm_path):
    frames = [{"arm": state(*p, closed=False), "cup": state(4.0, 4.0)} for p in arm_path]
    return TraceGroup.from_frames(len(arm_path), frames, (8, 8))


class TestMonitor:
    def test_all_satisfied(self):
        spec = build_spec(["F near(arm, cup)", "G !moving(cup)"])
        trace = toy_trace([(0, 0), (2, 2), (4, 4), (4, 4)])
        verdict = run_monitor(spec, trace)
        assert verdict.reward == 1
        assert len(verdict.violations) == 2
        assert all(not w for _, w in verdict.violations)

    def test_persistence_violation_frames(self):
        spec = build_spec(["G near(arm, cup)"])
        # near fails exactly at frames 2 and 5
        trace = toy_trace([(4, 4), (9, 9), (4, 4), (4, 4), (9, 9), (4, 4)])
        verdict = run_monitor(spec, trace)
        assert verdict.reward == 0
        assert dict(verdict.violations)["k0"].frames() == [2, 5]

    def test_empty_spec_rejected(self):
        with pytest.raises(SpecValidationError):
            build_spec([])

    def test_determinism(self):
        spec = build_spec(["F near(arm, cup)", "G !moving(cup)"])
        trace = toy_trace([(0, 0), (4, 4), (0, 0)])
        a = run_monitor(spec, trace)
        b = run_monitor(spec, trace)
        assert a.reward == b.reward
        assert [(cid, w.pairs) for cid, w in a.violations] == [
            (cid, w.pairs) for cid, w in b.violations
        ]
        assert all(
            np.array_equal(a.atlas.masks[e], b.atlas.masks[e]) for e in a.atlas.masks
        )

    def test_reward_iff_all_witnesses_empty(self):
        rng = np.random.default_rng(0)
        spec = build_spec(["G near(arm, cup)", "F moving(arm)", "near(arm,cup) U moving(arm)"])
        for _ in range(100):
            horizon = int(rng.integers(2, 9))
            path = rng.uniform(0, 8, (horizon, 2))
            verdict = run_monitor(spec, toy_trace(path))
            empty = all(not w for _, w in verdict.violations)
            assert (verdict.reward == 1) == empty

    def test_agreement_with_bruteforce(self):
        rng = np.random.default_rng(9)
        spec = build_spec(
            [
                "G near(arm, cup)",
                "F G near(arm, cup)",
                "G (moving(arm) -> near(arm, cup))",
                "!near(arm,cup) U moving(arm)",
            ]
        )
        for _ in range(500):
            horizon = int(rng.integers(1, 9))
            path = rng.uniform(2, 7, (horizon, 2))
            trace = toy_trace(path)
            verdict = run_monitor(spec, trace)
            streams = {}
            for clause in spec.clauses:
                for atom in clause.formula.atoms():
                    if atom not in streams:
                        streams[atom] = eval_predicate(
                            spec.predicate(atom.name), trace, atom, spec
                        )
            expected = all(
                eval_bruteforce(c.formula, streams, horizon) for c in spec.clauses
            )
            assert verdict.reward == int(expected)


def toy_group(arm_paths, present=None):
    """The toy traces of ``arm_paths`` (N, T, 2), built as arrays."""
    n, horizon = arm_paths.shape[:2]
    xy = np.empty((n, horizon, 2, 2))
    xy[:, :, 0] = arm_paths
    xy[:, :, 1] = (4.0, 4.0)
    return TraceGroup(
        horizon=horizon,
        grid=(8, 8),
        entity_ids=("arm", "cup"),
        xy=xy,
        radius=np.full((n, horizon, 2), 0.5),
        gripper=np.tile(np.array([0, -1], np.int8), (n, horizon, 1)),
        flag_names=(),
        flags=np.zeros((n, horizon, 2, 0), np.int8),
        present=np.ones((n, horizon, 2), bool) if present is None else present,
    )


def same_verdict(a, b):
    return (
        a.reward == b.reward
        and a.horizon == b.horizon
        and [(cid, w.pairs) for cid, w in a.violations] == [(cid, w.pairs) for cid, w in b.violations]
        and a.atlas.masks.keys() == b.atlas.masks.keys()
        and all(np.array_equal(a.atlas.masks[e], b.atlas.masks[e]) for e in a.atlas.masks)
    )


class TestGroupScoring:
    @pytest.mark.parametrize("template", simworld.TEMPLATES)
    def test_group_equals_each_rollout_alone(self, template):
        config = simworld.WorldConfig(
            template=template, n_objects=simworld.TEMPLATES[template].named, seed=0
        )
        spec = simworld.build_task_spec(config)
        decode = simworld.RolloutDecoder(config)
        rng = np.random.default_rng(31)
        rewards = []
        for _ in range(3):
            cond = simworld.sample_condition(config, rng)
            latents = np.stack([simworld.scripted_demo(config, cond, rng) for _ in range(8)])
            verdicts = run_group_monitor(spec, decode(latents, [cond]))
            for z, verdict in zip(latents, verdicts):
                alone = simworld.decode_trace(simworld.latent_from_flat(z, config), config, cond)
                assert same_verdict(verdict, run_monitor(spec, alone))
            rewards += [v.reward for v in verdicts]
        assert 0 < sum(rewards) < len(rewards)  # both rewards, so witnesses were compared

    def test_polarity_witnesses_group_equals_alone(self):
        sources = ["F near(arm, cup)", "G !(near(arm, cup) & moving(arm))", "G F moving(arm)"]
        spec = build_spec(sources)
        assert all(classify_template(c.formula) is TemplateFamily.OTHER for c in spec.clauses)
        paths = np.random.default_rng(4).uniform(2, 7, (16, 6, 2))
        paths[:4, 2:] = 4.0  # reach the cup and stop there
        verdicts = run_group_monitor(spec, toy_group(paths))
        for path, verdict in zip(paths, verdicts):
            assert same_verdict(verdict, run_monitor(spec, toy_trace(path)))
        failed = {cid for v in verdicts for cid, w in v.violations if w}
        assert failed == {"k0", "k1", "k2"}

    def test_group_names_first_absent_entity(self):
        present = np.ones((2, 3, 2), bool)
        present[1, 2, 1] = False
        group = toy_group(np.zeros((2, 3, 2)), present)
        with pytest.raises(UnknownEntity, match="'cup' absent from frame 3"):
            run_group_monitor(build_spec(["F near(arm, cup)"]), group)

    def test_run_monitor_scores_one_row_only(self):
        spec = build_spec(["F near(arm, cup)"])
        with pytest.raises(ShapeMismatch, match="a trace is a group of one row, got 2"):
            run_monitor(spec, toy_group(np.zeros((2, 3, 2))))
        with pytest.raises(ShapeMismatch, match="got 2"):
            eval_predicate(spec.predicate("near"), toy_group(np.zeros((2, 3, 2))),
                           spec.clauses[0].formula.atoms()[0], spec)

    def test_atlas_is_lazy_and_assignable(self):
        spec = build_spec(["G near(arm, cup)"])
        verdict = run_monitor(spec, toy_trace([(4.5, 4.5), (2.5, 2.5)]))
        assert verdict._atlas is None
        masks = verdict.atlas.masks
        assert masks["arm"][4, 4] and masks["arm"][2, 2] and masks["arm"].sum() == 2
        assert verdict.atlas.masks is masks  # built once
        replacement = Atlas({})
        verdict.atlas = replacement
        assert verdict.atlas is replacement


@st.composite
def scored_groups(draw):
    """(spec, group): a drawn spec and N traces of its entities, every entry present."""
    spec = draw(task_specs())
    flag_names = tuple(sorted({p.values["flag"] for p in spec.predicates if p.evaluator == "flag"}))
    rows, horizon, entities = draw(st.integers(1, 4)), draw(st.integers(1, 8)), len(spec.entities)
    shape = (rows, horizon, entities)
    bits = st.integers(0, 1)
    return spec, TraceGroup(
        horizon=horizon,
        grid=(8, 8),
        entity_ids=tuple(spec.entity_ids()),
        xy=draw(hnp.arrays(np.float64, shape + (2,), elements=st.integers(-4, 4).map(float))),
        radius=np.full(shape, 0.5),
        gripper=draw(hnp.arrays(np.int8, shape, elements=bits)),
        flag_names=flag_names,
        flags=draw(hnp.arrays(np.int8, shape + (len(flag_names),), elements=bits)),
        present=np.ones(shape, bool),
    )


class TestPositionStreams:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scored_groups())
    def test_group_monitor_equals_mapping_evaluate(self, case):
        spec, group = case
        verdicts = run_group_monitor(spec, group)
        streams = {atom: eval_group_predicate(spec.predicate(atom.name), group, atom, spec)
                   for atom in reversed(spec.clause_atoms())}
        truths, witnesses = spec.program.evaluate(streams, (len(group), group.horizon))
        assert [v.reward for v in verdicts] == truths.all(axis=0).astype(int).tolist()
        for i, verdict in enumerate(verdicts):
            assert verdict.violations == [
                (clause.id, witnesses[k][i]) for k, clause in enumerate(spec.clauses)]

    def test_group_scoring_hashes_no_atom(self, monkeypatch):
        world = simworld.WorldConfig(template="pick_place", horizon=16, grid=(24, 24))
        spec = simworld.build_task_spec(world)
        rng = np.random.default_rng(3)
        condition = simworld.sample_condition(world, rng)
        demos = np.stack([simworld.scripted_demo(world, condition, rng) for _ in range(4)])
        group = simworld.RolloutDecoder(world)(demos, [condition])
        hashed = []
        atom_hash = ltlf.Atom.__hash__
        monkeypatch.setattr(ltlf.Atom, "__hash__",
                            lambda atom: hashed.append(atom) or atom_hash(atom))
        verdicts = run_group_monitor(spec, group) + [run_monitor(spec, group.row(0))]
        assert hashed == []
        assert {v.reward for v in verdicts} == {0, 1}  # witnesses were formed too
        streams = {atom: eval_group_predicate(spec.predicate(atom.name), group, atom, spec)
                   for atom in spec.program.atoms}
        spec.program.evaluate(streams, (len(group), group.horizon))
        # the counter sees the mapping entry (by name: a set of atoms would hash them here)
        assert {str(atom) for atom in hashed} == {str(atom) for atom in spec.program.atoms}

