import dataclasses

import numpy as np
import pytest

from creflow.errors import (
    HorizonMismatch,
    MissingAttribute,
    ShapeMismatch,
    SpecValidationError,
    UnknownEntity,
    UnknownEvaluator,
)
from creflow.ltlf import Atom
from creflow.trace import (
    ClauseDecl,
    EntityDecl,
    EntityState,
    PredicateDecl,
    TaskSpec,
    TraceGroup,
    build_atlas,
    eval_predicate,
    make_condition,
)


def state(x, y, radius=0.5, closed=None, flags=None):
    return EntityState(
        position=np.array([x, y], dtype=float),
        radius=radius,
        gripper_closed=closed,
        attribute_flags=flags or {},
    )


def two_entity_trace(arm_xy, cup_xy, closed, horizon=8, grid=(16, 16)):
    frames = []
    for t in range(horizon):
        frames.append(
            {
                "arm": state(*arm_xy[t], closed=closed[t]),
                "cup": state(*cup_xy[t]),
            }
        )
    return TraceGroup.from_frames(horizon=horizon, frames=frames, grid=grid)


ENTITIES = {
    "arm": EntityDecl("arm", "arm"),
    "cup": EntityDecl("cup", "object"),
    "box": EntityDecl("box", "container", half_extents=(1.5, 1.0)),
}
INSIDE = PredicateDecl("inside", 2, "inside", {})
INSIDE_SPEC = TaskSpec(task_id="toy", entities=list(ENTITIES.values()), predicates=[INSIDE],
                       clauses=[ClauseDecl("c", "F inside(cup, box)")],
                       condition=make_condition("toy", {"cup": (1.0, 1.0)}))


class TestPredicates:
    def test_near_coincident(self):
        xy = [(3.0, 3.0)] * 8
        trace = two_entity_trace(xy, xy, [False] * 8)
        decl = PredicateDecl("near", 2, "near", {"distance": 1.0})
        stream = eval_predicate(decl, trace, Atom("near", ("arm", "cup")))
        assert stream.all()

    def test_near_symmetric(self):
        rng = np.random.default_rng(0)
        arm = rng.uniform(0, 10, (8, 2))
        cup = rng.uniform(0, 10, (8, 2))
        trace = two_entity_trace(arm, cup, [False] * 8)
        decl = PredicateDecl("near", 2, "near", {"distance": 4.0})
        ab = eval_predicate(decl, trace, Atom("near", ("arm", "cup")))
        ba = eval_predicate(decl, trace, Atom("near", ("cup", "arm")))
        assert np.array_equal(ab, ba)

    def test_grasp_conjunction(self):
        xy = [(2.0, 2.0)] * 8
        closed = [False, False, True, True, True, True, False, False]
        trace = two_entity_trace(xy, xy, closed)
        decl = PredicateDecl("grasp", 2, "grasp", {"distance": 1.0})
        stream = eval_predicate(decl, trace, Atom("grasp", ("arm", "cup")))
        assert stream.astype(int).tolist() == [0, 0, 1, 1, 1, 1, 0, 0]

    def test_grasp_implies_near(self):
        rng = np.random.default_rng(1)
        arm = rng.uniform(0, 6, (10, 2))
        cup = rng.uniform(0, 6, (10, 2))
        closed = rng.integers(0, 2, 10).astype(bool).tolist()
        trace = two_entity_trace(arm, cup, closed, horizon=10)
        near = PredicateDecl("near", 2, "near", {"distance": 2.5})
        grasp = PredicateDecl("grasp", 2, "grasp", {"distance": 2.5})
        n = eval_predicate(near, trace, Atom("near", ("arm", "cup")))
        g = eval_predicate(grasp, trace, Atom("grasp", ("arm", "cup")))
        assert not np.any(g & ~n)

    def test_grasp_needs_gripper_state(self):
        xy = [(2.0, 2.0)] * 4
        frames = [{"a": state(1, 1), "b": state(1, 1)} for _ in range(4)]
        trace = TraceGroup.from_frames(4, frames, (8, 8))
        decl = PredicateDecl("grasp", 2, "grasp", {"distance": 1.0})
        with pytest.raises(MissingAttribute):
            eval_predicate(decl, trace, Atom("grasp", ("a", "b")))

    def test_inside_box(self):
        frames = []
        for t in range(4):
            frames.append(
                {
                    "cup": state(5.0 + t, 5.0),
                    "box": state(6.0, 5.0),
                }
            )
        trace = TraceGroup.from_frames(4, frames, (16, 16))
        stream = eval_predicate(INSIDE, trace, Atom("inside", ("cup", "box")), INSIDE_SPEC)
        # |dx| <= 1.5 at t=0,1,2 (dx = -1, 0, 1); t=3 gives dx=2
        assert stream.astype(int).tolist() == [1, 1, 1, 0]

    def test_inside_all_false_when_far(self):
        frames = [{"cup": state(0, 0), "box": state(10, 10)} for _ in range(4)]
        trace = TraceGroup.from_frames(4, frames, (16, 16))
        stream = eval_predicate(INSIDE, trace, Atom("inside", ("cup", "box")), INSIDE_SPEC)
        assert not stream.any()

    def test_flag_and_missing_flag(self):
        frames = [{"cup": state(0, 0, flags={"full": t >= 2})} for t in range(4)]
        trace = TraceGroup.from_frames(4, frames, (8, 8))
        decl = PredicateDecl("is_full", 1, "flag", {"flag": "full"})
        stream = eval_predicate(decl, trace, Atom("is_full", ("cup",)))
        assert stream.astype(int).tolist() == [0, 0, 1, 1]
        bad = PredicateDecl("is_open", 1, "flag", {"flag": "open"})
        with pytest.raises(MissingAttribute):
            eval_predicate(bad, trace, Atom("is_open", ("cup",)))

    def test_moving_first_frame_copies_second(self):
        xs = [0.0, 2.0, 2.0, 2.0, 5.0]
        frames = [{"cup": state(x, 0)} for x in xs]
        trace = TraceGroup.from_frames(5, frames, (8, 8))
        decl = PredicateDecl("moving", 1, "moving", {"speed": 0.5})
        stream = eval_predicate(decl, trace, Atom("moving", ("cup",)))
        assert stream.astype(int).tolist() == [1, 1, 0, 0, 1]

    def test_unknown_evaluator(self):
        with pytest.raises(UnknownEvaluator, match="unknown evaluator 'telepathy'"):
            PredicateDecl("weird", 1, "telepathy", {})


class TestArrays:
    def test_frames_view_round_trips(self):
        frames = [
            {
                "arm": state(1.0, 2.0 + t, closed=t % 2 == 0),
                "cup": state(3.0, 4.0, radius=0.25 * t, flags={"full": t > 0}),
            }
            for t in range(3)
        ]
        trace = TraceGroup.from_frames(3, frames, (8, 8))
        assert trace.xy.shape == (1, 3, 2, 2)
        assert trace.flags.shape == (1, 3, 2, 1)
        for given, view in zip(frames, trace.frames):
            assert given.keys() == view.keys()
            for eid, s in given.items():
                v = view[eid]
                assert np.array_equal(s.position, v.position) and s.radius == v.radius
                assert s.gripper_closed == v.gripper_closed
                assert s.attribute_flags == v.attribute_flags

    def test_cells_rebuild_the_group(self):
        frames = [{"a": state(0, 0), "b": state(1, 1, closed=True)},
                  {"b": state(2, 2, flags={"x": True}), "a": state(3, 3, flags={"y": False})},
                  {"b": state(4, 4, closed=False)}]
        trace = TraceGroup.from_frames(3, frames, (8, 8))
        # columns and flags are numbered in cell order: frame by frame, column by column
        assert trace.entity_ids == ("a", "b") and trace.flag_names == ("y", "x")
        t, eids = trace.cells()[:2]
        assert list(zip(t, eids)) == [(0, "a"), (0, "b"), (1, "a"), (1, "b"), (2, "b")]
        again = TraceGroup.from_cells(3, (8, 8), 3, trace.cells())
        assert (again.entity_ids, again.flag_names) == (trace.entity_ids, trace.flag_names)
        for name in ("xy", "radius", "gripper", "flags", "present"):
            assert np.array_equal(getattr(again, name), getattr(trace, name)), name

    def test_absent_entity_named_at_its_frame(self):
        frames = [{"cup": state(0, 0), "box": state(1, 1)}, {"cup": state(0, 0), "box": state(1, 1)},
                  {"box": state(1, 1)}]
        trace = TraceGroup.from_frames(3, frames, (8, 8))
        assert "cup" not in trace.frames[2]
        decl = PredicateDecl("moving", 1, "moving", {"speed": 0.5})
        with pytest.raises(UnknownEntity, match="'cup' absent from frame 3"):
            eval_predicate(decl, trace, Atom("moving", ("cup",)))
        assert not eval_predicate(decl, trace, Atom("moving", ("box",))).any()

    def test_single_trace_accessors_need_one_row(self):
        trace = TraceGroup.from_frames(2, [{"cup": state(1, 2)}, {"cup": state(3, 4)}], (8, 8))
        assert trace.positions("cup").tolist() == [[1.0, 2.0], [3.0, 4.0]]
        pair = TraceGroup(2, (8, 8), trace.entity_ids, np.concatenate([trace.xy] * 2),
                          np.concatenate([trace.radius] * 2), np.concatenate([trace.gripper] * 2),
                          trace.flag_names, np.concatenate([trace.flags] * 2),
                          np.concatenate([trace.present] * 2))
        assert pair.row(1).radius[0, :, pair.column("cup")].tolist() == [0.5, 0.5]
        for read in (lambda g: g.frames, lambda g: g.positions("cup"),
                     lambda g: build_atlas(g, ["cup"])):
            with pytest.raises(ShapeMismatch, match="a trace is a group of one row, got 2"):
                read(pair)

    def test_frame_count_must_match_horizon(self):
        with pytest.raises(HorizonMismatch):
            TraceGroup.from_frames(3, [{"cup": state(0, 0)}] * 2, (8, 8))


class TestAtlas:
    def test_radius_zero_exact_cell(self):
        # position exactly at the center of cell (2, 3)
        frames = [{"cup": state(3.5, 2.5, radius=0.0)} for _ in range(3)]
        trace = TraceGroup.from_frames(3, frames, (8, 8))
        atlas = build_atlas(trace, ["cup"])
        assert atlas.masks["cup"].sum() == 1
        assert atlas.masks["cup"][2, 3]

    def test_moving_entity_union_monotone(self):
        def prefix_trace(k):
            frames = [{"cup": state(1.5 + t, 4.5, radius=0.6)} for t in range(k)]
            return TraceGroup.from_frames(k, frames, (10, 10))

        previous = np.zeros((10, 10), bool)
        for k in range(1, 8):
            mask = build_atlas(prefix_trace(k), ["cup"]).masks["cup"]
            assert np.all(previous <= mask)
            previous = mask

    def test_determinism(self):
        rng = np.random.default_rng(5)
        frames = [{"cup": state(*rng.uniform(0, 10, 2), radius=1.0)} for _ in range(6)]
        trace = TraceGroup.from_frames(6, frames, (12, 12))
        a = build_atlas(trace, ["cup"]).masks["cup"]
        b = build_atlas(trace, ["cup"]).masks["cup"]
        assert np.array_equal(a, b)


class TestTaskSpec:
    def _spec(self, clauses):
        return TaskSpec(
            task_id="toy",
            entities=list(ENTITIES.values()),
            predicates=[PredicateDecl("near", 2, "near", {"distance": 1.0})],
            clauses=clauses,
            condition=make_condition("toy", {"cup": (1.0, 1.0)}),
        )

    def test_requires_clauses(self):
        with pytest.raises(SpecValidationError):
            self._spec([])

    def test_rejects_unknown_predicate(self):
        clause = ClauseDecl("c", "G far(arm, cup)")
        with pytest.raises(Exception):
            self._spec([clause])

    def test_rejects_arity_mismatch(self):
        clause = ClauseDecl("c", "G near(arm)")
        with pytest.raises(SpecValidationError):
            self._spec([clause])

    def test_clause_entities(self):
        clause = ClauseDecl("c", "G near(arm, cup)")
        spec = self._spec([clause])
        assert spec.clause_entities() == {"arm", "cup"}

    def test_frozen_with_tuples(self):
        spec = self._spec([ClauseDecl("c", "G near(arm, cup)")])
        assert isinstance(spec.entities, tuple) and isinstance(spec.predicates, tuple)
        assert spec.clauses == (ClauseDecl("c", "G near(arm, cup)"),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.clauses = [ClauseDecl("only", "F near(cup, arm)")]
        assert spec.clauses == (ClauseDecl("c", "G near(arm, cup)"),)

    def test_replace_recompiles_the_program(self):
        spec = self._spec([ClauseDecl("c", "G near(arm, cup)")])
        other = dataclasses.replace(spec, clauses=[ClauseDecl("only", "F near(cup, arm)")])
        assert other.clauses == (ClauseDecl("only", "F near(cup, arm)"),)
        assert other == self._spec(list(other.clauses))
        assert other.program.atoms == (Atom("near", ("cup", "arm")),)
        assert spec.program.atoms == (Atom("near", ("arm", "cup")),)
