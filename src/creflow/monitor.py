"""Compositional constraint monitor: traces in, (reward, violations, atlas) out.

A rollout group is scored as one set of arrays; scoring one trace is the
same code on a group of one.
"""

from .errors import CreflowError
from .trace import Atlas, TaskSpec, TraceGroup, build_atlas, eval_group_predicate


class Verdict:
    """One trace's reward, per-clause witnesses and entity atlas.

    The atlas is rasterised from the trace on first read, since only reports
    read it (the pixel group mask rasterises unbuilt atlases together, from
    ``pending_discs``); it can also be given or assigned.
    """

    def __init__(self, reward, violations, atlas=None, horizon=None, source=None):
        self.reward = reward  # 1 iff every clause is satisfied
        self.violations = violations  # one (clause id, Witness) entry per clause, in spec order
        self.horizon = horizon
        self._atlas = atlas
        self._source = source  # (TraceGroup, row, entity ids) the atlas is built from

    @property
    def atlas(self) -> Atlas:
        if self._atlas is None:
            group, row, entity_ids = self._source
            self._atlas = build_atlas(group.row(row), entity_ids)
        return self._atlas

    @atlas.setter
    def atlas(self, value: Atlas):
        self._atlas = value

    def pending_discs(self):
        """The discs of an atlas not built yet: (positions (E, T, 2), radii (E, T), grid).

        Entity by entity, frame by frame; None once the atlas is built, given
        or assigned. The union of these discs' rasters is the union of the
        atlas's masks.
        """
        if self._atlas is not None:
            return None
        group, row, entity_ids = self._source
        cols = [group.column(eid) for eid in entity_ids]
        return (group.xy[row].take(cols, axis=1).swapaxes(0, 1),
                group.radius[row].take(cols, axis=1).T, group.grid)


def run_group_monitor(spec: TaskSpec, group: TraceGroup) -> list:
    """Evaluate every clause of the spec against every trace of the group.

    Predicate streams are computed once per distinct atom, as (N, T) arrays,
    and the spec's clause program evaluates every shared subformula once. A
    trace's reward is the conjunction of its per-clause truths; its
    violation list carries one witness per clause (empty when satisfied).
    Predicate errors are annotated with the id of the first clause using the
    atom. Returns one Verdict per row.
    """
    entity_ids = spec.entity_ids()
    group.require(entity_ids)

    program = spec.program
    streams = []  # in program.atoms order
    for atom, first in zip(program.atoms, program.first_use):
        decl = spec.predicate(atom.name)
        try:
            streams.append(eval_group_predicate(decl, group, atom, spec))
        except CreflowError as err:
            raise type(err)(f"clause {spec.clauses[first].id!r}: {err}") from err

    truths, witnesses = program.evaluate(streams, (len(group), group.horizon))
    rewards = [all(column) for column in zip(*truths.tolist())]
    clause_ids = [clause.id for clause in spec.clauses]
    return [
        Verdict(int(rewards[i]), [(cid, row[i]) for cid, row in zip(clause_ids, witnesses)],
                horizon=group.horizon, source=(group, i, entity_ids))
        for i in range(len(group))
    ]


def run_monitor(spec: TaskSpec, trace: TraceGroup) -> Verdict:
    """Evaluate every clause of the spec against one trace (a group of one row)."""
    return run_group_monitor(spec, trace.single())[0]
