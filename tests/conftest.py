from dataclasses import fields

import numpy as np
import pytest
from hypothesis import strategies as st

from creflow import fileio, ltlf, simworld
from creflow.flow import LinearVelocity, MLPVelocity, ModelBundle
from creflow.mask import CreditMask, LatentLayout
from creflow.objectives import WEIGHT_SCHEMES, LossConfig, RolloutGroup, draw_sample_batch
from creflow.trace import (
    ENTITY_KINDS,
    EVALUATORS,
    ClauseDecl,
    EntityDecl,
    PredicateDecl,
    TaskSpec,
    make_condition,
)


def random_formula(rng, atoms, depth):
    """Random AST over the given atoms, up to the given depth."""
    if depth == 0 or rng.uniform() < 0.25:
        return atoms[rng.integers(len(atoms))]
    node = rng.integers(0, 7)
    if node == 0:
        return ltlf.Not(random_formula(rng, atoms, depth - 1))
    if node == 1:
        return ltlf.And(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    if node == 2:
        return ltlf.Or(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    if node == 3:
        return ltlf.Implies(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))
    if node == 4:
        return ltlf.Globally(random_formula(rng, atoms, depth - 1))
    if node == 5:
        return ltlf.Finally(random_formula(rng, atoms, depth - 1))
    return ltlf.Until(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))


def random_streams(rng, atoms, horizon):
    return {a: rng.integers(0, 2, horizon).astype(bool) for a in atoms}


ATOMS = (
    ltlf.Atom("p", ("e1",)),
    ltlf.Atom("q", ("e2",)),
    ltlf.Atom("r", ("e1", "e2")),
)


# Identifiers the tokenizer reads as one name: not an operator letter.
IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,7}", fullmatch=True).filter(
    lambda name: name not in ("G", "F", "U"))


def formulas(atoms, max_leaves):
    """Formulas over the ``atoms`` strategy and all seven operators, nested to any depth."""
    return st.recursive(
        atoms,
        lambda sub: st.one_of(
            st.builds(ltlf.Not, sub),
            st.builds(ltlf.Globally, sub),
            st.builds(ltlf.Finally, sub),
            st.builds(ltlf.And, sub, sub),
            st.builds(ltlf.Or, sub, sub),
            st.builds(ltlf.Implies, sub, sub),
            st.builds(ltlf.Until, sub, sub),
        ),
        max_leaves=max_leaves,
    )


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
NONNEGATIVE = st.floats(min_value=0.0, allow_infinity=False)
POSITIVE = st.floats(min_value=1e-6, max_value=1e6)


# World counts that must be at least 1, and world shares that must lie in [0, 1]; every
# other world number must be at least 0.
POSITIVE_COUNTS = ("iterations", "rollout_steps", "demo_count", "pretrain_batch", "probe_count")
FRACTIONS = ("fail_fraction", "ema_rate")


@st.composite
def experiment_configs(draw):
    """Valid experiment configs; every world field drawn, constrained ones in range."""
    world = {}
    for f in fields(simworld.WorldConfig):
        if f.type is int:
            world[f.name] = draw(st.integers(1 if f.name in POSITIVE_COUNTS else 0, 2**40))
        elif f.type is float:
            world[f.name] = draw(st.floats(0.0, 1.0) if f.name in FRACTIONS else NONNEGATIVE)
    template = draw(st.sampled_from(simworld.TEMPLATES))
    world.update(
        template=template,
        horizon=draw(st.integers(8, 32)),
        group_size=draw(st.integers(2, 64)),
        n_objects=draw(st.integers(2 if template == "ordered_stack" else 1, 3)),
        grid=(draw(st.integers(4, 256)), draw(st.integers(4, 256))),
        container_half_extents=(draw(NONNEGATIVE), draw(NONNEGATIVE)),
        hidden=tuple(draw(st.lists(st.integers(1, 512), max_size=3))),
        model_kind=draw(st.sampled_from(["linear", "mlp"])),
    )
    loss = LossConfig(
        beta=draw(POSITIVE), lambda_cr=draw(st.floats(0.0, 1e6)),
        lambda_kl=draw(st.floats(0.0, 1e6)), weight_scheme=draw(st.sampled_from(WEIGHT_SCHEMES)),
        kernel_tau=draw(POSITIVE), mask_enabled=draw(st.booleans()),
    )
    return fileio.ExperimentConfig(
        world=simworld.WorldConfig(**world),
        loss=loss,
        out_dir=draw(st.text(min_size=1)),
        spec_path=draw(st.none() | st.text(min_size=1)),
    )


# Values of each param kind an evaluator reads, keyed by kind (a key of ``trace.KINDS``).
PARAM_VALUES = {
    "a finite number >= 0": NONNEGATIVE | st.integers(0, 2**53),
    "a string": st.text(),
}


@st.composite
def task_specs(draw):
    """Valid task specs: each predicate takes its evaluator's arity and exact params from
    ``EVALUATORS``, each clause's source is the printed text of a random formula, and
    the outer entity of an ``inside`` atom has a box (the first entity always has one)."""
    ids = draw(st.lists(IDENTIFIERS, min_size=1, max_size=4, unique=True))
    boxes = [draw(st.tuples(NONNEGATIVE, NONNEGATIVE))] + [
        draw(st.none() | st.tuples(NONNEGATIVE, NONNEGATIVE)) for _ in ids[1:]]
    entities = [EntityDecl(eid, draw(st.sampled_from(ENTITY_KINDS)), box)
                for eid, box in zip(ids, boxes)]
    boxed = [eid for eid, box in zip(ids, boxes) if box is not None]
    predicates = []
    for name in draw(st.lists(IDENTIFIERS, min_size=1, max_size=3, unique=True)):
        evaluator = draw(st.sampled_from(sorted(EVALUATORS)))
        arity, kinds, _ = EVALUATORS[evaluator]
        params = {key: draw(PARAM_VALUES[kind]) for key, kind in kinds.items()}
        predicates.append(PredicateDecl(name, arity, evaluator, params))
    atoms = st.sampled_from(predicates).flatmap(lambda p: st.builds(
        ltlf.Atom, st.just(p.name),
        st.tuples(st.sampled_from(ids), st.sampled_from(boxed)) if p.evaluator == "inside"
        else st.tuples(*[st.sampled_from(ids)] * p.arity)))
    clauses = [ClauseDecl(cid, ltlf.print_formula(draw(formulas(atoms, max_leaves=6))))
               for cid in draw(st.lists(IDENTIFIERS, min_size=1, max_size=3, unique=True))]
    layout = draw(st.dictionaries(st.sampled_from(ids), st.tuples(FLOATS, FLOATS)))
    return TaskSpec(draw(st.text()), entities, predicates, clauses,
                    make_condition(draw(st.text()), layout))


@pytest.fixture
def formula_atoms():
    return ATOMS


def tiny_layout():
    """4-dimensional frame-site layout: 2 frames x 2 entity sites x 1 channel."""
    return LatentLayout.entity(2, ("a", "b"), channels=1)


def make_bundle(kind, layout, cond_dim=2, seed=0):
    rng = np.random.default_rng((seed, 77))
    if kind == "linear":
        model = LinearVelocity(layout.dim, cond_dim, rng=rng, scale=0.4)
    else:
        model = MLPVelocity(layout.dim, cond_dim, hidden=(6, 5), rng=rng, scale=0.8)
    bundle = ModelBundle.from_model(model)
    # distinct snapshots so branch and KL terms are nontrivial
    pert = np.random.default_rng((seed, 78))
    bundle.behavior.set_params(model.get_params() + 0.2 * pert.standard_normal(model.n_params))
    bundle.reference.set_params(model.get_params() + 0.1 * pert.standard_normal(model.n_params))
    return bundle


def make_group(seed, layout=None, n=5, force_mixed=True):
    layout = layout or tiny_layout()
    rng = np.random.default_rng((seed, 79))
    rollouts = rng.standard_normal((n, layout.dim))
    rewards = rng.integers(0, 2, n)
    if force_mixed:
        rewards[0], rewards[1] = 1, 0
    mask = CreditMask.from_axes(
        rng.integers(0, 2, layout.horizon).astype(bool),
        rng.integers(0, 2, layout.sites).astype(bool),
    )
    condition = rng.standard_normal(2)
    return RolloutGroup(condition, rollouts, rewards, layout, mask)


def make_batch(group, seed):
    return draw_sample_batch(group, np.random.default_rng((seed, 80)))


def fd_gradient(loss_fn, bundle, h=1e-5):
    """Central finite differences of loss_fn() with respect to current params."""
    theta0 = bundle.current.get_params()
    grad = np.empty_like(theta0)
    for i in range(theta0.size):
        step = np.zeros_like(theta0)
        step[i] = h
        bundle.current.set_params(theta0 + step)
        up = loss_fn()
        bundle.current.set_params(theta0 - step)
        down = loss_fn()
        grad[i] = (up - down) / (2.0 * h)
    bundle.current.set_params(theta0)
    return grad


def rel_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom
