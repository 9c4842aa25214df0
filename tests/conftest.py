import numpy as np
import pytest
from hypothesis import strategies as st

from creflow import ltlf
from creflow.flow import LinearVelocity, MLPVelocity, ModelBundle
from creflow.mask import CreditMask, LatentLayout
from creflow.objectives import RolloutGroup, draw_sample_batch


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
