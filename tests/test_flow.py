import numpy as np
import pytest

from creflow.errors import DimMismatch, TOutOfRange
from creflow.flow import (
    T_MIN,
    LinearVelocity,
    MLPVelocity,
    ModelBundle,
    interpolate,
    model_jacobian,
    sample_rollout_group,
)

from conftest import rel_error


class TestInterpolate:
    def test_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0 = rng.standard_normal(6)
            eps = rng.standard_normal(6)
            t = rng.uniform(T_MIN, 1.0)
            xt = interpolate(x0, eps, t)
            assert np.allclose(xt, (1 - t) * x0 + t * eps)
            assert np.allclose((xt - x0) / t, eps - x0, atol=1e-9)

    def test_batch_rows_equal_single_points(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal((7, 5))
        eps = rng.standard_normal((7, 5))
        t = rng.uniform(T_MIN, 1.0, size=7)
        batch = interpolate(x0, eps, t)
        assert np.array_equal(batch, (1.0 - t)[:, None] * x0 + t[:, None] * eps)
        for i in range(7):
            assert np.array_equal(batch[i], interpolate(x0[i], eps[i], t[i]))

    def test_boundaries(self):
        x0 = np.array([1.0, -2.0])
        eps = np.array([0.5, 0.5])
        near_zero = interpolate(x0, eps, T_MIN)
        assert np.allclose(near_zero, x0, atol=1e-2)
        at_one = interpolate(x0, eps, 1.0)
        assert np.array_equal(at_one, eps)

    def test_fixed_point(self):
        x = np.array([0.3, 0.7])
        assert np.allclose(interpolate(x, x, 0.5), x)

    def test_errors(self):
        with pytest.raises(DimMismatch):
            interpolate(np.zeros(3), np.zeros(4), 0.5)
        with pytest.raises(TOutOfRange):
            interpolate(np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(TOutOfRange):
            interpolate(np.zeros(3), np.zeros(3), 1.2)
        with pytest.raises(TOutOfRange):
            interpolate(np.zeros((2, 3)), np.zeros((2, 3)), np.array([0.5, 0.0]))
        with pytest.raises(DimMismatch):
            interpolate(np.zeros((2, 3)), np.zeros((2, 3)), np.full(3, 0.5))


class TestCleanLatentPrediction:
    """x_t - t v(x_t, t) recovers x0 under the exact velocity target eps - x0."""

    def test_exact_velocity_inverts(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(4)
        eps = rng.standard_normal(4)
        for t in (T_MIN, 0.4, 1.0):
            xt = interpolate(x0, eps, t)
            assert np.allclose(xt - t * (eps - x0), x0, atol=1e-12)

    def test_zero_model_returns_xt(self):
        model = LinearVelocity(4)
        xt = np.arange(4.0)
        assert np.array_equal(xt - 0.7 * model.velocity_batch(xt, 0.7), xt)


class PointMassVelocity:
    """Exact conditional velocity when all mass sits at one point.

    Feature rows are [x_t, t]; the sampler refreshes them on each step.
    """

    def __init__(self, target):
        self.target = np.asarray(target, float)
        self.dim = self.target.size

    def encode(self, xt, t, cond=None):
        xt = np.atleast_2d(np.asarray(xt, float))
        feats = np.empty((xt.shape[0], self.dim + 1))
        self.refresh(feats, xt, t)
        return feats

    def refresh(self, feats, x, t):
        feats[:, :self.dim] = x
        feats[:, self.dim] = t

    def forward(self, feats):
        return [(feats[:, :self.dim] - self.target) / feats[:, self.dim:]]


class TestSampler:
    def test_point_mass_convergence(self):
        target = np.array([1.5, -0.5, 2.0])
        bundle = ModelBundle(None, PointMassVelocity(target), None)
        eps = np.random.default_rng(7).standard_normal(3)
        floor = T_MIN * np.linalg.norm(eps - target)
        errors = {}
        for steps in (8, 64):
            x = sample_rollout_group(bundle, None, steps,
                                     np.random.default_rng(7).standard_normal((1, 3)))[0]
            # analytic Euler recursion for dx/dt = (x - a)/t
            expected = eps.copy()
            dt = (1.0 - T_MIN) / steps
            for k in range(steps):
                t = 1.0 - k * dt
                expected = expected - dt * (expected - target) / t
            assert np.allclose(x, expected, atol=1e-12)
            # the per-step factors telescope, so Euler is exact here and the
            # only residual is the T_MIN integration cutoff
            assert np.allclose(x, target + T_MIN * (eps - target), atol=1e-12)
            errors[steps] = np.linalg.norm(x - target)
        assert errors[64] <= errors[8] + 1e-12
        assert errors[64] <= floor * (1 + 1e-9)
        assert errors[64] < 0.05

    def test_zero_model_returns_noise(self):
        bundle = ModelBundle.from_model(LinearVelocity(5))
        rng = np.random.default_rng(3)
        x = sample_rollout_group(bundle, None, 16, rng.standard_normal((1, 5)))[0]
        assert np.allclose(x, np.random.default_rng(3).standard_normal(5))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        model = LinearVelocity(4, rng=rng, scale=0.3)
        bundle = ModelBundle.from_model(model)
        a = sample_rollout_group(bundle, None, 12, np.random.default_rng(5).standard_normal((1, 4)))
        b = sample_rollout_group(bundle, None, 12, np.random.default_rng(5).standard_normal((1, 4)))
        assert np.array_equal(a, b)

    def test_group_matches_single(self):
        rng = np.random.default_rng(13)
        model = LinearVelocity(4, cond_dim=2, rng=rng, scale=0.3)
        bundle = ModelBundle.from_model(model)
        cond = np.array([0.2, -0.4])
        eps = rng.standard_normal((3, 4))
        group = sample_rollout_group(bundle, cond, 9, eps)
        for i in range(3):
            single = sample_rollout_group(bundle, cond, 9, eps[i][None, :])[0]
            assert np.allclose(group[i], single)


class TestGradients:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_vjp_matches_finite_differences(self, kind):
        for seed in range(50):
            rng = np.random.default_rng((seed, 21))
            if kind == "linear":
                model = LinearVelocity(3, cond_dim=2, rng=rng, scale=0.5)
            else:
                model = MLPVelocity(3, cond_dim=2, hidden=(5, 4), rng=rng, scale=0.8)
            xt = rng.standard_normal(3)
            t = rng.uniform(0.1, 1.0)
            cond = rng.standard_normal(2)
            adjoint = rng.standard_normal(3)
            analytic = model.vjp_batch(xt, t, cond, adjoint)
            theta0 = model.get_params()
            fd = np.empty_like(theta0)
            h = 1e-5
            for i in range(theta0.size):
                step = np.zeros_like(theta0)
                step[i] = h
                model.set_params(theta0 + step)
                up = adjoint @ model.velocity_batch(xt, t, cond)
                model.set_params(theta0 - step)
                down = adjoint @ model.velocity_batch(xt, t, cond)
                fd[i] = (up - down) / (2 * h)
            model.set_params(theta0)
            assert rel_error(analytic, fd) < 1e-5

    def test_linear_gradient_is_outer_product(self):
        rng = np.random.default_rng(0)
        model = LinearVelocity(3, cond_dim=1, rng=rng, scale=0.3)
        xt, t, cond = rng.standard_normal(3), 0.5, rng.standard_normal(1)
        adjoint = rng.standard_normal(3)
        grad = model.vjp_batch(xt, t, cond, adjoint).reshape(3, -1)
        phi = model.encode(xt, t, cond)[0]
        assert np.allclose(grad, np.outer(adjoint, phi))

    def test_zero_adjoint_zero_gradient(self):
        model = MLPVelocity(3, hidden=(4,), rng=np.random.default_rng(0))
        g = model.vjp_batch(np.ones(3), 0.5, None, np.zeros(3))
        assert not g.any()

    def test_jacobian_matches_vjp(self):
        rng = np.random.default_rng(2)
        model = LinearVelocity(3, cond_dim=0, rng=rng, scale=0.2)
        xt = rng.standard_normal(3)
        jac = model_jacobian(model, xt, 0.4)
        assert jac.shape == (3, model.n_params)
        adjoint = rng.standard_normal(3)
        assert np.allclose(jac.T @ adjoint, model.vjp_batch(xt, 0.4, None, adjoint))


class TestBundle:
    def test_ema_contraction(self):
        rng = np.random.default_rng(4)
        model = LinearVelocity(3, rng=rng, scale=0.5)
        for eta in (0.25, 0.5, 1.0):
            bundle = ModelBundle.from_model(model, ema_rate=eta)
            bundle.behavior.set_params(model.get_params() + rng.standard_normal(model.n_params))
            before = np.linalg.norm(bundle.behavior.get_params() - model.get_params())
            bundle.ema_sync()
            after = np.linalg.norm(bundle.behavior.get_params() - model.get_params())
            assert np.isclose(after, (1 - eta) * before)

    def test_snapshots_independent(self):
        model = LinearVelocity(3)
        bundle = ModelBundle.from_model(model)
        model.set_params(np.ones(model.n_params))
        assert not bundle.behavior.get_params().any()
        assert not bundle.reference.get_params().any()


def make_model(kind, dim=4, cond_dim=3, seed=0):
    rng = np.random.default_rng((seed, 31))
    if kind == "linear":
        return LinearVelocity(dim, cond_dim, rng=rng, scale=0.4)
    return MLPVelocity(dim, cond_dim, hidden=(6, 5), rng=rng, scale=0.8)


def concatenated_inputs(model, x, t, c):
    """The feature rows as separate arrays joined side by side (the reference layout)."""
    b = x.shape[0]
    tv = np.full(b, t) if np.ndim(t) == 0 else t
    c = np.broadcast_to(c, (b, model.cond_dim))
    if model.kind == "linear":
        return np.concatenate([x, tv[:, None], (tv * tv)[:, None], c, np.ones((b, 1))], axis=1)
    return np.concatenate([x, tv[:, None], c], axis=1)


@pytest.mark.parametrize("kind", ["linear", "mlp"])
class TestSharedPath:
    def test_encode_matches_concatenated_inputs(self, kind):
        model = make_model(kind)
        rng = np.random.default_rng(1)
        x, t = rng.standard_normal((5, 4)), rng.uniform(T_MIN, 1.0, 5)
        for cond in (rng.standard_normal(3), rng.standard_normal((5, 3))):
            assert np.array_equal(model.encode(x, t, cond), concatenated_inputs(model, x, t, cond))
        assert np.array_equal(model.encode(x, 0.3, cond), concatenated_inputs(model, x, 0.3, cond))

    def test_wrappers_equal_shared_features(self, kind):
        model = make_model(kind)
        rng = np.random.default_rng(2)
        x, t, cond = rng.standard_normal((6, 4)), rng.uniform(T_MIN, 1.0, 6), rng.standard_normal(3)
        adjoints = rng.standard_normal((6, 4))
        acts = model.forward(model.encode(x, t, cond))
        assert np.array_equal(model.velocity_batch(x, t, cond), acts[-1])
        assert np.array_equal(model.vjp_batch(x, t, cond, adjoints), model.vjp(acts, adjoints))
        # one point: 1-D latent, scalar t, 1-D adjoint
        one = model.forward(model.encode(x[:1], t[0], cond))
        v = model.velocity_batch(x[0], t[0], cond)
        assert v.shape == (4,) and np.array_equal(v, one[-1][0])
        assert np.array_equal(model.vjp_batch(x[0], t[0], cond, adjoints[0]),
                              model.vjp(one, adjoints[:1]))

    def test_forward_on_rows_equals_rows_of_inputs(self, kind):
        # the corrective term runs on the negatives' rows of the shared features
        model = make_model(kind)
        rng = np.random.default_rng(3)
        x, t, cond = rng.standard_normal((7, 4)), rng.uniform(T_MIN, 1.0, 7), rng.standard_normal(3)
        rows = np.array([1, 4, 5])
        feats = model.encode(x, t, cond)
        assert np.array_equal(model.forward(feats[rows])[-1],
                              model.velocity_batch(x[rows], t[rows], cond))

    def test_euler_sampler_equals_step_by_step_loop(self, kind):
        model = make_model(kind)
        bundle = ModelBundle.from_model(model)
        rng = np.random.default_rng(4)
        cond, eps = rng.standard_normal(3), rng.standard_normal((8, 4))
        for steps in (1, 5, 16):
            x = eps.copy()
            dt = (1.0 - T_MIN) / steps
            for k in range(steps):
                x -= dt * bundle.behavior.velocity_batch(x, 1.0 - k * dt, cond)
            assert np.array_equal(sample_rollout_group(bundle, cond, steps, eps), x)

    def test_dim_mismatch_at_public_edge(self, kind):
        model = make_model(kind)
        bundle = ModelBundle.from_model(model)
        x, cond = np.zeros((3, 4)), np.zeros(3)
        bad = [
            (np.zeros((3, 5)), 0.5, cond),  # latent dim
            (x, np.full(2, 0.5), cond),  # t batch
            (x, 0.5, np.zeros(2)),  # condition width
            (x, 0.5, np.zeros((2, 3))),  # condition rows
        ]
        for xt, t, c in bad:
            with pytest.raises(DimMismatch):
                model.encode(xt, t, c)
            with pytest.raises(DimMismatch):
                model.velocity_batch(xt, t, c)
            with pytest.raises(DimMismatch):
                model.vjp_batch(xt, t, c, np.zeros((3, 4)))
        with pytest.raises(DimMismatch):
            sample_rollout_group(bundle, cond, 4, np.zeros((3, 5)))
        with pytest.raises(DimMismatch):
            sample_rollout_group(bundle, np.zeros(2), 4, x)

    def test_in_place_updates_match_copies(self, kind):
        rng = np.random.default_rng(5)
        model = make_model(kind)
        for eta in (0.25, 1.0):
            bundle = ModelBundle.from_model(model, ema_rate=eta)
            bundle.behavior.set_params(model.get_params() + rng.standard_normal(model.n_params))
            expected = (1.0 - eta) * bundle.behavior.get_params() + eta * model.get_params()
            bundle.ema_sync()
            assert np.array_equal(bundle.behavior.get_params(), expected)
        grad = rng.standard_normal(model.n_params)
        expected = model.get_params() - 3e-4 * grad
        v_before = model.velocity_batch(np.ones(4), 0.5, np.ones(3))
        model.params -= 3e-4 * grad
        assert np.array_equal(model.get_params(), expected)
        assert not np.array_equal(model.velocity_batch(np.ones(4), 0.5, np.ones(3)), v_before)
