import os

import numpy as np
import pytest

from creflow.errors import DimMismatch, TOutOfRange
from creflow.flow import (
    T_MIN,
    LinearVelocity,
    MLPVelocity,
    ModelBundle,
    interpolate,
    load_model,
    model_jacobian,
    predict_x0,
    sample_rollout,
    sample_rollout_group,
    save_model,
)

from conftest import rel_error


class TestInterpolate:
    def test_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x0 = rng.standard_normal(6)
            eps = rng.standard_normal(6)
            t = rng.uniform(T_MIN, 1.0)
            s = interpolate(x0, eps, t)
            assert np.allclose(s.xt, (1 - t) * x0 + t * eps)
            assert np.allclose((s.xt - x0) / t, s.v_target, atol=1e-9)

    def test_boundaries(self):
        x0 = np.array([1.0, -2.0])
        eps = np.array([0.5, 0.5])
        near_zero = interpolate(x0, eps, T_MIN)
        assert np.allclose(near_zero.xt, x0, atol=1e-2)
        at_one = interpolate(x0, eps, 1.0)
        assert np.array_equal(at_one.xt, eps)
        assert np.array_equal(at_one.v_target, eps - x0)

    def test_fixed_point(self):
        x = np.array([0.3, 0.7])
        s = interpolate(x, x, 0.5)
        assert np.allclose(s.xt, x)
        assert np.allclose(s.v_target, 0)

    def test_errors(self):
        with pytest.raises(DimMismatch):
            interpolate(np.zeros(3), np.zeros(4), 0.5)
        with pytest.raises(TOutOfRange):
            interpolate(np.zeros(3), np.zeros(3), 0.0)
        with pytest.raises(TOutOfRange):
            interpolate(np.zeros(3), np.zeros(3), 1.2)


class TestPredictX0:
    def test_exact_model_inverts(self):
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(4)
        eps = rng.standard_normal(4)

        class Exact:
            def velocity_batch(self, xt, t, cond=None):
                return np.broadcast_to(eps - x0, np.atleast_2d(xt).shape)[0] \
                    if np.asarray(xt).ndim == 1 else np.broadcast_to(eps - x0, np.asarray(xt).shape)

        for t in (T_MIN, 0.4, 1.0):
            s = interpolate(x0, eps, t)
            assert np.allclose(predict_x0(Exact(), s.xt, t), x0, atol=1e-12)

    def test_zero_model_returns_xt(self):
        model = LinearVelocity(4)
        xt = np.arange(4.0)
        assert np.array_equal(predict_x0(model, xt, 0.7), xt)


class PointMassVelocity:
    """Exact conditional velocity when all mass sits at one point."""

    def __init__(self, target):
        self.target = np.asarray(target, float)
        self.dim = self.target.size

    def velocity_batch(self, xt, t, cond=None):
        xt = np.atleast_2d(np.asarray(xt, float))
        t = np.atleast_1d(np.asarray(t, float))
        return (xt - self.target) / t[:, None]


class TestSampler:
    def test_point_mass_convergence(self):
        target = np.array([1.5, -0.5, 2.0])
        bundle = ModelBundle(None, PointMassVelocity(target), None)
        eps = np.random.default_rng(7).standard_normal(3)
        floor = T_MIN * np.linalg.norm(eps - target)
        errors = {}
        for steps in (8, 64):
            x = sample_rollout(bundle, None, steps, np.random.default_rng(7))
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
        x = sample_rollout(bundle, None, 16, rng)
        assert np.allclose(x, np.random.default_rng(3).standard_normal(5))

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(11)
        model = LinearVelocity(4, rng=rng, scale=0.3)
        bundle = ModelBundle.from_model(model)
        a = sample_rollout(bundle, None, 12, np.random.default_rng(5))
        b = sample_rollout(bundle, None, 12, np.random.default_rng(5))
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
        phi = model.features(xt, t, cond)
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


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_round_trip(self, tmp_path, kind):
        rng = np.random.default_rng(6)
        if kind == "linear":
            model = LinearVelocity(4, cond_dim=3, rng=rng, scale=0.4)
        else:
            model = MLPVelocity(4, cond_dim=3, hidden=(6,), rng=rng, scale=0.6)
        path = os.path.join(tmp_path, "model.json")
        save_model(path, model)
        loaded = load_model(path)
        xt, t, cond = rng.standard_normal(4), 0.3, rng.standard_normal(3)
        assert np.array_equal(loaded.velocity_batch(xt, t, cond), model.velocity_batch(xt, t, cond))
