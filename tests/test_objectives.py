import numpy as np
import pytest

from creflow.errors import EmptyGroup
from creflow.mask import CreditMask
from creflow.objectives import (
    LossConfig,
    corrective_weights,
    loss_corrective_reflow,
    loss_corrective_weighted,
    loss_kl,
    loss_nft,
    loss_nft_credit_aware,
    loss_total,
    nft_branches,
)

from conftest import fd_gradient, make_batch, make_bundle, make_group, rel_error, tiny_layout

CONFIG = LossConfig(beta=1.0, lambda_cr=0.7, lambda_kl=0.3)

ALL_LOSSES = {
    "nft": loss_nft,
    "nft_credit_aware": loss_nft_credit_aware,
    "corrective_reflow": loss_corrective_reflow,
    "corrective_weighted": loss_corrective_weighted,
}


def corrective_reflow_velocity_form(group, bundle, batch):
    """t^2 ||M (v_theta - (x_t - mean)/t)||^2 over the negatives, with its own adjoint.

    Algebraically equal to the x0-space loss_corrective_reflow and written
    independently of it, as that function's reference.
    """
    neg = group.negatives
    m = group.mask.flat(group.layout)
    t = batch.t[neg][:, None]
    feats = bundle.current.encode(batch.xt, batch.t, batch.condition)
    acts = bundle.current.forward(feats[neg])
    dv = (acts[-1] - (batch.xt[neg] - group.positive_mean) / t) * m
    loss = float(np.sum((t * t) * dv * dv) / neg.size)
    return loss, bundle.current.vjp(acts, 2.0 * (t * t) * dv * m / neg.size)


class TestBranches:
    def test_beta_one(self):
        rng = np.random.default_rng(0)
        v_theta, v_old = rng.standard_normal((2, 5))
        plus, minus = nft_branches(v_theta, v_old, 1.0)
        assert np.allclose(plus, v_theta)
        assert np.allclose(minus, 2 * v_old - v_theta)

    def test_fixed_point(self):
        v = np.random.default_rng(1).standard_normal(5)
        for beta in (0.5, 1.0, 2.0):
            plus, minus = nft_branches(v, v, beta)
            assert np.allclose(plus, v) and np.allclose(minus, v)

    def test_reflection_symmetry(self):
        rng = np.random.default_rng(2)
        v_theta, v_old = rng.standard_normal((2, 7))
        plus, minus = nft_branches(v_theta, v_old, 1.7)
        assert np.allclose(plus + minus, 2 * v_old)


class TestNftLoss:
    def test_empty_group(self):
        layout = tiny_layout()
        group = make_group(0, n=5)
        group.rollouts = np.zeros((0, layout.dim))
        group.rewards = np.zeros(0, int)
        bundle = make_bundle("linear", layout)
        with pytest.raises(EmptyGroup):
            loss_nft(group, bundle, make_batch(make_group(0), 0), CONFIG)

    def test_zero_loss_when_exact_at_beta_one(self):
        # all rollouts rewarded and the current model returning each target
        layout = tiny_layout()
        group = make_group(3, n=4)
        group.rewards = np.ones(4, int)
        bundle = make_bundle("linear", layout)
        batch = make_batch(group, 3)

        class Oracle:
            n_params = bundle.current.n_params
            encode = bundle.current.encode  # feature rows the behavior snapshot reads

            def forward(self, feats):
                return [feats, batch.eps - group.rollouts]

            def vjp(self, acts, adjoints):
                return np.zeros(self.n_params)

        bundle_exact = make_bundle("linear", layout)
        bundle_exact.current = Oracle()
        loss, grad = loss_nft(group, bundle_exact, batch, CONFIG)
        assert loss < 1e-24
        assert not grad.any()

    def test_reward_independent_at_behavior_point(self):
        # with v_theta == v_old both branch residuals coincide
        layout = tiny_layout()
        group = make_group(5, n=6)
        bundle = make_bundle("linear", layout)
        bundle.behavior.set_params(bundle.current.get_params())
        batch = make_batch(group, 5)
        base, _ = loss_nft(group, bundle, batch, CONFIG)
        flipped = make_group(5, n=6)
        flipped.rewards = 1 - group.rewards
        other, _ = loss_nft(flipped, bundle, batch, CONFIG)
        assert np.isclose(base, other)


class TestMaskIdentities:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_all_ones_mask_bit_for_bit(self, kind):
        layout = tiny_layout()
        for seed in range(20):
            group = make_group(seed)
            group.mask = CreditMask.ones(layout)
            bundle = make_bundle(kind, layout, seed=seed)
            batch = make_batch(group, seed)
            l_ca, g_ca = loss_nft_credit_aware(group, bundle, batch, CONFIG)
            l_plain, g_plain = loss_nft(group, bundle, batch, CONFIG)
            assert l_ca == l_plain
            assert np.array_equal(g_ca, g_plain)

    def test_mask_disabled_equivalent(self):
        layout = tiny_layout()
        group = make_group(2)
        bundle = make_bundle("linear", layout)
        batch = make_batch(group, 2)
        off = LossConfig(beta=1.0, mask_enabled=False)
        l_off, g_off = loss_nft_credit_aware(group, bundle, batch, off)
        l_plain, g_plain = loss_nft(group, bundle, batch, off)
        assert l_off == l_plain and np.array_equal(g_off, g_plain)

    def test_zero_mask_all_success_group(self):
        layout = tiny_layout()
        group = make_group(4)
        group.rewards = np.ones(group.size, int)
        group.mask = CreditMask.from_axes(np.zeros(2, bool), np.zeros(2, bool))
        bundle = make_bundle("linear", layout)
        batch = make_batch(group, 4)
        loss, grad = loss_nft_credit_aware(group, bundle, batch, CONFIG)
        assert loss == 0.0
        assert not grad.any()

    def test_single_coordinate_mask_gradient_support(self):
        # Linear kind: only the weight row feeding the masked coordinate moves
        layout = tiny_layout()
        group = make_group(6)
        temporal = np.array([True, False])
        spatial = np.array([True, False])
        group.mask = CreditMask.from_axes(temporal, spatial)  # coordinate 0 only
        bundle = make_bundle("linear", layout)
        batch = make_batch(group, 6)
        config = LossConfig(beta=1.0, lambda_cr=0.7, lambda_kl=0.0)
        _, grad = loss_nft_credit_aware(group, bundle, batch, config)
        rows = grad.reshape(layout.dim, -1)
        assert rows[0].any()
        assert not rows[1:].any()


class TestCorrective:
    def test_zero_when_no_negatives(self):
        group = make_group(0)
        group.rewards = np.ones(group.size, int)
        bundle = make_bundle("linear", tiny_layout())
        loss, grad = loss_corrective_reflow(group, bundle, make_batch(group, 0), CONFIG)
        assert loss == 0.0 and not grad.any()

    def test_zero_when_no_positives(self):
        group = make_group(0)
        group.rewards = np.zeros(group.size, int)
        bundle = make_bundle("linear", tiny_layout())
        loss, grad = loss_corrective_reflow(group, bundle, make_batch(group, 0), CONFIG)
        assert loss == 0.0 and not grad.any()

    def test_x0_and_velocity_forms_agree(self):
        layout = tiny_layout()
        for seed in range(20):
            group = make_group(seed)
            bundle = make_bundle("mlp", layout, seed=seed)
            batch = make_batch(group, seed)
            l_x0, g_x0 = loss_corrective_reflow(group, bundle, batch, CONFIG)
            l_v, g_v = corrective_reflow_velocity_form(group, bundle, batch)
            assert abs(l_x0 - l_v) <= 1e-12 * max(1.0, abs(l_x0))
            assert rel_error(g_x0, g_v) < 1e-12

    def test_uniform_weights_gradient_equivalence(self):
        layout = tiny_layout()
        for seed in range(100):
            rng = np.random.default_rng((seed, 90))
            n = int(rng.integers(3, 9))
            group = make_group(seed, n=n)
            # ensure |P| in 1..5 and at least one negative
            n_pos = int(rng.integers(1, min(6, n)))
            rewards = np.zeros(n, int)
            rewards[:n_pos] = 1
            rng.shuffle(rewards)
            group.rewards = rewards
            bundle = make_bundle("linear", layout, seed=seed)
            batch = make_batch(group, seed)
            _, g_reflow = loss_corrective_reflow(group, bundle, batch, CONFIG)
            _, g_weighted = loss_corrective_weighted(group, bundle, batch, CONFIG)
            assert rel_error(g_reflow, g_weighted) < 1e-10

    def test_kernel_limits(self):
        layout = tiny_layout()
        group = make_group(8, n=6)
        group.rewards = np.array([1, 1, 1, 0, 0, 0])
        sharp = LossConfig(beta=1.0, weight_scheme="kernel", kernel_tau=1e-6)
        w = corrective_weights(group, sharp)
        masked = group.mask.flat(group.layout)
        for row, i in zip(w, group.negatives):
            dists = [
                np.sum((masked * (group.rollouts[i] - group.rollouts[j])) ** 2)
                for j in group.positives
            ]
            assert row[int(np.argmin(dists))] > 0.999
        flat = LossConfig(beta=1.0, weight_scheme="kernel", kernel_tau=1e9)
        w = corrective_weights(group, flat)
        assert np.allclose(w, 1.0 / 3.0, atol=1e-6)

    @pytest.mark.parametrize("scheme", ["uniform", "kernel"])
    def test_weights_need_a_positive(self, scheme):
        group = make_group(8, n=3)
        group.rewards = np.zeros(3, int)
        config = LossConfig(beta=1.0, weight_scheme=scheme)
        with pytest.raises(EmptyGroup, match="needs at least one positive rollout"):
            corrective_weights(group, config)


class TestKl:
    def test_zero_at_reference(self):
        layout = tiny_layout()
        bundle = make_bundle("linear", layout)
        bundle.reference.set_params(bundle.current.get_params())
        group = make_group(1)
        loss, grad = loss_kl(bundle, make_batch(group, 1), CONFIG)
        assert loss == 0.0 and not grad.any()

    def test_lambda_scaling_in_total(self):
        layout = tiny_layout()
        group = make_group(2)
        bundle = make_bundle("linear", layout)
        batch = make_batch(group, 2)
        small = LossConfig(beta=1.0, lambda_cr=0.0, lambda_kl=0.2)
        large = LossConfig(beta=1.0, lambda_cr=0.0, lambda_kl=0.4)
        _, g_kl = loss_kl(bundle, batch, small)
        _, g_small, _ = loss_total(group, bundle, batch, small)
        _, g_large, _ = loss_total(group, bundle, batch, large)
        assert np.allclose(g_large - g_small, 0.2 * g_kl)


class TestTotal:
    def test_degenerate_config_equals_nft(self):
        layout = tiny_layout()
        group = make_group(3)
        bundle = make_bundle("linear", layout)
        batch = make_batch(group, 3)
        degenerate = LossConfig(beta=1.0, lambda_cr=0.0, lambda_kl=0.0, mask_enabled=False)
        total, grad, parts = loss_total(group, bundle, batch, degenerate)
        plain, plain_grad = loss_nft(group, bundle, batch, degenerate)
        assert total == plain
        assert np.array_equal(grad, plain_grad)
        assert parts["cr"] == 0.0 and parts["kl"] == 0.0

    def test_all_success_group_reduces_to_kl(self):
        layout = tiny_layout()
        group = make_group(4)
        group.rewards = np.ones(group.size, int)
        group.mask = CreditMask.from_axes(np.zeros(2, bool), np.zeros(2, bool))
        bundle = make_bundle("linear", layout)
        batch = make_batch(group, 4)
        total, grad, parts = loss_total(group, bundle, batch, CONFIG)
        kl, kl_grad = loss_kl(bundle, batch, CONFIG)
        assert np.isclose(total, CONFIG.lambda_kl * kl)
        assert np.allclose(grad, CONFIG.lambda_kl * kl_grad)

    def test_component_sum(self):
        layout = tiny_layout()
        group = make_group(5)
        bundle = make_bundle("mlp", layout)
        batch = make_batch(group, 5)
        total, grad, parts = loss_total(group, bundle, batch, CONFIG)
        l1, g1 = loss_nft_credit_aware(group, bundle, batch, CONFIG)
        l2, g2 = loss_corrective_reflow(group, bundle, batch, CONFIG)
        l3, g3 = loss_kl(bundle, batch, CONFIG)
        assert np.isclose(total, l1 + CONFIG.lambda_cr * l2 + CONFIG.lambda_kl * l3)
        assert np.allclose(grad, g1 + CONFIG.lambda_cr * g2 + CONFIG.lambda_kl * g3)


    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("scheme", ["uniform", "kernel"])
    def test_parts_and_gradient_equal_single_terms_bit_for_bit(self, kind, scheme):
        # loss_total shares one encoding of batch.xt across its terms; every
        # part and the summed gradient must equal the public single terms
        layout = tiny_layout()
        config = LossConfig(beta=1.3, lambda_cr=0.7, lambda_kl=0.3, weight_scheme=scheme)
        corrective = loss_corrective_weighted if scheme == "kernel" else loss_corrective_reflow
        for seed in range(10):
            group = make_group(seed, n=6)
            bundle = make_bundle(kind, layout, seed=seed)
            batch = make_batch(group, seed)
            total, grad, parts = loss_total(group, bundle, batch, config)
            l1, g1 = loss_nft_credit_aware(group, bundle, batch, config)
            l2, g2 = corrective(group, bundle, batch, config)
            l3, g3 = loss_kl(bundle, batch, config)
            assert parts == {"nft": l1, "cr": l2, "kl": l3}
            expected = l1
            expected += config.lambda_cr * l2
            expected += config.lambda_kl * l3
            assert total == expected
            assert np.array_equal(grad, g1 + config.lambda_cr * g2 + config.lambda_kl * g3)


class TestGradientChecks:
    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    @pytest.mark.parametrize("name", sorted(ALL_LOSSES))
    def test_fd_gradients(self, kind, name):
        loss_fn = ALL_LOSSES[name]
        for seed in range(8):
            layout = tiny_layout()
            group = make_group(seed)
            bundle = make_bundle(kind, layout, seed=seed)
            batch = make_batch(group, seed)
            _, analytic = loss_fn(group, bundle, batch, CONFIG)
            fd = fd_gradient(lambda: loss_fn(group, bundle, batch, CONFIG)[0], bundle)
            assert rel_error(analytic, fd) < 1e-5, f"{name}/{kind} seed {seed}"

    @pytest.mark.parametrize("kind", ["linear", "mlp"])
    def test_fd_gradient_kl_and_total(self, kind):
        for seed in range(8):
            layout = tiny_layout()
            group = make_group(seed)
            bundle = make_bundle(kind, layout, seed=seed)
            batch = make_batch(group, seed)
            _, analytic = loss_kl(bundle, batch, CONFIG)
            fd = fd_gradient(lambda: loss_kl(bundle, batch, CONFIG)[0], bundle)
            assert rel_error(analytic, fd) < 1e-5
            _, analytic, _ = loss_total(group, bundle, batch, CONFIG)
            fd = fd_gradient(lambda: loss_total(group, bundle, batch, CONFIG)[0], bundle)
            assert rel_error(analytic, fd) < 1e-5

    def test_stop_gradient_discipline(self):
        # perturbing the behavior snapshot changes the loss value, but the
        # analytic gradient in theta still matches finite differences taken
        # with the snapshot held fixed
        layout = tiny_layout()
        group = make_group(7)
        bundle = make_bundle("linear", layout, seed=7)
        batch = make_batch(group, 7)
        base, _ = loss_nft(group, bundle, batch, CONFIG)
        rng = np.random.default_rng(17)
        bundle.behavior.set_params(
            bundle.behavior.get_params() + 0.5 * rng.standard_normal(bundle.behavior.n_params)
        )
        perturbed, analytic = loss_nft(group, bundle, batch, CONFIG)
        assert not np.isclose(base, perturbed)
        fd = fd_gradient(lambda: loss_nft(group, bundle, batch, CONFIG)[0], bundle)
        assert rel_error(analytic, fd) < 1e-5
