"""Training losses: contrastive branch pair, credit-aware masking, corrective
regression toward the within-group positive mean, and the KL surrogate.

Conventions: every loss is a sum over latent coordinates and a mean over the
rollouts it ranges over (no division by the masked-coordinate count, so
masking genuinely shrinks gradient magnitude). Each function returns
(scalar loss, flat parameter gradient); the behavior and reference snapshots
never receive gradient.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyGroup, LayoutMismatch, SpecValidationError
from .flow import T_MIN, ModelBundle, interpolate
from .mask import CreditMask, LatentLayout
from .trace import check_settings, setting


@dataclass
class LossConfig:
    """Fields declared as in ``WorldConfig``; the strict bounds are checked by hand."""

    beta: float = setting(1.0, "a finite number")
    lambda_cr: float = setting(0.5, "a finite number", least=0)
    lambda_kl: float = setting(0.1, "a finite number", least=0)
    weight_scheme: str = setting("uniform", "a string", choices=("uniform", "kernel"))
    kernel_tau: float = setting(1.0, "a finite number")
    mask_enabled: bool = setting(True, "true or false")

    def __post_init__(self):
        check_settings(self)
        if self.beta <= 0:
            raise SpecValidationError("beta must be > 0")
        if self.weight_scheme == "kernel" and self.kernel_tau <= 0:
            raise SpecValidationError("kernel bandwidth must be > 0")


@dataclass
class RolloutGroup:
    """N same-condition rollouts with binary rewards and the shared mask."""

    condition: np.ndarray
    rollouts: np.ndarray  # (N, D)
    rewards: np.ndarray  # (N,) in {0, 1}
    layout: LatentLayout
    mask: CreditMask = None

    def __post_init__(self):
        self.rollouts = np.asarray(self.rollouts, dtype=np.float64)
        self.rewards = np.asarray(self.rewards, dtype=int)
        if self.rollouts.ndim != 2 or self.rollouts.shape[0] != self.rewards.shape[0]:
            raise LayoutMismatch("rollouts and rewards disagree on group size")
        if self.rollouts.shape[1] != self.layout.dim:
            raise LayoutMismatch(
                f"latent dim {self.rollouts.shape[1]} vs layout dim {self.layout.dim}"
            )

    @property
    def size(self):
        return self.rollouts.shape[0]

    @property
    def positives(self):
        return np.nonzero(self.rewards == 1)[0]

    @property
    def negatives(self):
        return np.nonzero(self.rewards == 0)[0]

    @property
    def positive_mean(self):
        pos = self.positives
        if pos.size == 0:
            return None
        return self.rollouts[pos].mean(axis=0)


@dataclass
class SampleBatch:
    """One (t, eps) draw per rollout, shared by all loss components."""

    t: np.ndarray  # (N,)
    eps: np.ndarray  # (N, D)
    xt: np.ndarray  # (N, D)
    condition: np.ndarray = field(default=None)


def draw_sample_batch(group: RolloutGroup, rng) -> SampleBatch:
    n, d = group.rollouts.shape
    t = rng.uniform(T_MIN, 1.0, size=n)
    eps = rng.standard_normal((n, d))
    return SampleBatch(t, eps, interpolate(group.rollouts, eps, t), group.condition)


def nft_branches(v_theta, v_old, beta):
    """Positive and negative reinforcement branches around the behavior field."""
    v_theta = np.asarray(v_theta, dtype=np.float64)
    v_old = np.asarray(v_old, dtype=np.float64)
    if v_theta.shape != v_old.shape:
        raise LayoutMismatch(f"branch shapes {v_theta.shape} vs {v_old.shape}")
    v_plus = (1.0 - beta) * v_old + beta * v_theta
    v_minus = (1.0 + beta) * v_old - beta * v_theta
    return v_plus, v_minus


def _mask_flat(group: RolloutGroup, config: LossConfig):
    if config.mask_enabled and group.mask is not None:
        return group.mask.flat(group.layout)
    return np.ones(group.layout.dim)


def _encode(bundle, batch):
    """batch.xt as feature rows, checked once and shared by every snapshot and term."""
    return bundle.current.encode(batch.xt, batch.t, batch.condition)


def _nft_impl(group, bundle, batch, config, m, feats, current):
    """``current`` is the current model's forward pass on ``feats``."""
    if group.size == 0:
        raise EmptyGroup("cannot evaluate a reward loss on an empty group")
    beta = config.beta
    v_theta = current[-1]
    v_old = bundle.behavior.forward(feats)[-1]
    v = batch.eps - group.rollouts
    v_plus, v_minus = nft_branches(v_theta, v_old, beta)
    res_p = (v_plus - v) * m
    res_m = (v_minus - v) * m
    r = group.rewards.astype(np.float64)[:, None]
    n = group.size
    loss = float(np.sum(r * res_p * res_p + (1.0 - r) * res_m * res_m) / n)
    adjoints = (r * (2.0 * beta) * res_p * m - (1.0 - r) * (2.0 * beta) * res_m * m) / n
    grad = bundle.current.vjp(current, adjoints)
    return loss, grad


def loss_nft(group: RolloutGroup, bundle: ModelBundle, batch: SampleBatch, config: LossConfig):
    """Reward-gated branch regression, unmasked (full latent support)."""
    feats = _encode(bundle, batch)
    return _nft_impl(group, bundle, batch, config, np.ones(group.layout.dim),
                     feats, bundle.current.forward(feats))


def loss_nft_credit_aware(group, bundle, batch, config):
    """Branch regression with both residuals gated by the group credit mask."""
    feats = _encode(bundle, batch)
    return _nft_impl(group, bundle, batch, config, _mask_flat(group, config),
                     feats, bundle.current.forward(feats))


def corrective_weights(group: RolloutGroup, config: LossConfig):
    """Row-stochastic weights over positives for each negative rollout."""
    pos, neg = group.positives, group.negatives
    if pos.size == 0:
        raise EmptyGroup("a corrective weight needs at least one positive rollout")
    if config.weight_scheme == "uniform":
        return np.full((neg.size, pos.size), 1.0 / pos.size)
    m = _mask_flat(group, config)
    xn = group.rollouts[neg] * m
    xp = group.rollouts[pos] * m
    d = np.sum((xn[:, None, :] - xp[None, :, :]) ** 2, axis=2)
    logits = -d / config.kernel_tau
    logits -= logits.max(axis=1, keepdims=True)
    w = np.exp(logits)
    return w / w.sum(axis=1, keepdims=True)


def _corrective_impl(group, bundle, batch, config, feats, weighted=False):
    """Corrective loss and gradient on the negatives' rows of ``feats``.

    Each negative's x_hat = x_t - t v_theta regresses toward the positive mean,
    loss ||M (x_hat - mean)||^2, or if ``weighted`` toward its barycenter under
    ``corrective_weights``, loss sum_j w_ij ||M (x_hat - x_j)||^2; both take the
    adjoint -2t M (x_hat - target) M / |N|.
    """
    pos, neg = group.positives, group.negatives
    if pos.size == 0 or neg.size == 0:
        return 0.0, np.zeros(bundle.current.n_params)
    m = _mask_flat(group, config)
    t = batch.t[neg][:, None]
    acts = bundle.current.forward(feats[neg])
    xhat = batch.xt[neg] - t * acts[-1]
    if weighted:
        w = corrective_weights(group, config)
        xp = group.rollouts[pos]
        each = (xhat[:, None, :] - xp) * m
        loss = float(np.sum(w[:, :, None] * each * each) / neg.size)
        diff = (xhat - w @ xp) * m
    else:
        diff = (xhat - group.positive_mean) * m
        loss = float(np.sum(diff * diff) / neg.size)
    adjoints = (-2.0 * t) * diff * m / neg.size
    return loss, bundle.current.vjp(acts, adjoints)


def loss_corrective_reflow(group, bundle, batch, config):
    """Regress negatives' one-step x0 prediction toward the positive mean.

    The velocity-space form t^2 ||M (v_theta - (x_t - mean)/t)||^2 is
    algebraically equal; ``tests/test_objectives.py`` implements it on its own
    as this function's reference.
    """
    return _corrective_impl(group, bundle, batch, config, _encode(bundle, batch))


def loss_corrective_weighted(group, bundle, batch, config):
    """Weighted-ERM corrective variant: per-negative weighted sum over positives."""
    return _corrective_impl(group, bundle, batch, config, _encode(bundle, batch), weighted=True)


def _kl_impl(bundle, batch, feats, current):
    v_ref = bundle.reference.forward(feats)[-1]
    diff = current[-1] - v_ref
    n = batch.xt.shape[0]
    loss = float(np.sum(diff * diff) / n)
    grad = bundle.current.vjp(current, 2.0 * diff / n)
    return loss, grad


def loss_kl(bundle: ModelBundle, batch: SampleBatch, config: LossConfig):
    """Velocity-MSE surrogate to the frozen reference, unmasked."""
    feats = _encode(bundle, batch)
    return _kl_impl(bundle, batch, feats, bundle.current.forward(feats))


def loss_total(group, bundle, batch, config):
    """Masked branch loss + lambda_cr corrective + lambda_kl KL.

    Returns (loss, gradient, components) where components maps each term's
    name to its unweighted scalar value. batch.xt is encoded once; the
    current model's forward pass on it serves the branch and KL terms, and
    the corrective term runs on the negatives' rows of the same features.
    """
    feats = _encode(bundle, batch)
    current = bundle.current.forward(feats)
    total, grad = _nft_impl(group, bundle, batch, config, _mask_flat(group, config),
                            feats, current)
    parts = {"nft": total, "cr": 0.0, "kl": 0.0}
    if config.lambda_cr > 0:
        cr_l, cr_g = _corrective_impl(group, bundle, batch, config, feats,
                                      weighted=config.weight_scheme == "kernel")
        parts["cr"] = cr_l
        total += config.lambda_cr * cr_l
        grad = grad + config.lambda_cr * cr_g
    if config.lambda_kl > 0:
        kl_l, kl_g = _kl_impl(bundle, batch, feats, current)
        parts["kl"] = kl_l
        total += config.lambda_kl * kl_l
        grad = grad + config.lambda_kl * kl_g
    return total, grad, parts
