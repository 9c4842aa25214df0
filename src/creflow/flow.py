"""Rectified-flow primitives and parametric velocity fields.

The interpolation convention is x_t = (1-t) x0 + t eps with velocity target
eps - x0, t drawn from [T_MIN, 1] (the clamp avoids the 1/t singularity of
x0-space targets). Two model kinds are provided: a linear map over the
feature vector [x_t, t, t^2, condition, 1] and a tanh MLP over
[x_t, t, condition]. Both expose exact vector-Jacobian products over their
flat parameter vectors; gradients are checked against central finite
differences in the test suite.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, SchemaError, TOutOfRange

T_MIN = 1e-3
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class FlowSample:
    x0: np.ndarray
    eps: np.ndarray
    t: float
    xt: np.ndarray
    v_target: np.ndarray


def interpolate(x0, eps, t) -> FlowSample:
    """Noise a clean latent to time t along the straight-line path."""
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise DimMismatch(f"x0 {x0.shape} vs eps {eps.shape}")
    t = float(t)
    if not (T_MIN <= t <= 1.0):
        raise TOutOfRange(f"t={t} outside [{T_MIN}, 1]")
    xt = (1.0 - t) * x0 + t * eps
    return FlowSample(x0, eps, t, xt, eps - x0)


def _prep_batch(xt, t, cond, dim, cond_dim):
    x = np.asarray(xt, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != dim:
        raise DimMismatch(f"latent dim {x.shape[1]}, model dim {dim}")
    b = x.shape[0]
    tv = np.asarray(t, dtype=np.float64)
    tv = np.full(b, float(tv)) if tv.ndim == 0 else tv
    if tv.shape != (b,):
        raise DimMismatch(f"t batch {tv.shape} vs latents {b}")
    c = np.asarray(cond, dtype=np.float64) if cond is not None else np.zeros(0)
    if c.ndim == 1:
        c = np.broadcast_to(c, (b, c.shape[0]))
    if c.shape != (b, cond_dim):
        raise DimMismatch(f"condition {c.shape}, expected ({b}, {cond_dim})")
    return x, tv, c, single


class LinearVelocity:
    """v = W phi with phi = [x_t, t, t^2, condition, 1]."""

    kind = "linear"

    def __init__(self, dim, cond_dim=0, rng=None, scale=0.0):
        self.dim = int(dim)
        self.cond_dim = int(cond_dim)
        self.n_features = self.dim + self.cond_dim + 3
        if rng is None or scale == 0.0:
            self.weights = np.zeros((self.dim, self.n_features))
        else:
            self.weights = scale * rng.standard_normal((self.dim, self.n_features))

    @property
    def n_params(self):
        return self.weights.size

    def get_params(self):
        return self.weights.ravel().copy()

    def set_params(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise DimMismatch(f"expected {self.n_params} params, got {theta.shape}")
        self.weights = theta.reshape(self.weights.shape).copy()

    def _features(self, xt, t, cond):
        """Batched phi = [x_t, t, t^2, condition, 1] and whether xt was one point."""
        x, tv, c, single = _prep_batch(xt, t, cond, self.dim, self.cond_dim)
        phi = np.concatenate(
            [x, tv[:, None], (tv * tv)[:, None], c, np.ones((x.shape[0], 1))], axis=1
        )
        return phi, single

    def features(self, xt, t, cond=None):
        phi, single = self._features(xt, t, cond)
        return phi[0] if single else phi

    def velocity_batch(self, xt, t, cond=None):
        phi, single = self._features(xt, t, cond)
        out = phi @ self.weights.T
        return out[0] if single else out

    def vjp_batch(self, xt, t, cond, adjoints):
        """Sum over the batch of adjoint^T dv/dtheta, as a flat vector."""
        phi, single = self._features(xt, t, cond)
        a = np.asarray(adjoints, dtype=np.float64)
        if single:
            a = a[None, :]
        return (a.T @ phi).ravel()

    def clone(self):
        other = LinearVelocity(self.dim, self.cond_dim)
        other.weights = self.weights.copy()
        return other


class MLPVelocity:
    """Tanh MLP over [x_t, t, condition] with a linear output layer."""

    kind = "mlp"

    def __init__(self, dim, cond_dim=0, hidden=(32,), rng=None, scale=0.5):
        self.dim = int(dim)
        self.cond_dim = int(cond_dim)
        self.hidden = tuple(int(h) for h in hidden)
        sizes = [self.dim + 1 + self.cond_dim, *self.hidden, self.dim]
        self.layers = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            if rng is None:
                w = np.zeros((fan_out, fan_in))
            else:
                w = scale * rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
            self.layers.append([w, np.zeros(fan_out)])

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in self.layers)

    def get_params(self):
        return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in self.layers])

    def set_params(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise DimMismatch(f"expected {self.n_params} params, got {theta.shape}")
        pos = 0
        for layer in self.layers:
            w, b = layer
            layer[0] = theta[pos : pos + w.size].reshape(w.shape).copy()
            pos += w.size
            layer[1] = theta[pos : pos + b.size].copy()
            pos += b.size

    def _forward(self, x, tv, c):
        act = np.concatenate([x, tv[:, None], c], axis=1)
        activations = [act]
        for k, (w, b) in enumerate(self.layers):
            z = act @ w.T + b
            act = np.tanh(z) if k < len(self.layers) - 1 else z
            activations.append(act)
        return activations

    def velocity_batch(self, xt, t, cond=None):
        x, tv, c, single = _prep_batch(xt, t, cond, self.dim, self.cond_dim)
        out = self._forward(x, tv, c)[-1]
        return out[0] if single else out

    def vjp_batch(self, xt, t, cond, adjoints):
        x, tv, c, single = _prep_batch(xt, t, cond, self.dim, self.cond_dim)
        a = np.asarray(adjoints, dtype=np.float64)
        if single:
            a = a[None, :]
        acts = self._forward(x, tv, c)
        grads = [None] * len(self.layers)
        delta = a
        for k in range(len(self.layers) - 1, -1, -1):
            w, _ = self.layers[k]
            grads[k] = (delta.T @ acts[k], delta.sum(axis=0))
            if k > 0:
                delta = (delta @ w) * (1.0 - acts[k] * acts[k])
        return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])

    def clone(self):
        other = MLPVelocity(self.dim, self.cond_dim, self.hidden)
        other.set_params(self.get_params())
        return other


def model_jacobian(model, xt, t, cond=None):
    """Dense Jacobian dv/dtheta, shape (dim, n_params), via unit adjoints."""
    rows = []
    for w in np.eye(model.dim):
        rows.append(model.vjp_batch(xt, t, cond, w))
    return np.stack(rows)


@dataclass
class ModelBundle:
    """Trainable field plus its behavior (EMA) and frozen reference snapshots."""

    current: object
    behavior: object
    reference: object
    ema_rate: float = 1.0

    @classmethod
    def from_model(cls, model, ema_rate=1.0):
        return cls(model, model.clone(), model.clone(), ema_rate)

    def ema_sync(self):
        """theta_old <- (1 - eta) theta_old + eta theta."""
        eta = self.ema_rate
        mixed = (1.0 - eta) * self.behavior.get_params() + eta * self.current.get_params()
        self.behavior.set_params(mixed)


def predict_x0(model, xt, t, cond=None):
    """One-step clean-latent prediction x_t - t v_theta(x_t, t, cond)."""
    xt = np.asarray(xt, dtype=np.float64)
    t_arr = np.asarray(t, dtype=np.float64)
    v = model.velocity_batch(xt, t, cond)
    if xt.ndim == 1:
        return xt - float(t_arr) * v
    return xt - t_arr[:, None] * v


def sample_rollout_group(bundle: ModelBundle, condition, steps, eps):
    """Euler-integrate the behavior field from t=1 down to T_MIN for a batch."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = np.array(eps, dtype=np.float64, copy=True)
    dt = (1.0 - T_MIN) / steps
    for k in range(steps):
        t = 1.0 - k * dt
        x -= dt * bundle.behavior.velocity_batch(x, t, condition)
    return x


def sample_rollout(bundle: ModelBundle, condition, steps, rng):
    """Single reproducible rollout: draws eps from rng, then integrates."""
    eps = rng.standard_normal(bundle.behavior.dim)
    return sample_rollout_group(bundle, condition, steps, eps[None, :])[0]


def save_model(path, model):
    payload = {
        "version": CHECKPOINT_VERSION,
        "kind": model.kind,
        "dim": model.dim,
        "cond_dim": model.cond_dim,
        "params": model.get_params().tolist(),
    }
    if model.kind == "mlp":
        payload["hidden"] = list(model.hidden)
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_model(path):
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("version") != CHECKPOINT_VERSION:
        raise SchemaError(f"unsupported checkpoint version {payload.get('version')}")
    if payload["kind"] == "linear":
        model = LinearVelocity(payload["dim"], payload["cond_dim"])
    elif payload["kind"] == "mlp":
        model = MLPVelocity(payload["dim"], payload["cond_dim"], payload["hidden"])
    else:
        raise SchemaError(f"unknown model kind {payload['kind']!r}")
    model.set_params(np.array(payload["params"], dtype=np.float64))
    return model
