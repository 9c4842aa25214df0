"""Rectified-flow primitives and parametric velocity fields.

The interpolation convention is x_t = (1-t) x0 + t eps with velocity target
eps - x0, t drawn from [T_MIN, 1] (the clamp avoids the 1/t singularity of
x0-space targets). Two model kinds are provided: a linear map over the
feature vector [x_t, t, t^2, condition, 1] and a tanh MLP over
[x_t, t, condition]. Both expose exact vector-Jacobian products over their
flat parameter vectors; gradients are checked against central finite
differences in the test suite.

Each model has one evaluation path. ``encode`` checks a batch's inputs and
builds its feature rows once; ``forward`` runs the model on those rows and
returns every layer's activations, the velocity last; ``vjp`` takes those
activations back to a parameter gradient. Features depend only on the
inputs, so the current, behavior and reference snapshots of one model share
them, and ``refresh`` rewrites just the x/t columns when only those change.
``velocity_batch``/``vjp_batch`` compose the path for one-off callers and
keep the single-point form. Parameters live in one flat vector, ``params``,
that the weight arrays view, so updates happen in place.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, TOutOfRange

T_MIN = 1e-3


def interpolate(x0, eps, t):
    """Noise clean latents to time t along the straight-line path.

    ``x0`` and ``eps`` share a shape (one latent or a batch); ``t`` is one
    time or one per latent.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if x0.shape != eps.shape:
        raise DimMismatch(f"x0 {x0.shape} vs eps {eps.shape}")
    tv = np.asarray(t, dtype=np.float64)
    if tv.ndim and tv.shape != x0.shape[:-1]:
        raise DimMismatch(f"t batch {tv.shape} vs latents {x0.shape[:-1]}")
    if not np.all((T_MIN <= tv) & (tv <= 1.0)):
        raise TOutOfRange(f"t={t} outside [{T_MIN}, 1]")
    return (1.0 - tv)[..., None] * x0 + tv[..., None] * eps


def _check_batch(xt, t, cond, dim, cond_dim):
    """Validated (x (B, dim), t (B,) or scalar, condition (B, cond_dim) or (cond_dim,))."""
    x = np.asarray(xt, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != dim:
        raise DimMismatch(f"latents {x.shape}, model dim {dim}")
    b = x.shape[0]
    tv = np.asarray(t, dtype=np.float64)
    if tv.ndim and tv.shape != (b,):
        raise DimMismatch(f"t batch {tv.shape} vs latents {b}")
    c = np.asarray(cond, dtype=np.float64) if cond is not None else np.zeros(0)
    if c.shape != (cond_dim,) and c.shape != (b, cond_dim):
        raise DimMismatch(f"condition {c.shape}, expected ({b}, {cond_dim})")
    return x, tv, c


def _one_point(xt, out):
    """The wrappers return one row for a one-point (1-D) input."""
    return out[0] if np.ndim(xt) == 1 else out


class _VelocityModel:
    """What both model kinds share: flat parameters, ``encode`` and the wrappers.

    Feature rows are [x_t, time columns, condition, constant columns]; each
    kind sets ``n_time`` and ``n_inputs`` and writes the x_t/time columns in
    ``refresh``.
    """

    @property
    def n_params(self):
        return self.params.size

    def get_params(self):
        return self.params.copy()

    def set_params(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_params,):
            raise DimMismatch(f"expected {self.n_params} params, got {theta.shape}")
        self.params[:] = theta

    def encode(self, xt, t, cond=None):
        """Checked feature rows (B, n_inputs) for a batch; the single validation point."""
        x, tv, c = _check_batch(xt, t, cond, self.dim, self.cond_dim)
        feats = np.empty((x.shape[0], self.n_inputs))
        cond_end = self.dim + self.n_time + self.cond_dim
        feats[:, cond_end - self.cond_dim:cond_end] = c
        feats[:, cond_end:] = 1.0
        self.refresh(feats, x, tv)
        return feats

    def velocity_batch(self, xt, t, cond=None):
        return _one_point(xt, self.forward(self.encode(xt, t, cond))[-1])

    def vjp_batch(self, xt, t, cond, adjoints):
        """Sum over the batch of adjoint^T dv/dtheta, as a flat vector."""
        acts = self.forward(self.encode(xt, t, cond))
        return self.vjp(acts, np.atleast_2d(np.asarray(adjoints, dtype=np.float64)))


class LinearVelocity(_VelocityModel):
    """v = W phi with phi = [x_t, t, t^2, condition, 1]."""

    kind = "linear"
    n_time = 2  # t and t^2; the last column is the constant 1

    def __init__(self, dim, cond_dim=0, rng=None, scale=0.0):
        self.dim = int(dim)
        self.cond_dim = int(cond_dim)
        self.n_inputs = self.dim + self.cond_dim + 3
        shape = (self.dim, self.n_inputs)
        if rng is None or scale == 0.0:
            self.params = np.zeros(self.dim * self.n_inputs)
        else:
            self.params = (scale * rng.standard_normal(shape)).ravel()
        self.weights = self.params.reshape(shape)

    def refresh(self, feats, x, t):
        """Rewrite the x_t, t and t^2 columns of encoded rows in place."""
        d = self.dim
        feats[:, :d] = x
        feats[:, d] = t
        np.multiply(feats[:, d], feats[:, d], out=feats[:, d + 1])

    def forward(self, feats):
        """Activations [phi, v] for encoded rows."""
        return [feats, feats @ self.weights.T]

    def vjp(self, acts, adjoints):
        """Sum over the rows of adjoint^T dv/dtheta from a forward pass's activations."""
        return (adjoints.T @ acts[0]).ravel()

    def clone(self):
        other = LinearVelocity(self.dim, self.cond_dim)
        other.set_params(self.params)
        return other


class MLPVelocity(_VelocityModel):
    """Tanh MLP over [x_t, t, condition] with a linear output layer."""

    kind = "mlp"
    n_time = 1  # t; biases replace the constant column

    def __init__(self, dim, cond_dim=0, hidden=(32,), rng=None, scale=0.5):
        self.dim = int(dim)
        self.cond_dim = int(cond_dim)
        self.hidden = tuple(int(h) for h in hidden)
        self.n_inputs = self.dim + 1 + self.cond_dim
        sizes = [self.n_inputs, *self.hidden, self.dim]
        shapes = list(zip(sizes[1:], sizes[:-1]))  # (fan_out, fan_in) per layer
        self.params = np.zeros(sum(fan_out * (fan_in + 1) for fan_out, fan_in in shapes))
        self.layers = []  # (weights, biases) views into params, in params order
        pos = 0
        for fan_out, fan_in in shapes:
            w = self.params[pos:pos + fan_out * fan_in].reshape(fan_out, fan_in)
            pos += w.size
            if rng is not None:
                w[:] = scale * rng.standard_normal((fan_out, fan_in)) / np.sqrt(fan_in)
            self.layers.append((w, self.params[pos:pos + fan_out]))
            pos += fan_out

    def refresh(self, feats, x, t):
        """Rewrite the x_t and t columns of encoded rows in place."""
        feats[:, :self.dim] = x
        feats[:, self.dim] = t

    def forward(self, feats):
        """Activations [input, hidden..., v] for encoded rows."""
        act = feats
        activations = [act]
        for k, (w, b) in enumerate(self.layers):
            z = act @ w.T + b
            act = np.tanh(z) if k < len(self.layers) - 1 else z
            activations.append(act)
        return activations

    def vjp(self, acts, adjoints):
        """Sum over the rows of adjoint^T dv/dtheta from a forward pass's activations."""
        grads = [None] * len(self.layers)
        delta = adjoints
        for k in range(len(self.layers) - 1, -1, -1):
            w, _ = self.layers[k]
            grads[k] = (delta.T @ acts[k], delta.sum(axis=0))
            if k > 0:
                delta = (delta @ w) * (1.0 - acts[k] * acts[k])
        return np.concatenate([np.concatenate([gw.ravel(), gb]) for gw, gb in grads])

    def clone(self):
        other = MLPVelocity(self.dim, self.cond_dim, self.hidden)
        other.set_params(self.params)
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

    def copy(self):
        """An independent bundle with the same parameters in all three snapshots."""
        return ModelBundle(self.current.clone(), self.behavior.clone(), self.reference.clone(),
                           self.ema_rate)

    def ema_sync(self):
        """theta_old <- (1 - eta) theta_old + eta theta, in place."""
        eta = self.ema_rate
        theta_old = self.behavior.params
        theta_old *= 1.0 - eta
        theta_old += eta * self.current.params


def sample_rollout_group(bundle: ModelBundle, condition, steps, eps):
    """Euler-integrate the behavior field from t=1 down to T_MIN for a batch."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    model = bundle.behavior
    x = np.array(eps, dtype=np.float64, copy=True)
    rows = np.atleast_2d(x)  # a view: updating rows updates x
    feats = model.encode(rows, 1.0, condition)
    dt = (1.0 - T_MIN) / steps
    for k in range(steps):
        model.refresh(feats, rows, 1.0 - k * dt)
        rows -= dt * model.forward(feats)[-1]
    return x
