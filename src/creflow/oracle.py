"""Exact discrete-support population oracle and verification harness.

Worlds are finite lists of weighted atoms (x0, prob, reward), so every
population quantity -- posterior weights at a noised point, conditional
velocities of the full/positive/negative components, the posterior positive
mass alpha, marginal positive moments -- is an exact finite sum. The
``verify_*`` operations check the closed-form optima, locality identities,
corrective-target moments, update-direction formulas and gradient-variance
decompositions against independent numeric computations (coordinate-wise
quadratic minimization by 3-point parabola fits, and seeded Monte Carlo with
3-sigma confidence intervals).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import backend
from .errors import (
    ConstructionViolated,
    DegenerateWorld,
    InsufficientSamples,
    SingularSystem,
    TOutOfRange,
)
from .flow import T_MIN, model_jacobian


def _logsumexp(a):
    m = np.max(a)
    if not np.isfinite(m):
        return m
    return m + math.log(np.sum(np.exp(a - m)))


def _softmax(a):
    m = np.max(a)
    e = np.exp(a - m)
    return e / e.sum()


_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _kahan_sum(values):
    """The compensated sum numpy's ``Generator.choice`` checks ``p`` with, term for term."""
    total, carry = values[0], 0.0
    for value in values[1:]:
        term = value - carry
        grown = total + term
        carry = (grown - total) - term
        total = grown
    return total


# Elements per block of a Monte Carlo pass: a block's uniforms, or its rows of
# group draws, stay small while only the full-size result is kept.
_BLOCK = 1 << 15


def draw_categorical(rng, p, size):
    """``rng.choice(len(p), size=size, p=p)`` for 1-D float64 weights ``p``: the same
    checks on ``p``, the same uniforms and the same int64 indices.

    numpy draws ``rng.random(size)`` and looks each uniform up in
    ``cdf = p.cumsum() / cdf[-1]`` with ``searchsorted(side='right')``. For a
    non-decreasing cdf that index is the number of entries ``<= u``, and the last
    entry (1.0) never is, so counting ``u`` against ``cdf[:-1]`` gives it; for the
    few atoms of an oracle world a comparison pass per entry is several times
    faster than the binary search.

    The uniforms are drawn and counted ``_BLOCK`` at a time, in C order, and each
    block's counts are written into the int64 output: ``Generator.random`` fills
    element by element, so the blocks read the same stream as one ``random(size)``
    call, and only the indices are kept at full size.
    """
    p_sum = _kahan_sum(p.tolist())
    if math.isnan(p_sum):
        raise ValueError("Probabilities contain NaN")
    if np.any(p < 0):
        raise ValueError("Probabilities are not non-negative")
    if abs(p_sum - 1.0) > _SUM_ATOL:
        raise ValueError("Probabilities do not sum to 1. See Notes section of docstring "
                         "for more information.")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    out = np.empty(size, np.int64)
    flat = out.reshape(-1)
    count = np.empty(min(_BLOCK, flat.size), np.min_scalar_type(p.size - 1))
    for start in range(0, flat.size, _BLOCK):
        u = rng.random(min(_BLOCK, flat.size - start))
        block = count[:u.size]
        block.fill(0)
        for edge in cdf[:-1]:
            block += u >= edge
        flat[start:start + u.size] = block
    return out


# --------------------------------------------------------------------------
# Worlds and population quantities
# --------------------------------------------------------------------------

@dataclass
class DiscreteWorld:
    """Finite-support rollout distribution with binary rewards per atom."""

    x0s: np.ndarray  # (A, D)
    probs: np.ndarray  # (A,), positive, sums to 1
    rewards: np.ndarray  # (A,) in {0, 1}

    def __post_init__(self):
        self.x0s = np.asarray(self.x0s, dtype=np.float64)
        self.probs = np.asarray(self.probs, dtype=np.float64)
        rewards = np.asarray(self.rewards)
        if not np.all((rewards == 0) | (rewards == 1)):
            raise DegenerateWorld("atom rewards must be 0 or 1")
        self.rewards = rewards.astype(int)
        if self.x0s.ndim != 2:
            raise DegenerateWorld("atom positions must be (A, D)")
        if not (np.all(np.isfinite(self.x0s)) and np.all(np.isfinite(self.probs))):
            raise DegenerateWorld("atom positions and probabilities must be finite")
        if np.any(self.probs <= 0) or abs(self.probs.sum() - 1.0) > 1e-9:
            raise DegenerateWorld("atom probabilities must be positive and sum to 1")
        if self.probs.shape[0] != self.x0s.shape[0] or self.rewards.shape[0] != self.x0s.shape[0]:
            raise DegenerateWorld("atom arrays disagree on length")
        self.log_probs = np.log(self.probs)

    @property
    def dim(self):
        return self.x0s.shape[1]

    @property
    def positives(self):
        return np.nonzero(self.rewards == 1)[0]

    @property
    def negatives(self):
        return np.nonzero(self.rewards == 0)[0]

    @property
    def p(self):
        return float(self.probs[self.positives].sum())

    @property
    def two_sided(self):
        return self.positives.size > 0 and self.negatives.size > 0

    @property
    def positive_weights(self):
        pos = self.positives
        return self.probs[pos] / self.probs[pos].sum()

    def positive_mean(self):
        return self.positive_weights @ self.x0s[self.positives]

    def positive_cov(self):
        return _weighted_cov(self.x0s[self.positives], self.positive_weights)


def _weighted_cov(points, w):
    """Covariance of the rows of ``points`` under the normalised weights ``w``."""
    centered = points - w @ points
    return (centered * w[:, None]).T @ centered


@dataclass
class PopulationPoint:
    """Exact conditional quantities of a world at one noised point."""

    xt: np.ndarray
    t: float
    logw: np.ndarray  # (A,) posterior log-weights, unnormalised
    w: np.ndarray  # (A,) posterior weights
    alpha: float
    v_old: np.ndarray
    v_plus: np.ndarray  # None for a world without positives
    v_minus: np.ndarray  # None for a world without negatives
    delta: np.ndarray  # v_plus - v_old
    bar_v_plus: np.ndarray  # marginal-prototype velocity (xt - E+[x0]) / t
    bar_delta: np.ndarray  # bar_v_plus - v_old

    def nft_optimum(self, beta):
        """The branch objective's pointwise minimiser v_old + (2 alpha / beta) delta."""
        return self.v_old + (2.0 * self.alpha / beta) * self.delta


def population_point(world: DiscreteWorld, xt, t) -> PopulationPoint:
    """Enumerate posterior weights at (xt, t) and assemble all velocities."""
    xt = np.asarray(xt, dtype=np.float64)
    t = float(t)
    logw = backend.gauss_logweights_batch(world.x0s, world.log_probs, xt[None, :], t)[0]
    w = _softmax(logw)
    pos, neg = world.positives, world.negatives

    mean_old = w @ world.x0s
    v_old = (xt - mean_old) / t

    if pos.size:
        alpha = math.exp(_logsumexp(logw[pos]) - _logsumexp(logw))
        mean_pos = _softmax(logw[pos]) @ world.x0s[pos]
        v_plus = (xt - mean_pos) / t
        delta = v_plus - v_old
        bar_v_plus = (xt - world.positive_mean()) / t
        bar_delta = bar_v_plus - v_old
    else:
        alpha, v_plus, delta, bar_v_plus, bar_delta = 0.0, None, None, None, None

    if neg.size:
        mean_neg = _softmax(logw[neg]) @ world.x0s[neg]
        v_minus = (xt - mean_neg) / t
    else:
        v_minus = None

    return PopulationPoint(xt, t, logw, w, alpha, v_old, v_plus, v_minus, delta, bar_v_plus,
                           bar_delta)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def to_dict(self):
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "detail": self.detail,
        }


@dataclass
class VerifyReport:
    suite: str
    seed: int
    checks: list = field(default_factory=list)

    def add(self, name, passed, value, tolerance, detail=""):
        self.checks.append(CheckResult(name, bool(passed), float(value), float(tolerance), detail))

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def to_dict(self):
        return {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }


# --------------------------------------------------------------------------
# Pointwise objectives and the independent numeric minimizer
# --------------------------------------------------------------------------

def population_nft_objective(world, point: PopulationPoint, beta, mask_bits=None):
    """Exact conditional branch objective at one noised point, as a function of v.

    Everything fixed by (world, xt, t) -- the posterior, the per-atom velocity
    targets and the behavior velocity -- is built once here. The returned
    objective takes a (K, d) stack of velocities and returns their K values in
    one pass of the residual arithmetic; each row sums its atoms' residuals over
    the last axis and weights them by the posterior with ``np.vecdot``, so it
    keeps the bits of the one-vector ``w @ per_atom``.
    """
    w = point.w
    targets = (point.xt[None, :] - world.x0s) / point.t  # per-atom velocity targets
    keep = (1.0 - beta) * point.v_old
    push = (1.0 + beta) * point.v_old
    m = None if mask_bits is None else np.asarray(mask_bits, dtype=np.float64)
    r = world.rewards.astype(np.float64)
    not_r = 1.0 - r

    def objective(vs):
        res_p = (keep + beta * vs)[:, None, :] - targets
        res_m = (push - beta * vs)[:, None, :] - targets
        if m is not None:
            res_p *= m
            res_m *= m
        per_atom = r * (res_p * res_p).sum(axis=-1) + not_r * (res_m * res_m).sum(axis=-1)
        return np.vecdot(per_atom, w)

    return objective


def parabola_argmin(f, base, coords):
    """Coordinate-wise exact minimizer of a separable quadratic via 3-point fits.

    ``f`` takes a (K, d) stack of points and returns their K values. It is
    called once, on ``1 + 2 * len(coords)`` probes: ``base``, then ``base`` with
    +1 and with -1 added to each coordinate in turn.
    """
    base = np.asarray(base, dtype=np.float64)
    coords = np.asarray(coords, dtype=np.intp).reshape(-1)
    plus = 1 + 2 * np.arange(coords.size)  # the +1 probe of each coordinate; -1 follows it
    probes = np.tile(base, (1 + 2 * coords.size, 1))
    probes[plus, coords] = base[coords] + 1.0
    probes[plus + 1, coords] = base[coords] - 1.0
    values = f(probes)
    f0, fp, fm = values[0], values[1::2], values[2::2]
    curv = 0.5 * (fp + fm - 2.0 * f0)
    slope = 0.5 * (fp - fm)
    flat = np.nonzero(curv <= 0)[0]
    if flat.size:
        raise SingularSystem(f"coordinate {coords[flat[0]]} has no positive curvature")
    out = base.copy()
    out[coords] = base[coords] - slope / (2.0 * curv)
    return out


# --------------------------------------------------------------------------
# Closed-form optimum checks
# --------------------------------------------------------------------------

def _optimum_deviations(world, grid, beta, mask_bits=None, rng=None):
    """The worst |closed form - numeric minimiser| of the branch objective over
    ``grid``, on the coordinates of ``mask_bits`` (all of them without a mask), and,
    with a mask, the worst change of the masked objective under ten off-mask
    perturbations of v_old drawn from ``rng`` at each point."""
    if not world.two_sided:
        raise DegenerateWorld("optimum check needs positives and negatives")
    bits = np.ones(world.dim, bool) if mask_bits is None else np.asarray(mask_bits, dtype=bool)
    on = np.nonzero(bits)[0]
    off = np.nonzero(~bits)[0]
    worst_on = 0.0
    worst_flat = 0.0
    for xt, t in grid:
        pp = population_point(world, xt, t)
        objective = population_nft_objective(world, pp, beta, mask_bits)
        if on.size:
            numeric = parabola_argmin(objective, pp.v_old, on)
            worst_on = max(worst_on, float(np.max(np.abs(pp.nft_optimum(beta)[on] - numeric[on]))))
        if mask_bits is not None:
            # base, then base + p and base - p for ten off-mask perturbations p
            pert = np.zeros((10, world.dim))
            pert[:, off] = rng.standard_normal((10, off.size))
            probes = np.tile(pp.v_old, (21, 1))
            probes[1::2] += pert
            probes[2::2] -= pert
            values = objective(probes)
            worst_flat = max(worst_flat, *np.abs(values[1:] - values[0]).tolist())
    return worst_on, worst_flat


def verify_nft_optimum(world, grid, beta) -> VerifyReport:
    """Numeric pointwise minimization of the branch objective vs the closed form."""
    report = VerifyReport("nft", -1)
    worst, _ = _optimum_deviations(world, grid, beta)
    report.add("nft_optimum_max_deviation", worst < 1e-8, worst, 1e-8)
    return report


def verify_masked_optimum(world, grid, beta, mask_bits, rng) -> VerifyReport:
    """On-mask match to the closed form plus off-mask flatness of the objective."""
    report = VerifyReport("masked", -1)
    worst_on, worst_flat = _optimum_deviations(world, grid, beta, mask_bits, rng)
    report.add("masked_on_mask_deviation", worst_on < 1e-8, worst_on, 1e-8)
    report.add("masked_off_mask_flatness", worst_flat < 1e-12, worst_flat, 1e-12)
    return report


# --------------------------------------------------------------------------
# Reward locality
# --------------------------------------------------------------------------

def make_factored_world(on_x0s, on_probs, on_rewards, off_x0s, off_probs) -> tuple:
    """Product world whose off-mask coordinates are reward-independent.

    Returns (world, mask_bits) with atoms formed by the cross product of an
    on-mask component (carrying the rewards) and a shared off-mask component.
    """
    on_x0s = np.asarray(on_x0s, dtype=np.float64)
    off_x0s = np.asarray(off_x0s, dtype=np.float64)
    on_probs = np.asarray(on_probs, dtype=np.float64)
    off_probs = np.asarray(off_probs, dtype=np.float64)
    atoms, probs, rewards = [], [], []
    for i in range(on_x0s.shape[0]):
        for j in range(off_x0s.shape[0]):
            atoms.append(np.concatenate([on_x0s[i], off_x0s[j]]))
            probs.append(on_probs[i] * off_probs[j])
            rewards.append(on_rewards[i])
    world = DiscreteWorld(np.array(atoms), np.array(probs), np.array(rewards))
    mask_bits = np.concatenate(
        [np.ones(on_x0s.shape[1], bool), np.zeros(off_x0s.shape[1], bool)]
    )
    return world, mask_bits


def check_factored(world, mask_bits):
    """Self-test: the off-mask marginal must agree between reward classes."""
    mask_bits = np.asarray(mask_bits, dtype=bool)
    off = world.x0s[:, ~mask_bits]
    buckets = {}
    for i in range(off.shape[0]):
        key = tuple(np.round(off[i], 12))
        pos_m, neg_m = buckets.get(key, (0.0, 0.0))
        if world.rewards[i] == 1:
            pos_m += world.probs[i]
        else:
            neg_m += world.probs[i]
        buckets[key] = (pos_m, neg_m)
    p = world.p
    for key, (pos_m, neg_m) in buckets.items():
        if abs(pos_m / p - neg_m / (1.0 - p)) > 1e-12:
            raise ConstructionViolated(
                f"off-mask value {key} has class-dependent mass"
            )


def verify_reward_locality(
    world, mask_bits, points, rng, mc_samples=100_000, check_construction=True
) -> VerifyReport:
    """Off-mask velocity equality plus the branch second-moment identities."""
    report = VerifyReport("locality", -1)
    if not world.two_sided:
        raise DegenerateWorld("locality check needs positives and negatives")
    if mc_samples < 2:
        raise InsufficientSamples(
            f"mc_samples={mc_samples}: a sample variance needs at least 2 draws")
    if check_construction:
        check_factored(world, mask_bits)
    mask_bits = np.asarray(mask_bits, dtype=bool)
    off = ~mask_bits

    worst_gap = 0.0
    for xt, t in points:
        pp = population_point(world, xt, t)
        worst_gap = max(
            worst_gap,
            float(np.max(np.abs((pp.v_plus - pp.v_old)[off]), initial=0.0)),
            float(np.max(np.abs((pp.v_minus - pp.v_old)[off]), initial=0.0)),
        )
    report.add("locality_off_mask_velocity_gap", worst_gap < 1e-10, worst_gap, 1e-10)

    # second moments of the branch residuals probed at v_theta = v_old,
    # at a point where the posterior stays spread across both classes
    t = 0.6
    xt = (1.0 - t) * (world.probs @ world.x0s)
    pp = population_point(world, xt, t)
    targets = (xt[None, :] - world.x0s) / t  # per-atom velocity targets
    off_sq = np.sum((targets[:, off] - pp.v_old[off]) ** 2, axis=1)
    for branch, sel, alpha_mass in (
        ("pos", world.positives, pp.alpha),
        ("neg", world.negatives, 1.0 - pp.alpha),
    ):
        wsel = _softmax(pp.logw[sel])
        mean_v = wsel @ targets[sel]
        centered = (targets[sel] - mean_v)[:, off]
        exact = alpha_mass * float(np.sum(wsel * np.sum(centered * centered, axis=1)))

        # each posterior draw contributes its atom's summand
        in_branch = (world.rewards == (1 if branch == "pos" else 0)).astype(np.float64)
        summand = (in_branch * off_sq)[draw_categorical(rng, pp.w, mc_samples)]
        mc = float(summand.mean())
        se = float(summand.std(ddof=1) / math.sqrt(mc_samples))
        del summand
        dev = abs(mc - exact)
        tol = 3.0 * se + 1e-20
        report.add(
            f"locality_second_moment_{branch}",
            dev <= tol,
            dev,
            tol,
            f"mc={mc:.6g} exact={exact:.6g}",
        )
    return report


# --------------------------------------------------------------------------
# Corrective target
# --------------------------------------------------------------------------

def _positive_group_means(atoms, k):
    """``(rows, counts)``: the group means of the (n, m) positive draws ``k``, as rows
    each taken ``counts[i]`` times.

    When there are no more combinations (``P**m``) than draws, the rows are
    the means of every combination and the counts how many draws made each;
    otherwise the rows are the draws' own means, each counted once, taken
    ``atoms[k].mean(axis=1)`` a block of about ``_BLOCK`` draws at a time (each
    row's reduction is the same at any block size).
    """
    n, m = k.shape
    shape = (atoms.shape[0],) * m
    if atoms.shape[0] ** m > n:
        rows = np.empty((n, atoms.shape[1]))
        step = max(1, _BLOCK // m)
        for start in range(0, n, step):
            rows[start:start + step] = atoms[k[start:start + step]].mean(axis=1)
        return rows, np.ones(n)
    combos = np.indices(shape).reshape(m, -1).T
    counts = np.bincount(np.ravel_multi_index(k.T, shape), minlength=combos.shape[0])
    return atoms[combos].mean(axis=1), counts


def _count_sum(counts, rows):
    """``counts @ rows`` in einsum's own loop: a BLAS dot product splits a long sum
    among its threads, so its bits would depend on the BLAS thread count."""
    return np.einsum("i,i...->...", counts, rows)


def _weighted_moments(rows, counts, n):
    """Sample mean and ddof=1 variance, per column, of ``n`` samples that take row
    ``rows[i]`` ``counts[i]`` times."""
    mean = _count_sum(counts, rows) / n
    dev = rows - mean
    dev *= dev
    return mean, _count_sum(counts, dev) / (n - 1)


def verify_corrective_target(world, xt, t, group_sizes, mc_samples, rng) -> VerifyReport:
    """Monte Carlo moments of the corrective velocity target vs enumeration.

    When the positive atoms all coincide (a world with one positive atom) the
    positive covariance is zero and the target is deterministic: the mean is
    then checked sample by sample at float tolerance, and the shrinkage ratio,
    a ratio of two roundoff traces, is reported as not applicable.

    Each draw picks one of at most ``P**m`` combinations of the ``P`` positive
    atoms, so the sample moments are count-weighted moments over those
    combinations' targets.

    Raises ``TOutOfRange`` for a t outside [T_MIN, 1], and
    ``InsufficientSamples`` for ``mc_samples < 2`` or a group size below 1,
    before any draw.
    """
    report = VerifyReport("corrective", -1)
    pos = world.positives
    if pos.size == 0:
        raise DegenerateWorld("corrective target needs positive atoms")
    t = float(t)
    if not T_MIN <= t <= 1.0:
        raise TOutOfRange(f"corrective t={t:g} outside [{T_MIN}, 1]")
    if mc_samples < 2:
        raise InsufficientSamples(
            f"mc_samples={mc_samples}: a sample variance needs at least 2 draws")
    if any(m < 1 for m in group_sizes):
        raise InsufficientSamples(
            f"group_sizes={tuple(group_sizes)}: a corrective group needs at least 1 positive")
    xt = np.asarray(xt, dtype=np.float64)
    bar_v = (xt - world.positive_mean()) / t
    cov_trace = float(np.trace(world.positive_cov()))
    deterministic = bool(np.all(world.x0s[pos] == world.x0s[pos[0]]))

    atoms = world.x0s[pos]
    traces = {}
    for m in group_sizes:
        k = draw_categorical(rng, world.positive_weights, (mc_samples, m))
        means, counts = _positive_group_means(atoms, k)
        del k  # each sample array dies once its statistic is taken
        z = (xt - means) / t
        del means
        if deterministic:
            dev = float(np.max(np.abs(z[counts > 0] - bar_v)))
            tol = 1e-12 * max(1.0, float(np.max(np.abs(bar_v))))
            report.add(f"corrective_mean_unbiased_m{m}", dev <= tol, dev, tol,
                       "zero positive covariance: max |z - bar_v| over all samples")
            continue
        mean_z, var_z = _weighted_moments(z, counts, mc_samples)
        del z, counts
        se = np.sqrt(var_z) / math.sqrt(mc_samples)
        dev = np.abs(mean_z - bar_v)
        ok = bool(np.all(dev <= 3.0 * se + 1e-15))
        report.add(
            f"corrective_mean_unbiased_m{m}",
            ok,
            float(np.max(dev)),
            float(np.max(3.0 * se)),
        )
        mc_trace = float(np.sum(var_z))
        exact_trace = cov_trace / (m * t * t)
        traces[m] = mc_trace
        if exact_trace > 0:
            rel = abs(mc_trace - exact_trace) / exact_trace
            report.add(
                f"corrective_trace_cov_m{m}", rel < 0.05, rel, 0.05,
                f"mc={mc_trace:.6g} exact={exact_trace:.6g}",
            )

    if len(group_sizes) >= 2 and deterministic:
        report.add("corrective_shrinkage_ratio", True, float("nan"), 0.05,
                   "not applicable: zero positive covariance, both traces are roundoff")
    elif len(group_sizes) >= 2 and traces[group_sizes[0]] > 0:
        m0, m1 = group_sizes[0], group_sizes[1]
        ratio = traces[m0] / traces[m1]
        expected = m1 / m0
        rel = abs(ratio - expected) / expected
        report.add("corrective_shrinkage_ratio", rel < 0.05, rel, 0.05,
                   f"ratio={ratio:.4g} expected={expected}")

    # boundary: at t=1 the conditional and marginal positive means coincide
    pp1 = population_point(world, xt, 1.0)
    boundary = float(np.max(np.abs(pp1.bar_v_plus - pp1.v_plus)))
    report.add("corrective_t1_boundary", boundary < 1e-10, boundary, 1e-10)
    return report


# --------------------------------------------------------------------------
# Update direction
# --------------------------------------------------------------------------

@dataclass
class QuadraticProbe:
    """Local quadratic weights for the combined update around one point."""

    a: float
    b: float
    gamma: float
    mask_bits: np.ndarray
    v_ref: np.ndarray = None  # None: use the population behavior velocity

    def __post_init__(self):
        self.mask_bits = np.asarray(self.mask_bits, dtype=bool)
        if self.a < 0 or self.b < 0 or self.gamma < 0:
            raise ValueError("probe weights must be nonnegative")
        if self.a + self.b + self.gamma <= 0:
            raise ValueError("probe weights must not all vanish")


def probe_objective(probe, mu_nft, mu_cr, v_ref, vs):
    """The probe's local quadratic at each row of a (K, d) stack of velocities.

    Each row's squared distances are summed over the last axis, so a row keeps
    the bits of the same quadratic taken on that one vector.
    """
    m = probe.mask_bits.astype(np.float64)
    q = probe.a * np.sum((m * (vs - mu_nft)) ** 2, axis=-1)
    q += probe.b * np.sum((m * (vs - mu_cr)) ** 2, axis=-1)
    q += probe.gamma * np.sum((vs - v_ref) ** 2, axis=-1)
    return q


def verify_direction(world, probe: QuadraticProbe, grid, beta) -> VerifyReport:
    """Closed-form combined-update minimizer vs numeric quadratic solve."""
    report = VerifyReport("direction", -1)
    if not world.two_sided:
        raise DegenerateWorld("direction check needs positives and negatives")
    on = np.nonzero(probe.mask_bits)[0]
    off = np.nonzero(~probe.mask_bits)[0]
    if probe.gamma == 0 and probe.a + probe.b == 0 and on.size:
        raise SingularSystem("active coordinates with zero total curvature")

    worst = 0.0
    worst_align = 0.0
    label = f"a{probe.a:g}_b{probe.b:g}_g{probe.gamma:g}"
    for xt, t in grid:
        pp = population_point(world, xt, t)
        mu_nft = pp.nft_optimum(beta)
        mu_cr = pp.bar_v_plus
        v_ref = pp.v_old if probe.v_ref is None else probe.v_ref

        denom_on = probe.a + probe.b + probe.gamma
        closed = np.empty(world.dim)
        closed[on] = (
            probe.a * mu_nft[on] + probe.b * mu_cr[on] + probe.gamma * v_ref[on]
        ) / denom_on
        closed[off] = v_ref[off]
        solvable = list(on)
        if probe.gamma > 0:  # else the off-mask coordinates are flat: report only on-mask
            solvable += list(off)

        numeric = parabola_argmin(
            lambda vs: probe_objective(probe, mu_nft, mu_cr, v_ref, vs),
            pp.v_old,
            solvable,
        )
        worst = max(worst, float(np.max(np.abs(closed[solvable] - numeric[solvable]), initial=0.0)))

        if probe.v_ref is None and on.size:
            d_nft = (2.0 * pp.alpha * probe.a / beta) / denom_on
            d_cr = probe.b / denom_on
            decomposed = pp.v_old[on] + d_nft * pp.delta[on] + d_cr * pp.bar_delta[on]
            worst_align = max(worst_align, float(np.max(np.abs(closed[on] - decomposed))))

    report.add(f"direction_optimum_{label}", worst < 1e-10, worst, 1e-10)
    if probe.v_ref is None and on.size:
        report.add(f"direction_alignment_{label}", worst_align < 1e-10, worst_align, 1e-10)
    return report


# --------------------------------------------------------------------------
# Gradient variance
# --------------------------------------------------------------------------

@dataclass
class VarianceReport:
    records: list  # per-t dicts
    slope: float
    floor_value: float
    floor_bound: float
    t_star_formula: float
    t_star_empirical: float
    shrink_ratio: float


def _trace_cov(jac_gram, residuals, counts, n):
    """Sample trace covariance of J^T r, and its standard error, over ``n`` samples
    that take row ``residuals[i]`` ``counts[i]`` times (centred in place, a column
    at a time).

    The trace is the mean of the centred quadratic forms r^T (J J^T) r, scaled
    to ddof=1. The forms are taken over about ``_BLOCK`` elements of rows at a
    time, never fewer, so the product with J J^T is never full-size; each row's
    form has the bits it has in one pass over all rows.
    """
    for column, mean in zip(residuals.T, _count_sum(counts, residuals) / n):
        column -= mean
    quad = np.empty(residuals.shape[0])
    parts = max(1, residuals.size // _BLOCK)
    for rows, out in zip(np.array_split(residuals, parts), np.array_split(quad, parts)):
        np.einsum("ij,ij->i", rows @ jac_gram, rows, out=out)
    mean, var = _weighted_moments(quad, counts, n)
    return float(mean * n / (n - 1)), math.sqrt(var / n)


def _corrective_trace_cov(world, rng, n, m, jac_gram, xt, t, v_theta):
    """``_trace_cov`` of ``n`` corrective residuals ``v_theta - (xt - group mean) / t``
    over groups of ``m`` positives drawn by mass."""
    k = draw_categorical(rng, world.positive_weights, (n, m))
    means, counts = _positive_group_means(world.x0s[world.positives], k)
    del k
    return _trace_cov(jac_gram, v_theta - (xt - means) / t, counts, n)


def _reflection_trace_cov(world, rng, n, jac_gram, pp, v_theta, sigma_xi, beta):
    """``_trace_cov`` of ``n`` reflection residuals at ``pp``: a posterior draw plus
    injected plug-in noise xi,
    ``v_theta - (((beta+1)/beta) (v_old + xi) - v_atom / beta)``.

    The residuals are built a column at a time, each pass with one scalar, so the
    (n, d) noise draw is the only sample array of that size.
    """
    scaled_targets = (pp.xt[None, :] - world.x0s) / pp.t / beta  # v_atom / beta per atom
    idx = draw_categorical(rng, pp.w, n)
    res = rng.standard_normal((n, world.dim))
    for j, column in enumerate(res.T):
        column *= sigma_xi
        column += pp.v_old[j]
        column *= (beta + 1.0) / beta
        column -= scaled_targets[idx, j]
        np.subtract(v_theta[j], column, out=column)
    del idx
    return _trace_cov(jac_gram, res, np.ones(n), n)


def verify_variance(
    world,
    model,
    t_grid,
    sigma_xi,
    group_size,
    mc_samples,
    rng,
    beta=1.0,
    lambda_cr=1.0,
):
    """Monte Carlo branch-gradient covariances vs the exact decompositions.

    Checks, at the point 0.9 x the positive mean: the corrective branch's
    log-log slope over t <= 0.3, the reflection branch's plug-in noise floor
    at small t, the crossing point against the threshold formula, and the
    within-group shrinkage of the corrective covariance. Returns
    (VerifyReport, VarianceReport).

    Raises ``TOutOfRange`` for a t outside [T_MIN, 1], and
    ``InsufficientSamples`` when fewer than two distinct t are at most 0.3 (the
    slope's fit), ``mc_samples < 2`` or ``group_size < 1``, before any draw.
    """
    report = VerifyReport("variance", -1)
    if not world.two_sided:
        raise DegenerateWorld("variance check needs positives and negatives")
    t_grid = np.sort(np.asarray(t_grid, dtype=np.float64).reshape(-1))
    outside = t_grid[~((T_MIN <= t_grid) & (t_grid <= 1.0))]
    if outside.size:
        raise TOutOfRange(f"variance t_grid value t={outside[0]:g} outside [{T_MIN}, 1]")
    sel = t_grid <= 0.3
    n_slope = np.unique(t_grid[sel]).size
    if n_slope < 2:
        raise InsufficientSamples(
            f"the corrective slope fit needs at least two distinct t <= 0.3, got {n_slope}")
    if mc_samples < 2:
        raise InsufficientSamples(
            f"mc_samples={mc_samples}: a sample covariance needs at least 2 draws")
    if group_size < 1:
        raise InsufficientSamples(
            f"group_size={group_size}: a corrective group needs at least 1 positive")
    xt = world.positive_mean() * 0.9
    pos_cov = world.positive_cov()

    records = []
    for t in t_grid:
        pp = population_point(world, xt, t)
        jac = model_jacobian(model, xt, t)
        gram = jac @ jac.T
        v_theta = model.velocity_batch(xt, t)

        sig_xi = sigma_xi**2 * float(np.sum(np.diag(gram)))
        sig0 = float(np.sum(pos_cov * gram))
        cov_x0 = _weighted_cov(world.x0s, pp.w) / (t * t)
        exact_nft = 4.0 * beta**2 * float(np.sum(cov_x0 * gram)) + 4.0 * beta**2 * (beta + 1.0) ** 2 * sig_xi
        exact_cr = 4.0 * lambda_cr**2 * t * t * sig0 / group_size

        # reflection-branch samples: posterior draw + injected plug-in noise
        trace_nft, se_nft = _reflection_trace_cov(world, rng, mc_samples, gram, pp, v_theta,
                                                  sigma_xi, beta)
        trace_nft *= 4.0 * beta**4
        se_nft *= 4.0 * beta**4

        # corrective-branch samples: within-group positive means
        trace_cr, se_cr = _corrective_trace_cov(world, rng, mc_samples, group_size, gram, xt, t,
                                                v_theta)
        trace_cr *= 4.0 * lambda_cr**2 * t**4
        se_cr *= 4.0 * lambda_cr**2 * t**4

        # the loosest decision margin below is 20%; wider CIs cannot resolve it
        for trace, se, name in ((trace_nft, se_nft, "nft"), (trace_cr, se_cr, "cr")):
            if trace > 0 and se / trace > 0.25:
                raise InsufficientSamples(
                    f"{name} trace-covariance CI too wide at t={t:g}: "
                    f"relative se {se / trace:.3f}"
                )

        records.append(
            {
                "t": float(t),
                "mc_nft": trace_nft,
                "mc_cr": trace_cr,
                "exact_nft": exact_nft,
                "exact_cr": exact_cr,
                "sigma_xi_term": sig_xi,
                "sigma0_term": sig0,
            }
        )

    mc_nft_curve = np.array([r["mc_nft"] for r in records])
    mc_cr_curve = np.array([r["mc_cr"] for r in records])

    slope = float(
        np.polyfit(np.log(t_grid[sel]), np.log(mc_cr_curve[sel]), 1)[0]
    )
    report.add("variance_cr_slope", 1.8 <= slope <= 2.2, slope, 2.0, "target slope 2 +- 0.2")

    floor_bound = 0.8 * 4.0 * beta**2 * (beta + 1.0) ** 2 * records[0]["sigma_xi_term"]
    floor_value = float(mc_nft_curve[0])
    report.add(
        "variance_nft_floor",
        floor_value >= floor_bound,
        floor_value,
        floor_bound,
        "reflection-branch covariance floor at smallest t",
    )

    diff = mc_cr_curve - mc_nft_curve
    t_emp = float("nan")
    for k in range(len(t_grid) - 1):
        if diff[k] < 0 <= diff[k + 1] or diff[k] <= 0 < diff[k + 1]:
            lt0, lt1 = math.log(t_grid[k]), math.log(t_grid[k + 1])
            frac = -diff[k] / (diff[k + 1] - diff[k])
            t_emp = math.exp(lt0 + frac * (lt1 - lt0))
            k_near = k
            break
    if math.isnan(t_emp):
        report.add("variance_crossing", False, float("nan"), 1.5, "curves never cross on the grid")
        t_formula = float("nan")
    else:
        t_formula = (
            beta
            * (beta + 1.0)
            / lambda_cr
            * math.sqrt(group_size * records[k_near]["sigma_xi_term"]
                        / records[k_near]["sigma0_term"])
        )
        ratio = t_emp / t_formula
        report.add(
            "variance_crossing",
            1.0 / 1.5 <= ratio <= 1.5,
            ratio,
            1.5,
            f"empirical t*={t_emp:.4g}, formula t*={t_formula:.4g}",
        )

    # doubling the positive count halves the corrective covariance
    t_mid = float(t_grid[len(t_grid) // 2])
    jac = model_jacobian(model, xt, t_mid)
    gram_mid = jac @ jac.T
    v_theta = model.velocity_batch(xt, t_mid)
    traces_by_m = {}
    for m in (group_size, 2 * group_size):
        trace, _ = _corrective_trace_cov(world, rng, mc_samples, m, gram_mid, xt, t_mid, v_theta)
        traces_by_m[m] = trace * 4.0 * lambda_cr**2 * t_mid**4
    shrink = traces_by_m[group_size] / traces_by_m[2 * group_size]
    report.add(
        "variance_group_shrinkage",
        abs(shrink - 2.0) / 2.0 < 0.05,
        shrink,
        2.0,
        "covariance ratio when doubling the positive count",
    )

    var_report = VarianceReport(
        records=records,
        slope=slope,
        floor_value=floor_value,
        floor_bound=floor_bound,
        t_star_formula=t_formula,
        t_star_empirical=t_emp,
        shrink_ratio=float(shrink),
    )
    return report, var_report


# --------------------------------------------------------------------------
# Default worlds and suite drivers
# --------------------------------------------------------------------------

def random_world(rng, n_atoms, dim, spread=2.0, min_pos=1, min_neg=1) -> DiscreteWorld:
    """Two-sided random world with well-separated atoms."""
    if min_pos + min_neg > n_atoms:
        raise DegenerateWorld("class minimums exceed the atom count")
    x0s = spread * rng.standard_normal((n_atoms, dim))
    probs = rng.uniform(0.5, 1.5, n_atoms)
    probs /= probs.sum()
    rewards = rng.integers(0, 2, n_atoms)
    rewards[:min_pos] = 1
    rewards[min_pos : min_pos + min_neg] = 0
    return DiscreteWorld(x0s, probs, rewards)


def default_worlds(seed):
    rng = np.random.default_rng((seed, 0xD15C))
    return [
        random_world(rng, 3, 2),
        random_world(rng, 4, 3),
        random_world(rng, 8, 4),
    ]


def default_grid(world, rng, n_x=5, n_t=5):
    """(xt, t) probes around the atom hull, posterior kept well-conditioned."""
    t_values = np.linspace(0.1, 0.9, n_t)
    grid = []
    for t in t_values:
        for _ in range(n_x):
            mix = rng.dirichlet(np.ones(world.x0s.shape[0]))
            center = mix @ world.x0s
            xt = (1.0 - t) * center + t * 0.5 * rng.standard_normal(world.dim)
            grid.append((xt, float(t)))
    return grid


def _joined(name, seed, reports) -> VerifyReport:
    """Suite ``name``'s report at ``seed``: the checks of ``reports``, in order."""
    return VerifyReport(name, seed, [check for report in reports for check in report.checks])


def suite_nft(seed) -> VerifyReport:
    rng = np.random.default_rng((seed, 1))
    worlds = default_worlds(seed)
    reports = [verify_nft_optimum(world, default_grid(world, rng), beta=1.0) for world in worlds]
    reports.append(verify_nft_optimum(worlds[0], default_grid(worlds[0], rng), beta=4.0))
    return _joined("nft", seed, reports)


def suite_masked(seed) -> VerifyReport:
    rng = np.random.default_rng((seed, 2))
    reports = []
    for world in default_worlds(seed):
        mask = np.zeros(world.dim, bool)
        mask[: max(1, world.dim // 2)] = True
        reports.append(verify_masked_optimum(world, default_grid(world, rng), 1.0, mask, rng))
    return _joined("masked", seed, reports)


def suite_locality(seed, mc_samples=100_000) -> VerifyReport:
    rng = np.random.default_rng((seed, 3))
    world, mask_bits = make_factored_world(
        on_x0s=rng.standard_normal((3, 2)) * 2.0,
        on_probs=np.array([0.3, 0.3, 0.4]),
        on_rewards=np.array([1, 0, 1]),
        off_x0s=rng.standard_normal((2, 2)) * 2.0,
        off_probs=np.array([0.6, 0.4]),
    )
    points = default_grid(world, rng, n_x=3, n_t=3)
    return _joined("locality", seed,
                   [verify_reward_locality(world, mask_bits, points, rng, mc_samples)])


def suite_corrective(seed, mc_samples=100_000) -> VerifyReport:
    rng = np.random.default_rng((seed, 4))
    world = random_world(rng, 6, 3)
    xt = world.positive_mean() * 0.8
    return _joined("corrective", seed,
                   [verify_corrective_target(world, xt, 0.5, (1, 4), mc_samples, rng)])


def suite_direction(seed) -> VerifyReport:
    rng = np.random.default_rng((seed, 5))
    world = random_world(rng, 4, 3)
    grid = default_grid(world, rng, n_x=3, n_t=3)
    mask = np.array([True, True, False])
    sweeps = [
        (1.0, 0.5, 0.2),
        (1.0, 0.0, 0.2),  # b = 0
        (1.0, 0.5, 0.0),  # gamma = 0 on-mask
        (0.0, 0.5, 0.3),  # a = 0
        (2.5, 1.5, 0.7),
    ]
    reports = [verify_direction(world, QuadraticProbe(a, b, g, mask), grid, beta=1.0)
               for a, b, g in sweeps]
    fixed_ref = rng.standard_normal(world.dim)
    reports.append(
        verify_direction(world, QuadraticProbe(1.0, 1.0, 0.5, mask, v_ref=fixed_ref), grid, 1.0))
    return _joined("direction", seed, reports)


def suite_variance(seed, mc_samples=100_000) -> tuple:
    from .flow import LinearVelocity

    rng = np.random.default_rng((seed, 6))
    world = random_world(rng, 4, 3, spread=2.5, min_pos=2)
    model = LinearVelocity(world.dim, cond_dim=0, rng=rng, scale=0.3)
    t_grid = np.geomspace(0.01, 0.6, 10)
    # lambda_cr sized so the covariance crossing falls in the collapsed-posterior
    # regime, where the reflection branch sits on its plug-in floor
    report, var_report = verify_variance(
        world,
        model,
        t_grid,
        sigma_xi=0.1,
        group_size=2,
        mc_samples=mc_samples,
        rng=rng,
        beta=1.0,
        lambda_cr=3.0,
    )
    return _joined("variance", seed, [report]), var_report


SUITES = {
    "nft": suite_nft,
    "masked": suite_masked,
    "locality": suite_locality,
    "corrective": suite_corrective,
    "direction": suite_direction,
    "variance": lambda seed: suite_variance(seed)[0],
}


def run_suite(name, seed) -> VerifyReport:
    if name == "all":
        return _joined("all", seed, [suite(seed) for suite in SUITES.values()])
    return SUITES[name](seed)
