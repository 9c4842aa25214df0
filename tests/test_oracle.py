import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creflow
from creflow import backend, oracle
from creflow.errors import (
    ConstructionViolated,
    DegenerateWorld,
    InsufficientSamples,
    SingularSystem,
    TOutOfRange,
)
from creflow.flow import LinearVelocity
from creflow.oracle import (
    _BLOCK,
    DiscreteWorld,
    _corrective_trace_cov,
    _softmax,
    _trace_cov,
    QuadraticProbe,
    check_factored,
    default_grid,
    draw_categorical,
    make_factored_world,
    parabola_argmin,
    population_nft_objective,
    population_point,
    probe_objective,
    random_world,
    run_suite,
    suite_corrective,
    suite_direction,
    suite_locality,
    suite_masked,
    suite_nft,
    suite_variance,
    verify_corrective_target,
    verify_direction,
    verify_masked_optimum,
    verify_nft_optimum,
    verify_reward_locality,
    verify_variance,
)


class TestDiscreteWorld:
    def test_validation(self):
        with pytest.raises(DegenerateWorld):
            DiscreteWorld(np.zeros((2, 2)), np.array([0.6, 0.6]), np.array([1, 0]))
        with pytest.raises(DegenerateWorld):
            DiscreteWorld(np.zeros((2, 2)), np.array([1.0, -0.0]), np.array([1, 0]))

    @pytest.mark.parametrize("x0s,probs,rewards,message", [
        ([[0.0], [1.0], [2.0]], [math.nan, 0.5, 0.5], [1, 0, 1], "must be finite"),
        ([[0.0], [math.inf], [2.0]], [0.2, 0.3, 0.5], [1, 0, 1], "must be finite"),
        ([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5], [1, 2, 0], "must be 0 or 1"),
        ([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5], [1, 0.5, 0], "must be 0 or 1"),
    ], ids=["nan_probability", "infinite_position", "reward_two", "reward_half"])
    def test_rejects_non_finite_atoms_and_non_binary_rewards(self, x0s, probs, rewards, message):
        with pytest.raises(DegenerateWorld, match=message):
            DiscreteWorld(np.array(x0s), np.array(probs), np.array(rewards))

    def test_positive_moments(self):
        world = DiscreteWorld(
            np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 4.0]]),
            np.array([0.25, 0.25, 0.5]),
            np.array([1, 1, 0]),
        )
        assert world.p == 0.5
        assert np.allclose(world.positive_mean(), [1.0, 0.0])
        assert np.allclose(world.positive_cov(), [[1.0, 0.0], [0.0, 0.0]])


class TestPopulationPoint:
    def test_point_mass_velocity(self):
        atom = np.array([[1.0, -2.0]])
        world = DiscreteWorld(atom, np.array([1.0]), np.array([1]))
        for t in (0.2, 0.7, 1.0):
            xt = np.array([0.4, 0.9])
            pp = population_point(world, xt, t)
            assert np.allclose(pp.v_old, (xt - atom[0]) / t)
            assert pp.alpha == 1.0
            assert np.allclose(pp.v_plus, pp.v_old)

    def test_all_rewarded(self):
        rng = np.random.default_rng(0)
        world = DiscreteWorld(rng.standard_normal((3, 2)), np.full(3, 1 / 3), np.ones(3, int))
        pp = population_point(world, rng.standard_normal(2), 0.5)
        assert pp.alpha == 1.0
        assert np.allclose(pp.v_plus, pp.v_old)
        assert pp.v_minus is None
        with pytest.raises(DegenerateWorld):
            verify_nft_optimum(world, [(np.zeros(2), 0.5)], 1.0)

    def test_symmetric_two_atom_alpha_half(self):
        world = DiscreteWorld(
            np.array([[1.0, 0.0], [-1.0, 0.0]]),
            np.array([0.5, 0.5]),
            np.array([1, 0]),
        )
        for t in (0.2, 0.5, 0.9):
            xt = (1 - t) * np.array([0.0, 0.0])  # midpoint, scaled
            pp = population_point(world, xt, t)
            assert np.isclose(pp.alpha, 0.5)

    def test_mixture_and_delta_identities(self):
        rng = np.random.default_rng(1)
        world = random_world(rng, 6, 3)
        for _ in range(25):
            t = rng.uniform(0.1, 1.0)
            xt = rng.standard_normal(3)
            pp = population_point(world, xt, t)
            mix = pp.alpha * pp.v_plus + (1 - pp.alpha) * pp.v_minus
            assert np.max(np.abs(mix - pp.v_old)) < 1e-10
            delta_from_split = (1 - pp.alpha) * (pp.v_plus - pp.v_minus)
            assert np.max(np.abs(delta_from_split - pp.delta)) < 1e-10
            assert 0.0 <= pp.alpha <= 1.0

    def test_alpha_reverts_to_prior_at_t1(self):
        rng = np.random.default_rng(2)
        world = random_world(rng, 5, 2)
        pp = population_point(world, rng.standard_normal(2), 1.0)
        assert np.isclose(pp.alpha, world.p)
        assert np.max(np.abs(pp.bar_delta - pp.delta)) < 1e-12

    def test_small_t_far_point_stable(self):
        rng = np.random.default_rng(3)
        world = random_world(rng, 4, 2)
        pp = population_point(world, np.array([50.0, -40.0]), 0.01)
        assert np.all(np.isfinite(pp.v_old))
        assert 0.0 <= pp.alpha <= 1.0


class TestOptimumChecks:
    @pytest.mark.parametrize("rewards", [[0, 0, 0], [1, 1, 1]],
                             ids=["all_negative", "all_positive"])
    def test_one_sided_world_raises_before_any_draw(self, rewards):
        rng = np.random.default_rng(0)
        world = DiscreteWorld(rng.standard_normal((3, 2)), np.full(3, 1 / 3), np.array(rewards))
        grid = [(np.zeros(2), 0.5)]
        state = rng.bit_generator.state
        with pytest.raises(DegenerateWorld, match="optimum check needs positives and negatives"):
            verify_masked_optimum(world, grid, 1.0, [True, False], rng)
        assert rng.bit_generator.state == state
        with pytest.raises(DegenerateWorld, match="optimum check needs positives and negatives"):
            verify_nft_optimum(world, grid, 1.0)


class TestParabolaArgmin:
    def test_exact_on_quadratic(self):
        rng = np.random.default_rng(4)
        target = rng.standard_normal(4)
        weights = rng.uniform(0.5, 2.0, 4)

        def f(vs):
            return np.sum(weights * (vs - target) ** 2, axis=-1)

        out = parabola_argmin(f, np.zeros(4), range(4))
        assert np.allclose(out, target, atol=1e-12)

    def test_flat_coordinate_raises(self):
        with pytest.raises(SingularSystem, match="coordinate 1 has no positive curvature"):
            parabola_argmin(lambda vs: vs[:, 0] ** 2, np.zeros(2), [1])

    @pytest.mark.parametrize("coords", [[], [2], [0, 1, 3]])
    def test_calls_f_once_with_base_then_plus_minus_probes(self, coords):
        base = np.array([0.5, -1.0, 2.0, -0.0])
        calls = []

        def f(vs):
            calls.append(vs.copy())
            return np.sum((vs - 1.0) ** 2, axis=-1)

        parabola_argmin(f, base, coords)
        assert len(calls) == 1
        expected = [base]
        for idx in coords:
            for step in (1.0, -1.0):
                probe = base.copy()
                probe[idx] = base[idx] + step
                expected.append(probe)
        assert same_bits(calls[0], np.array(expected))


def same_bits(a, b):
    """Equal shapes and byte-identical float64 values (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_nft_objective(world, xt, t, beta, v, mask_bits=None):
    """The branch objective as it was evaluated before its setup was hoisted."""
    xt = np.asarray(xt, dtype=np.float64)
    w = _softmax(backend.gauss_logweights_batch(world.x0s, world.log_probs, xt[None, :], t)[0])
    pp_targets = (xt[None, :] - world.x0s) / t
    mean_old = w @ world.x0s
    v_old = (xt - mean_old) / t
    v_plus = (1.0 - beta) * v_old + beta * v
    v_minus = (1.0 + beta) * v_old - beta * v
    m = np.ones(world.dim) if mask_bits is None else np.asarray(mask_bits, dtype=np.float64)
    r = world.rewards.astype(np.float64)
    res_p = (v_plus[None, :] - pp_targets) * m
    res_m = (v_minus[None, :] - pp_targets) * m
    per_atom = r * np.sum(res_p * res_p, axis=1) + (1.0 - r) * np.sum(res_m * res_m, axis=1)
    return float(w @ per_atom)


def reference_probe_objective(probe, mu_nft, mu_cr, v_ref, v):
    """The direction probe's quadratic as it was evaluated on one vector at a time."""
    m = probe.mask_bits.astype(np.float64)
    q = probe.a * np.sum((m * (v - mu_nft)) ** 2)
    q += probe.b * np.sum((m * (v - mu_cr)) ** 2)
    q += probe.gamma * np.sum((v - v_ref) ** 2)
    return float(q)


class TestHoistedArithmetic:
    """The hoisted oracle paths give the bits of the per-call/per-sample forms."""

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_matches_per_call_reference(self, seed):
        rng = np.random.default_rng((seed, 12))
        world = random_world(rng, 6, 3)
        for xt, t in default_grid(world, rng, n_x=2, n_t=3):
            pp = population_point(world, xt, t)
            for mask in (None, rng.integers(0, 2, 3).astype(bool), np.zeros(3, bool)):
                beta = float(rng.uniform(0.25, 4.0))
                objective = population_nft_objective(world, pp, beta, mask)
                for k in (1, 5, 21):
                    vs = pp.v_old + rng.standard_normal((k, 3)) * rng.uniform(0.1, 10.0, (k, 1))
                    values = objective(vs)
                    assert values.shape == (k,)
                    for v, value in zip(vs, values.tolist()):
                        assert value == reference_nft_objective(world, xt, t, beta, v, mask)

    @pytest.mark.parametrize("seed", range(4))
    def test_probe_objective_matches_per_vector_reference(self, seed):
        rng = np.random.default_rng((seed, 19))
        for a, b, g in ((1.0, 0.5, 0.2), (0.0, 0.5, 0.3), (1.0, 0.5, 0.0), (2.5, 1.5, 0.7)):
            for mask in (rng.integers(0, 2, 3).astype(bool), np.zeros(3, bool), np.ones(3, bool)):
                probe = QuadraticProbe(a, b, g, mask)
                mu_nft, mu_cr, v_ref = rng.standard_normal((3, 3)) * 3.0
                for k in (1, 5, 21):
                    vs = v_ref + rng.standard_normal((k, 3)) * rng.uniform(0.1, 10.0, (k, 1))
                    values = probe_objective(probe, mu_nft, mu_cr, v_ref, vs)
                    assert values.shape == (k,)
                    for v, value in zip(vs, values.tolist()):
                        assert value == reference_probe_objective(probe, mu_nft, mu_cr, v_ref, v)


# Weight lists of 1-8 atoms; zero weights give tied cdf entries.
WEIGHTS = st.lists(st.sampled_from([0.0, 0.0, 1e-300, 1e-12, 0.3, 1.0, 7.0]) | st.floats(0.0, 10.0),
                   min_size=1, max_size=8).filter(lambda w: sum(w) > 0)
SIZES = (st.integers(0, 40) | st.tuples(st.integers(0, 12), st.integers(0, 12))
         # sizes whose uniforms span several of the draw's blocks, or end on a boundary
         | st.sampled_from([_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7, (_BLOCK // 3 + 1, 4),
                            (2, _BLOCK + 5)]))
# Ways to spoil a normalised p: NaN, a negative or infinite entry, or a sum moved
# across the sqrt(eps) tolerance (1.49e-8).
SPOILERS = st.sampled_from([
    None, ("set", math.nan), ("set", -1e-12), ("set", -0.0), ("set", math.inf),
    ("scale", 1.0 + 1e-9), ("scale", 1.0 + 1.4e-8), ("scale", 1.0 + 1.6e-8),
    ("scale", 1.0 - 1.6e-8), ("scale", 1.1),
])


class FixedUniforms:
    """A generator stand-in whose ``random(size)`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=np.float64)

    def random(self, size):
        return self.u.reshape(size)


class TestDrawCategorical:
    """``draw_categorical`` is ``Generator.choice`` with ``p``: same errors, indices and stream."""

    @settings(max_examples=300, deadline=None)
    @given(weights=WEIGHTS, size=SIZES, seed=st.integers(0, 2**32 - 1), spoiler=SPOILERS,
           at=st.integers(0, 7))
    def test_matches_choice_on_a_twin_generator(self, weights, size, seed, spoiler, at):
        w = np.array(weights)
        p = w / w.sum()
        if spoiler is not None:
            how, value = spoiler
            if how == "set":
                p[at % p.size] = value
            else:
                p = p * value
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        try:
            expected = theirs.choice(p.size, size=size, p=p)
        except ValueError as err:
            with pytest.raises(ValueError) as raised:
                draw_categorical(ours, p, size)
            assert str(raised.value) == str(err)
        else:
            got = draw_categorical(ours, p, size)
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert np.array_equal(got, expected)
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("p", [
        [1.0], [0.5, 0.0, 0.5], [0.0, 0.25, 0.0, 0.0, 0.75], [0.0, 0.0, 1.0], [1.0, 0.0],
        [0.1, 0.2, 0.3, 0.4],
        [0.5 + 5e-10, 0.25 + 2.5e-10, 0.25 + 2.5e-10],  # sums to 1 + 1e-9: the cdf is rescaled
    ])
    def test_uniform_on_a_cdf_entry_takes_numpy_index(self, p):
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        u = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), np.nextafter(cdf[:-1], 1.0),
                            [0.0, np.nextafter(1.0, 0.0)]])
        u = u[u < 1.0]
        got = draw_categorical(FixedUniforms(u), np.array(p), u.shape)
        assert np.array_equal(got, cdf.searchsorted(u, side="right"))

    def test_one_atom_world_draws_zeros(self):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        got = draw_categorical(ours, np.array([1.0]), (5, 3))
        assert np.array_equal(got, np.zeros((5, 3), np.int64))
        assert np.array_equal(got, theirs.choice(1, size=(5, 3), p=[1.0]))
        assert ours.random() == theirs.random()

    def test_more_than_256_atoms(self):
        p = np.random.default_rng(4).uniform(0.0, 1.0, 300)
        p /= p.sum()
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        assert np.array_equal(draw_categorical(ours, p, 5000), theirs.choice(300, 5000, p=p))


def positive_world(n_pos, rng):
    """A world of ``n_pos`` positive and two negative atoms at spread-out scales."""
    x0s = rng.standard_normal((n_pos + 2, 3)) * rng.uniform(0.01, 100.0, (n_pos + 2, 1))
    probs = rng.uniform(0.5, 1.5, n_pos + 2)
    return DiscreteWorld(x0s, probs / probs.sum(), [1] * n_pos + [0, 0])


def jacobian_gram(rng):
    jac = rng.standard_normal((3, 3)) * rng.uniform(0.1, 3.0, (3, 1))
    return jac @ jac.T


def reference_trace_cov(gram, res):
    """Sample trace covariance of J^T r and its standard error, in numpy on the sample rows."""
    centred = res - res.mean(axis=0)
    quad = np.sum((centred @ gram) * centred, axis=1)
    return quad.sum() / (quad.size - 1), quad.std(ddof=1) / math.sqrt(quad.size)


def assert_close(got, expected):
    # the atol only covers the roundoff-sized moments of a world with one positive atom
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-20)


class TestTraceCov:
    """The reflection branch's trace covariance is numpy's on the sample rows."""

    @pytest.mark.parametrize("n", [2, 1000, 100_000])
    def test_reflection_trace_cov_matches_numpy(self, n):
        rng = np.random.default_rng((n, 24))
        res = rng.standard_normal((n, 3)) * rng.uniform(0.01, 100.0, 3) + rng.standard_normal(3)
        gram = jacobian_gram(rng)
        expected = reference_trace_cov(gram, res)
        assert_close(_trace_cov(gram, res), expected)

    def test_trace_cov_does_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product splits a long sum among its threads, so its bits
        # change with the thread count on a host with more than one core
        code = ("import numpy as np\n"
                "from creflow.oracle import _trace_cov\n"
                "res = np.random.default_rng(25).standard_normal((100_000, 3)) + 1.0\n"
                "print(repr(_trace_cov(np.diag([1.0, 2.0, 3.0]), res)))")

        def run(threads):
            env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(creflow.__file__)),
                   **{var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")}}
            return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True).stdout

        assert run("1") == run("2")


class TestTableStatistics:
    """The statistics taken once per combination, weighted by probability, are those of
    the combinations enumerated one by one."""

    @pytest.mark.parametrize("n_pos,m", [
        (2, 2),  # table of 4 rows
        (3, 4),  # table of 81 rows
        (3, 6),  # table of 729 rows
        (5, 4),  # table of 625 rows, the largest a corrective suite world makes
        (1, 4),  # one positive atom: a table of one row
    ])
    def test_corrective_statistics_match_per_row(self, n_pos, m):
        # verify_corrective_target's reported values, and the variance suite's
        # corrective trace, against the combinations enumerated one by one, with
        # their probabilities, and summed by math.fsum
        rng = np.random.default_rng((n_pos, m, 22))
        world = positive_world(n_pos, rng)
        xt, t, v_theta = rng.standard_normal(3), 0.37, rng.standard_normal(3)
        gram = jacobian_gram(rng)
        checks = {c.name: c for c in verify_corrective_target(world, xt, t, (m,)).checks}
        atoms, w = world.x0s[world.positives], world.positive_weights
        probs, z = [], []
        for combo in itertools.product(range(n_pos), repeat=m):
            probs.append(math.prod(w[list(combo)].tolist()))
            z.append((xt - atoms[list(combo)].mean(axis=0)) / t)
        z = np.array(z)
        mean = np.array([math.fsum(np.multiply(probs, column)) for column in z.T])
        centred = z - mean
        quad = math.fsum(np.multiply(probs, np.sum((centred @ gram) * centred, axis=1)))
        assert_close(_corrective_trace_cov(world, m, gram, xt, t, v_theta), quad)
        bar_v = (xt - world.positive_mean()) / t
        scale = 1e-12 * max(1.0, float(np.max(np.abs(bar_v))))
        mean_check = checks[f"corrective_mean_unbiased_m{m}"]
        assert mean_check.passed and mean_check.tolerance == scale
        assert abs(mean_check.value - float(np.max(np.abs(mean - bar_v)))) <= scale
        if n_pos == 1:
            assert f"corrective_trace_cov_m{m}" not in checks
            return
        trace = math.fsum(np.multiply(probs, np.sum(centred**2, axis=1)))
        exact = float(np.trace(world.positive_cov())) / (m * t * t)
        trace_check = checks[f"corrective_trace_cov_m{m}"]
        assert trace_check.passed and trace_check.tolerance == 1e-10
        assert abs(trace_check.value - abs(trace - exact) / exact) <= 1e-12

    @pytest.mark.parametrize("n_pos,m,t", [
        (2, 1, 0.01),
        (2, 4, 0.37),
        (3, 2, 1.0),
        (3, 5, 0.05),
        (5, 3, 0.6),
        (4, 4, 0.001),
    ])
    def test_corrective_trace_cov_is_the_closed_form(self, n_pos, m, t):
        # the group mean's covariance is Sigma+ / m whatever xt and v_theta are, so
        # the trace of J^T r is tr(Sigma+ J J^T) / (m t^2)
        rng = np.random.default_rng((n_pos, m, 28))
        world = positive_world(n_pos, rng)
        gram = jacobian_gram(rng)
        exact = float(np.sum(world.positive_cov() * gram)) / (m * t * t)
        for scale in (0.0, 10.0):
            xt, v_theta = scale * rng.standard_normal(3), scale * rng.standard_normal(3)
            got = _corrective_trace_cov(world, m, gram, xt, t, v_theta)
            assert abs(got - exact) <= 1e-10 * exact


class TestPositiveGroups:
    """The table holds every ordered group of positives once, in ``itertools.product``
    order, with the group's own mean bit for bit and the product of its weights."""

    @pytest.mark.parametrize("n_pos,m", [
        (1, 5),  # one positive atom: a table of one row
        (2, 1),  # groups of one: the atoms themselves
        (4, 1),
        (2, 2),
        (5, 3),
        (3, 4),
        (3, 6),
        (2, 10),
    ])
    def test_rows_match_each_combination(self, n_pos, m):
        rng = np.random.default_rng((n_pos, m, 26))
        x0s = rng.standard_normal((n_pos + 2, 3)) * rng.uniform(0.01, 100.0, (n_pos + 2, 1))
        x0s[0] = -0.0  # a group of this atom alone averages to -0.0
        probs = rng.uniform(0.5, 1.5, n_pos + 2)
        world = DiscreteWorld(x0s, probs / probs.sum(), [1] * n_pos + [0, 0])
        prob, means = oracle._positive_groups(world, m)
        atoms, w = x0s[:n_pos], world.positive_weights
        combos = [list(combo) for combo in itertools.product(range(n_pos), repeat=m)]
        assert same_bits(means, np.array([atoms[combo].mean(axis=0) for combo in combos]))
        assert_close(prob, [math.prod(w[combo].tolist()) for combo in combos])
        assert abs(math.fsum(prob) - 1.0) <= 1e-14

    @pytest.mark.parametrize("n_pos,m,fits", [
        (2, 16, True),  # 2**16 * 16 = 2**20 group indices: at the limit
        (2, 17, False),
        (3, 10, True),
        (3, 11, False),
        (4, 8, True),
        (4, 9, False),
        (5, 7, True),
        (5, 8, False),
    ])
    def test_table_size_check_at_the_limit(self, n_pos, m, fits):
        world = positive_world(n_pos, np.random.default_rng(27))
        if fits:
            oracle._check_table_size(world, m)
            return
        with pytest.raises(ValueError, match=f"groups of m={m} from P={n_pos} positive atoms "
                                             f"make {n_pos**m} combinations, too many"):
            oracle._check_table_size(world, m)


class TestSuites:
    def test_nft_suite(self):
        report = suite_nft(0)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    def test_masked_suite(self):
        report = suite_masked(0)
        assert report.passed

    @pytest.mark.parametrize("suite", [suite_corrective, suite_locality])
    def test_exact_suites_pass_on_every_seed(self, suite):
        failed = [(seed, c.name) for seed in range(200) for c in suite(seed).checks
                  if not c.passed]
        assert failed == []

    def test_direction_suite(self):
        report = suite_direction(0)
        assert report.passed

    def test_variance_suite(self):
        report, var_report = suite_variance(0)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
        assert 1.8 <= var_report.slope <= 2.2

    def test_run_suite_all(self):
        report = run_suite("nft", 1)
        assert report.suite == "nft"
        with pytest.raises(KeyError):
            run_suite("bogus", 0)

    @staticmethod
    def traced_peak(suite, seed):
        suite(seed)
        tracemalloc.start()
        try:
            suite(seed)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # At the variance suite's 100,000 draws a float64 vector is 0.76 MiB. It
    # keeps one (N, 3) residual array and two vectors (the quadratic forms and
    # their deviations). The slack covers the blocks and the small arrays.
    def test_monte_carlo_working_set(self):
        assert self.traced_peak(suite_variance, 0) <= 5 * 8 * 100_000 + 2**19

    # The exact suites hold the atoms and the combination table (at most 625
    # rows of group size 4), never an array per sample: less than a third of
    # one 100,000-sample vector. Corrective seed 13 has P = 5, the largest table.
    @pytest.mark.parametrize("suite", [suite_corrective, suite_locality])
    def test_exact_suites_working_set(self, suite):
        assert self.traced_peak(suite, 13) <= 2**18


class TestLocality:
    def test_no_off_mask_coordinates_give_zero_second_moments(self):
        rng = np.random.default_rng(14)
        world, mask_bits = make_factored_world(
            on_x0s=rng.standard_normal((2, 2)), on_probs=np.array([0.5, 0.5]),
            on_rewards=np.array([1, 0]), off_x0s=np.zeros((1, 0)), off_probs=np.array([1.0]),
        )
        report = verify_reward_locality(world, mask_bits, [(np.zeros(2), 0.5)])
        assert report.passed
        for check in report.checks:
            assert check.value == 0.0
            assert check.tolerance == (1e-10 if "gap" in check.name else 0.0)

    def test_factored_world_self_test(self):
        rng = np.random.default_rng(5)
        world, mask_bits = make_factored_world(
            on_x0s=rng.standard_normal((2, 1)),
            on_probs=np.array([0.5, 0.5]),
            on_rewards=np.array([1, 0]),
            off_x0s=rng.standard_normal((2, 1)),
            off_probs=np.array([0.3, 0.7]),
        )
        check_factored(world, mask_bits)

    @pytest.mark.parametrize("x0s,rewards", [
        ([[1.0, 5.0], [-1.0, -5.0]], [1, 0]),
        ([[1.0, 5.0], [1.5, 3.0], [-1.0, -5.0], [-1.5, -2.0]], [1, 1, 0, 0]),
    ], ids=["one_atom_per_class", "two_atoms_per_class"])
    def test_non_factored_detected_and_reports_gap(self, monkeypatch, x0s, rewards):
        # off-mask coordinate correlates with reward: not factored
        world = DiscreteWorld(np.array(x0s), np.full(len(rewards), 1 / len(rewards)),
                              np.array(rewards))
        mask_bits = np.array([True, False])
        with pytest.raises(ConstructionViolated):
            check_factored(world, mask_bits)
        monkeypatch.setattr(oracle, "check_factored", lambda world, mask_bits: None)
        report = verify_reward_locality(world, mask_bits, [(np.array([0.1, 0.0]), 0.5)])
        checks = {c.name: c for c in report.checks}
        # negative controls: the gap is real, and the branch means differ off-mask,
        # so neither branch's second moment about v_old is its spread about its mean
        assert checks["locality_off_mask_velocity_gap"].value > 1e-3
        assert not checks["locality_second_moment_pos"].passed
        assert not checks["locality_second_moment_neg"].passed


class TestCorrectiveTarget:
    @pytest.mark.parametrize("bad,error,message", [
        ({"t": 0.0}, TOutOfRange, r"t=0 outside \[0.001, 1\]"),
        ({"t": math.nan}, TOutOfRange, r"t=nan outside \[0.001, 1\]"),
        ({"t": 1.5}, TOutOfRange, r"t=1.5 outside \[0.001, 1\]"),
        ({"group_sizes": (0, 4)}, InsufficientSamples, r"group_sizes=\(0, 4\): a corrective"),
        # 5**8 * 8 group indices is over the 2**20 limit; 5**7 * 7 is under it
        ({"group_sizes": (1, 8)}, ValueError,
         "groups of m=8 from P=5 positive atoms make 390625 combinations, too many"),
        ({"group_sizes": (7, 40)}, ValueError,
         "groups of m=40 from P=5 positive atoms make 9094947017729282379150390625 comb"),
    ], ids=["t_zero", "t_nan", "t_above_one", "empty_group", "table_over_limit",
            "table_of_huge_count"])
    def test_rejects_inputs_it_cannot_evaluate_before_any_table(self, monkeypatch, bad, error,
                                                               message):
        world = random_world(np.random.default_rng(13), 6, 3)  # P = 5
        args = {"xt": world.positive_mean() * 0.8, "t": 0.5, "group_sizes": (1, 4), **bad}
        built = []
        monkeypatch.setattr(oracle, "_positive_groups", lambda *a: built.append(a))
        with pytest.raises(error, match=message):
            verify_corrective_target(world, **args)
        assert built == []

    def test_single_positive_atom_deterministic(self):
        world = DiscreteWorld(
            np.array([[2.0, 0.0], [0.0, 1.0]]),
            np.array([0.4, 0.6]),
            np.array([1, 0]),
        )
        report = verify_corrective_target(world, np.array([0.5, 0.5]), 0.5, group_sizes=(1,))
        mean_check = [c for c in report.checks if "mean_unbiased" in c.name][0]
        assert mean_check.passed and mean_check.value < 1e-12

    @pytest.mark.parametrize("x0s,rewards", [
        ([[2.0, 0.0], [0.0, 1.0], [1.0, -1.0]], [1, 0, 0]),  # one positive atom
        ([[2.0, 0.5], [0.0, 1.0], [2.0, 0.5]], [1, 0, 1]),  # two coinciding positives
    ], ids=["one_positive", "coinciding_positives"])
    def test_zero_covariance_checked_at_float_tolerance(self, x0s, rewards):
        world = DiscreteWorld(np.array(x0s), np.array([0.3, 0.3, 0.4]), np.array(rewards))
        report = verify_corrective_target(world, np.array([0.5, 0.5]), 0.5, (1, 4))
        assert report.passed
        checks = {c.name: c for c in report.checks}
        for m in (1, 4):
            check = checks[f"corrective_mean_unbiased_m{m}"]
            assert check.value <= check.tolerance <= 1e-12 * 4.0
            assert f"corrective_trace_cov_m{m}" not in checks
        ratio = checks["corrective_shrinkage_ratio"]
        assert math.isnan(ratio.value) and ratio.detail.startswith("not applicable")

    def test_spread_positives_keep_the_trace_checks(self):
        world = DiscreteWorld(
            np.array([[2.0, 0.5], [0.0, 1.0], [1.0, -1.0]]),
            np.array([0.3, 0.3, 0.4]),
            np.array([1, 0, 1]),
        )
        report = verify_corrective_target(world, np.array([0.5, 0.5]), 0.5, (1, 4))
        checks = {c.name: c for c in report.checks}
        assert {"corrective_trace_cov_m1", "corrective_trace_cov_m4"} <= checks.keys()
        assert math.isfinite(checks["corrective_shrinkage_ratio"].value)
        assert report.passed

    @pytest.mark.parametrize("seed", [9, 37, 54])
    def test_single_positive_suite_worlds_pass(self, seed):
        report = suite_corrective(seed)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    # The mutants below are wrong forms of the identities; each must fail a check.
    def test_group_mean_spread_growing_with_m_fails(self, monkeypatch):
        # group means whose deviations from the positive mean are scaled by m: the
        # trace covariance is then m tr(Sigma+) / t^2 in place of tr(Sigma+) / (m t^2)
        world = random_world(np.random.default_rng((1, 4)), 6, 3)
        centre, table = world.positive_mean(), oracle._positive_groups

        def grown(world, m):
            prob, means = table(world, m)
            return prob, centre + (means - centre) * m

        monkeypatch.setattr(oracle, "_positive_groups", grown)
        checks = {c.name: c for c in verify_corrective_target(world, centre * 0.8, 0.5,
                                                              (1, 4)).checks}
        assert checks["corrective_trace_cov_m1"].passed
        assert not checks["corrective_trace_cov_m4"].passed
        assert not checks["corrective_shrinkage_ratio"].passed

    def test_positive_mean_with_uniform_weights_fails(self, monkeypatch):
        world = random_world(np.random.default_rng((1, 4)), 6, 3)
        xt = world.positive_mean() * 0.8
        monkeypatch.setattr(DiscreteWorld, "positive_mean",
                            lambda self: self.x0s[self.positives].mean(axis=0))
        checks = {c.name: c for c in verify_corrective_target(world, xt, 0.5, (1, 4)).checks}
        assert not checks["corrective_mean_unbiased_m1"].passed
        assert not checks["corrective_mean_unbiased_m4"].passed


class TestDirection:
    def test_off_mask_optimum_is_reference(self):
        rng = np.random.default_rng(8)
        world = random_world(rng, 4, 3)
        mask = np.array([True, False, False])
        v_ref = rng.standard_normal(3)
        probe = QuadraticProbe(1.0, 0.5, 0.4, mask, v_ref=v_ref)
        report = verify_direction(world, probe, default_grid(world, rng, 2, 2), beta=1.0)
        assert report.passed

    def test_singular_system(self):
        rng = np.random.default_rng(9)
        world = random_world(rng, 3, 2)
        with pytest.raises(ValueError):
            QuadraticProbe(0.0, 0.0, 0.0, np.array([True, False]))
        probe = QuadraticProbe(0.0, 0.0, 1.0, np.array([True, False]))
        probe.a = probe.b = probe.gamma = 0.0  # bypass construction check
        with pytest.raises(SingularSystem):
            verify_direction(world, probe, default_grid(world, rng, 1, 1), beta=1.0)


class TestVariance:
    def test_insufficient_samples_guard(self):
        rng = np.random.default_rng(10)
        world = random_world(rng, 4, 3, spread=2.5, min_pos=2)
        model = LinearVelocity(world.dim, rng=rng, scale=0.3)
        with pytest.raises(InsufficientSamples):
            verify_variance(
                world, model, np.geomspace(0.05, 0.6, 6), sigma_xi=0.1,
                group_size=2, mc_samples=8, rng=rng,
            )

    @pytest.mark.parametrize("bad,error,message", [
        ({"t_grid": [0.5, 0.6]}, InsufficientSamples, "at least two distinct t <= 0.3, got 0"),
        ({"t_grid": [0.01]}, InsufficientSamples, "at least two distinct t <= 0.3, got 1"),
        ({"t_grid": [0.0, 0.05, 0.3]}, TOutOfRange, r"t=0 outside \[0.001, 1\]"),
        ({"t_grid": [0.01, 0.1, 1.5]}, TOutOfRange, r"t=1.5 outside \[0.001, 1\]"),
        ({"mc_samples": 1}, InsufficientSamples, "mc_samples=1: a sample covariance needs"),
        ({"group_size": 0}, InsufficientSamples, "group_size=0: a corrective group needs"),
        # the shrinkage check doubles the group: 3**12 * 12 group indices is over the
        # 2**20 limit; 3**10 * 10 is under it
        ({"group_size": 6}, ValueError,
         "groups of m=12 from P=3 positive atoms make 531441 combinations, too many"),
        ({"group_size": 30}, ValueError,
         "groups of m=60 from P=3 positive atoms make 42391158275216203514294433201 comb"),
    ], ids=["no_t_for_slope", "one_t_for_slope", "t_zero", "t_above_one", "one_sample",
            "empty_group", "table_over_limit", "table_of_huge_count"])
    def test_rejects_inputs_it_cannot_evaluate_before_any_draw(self, bad, error, message):
        rng = np.random.default_rng(12)
        world = random_world(rng, 4, 3, spread=2.5, min_pos=2)
        model = LinearVelocity(world.dim, rng=rng, scale=0.3)
        args = {"t_grid": np.geomspace(0.01, 0.6, 6), "sigma_xi": 0.1, "group_size": 2,
                "mc_samples": 2_000, **bad}
        state = rng.bit_generator.state
        with pytest.raises(error, match=message):
            verify_variance(world, model, rng=rng, **args)
        assert rng.bit_generator.state == state

    @staticmethod
    def variance_run():
        rng = np.random.default_rng(11)
        world = random_world(rng, 4, 3, spread=2.5, min_pos=2)
        model = LinearVelocity(world.dim, rng=rng, scale=0.3)
        return verify_variance(world, model, np.geomspace(0.01, 0.6, 8), sigma_xi=0.1,
                               group_size=2, mc_samples=40_000, rng=rng, lambda_cr=3.0)

    def test_exact_matches_mc_loosely(self):
        _, var_report = self.variance_run()
        for rec in var_report.records:
            assert abs(rec["table_cr"] - rec["exact_cr"]) <= 1e-10 * rec["exact_cr"]
            assert abs(rec["mc_nft"] - rec["exact_nft"]) < 0.2 * rec["exact_nft"]

    @staticmethod
    def reflection_draws(group_size):
        rng = np.random.default_rng(11)
        world = random_world(rng, 4, 3, spread=2.5, min_pos=2)
        model = LinearVelocity(world.dim, rng=rng, scale=0.3)
        _, var_report = verify_variance(world, model, np.geomspace(0.01, 0.6, 8), sigma_xi=0.1,
                                        group_size=group_size, mc_samples=4_000, rng=rng)
        return [rec["mc_nft"] for rec in var_report.records], rng.bit_generator.state

    @pytest.mark.parametrize("group_size", [1, 3, 4])
    def test_group_size_moves_no_draw(self, group_size):
        # only the reflection branch draws, so the group size changes neither its
        # samples nor the rng state left behind
        assert self.reflection_draws(group_size) == self.reflection_draws(2)

    @pytest.mark.parametrize("seed", range(8))
    def test_corrective_checks_hold_on_random_worlds(self, seed):
        # the corrective curve and the shrinkage ratio read no draw
        rng = np.random.default_rng((seed, 29))
        world = random_world(rng, 5, 3, spread=2.5, min_pos=2)
        model = LinearVelocity(world.dim, rng=rng, scale=0.3)
        group_size = 1 + seed % 3
        report, var_report = verify_variance(world, model, np.geomspace(0.01, 0.6, 8),
                                             sigma_xi=0.1, group_size=group_size,
                                             mc_samples=4_000, rng=rng)
        checks = {c.name: c for c in report.checks}
        assert checks["variance_cr_slope"].passed
        assert checks["variance_group_shrinkage"].passed
        assert abs(var_report.shrink_ratio - 2.0) <= 2e-10
        for rec in var_report.records:
            assert abs(rec["table_cr"] - rec["exact_cr"]) <= 1e-10 * rec["exact_cr"]

    # The mutants below are wrong forms of the corrective branch; each must fail.
    def test_corrective_trace_growing_with_m_fails(self, monkeypatch):
        # a trace scaled by m in place of 1/m: doubling the group doubles it
        table_trace = oracle._corrective_trace_cov
        monkeypatch.setattr(oracle, "_corrective_trace_cov",
                            lambda world, m, *a: table_trace(world, m, *a) * m * m)
        report, var_report = self.variance_run()
        checks = {c.name: c for c in report.checks}
        assert not checks["variance_group_shrinkage"].passed
        assert abs(var_report.shrink_ratio - 0.5) < 1e-10

    def test_uniformly_weighted_table_fails(self, monkeypatch):
        # every group of positives equally likely, in place of by positive weight
        table = oracle._positive_groups

        def uniform(world, m):
            prob, means = table(world, m)
            return np.full(prob.size, 1.0 / prob.size), means

        monkeypatch.setattr(oracle, "_positive_groups", uniform)
        _, var_report = self.variance_run()
        for rec in var_report.records:
            assert abs(rec["table_cr"] - rec["exact_cr"]) > 1e-3 * rec["exact_cr"]
