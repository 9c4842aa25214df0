import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creflow
from creflow import backend
from creflow.errors import (
    ConstructionViolated,
    DegenerateWorld,
    InsufficientSamples,
    SingularSystem,
    TOutOfRange,
)
from creflow.flow import LinearVelocity
from creflow.oracle import (
    DiscreteWorld,
    _corrective_trace_cov,
    _positive_group_means,
    _softmax,
    _trace_cov,
    _weighted_moments,
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
SIZES = st.integers(0, 40) | st.tuples(st.integers(0, 12), st.integers(0, 12))
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


GROUP_DRAWS = pytest.mark.parametrize("n_pos,m,n", [
    (2, 2, 1000),  # table of 4 rows
    (3, 4, 100),  # table of 81 rows, most never drawn
    (3, 6, 1000),  # table of 729 rows, some never drawn
    (3, 12, 1000),  # 3**12 > 1000: a row per draw
    (2, 1, 2),  # two draws
    (1, 4, 10),  # one positive atom: a table of one row
])


class TestWeightedMoments:
    """Count-weighted moments over the combination table are numpy's on the drawn rows."""

    @GROUP_DRAWS
    def test_group_mean_moments_match_drawn_rows(self, n_pos, m, n):
        rng = np.random.default_rng((n_pos, m, n, 21))
        world = positive_world(n_pos, rng)
        atoms = world.x0s[world.positives]
        k = draw_categorical(rng, world.positive_weights, (n, m))
        rows, counts = _positive_group_means(atoms, k)
        assert rows.shape == (min(n_pos**m, n), 3)
        assert counts.sum() == n
        drawn = atoms[k].mean(axis=1)
        mean, var = _weighted_moments(rows, counts, n)
        assert_close(mean, drawn.mean(axis=0))
        assert_close(var, drawn.var(axis=0, ddof=1))

    @GROUP_DRAWS
    def test_corrective_trace_cov_matches_drawn_rows(self, n_pos, m, n):
        rng = np.random.default_rng((n_pos, m, n, 22))
        world = positive_world(n_pos, rng)
        xt, t, v_theta = rng.standard_normal(3), 0.37, rng.standard_normal(3)
        gram = jacobian_gram(rng)
        ours, theirs = np.random.default_rng(23), np.random.default_rng(23)
        k = draw_categorical(theirs, world.positive_weights, (n, m))
        res = v_theta - (xt - world.x0s[world.positives][k].mean(axis=1)) / t
        got = _corrective_trace_cov(world, ours, n, m, gram, xt, t, v_theta)
        assert_close(got, reference_trace_cov(gram, res))
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("n", [2, 1000, 100_000])
    def test_reflection_trace_cov_matches_numpy(self, n):
        rng = np.random.default_rng((n, 24))
        res = rng.standard_normal((n, 3)) * rng.uniform(0.01, 100.0, 3) + rng.standard_normal(3)
        gram = jacobian_gram(rng)
        expected = reference_trace_cov(gram, res)
        assert_close(_trace_cov(gram, res, np.ones(n), n), expected)

    def test_trace_cov_does_not_depend_on_the_blas_thread_count(self):
        # a BLAS dot product splits a long sum among its threads, so its bits
        # change with the thread count on a host with more than one core
        code = ("import numpy as np\n"
                "from creflow.oracle import _trace_cov\n"
                "res = np.random.default_rng(25).standard_normal((100_000, 3)) + 1.0\n"
                "print(repr(_trace_cov(np.diag([1.0, 2.0, 3.0]), res, np.ones(100_000), 100_000)))")

        def run(threads):
            env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(creflow.__file__)),
                   **{var: threads for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")}}
            return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, check=True).stdout

        assert run("1") == run("2")


def draw_codes(k, n_atoms):
    """The row of ``_positive_group_means``'s output that each draw of ``k`` takes."""
    n, m = k.shape
    if n_atoms**m > n:
        return np.arange(n)
    return np.ravel_multi_index(k.T, (n_atoms,) * m)


def corrective_residuals(x0s, idx, xt, t, v_theta, mask):
    """The per-row corrective residual written out: ``(v_theta - (xt - mean) / t) * mask``."""
    res = v_theta - (xt - x0s[idx].mean(axis=1)) / t
    return res if mask is None else res * mask


class TestCorrectiveTable:
    """The table rows a draw takes are its own group mean, bit for bit, counted once per draw."""

    @pytest.mark.parametrize("n_pos,m,n", [
        (2, 2, 1000),  # full table, 4 rows
        (3, 4, 1000),  # full table, 81 rows
        (3, 12, 1000),  # 3**12 > 1000: no table, a row per draw
        (2, 64, 5000),  # 2**64 combinations: no table
        (5, 3, 4),  # more combinations than draws: no table
        (1, 5, 10),  # one positive atom: a table of one row
    ])
    @pytest.mark.parametrize("masked", [False, True])
    def test_table_residuals_match_per_row(self, n_pos, m, n, masked):
        rng = np.random.default_rng((n_pos, m, n, 16))
        x0s = rng.standard_normal((n_pos + 2, 3)) * rng.uniform(0.01, 100.0, (n_pos + 2, 1))
        x0s[0] = -0.0
        probs = rng.uniform(0.5, 1.5, n_pos + 2)
        world = DiscreteWorld(x0s, probs / probs.sum(), [1] * n_pos + [0, 0])
        xt, t, v_theta = rng.standard_normal(3), 0.37, rng.standard_normal(3)
        mask = np.array([1.0, 0.0, 1.0]) if masked else None
        pos = world.positives
        k = draw_categorical(np.random.default_rng(17), world.positive_weights, (n, m))
        rows, counts = _positive_group_means(x0s[pos], k)
        res = v_theta - (xt - rows) / t
        if mask is not None:
            res *= mask
        code = draw_codes(k, pos.size)
        assert same_bits(res[code], corrective_residuals(x0s, pos[k], xt, t, v_theta, mask))
        assert np.array_equal(counts, np.bincount(code, minlength=rows.shape[0]))

    def test_table_only_when_no_more_combinations_than_rows(self):
        rng = np.random.default_rng(18)
        atoms = rng.standard_normal((3, 2)) * rng.uniform(0.01, 100.0, (3, 1))
        atoms[0] = -0.0  # a group of this atom alone averages to -0.0
        k = rng.integers(0, 3, (1000, 12))
        k[:4] = 0
        rows, counts = _positive_group_means(atoms, k)  # 3**12 combinations: a row per draw
        assert same_bits(rows, atoms[k].mean(axis=1))
        assert np.array_equal(counts, np.ones(1000))
        rows, counts = _positive_group_means(atoms, k[:, :6])  # 3**6: one row per combination
        assert rows.shape == (729, 2)
        code = np.ravel_multi_index(k[:, :6].T, (3,) * 6)
        assert same_bits(rows[code], atoms[k[:, :6]].mean(axis=1))
        assert counts.sum() == 1000 and counts[0] >= 4


class TestTableStatistics:
    """The statistics taken once per combination, weighted by count, are those of the gathered rows."""

    @pytest.mark.parametrize("n_rows,n,used", [
        (4, 1000, 4),  # every combination drawn
        (81, 1000, 81),
        (81, 1000, 7),  # most combinations never drawn
        (729, 5000, 300),
        (9, 2, 9),  # two draws
    ])
    def test_table_statistics_match_gathered_rows(self, n_rows, n, used):
        rng = np.random.default_rng((n_rows, n, used, 21))
        table = rng.standard_normal((n_rows, 3)) * rng.uniform(0.01, 100.0, (n_rows, 1))
        gram = jacobian_gram(rng)
        code = rng.choice(n_rows, used, replace=False)[rng.integers(0, used, n)]
        counts = np.bincount(code, minlength=n_rows)
        gathered = table[code]
        mean, var = _weighted_moments(table, counts, n)
        assert_close(mean, gathered.mean(axis=0))
        assert_close(var, gathered.var(axis=0, ddof=1))
        assert_close(_trace_cov(gram, table.copy(), counts, n), reference_trace_cov(gram, gathered))

    @pytest.mark.parametrize("n_pos,m,n", [
        (2, 2, 1000),  # table of 4 rows
        (3, 4, 100),  # table of 81 rows, some never drawn
        (3, 6, 1000),  # table of 729 rows
        (3, 12, 1000),  # 3**12 > 1000: a row per draw
        (1, 4, 10),  # one positive atom
    ])
    def test_corrective_statistics_match_per_row(self, n_pos, m, n):
        # verify_corrective_target's reported values against numpy on the drawn targets
        rng = np.random.default_rng((n_pos, m, n, 22))
        world = positive_world(n_pos, rng)
        xt, t = rng.standard_normal(3), 0.37
        ours, theirs = np.random.default_rng(23), np.random.default_rng(23)
        report = verify_corrective_target(world, xt, t, (m,), n, rng=ours)
        checks = {c.name: c for c in report.checks}
        k = draw_categorical(theirs, world.positive_weights, (n, m))
        z = (xt - world.x0s[world.positives][k].mean(axis=1)) / t
        bar_v = (xt - world.positive_mean()) / t
        scale = 1e-12 * max(1.0, float(np.max(np.abs(bar_v))))
        mean_check = checks[f"corrective_mean_unbiased_m{m}"]
        if n_pos == 1:
            assert mean_check.value == float(np.max(np.abs(z - bar_v)))
            assert f"corrective_trace_cov_m{m}" not in checks
        else:
            assert abs(mean_check.value - float(np.max(np.abs(z.mean(axis=0) - bar_v)))) <= scale
            se = z.std(axis=0, ddof=1) / math.sqrt(n)
            assert_close(mean_check.tolerance, float(np.max(3.0 * se)))
            exact = float(np.trace(world.positive_cov())) / (m * t * t)
            rel = abs(float(np.sum(z.var(axis=0, ddof=1))) - exact) / exact
            assert abs(checks[f"corrective_trace_cov_m{m}"].value - rel) <= 1e-12
        assert ours.random() == theirs.random()


class TestSuites:
    def test_nft_suite(self):
        report = suite_nft(0)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]

    def test_masked_suite(self):
        report = suite_masked(0)
        assert report.passed

    def test_locality_suite(self):
        report = suite_locality(0, mc_samples=20_000)
        assert report.passed

    def test_corrective_suite(self):
        report = suite_corrective(0, mc_samples=20_000)
        assert report.passed

    def test_direction_suite(self):
        report = suite_direction(0)
        assert report.passed

    def test_variance_suite(self):
        report, var_report = suite_variance(0, mc_samples=20_000)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]
        assert 1.8 <= var_report.slope <= 2.2

    def test_run_suite_all(self):
        report = run_suite("nft", 1)
        assert report.suite == "nft"
        with pytest.raises(KeyError):
            run_suite("bogus", 0)


class TestLocality:
    @pytest.mark.parametrize("mc_samples", [0, 1])
    def test_rejects_fewer_than_two_samples_before_any_draw(self, mc_samples):
        rng = np.random.default_rng(14)
        world, mask_bits = make_factored_world(
            on_x0s=rng.standard_normal((2, 1)), on_probs=np.array([0.5, 0.5]),
            on_rewards=np.array([1, 0]), off_x0s=rng.standard_normal((2, 1)),
            off_probs=np.array([0.3, 0.7]),
        )
        state = rng.bit_generator.state
        with pytest.raises(InsufficientSamples, match=f"mc_samples={mc_samples}: a sample"):
            verify_reward_locality(world, mask_bits, [(np.zeros(2), 0.5)], rng, mc_samples)
        assert rng.bit_generator.state == state

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

    def test_non_factored_detected_and_reports_gap(self):
        # off-mask coordinate correlates with reward: not factored
        world = DiscreteWorld(
            np.array([[1.0, 5.0], [-1.0, -5.0]]),
            np.array([0.5, 0.5]),
            np.array([1, 0]),
        )
        mask_bits = np.array([True, False])
        with pytest.raises(ConstructionViolated):
            check_factored(world, mask_bits)
        rng = np.random.default_rng(6)
        report = verify_reward_locality(
            world, mask_bits, [(np.array([0.1, 0.0]), 0.5)], rng,
            mc_samples=2_000, check_construction=False,
        )
        gap = [c for c in report.checks if c.name == "locality_off_mask_velocity_gap"][0]
        assert gap.value > 1e-3  # negative control: the gap is real


class TestCorrectiveTarget:
    @pytest.mark.parametrize("bad,error,message", [
        ({"t": 0.0}, TOutOfRange, r"t=0 outside \[0.001, 1\]"),
        ({"t": math.nan}, TOutOfRange, r"t=nan outside \[0.001, 1\]"),
        ({"t": 1.5}, TOutOfRange, r"t=1.5 outside \[0.001, 1\]"),
        ({"mc_samples": 0}, InsufficientSamples, "mc_samples=0: a sample variance needs"),
        ({"mc_samples": 1}, InsufficientSamples, "mc_samples=1: a sample variance needs"),
        ({"group_sizes": (0, 4)}, InsufficientSamples, r"group_sizes=\(0, 4\): a corrective"),
    ], ids=["t_zero", "t_nan", "t_above_one", "no_sample", "one_sample", "empty_group"])
    def test_rejects_inputs_it_cannot_evaluate_before_any_draw(self, bad, error, message):
        rng = np.random.default_rng(13)
        world = random_world(rng, 6, 3)
        args = {"xt": world.positive_mean() * 0.8, "t": 0.5, "group_sizes": (1, 4),
                "mc_samples": 2_000, **bad}
        state = rng.bit_generator.state
        with pytest.raises(error, match=message):
            verify_corrective_target(world, rng=rng, **args)
        assert rng.bit_generator.state == state

    def test_single_positive_atom_deterministic(self):
        world = DiscreteWorld(
            np.array([[2.0, 0.0], [0.0, 1.0]]),
            np.array([0.4, 0.6]),
            np.array([1, 0]),
        )
        rng = np.random.default_rng(7)
        report = verify_corrective_target(
            world, np.array([0.5, 0.5]), 0.5, group_sizes=(1,), mc_samples=2_000, rng=rng
        )
        mean_check = [c for c in report.checks if "mean_unbiased" in c.name][0]
        assert mean_check.passed and mean_check.value < 1e-12

    @pytest.mark.parametrize("x0s,rewards", [
        ([[2.0, 0.0], [0.0, 1.0], [1.0, -1.0]], [1, 0, 0]),  # one positive atom
        ([[2.0, 0.5], [0.0, 1.0], [2.0, 0.5]], [1, 0, 1]),  # two coinciding positives
    ], ids=["one_positive", "coinciding_positives"])
    def test_zero_covariance_checked_at_float_tolerance(self, x0s, rewards):
        world = DiscreteWorld(np.array(x0s), np.array([0.3, 0.3, 0.4]), np.array(rewards))
        report = verify_corrective_target(
            world, np.array([0.5, 0.5]), 0.5, (1, 4), mc_samples=3_000,
            rng=np.random.default_rng(8),
        )
        assert report.passed
        checks = {c.name: c for c in report.checks}
        for m in (1, 4):
            check = checks[f"corrective_mean_unbiased_m{m}"]
            assert check.value <= check.tolerance <= 1e-12 * 4.0
            assert f"corrective_trace_cov_m{m}" not in checks
        ratio = checks["corrective_shrinkage_ratio"]
        assert math.isnan(ratio.value) and ratio.detail.startswith("not applicable")

    def test_spread_positives_keep_the_monte_carlo_checks(self):
        world = DiscreteWorld(
            np.array([[2.0, 0.5], [0.0, 1.0], [1.0, -1.0]]),
            np.array([0.3, 0.3, 0.4]),
            np.array([1, 0, 1]),
        )
        report = verify_corrective_target(
            world, np.array([0.5, 0.5]), 0.5, (1, 4), mc_samples=20_000,
            rng=np.random.default_rng(9),
        )
        checks = {c.name: c for c in report.checks}
        assert {"corrective_trace_cov_m1", "corrective_trace_cov_m4"} <= checks.keys()
        assert math.isfinite(checks["corrective_shrinkage_ratio"].value)
        assert report.passed

    @pytest.mark.parametrize("seed", [9, 37, 54])
    def test_single_positive_suite_worlds_pass(self, seed):
        report = suite_corrective(seed, mc_samples=20_000)
        assert report.passed, [c.to_dict() for c in report.checks if not c.passed]


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
    ], ids=["no_t_for_slope", "one_t_for_slope", "t_zero", "t_above_one", "one_sample",
            "empty_group"])
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

    def test_exact_matches_mc_loosely(self):
        rng = np.random.default_rng(11)
        world = random_world(rng, 4, 3, spread=2.5, min_pos=2)
        model = LinearVelocity(world.dim, rng=rng, scale=0.3)
        report, var_report = verify_variance(
            world, model, np.geomspace(0.01, 0.6, 8), sigma_xi=0.1,
            group_size=2, mc_samples=40_000, rng=rng, lambda_cr=3.0,
        )
        for rec in var_report.records:
            assert abs(rec["mc_cr"] - rec["exact_cr"]) < 0.12 * max(rec["exact_cr"], 1e-12)
            assert abs(rec["mc_nft"] - rec["exact_nft"]) < 0.2 * rec["exact_nft"]
