"""Acceptance gate: each test states its criterion, tolerance, and timing.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The heavy cases (Monte Carlo identities, the end-to-end learning
run) stay well inside their stated time budgets on a laptop-class CPU.
"""

import time

import numpy as np

from creflow import fileio, oracle, simworld
from creflow.ltlf import eval_bruteforce, eval_clause
from creflow.mask import CreditMask
from creflow.objectives import (
    LossConfig,
    loss_corrective_reflow,
    loss_corrective_weighted,
    loss_kl,
    loss_nft,
    loss_nft_credit_aware,
    loss_total,
)

from conftest import (
    ATOMS,
    fd_gradient,
    make_batch,
    make_bundle,
    make_group,
    random_formula,
    random_streams,
    rel_error,
    tiny_layout,
)

SEED = 2026


def report(criterion, passed, detail):
    stamp = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {stamp} ({detail})")
    assert passed, f"{criterion}: {detail}"


def timed(start):
    return f"{time.perf_counter() - start:.1f}s"


def test_01_branch_optimum_closed_form():
    start = time.perf_counter()
    rep = oracle.suite_nft(SEED)
    worst = max(c.value for c in rep.checks)
    report(
        "01 branch-optimum",
        rep.passed and worst < 1e-8,
        f"max deviation {worst:.2e} < 1e-8 over 3 worlds x 25 grid points, {timed(start)}",
    )


def test_02_masked_optimum():
    start = time.perf_counter()
    rep = oracle.suite_masked(SEED)
    on = max(c.value for c in rep.checks if "on_mask" in c.name)
    flat = max(c.value for c in rep.checks if "flatness" in c.name)
    report(
        "02 masked-optimum",
        rep.passed,
        f"on-mask dev {on:.2e} < 1e-8, off-mask flatness {flat:.2e} < 1e-12, {timed(start)}",
    )


def test_03_reward_locality():
    start = time.perf_counter()
    rep = oracle.suite_locality(SEED, mc_samples=100_000)
    gap = [c for c in rep.checks if "velocity_gap" in c.name][0]
    report(
        "03 reward-locality",
        rep.passed,
        f"off-mask gap {gap.value:.2e} < 1e-10, second moments within 3 sigma "
        f"at 1e5 samples, {timed(start)}",
    )


def test_04_corrective_target():
    start = time.perf_counter()
    rep = oracle.suite_corrective(SEED, mc_samples=100_000)
    ratio = [c for c in rep.checks if "shrinkage" in c.name][0]
    report(
        "04 corrective-target",
        rep.passed,
        f"mean within 3 sigma, |P|=1 vs 4 covariance ratio off by "
        f"{ratio.value * 100:.2f}% < 5%, {timed(start)}",
    )


def test_05_update_direction():
    start = time.perf_counter()
    rep = oracle.suite_direction(SEED)
    worst = max(c.value for c in rep.checks)
    report(
        "05 update-direction",
        rep.passed and worst < 1e-10,
        f"closed form vs numeric solve {worst:.2e} < 1e-10 across a/b/gamma sweeps "
        f"(incl. gamma=0 and b=0), {timed(start)}",
    )


def test_06_gradient_variance():
    start = time.perf_counter()
    rep, var = oracle.suite_variance(SEED, mc_samples=100_000)
    report(
        "06 gradient-variance",
        rep.passed,
        f"slope {var.slope:.3f} in [1.8,2.2], floor {var.floor_value:.3g} >= "
        f"{var.floor_bound:.3g}, crossing {var.t_star_empirical:.3g} vs formula "
        f"{var.t_star_formula:.3g}, shrink {var.shrink_ratio:.3f}, {timed(start)}",
    )


def test_07_ltl_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(1000):
        horizon = int(rng.integers(1, 13))
        f = random_formula(rng, ATOMS, 5)
        streams = random_streams(rng, ATOMS, horizon)
        truth, _ = eval_clause(f, streams, horizon)
        mismatches += truth != eval_bruteforce(f, streams, horizon)
    report(
        "07 ltl-equivalence",
        mismatches == 0,
        f"{mismatches} mismatches over 1000 random formula/trace pairs, {timed(start)}",
    )


def test_08_mask_and_weight_identities():
    start = time.perf_counter()
    layout = tiny_layout()
    config = LossConfig(beta=1.0, lambda_cr=0.7, lambda_kl=0.2)
    worst_mask = 0.0
    worst_weight = 0.0
    for seed in range(100):
        rng = np.random.default_rng((SEED, seed))
        n = int(rng.integers(3, 9))
        group = make_group(seed, n=n)
        n_pos = int(rng.integers(1, min(6, n)))
        rewards = np.zeros(n, int)
        rewards[:n_pos] = 1
        rng.shuffle(rewards)
        group.rewards = rewards
        bundle = make_bundle("linear", layout, seed=seed)
        batch = make_batch(group, seed)

        masked = group.mask
        group.mask = CreditMask.ones(layout)
        l_ca, g_ca = loss_nft_credit_aware(group, bundle, batch, config)
        l_plain, g_plain = loss_nft(group, bundle, batch, config)
        worst_mask = max(
            worst_mask,
            abs(l_ca - l_plain) / max(abs(l_plain), 1e-12),
            rel_error(g_ca, g_plain),
        )
        group.mask = masked

        _, g_reflow = loss_corrective_reflow(group, bundle, batch, config)
        _, g_weighted = loss_corrective_weighted(group, bundle, batch, config)
        if g_reflow.any():
            worst_weight = max(worst_weight, rel_error(g_reflow, g_weighted))
    report(
        "08 mask/weight-identities",
        worst_mask < 1e-10 and worst_weight < 1e-10,
        f"all-ones-mask error {worst_mask:.2e}, uniform-weight gradient error "
        f"{worst_weight:.2e}, both < 1e-10 over 100 groups, {timed(start)}",
    )


def test_09_loss_gradient_checks():
    start = time.perf_counter()
    config = LossConfig(beta=1.3, lambda_cr=0.7, lambda_kl=0.3)
    losses = {
        "nft": lambda g, b, s: loss_nft(g, b, s, config),
        "credit_aware": lambda g, b, s: loss_nft_credit_aware(g, b, s, config),
        "corrective": lambda g, b, s: loss_corrective_reflow(g, b, s, config),
        "weighted": lambda g, b, s: loss_corrective_weighted(g, b, s, config),
        "kl": lambda g, b, s: loss_kl(b, s, config),
        "total": lambda g, b, s: loss_total(g, b, s, config)[:2],
    }
    worst = 0.0
    layout = tiny_layout()
    for seed in range(50):
        for kind in ("linear", "mlp"):
            group = make_group(seed)
            bundle = make_bundle(kind, layout, seed=seed)
            batch = make_batch(group, seed)
            for name, fn in losses.items():
                _, analytic = fn(group, bundle, batch)
                fd = fd_gradient(lambda: fn(group, bundle, batch)[0], bundle)
                err = rel_error(analytic, fd)
                worst = max(worst, err)
                assert err < 1e-5, f"{name}/{kind} seed {seed}: {err:.2e}"
    report(
        "09 gradient-checks",
        worst < 1e-5,
        f"worst relative error {worst:.2e} < 1e-5 over 50 seeds x 6 losses x "
        f"2 model kinds, {timed(start)}",
    )


def test_10_end_to_end_learning():
    start = time.perf_counter()
    creflow_cfg = fileio.load_experiment_config("configs/creflow.yaml")
    vanilla_cfg = fileio.load_experiment_config("configs/vanilla_nft.yaml")
    # pretraining depends only on the world config, so one reference serves both arms
    assert creflow_cfg.world == vanilla_cfg.world
    gains, beats, drift_ok = [], [], []
    for seed in range(5):
        world = simworld.WorldConfig(**{**vars(creflow_cfg.world), "seed": seed})
        pretrained = simworld.pretrain_reference(world)
        summaries = {}
        for label, cfg in (("creflow", creflow_cfg), ("vanilla", vanilla_cfg)):
            series = simworld.run_online_loop(world, simworld.build_task_spec(world),
                                              pretrained.copy(), cfg.loss)
            summaries[label] = series.summary
        c, v = summaries["creflow"], summaries["vanilla"]
        gains.append(c["last_window_success"] - c["first_window_success"])
        beats.append(c["last_window_success"] > v["last_window_success"])
        drift_ok.append(c["mean_offmask_drift"] <= v["mean_offmask_drift"])
        print(
            f"  seed {seed}: creflow {c['first_window_success']:.3f}->"
            f"{c['last_window_success']:.3f}, vanilla ->{v['last_window_success']:.3f}, "
            f"drift {c['mean_offmask_drift']:.4f} vs {v['mean_offmask_drift']:.4f}"
        )
    n_gain = sum(g >= 0.10 for g in gains)
    n_beat = sum(beats)
    n_drift = sum(drift_ok)
    report(
        "10 end-to-end-learning",
        n_gain >= 4 and n_beat >= 4 and n_drift == 5,
        f"gain>=0.10 on {n_gain}/5 seeds, beats vanilla on {n_beat}/5, "
        f"drift no worse on {n_drift}/5, {timed(start)}",
    )
