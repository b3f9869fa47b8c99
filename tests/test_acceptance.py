"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion.  The numerical
experiments run at desk scale with frozen seeds; every tolerance is stated
next to the check it guards.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from rkld.diagnostics import (
    discrepancy_budget,
    galerkin_error_vs_n,
    gibbs_concentration_bound,
    gibbs_gap_empirical,
    gibbs_gap_vs_beta,
    ou_stationary_variances,
    quadratic_gibbs_gap_exact,
    sgld_discrepancy,
    spectral_gap,
    theorem_tail_bound,
    theory_constants,
    weak_error_vs_eta,
)
from rkld.dynamics import ChainConfig, run_blocks, run_ensemble
from rkld.objective import Dataset, ObjectiveSpec, loss_family
from rkld.spectral import KernelSpec, SpectralVector, operator_a, resolvent_s_eta


def report(number, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'}: criterion {number} - {detail}"
    print(line, flush=True)
    assert passed, line


def objective(loss="squared", gamma=1.5, n=24, seed=7, n_modes=16, kind="regression"):
    ds = Dataset.synthesize(n, seed=seed, kind=kind)
    return ObjectiveSpec(ds, loss_family(loss), KernelSpec(gamma=gamma), n_modes)


def test_01_closed_form_suite():
    t0 = time.time()
    tol = 1e-12
    kernel = KernelSpec()
    errors = []

    # resolvent mode scales and operator norm
    for lam, eta in [(1.0, 0.5), (6.0, 0.05), (2.0, 1.0)]:
        op = resolvent_s_eta(kernel, lam, eta, 16)
        mu = kernel.eigenvalues(16)
        errors.append(np.max(np.abs(op.scale_per_mode - 1.0 / (1.0 + lam * eta / mu))))
        errors.append(abs(op.operator_norm - 1.0 / (1.0 + lam * eta / kernel.mu0)))

    # drift negativity coefficient lam / mu0
    op_a = operator_a(kernel, 3.0, 16)
    errors.append(abs(max(op_a.scale_per_mode) + 3.0 / kernel.mu0))

    # strict-regime identity 1 - eta G(eta) = (1 + eta M) / (1 + eta lam / mu0)
    for lam, mu0, M, eta in [(2.0, 1.0, 1.0, 0.3), (6.0, 0.5, 2.0, 0.05), (4.0, 1.0, 0.5, 1.0)]:
        gap = spectral_gap("strict", lam, mu0, M, eta)
        errors.append(abs(1.0 - eta * gap - (1.0 + eta * M) / (1.0 + eta * lam / mu0)))

    # minibatch budget r_n at (10, 1, 0.1, 10, 5) and the Gibbs bound example
    errors.append(abs(discrepancy_budget(10, 1.0, 0.1, 10, 5) - 1.0 / 9.0))
    errors.append(abs(gibbs_concentration_bound(2.0, 1.0, 4.0, 1.0) - 2.25))

    worst = max(errors)
    elapsed = time.time() - t0
    report(
        1,
        worst < tol and elapsed < 1.0,
        f"closed-form suite, worst error {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_02_gradient_finite_differences():
    t0 = time.time()
    worst = 0.0
    for tag in ("squared", "logistic", "savage"):
        kind = "classification" if tag != "squared" else "regression"
        obj = objective(loss=tag, n_modes=12, kind=kind)
        rng = np.random.default_rng(2024)
        for _ in range(20):
            x = rng.standard_normal(12)
            h = rng.standard_normal(12)
            h /= np.linalg.norm(h)
            step = 1e-6
            fd = (obj.risk_array(x + step * h) - obj.risk_array(x - step * h)) / (2.0 * step)
            exact = float(obj.grad_array(x) @ h)
            worst = max(worst, abs(exact - fd) / max(abs(fd), 1e-12))
    elapsed = time.time() - t0
    report(
        2,
        worst < 1e-5 and elapsed < 5.0,
        f"directional derivatives vs central differences, worst relative error "
        f"{worst:.2e} (tol 1e-5) over 20 pairs x 3 losses, {elapsed:.2f}s (< 5s)",
    )


def test_03_minibatch_unbiased_and_variance_identity():
    t0 = time.time()
    ds = Dataset.synthesize(6, seed=9)
    obj = ObjectiveSpec(ds, loss_family("squared"), KernelSpec(), 6)
    x = np.random.default_rng(31).standard_normal(6)
    full = obj.grad_array(x)
    batches = list(itertools.combinations(range(6), 2))
    assert len(batches) == 15
    grads = np.stack([obj.stochastic_grad_array(x, np.array(b)) for b in batches])

    mean_err = float(np.max(np.abs(grads.mean(axis=0) - full)))
    emp_var = float(np.mean(np.sum((grads - full) ** 2, axis=1)))
    per_sample = obj.grad_components_array(x)
    sigma_bar = float(np.mean(np.sum((per_sample - full) ** 2, axis=1)))
    closed = (sigma_bar / 2.0) * (6 - 2) / (6 - 1)
    var_err = abs(emp_var - closed)

    elapsed = time.time() - t0
    report(
        3,
        mean_err < 1e-12 and var_err < 1e-12 and elapsed < 1.0,
        f"exhaustive C(6,2)=15 minibatches: mean error {mean_err:.2e}, variance "
        f"identity error {var_err:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_04_ou_stationary_variance():
    t0 = time.time()
    replicas = 16
    cfg = ChainConfig(
        eta=0.5, beta=2.0, lam=1.0, n_modes=8, seed=11, horizon=125_000, burn_in=25_000
    )
    sums = np.zeros((replicas, 8))
    sumsq = np.zeros((replicas, 8))
    count = 0

    def accumulate(step, x, risk):
        nonlocal count
        sums[:] += x
        sumsq[:] += x**2
        count += 1

    run_ensemble(
        cfg, None, mode="ou", n_chains=replicas, observers=(accumulate,),
        chain_ids=list(range(replicas)),
    )
    assert count == 100_000
    var = sumsq / count - (sums / count) ** 2
    mean_var = var.mean(axis=0)
    se_var = var.std(axis=0, ddof=1) / math.sqrt(replicas)
    expect = ou_stationary_variances(KernelSpec(), cfg.lam, cfg.eta, cfg.beta, 8)
    sigmas = np.abs(mean_var - expect) / se_var
    elapsed = time.time() - t0
    report(
        4,
        bool(np.all(sigmas <= 3.0)) and elapsed < 30.0,
        f"OU per-mode variance over 1e5 post-burn-in steps, modes 0-7 within 3 SE "
        f"(worst {sigmas.max():.2f} sigma), {elapsed:.1f}s (< 30s)",
    )


def coupled_distances(cfg, obj, x0a, x0b):
    """||X_n - Y_n||, n = 0..horizon, of two GLD chains on the same chain id.

    One block per start in one engine call; sharing the chain id shares the
    noise, which cancels in the difference.
    """
    x0s = (x0a, x0b)
    paths = [[x0.coeffs] for x0 in x0s]
    run_blocks(
        [
            (
                dataclasses.replace(cfg, burn_in=0, x0=x0),
                obj,
                [0],
                (lambda step, x, risk, path=path: path.append(x[0].copy()),),
            )
            for x0, path in zip(x0s, paths)
        ]
    )
    return np.linalg.norm(np.array(paths[0]) - np.array(paths[1]), axis=1)


def test_05_coupled_contraction():
    t0 = time.time()
    obj = objective(n_modes=16)
    M = obj.smoothness_constant()
    lam = 4.0 * M * obj.kernel.mu0
    # eta small enough that the distance stays far above fp rounding for 1e4 steps
    cfg = ChainConfig(eta=0.0002, beta=4.0, lam=lam, n_modes=16, seed=0, horizon=10_000)
    rng = np.random.default_rng(1)
    d = coupled_distances(
        cfg,
        obj,
        SpectralVector(rng.standard_normal(16)),
        SpectralVector(rng.standard_normal(16)),
    )
    rho = (1.0 + cfg.eta * M) / (1.0 + cfg.eta * lam / obj.kernel.mu0)
    ratios = d[1:] / d[:-1]
    ok = bool(np.all(ratios <= rho + 1e-9))
    elapsed = time.time() - t0
    report(
        5,
        ok and d[-1] > 0 and elapsed < 10.0,
        f"coupled contraction at lambda = 4 M mu0: all 1e4 per-step ratios <= "
        f"rho + 1e-9 (max {ratios.max():.6f} vs rho {rho:.6f}), {elapsed:.1f}s (< 10s)",
    )


def test_06_lyapunov_drift_bounded_logistic():
    t0 = time.time()
    obj = objective(loss="logistic", n=10, n_modes=8, kind="classification")
    M = obj.smoothness_constant()
    lam = 0.5 * M * obj.kernel.mu0  # bounded-gradient regime
    x0 = SpectralVector(np.full(8, 2.0 / math.sqrt(8.0)))
    cfg = ChainConfig(
        eta=0.05, beta=4.0, lam=lam, n_modes=8, seed=42, horizon=1000, burn_in=0, x0=x0
    )
    tc = theory_constants(obj, cfg)
    assert tc.regime == "bounded"
    summaries = run_ensemble(cfg, obj, n_chains=200, chain_ids=list(range(200)))
    steps = summaries[0].steps
    norms = np.stack([s.norm for s in summaries])
    idx = np.linspace(1, len(steps) - 1, 10).astype(int)
    margins = []
    for i in idx:
        n = int(steps[i])
        mean_n = float(norms[:, i].mean())
        se = float(norms[:, i].std(ddof=1) / math.sqrt(200))
        bound = tc.rho**n * x0.norm() + tc.b + 3.0 * se
        margins.append(bound - mean_n)
    elapsed = time.time() - t0
    report(
        6,
        min(margins) > 0 and elapsed < 120.0,
        f"Lyapunov drift, 200 replicas, 10 checkpoints: mean ||X_n|| below "
        f"rho^n ||x0|| + b + 3 SE everywhere (min margin {min(margins):.3f}), "
        f"{elapsed:.1f}s (< 2min)",
    )


def test_07_weak_error_rate_in_eta():
    t0 = time.time()
    obj = objective(n=12, n_modes=32)
    cfg = ChainConfig(eta=0.1, beta=4.0, lam=6.0, n_modes=32, seed=42, horizon=200_000)
    _, l_center = obj.regularized_minimizer(cfg.lam)
    fit = weak_error_vs_eta(
        obj, cfg, [0.2, 0.1, 0.05, 0.025], 0.003, l_center, replicas=8
    )
    lo, hi = fit.slope_ci
    in_window = not fit.inconclusive and lo < 1.3 and hi > 0.4 and 0.4 <= fit.slope <= 1.3
    elapsed = time.time() - t0
    report(
        7,
        in_window and lo > 0.0 and elapsed < 1800.0,
        f"weak error vs eta on grid (0.2,0.1,0.05,0.025), N=32, ref eta 0.003, "
        f"horizon 2e5: slope {fit.slope:.3f}, CI [{lo:.3f}, {hi:.3f}] inside (0, ...] "
        f"and slope in [0.4, 1.3], {elapsed:.0f}s (< 30min)",
    )


def test_08_galerkin_rate_in_n():
    t0 = time.time()
    kernel = KernelSpec(gamma=0.1)
    ds = Dataset.synthesize(24, seed=7)

    def make_objective(n_modes):
        return ObjectiveSpec(ds, loss_family("squared"), kernel, n_modes)

    cfg = ChainConfig(eta=0.01, beta=8.0, lam=4.0, n_modes=32, seed=42, horizon=100_000)
    fit = galerkin_error_vs_n(make_objective, cfg, [4, 8, 16, 32], 128, replicas=32)
    # ordinates are listed with N ascending, so errors must strictly decrease
    monotone = bool(np.all(np.diff(fit.ordinates) < 0))
    lo, hi = fit.slope_ci
    ok = not fit.inconclusive and monotone and 0.5 <= fit.slope <= 1.5
    elapsed = time.time() - t0
    report(
        8,
        ok and elapsed < 1800.0,
        f"galerkin error vs sqrt(mu_N+1), N in (4,8,16,32) vs 128 at eta 0.01: "
        f"monotone decreasing = {monotone}, slope {fit.slope:.3f} in [0.5, 1.5] "
        f"(CI [{lo:.3f}, {hi:.3f}]), {elapsed:.0f}s (< 30min)",
    )


def test_09_sgld_discrepancy_in_m():
    t0 = time.time()
    obj = objective(n=10, n_modes=8)
    _, l_center = obj.regularized_minimizer(6.0)
    results = []
    for m in (2, 5, 10):
        cfg = ChainConfig(
            eta=0.05, beta=4.0, lam=6.0, n_modes=8, seed=42, horizon=2000, minibatch=m
        )
        results.append(sgld_discrepancy(cfg, obj, l_center, replicas=64))
    discs = [r["discrepancy"] for r in results]
    ses = [r["se"] for r in results]
    nonincreasing = all(
        discs[i + 1] <= discs[i] + 3.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(discs) - 1)
    )
    exact_zero = discs[-1] == 0.0 and results[-1]["r_n"] == 0.0
    elapsed = time.time() - t0
    report(
        9,
        nonincreasing and exact_zero and elapsed < 600.0,
        f"SGLD-GLD discrepancy vs m in (2,5,10): nonincreasing within 3 sigma = "
        f"{nonincreasing}, exactly 0 at m = n_tr = {exact_zero} "
        f"(values {['%.2e' % d for d in discs]}), {elapsed:.0f}s (< 10min)",
    )


def test_10_gibbs_concentration_trend():
    t0 = time.time()
    # non-convex savage objective: gap monotone nonincreasing in beta
    obj = objective(loss="savage", n=24, n_modes=65, kind="classification")
    minimizer = obj.regularized_minimizer(1.0)
    cfg = ChainConfig(eta=0.01, beta=2.0, lam=1.0, n_modes=65, seed=42, horizon=100_000)
    results = gibbs_gap_vs_beta(cfg, obj, (2.0, 4.0, 8.0, 16.0), replicas=8, minimizer=minimizer)
    gaps = [out["gap"] for out in results]
    ses = [out["se"] for out in results]
    inconclusive = any(out["inconclusive"] for out in results)
    monotone = all(
        gaps[i + 1] <= gaps[i] + 3.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(gaps) - 1)
    )

    # quadratic control: empirical gap matches the exact discrete Gaussian value
    ctrl = objective(n=24, n_modes=65)
    ctrl_cfg = ChainConfig(eta=0.01, beta=4.0, lam=6.0, n_modes=65, seed=42, horizon=100_000)
    ctrl_out = gibbs_gap_empirical(ctrl_cfg, ctrl, replicas=8)
    exact = quadratic_gibbs_gap_exact(ctrl, ctrl_cfg)
    ctrl_sigma = abs(ctrl_out["gap"] - exact) / ctrl_out["se"]
    elapsed = time.time() - t0
    report(
        10,
        monotone and not inconclusive and ctrl_sigma <= 3.0 and elapsed < 1800.0,
        f"Gibbs gap vs beta (2,4,8,16) on savage loss monotone within 3 sigma = "
        f"{monotone} (gaps {['%.4f' % g for g in gaps]}); quadratic control "
        f"{ctrl_out['gap']:.5f} vs exact {exact:.5f} ({ctrl_sigma:.2f} sigma), "
        f"{elapsed:.0f}s (< 30min)",
    )


def test_11_tail_probability_shape():
    t0 = time.time()
    z = Dataset.synthesize(12, seed=7).z
    ds = Dataset(z, np.full(12, 0.9))
    obj = ObjectiveSpec(ds, loss_family("squared"), KernelSpec(gamma=1.5), 16)
    lam = 1.5 * obj.smoothness_constant() * obj.kernel.mu0  # strict regime
    eta = 0.1
    checkpoints = [int(1 / eta), int(5 / eta), int(25 / eta)]
    cfg = ChainConfig(
        eta=eta, beta=256.0, lam=lam, n_modes=16, seed=42, horizon=max(checkpoints)
    )
    out = theorem_tail_bound(cfg, obj, delta=0.2, checkpoints=checkpoints, replicas=200)
    rows = out["rows"]
    nonincreasing = all(
        rows[i + 1]["p_hat"]
        <= rows[i]["p_hat"] + 3.0 * math.hypot(rows[i]["p_se"], rows[i + 1]["p_se"])
        for i in range(len(rows) - 1)
    )
    decays = rows[-1]["p_hat"] < rows[0]["p_hat"]
    elapsed = time.time() - t0
    report(
        11,
        nonincreasing and decays and elapsed < 600.0,
        f"tail P(L(X_n) - L(x*) > 0.2) at n in {checkpoints}: "
        f"{[r['p_hat'] for r in rows]} nonincreasing within binomial 3 sigma, "
        f"200 replicas, {elapsed:.0f}s (< 10min)",
    )
