"""Theory constants and the experiments that confront them with simulation.

Closed forms (spectral gaps, Lyapunov constants, the Gibbs concentration
bound, the minibatch discrepancy quantity) are exact arithmetic.  Empirical
estimators run replica ensembles through the dynamics module and report the
estimate, its Monte Carlo standard error, the replica count and the seeds
used, so every number is reproducible from its provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .dynamics import ChainConfig, run_blocks, run_ensemble
from .objective import MinimizerPair, ObjectiveSpec
from .spectral import KernelSpec, rkhs_norm

__all__ = [
    "TheoryConstants",
    "RateFit",
    "theory_constants",
    "spectral_gap",
    "discrepancy_budget",
    "gibbs_concentration_bound",
    "ou_stationary_variances",
    "ou_moment_bounds",
    "fit_loglog",
    "weak_error_vs_eta",
    "galerkin_error_vs_n",
    "gibbs_gap_vs_beta",
    "gibbs_gap_empirical",
    "sgld_discrepancy",
    "theorem_tail_bound",
    "tail_bound_terms",
    "quadratic_discrete_invariant",
    "quadratic_gibbs_gap_exact",
]


# -- closed forms --


def ou_stationary_variances(
    kernel: KernelSpec, lam: float, eta: float, beta: float, n_modes: int
) -> np.ndarray:
    """Per-mode stationary variance (2 eta / beta) a_k^2 / (1 - a_k^2)."""
    a = 1.0 / (1.0 + lam * eta / kernel.eigenvalues(n_modes))
    return (2.0 * eta / beta) * a**2 / (1.0 - a**2)


def ou_moment_bounds(
    kernel: KernelSpec, lam: float, eta: float, beta: float, n_modes: int
) -> tuple[float, float]:
    """(k(1), k(2)) bounds: k(2) is the exact stationary second moment of the
    noise-only chain started at 0, and k(1) <= sqrt(k(2)) by Jensen."""
    k2 = float(np.sum(ou_stationary_variances(kernel, lam, eta, beta, n_modes)))
    return math.sqrt(k2), k2


def spectral_gap(
    regime: str,
    lam: float,
    mu0: float,
    M: float,
    eta: float,
    beta: float | None = None,
    b: float | None = None,
    delta: float | None = None,
) -> float:
    """Geometric-ergodicity rate constant.

    Strict regime: exact closed form (lam/mu0 - M) / (1 + eta lam/mu0).
    Bounded regime: formula evaluation for a user-supplied recurrence
    probability delta; not a certified gap (delta's admissible range is only
    implicit in the theory).  eta = 0 gives the continuous-time gap.
    """
    if regime == "strict":
        gap = lam / mu0 - M
        if gap <= 0:
            raise ValueError("strict regime requires lambda > M * mu0")
        return gap / (1.0 + eta * lam / mu0)
    if regime == "bounded":
        if b is None or delta is None:
            raise ValueError("bounded regime requires the Lyapunov offset b and delta")
        if not (0.0 < delta < 1.0):
            raise ValueError("delta must lie in (0, 1)")
        # contraction over one unit of time; eta = 0 takes the exact limit
        rho_unit = math.exp(-lam / mu0) if eta == 0 else (1.0 + lam * eta / mu0) ** (-1.0 / eta)
        b_bar = max(b, 1.0)
        kappa_c = b_bar + 1.0
        v_bar = 4.0 * b_bar / (math.sqrt((1.0 + rho_unit) / 2.0) - rho_unit)
        return min(lam / (2.0 * mu0), 0.5) / (4.0 * math.log(kappa_c * (v_bar + 1.0) / (1.0 - delta))) * delta
    raise ValueError(f"unknown regime: {regime!r}")


def discrepancy_budget(n: int, beta: float, eta: float, n_tr: int, m: int) -> float:
    """Aggregate stochastic-gradient error quantity r_n = n beta eta (n_tr - m) / (m (n_tr - 1))."""
    if not (1 <= m <= n_tr):
        raise ValueError("minibatch size out of range")
    if n_tr < 2:
        raise ValueError("n_tr must be >= 2")
    return n * beta * eta * (n_tr - m) / (m * (n_tr - 1))


def gibbs_concentration_bound(M: float, lam: float, beta: float, x_tilde_hk_norm: float) -> float:
    """Concentration of the stationary Gibbs law around the regularized minimizer:
    (1/beta)(sqrt(2M/lam) + 1) + lam (||x~||_HK / sqrt(beta) + ||x~||_HK^2)."""
    if min(M, lam, beta) <= 0 or x_tilde_hk_norm < 0:
        raise ValueError("arguments must be positive (norm nonnegative)")
    return (1.0 / beta) * (math.sqrt(2.0 * M / lam) + 1.0) + lam * (
        x_tilde_hk_norm / math.sqrt(beta) + x_tilde_hk_norm**2
    )


@dataclass(frozen=True)
class TheoryConstants:
    """Every closed-form constant the theory attaches to one (objective, chain) pair."""

    regime: str
    M: float
    B: float | None
    m: float
    c: float
    rho: float
    b: float | None
    k1: float
    lambda_eta: float | None
    lambda_0: float | None
    c_beta: float
    gibbs_bound: float
    x_tilde_hk_norm: float
    kappa: float
    delta: float | None


def theory_constants(
    obj: ObjectiveSpec,
    cfg: ChainConfig,
    minimizers: MinimizerPair | None = None,
    delta: float | None = None,
    kappa: float = 0.1,
) -> TheoryConstants:
    """Assemble the constant table for a configured run.

    In the bounded regime the spectral gap is a formula evaluation for the
    supplied delta and is left None when delta is None.  The strict-regime
    Lyapunov offset b needs x* and is None when x* is not attained.
    """
    mu0 = obj.kernel.mu0
    M = obj.smoothness_constant()
    B = obj.gradient_bound()
    regime, m_const, c_const = obj.dissipativity_constants(cfg.lam)
    if minimizers is None:
        minimizers = obj.find_minimizers(cfg.lam)
    k1, _ = ou_moment_bounds(obj.kernel, cfg.lam, cfg.eta, cfg.beta, cfg.n_modes)
    if regime == "strict":
        rho = (1.0 + cfg.eta * M) / (1.0 + cfg.lam * cfg.eta / mu0)
        b = minimizers.x_star.norm() + 2.0 * k1 if minimizers.attained else None
        lam_eta = spectral_gap("strict", cfg.lam, mu0, M, cfg.eta)
        lam_0 = spectral_gap("strict", cfg.lam, mu0, M, 0.0)
        c_beta = 1.0
    else:
        rho = 1.0 / (1.0 + cfg.lam * cfg.eta / mu0)
        b = (mu0 / cfg.lam) * B + k1
        if delta is not None:
            lam_eta = spectral_gap("bounded", cfg.lam, mu0, M, cfg.eta, cfg.beta, b=b, delta=delta)
            lam_0 = spectral_gap("bounded", cfg.lam, mu0, M, 0.0, cfg.beta, b=b, delta=delta)
        else:
            lam_eta = None
            lam_0 = None
        c_beta = math.sqrt(cfg.beta)
    x_tilde_hk = rkhs_norm(minimizers.x_tilde, obj.kernel)
    return TheoryConstants(
        regime=regime,
        M=M,
        B=B,
        m=m_const,
        c=c_const,
        rho=rho,
        b=b,
        k1=k1,
        lambda_eta=lam_eta,
        lambda_0=lam_0,
        c_beta=c_beta,
        gibbs_bound=gibbs_concentration_bound(M, cfg.lam, cfg.beta, x_tilde_hk),
        x_tilde_hk_norm=x_tilde_hk,
        kappa=kappa,
        delta=delta,
    )


# -- rate fitting --


@dataclass
class RateFit:
    """Log-log slope fit with pointwise Monte Carlo error bars."""

    abscissae: np.ndarray
    ordinates: np.ndarray
    ordinate_errors: np.ndarray
    slope: float
    slope_se: float
    intercept: float
    inconclusive: bool
    reason: str = ""

    @property
    def slope_ci(self) -> tuple[float, float]:
        return (self.slope - 2.0 * self.slope_se, self.slope + 2.0 * self.slope_se)


def fit_loglog(abscissae, ordinates, ordinate_errors=None, min_points: int = 4) -> RateFit:
    """Weighted least squares of log(ordinate) on log(abscissa).

    Points whose error bar covers half the ordinate are unusable (the sign of
    log-error would be MC noise); the fit is inconclusive when fewer than
    min_points survive, when MC noise exceeds half the smallest ordinate gap,
    or when the slope's own standard error exceeds 0.5 (a two-sigma interval
    wider than a full unit of slope says nothing).
    """
    x = np.asarray(abscissae, dtype=float)
    y = np.asarray(ordinates, dtype=float)
    err = np.zeros_like(y) if ordinate_errors is None else np.asarray(ordinate_errors, dtype=float)
    usable = (y > 0) & (err < 0.5 * y)
    fit = RateFit(x, y, err, math.nan, math.nan, math.nan, inconclusive=True)
    if np.count_nonzero(usable) < min_points:
        fit.reason = f"only {np.count_nonzero(usable)} usable points, need {min_points}"
        return fit
    gaps = np.abs(np.diff(np.sort(y[usable])))
    if gaps.size and np.max(err[usable]) > 0.5 * np.min(gaps[gaps > 0], initial=np.inf):
        fit.reason = "MC noise exceeds half the smallest error gap"
        return fit
    lx, ly = np.log(x[usable]), np.log(y[usable])
    # relative error of y becomes absolute error of log y
    w = 1.0 / np.maximum(err[usable] / y[usable], 1e-6) ** 2
    wm = lambda v: np.sum(w * v) / np.sum(w)
    sxx = wm(lx**2) - wm(lx) ** 2
    slope = (wm(lx * ly) - wm(lx) * wm(ly)) / sxx
    intercept = wm(ly) - slope * wm(lx)
    resid = ly - slope * lx - intercept
    dof = max(lx.size - 2, 1)
    slope_se = math.sqrt(max(np.sum(w * resid**2) / np.sum(w) / dof, 1e-30) / sxx)
    # also fold in the propagated MC error floor
    se_mc = math.sqrt(1.0 / np.sum(w * (lx - wm(lx)) ** 2))
    fit.slope = slope
    fit.slope_se = max(slope_se, se_mc)
    fit.intercept = intercept
    if fit.slope_se > 0.5:
        fit.reason = f"slope standard error {fit.slope_se:.3g} exceeds 0.5"
        return fit
    fit.inconclusive = False
    return fit


# -- empirical estimators --


def _replica_mean_se(values) -> tuple[float, float]:
    """Across-replica mean and its standard error, spread / sqrt(R); inf below 2 replicas."""
    v = np.asarray(values, dtype=float)
    se = float(np.std(v, ddof=1) / math.sqrt(v.size)) if v.size > 1 else math.inf
    return float(np.mean(v)), se


class _CesaroTracker:
    """Observer summing the engine's per-chain risk over the first half of the
    retained steps, for the first-half/second-half stationarity check; the
    full Cesaro averages are RunSummary.final_cesaro_risk."""

    def __init__(self, cfg: ChainConfig):
        self.half_point = (cfg.horizon - cfg.burn_in_steps) // 2
        self.last_step = cfg.burn_in_steps + self.half_point
        self.sum_risk_first = 0.0

    def __call__(self, step, x, risk):
        if step <= self.last_step:
            self.sum_risk_first = self.sum_risk_first + risk


def _phi_tails(block_summaries) -> np.ndarray:
    """Per-replica Cesaro tails of phi, one row per block."""
    return np.array([[s.final_cesaro_phi for s in summaries] for summaries in block_summaries])


def weak_error_vs_eta(
    obj: ObjectiveSpec,
    cfg_base: ChainConfig,
    etas,
    eta_ref: float,
    l_star: float,
    replicas: int = 8,
    horizon: int | None = None,
) -> RateFit:
    """Invariant-law weak error against step size, by matched-seed Cesaro tails.

    error(eta) = |Cesaro tail at eta - Cesaro tail at eta_ref| with SEs
    propagated; the fitted log-log slope estimates the weak order in eta.
    One engine call runs every step size: the grid shares chain ids 0..R-1,
    the reference runs on its own ids.
    """
    etas = sorted(etas)
    if eta_ref > min(etas) / 8.0:
        raise ValueError("reference step size must be at most min(etas)/8")
    horizon = horizon if horizon is not None else cfg_base.horizon
    ids = list(range(replicas))
    blocks = [
        (replace(cfg_base, eta=eta, horizon=horizon, burn_in=None), obj, chain_ids, ())
        for eta, chain_ids in [(eta_ref, [2_000_000 + r for r in ids])] + [(eta, ids) for eta in etas]
    ]
    (ref, ref_se), *points = [_replica_mean_se(t) for t in _phi_tails(run_blocks(blocks, l_star=l_star))]
    errs = [abs(value - ref) for value, _ in points]
    ses = [math.hypot(se, ref_se) for _, se in points]
    return fit_loglog(np.array(etas), np.array(errs), np.array(ses))


def galerkin_error_vs_n(
    make_objective,
    cfg_base: ChainConfig,
    n_list,
    n_ref: int,
    replicas: int = 8,
) -> RateFit:
    """Invariant-law error against Galerkin dimension, abscissa mu_{N+1}^(1/2).

    make_objective(n_modes) builds the truncated objective; its first n
    feature columns must not depend on n_modes (KernelSpec.feature_matrix
    guarantees it).  Then each N-mode run's own Cesaro tail of phi is the
    sigmoid statistic of the *reference* (n_ref) risk on the zero-padded
    state, so all points measure against one functional.
    """
    n_list = sorted(n_list)
    if n_ref < 4 * max(n_list):
        raise ValueError("reference dimension must be at least 4x the largest N")
    obj_ref = make_objective(n_ref + 1)
    # center the sigmoid statistic at the regularized minimum, which exists
    # for every loss (the plain risk may only attain its infimum in the limit)
    _, l_star = obj_ref.regularized_minimizer(cfg_base.lam)
    # one block per dimension on the same chain ids: every dimension reads
    # the first N+1 components of the reference's noise, so per-replica
    # differences are paired and their MC variance is far below that of
    # independent runs
    ids = list(range(replicas))
    blocks = [
        (replace(cfg_base, n_modes=n_modes, burn_in=None), obj, ids, ())
        for n_modes, obj in [(n_ref + 1, obj_ref)] + [(n + 1, make_objective(n + 1)) for n in n_list]
    ]
    ref_tails, *tails = _phi_tails(run_blocks(blocks, l_star=l_star))
    errs, ses, absc = [], [], []
    for n, point_tails in zip(n_list, tails):
        mean, se = _replica_mean_se(point_tails - ref_tails)
        errs.append(abs(mean))
        ses.append(se)
        absc.append(math.sqrt(obj_ref.kernel.eigenvalue(n + 1)))
    return fit_loglog(np.array(absc), np.array(errs), np.array(ses))


def gibbs_gap_vs_beta(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    betas,
    replicas: int = 8,
    minimizer: tuple | None = None,
    slack: float = 10.0,
) -> list[dict]:
    """Empirical concentration gap at each inverse temperature, in one engine
    call: Cesaro average of L minus L(x~), with cfg.beta replaced by each beta.

    Requires a fine discretization (eta <= 0.01, N >= 64).  The verdict
    compares against the closed-form concentration bound scaled by the slack
    factor (the theory hides constants).  A first-half/second-half Cesaro
    disagreement beyond 3 sigma, or one replica (no sigma), marks an
    estimate inconclusive.  Every beta runs on chain ids 0..R-1.
    """
    retained = cfg.horizon - cfg.burn_in_steps
    if cfg.eta > 0.01 or cfg.n_modes < 65 or retained < 2:
        raise ValueError("gibbs gap estimation requires eta <= 0.01, N >= 64 and 2 retained steps")
    if minimizer is None:
        minimizer = obj.regularized_minimizer(cfg.lam)
    x_tilde, l_tilde = minimizer
    cfgs = [replace(cfg, beta=beta) for beta in betas]
    trackers = [_CesaroTracker(c) for c in cfgs]
    ids = list(range(replicas))
    results = run_blocks([(c, obj, ids, (tracker,)) for c, tracker in zip(cfgs, trackers)], l_star=l_tilde)
    M = obj.smoothness_constant()
    x_tilde_hk = rkhs_norm(x_tilde, obj.kernel)
    out = []
    for c, tracker, summaries in zip(cfgs, trackers, results):
        mean_l = np.array([s.final_cesaro_risk for s in summaries])
        gap, se = _replica_mean_se(mean_l - l_tilde)
        # stationarity: first-half vs second-half Cesaro averages of L
        first = tracker.sum_risk_first / tracker.half_point
        second = (mean_l * retained - tracker.sum_risk_first) / (retained - tracker.half_point)
        half_mean, half_se = _replica_mean_se(first - second)
        nonstationary = not math.isfinite(half_se) or abs(half_mean) > 3.0 * max(half_se, 1e-300)
        bound = gibbs_concentration_bound(M, c.lam, c.beta, x_tilde_hk)
        out.append(
            dict(gap=gap, se=se, bound=bound, slack=slack, passes_bound=gap <= slack * bound,
                 inconclusive=nonstationary, replicas=replicas, seed=c.seed)
        )
    return out


def gibbs_gap_empirical(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    replicas: int = 8,
    minimizer: tuple | None = None,
    slack: float = 10.0,
) -> dict:
    """gibbs_gap_vs_beta at the config's own beta."""
    return gibbs_gap_vs_beta(cfg, obj, [cfg.beta], replicas, minimizer, slack)[0]


def sgld_discrepancy(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    l_star: float,
    replicas: int = 64,
) -> dict:
    """Empirical |E phi(X_n) - E phi(Y_n)| between GLD and SGLD sharing noise seeds.

    The minibatch stream is independent of the noise stream, so at
    m = n_tr the two trajectories coincide exactly.  Reports the exact r_n,
    the paired-replica discrepancy with its SE, and the fitted constant
    discrepancy / (sqrt(r_n) + r_n^(1/4)).
    """
    ids = list(range(replicas))
    # only the last checkpoint's phi is read: retain one step, skip the Cesaro sums
    cfg = replace(cfg, burn_in=cfg.horizon - 1)
    gld = run_ensemble(cfg, obj, mode="gld", n_chains=replicas, l_star=l_star, chain_ids=ids)
    sgld = run_ensemble(cfg, obj, mode="sgld", n_chains=replicas, l_star=l_star, chain_ids=ids)
    phi_x = np.array([s.phi[-1] for s in gld])
    phi_y = np.array([s.phi[-1] for s in sgld])
    mean, se = _replica_mean_se(phi_x - phi_y)
    disc = abs(mean)
    m = cfg.minibatch if cfg.minibatch is not None else obj.dataset.size
    rn = discrepancy_budget(cfg.horizon, cfg.beta, cfg.eta, obj.dataset.size, m)
    shape = math.sqrt(rn) + rn**0.25
    return {
        "discrepancy": disc,
        "se": se,
        "r_n": rn,
        "bound_shape": shape,
        "c_fit": disc / shape if shape > 0 else math.nan,
        "replicas": replicas,
        "seed": cfg.seed,
        "minibatch": m,
    }


class _RiskAtSteps:
    """Observer keeping the engine's per-chain risk at a fixed set of steps."""

    def __init__(self, steps):
        self.steps = set(int(s) for s in steps)
        self.records: dict[int, np.ndarray] = {}

    def __call__(self, step, x, risk):
        if step in self.steps:
            self.records[step] = risk


def tail_bound_terms(
    consts: TheoryConstants, minimizers: MinimizerPair, eta: float, n: int
) -> dict[str, float] | None:
    """The terms of the tail bound's right-hand side at step n, before the
    5/delta factor, keyed by formula; None without a spectral gap."""
    if consts.lambda_eta is None or consts.lambda_0 is None:
        return None
    return {
        "exp(-Lambda*_eta (eta n - 1))": math.exp(-consts.lambda_eta * (eta * n - 1.0)),
        "(c_beta / Lambda*_0) eta^(1/2 - kappa)": (consts.c_beta / consts.lambda_0)
        * eta ** (0.5 - consts.kappa),
        "gibbs concentration term": consts.gibbs_bound,
        "L(x~) - L(x*)": minimizers.l_tilde - minimizers.l_star,
    }


def theorem_tail_bound(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    delta: float,
    checkpoints,
    replicas: int = 200,
    minimizers: MinimizerPair | None = None,
    kappa: float = 0.1,
) -> dict:
    """Empirical tail P(L(X_n) - L(x*) > delta) at the given steps, next to the
    assembled right-hand side of the high-probability bound (unit leading
    constants; the 1/sigma(delta) <= 5/delta relaxation applied).
    """
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    if cfg.x0 is not None and cfg.x0.norm() > 1.0 + 1e-12:
        raise ValueError("theorem evaluation requires ||x0|| <= 1")
    if minimizers is None:
        minimizers = obj.find_minimizers(cfg.lam)
    consts = theory_constants(obj, cfg, minimizers=minimizers, kappa=kappa)
    checkpoints = sorted(int(c) for c in checkpoints)
    recorder = _RiskAtSteps(checkpoints)
    run_cfg = replace(cfg, horizon=max(checkpoints), burn_in=0)
    run_ensemble(
        run_cfg,
        obj,
        mode="gld",
        n_chains=replicas,
        l_star=minimizers.l_star,
        observers=(recorder,),
        chain_ids=list(range(replicas)),
    )
    rows = []
    for n in checkpoints:
        risks = recorder.records[n]
        exceed = risks - minimizers.l_star > delta
        p_hat = float(np.mean(exceed))
        p_se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / replicas) / replicas)
        terms = tail_bound_terms(consts, minimizers, cfg.eta, n)
        rhs = (5.0 / delta) * sum(terms.values()) if terms is not None else math.nan
        rows.append({"n": n, "p_hat": p_hat, "p_se": p_se, "rhs": rhs})
    return {
        "delta": delta,
        "rows": rows,
        "constants": consts,
        "replicas": replicas,
        "seed": cfg.seed,
    }


# -- exact Gaussian oracles for quadratic (squared-loss) objectives --


def quadratic_discrete_invariant(obj: ObjectiveSpec, cfg: ChainConfig):
    """Exact invariant Gaussian (mean, covariance) of the semi-implicit chain
    for the squared loss.  The mean equals the regularized minimizer for
    every step size; the covariance solves the discrete Lyapunov equation."""
    if obj.loss.tag != "squared":
        raise ValueError("exact invariant law available for the squared loss only")
    n = obj.n_modes
    phi = obj.features
    h_data = phi.T @ phi / obj.dataset.size + obj.lambda0 * np.eye(n)
    rhs = phi.T @ obj.dataset.y / obj.dataset.size
    mu = obj.kernel.eigenvalues(n)
    mean = np.linalg.solve(h_data + cfg.lam * np.diag(1.0 / mu), rhs)
    s = 1.0 / (1.0 + cfg.lam * cfg.eta / mu)
    t_mat = s[:, None] * (np.eye(n) - cfg.eta * h_data)
    q_mat = (2.0 * cfg.eta / cfg.beta) * np.diag(s**2)
    cov = scipy.linalg.solve_discrete_lyapunov(t_mat, q_mat)
    return mean, cov, h_data


def quadratic_gibbs_gap_exact(obj: ObjectiveSpec, cfg: ChainConfig) -> float:
    """Exact E[L] - L(x~) under the chain's invariant Gaussian (squared loss)."""
    _, cov, h_data = quadratic_discrete_invariant(obj, cfg)
    return 0.5 * float(np.trace(h_data @ cov))
