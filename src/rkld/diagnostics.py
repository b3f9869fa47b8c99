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

from .dynamics import ChainConfig, run_blocks
from .objective import MinimizerPair, ObjectiveSpec
from .spectral import KernelSpec, resolvent_scales, rkhs_norm

__all__ = [
    "TheoryConstants",
    "RateFit",
    "Verdict",
    "theory_constants",
    "spectral_gap_strict",
    "spectral_gap_bounded",
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
    "sgld_discrepancy_vs_m",
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
    a = resolvent_scales(kernel, lam, eta, n_modes)
    return (2.0 * eta / beta) * a**2 / (1.0 - a**2)


def ou_moment_bounds(
    kernel: KernelSpec, lam: float, eta: float, beta: float, n_modes: int
) -> tuple[float, float]:
    """(k(1), k(2)) bounds: k(2) is the exact stationary second moment of the
    noise-only chain started at 0, and k(1) <= sqrt(k(2)) by Jensen."""
    k2 = float(np.sum(ou_stationary_variances(kernel, lam, eta, beta, n_modes)))
    return math.sqrt(k2), k2


def spectral_gap_strict(lam: float, mu0: float, M: float, eta: float) -> float:
    """Strictly dissipative regime's geometric-ergodicity rate constant, the exact closed
    form (lam/mu0 - M) / (1 + eta lam/mu0); eta = 0 gives the continuous-time gap."""
    gap = lam / mu0 - M
    if gap <= 0:
        raise ValueError("strict regime requires lambda > M * mu0")
    return gap / (1.0 + eta * lam / mu0)


def spectral_gap_bounded(lam: float, mu0: float, eta: float, b: float, delta: float) -> float:
    """Bounded-gradient regime's rate constant for the Lyapunov offset b and a
    user-supplied recurrence probability delta: a formula evaluation, not a
    certified gap (delta's admissible range is only implicit in the theory).
    eta = 0 gives the continuous-time gap."""
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    # contraction over one unit of time; eta = 0 takes the exact limit
    rho_unit = math.exp(-lam / mu0) if eta == 0 else (1.0 + lam * eta / mu0) ** (-1.0 / eta)
    b_bar = max(b, 1.0)
    kappa_c = b_bar + 1.0
    v_bar = 4.0 * b_bar / (math.sqrt((1.0 + rho_unit) / 2.0) - rho_unit)
    return min(lam / (2.0 * mu0), 0.5) / (4.0 * math.log(kappa_c * (v_bar + 1.0) / (1.0 - delta))) * delta


def discrepancy_budget(n: int, beta: float, eta: float, n_tr: int, m: int) -> float:
    """Aggregate stochastic-gradient error quantity r_n = n beta eta (n_tr - m) / (m (n_tr - 1))."""
    if not (1 <= m <= n_tr):
        raise ValueError(f"minibatch size {m} out of range 1..{n_tr}")
    if n_tr < 2:
        raise ValueError(f"the discrepancy needs >= 2 data points, got {n_tr}")
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
    c_beta_rationale: str
    gibbs_bound: float
    x_tilde_hk_norm: float
    kappa: float
    delta: float | None


def theory_constants(
    obj: ObjectiveSpec,
    cfg: ChainConfig,
    minimizers: MinimizerPair,
    delta: float | None,
    kappa: float,
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
    k1, _ = ou_moment_bounds(obj.kernel, cfg.lam, cfg.eta, cfg.beta, cfg.n_modes)
    if regime == "strict":
        rho = (1.0 + cfg.eta * M) / (1.0 + cfg.lam * cfg.eta / mu0)
        b = float(np.linalg.norm(minimizers.x_star)) + 2.0 * k1 if minimizers.attained else None
        lam_eta = spectral_gap_strict(cfg.lam, mu0, M, cfg.eta)
        lam_0 = spectral_gap_strict(cfg.lam, mu0, M, 0.0)
        c_beta, rationale = 1.0, "strict dissipativity (lambda > M mu0), geometric regime, c_beta = 1"
    else:
        rho = 1.0 / (1.0 + cfg.lam * cfg.eta / mu0)
        b = (mu0 / cfg.lam) * B + k1
        if delta is not None:
            lam_eta = spectral_gap_bounded(cfg.lam, mu0, cfg.eta, b, delta)
            lam_0 = spectral_gap_bounded(cfg.lam, mu0, 0.0, b, delta)
        else:
            lam_eta = lam_0 = None
        c_beta, rationale = math.sqrt(cfg.beta), "bounded-gradient regime (lambda <= M mu0), c_beta = sqrt(beta)"
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
        c_beta_rationale=rationale,
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
    verdict: Verdict | None = None  # the claim's verdict, set by the rate experiment

    @property
    def slope_ci(self) -> tuple[float, float]:
        return (self.slope - 2.0 * self.slope_se, self.slope + 2.0 * self.slope_se)


_MIN_FIT_POINTS = 4  # usable points below which a log-log slope says nothing


def fit_loglog(abscissae, ordinates, ordinate_errors) -> RateFit:
    """Weighted least squares of log(ordinate) on log(abscissa).

    Points whose error bar covers half the ordinate are unusable (the sign of
    log-error would be MC noise); the fit is inconclusive when fewer than
    _MIN_FIT_POINTS survive, when MC noise exceeds half the smallest ordinate gap,
    or when the slope's own standard error exceeds 0.5 (a two-sigma interval
    wider than a full unit of slope says nothing).
    """
    x = np.asarray(abscissae, dtype=float)
    y = np.asarray(ordinates, dtype=float)
    err = np.asarray(ordinate_errors, dtype=float)
    usable = (y > 0) & (err < 0.5 * y)
    fit = RateFit(x, y, err, math.nan, math.nan, math.nan, inconclusive=True)
    if np.count_nonzero(usable) < _MIN_FIT_POINTS:
        fit.reason = f"only {np.count_nonzero(usable)} usable points, need {_MIN_FIT_POINTS}"
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


# -- verdicts: one rule per claim --


@dataclass(frozen=True)
class Verdict:
    """PASS, FAIL or INCONCLUSIVE; lines[0] is the line `rkld sweep` prints, all of lines its verdict file."""

    word: str
    lines: tuple[str, ...]


def _verdict(label: str, checks, sep: str = "; ") -> Verdict:
    """PASS when every (name, passed) check passes, else FAIL; the line gives every outcome."""
    word = "PASS" if all(passed for _, passed in checks) else "FAIL"
    return Verdict(word, (f"{word} {label}: " + sep.join(f"{name} = {passed}" for name, passed in checks),))


def _nonincreasing_within_3se(rows, key: str, se_key: str = "se") -> bool:
    """Each row's value is at most its predecessor's plus 3 combined standard errors."""
    return all(b[key] <= a[key] + 3.0 * math.hypot(a[se_key], b[se_key]) for a, b in zip(rows, rows[1:]))


def _fit_verdict(fit: RateFit, label: str, window: tuple[float, float], check: str, passed: bool) -> Verdict:
    """A rate claim: a conclusive fit, its slope in window and one more check, named on the first line if it fails."""
    if fit.inconclusive:
        return Verdict("INCONCLUSIVE", (f"INCONCLUSIVE {label}: {fit.reason}",))
    word = "PASS" if window[0] <= fit.slope <= window[1] and passed else "FAIL"
    lo, hi = fit.slope_ci
    return Verdict(word, (
        f"{word} {label}: slope {fit.slope:.4f} (CI [{lo:.4f}, {hi:.4f}]), expected within [{window[0]}, {window[1]}]"
        + ("" if passed else f"; {check} = False"),
        f"fit: slope {float(fit.slope)!r}, slope_se {float(fit.slope_se)!r}, intercept {float(fit.intercept)!r}",
    ))


def _weak_error_verdict(fit: RateFit) -> Verdict:
    """Weak error in eta: slope in [0.4, 1.3] with its two-sigma CI above 0."""
    return _fit_verdict(fit, "weak error vs eta", (0.4, 1.3), "slope CI above 0", fit.slope_ci[0] > 0.0)


def _galerkin_verdict(fit: RateFit) -> Verdict:
    """Galerkin error in N: slope in [0.5, 1.5], errors strictly increasing in the abscissa sqrt(mu_{N+1})."""
    increasing = bool(np.all(np.diff(fit.ordinates[np.argsort(fit.abscissae)]) > 0.0))
    label, check = "galerkin error vs sqrt(mu_{N+1})", "errors strictly increasing in sqrt(mu_{N+1})"
    return _fit_verdict(fit, label, (0.5, 1.5), check, increasing)


_GIBBS_SLACK = 10.0  # factor on the concentration bound, whose constants the theory hides


def _gibbs_verdict(rows) -> Verdict:
    """Gibbs concentration, rows in ascending beta: every beta stationary (else INCONCLUSIVE),
    gaps nonincreasing within 3 combined SE, and each gap within _GIBBS_SLACK times its bound."""
    if any(r["inconclusive"] for r in rows):
        return Verdict("INCONCLUSIVE", ("INCONCLUSIVE gibbs gap vs beta: stationarity check failed at some beta",))
    trend = ("monotone nonincreasing within 3 sigma", _nonincreasing_within_3se(rows, "gap"))
    bounded = (f"all gaps within {_GIBBS_SLACK}x closed-form bound", all(r["passes_bound"] for r in rows))
    return _verdict("gibbs gap vs beta", [trend, bounded], sep=", ")


def _sgld_verdict(rows, n_tr: int) -> Verdict:
    """SGLD discrepancy, rows in ascending m: discrepancy and r_n exactly 0 at
    m = n_tr when the grid reaches it, and nonincreasing within 3 combined SE."""
    full, checks = rows[-1], []
    if full["minibatch"] == n_tr:
        checks.append(("full-batch discrepancy exactly 0", full["discrepancy"] == 0.0 and full["r_n"] == 0.0))
    trend = ("discrepancy nonincreasing within 3 sigma", _nonincreasing_within_3se(rows, "discrepancy"))
    return _verdict("sgld discrepancy vs m", checks + [trend])


def _tail_verdict(rows) -> Verdict:
    """Tail shape, rows in ascending n: P(L(X_n) - L(x*) > delta) nonincreasing
    within binomial 3 sigma, and lower at the last n than at the first."""
    trend = ("nonincreasing within binomial 3 sigma", _nonincreasing_within_3se(rows, "p_hat", "p_se"))
    return _verdict("tail probability vs n", [trend, ("decays", rows[-1]["p_hat"] < rows[0]["p_hat"])])


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


def weak_error_vs_eta(
    obj: ObjectiveSpec,
    cfg_base: ChainConfig,
    etas,
    eta_ref: float,
    l_star: float,
    replicas: int,
) -> RateFit:
    """Invariant-law weak error against step size, by matched-seed Cesaro tails.

    error(eta) = |Cesaro tail at eta - Cesaro tail at eta_ref| with SEs
    propagated; the fitted log-log slope estimates the weak order in eta.
    One engine call runs every step size: the grid shares chain ids 0..R-1,
    the reference runs on its own ids.
    """
    etas = sorted(etas)
    if eta_ref > min(etas) / 8.0:
        raise ValueError(f"eta_ref = {eta_ref} exceeds min(eta_grid)/8 = {min(etas) / 8.0}")
    ids = list(range(replicas))
    blocks = [
        (replace(cfg_base, eta=eta), obj, chain_ids, ())
        for eta, chain_ids in [(eta_ref, [2_000_000 + r for r in ids])] + [(eta, ids) for eta in etas]
    ]
    results = run_blocks(blocks, l_star=l_star, checkpoints=(cfg_base.horizon,))
    (ref, ref_se), *points = [_replica_mean_se(block.final_cesaro_phi) for block in results]
    errs = [abs(value - ref) for value, _ in points]
    ses = [math.hypot(se, ref_se) for _, se in points]
    fit = fit_loglog(np.array(etas), np.array(errs), np.array(ses))
    fit.verdict = _weak_error_verdict(fit)
    return fit


def galerkin_error_vs_n(
    make_objective,
    cfg_base: ChainConfig,
    n_list,
    n_ref: int,
    replicas: int,
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
        raise ValueError(f"n_ref = {n_ref} is below 4 * max(n_grid) = {4 * max(n_list)}")
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
        (replace(cfg_base, n_modes=n_modes), obj, ids, ())
        for n_modes, obj in [(n_ref + 1, obj_ref)] + [(n + 1, make_objective(n + 1)) for n in n_list]
    ]
    ref, *points = run_blocks(blocks, l_star=l_star, checkpoints=(cfg_base.horizon,))
    mu = obj_ref.kernel.eigenvalues(max(n_list) + 2)
    errs, ses, absc = [], [], []
    for n, point in zip(n_list, points):
        mean, se = _replica_mean_se(point.final_cesaro_phi - ref.final_cesaro_phi)
        errs.append(abs(mean))
        ses.append(se)
        absc.append(math.sqrt(mu[n + 1]))
    fit = fit_loglog(np.array(absc), np.array(errs), np.array(ses))
    fit.verdict = _galerkin_verdict(fit)
    return fit


def gibbs_gap_vs_beta(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    betas,
    replicas: int,
    minimizer: tuple | None = None,
) -> tuple[list[dict], Verdict]:
    """Empirical concentration gap at each inverse temperature, in one engine
    call: Cesaro average of L minus L(x~), with cfg.beta replaced by each
    beta; one row per beta, ascending, and the claim's verdict.

    Requires a fine discretization (eta <= 0.01, N >= 64).  Each row
    compares its gap against the closed-form concentration bound scaled by the slack
    factor _GIBBS_SLACK (the theory hides constants).  A first-half/second-half Cesaro
    disagreement beyond 3 sigma, or one replica (no sigma), marks an
    estimate inconclusive.  Every beta runs on chain ids 0..R-1.
    """
    if cfg.mode == "ou":
        raise ValueError("mode = ou: the OU chain ignores the loss, so it has no Gibbs gap")
    retained = cfg.horizon - cfg.burn_in_steps
    if cfg.eta > 0.01 or cfg.n_modes < 65 or retained < 2:
        got = f"eta = {cfg.eta}, n_modes = {cfg.n_modes} and {retained} retained steps"
        raise ValueError(f"the Gibbs gap needs eta <= 0.01, n_modes >= 65 and 2 retained steps, got {got}")
    betas = sorted(betas)
    cfgs = [replace(cfg, beta=beta) for beta in betas]
    if minimizer is None:
        minimizer = obj.regularized_minimizer(cfg.lam)
    x_tilde, l_tilde = minimizer
    trackers = [_CesaroTracker(c) for c in cfgs]
    ids = list(range(replicas))
    blocks = [(c, obj, ids, (tracker,)) for c, tracker in zip(cfgs, trackers)]
    results = run_blocks(blocks, l_star=l_tilde, checkpoints=(cfg.horizon,))
    M = obj.smoothness_constant()
    x_tilde_hk = rkhs_norm(x_tilde, obj.kernel)
    out = []
    for c, tracker, summary in zip(cfgs, trackers, results):
        mean_l = summary.final_cesaro_risk
        gap, se = _replica_mean_se(mean_l - l_tilde)
        # stationarity: first-half vs second-half Cesaro averages of L
        first = tracker.sum_risk_first / tracker.half_point
        second = (mean_l * retained - tracker.sum_risk_first) / (retained - tracker.half_point)
        half_mean, half_se = _replica_mean_se(first - second)
        nonstationary = not math.isfinite(half_se) or abs(half_mean) > 3.0 * max(half_se, 1e-300)
        bound = gibbs_concentration_bound(M, c.lam, c.beta, x_tilde_hk)
        out.append(
            dict(gap=gap, se=se, bound=bound, slack=_GIBBS_SLACK, passes_bound=gap <= _GIBBS_SLACK * bound,
                 inconclusive=nonstationary, replicas=replicas, seed=c.seed)
        )
    return out, _gibbs_verdict(out)


def gibbs_gap_empirical(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    replicas: int,
    minimizer: tuple | None = None,
) -> dict:
    """gibbs_gap_vs_beta at the config's own beta."""
    return gibbs_gap_vs_beta(cfg, obj, [cfg.beta], replicas, minimizer)[0][0]


def sgld_discrepancy_vs_m(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    l_star: float,
    ms,
    replicas: int,
) -> tuple[list[dict], Verdict]:
    """Empirical |E phi(X_n) - E phi(Y_n)| between GLD and SGLD sharing noise
    seeds, at each minibatch size m in ms, ascending, in one engine call; and the claim's verdict.

    One GLD block and one SGLD block per m run on chain ids 0..R-1, so
    every block reads the same noise and each m is paired with the one GLD
    reference.  The minibatch stream is independent of the noise stream, so
    at m = n_tr the two trajectories coincide exactly.  Reports, per m, the
    exact r_n, the paired-replica discrepancy with its SE, and the fitted
    constant discrepancy / (sqrt(r_n) + r_n^(1/4)).
    """
    if cfg.mode == "ou":
        raise ValueError("mode = ou: the discrepancy compares GLD with SGLD, so mode must be gld or sgld")
    n_tr, ms = obj.dataset.size, sorted(ms)
    budgets = [discrepancy_budget(cfg.horizon, cfg.beta, cfg.eta, n_tr, m) for m in ms]
    ids = list(range(replicas))
    # only the horizon's phi is read: retain one step, skip the Cesaro sums
    cfg = replace(cfg, burn_in=cfg.horizon - 1)
    cfgs = [replace(cfg, mode="gld", minibatch=None)] + [replace(cfg, mode="sgld", minibatch=m) for m in ms]
    gld, *sgld = run_blocks([(c, obj, ids, ()) for c in cfgs], l_star=l_star, checkpoints=(cfg.horizon,))
    out = []
    for m, rn, summary in zip(ms, budgets, sgld):
        mean, se = _replica_mean_se(gld.phi[:, -1] - summary.phi[:, -1])
        disc, shape = abs(mean), math.sqrt(rn) + rn**0.25
        out.append(
            dict(discrepancy=disc, se=se, r_n=rn, bound_shape=shape, c_fit=disc / shape if shape > 0 else math.nan,
                 replicas=replicas, seed=cfg.seed, minibatch=m)
        )
    return out, _sgld_verdict(out, n_tr)


def sgld_discrepancy(
    cfg: ChainConfig,
    obj: ObjectiveSpec,
    l_star: float,
    replicas: int,
) -> dict:
    """sgld_discrepancy_vs_m at the config's own minibatch size (None: full batch)."""
    m = cfg.minibatch if cfg.minibatch is not None else obj.dataset.size
    return sgld_discrepancy_vs_m(cfg, obj, l_star, [m], replicas)[0][0]


_OU_HAS_NO_TAIL = "mode = ou: the OU chain ignores the loss, so it has no tail of L to bound"


def tail_bound_terms(
    consts: TheoryConstants, minimizers: MinimizerPair, cfg: ChainConfig, n: int, tail_delta: float
) -> tuple[float, dict[str, float], float, str | None]:
    """The tail bound at step n of cfg's chain: the Markov factor 5/tail_delta (the 1/sigma(delta) <= 5/delta
    relaxation), the terms it multiplies, keyed by formula, the right-hand side, their product with unit
    leading constants, and why that is nan (None when it is not).  Without a spectral gap the terms are
    empty; under mode = sgld the terms are GLD's, and the right-hand side is nan, since the SGLD bound adds
    a minibatch discrepancy term they do not hold; under mode = ou it is nan too, since that chain ignores
    the loss."""
    markov = 5.0 / tail_delta
    if consts.lambda_eta is None or consts.lambda_0 is None:
        return markov, {}, math.nan, "spectral gap needs [experiment] delta in the bounded regime; terms n/a"
    terms = {
        "exp(-Lambda*_eta (eta n - 1))": math.exp(-consts.lambda_eta * (cfg.eta * n - 1.0)),
        "(c_beta / Lambda*_0) eta^(1/2 - kappa)": (consts.c_beta / consts.lambda_0)
        * cfg.eta ** (0.5 - consts.kappa),
        "gibbs concentration term": consts.gibbs_bound,
        "L(x~) - L(x*)": minimizers.l_tilde - minimizers.l_star,
    }
    if cfg.mode == "sgld":
        return markov, terms, math.nan, (
            "mode = sgld: these are GLD's terms; the SGLD bound adds a minibatch discrepancy term, so the total is nan"
        )
    if cfg.mode == "ou":
        return markov, terms, math.nan, _OU_HAS_NO_TAIL
    return markov, terms, markov * sum(terms.values()), None


def theorem_tail_bound(
    cfg: ChainConfig, obj: ObjectiveSpec, minimizers: MinimizerPair, consts: TheoryConstants,
    tail_delta: float, replicas: int,
) -> tuple[list[dict], Verdict]:
    """Empirical P(L(X_n) - L(x*) > tail_delta) at n = horizon // 25, horizon // 5 and horizon, one row per n
    next to the bound's right-hand side on consts, theory_constants(obj, cfg, minimizers, ...); and the
    claim's verdict.  The right-hand side is tail_bound_terms', nan under mode = sgld."""
    if cfg.mode == "ou":
        raise ValueError(_OU_HAS_NO_TAIL)
    steps = [cfg.horizon // 25, cfg.horizon // 5, cfg.horizon]
    if steps[0] < 1:  # at horizon >= 25 the steps are distinct and >= 1
        raise ValueError(f"the tail steps horizon // 25, horizon // 5 and horizon are {steps}: horizon must be >= 25")
    if not (0.0 < tail_delta < 1.0):
        raise ValueError("tail_delta must be in (0, 1)")
    if cfg.x0 is not None and np.linalg.norm(cfg.x0) > 1.0 + 1e-12:
        raise ValueError("theorem evaluation requires ||x0|| <= 1")
    # the risk at a checkpoint is recorded whether or not the step is retained:
    # retain only the last step, which skips the Cesaro sums' evaluations
    block = (replace(cfg, burn_in=cfg.horizon - 1), obj, list(range(replicas)), ())
    [summary] = run_blocks([block], l_star=minimizers.l_star, checkpoints=steps)
    rows = []
    for k, n in enumerate(steps, start=1):  # column 0 is step 0
        p_hat = float(np.mean(summary.risk[:, k] - minimizers.l_star > tail_delta))
        p_se = math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / replicas) / replicas)
        rhs = tail_bound_terms(consts, minimizers, cfg, n, tail_delta)[2]
        rows.append({"n": n, "p_hat": p_hat, "p_se": p_se, "rhs": rhs})
    return rows, _tail_verdict(rows)


# -- exact Gaussian oracles for quadratic (squared-loss) objectives --


def quadratic_discrete_invariant(obj: ObjectiveSpec, cfg: ChainConfig):
    """Exact invariant Gaussian (mean, covariance) of the semi-implicit chain
    for the squared loss.  The mean equals the regularized minimizer for
    every step size; the covariance solves the discrete Lyapunov equation
    C = T C T^T + Q with T = S (I - eta H) and Q = (2 eta / beta) S^2.

    With D = S^(1/2), T = D M D^-1 for the symmetric M = D (I - eta H) D, so
    one eigendecomposition M = V diag(l) V^T gives C = (D V) Y (D V)^T with
    Y_ij = (V^T (2 eta / beta) S V)_ij / (1 - l_i l_j).  Raises ValueError
    when the spectral radius max |l_i| of T is >= 1 (no invariant law)."""
    if obj.loss.tag != "squared":
        raise ValueError("exact invariant law available for the squared loss only")
    n = obj.n_modes
    phi = obj.features
    h_data = phi.T @ phi / obj.dataset.size + obj.lambda0 * np.eye(n)
    rhs = phi.T @ obj.dataset.y / obj.dataset.size
    mu = obj.kernel.eigenvalues(n)
    mean = np.linalg.solve(h_data + cfg.lam * np.diag(1.0 / mu), rhs)
    s = resolvent_scales(obj.kernel, cfg.lam, cfg.eta, n)
    d = np.sqrt(s)
    lam_t, v = np.linalg.eigh(d[:, None] * (np.eye(n) - cfg.eta * h_data) * d)
    rho = float(np.max(np.abs(lam_t)))
    if rho >= 1.0:
        raise ValueError(
            f"the chain has no invariant law: spectral radius of T = S(I - eta H) is {rho:.6g} >= 1"
        )
    y = (2.0 * cfg.eta / cfg.beta) * ((v.T * s) @ v) / (1.0 - np.outer(lam_t, lam_t))
    dv = d[:, None] * v
    cov = dv @ y @ dv.T
    return mean, cov, h_data


def quadratic_gibbs_gap_exact(obj: ObjectiveSpec, cfg: ChainConfig) -> float:
    """Exact E[L] - L(x~) under the chain's invariant Gaussian (squared loss)."""
    _, cov, h_data = quadratic_discrete_invariant(obj, cfg)
    return 0.5 * float(np.trace(h_data @ cov))
