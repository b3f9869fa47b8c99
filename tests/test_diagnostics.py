import math

import numpy as np
import pytest

from rkld import diagnostics, dynamics
from rkld.diagnostics import (
    discrepancy_budget,
    fit_loglog,
    galerkin_error_vs_n,
    gibbs_concentration_bound,
    gibbs_gap_empirical,
    ou_moment_bounds,
    ou_stationary_variances,
    quadratic_discrete_invariant,
    quadratic_gibbs_gap_exact,
    sgld_discrepancy,
    spectral_gap,
    theorem_tail_bound,
    theory_constants,
    weak_error_vs_eta,
)
from rkld.dynamics import ChainConfig, run_chain
from rkld.objective import Dataset, ObjectiveSpec, loss_family
from rkld.spectral import KernelSpec, SpectralVector


def make_objective(n_modes=6, loss="squared", gamma=1.5, n=8, seed=5, kind="regression"):
    ds = Dataset.synthesize(n, seed=seed, kind=kind)
    return ObjectiveSpec(ds, loss_family(loss), KernelSpec(gamma=gamma), n_modes)


class TestClosedForms:
    def test_ou_variance_mode_zero(self):
        v = ou_stationary_variances(KernelSpec(), lam=1.0, eta=0.5, beta=2.0, n_modes=1)
        assert v[0] == pytest.approx(0.4, abs=1e-15)

    def test_ou_variance_general_formula(self):
        kernel = KernelSpec(mu0=0.5)
        v = ou_stationary_variances(kernel, lam=2.0, eta=0.1, beta=4.0, n_modes=5)
        a = 1.0 / (1.0 + 2.0 * 0.1 / kernel.eigenvalues(5))
        assert np.allclose(v, 0.05 * a**2 / (1.0 - a**2), atol=1e-16)
        assert np.all(np.diff(v) < 0)

    def test_moment_bounds_jensen(self):
        k1, k2 = ou_moment_bounds(KernelSpec(), 1.0, 0.5, 2.0, 8)
        assert k1 == pytest.approx(math.sqrt(k2), abs=1e-15)
        assert k2 > 0

    def test_spectral_gap_strict(self):
        assert spectral_gap("strict", 2.0, 1.0, 1.0, 0.0) == pytest.approx(1.0)
        assert spectral_gap("strict", 2.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
        with pytest.raises(ValueError):
            spectral_gap("strict", 1.0, 1.0, 2.0, 0.1)

    def test_strict_gap_contraction_identity(self):
        # 1 - eta * gap(eta) == (1 + eta M) / (1 + eta lam / mu0)
        for lam, mu0, M, eta in [(2.0, 1.0, 1.0, 0.3), (6.0, 0.5, 2.0, 0.05)]:
            gap = spectral_gap("strict", lam, mu0, M, eta)
            rho = (1.0 + eta * M) / (1.0 + eta * lam / mu0)
            assert 1.0 - eta * gap == pytest.approx(rho, abs=1e-12)

    def test_spectral_gap_bounded_requires_inputs(self):
        with pytest.raises(ValueError):
            spectral_gap("bounded", 1.0, 1.0, 2.0, 0.1)
        with pytest.raises(ValueError):
            spectral_gap("bounded", 1.0, 1.0, 2.0, 0.1, b=1.0, delta=1.5)
        g = spectral_gap("bounded", 1.0, 1.0, 2.0, 0.1, b=1.0, delta=0.5)
        assert 0 < g < 1

    def test_spectral_gap_bounded_exact_limit(self):
        # eta = 0 uses exp(-lam/mu0), the limit of (1 + lam eta/mu0)^(-1/eta)
        lam, mu0, b, delta = 0.5, 2.0, 3.0, 0.4
        r = math.exp(-lam / mu0)
        v_bar = 4.0 * b / (math.sqrt((1.0 + r) / 2.0) - r)
        expect = lam / (2.0 * mu0) / (4.0 * math.log((b + 1.0) * (v_bar + 1.0) / (1.0 - delta))) * delta
        assert spectral_gap("bounded", lam, mu0, 1.0, 0.0, b=b, delta=delta) == pytest.approx(
            expect, rel=1e-12
        )
        near = spectral_gap("bounded", lam, mu0, 1.0, 1e-6, b=b, delta=delta)
        assert near == pytest.approx(expect, rel=1e-5)

    def test_discrepancy_budget(self):
        assert discrepancy_budget(10, 1.0, 0.1, 10, 5) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert discrepancy_budget(10, 1.0, 0.1, 10, 10) == 0.0
        with pytest.raises(ValueError):
            discrepancy_budget(10, 1.0, 0.1, 10, 11)

    def test_gibbs_concentration_bound(self):
        assert gibbs_concentration_bound(2.0, 1.0, 4.0, 1.0) == pytest.approx(2.25, abs=1e-15)
        with pytest.raises(ValueError):
            gibbs_concentration_bound(-1.0, 1.0, 4.0, 1.0)

    def test_sigmoid_statistic(self):
        # the engine's phi column at step 0 is sigma(L(x0) - l_star)
        obj = make_objective()
        x = SpectralVector.zeros(6)
        l0 = float(obj.risk_array(x.coeffs))
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=1.0, n_modes=6, seed=1, horizon=1, x0=x)
        assert run_chain(cfg, obj, l_star=l0).phi[0] == 0.0
        assert run_chain(cfg, obj, l_star=l0 - 1.0).phi[0] == pytest.approx(0.2310585786, abs=1e-9)


class TestTheoryConstants:
    def test_strict_regime_table(self):
        obj = make_objective()
        M = obj.smoothness_constant()
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=4.0 * M, n_modes=6, seed=1, horizon=100)
        c = theory_constants(obj, cfg)
        assert c.regime == "strict"
        assert c.m == pytest.approx((4.0 * M - M) / 2.0, rel=1e-12)
        assert c.rho == pytest.approx((1.0 + 0.05 * M) / (1.0 + 0.05 * 4.0 * M), rel=1e-12)
        assert c.rho < 1.0
        assert 1.0 - cfg.eta * c.lambda_eta == pytest.approx(c.rho, abs=1e-12)
        assert c.c_beta == 1.0
        assert c.lambda_0 == pytest.approx(3.0 * M, rel=1e-12)
        assert c.gibbs_bound > 0
        pair = obj.find_minimizers(cfg.lam)
        assert c.b == pytest.approx(pair.x_star.norm() + 2.0 * c.k1, rel=1e-12)

    def test_strict_regime_without_x_star(self):
        obj = make_objective(loss="logistic", kind="classification", n_modes=8)
        M = obj.smoothness_constant()
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=4.0 * M, n_modes=8, seed=1, horizon=100)
        pair = obj.find_minimizers(cfg.lam)
        assert not pair.attained  # 8 points, 8 modes: separable
        c = theory_constants(obj, cfg, pair)
        assert c.regime == "strict" and c.b is None
        assert c.lambda_0 == pytest.approx(3.0 * M, rel=1e-12)

    def test_bounded_regime_table(self):
        obj = make_objective(loss="savage", kind="classification")
        M = obj.smoothness_constant()
        lam = 0.25 * M
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=lam, n_modes=6, seed=1, horizon=100)
        c = theory_constants(obj, cfg, delta=0.5)
        assert c.regime == "bounded"
        assert c.rho == pytest.approx(1.0 / (1.0 + lam * 0.05), rel=1e-12)
        assert c.b == pytest.approx((1.0 / lam) * obj.gradient_bound() + c.k1, rel=1e-12)
        assert c.c_beta == pytest.approx(2.0)
        assert c.lambda_eta is not None and c.lambda_eta > 0
        assert c.lambda_0 == spectral_gap("bounded", lam, obj.kernel.mu0, M, 0.0, b=c.b, delta=0.5)
        no_delta = theory_constants(obj, cfg)
        assert no_delta.lambda_eta is None


class TestFitLoglog:
    def test_recovers_exact_power_law(self):
        x = np.array([0.2, 0.1, 0.05, 0.025])
        y = 3.0 * x**1.7
        fit = fit_loglog(x, y, np.full(4, 1e-9) * y)
        assert not fit.inconclusive
        assert fit.slope == pytest.approx(1.7, abs=1e-6)
        lo, hi = fit.slope_ci
        assert lo <= 1.7 <= hi

    def test_too_few_points_inconclusive(self):
        x = np.array([0.2, 0.1, 0.05])
        fit = fit_loglog(x, x, np.zeros(3))
        assert fit.inconclusive and "usable" in fit.reason

    def test_noise_dominated_point_dropped(self):
        x = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
        y = x.copy()
        err = np.array([1e-6, 1e-6, 1e-6, 1e-6, 1.0])  # last point is pure noise
        fit = fit_loglog(x, y, err)
        assert not fit.inconclusive
        assert fit.slope == pytest.approx(1.0, abs=1e-4)

    def test_noise_exceeding_gap_inconclusive(self):
        x = np.array([0.2, 0.1, 0.05, 0.025])
        y = np.array([1.0, 1.001, 1.002, 1.003])
        fit = fit_loglog(x, y, np.full(4, 0.01))
        assert fit.inconclusive


class TestEstimators:
    def _cfg(self, **kw):
        base = dict(eta=0.05, beta=4.0, lam=6.0, n_modes=6, seed=42, horizon=2000)
        base.update(kw)
        return ChainConfig(**base)

    def test_weak_error_vs_eta_reproducible(self):
        obj = make_objective()
        cfg = self._cfg(horizon=1000)
        a, b = (weak_error_vs_eta(obj, cfg, [0.2, 0.1, 0.05, 0.025], 0.003, 0.1, replicas=4) for _ in range(2))
        for field in ("abscissae", "ordinates", "ordinate_errors"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert np.all(a.ordinate_errors > 0)
        assert np.array_equal(a.abscissae, [0.025, 0.05, 0.1, 0.2])

    def test_galerkin_sweep_is_one_engine_call(self, monkeypatch):
        # three dimensions plus the reference on 4 shared chain ids: one engine
        # call and one noise stream per chain id (an engine call and 4 streams
        # per dimension, 16 in all, when each dimension ran alone)
        engine_calls, streams = [], []
        run_blocks, make_rng = diagnostics.run_blocks, dynamics.make_rng
        monkeypatch.setattr(diagnostics, "run_blocks", lambda *a, **k: engine_calls.append(1) or run_blocks(*a, **k))
        monkeypatch.setattr(dynamics, "make_rng", lambda *a: streams.append(a) or make_rng(*a))
        fit = galerkin_error_vs_n(lambda n: make_objective(n_modes=n), self._cfg(horizon=300), [1, 2, 3], 12, replicas=4)
        assert len(engine_calls) == 1
        assert sorted(streams) == [(42, r, 0) for r in range(4)]
        assert fit.ordinates.shape == (3,) and np.all(np.isfinite(fit.ordinates))

    def test_sgld_full_batch_discrepancy_is_zero(self):
        obj = make_objective(n=8)
        cfg = self._cfg(minibatch=8, horizon=500)
        out = sgld_discrepancy(cfg, obj, l_star=0.1, replicas=8)
        assert out["discrepancy"] == 0.0
        assert out["r_n"] == 0.0

    def test_sgld_minibatch_discrepancy_positive_budget(self):
        obj = make_objective(n=8)
        cfg = self._cfg(minibatch=2, horizon=500)
        out = sgld_discrepancy(cfg, obj, l_star=0.1, replicas=8)
        assert out["r_n"] == pytest.approx(
            500 * 4.0 * 0.05 * (8 - 2) / (2 * 7), rel=1e-12
        )
        assert out["bound_shape"] == pytest.approx(
            math.sqrt(out["r_n"]) + out["r_n"] ** 0.25, rel=1e-12
        )

    def test_gibbs_gap_needs_two_retained_steps(self):
        # the stationarity check compares two nonempty halves of the retained steps
        cfg = ChainConfig(eta=0.01, beta=4.0, lam=6.0, n_modes=65, seed=7, horizon=1)
        with pytest.raises(ValueError, match="2 retained steps"):
            gibbs_gap_empirical(cfg, make_objective(n_modes=65), replicas=2)

    def test_theorem_tail_bound_structure(self):
        obj = make_objective()
        M = obj.smoothness_constant()
        cfg = ChainConfig(eta=0.1, beta=4.0, lam=4.0 * M, n_modes=6, seed=3, horizon=300)
        out = theorem_tail_bound(cfg, obj, delta=0.2, checkpoints=[10, 50, 250], replicas=20)
        ns = [r["n"] for r in out["rows"]]
        assert ns == [10, 50, 250]
        for r in out["rows"]:
            assert 0.0 <= r["p_hat"] <= 1.0
            assert r["p_se"] > 0
            assert math.isfinite(r["rhs"]) and r["rhs"] > 0

    def test_theorem_tail_bound_rejects_large_x0(self):
        obj = make_objective()
        M = obj.smoothness_constant()
        cfg = ChainConfig(
            eta=0.1,
            beta=4.0,
            lam=4.0 * M,
            n_modes=6,
            seed=3,
            horizon=100,
            x0=SpectralVector(np.full(6, 2.0)),
        )
        with pytest.raises(ValueError):
            theorem_tail_bound(cfg, obj, delta=0.2, checkpoints=[10], replicas=4)


class TestQuadraticOracle:
    def _setup(self):
        obj = make_objective(n_modes=6)
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=2.0, n_modes=6, seed=9, horizon=100)
        return obj, cfg

    def test_mean_is_regularized_minimizer(self):
        obj, cfg = self._setup()
        mean, cov, _ = quadratic_discrete_invariant(obj, cfg)
        x_tilde, _ = obj.regularized_minimizer(cfg.lam)
        assert np.max(np.abs(mean - x_tilde.coeffs)) < 1e-12

    def test_covariance_solves_fixed_point(self):
        obj, cfg = self._setup()
        _, cov, h = quadratic_discrete_invariant(obj, cfg)
        mu = obj.kernel.eigenvalues(6)
        s = 1.0 / (1.0 + cfg.lam * cfg.eta / mu)
        t = s[:, None] * (np.eye(6) - cfg.eta * h)
        q = (2.0 * cfg.eta / cfg.beta) * np.diag(s**2)
        assert np.max(np.abs(t @ cov @ t.T + q - cov)) < 1e-12
        assert np.min(np.linalg.eigvalsh(cov)) > 0

    def test_gibbs_gap_exact_positive_and_scales_with_temperature(self):
        obj, cfg = self._setup()
        g4 = quadratic_gibbs_gap_exact(obj, cfg)
        from dataclasses import replace

        g8 = quadratic_gibbs_gap_exact(obj, replace(cfg, beta=8.0))
        assert g4 > 0
        assert g8 == pytest.approx(g4 / 2.0, rel=1e-12)

    def test_gibbs_gap_empirical_with_ridge_matches_exact(self):
        # L(X_n) and L(x~) both carry the lambda0 ridge term; dropping it from
        # the Cesaro average of L(X_n) misses the exact gap by about 24 SE
        ds = Dataset.synthesize(24, seed=7)
        obj = ObjectiveSpec(ds, loss_family("squared"), KernelSpec(), 65, lambda0=0.5)
        cfg = ChainConfig(eta=0.01, beta=4.0, lam=6.0, n_modes=65, seed=7, horizon=5000)
        out = gibbs_gap_empirical(cfg, obj, replicas=8)
        assert abs(out["gap"] - quadratic_gibbs_gap_exact(obj, cfg)) <= 3.0 * out["se"]

    def test_rejects_non_quadratic(self):
        obj = make_objective(loss="logistic")
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=2.0, n_modes=6, seed=9, horizon=100)
        with pytest.raises(ValueError):
            quadratic_discrete_invariant(obj, cfg)
