import collections
import math
import re
from dataclasses import replace

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
    sgld_discrepancy_vs_m,
    spectral_gap_bounded,
    spectral_gap_strict,
    tail_bound_terms,
    theorem_tail_bound,
    theory_constants,
    weak_error_vs_eta,
)
from rkld.dynamics import ChainConfig, run_blocks, run_chain
from rkld.objective import Dataset, LossFamily, ObjectiveSpec, loss_family
from rkld.spectral import KernelSpec


def make_objective(n_modes=6, loss="squared", gamma=1.5, n=8, seed=5, kind="regression"):
    ds = Dataset.synthesize(n, seed=seed, kind=kind)
    return ObjectiveSpec(ds, loss_family(loss), KernelSpec(gamma=gamma), n_modes)


def tail_bound(cfg, obj, replicas):
    """theorem_tail_bound at tail_delta = 0.2 as `rkld sweep --axis tail` calls
    it on a config with no delta."""
    mins = obj.find_minimizers(cfg.lam)
    consts = theory_constants(obj, cfg, mins, delta=None)
    return theorem_tail_bound(cfg, obj, mins, consts, 0.2, replicas)


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
        assert spectral_gap_strict(2.0, 1.0, 1.0, 0.0) == pytest.approx(1.0)
        assert spectral_gap_strict(2.0, 1.0, 1.0, 1.0) == pytest.approx(1.0 / 3.0)
        with pytest.raises(ValueError):
            spectral_gap_strict(1.0, 1.0, 2.0, 0.1)

    def test_strict_gap_contraction_identity(self):
        # 1 - eta * gap(eta) == (1 + eta M) / (1 + eta lam / mu0)
        for lam, mu0, M, eta in [(2.0, 1.0, 1.0, 0.3), (6.0, 0.5, 2.0, 0.05)]:
            gap = spectral_gap_strict(lam, mu0, M, eta)
            rho = (1.0 + eta * M) / (1.0 + eta * lam / mu0)
            assert 1.0 - eta * gap == pytest.approx(rho, abs=1e-12)

    def test_spectral_gap_bounded_requires_inputs(self):
        # delta is a probability: the formula is defined for delta in (0, 1) only
        with pytest.raises(ValueError, match="delta must lie in"):
            spectral_gap_bounded(1.0, 1.0, 0.1, b=1.0, delta=1.5)
        g = spectral_gap_bounded(1.0, 1.0, 0.1, b=1.0, delta=0.5)
        assert 0 < g < 1

    def test_spectral_gap_bounded_exact_limit(self):
        # eta = 0 uses exp(-lam/mu0), the limit of (1 + lam eta/mu0)^(-1/eta)
        lam, mu0, b, delta = 0.5, 2.0, 3.0, 0.4
        r = math.exp(-lam / mu0)
        v_bar = 4.0 * b / (math.sqrt((1.0 + r) / 2.0) - r)
        expect = lam / (2.0 * mu0) / (4.0 * math.log((b + 1.0) * (v_bar + 1.0) / (1.0 - delta))) * delta
        assert spectral_gap_bounded(lam, mu0, 0.0, b=b, delta=delta) == pytest.approx(
            expect, rel=1e-12
        )
        near = spectral_gap_bounded(lam, mu0, 1e-6, b=b, delta=delta)
        assert near == pytest.approx(expect, rel=1e-5)

    def test_discrepancy_budget(self):
        assert discrepancy_budget(10, 1.0, 0.1, 10, 5) == pytest.approx(1.0 / 9.0, abs=1e-15)
        assert discrepancy_budget(10, 1.0, 0.1, 10, 10) == 0.0
        with pytest.raises(ValueError):
            discrepancy_budget(10, 1.0, 0.1, 10, 11)

    def test_gibbs_concentration_bound(self):
        assert gibbs_concentration_bound(2.0, 1.0, 4.0, 1.0) == pytest.approx(2.25, abs=1e-15)
        # a loss flat in u (a margin loss on all-zero labels) has M = 0, where the bound is finite
        assert gibbs_concentration_bound(0.0, 6.0, 4.0, 0.0) == 0.25
        for args in [(-1.0, 1.0, 4.0, 1.0), (2.0, 0.0, 4.0, 1.0), (2.0, 1.0, 0.0, 1.0), (2.0, 1.0, 4.0, -1.0)]:
            with pytest.raises(ValueError, match="lambda and beta must be positive, M and the norm nonnegative"):
                gibbs_concentration_bound(*args)

    def test_sigmoid_statistic(self):
        # the engine's phi column at step 0 is sigma(L(x0) - l_star)
        obj = make_objective()
        x = np.zeros(6)
        l0 = float(obj.risk_array(x))
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=1.0, n_modes=6, seed=1, horizon=1, x0=x)
        assert run_chain(cfg, obj, l_star=l0).phi[0, 0] == 0.0
        assert run_chain(cfg, obj, l_star=l0 - 1.0).phi[0, 0] == pytest.approx(0.2310585786, abs=1e-9)


class TestTheoryConstants:
    def test_strict_regime_table(self):
        obj = make_objective()
        M = obj.smoothness_constant()
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=4.0 * M, n_modes=6, seed=1, horizon=100)
        pair = obj.find_minimizers(cfg.lam)
        c = theory_constants(obj, cfg, pair, delta=None)
        assert c.regime == "strict"
        assert c.m == pytest.approx((4.0 * M - M) / 2.0, rel=1e-12)
        assert c.rho == pytest.approx((1.0 + 0.05 * M) / (1.0 + 0.05 * 4.0 * M), rel=1e-12)
        assert c.rho < 1.0
        assert 1.0 - cfg.eta * c.lambda_eta == pytest.approx(c.rho, abs=1e-12)
        assert c.c_beta == 1.0
        assert c.lambda_0 == pytest.approx(3.0 * M, rel=1e-12)
        assert c.gibbs_bound > 0
        assert c.b == pytest.approx(np.linalg.norm(pair.x_star) + 2.0 * c.k1, rel=1e-12)

    def test_strict_regime_without_x_star(self):
        obj = make_objective(loss="logistic", kind="classification", n_modes=8)
        M = obj.smoothness_constant()
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=4.0 * M, n_modes=8, seed=1, horizon=100)
        pair = obj.find_minimizers(cfg.lam)
        assert not pair.attained  # 8 points, 8 modes: separable
        c = theory_constants(obj, cfg, pair, delta=None)
        assert c.regime == "strict" and c.b is None
        assert c.lambda_0 == pytest.approx(3.0 * M, rel=1e-12)

    def test_bounded_regime_table(self):
        obj = make_objective(loss="savage", kind="classification")
        M = obj.smoothness_constant()
        lam = 0.25 * M
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=lam, n_modes=6, seed=1, horizon=100)
        pair = obj.find_minimizers(cfg.lam)
        c = theory_constants(obj, cfg, pair, delta=0.5)
        assert c.regime == "bounded"
        assert c.rho == pytest.approx(1.0 / (1.0 + lam * 0.05), rel=1e-12)
        assert c.b == pytest.approx((1.0 / lam) * obj.gradient_bound() + c.k1, rel=1e-12)
        assert c.c_beta == pytest.approx(2.0)
        assert c.lambda_eta is not None and c.lambda_eta > 0
        assert c.lambda_0 == spectral_gap_bounded(lam, obj.kernel.mu0, 0.0, b=c.b, delta=0.5)
        no_delta = theory_constants(obj, cfg, pair, delta=None)
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


def hand_fit(slope, se, ordinates=(1.0, 2.0, 3.0, 4.0), abscissae=(0.1, 0.2, 0.3, 0.4), inconclusive=False):
    x, y = np.array(abscissae), np.array(ordinates)
    return diagnostics.RateFit(x, y, 0.01 * y, slope, se, -1.0, inconclusive, "too noisy" if inconclusive else "")


def gap_row(gap, passes_bound=True, inconclusive=False):
    return dict(gap=gap, se=0.01, bound=0.1, passes_bound=passes_bound, inconclusive=inconclusive)


class TestVerdicts:
    """Each claim's rule on hand-built inputs at its boundaries."""

    @pytest.mark.parametrize(
        "slope, se, word",
        [(1.0, 0.1, "PASS"), (0.5, 0.2, "PASS"), (0.5, 0.25, "FAIL"), (0.5, 0.3, "FAIL"), (1.4, 0.1, "FAIL")],
    )
    def test_weak_error_needs_the_slope_ci_above_zero(self, slope, se, word):
        verdict = diagnostics._weak_error_verdict(hand_fit(slope, se))
        assert verdict.word == word
        # the window alone decides (1.4, 0.1); a CI reaching 0 is named on the first line
        assert verdict.lines[0].endswith("; slope CI above 0 = False") == (slope - 2 * se <= 0.0)

    def test_inconclusive_fit_is_inconclusive(self):
        for rule, label in ((diagnostics._weak_error_verdict, "weak error vs eta"),
                            (diagnostics._galerkin_verdict, "galerkin error vs sqrt(mu_{N+1})")):
            assert rule(hand_fit(1.0, 0.1, inconclusive=True)).lines == (f"INCONCLUSIVE {label}: too noisy",)

    @pytest.mark.parametrize(
        "ordinates, abscissae, word",
        [
            ((1.0, 2.0, 3.0, 4.0), (0.1, 0.2, 0.3, 0.4), "PASS"),
            ((4.0, 3.0, 2.0, 1.0), (0.4, 0.3, 0.2, 0.1), "PASS"),  # listed as N ascends: abscissa order decides
            ((1.0, 3.0, 2.0, 4.0), (0.1, 0.2, 0.3, 0.4), "FAIL"),  # errors cross
            ((1.0, 2.0, 2.0, 4.0), (0.1, 0.2, 0.3, 0.4), "FAIL"),  # not strictly
        ],
    )
    def test_galerkin_errors_must_increase_in_the_abscissa(self, ordinates, abscissae, word):
        verdict = diagnostics._galerkin_verdict(hand_fit(1.0, 0.1, ordinates, abscissae))
        assert verdict.word == word
        failed = "; errors strictly increasing in sqrt(mu_{N+1}) = False"
        assert verdict.lines[0].endswith(failed) == (word == "FAIL")

    def test_gibbs_rule(self):
        rule = diagnostics._gibbs_verdict
        assert rule([gap_row(0.5), gap_row(0.53)]).word == "PASS"  # within 3 combined SE
        assert rule([gap_row(0.5), gap_row(0.55)]).word == "FAIL"
        assert rule([gap_row(0.5), gap_row(0.5, inconclusive=True)]).lines == (
            "INCONCLUSIVE gibbs gap vs beta: stationarity check failed at some beta",
        )
        assert rule([gap_row(0.5), gap_row(0.4)]).lines == (
            "PASS gibbs gap vs beta: monotone nonincreasing within 3 sigma = True, "
            "all gaps within 10.0x closed-form bound = True",
        )
        # one gap above 10x its bound (the experiment's passes_bound column)
        assert rule([gap_row(0.5), gap_row(0.4, passes_bound=False)]).lines == (
            "FAIL gibbs gap vs beta: monotone nonincreasing within 3 sigma = True, "
            "all gaps within 10.0x closed-form bound = False",
        )

    def test_sgld_rule(self):
        def row(m, disc, r_n=1.0):
            return dict(minibatch=m, discrepancy=disc, se=0.01, r_n=r_n)

        rule = diagnostics._sgld_verdict
        assert rule([row(2, 0.1), row(4, 1e-300)]).lines == (
            "PASS sgld discrepancy vs m: discrepancy nonincreasing within 3 sigma = True",
        )
        assert rule([row(2, 0.1), row(4, 0.15)]).lines == (
            "FAIL sgld discrepancy vs m: discrepancy nonincreasing within 3 sigma = False",
        )

    def test_tail_rule(self):
        def rows(*p_hats):
            return [dict(n=10 * k, p_hat=p, p_se=0.01) for k, p in enumerate(p_hats, start=1)]

        rule = diagnostics._tail_verdict
        assert rule(rows(0.5, 0.4, 0.2)).lines == (
            "PASS tail probability vs n: nonincreasing within binomial 3 sigma = True; decays = True",
        )
        assert rule(rows(0.5, 0.52, 0.5)).lines == (  # nonincreasing within 3 sigma, but no decay
            "FAIL tail probability vs n: nonincreasing within binomial 3 sigma = True; decays = False",
        )
        assert rule(rows(0.5, 0.6, 0.2)).word == "FAIL"


class TestEstimators:
    def _cfg(self, **kw):
        base = dict(eta=0.05, beta=4.0, lam=6.0, n_modes=6, seed=42, horizon=2000)
        base.update(kw)
        return ChainConfig(**base)

    def test_weak_error_vs_eta_reproducible(self):
        obj = make_objective()
        cfg = self._cfg(horizon=1000)
        a, b = (weak_error_vs_eta(obj, cfg, [0.2, 0.1, 0.05, 0.025], 0.003, replicas=4) for _ in range(2))
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

    def test_sgld_sweep_is_one_engine_call(self, monkeypatch):
        # one GLD reference and one SGLD block per m < n_tr, all on chain ids 0..R-1;
        # m = n_tr = 8 is the full batch, which reads the GLD block and runs none
        calls = []
        run_blocks = diagnostics.run_blocks
        monkeypatch.setattr(diagnostics, "run_blocks", lambda blocks, **k: calls.append((blocks, k)) or run_blocks(blocks, **k))
        sgld_discrepancy_vs_m(self._cfg(horizon=300), make_objective(n=8), 0.1, [2, 5, 8], replicas=4)
        ((blocks, kwargs),) = calls
        assert [(block[0].mode, block[0].minibatch) for block in blocks] == [("gld", None), ("sgld", 2), ("sgld", 5)]
        assert all(block[2] == [0, 1, 2, 3] for block in blocks)

    def test_sgld_sweep_full_batch_row_is_gld_against_itself(self):
        # the m = n_tr row is exactly 0 with r_n = 0, and the rows below n_tr are those of a grid without it
        obj, cfg = make_objective(n=8), self._cfg(horizon=300)
        rows, _ = sgld_discrepancy_vs_m(cfg, obj, 0.1, [2, 5, 8], replicas=4)
        below, _ = sgld_discrepancy_vs_m(cfg, obj, 0.1, [2, 5], replicas=4)
        full = dict(discrepancy=0.0, se=0.0, r_n=0.0, bound_shape=0.0, c_fit=math.nan, replicas=4, seed=42, minibatch=8)
        assert [{k: repr(v) for k, v in r.items()} for r in rows] == [
            {k: repr(v) for k, v in r.items()} for r in below + [full]
        ]

    def test_sgld_sweep_equals_per_m_calls(self):
        obj = make_objective(n=8)
        cfg = self._cfg(horizon=600)
        swept, _ = sgld_discrepancy_vs_m(cfg, obj, 0.1, [1, 3, 8], replicas=6)
        solo = [sgld_discrepancy(replace(cfg, minibatch=m), obj, 0.1, replicas=6) for m in (1, 3, 8)]
        assert [{k: repr(v) for k, v in r.items()} for r in swept] == [{k: repr(v) for k, v in r.items()} for r in solo]
        assert swept[-1]["discrepancy"] == 0.0 and all(r["discrepancy"] > 0.0 for r in swept[:-1])

    def test_gibbs_gap_needs_two_retained_steps(self):
        # the stationarity check compares two nonempty halves of the retained steps
        cfg = ChainConfig(eta=0.01, beta=4.0, lam=6.0, n_modes=65, seed=7, horizon=1)
        with pytest.raises(ValueError, match="2 retained steps"):
            gibbs_gap_empirical(cfg, make_objective(n_modes=65), replicas=2)

    def test_theorem_tail_bound_structure(self):
        obj = make_objective()
        M = obj.smoothness_constant()
        cfg = ChainConfig(eta=0.1, beta=4.0, lam=4.0 * M, n_modes=6, seed=3, horizon=250)
        rows, verdict = tail_bound(cfg, obj, replicas=20)
        assert [r["n"] for r in rows] == [10, 50, 250]  # horizon // 25, horizon // 5 and horizon
        for r in rows:
            assert sorted(r) == ["n", "p_hat", "p_se", "rhs"]
            assert 0.0 <= r["p_hat"] <= 1.0
            assert r["p_se"] > 0
            assert math.isfinite(r["rhs"]) and r["rhs"] > 0
        assert verdict == diagnostics._tail_verdict(rows)

    def test_theorem_tail_bound_has_no_sgld_right_hand_side(self):
        # tail_bound_terms holds GLD's terms only, so an SGLD chain's rhs is nan; the
        # full batch is GLD, with no SGLD spelling to run
        obj = make_objective()
        cfg = ChainConfig(eta=0.1, beta=4.0, lam=4.0 * obj.smoothness_constant(), n_modes=6, seed=3, horizon=250)
        gld, _ = tail_bound(cfg, obj, replicas=20)
        sgld, _ = tail_bound(replace(cfg, minibatch=3), obj, replicas=20)
        assert all(math.isnan(r["rhs"]) for r in sgld) and all(math.isfinite(r["rhs"]) for r in gld)
        with pytest.raises(ValueError, match="omit the minibatch for the full batch"):
            tail_bound(replace(cfg, minibatch=obj.dataset.size), obj, replicas=20)

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
            x0=np.full(6, 2.0),
        )
        with pytest.raises(ValueError):
            tail_bound(cfg, obj, replicas=4)

    @pytest.mark.parametrize(
        "changes, match",
        [
            (dict(horizon=24), "are [0, 4, 24]: horizon must be >= 25"),  # horizon // 25 would be step 0
            (dict(horizon=1), "are [0, 0, 1]: horizon must be >= 25"),
        ],
        ids=["horizon_24", "horizon_1"],
    )
    def test_theorem_tail_bound_refuses_before_running(self, changes, match, monkeypatch):
        # the bound is about steps n >= 1; step 0 is the fixed starting point
        def no_engine(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(diagnostics, "run_blocks", no_engine)
        obj = make_objective()
        cfg = ChainConfig(eta=0.1, beta=4.0, lam=4.0 * obj.smoothness_constant(), n_modes=6, seed=3, horizon=100)
        with pytest.raises(ValueError, match=re.escape(match)):
            tail_bound(replace(cfg, **changes), obj, replicas=4)

    def test_theorem_tail_bound_reads_the_risks_an_observer_sees(self, monkeypatch):
        # the tail bound records its steps' risks; a burn_in = 0 run's
        # observer sees the same risks at those steps, bit for bit
        obj = make_objective()
        cfg = ChainConfig(eta=0.1, beta=4.0, lam=4.0 * obj.smoothness_constant(), n_modes=6, seed=3, horizon=250)
        replicas = 20
        recorded = []
        run_blocks = diagnostics.run_blocks

        def recording(*args, **kwargs):
            recorded.append(run_blocks(*args, **kwargs))
            return recorded[-1]

        monkeypatch.setattr(diagnostics, "run_blocks", recording)
        rows, _ = tail_bound(cfg, obj, replicas=replicas)
        [[summary]] = recorded
        assert summary.steps.tolist() == [0, 10, 50, 250]
        l_star = obj.find_minimizers(cfg.lam).l_star
        seen = {}
        observer = (lambda step, x, risk: seen.update({step: risk}),)
        run_blocks([(replace(cfg, burn_in=0), obj, range(replicas), observer)], l_star=l_star)
        for k, row in enumerate(rows, start=1):
            risk = seen[row["n"]]
            assert np.array_equal(summary.risk[:, k], risk)
            assert row["p_hat"] == float(np.mean(risk - l_star > 0.2))

    def test_theorem_tail_bound_rhs_uses_the_given_constants(self):
        # in the bounded regime the right-hand side follows delta
        obj = make_objective(loss="savage")
        cfg = ChainConfig(eta=0.1, beta=4.0, lam=0.1, n_modes=6, seed=3, horizon=100)
        assert obj.dissipativity_constants(cfg.lam)[0] == "bounded"
        mins = obj.find_minimizers(cfg.lam)
        for delta in [None, 0.5]:
            consts = theory_constants(obj, cfg, mins, delta=delta)
            rows, _ = theorem_tail_bound(cfg, obj, mins, consts, 0.2, replicas=2)
            expected = [tail_bound_terms(consts, mins, cfg, r["n"], 0.2)[2] for r in rows]
            assert [repr(r["rhs"]) for r in rows] == [repr(v) for v in expected]
            assert all(math.isnan(v) for v in expected) == (delta is None)


class TestRecording:
    """The rate experiments record step 0 and the horizon only; the Cesaro
    sums they read do not depend on the checkpoint log."""

    def test_rate_experiments_record_only_the_horizon(self, monkeypatch):
        calls = []
        run_blocks = diagnostics.run_blocks

        def recording(blocks, **kwargs):
            calls.append((blocks[0][0].horizon, run_blocks(blocks, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(diagnostics, "run_blocks", recording)
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=6.0, n_modes=6, seed=42, horizon=200)
        obj = make_objective(n=8)
        weak_error_vs_eta(obj, cfg, [0.2, 0.1, 0.05, 0.025], 0.003, replicas=2)
        galerkin_error_vs_n(lambda n: make_objective(n_modes=n), cfg, [1, 2, 3], 12, replicas=2)
        gibbs_gap_empirical(replace(cfg, eta=0.01, n_modes=65), make_objective(n_modes=65), replicas=2)
        sgld_discrepancy_vs_m(cfg, obj, 0.1, [2, 5], replicas=2)
        assert len(calls) == 4
        for horizon, results in calls:
            assert all(summary.steps.tolist() == [0, horizon] for summary in results)

    def test_sweeps_keep_the_configured_burn_in(self, monkeypatch):
        # the eta, n_modes and beta sweeps retain the steps after [chain] burn_in
        burn_ins = []
        run_blocks = diagnostics.run_blocks

        def recording(blocks, **kwargs):
            burn_ins.append({block[0].burn_in_steps for block in blocks})
            return run_blocks(blocks, **kwargs)

        monkeypatch.setattr(diagnostics, "run_blocks", recording)
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=6.0, n_modes=6, seed=42, horizon=200, burn_in=150)
        weak_error_vs_eta(make_objective(n=8), cfg, [0.2, 0.1, 0.05, 0.025], 0.003, replicas=2)
        galerkin_error_vs_n(lambda n: make_objective(n_modes=n), cfg, [1, 2, 3], 12, replicas=2)
        gibbs_gap_empirical(replace(cfg, eta=0.01, n_modes=65), make_objective(n_modes=65), replicas=2)
        assert burn_ins == [{150}] * 3

    def test_sgld_sweep_evaluates_the_gld_risk_twice(self, monkeypatch):
        # step 0 and the horizon; every other full-batch step takes the gradient alone.
        # Only the full-batch loss calls count: their products have one column per
        # data point, the SGLD blocks' minibatch products m
        calls = collections.Counter()
        for name in ("value_and_d1", "d1"):
            method = getattr(LossFamily, name)

            def counted(self, u, y, name=name, method=method):
                if u.shape[-1] == 8:
                    calls.update([name])
                return method(self, u, y)

            monkeypatch.setattr(LossFamily, name, counted)
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=6.0, n_modes=6, seed=42, horizon=2000)
        sgld_discrepancy_vs_m(cfg, make_objective(n=8), 0.1, [2, 5], replicas=4)
        assert calls == {"value_and_d1": 2, "d1": 1999}


class TestQuadraticOracle:
    def _setup(self):
        obj = make_objective(n_modes=6)
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=2.0, n_modes=6, seed=9, horizon=100)
        return obj, cfg

    def test_mean_is_regularized_minimizer(self):
        obj, cfg = self._setup()
        mean, cov, _ = quadratic_discrete_invariant(obj, cfg)
        x_tilde, _ = obj.regularized_minimizer(cfg.lam)
        assert np.max(np.abs(mean - x_tilde)) < 1e-12

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

    @pytest.mark.parametrize("n_modes", [6, 12])
    def test_covariance_matches_kronecker_solve(self, n_modes):
        # independent reference: (I - T (x) T) vec C = vec Q as one dense solve
        ds = Dataset.synthesize(8, seed=5)
        obj = ObjectiveSpec(ds, loss_family("squared"), KernelSpec(), n_modes)
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=2.0, n_modes=n_modes, seed=9, horizon=100)
        _, cov, h = quadratic_discrete_invariant(obj, cfg)
        s = 1.0 / (1.0 + cfg.lam * cfg.eta / obj.kernel.eigenvalues(n_modes))
        t = s[:, None] * (np.eye(n_modes) - cfg.eta * h)
        q = (2.0 * cfg.eta / cfg.beta) * np.diag(s**2)
        vec_c = np.linalg.solve(np.eye(n_modes**2) - np.kron(t, t), q.reshape(-1))
        assert np.max(np.abs(cov - vec_c.reshape(n_modes, n_modes))) < 1e-12

    def test_rejects_unstable_chain(self):
        obj = make_objective(n_modes=6)
        cfg = ChainConfig(eta=50.0, beta=50.0, lam=1e-3, n_modes=6, seed=9, horizon=100)
        with pytest.raises(ValueError, match="spectral radius"):
            quadratic_discrete_invariant(obj, cfg)

    def test_rejects_non_quadratic(self):
        obj = make_objective(loss="logistic")
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=2.0, n_modes=6, seed=9, horizon=100)
        with pytest.raises(ValueError):
            quadratic_discrete_invariant(obj, cfg)
