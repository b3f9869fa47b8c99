import dataclasses
import math

import numpy as np
import pytest

from rkld.dynamics import ChainConfig, NumericalAbort, make_rng, run_chain, run_ensemble, sigmoid_gap
from rkld.objective import Dataset, ObjectiveSpec, loss_family
from rkld.spectral import KernelSpec, SpectralVector, resolvent_scales


def make_objective(n_modes=6, loss="squared", gamma=1.5, n=8, seed=5):
    ds = Dataset.synthesize(n, seed=seed)
    return ObjectiveSpec(ds, loss_family(loss), KernelSpec(gamma=gamma), n_modes)


def make_cfg(**kw):
    base = dict(eta=0.05, beta=4.0, lam=6.0, n_modes=6, seed=42, horizon=100)
    base.update(kw)
    return ChainConfig(**base)


class TestChainConfig:
    def test_rejects_beta_below_eta(self):
        with pytest.raises(ValueError):
            make_cfg(beta=0.01)

    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            make_cfg(eta=0.0)

    def test_rejects_bad_burn_in(self):
        with pytest.raises(ValueError):
            make_cfg(burn_in=100)

    def test_default_burn_in_is_fifth(self):
        assert make_cfg(horizon=1000).burn_in_steps == 200
        assert make_cfg(horizon=1000, burn_in=7).burn_in_steps == 7

    def test_x0_dimension_checked(self):
        with pytest.raises(ValueError):
            make_cfg(x0=SpectralVector.zeros(3))


class TestSigmoidGap:
    def test_odd_and_bounded(self):
        assert sigmoid_gap(0.0) == 0.0
        assert sigmoid_gap(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)) - 0.5)
        assert sigmoid_gap(1.0) == pytest.approx(0.2310585786, abs=1e-9)
        u = np.linspace(-50, 50, 101)
        vals = sigmoid_gap(u)
        assert np.all(np.abs(vals) <= 0.5)
        assert np.allclose(vals + vals[::-1], 0.0, atol=1e-15)


def final_state(cfg, obj=None, mode="gld"):
    """X_horizon of chain 0, captured by an observer (burn_in must be 0)."""
    seen = {}

    def capture(step, x, risk):
        seen["x"] = x[0].copy()

    run_chain(cfg, obj, mode=mode, observers=(capture,))
    return seen["x"]


class TestStepFunctions:
    """The engine's update X <- S_eta (X - eta g + sqrt(2 eta/beta) eps)."""

    def test_gld_semi_implicit_identity(self):
        obj = make_objective()
        cfg = make_cfg(horizon=1, burn_in=0)
        new = final_state(cfg, obj)
        # reconstruct the pre-resolvent point and check both forms agree
        scales = resolvent_scales(obj.kernel, cfg.lam, cfg.eta, cfg.n_modes)
        pre = new / scales
        mu = obj.kernel.eigenvalues(cfg.n_modes)
        back = new + cfg.eta * cfg.lam * new / mu
        assert np.max(np.abs(pre - back)) < 1e-12

    def test_gld_deterministic_replay(self):
        obj = make_objective()
        cfg = make_cfg(horizon=200, burn_in=0)
        assert np.array_equal(final_state(cfg, obj), final_state(cfg, obj))

    def test_sgld_full_batch_matches_gld(self):
        obj = make_objective(n=8)
        cfg = make_cfg(minibatch=8, horizon=50, burn_in=0)
        assert np.array_equal(final_state(cfg, obj, "gld"), final_state(cfg, obj, "sgld"))

    def test_sgld_minibatch_diverges_from_gld(self):
        obj = make_objective(n=8)
        cfg = make_cfg(minibatch=2, horizon=50, burn_in=0)
        assert not np.array_equal(final_state(cfg, obj, "gld"), final_state(cfg, obj, "sgld"))

    def test_ou_step_ignores_objective(self):
        cfg = make_cfg(horizon=1, burn_in=0)
        risks = []
        s = run_ensemble(cfg, None, mode="ou", observers=(lambda step, x, risk: risks.append(risk),))[0]
        assert risks == [None]
        assert s.steps[-1] == 1
        assert np.all(np.isfinite(s.norm))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_abort_on_blowup(self):
        # giant step size on the squared loss makes the explicit part diverge
        obj = make_objective()
        cfg = ChainConfig(eta=50.0, beta=100.0, lam=1e-6, n_modes=6, seed=1, horizon=10_000)
        with pytest.raises(NumericalAbort):
            run_chain(cfg, obj)


class TestCoupledRun:
    def test_noise_cancels_strict_contraction(self):
        obj = make_objective()
        M = obj.smoothness_constant()
        lam = 4.0 * M * obj.kernel.mu0
        cfg = make_cfg(lam=lam, eta=0.01, horizon=500, burn_in=0)
        rng = np.random.default_rng(0)
        paths = []
        for x0 in (SpectralVector(rng.standard_normal(6)), SpectralVector(rng.standard_normal(6))):
            # one chain id for both runs: the shared noise cancels in the difference
            path = [x0.coeffs]
            run_ensemble(
                dataclasses.replace(cfg, x0=x0),
                obj,
                chain_ids=[0],
                observers=(lambda step, x, risk: path.append(x[0].copy()),),
            )
            paths.append(np.array(path))
        d = np.linalg.norm(paths[0] - paths[1], axis=1)
        assert len(d) == 501
        rho = (1.0 + cfg.eta * M) / (1.0 + cfg.eta * lam / obj.kernel.mu0)
        assert rho < 1.0
        ratios = d[1:] / d[:-1]
        assert np.all(ratios <= rho + 1e-9)


class TestRunEnsemble:
    def test_single_chain_matches_step_loop(self):
        obj = make_objective()
        cfg = make_cfg(horizon=64, burn_in=0)
        summary = run_chain(cfg, obj)
        rng = make_rng(cfg.seed, 0, 0)
        s = resolvent_scales(obj.kernel, cfg.lam, cfg.eta, cfg.n_modes)
        amp = math.sqrt(2.0 * cfg.eta / cfg.beta)
        x = np.zeros(cfg.n_modes)
        for _ in range(64):
            x = s * (x - cfg.eta * obj.grad_array(x) + amp * rng.standard_normal(cfg.n_modes))
        assert summary.steps[-1] == 64
        assert summary.norm[-1] == pytest.approx(np.linalg.norm(x), abs=1e-13)

    def test_replica_independence_of_ensemble_size(self):
        obj = make_objective()
        cfg = make_cfg(horizon=50, minibatch=3)
        for mode in ("gld", "sgld"):
            solo = run_ensemble(cfg, obj, mode=mode, n_chains=1, chain_ids=[3])[0]
            grouped = run_ensemble(cfg, obj, mode=mode, n_chains=4, chain_ids=[1, 2, 3, 4])[2]
            assert grouped.chain_id == 3
            assert np.array_equal(solo.norm, grouped.norm)
            # risk evaluation batches over replicas, so only ulp-level drift is allowed
            assert np.allclose(solo.risk, grouped.risk, rtol=1e-12, atol=0)

    def test_sgld_matches_per_chain_permutation_loop(self):
        # horizon 600 crosses two noise/minibatch chunk boundaries
        obj = make_objective(n=8)
        cfg = make_cfg(horizon=600, burn_in=0, minibatch=3)
        ids = [5, 2, 9]
        states = []
        capture = (lambda step, x, risk: states.append(x.copy()),)
        run_ensemble(cfg, obj, mode="sgld", n_chains=3, chain_ids=ids, observers=capture)
        s = resolvent_scales(obj.kernel, cfg.lam, cfg.eta, cfg.n_modes)
        amp = math.sqrt(2.0 * cfg.eta / cfg.beta)
        expect = np.empty((cfg.horizon, len(ids), cfg.n_modes))
        for r, cid in enumerate(ids):
            noise_rng, batch_rng = make_rng(cfg.seed, cid, 0), make_rng(cfg.seed, cid, 1)
            x = np.zeros(cfg.n_modes)
            for t in range(cfg.horizon):
                batch = batch_rng.permutation(obj.dataset.size)[:3]
                g = obj.stochastic_grad_array(x, batch)
                x = s * (x - cfg.eta * g + amp * noise_rng.standard_normal(cfg.n_modes))
                expect[t, r] = x
        assert np.array_equal(np.array(states), expect)

    def test_sgld_one_batched_gradient_per_step(self, monkeypatch):
        obj = make_objective(n=8)
        cfg = make_cfg(horizon=300, minibatch=3)
        stochastic_grad_array = ObjectiveSpec.stochastic_grad_array
        calls = []
        monkeypatch.setattr(
            ObjectiveSpec,
            "stochastic_grad_array",
            lambda self, x, batch: calls.append(x.shape) or stochastic_grad_array(self, x, batch),
        )
        run_ensemble(cfg, obj, mode="sgld", n_chains=8)
        assert calls == [(8, cfg.n_modes)] * cfg.horizon

    def test_noise_modes_couples_dimensions(self):
        # widened common noise: the first-N modes of a wider chain follow the
        # same update as the narrower chain driven by the same streams
        obj6 = make_objective(n_modes=6)
        obj4 = make_objective(n_modes=4)
        cfg6 = make_cfg(n_modes=6, horizon=40, burn_in=0)
        cfg4 = make_cfg(n_modes=4, horizon=40, burn_in=0)
        wide = run_ensemble(cfg6, obj6, n_chains=1, noise_modes=8)[0]
        narrow = run_ensemble(cfg4, obj4, n_chains=1, noise_modes=8)[0]
        assert wide.retained_steps == narrow.retained_steps == 40
        # they see identical noise, so the gap stays small relative to
        # independent runs but the trajectories are not equal
        assert not np.array_equal(wide.risk, narrow.risk)

    def test_noise_modes_must_cover_state(self):
        obj = make_objective()
        cfg = make_cfg()
        with pytest.raises(ValueError):
            run_ensemble(cfg, obj, n_chains=1, noise_modes=3)

    def test_cesaro_phi_recomputable_from_cadence_one_log(self, monkeypatch):
        obj = make_objective()
        cfg = make_cfg(horizon=200, burn_in=40)  # cadence = max(1, 200//1000) = 1
        risk_array = ObjectiveSpec.risk_array
        calls = []
        monkeypatch.setattr(
            ObjectiveSpec, "risk_array", lambda self, x: calls.append(1) or risk_array(self, x)
        )
        seen = []

        def observe(step, x, risk):
            assert not x.flags.writeable and not risk.flags.writeable
            seen.append((x.copy(), risk.copy()))

        s = run_chain(cfg, obj, l_star=0.1, observers=(observe,))
        # one risk evaluation per checkpoint: steps 0..200 at cadence 1
        assert len(calls) == cfg.horizon + 1
        assert len(seen) == 160
        assert all(np.array_equal(risk, risk_array(obj, x)) for x, risk in seen)
        post = s.steps > 40
        assert s.retained_steps == 160
        assert s.final_cesaro_phi == pytest.approx(float(np.mean(s.phi[post])), rel=1e-12)
        assert s.cesaro_phi[-1] == pytest.approx(s.final_cesaro_phi, rel=1e-12)

    def test_ou_mode_variance_matches_closed_form(self):
        # stationary per-mode variance (2 eta / beta) a_k^2 / (1 - a_k^2)
        cfg = ChainConfig(eta=0.5, beta=2.0, lam=1.0, n_modes=4, seed=11, horizon=200_000)
        kernel = KernelSpec()
        sums = np.zeros(4)
        sumsq = np.zeros(4)
        count = 0

        def accumulate(step, x, risk):
            nonlocal count
            sums[:] += x[0]
            sumsq[:] += x[0] ** 2
            count += 1

        run_ensemble(cfg, None, mode="ou", n_chains=1, observers=(accumulate,))
        var = sumsq / count - (sums / count) ** 2
        a = resolvent_scales(kernel, cfg.lam, cfg.eta, 4)
        expect = (2.0 * cfg.eta / cfg.beta) * a**2 / (1.0 - a**2)
        assert expect[0] == pytest.approx(0.4, abs=1e-15)
        assert np.allclose(var, expect, rtol=0.05)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partial_summary_on_abort(self):
        obj = make_objective()
        cfg = ChainConfig(eta=50.0, beta=100.0, lam=1e-6, n_modes=6, seed=1, horizon=100_000)
        with pytest.raises(NumericalAbort) as exc_info:
            run_ensemble(cfg, obj, n_chains=1)
        partial = exc_info.value.partial
        assert partial is not None and len(partial) == 1
        assert partial[0].steps[0] == 0 and np.all(np.diff(partial[0].steps) > 0)
        assert np.isfinite(partial[0].risk[0])


class TestRng:
    def test_streams_distinct(self):
        a = make_rng(7, 0, 0).standard_normal(8)
        b = make_rng(7, 0, 1).standard_normal(8)
        c = make_rng(7, 1, 0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reproducible(self):
        assert np.array_equal(make_rng(7, 3, 0).standard_normal(8), make_rng(7, 3, 0).standard_normal(8))
