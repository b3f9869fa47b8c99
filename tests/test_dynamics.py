import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkld import dynamics
from rkld.dynamics import (
    ChainConfig,
    NumericalAbort,
    RunSummary,
    make_rng,
    run_blocks,
    run_chain,
    run_ensemble,
    sigmoid_gap,
)
from rkld.objective import Dataset, ObjectiveSpec, loss_family
from rkld.spectral import KernelSpec, SpectralVector, resolvent_scales


def make_objective(n_modes=6, loss="squared", gamma=1.5, n=8, seed=5, lambda0=0.0):
    ds = Dataset.synthesize(n, seed=seed)
    return ObjectiveSpec(ds, loss_family(loss), KernelSpec(gamma=gamma), n_modes, lambda0=lambda0)


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
        x0s = (SpectralVector(rng.standard_normal(6)), SpectralVector(rng.standard_normal(6)))
        paths = [[x0.coeffs] for x0 in x0s]
        # one block per start on one chain id: the shared noise cancels in the difference
        run_blocks(
            [
                (dataclasses.replace(cfg, x0=x0), obj, [0], (lambda step, x, risk, path=path: path.append(x[0].copy()),))
                for x0, path in zip(x0s, paths)
            ]
        )
        d = np.linalg.norm(np.array(paths[0]) - np.array(paths[1]), axis=1)
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

    @pytest.mark.parametrize("loss", ["squared", "logistic", "savage"])
    def test_fused_evaluation_matches_separate_grad_and_risk_loop(self, loss):
        # horizon 600 crosses two noise chunk boundaries; the engine evaluates
        # each state once, the hand loop calls grad_array and risk_array apart
        obj = make_objective(loss=loss, lambda0=0.1)
        cfg = make_cfg(horizon=600, burn_in=0)
        seen = []
        run_chain(cfg, obj, observers=(lambda step, x, risk: seen.append((x.copy(), risk.copy())),))
        noise = make_rng(cfg.seed, 0, 0).standard_normal((cfg.horizon, cfg.n_modes))
        s = resolvent_scales(obj.kernel, cfg.lam, cfg.eta, cfg.n_modes)
        amp = math.sqrt(2.0 * cfg.eta / cfg.beta)
        x = np.zeros((1, cfg.n_modes))
        assert len(seen) == cfg.horizon
        for t, (seen_x, seen_risk) in enumerate(seen):
            x = s * (x - cfg.eta * obj.grad_array(x) + amp * noise[t])
            assert np.array_equal(seen_x, x) and np.array_equal(seen_risk, obj.risk_array(x))

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
        # blocks of different dimension on one chain id: the narrow chain is
        # driven by the first 4 components of the wide chain's 6-wide noise
        obj6 = make_objective(n_modes=6)
        obj4 = make_objective(n_modes=4)
        cfg6 = make_cfg(n_modes=6, horizon=40, burn_in=0)
        cfg4 = make_cfg(n_modes=4, horizon=40, burn_in=0)
        states = []
        (wide,), (narrow,) = run_blocks(
            [(cfg6, obj6, [0], ()), (cfg4, obj4, [0], (lambda step, x, risk: states.append(x.copy()),))]
        )
        assert wide.retained_steps == narrow.retained_steps == 40
        assert not np.array_equal(wide.risk, narrow.risk)
        solo = run_chain(cfg6, obj6)
        assert np.array_equal(wide.risk, solo.risk) and np.array_equal(wide.norm, solo.norm)
        noise = make_rng(cfg4.seed, 0, 0).standard_normal((40, 6))[:, :4]
        s = resolvent_scales(obj4.kernel, cfg4.lam, cfg4.eta, 4)
        amp = math.sqrt(2.0 * cfg4.eta / cfg4.beta)
        x = np.zeros((1, 4))
        for t in range(40):
            x = s * (x - cfg4.eta * obj4.grad_array(x) + amp * noise[t])
            assert np.array_equal(states[t], x)

    def test_cesaro_phi_recomputable_from_cadence_one_log(self, monkeypatch):
        obj = make_objective()
        cfg = make_cfg(horizon=200, burn_in=40)  # cadence = max(1, 200//1000) = 1
        risk_array = ObjectiveSpec.risk_array
        calls = collections.Counter()
        for name in ("risk_and_grad_array", "risk_array", "grad_array"):
            method = getattr(ObjectiveSpec, name)
            monkeypatch.setattr(
                ObjectiveSpec, name, lambda self, x, name=name, method=method: calls.update([name]) or method(self, x)
            )
        seen = []

        def observe(step, x, risk):
            assert not x.flags.writeable and not risk.flags.writeable
            seen.append((x.copy(), risk.copy()))

        s = run_chain(cfg, obj, l_star=0.1, observers=(observe,))
        # one fused evaluation per state X_0..X_200 feeds risk and gradient alike
        assert [calls[name] for name in ("risk_and_grad_array", "risk_array", "grad_array")] == [cfg.horizon + 1, 0, 0]
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


def same_summary(a, b) -> bool:
    """Every RunSummary field equal bit for bit, NaN equal to NaN."""
    for f in dataclasses.fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if isinstance(u, np.ndarray):
            if not (u.dtype == v.dtype and np.array_equal(u, v, equal_nan=u.dtype.kind == "f")):
                return False
        elif not (u == v or (isinstance(u, float) and math.isnan(u) and math.isnan(v))):
            return False
    return True


@st.composite
def block_sets(draw):
    """1-4 blocks of N+1 in 3..9 (objectives shared per dimension) on
    overlapping or disjoint chain ids, horizons across chunk boundaries."""
    mode = draw(st.sampled_from(["gld", "ou"]))
    horizon = draw(st.integers(1, 600))
    burn_in = draw(st.integers(0, horizon - 1))
    seed = draw(st.integers(0, 2**16))
    objectives = {}
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        n_modes = draw(st.integers(3, 9))
        if n_modes not in objectives:
            objectives[n_modes] = make_objective(n_modes=n_modes)
        obj = objectives[n_modes] if mode == "gld" or draw(st.booleans()) else None
        cfg = make_cfg(
            n_modes=n_modes,
            eta=draw(st.sampled_from([0.02, 0.05, 0.1])),
            beta=draw(st.sampled_from([1.0, 4.0])),
            seed=seed,
            horizon=horizon,
            burn_in=burn_in,
        )
        ids = draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True))
        blocks.append((cfg, obj, ids))
    return mode, blocks, draw(st.sampled_from([0.0, 0.3]))


def observed_run(blocks, mode, l_star):
    """run_blocks with an observer per block; returns summaries and observed (step, X, risk)."""
    seen = [[] for _ in blocks]
    observers = [
        (lambda step, x, risk, log=log: log.append((step, x.copy(), None if risk is None else risk.copy())),)
        for log in seen
    ]
    out = run_blocks([(cfg, obj, ids, obs) for (cfg, obj, ids), obs in zip(blocks, observers)], mode, l_star)
    return out, seen


def observed_states(cfg, obj, mode, ids):
    """X_0 and every state after it, up to the horizon or the aborted step, from
    a burn_in=0 run's observer (the trajectory does not depend on burn-in)."""
    states = [np.tile(cfg.x0_array(), (len(ids), 1))]
    observer = (lambda step, x, risk: states.append(x.copy()),)
    try:
        run_ensemble(dataclasses.replace(cfg, burn_in=0), obj, mode, len(ids), observers=observer, chain_ids=ids)
    except NumericalAbort:
        pass
    return states


def reference_summaries(cfg, obj, mode, ids, l_star, states):
    """Step-by-step bookkeeping over states[s] = X_s: norm, risk, ridge term
    and phi at each checkpoint, running Cesaro sums with +=, NaN before the
    first retained step."""
    n_chains = len(ids)
    ces_phi, ces_risk, retained = np.zeros(n_chains), np.zeros(n_chains), 0
    steps, rows = [], []
    for step, x in enumerate(states):
        risk = obj.risk_array(x) if obj is not None else None
        if step > cfg.burn_in_steps:
            if obj is not None:
                ces_risk += risk
                ces_phi += sigmoid_gap(risk - l_star)
            retained += 1
        if step % cfg.checkpoint_every == 0 or step == cfg.horizon:
            if obj is not None:
                reg = risk + 0.5 * cfg.lam * np.sum(x * x / obj.kernel.eigenvalues(cfg.n_modes), axis=1)
                row = (risk, reg, sigmoid_gap(risk - l_star))
            else:
                row = (np.zeros(n_chains),) * 3
            ces = ces_phi / retained if retained else np.full(n_chains, np.nan)
            steps.append(step)
            rows.append((np.linalg.norm(x, axis=1), *row, ces))
    cols = [np.stack(col) for col in zip(*rows)]
    return [
        RunSummary(
            chain_id=cid,
            mode=mode,
            burn_in=cfg.burn_in_steps,
            steps=np.array(steps, dtype=int),
            norm=cols[0][:, r].copy(),
            risk=cols[1][:, r].copy(),
            reg_objective=cols[2][:, r].copy(),
            phi=cols[3][:, r].copy(),
            cesaro_phi=cols[4][:, r].copy(),
            final_cesaro_phi=float(ces_phi[r] / retained) if retained else math.nan,
            final_cesaro_risk=float(ces_risk[r] / retained) if retained else math.nan,
            retained_steps=retained,
        )
        for r, cid in enumerate(ids)
    ]


class TestChunkedBookkeeping:
    """The engine batches Cesaro sums and checkpoint rows once per noise chunk;
    they must keep the bits of step-by-step bookkeeping."""

    @pytest.mark.parametrize("horizon", [1, 255, 256, 257, 600, 2001])  # 2001: cadence 2
    @pytest.mark.parametrize("n_chains", [1, 3])
    @pytest.mark.parametrize("mode", ["gld", "sgld", "ou", "ou+objective"])
    def test_summaries_equal_per_step_reference(self, mode, n_chains, horizon):
        obj = None if mode == "ou" else make_objective(loss="savage", lambda0=0.1)
        mode = mode.removesuffix("+objective")
        ids = [4, 1, 7][:n_chains]
        cfg = make_cfg(horizon=horizon, minibatch=3 if mode == "sgld" else None)
        states = observed_states(cfg, obj, mode, ids)
        for burn_in in sorted({0, 100, 256, 300} & set(range(horizon))):  # chunk-inner and chunk-edge burn-ins
            run_cfg = dataclasses.replace(cfg, burn_in=burn_in)
            summaries = run_ensemble(run_cfg, obj, mode, n_chains, l_star=0.3, chain_ids=ids)
            expect = reference_summaries(run_cfg, obj, mode, ids, 0.3, states)
            assert all(same_summary(a, b) for a, b in zip(summaries, expect, strict=True))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partial_summary_equals_reference_after_a_flushed_chunk(self):
        obj = make_objective()
        cfg = ChainConfig(eta=10.0, beta=100.0, lam=1e-6, n_modes=6, seed=1, horizon=1000)
        ids = [0, 2]
        with pytest.raises(NumericalAbort) as exc_info:
            run_ensemble(cfg, obj, n_chains=2, l_star=0.3, chain_ids=ids)
        step = exc_info.value.step
        assert step > 256
        states = observed_states(cfg, obj, "gld", ids)
        assert len(states) == step  # X_0 .. X_{step-1}
        expect = reference_summaries(cfg, obj, "gld", ids, 0.3, states)
        partial = exc_info.value.partial
        assert partial[0].steps[-1] == step - 1 and partial[0].retained_steps > 0
        assert all(same_summary(a, b) for a, b in zip(partial, expect, strict=True))

    def test_minibatch_run_evaluates_once_per_chunk(self, monkeypatch):
        obj = make_objective(n=8)
        cfg = make_cfg(horizon=2000, burn_in=1999, minibatch=3)
        risk_array = ObjectiveSpec.risk_array
        calls = collections.Counter()
        monkeypatch.setattr(
            ObjectiveSpec, "risk_array", lambda self, x: calls.update(["risk"]) or risk_array(self, x)
        )
        gap = dynamics.sigmoid_gap
        monkeypatch.setattr(dynamics, "sigmoid_gap", lambda u: calls.update(["phi"]) or gap(u))
        summaries = run_ensemble(cfg, obj, mode="sgld", n_chains=8)
        chunks = math.ceil(cfg.horizon / 256)
        assert len(summaries[0].steps) == 1001 and summaries[0].retained_steps == 1
        # step 0 and 1000 pre-burn-in checkpoints ride on the chunk flushes
        assert calls["risk"] <= chunks + 1 + 1
        assert calls["phi"] <= 2 * chunks


class TestRunBlocks:
    @given(block_sets())
    @settings(max_examples=30, deadline=None)
    def test_blocks_equal_solo_runs(self, drawn):
        mode, blocks, l_star = drawn
        results, seen = observed_run(blocks, mode, l_star)
        width = max(cfg.n_modes for cfg, _, _ in blocks)
        widest = next(b for b in blocks if b[0].n_modes == width)
        for block, summaries, log in zip(blocks, results, seen):
            cfg, obj, ids = block
            if cfg.n_modes == width:
                solo_log = []
                observer = (lambda step, x, risk: solo_log.append((step, x.copy(), None if risk is None else risk.copy())),)
                solo = run_ensemble(cfg, obj, mode, len(ids), l_star, observer, ids)
            else:
                # a narrower block reads the call's noise width: pair it with the widest block
                (solo, _), (solo_log, _) = observed_run([block, widest], mode, l_star)
            assert [s.chain_id for s in summaries] == ids
            assert all(same_summary(a, b) for a, b in zip(summaries, solo, strict=True))
            assert len(log) == len(solo_log) == cfg.horizon - cfg.burn_in_steps
            for (step, x, risk), (solo_step, solo_x, solo_risk) in zip(log, solo_log):
                assert step == solo_step and np.array_equal(x, solo_x)
                assert (risk is None and solo_risk is None) or np.array_equal(risk, solo_risk)

    @pytest.mark.parametrize(
        "change",
        [dict(seed=43), dict(horizon=101), dict(burn_in=7)],
        ids=["seed", "horizon", "burn_in"],
    )
    def test_lockstep_mismatch_raises_before_step_one(self, change, monkeypatch):
        obj = make_objective()
        cfg = make_cfg(burn_in=0)
        grads = []
        grad_array = ObjectiveSpec.grad_array
        monkeypatch.setattr(ObjectiveSpec, "grad_array", lambda self, x: grads.append(1) or grad_array(self, x))
        with pytest.raises(ValueError, match="lockstep"):
            run_blocks([(cfg, obj, [0], ()), (dataclasses.replace(cfg, **change), obj, [1], ())])
        assert grads == []

    def test_objective_mode_mismatch_raises_before_step_one(self):
        seen = []
        with pytest.raises(ValueError, match="mode count"):
            run_blocks(
                [
                    (make_cfg(burn_in=0), make_objective(), [0], (lambda step, x, risk: seen.append(step),)),
                    (make_cfg(n_modes=4, burn_in=0), make_objective(n_modes=6), [0], ()),
                ]
            )
        assert seen == []


class TestRng:
    def test_streams_distinct(self):
        a = make_rng(7, 0, 0).standard_normal(8)
        b = make_rng(7, 0, 1).standard_normal(8)
        c = make_rng(7, 1, 0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reproducible(self):
        assert np.array_equal(make_rng(7, 3, 0).standard_normal(8), make_rng(7, 3, 0).standard_normal(8))
