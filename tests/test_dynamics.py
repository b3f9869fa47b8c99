import collections
import contextlib
import dataclasses
import errno
import itertools
import math
import os
import re
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from rkld.objective import Dataset, LossFamily, ObjectiveSpec, loss_family
from rkld.spectral import KernelSpec, resolvent_scales


# l(u, y) = 0, a loss in one row: GLD on it is the noise-only Ornstein-Uhlenbeck
# chain X <- S_eta (X + sqrt(2 eta / beta) xi), the "ou" case of the chain kinds
ZERO = LossFamily(
    "zero", 0.0, 0.0, False,
    lambda u, y: (np.zeros_like(u), np.zeros_like(u)),
    lambda u, y: np.zeros_like(u),
    lambda u, y: np.zeros_like(u),
    lambda u, y: np.zeros_like(u),
)


def make_objective(n_modes=6, loss="squared", gamma=1.5, n=8, seed=5):
    """The objective on synthetic data; loss is a tag or a LossFamily row."""
    ds = Dataset.synthesize(n, seed=seed)
    return ObjectiveSpec(ds, loss_family(loss) if isinstance(loss, str) else loss, KernelSpec(gamma=gamma), n_modes)


def make_cfg(**kw):
    base = dict(eta=0.05, beta=4.0, lam=6.0, n_modes=6, seed=42, horizon=100)
    base.update(kw)
    return ChainConfig(**base)


def one_block(cfg, obj, ids, l_star=0.0, observers=()):
    """The summary of one block of chain ids, through run_blocks."""
    return run_blocks([(cfg, obj, ids, observers)], l_star)[0]


LOSS_METHODS = ("value_and_d1", "value", "d1")


def counted_loss_calls(monkeypatch):
    """A Counter of the LossFamily calls that evaluate states: the fused value
    and derivative (risk and gradient), the value alone (risk) and the
    derivative alone (gradient)."""
    calls = collections.Counter()
    for name in LOSS_METHODS:
        method = getattr(LossFamily, name)
        monkeypatch.setattr(
            LossFamily, name, lambda self, u, y, name=name, method=method: calls.update([name]) or method(self, u, y)
        )
    return calls


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

    @pytest.mark.parametrize("value", [2.5, 4.0])
    @pytest.mark.parametrize("field", ["n_modes", "horizon", "burn_in", "minibatch"])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match="must be an integer"):
            make_cfg(**{field: value})

    def test_minibatch_makes_the_chain_sgld(self):
        # the chain's name is read off its minibatch; no field sets it
        assert make_cfg(minibatch=3).mode == "sgld" and make_cfg().mode == "gld"
        assert "mode" not in {f.name for f in dataclasses.fields(ChainConfig)}
        with pytest.raises(TypeError, match="mode"):
            make_cfg(mode="sgld")

    def test_x0_dimension_checked(self):
        with pytest.raises(ValueError):
            make_cfg(x0=np.zeros(3))

    @pytest.mark.parametrize(
        "x0",
        [np.zeros(5), np.zeros(7), np.zeros((1, 6)), np.zeros((6, 1)), np.zeros(()), [0.0] * 5,
         np.array([0.0, 1.0, np.nan, 0.0, 0.0, 0.0]), np.full(6, np.inf), np.array([1.0, -np.inf, 0, 0, 0, 0])],
        ids=["short", "long", "row", "column", "scalar", "short-list", "nan", "inf", "neg-inf"],
    )
    def test_x0_rejects_wrong_shape_or_non_finite(self, x0):
        with pytest.raises(ValueError, match="x0 must"):
            make_cfg(x0=x0)

    def test_x0_is_a_read_only_copy(self):
        obj = make_objective()
        start = np.linspace(-1.0, 1.0, 6)
        expect = run_chain(make_cfg(x0=start.copy()), obj).norm
        cfg = make_cfg(x0=start)
        start[:] = 5.0
        assert cfg.x0.dtype == float and not cfg.x0.flags.writeable
        assert np.array_equal(cfg.x0, np.linspace(-1.0, 1.0, 6))
        with pytest.raises(ValueError):
            cfg.x0[0] = 0.0
        assert np.array_equal(run_chain(cfg, obj).norm, expect)
        assert np.array_equal(make_cfg(x0=[0, 1, 2, 3, 4, 5]).x0, np.arange(6.0))


class TestSigmoidGap:
    def test_odd_and_bounded(self):
        assert sigmoid_gap(0.0) == 0.0
        assert sigmoid_gap(1.0) == pytest.approx(1.0 / (1.0 + math.exp(-1.0)) - 0.5)
        assert sigmoid_gap(1.0) == pytest.approx(0.2310585786, abs=1e-9)
        u = np.linspace(-50, 50, 101)
        vals = sigmoid_gap(u)
        assert np.all(np.abs(vals) <= 0.5)
        assert np.allclose(vals + vals[::-1], 0.0, atol=1e-15)


def final_state(cfg, obj):
    """X_horizon of chain 0, captured by an observer (burn_in must be 0)."""
    seen = {}

    def capture(step, x, risk):
        seen["x"] = x[0].copy()

    one_block(cfg, obj, [0], observers=(capture,))
    return seen["x"]


class TestStepFunctions:
    """The engine's update X <- S_eta (X - eta g + sqrt(2 eta/beta) eps)."""

    def test_gld_semi_implicit_identity(self):
        # (1 + eta lam / mu_k) X_1 = X_0 - eta grad L(X_0) + sqrt(2 eta / beta) xi_0, with
        # xi_0 chain 0's first draw on the noise stream
        obj = make_objective()
        x0 = np.linspace(-1.0, 1.0, 6)
        cfg = make_cfg(horizon=1, burn_in=0, x0=x0)
        x1 = final_state(cfg, obj)
        xi0 = make_rng(cfg.seed, 0, 0).standard_normal(cfg.n_modes)
        lhs = (1.0 + cfg.eta * cfg.lam / obj.kernel.eigenvalues(cfg.n_modes)) * x1
        rhs = x0 - cfg.eta * obj.grad_array(x0) + math.sqrt(2.0 * cfg.eta / cfg.beta) * xi0
        assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)

    def test_gld_deterministic_replay(self):
        obj = make_objective()
        cfg = make_cfg(horizon=200, burn_in=0)
        assert np.array_equal(final_state(cfg, obj), final_state(cfg, obj))

    def test_sgld_full_batch_raises_before_any_stream(self, monkeypatch):
        # SGLD draws m < n_tr = 8 points; the full batch is the chain without a minibatch
        streams = []
        make = dynamics.make_rng
        monkeypatch.setattr(dynamics, "make_rng", lambda *key: streams.append(key) or make(*key))
        reason = "minibatch = 8: out of range 1..7; omit the minibatch for the full batch of n_tr = 8 points"
        with pytest.raises(ValueError, match=re.escape(reason)):
            run_blocks([(make_cfg(horizon=50, minibatch=8), make_objective(n=8), [0, 1], ())], l_star=0.0)
        assert streams == []

    def test_sgld_minibatch_diverges_from_gld(self):
        obj = make_objective(n=8)
        cfg = make_cfg(horizon=50, burn_in=0)
        sgld = dataclasses.replace(cfg, minibatch=2)
        assert not np.array_equal(final_state(cfg, obj), final_state(sgld, obj))

    def test_zero_loss_step_is_the_noise_step(self):
        # on the zero loss, X_1 = S_eta (X_0 + sqrt(2 eta / beta) xi_0) bit for bit, the OU step
        obj = make_objective(loss=ZERO)
        x0 = np.linspace(-1.0, 1.0, 6)
        cfg = make_cfg(horizon=1, burn_in=0, x0=x0)
        seen = []
        s = one_block(cfg, obj, [0], observers=(lambda step, x, risk: seen.append((x.copy(), risk.copy())),))
        [(x, risk)] = seen
        noise = make_rng(cfg.seed, 0, 0).standard_normal(cfg.n_modes)
        scales = resolvent_scales(obj.kernel, cfg.lam, cfg.eta, cfg.n_modes)
        assert np.array_equal(x[0], scales * (x0 + math.sqrt(2.0 * cfg.eta / cfg.beta) * noise))
        assert np.array_equal(risk, np.zeros(1))
        assert s.steps[-1] == 1

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
        x0s = (rng.standard_normal(6), rng.standard_normal(6))
        paths = [[x0] for x0 in x0s]
        # one block per start on one chain id: the shared noise cancels in the difference
        run_blocks(
            [
                (dataclasses.replace(cfg, x0=x0), obj, [0], (lambda step, x, risk, path=path: path.append(x[0].copy()),))
                for x0, path in zip(x0s, paths)
            ],
            l_star=0.0,
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
        assert summary.norm[0, -1] == pytest.approx(np.linalg.norm(x), abs=1e-13)

    def test_replica_independence_of_ensemble_size(self):
        obj = make_objective()
        for cfg in (make_cfg(horizon=50), make_cfg(horizon=50, minibatch=3)):
            solo = one_block(cfg, obj, [3])
            grouped = one_block(cfg, obj, [1, 2, 3, 4])
            assert grouped.chain_ids[2] == 3
            assert np.array_equal(solo.norm[0], grouped.norm[2])
            # risk evaluation batches over replicas, so only ulp-level drift is allowed
            assert np.allclose(solo.risk[0], grouped.risk[2], rtol=1e-12, atol=0)

    def test_sgld_matches_per_chain_permutation_loop(self):
        # horizon 600 crosses two noise/minibatch chunk boundaries
        obj = make_objective(n=8)
        cfg = make_cfg(horizon=600, burn_in=0, minibatch=3)
        ids = [5, 2, 9]
        states = []
        capture = (lambda step, x, risk: states.append(x.copy()),)
        one_block(cfg, obj, ids, observers=capture)
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
        obj = make_objective(loss=loss)
        cfg = make_cfg(horizon=600, burn_in=0)
        seen = []
        one_block(cfg, obj, [0], observers=(lambda step, x, risk: seen.append((x.copy(), risk.copy())),))
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
        one_block(cfg, obj, range(8))
        assert calls == [(8, cfg.n_modes)] * cfg.horizon

    def test_noise_modes_couples_dimensions(self):
        # blocks of different dimension on one chain id: the narrow chain is
        # driven by the first 4 components of the wide chain's 6-wide noise
        obj6 = make_objective(n_modes=6)
        obj4 = make_objective(n_modes=4)
        cfg6 = make_cfg(n_modes=6, horizon=40, burn_in=0)
        cfg4 = make_cfg(n_modes=4, horizon=40, burn_in=0)
        states = []
        wide, narrow = run_blocks(
            [(cfg6, obj6, [0], ()), (cfg4, obj4, [0], (lambda step, x, risk: states.append(x.copy()),))], l_star=0.0
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
        calls = counted_loss_calls(monkeypatch)
        seen = []

        def observe(step, x, risk):
            assert not x.flags.writeable and not risk.flags.writeable
            seen.append((x.copy(), risk.copy()))

        s = one_block(cfg, obj, [0], l_star=0.1, observers=(observe,))
        # one fused evaluation per state X_0..X_200 feeds risk and gradient alike
        assert [calls[name] for name in LOSS_METHODS] == [cfg.horizon + 1, 0, 0]
        assert len(seen) == 160
        assert all(np.array_equal(risk, risk_array(obj, x)) for x, risk in seen)
        post = s.steps > 40
        assert s.retained_steps == 160
        assert s.final_cesaro_phi[0] == pytest.approx(float(np.mean(s.phi[0, post])), rel=1e-12)
        assert s.cesaro_phi[0, -1] == pytest.approx(s.final_cesaro_phi[0], rel=1e-12)

    def test_full_batch_risk_only_where_read(self, monkeypatch):
        # burn_in = horizon - 1 retains only the last step; cadence 2 checkpoints every even step
        obj = make_objective(n=8)
        cfg = make_cfg(horizon=2000, burn_in=1999)
        assert cfg.checkpoint_every == 2
        calls = counted_loss_calls(monkeypatch)
        summary = run_chain(cfg, obj)
        # one fused evaluation per checkpoint, step 0 included; the odd steps take the gradient alone
        assert [calls[name] for name in LOSS_METHODS] == [1001, 0, 1000]
        assert summary.steps.size == 1001 and summary.retained_steps == 1
        monkeypatch.undo()
        reference = run_chain(dataclasses.replace(cfg, burn_in=0), obj)
        assert np.array_equal(summary.risk, reference.risk) and np.array_equal(summary.norm, reference.norm)

    def test_summary_is_one_read_only_table_per_block(self):
        obj = make_objective()
        cfg = make_cfg(horizon=300)
        s = one_block(cfg, obj, [4, 1, 7])
        columns = ("norm", "risk", "reg_objective", "phi", "cesaro_phi")
        k = 301  # cadence 1: step 0 and every step after it
        shapes = dict(chain_ids=(3,), steps=(k,), final_cesaro_phi=(3,), final_cesaro_risk=(3,))
        shapes.update((name, (3, k)) for name in columns)
        for name, shape in shapes.items():
            a = getattr(s, name)
            assert a.shape == shape and not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[(0,) * a.ndim] = 1.0
        assert s.chain_ids.tolist() == [4, 1, 7] and s.retained_steps == 240
        # the five columns are the rows of the block's one (5, R, K) checkpoint array
        table = s.norm.base
        assert table.shape == (5, 3, k)
        for name, row in zip(columns, table):
            column = getattr(s, name)
            assert np.shares_memory(column, table) and np.array_equal(column, row, equal_nan=True)
        for a, b in itertools.combinations(columns, 2):
            assert not np.shares_memory(getattr(s, a), getattr(s, b))

    def test_ou_mode_variance_matches_closed_form(self):
        # stationary per-mode variance (2 eta / beta) a_k^2 / (1 - a_k^2) of GLD on the zero loss
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

        one_block(cfg, make_objective(n_modes=4, loss=ZERO), [0], observers=(accumulate,))
        var = sumsq / count - (sums / count) ** 2
        a = resolvent_scales(kernel, cfg.lam, cfg.eta, 4)
        expect = (2.0 * cfg.eta / cfg.beta) * a**2 / (1.0 - a**2)
        assert expect[0] == pytest.approx(0.4, abs=1e-15)
        assert np.allclose(var, expect, rtol=0.05)

    def test_partial_summary_on_abort(self):
        obj = make_objective()
        cfg = ChainConfig(eta=50.0, beta=100.0, lam=1e-6, n_modes=6, seed=1, horizon=100_000)
        with pytest.raises(NumericalAbort) as exc_info:
            run_ensemble(cfg, obj, l_star=0.0)
        partial = exc_info.value.partial
        assert partial is not None and len(partial) == 1
        assert partial[0].steps[0] == 0 and np.all(np.diff(partial[0].steps) > 0)
        assert np.isfinite(partial[0].risk[0, 0])


def same_summary(a, b) -> bool:
    """Every RunSummary field equal bit for bit, NaN equal to NaN."""
    for f in dataclasses.fields(a):
        u, v = getattr(a, f.name), getattr(b, f.name)
        if isinstance(u, np.ndarray):
            if not (u.dtype == v.dtype and np.array_equal(u, v, equal_nan=u.dtype.kind == "f")):
                return False
        elif u != v:
            return False
    return True


@st.composite
def block_sets(draw):
    """1-4 blocks, each of its own chain (gld, sgld with m in 1..7 < n_tr = 8, or
    ou, GLD on the zero loss) and N+1 in 3..9 (objectives shared per
    dimension and loss), on overlapping or disjoint chain ids, horizons
    across chunk boundaries."""
    horizon = draw(st.integers(1, 600))
    burn_in = draw(st.integers(0, horizon - 1))
    seed = draw(st.integers(0, 2**16))
    objectives = {}
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        chain = draw(st.sampled_from(["gld", "sgld", "ou"]))
        n_modes = draw(st.integers(3, 9))
        loss = ZERO if chain == "ou" else "squared"
        if (n_modes, loss) not in objectives:
            objectives[n_modes, loss] = make_objective(n_modes=n_modes, loss=loss)
        obj = objectives[n_modes, loss]
        cfg = make_cfg(
            n_modes=n_modes,
            eta=draw(st.sampled_from([0.02, 0.05, 0.1])),
            beta=draw(st.sampled_from([1.0, 4.0])),
            seed=seed,
            horizon=horizon,
            burn_in=burn_in,
            minibatch=draw(st.integers(1, 7)) if chain == "sgld" else None,
        )
        ids = draw(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True))
        blocks.append((cfg, obj, ids))
    return blocks, draw(st.sampled_from([0.0, 0.3]))


def observed_run(blocks, l_star):
    """run_blocks with an observer per block; returns summaries and observed (step, X, risk)."""
    seen = [[] for _ in blocks]
    observers = [
        (lambda step, x, risk, log=log: log.append((step, x.copy(), risk.copy())),)
        for log in seen
    ]
    out = run_blocks([(cfg, obj, ids, obs) for (cfg, obj, ids), obs in zip(blocks, observers)], l_star)
    return out, seen


def observed_states(cfg, obj, ids):
    """X_0 and every state after it, up to the horizon or the aborted step, from
    a burn_in=0 run's observer (the trajectory does not depend on burn-in)."""
    states = [np.tile(cfg.x0_array(), (len(ids), 1))]
    observer = (lambda step, x, risk: states.append(x.copy()),)
    try:
        one_block(dataclasses.replace(cfg, burn_in=0), obj, ids, observers=observer)
    except NumericalAbort:
        pass
    return states


def reference_summary(cfg, obj, ids, l_star, states):
    """Step-by-step bookkeeping over states[s] = X_s: norm, risk, ridge term
    and phi at each checkpoint, running Cesaro sums with +=, NaN before the
    first retained step; one (R, K) column per statistic."""
    n_chains = len(ids)
    ces_phi, ces_risk, retained = np.zeros(n_chains), np.zeros(n_chains), 0
    steps, rows = [], []
    for step, x in enumerate(states):
        risk = obj.risk_array(x)
        if step > cfg.burn_in_steps:
            ces_risk += risk
            ces_phi += sigmoid_gap(risk - l_star)
            retained += 1
        if step % cfg.checkpoint_every == 0 or step == cfg.horizon:
            reg = risk + 0.5 * cfg.lam * np.sum(x * x / obj.kernel.eigenvalues(cfg.n_modes), axis=1)
            ces = ces_phi / retained if retained else np.full(n_chains, np.nan)
            steps.append(step)
            rows.append((np.linalg.norm(x, axis=1), risk, reg, sigmoid_gap(risk - l_star), ces))
    cols = [np.stack(col, axis=1) for col in zip(*rows)]
    finals = [ces / retained if retained else np.full(n_chains, np.nan) for ces in (ces_phi, ces_risk)]
    return RunSummary(
        retained_steps=retained,
        chain_ids=np.array(ids, dtype=int),
        steps=np.array(steps, dtype=int),
        norm=cols[0],
        risk=cols[1],
        reg_objective=cols[2],
        phi=cols[3],
        cesaro_phi=cols[4],
        final_cesaro_phi=finals[0],
        final_cesaro_risk=finals[1],
    )


class TestChunkedBookkeeping:
    """The engine batches Cesaro sums and checkpoint rows once per noise chunk;
    they must keep the bits of step-by-step bookkeeping."""

    @pytest.mark.parametrize("horizon", [1, 255, 256, 257, 600, 2001])  # 2001: cadence 2
    @pytest.mark.parametrize("n_chains", [1, 3])
    @pytest.mark.parametrize("chain", ["gld", "sgld", "ou"])
    def test_summaries_equal_per_step_reference(self, chain, n_chains, horizon):
        obj = make_objective(loss=ZERO if chain == "ou" else "savage")
        ids = [4, 1, 7][:n_chains]
        cfg = make_cfg(horizon=horizon, minibatch=3 if chain == "sgld" else None)
        states = observed_states(cfg, obj, ids)
        for burn_in in sorted({0, 100, 256, 300} & set(range(horizon))):  # chunk-inner and chunk-edge burn-ins
            run_cfg = dataclasses.replace(cfg, burn_in=burn_in)
            summary = one_block(run_cfg, obj, ids, 0.3)
            assert same_summary(summary, reference_summary(run_cfg, obj, ids, 0.3, states))

    # the test's own reference_summary overflows on the last finite states before the abort
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partial_summary_equals_reference_after_a_flushed_chunk(self):
        obj = make_objective()
        cfg = ChainConfig(eta=10.0, beta=100.0, lam=1e-6, n_modes=6, seed=1, horizon=1000)
        ids = [0, 2]
        with pytest.raises(NumericalAbort) as exc_info:
            one_block(cfg, obj, ids, l_star=0.3)
        step = exc_info.value.step
        assert step > 256
        states = observed_states(cfg, obj, ids)
        assert len(states) == step  # X_0 .. X_{step-1}
        [partial] = exc_info.value.partial
        assert partial.steps[-1] == step - 1 and partial.retained_steps > 0
        assert same_summary(partial, reference_summary(cfg, obj, ids, 0.3, states))

    @pytest.mark.parametrize("burn_in, evaluated", [(1999, 1001), (None, 1801)])
    @pytest.mark.parametrize("chain", ["sgld", "ou"])
    def test_one_evaluation_per_evaluated_state(self, chain, burn_in, evaluated, monkeypatch):
        # cadence 2: step 0 and the 1000 even steps are checkpoints; the default burn-in
        # of 400 retains steps 401..2000, of which 800 are odd.  An SGLD chain takes the
        # loss value there alone; a full-batch one (ou, GLD on the zero loss) fuses it
        # with the gradient it takes at every state
        obj = make_objective(n=8, loss=ZERO if chain == "ou" else "squared")
        cfg = make_cfg(horizon=2000, burn_in=burn_in, minibatch=3 if chain == "sgld" else None)
        calls = counted_loss_calls(monkeypatch)
        gap = dynamics.sigmoid_gap
        monkeypatch.setattr(dynamics, "sigmoid_gap", lambda u: calls.update(["phi"]) or gap(u))
        summary = one_block(cfg, obj, range(8))
        assert len(summary.steps) == 1001 and summary.retained_steps == 2000 - cfg.burn_in_steps
        if chain == "sgld":
            assert calls["value"] == evaluated and calls["value_and_d1"] == 0
        else:
            assert [calls[name] for name in LOSS_METHODS] == [evaluated, 0, cfg.horizon + 1 - evaluated]
        assert calls["phi"] <= 2 * math.ceil(cfg.horizon / dynamics._CHUNK)  # the phi rows are batched per flush


@pytest.fixture
def workers(monkeypatch):
    """Two CPUs whatever the host, and the pids of the noise workers run_blocks
    forks; a test still waiting after 60 s fails instead of hanging."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def timed_out(signum, frame):
        raise TimeoutError("still waiting after 60 s")

    monkeypatch.setattr(dynamics, "_cpus", lambda: 2)
    monkeypatch.setattr(os, "fork", counted)
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    yield forked
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def slow_fills(monkeypatch):
    """Noise generators whose fills take 10 ms longer, so that a step reading a
    buffer before its fill ended, or a fill still running at exit, would show."""
    make = dynamics.make_rng

    class Slow:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, out):
            time.sleep(0.01)
            return self.rng.standard_normal(out=out)

    def make_rng(seed, chain_id, stream):
        rng = make(seed, chain_id, stream)
        return Slow(rng) if stream == dynamics._STREAM_NOISE else rng

    monkeypatch.setattr(dynamics, "make_rng", make_rng)


def no_child_left() -> bool:
    """Whether this process has no child process, running or unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


class TestNoiseAhead:
    """A call that draws many normals forks a worker process that draws the
    noise a chunk ahead; its summaries keep the bits of the inline path."""

    @pytest.mark.parametrize("horizon", [127, 128, 129, 2001])  # 2001: cadence 2
    @pytest.mark.parametrize("chain", ["gld", "sgld", "ou"])
    def test_summaries_equal_per_step_reference(self, chain, horizon, workers, monkeypatch):
        obj = make_objective(n_modes=129, loss=ZERO if chain == "ou" else "savage")
        ids = [4, 1, 7]
        cfg = make_cfg(n_modes=129, horizon=horizon, minibatch=3 if chain == "sgld" else None)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 10**9)
        states = observed_states(cfg, obj, ids)  # drawn inline
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        burn_ins = sorted({0, 127, 128, 129, 300} & set(range(horizon)))  # 128: the chunk edge
        for burn_in in burn_ins:
            run_cfg = dataclasses.replace(cfg, burn_in=burn_in)
            summary = one_block(run_cfg, obj, ids, 0.3)
            assert same_summary(summary, reference_summary(run_cfg, obj, ids, 0.3, states))
        # one chunk has nothing to draw ahead of
        assert len(workers) == (len(burn_ins) if horizon > 128 else 0)

    @pytest.mark.parametrize(
        "n_chains, horizon, width, cpus, forked",
        [
            (2, 3907, 127, 2, False),  # 992,378 normals
            (2, 3907, 128, 2, True),  # 1,000,192
            (1, 3907, 128, 2, False),  # the call's chain ids count
            (2, 3907, 129, 1, False),
            (64, 128, 129, 2, False),  # 1,056,768 normals in one chunk
        ],
    )
    def test_forks_only_large_calls_on_several_cpus(self, n_chains, horizon, width, cpus, forked, workers, monkeypatch):
        monkeypatch.setattr(dynamics, "_cpus", lambda: cpus)
        cfg = make_cfg(n_modes=width, horizon=horizon, burn_in=horizon - 1)
        one_block(cfg, make_objective(n_modes=width), list(range(n_chains)))
        assert len(workers) == forked

    def test_mixed_call_keeps_its_bits_with_and_without_the_worker(self, workers, slow_fills, monkeypatch):
        # gld, sgld and ou (zero-loss) blocks at widths 9 and 65 on 4 chain ids: 4 x 700 x 65
        # normals, the threshold at or just past them
        objectives = {n: make_objective(n_modes=n, loss="savage") for n in (9, 65)}
        blocks = [
            (make_cfg(n_modes=n, horizon=700, burn_in=250, minibatch=3 if chain == "sgld" else None),
             make_objective(n_modes=n, loss=ZERO) if chain == "ou" else objectives[n], ids, ())
            for n, chain, ids in [(65, "gld", [0, 1, 2]), (9, "sgld", [2, 3]), (65, "ou", [1, 3]), (9, "gld", [0])]
        ]
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 4 * 700 * 65)
        forked = run_blocks(blocks, 0.3)
        assert len(workers) == 1
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 4 * 700 * 65 + 1)
        inline = run_blocks(blocks, 0.3)
        assert len(workers) == 1
        assert all(same_summary(a, b) for a, b in zip(forked, inline))

    def test_inline_and_forked_calls_flush_at_the_same_steps(self, workers, monkeypatch):
        # burn-in 0: the steps a block has retained when it flushes are the steps it flushes at
        objectives = {n: make_objective(n_modes=n) for n in (9, 129)}
        blocks = [
            (make_cfg(n_modes=129, horizon=2001, burn_in=0), objectives[129], [0, 1], ()),
            (make_cfg(n_modes=9, horizon=2001, burn_in=0, minibatch=3), objectives[9], [1, 2], ()),
        ]
        flushed = collections.defaultdict(list)
        flush = dynamics._Block.flush

        def counted(block):
            flushed[block.cfg.mode].append(block.retained)
            flush(block)

        monkeypatch.setattr(dynamics._Block, "flush", counted)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 10**9)
        run_blocks(blocks, 0.3)
        inline, flushed = dict(flushed), collections.defaultdict(list)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        run_blocks(blocks, 0.3)
        assert len(workers) == 1 and dict(flushed) == inline
        assert inline["gld"] == inline["sgld"] == [*range(dynamics._CHUNK, 2001, dynamics._CHUNK), 2001]

    def test_without_fork_the_call_runs_inline_with_the_same_bits(self, workers, monkeypatch):
        obj = make_objective(n_modes=65, loss="savage")
        cfg = make_cfg(n_modes=65, horizon=700, burn_in=250)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        forked = one_block(cfg, obj, [3, 0, 5], 0.3)
        monkeypatch.delattr(os, "fork")
        inline = one_block(cfg, obj, [3, 0, 5], 0.3)
        assert len(workers) == 1 and same_summary(forked, inline)

    # the test's own reference_summary overflows on the last finite states before the abort
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_partial_summary_on_abort_after_several_chunks(self, workers, slow_fills, monkeypatch):
        obj = make_objective(n_modes=129)
        cfg = ChainConfig(eta=10.0, beta=100.0, lam=1e-6, n_modes=129, seed=1, horizon=2000)
        ids = [0, 2]
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        with pytest.raises(NumericalAbort) as exc_info:
            one_block(cfg, obj, ids, l_star=0.3)
        step = exc_info.value.step
        assert step > 256 and len(workers) == 1 and no_child_left()
        states = observed_states(cfg, obj, ids)
        [partial] = exc_info.value.partial
        assert same_summary(partial, reference_summary(cfg, obj, ids, 0.3, states))
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 10**9)
        with pytest.raises(NumericalAbort) as inline:
            one_block(cfg, obj, ids, l_star=0.3)
        assert inline.value.step == step and same_summary(inline.value.partial[0], partial)
        assert len(workers) == 2

    @pytest.mark.parametrize(
        "raised", [None, NumericalAbort, KeyError, KeyboardInterrupt], ids=["return", "abort", "observer", "interrupt"]
    )
    def test_no_worker_outlives_any_exit(self, raised, workers, slow_fills, monkeypatch):
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        cfg = make_cfg(n_modes=129, horizon=1000, burn_in=0)
        if raised is NumericalAbort:
            cfg = ChainConfig(eta=10.0, beta=100.0, lam=1e-6, n_modes=129, seed=1, horizon=1000, burn_in=0)

        def observer(step, x, risk):
            if step == 200 and raised in (KeyError, KeyboardInterrupt):
                raise raised("observer")

        with pytest.raises(raised) if raised else contextlib.nullcontext():
            one_block(cfg, make_objective(n_modes=129), [0, 1], observers=(observer,))
        assert len(workers) == 1 and no_child_left()

    def test_worker_exception_reaches_the_caller(self, workers, monkeypatch):
        class FailsAfterFirstFill:
            def __init__(self, rng):
                self.rng, self.fills = rng, 0

            def standard_normal(self, out):
                self.fills += 1
                if self.fills > 1:
                    raise OSError("fill failed")
                return self.rng.standard_normal(out=out)

        make = dynamics.make_rng
        monkeypatch.setattr(dynamics, "make_rng", lambda *key: FailsAfterFirstFill(make(*key)))
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        with pytest.raises(RuntimeError, match="exited with status 1 after it raised OSError: fill failed") as exc_info:
            one_block(make_cfg(n_modes=129, horizon=1000), make_objective(n_modes=129), [0, 1])
        [pid] = workers
        assert f"noise worker {pid} " in str(exc_info.value) and no_child_left()

    def test_forked_parent_draws_no_minibatch(self, workers, monkeypatch):
        # two SGLD blocks of different m on shared chain ids and a GLD block; 2001 steps
        # end on a short chunk.  The worker's calls count in its own copy of `calls`
        obj = make_objective(n_modes=9, loss="savage")
        blocks = [
            (make_cfg(n_modes=9, horizon=2001, burn_in=0, minibatch=m), obj, ids, ())
            for m, ids in [(None, [0, 1, 2]), (3, [1, 2, 3]), (5, [2, 1, 3])]
        ]
        calls, minibatches = [], collections.Counter()
        draw = dynamics._draw

        def counted(chunk, chunk_len, *rngs):
            calls.append(chunk_len)
            minibatches.update(indices.shape[2] for indices in chunk[1:])  # each SGLD block's m
            return draw(chunk, chunk_len, *rngs)

        monkeypatch.setattr(dynamics, "_draw", counted)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        forked = run_blocks(blocks, 0.3)
        assert len(workers) == 1 and calls == [] and minibatches == {} and no_child_left()
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 10**9)
        inline = run_blocks(blocks, 0.3)
        chunks = math.ceil(2001 / dynamics._CHUNK)
        assert len(workers) == 1 and len(calls) == chunks and minibatches == {3: chunks, 5: chunks}
        assert all(same_summary(a, b) for a, b in zip(forked, inline))

    def test_worker_minibatch_exception_reaches_the_caller(self, workers, monkeypatch):
        draw = dynamics._draw
        calls = []

        def fails_on_second_call(chunk, chunk_len, *rngs):
            calls.append(chunk_len)
            if len(calls) == 2:
                raise OSError("draw failed")
            return draw(chunk, chunk_len, *rngs)

        monkeypatch.setattr(dynamics, "_draw", fails_on_second_call)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        with pytest.raises(RuntimeError, match="exited with status 1 after it raised OSError: draw failed") as exc_info:
            one_block(make_cfg(horizon=1000, minibatch=3), make_objective(), [0, 1])
        [pid] = workers
        assert str(exc_info.value).startswith(f"noise worker {pid} ") and calls == [] and no_child_left()

    def test_killed_worker_raises_its_exit_status(self, workers, monkeypatch):
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)

        def kill_the_worker(step, x, risk):
            if step == 200:
                os.kill(workers[0], signal.SIGKILL)

        with pytest.raises(RuntimeError, match=f"was killed by signal {signal.SIGKILL.value}"):
            one_block(make_cfg(n_modes=129, horizon=1000, burn_in=0), make_objective(n_modes=129), [0, 1],
                      observers=(kill_the_worker,))
        assert len(workers) == 1 and no_child_left()

    def test_unforkable_worker_raises_runtime_error(self, monkeypatch):
        # no process for the worker: the call fails naming it, with its four pipe ends closed
        def fork():
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(dynamics, "_AHEAD_NORMALS", 1)
        monkeypatch.setattr(dynamics, "_cpus", lambda: 2)
        open_fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
        reason = re.escape(f"[Errno {errno.EAGAIN}] {os.strerror(errno.EAGAIN)}")
        with pytest.raises(RuntimeError, match=f"^noise worker could not be started: {reason}$"):
            one_block(make_cfg(horizon=300), make_objective(), [0, 1])
        if open_fds is not None:
            assert os.listdir("/proc/self/fd") == open_fds


class TestRunBlocks:
    @given(block_sets())
    @settings(max_examples=30, deadline=None)
    def test_blocks_equal_solo_runs(self, drawn):
        blocks, l_star = drawn
        results, seen = observed_run(blocks, l_star)
        width = max(cfg.n_modes for cfg, _, _ in blocks)
        widest = next(b for b in blocks if b[0].n_modes == width)
        for block, summary, log in zip(blocks, results, seen):
            cfg, obj, ids = block
            if cfg.n_modes == width:
                solo_log = []
                observer = (lambda step, x, risk: solo_log.append((step, x.copy(), risk.copy())),)
                solo = one_block(cfg, obj, ids, l_star, observer)
            else:
                # a narrower block reads the call's noise width: pair it with the widest block
                (solo, _), (solo_log, _) = observed_run([block, widest], l_star)
            assert summary.chain_ids.tolist() == ids
            assert same_summary(summary, solo)
            assert len(log) == len(solo_log) == cfg.horizon - cfg.burn_in_steps
            for (step, x, risk), (solo_step, solo_x, solo_risk) in zip(log, solo_log):
                assert step == solo_step and np.array_equal(x, solo_x) and np.array_equal(risk, solo_risk)

    @pytest.mark.parametrize(
        "change",
        [dict(seed=43), dict(horizon=101), dict(burn_in=7)],
        ids=["seed", "horizon", "burn_in"],
    )
    def test_lockstep_mismatch_raises_before_step_one(self, change, monkeypatch):
        obj = make_objective()
        cfg = make_cfg(burn_in=0)
        calls = counted_loss_calls(monkeypatch)
        with pytest.raises(ValueError, match="lockstep"):
            run_blocks([(cfg, obj, [0], ()), (dataclasses.replace(cfg, **change), obj, [1], ())], l_star=0.0)
        assert not calls

    @pytest.mark.parametrize("chain", ["gld", "sgld", "ou"])
    @pytest.mark.parametrize("width, match", [(None, "requires an objective"), (6, "mode count")], ids=["none", "wider"])
    def test_objective_mismatch_raises_before_step_one(self, chain, width, match):
        # every chain needs an objective as wide as its config, the OU chain's zero loss too
        loss = ZERO if chain == "ou" else "squared"
        obj = None if width is None else make_objective(n_modes=width, loss=loss)
        minibatch = 3 if chain == "sgld" else None
        seen = []
        with pytest.raises(ValueError, match=match):
            run_blocks(
                [
                    (make_cfg(burn_in=0, minibatch=minibatch), make_objective(loss=loss), [0],
                     (lambda step, x, risk: seen.append(step),)),
                    (make_cfg(n_modes=4, burn_in=0, minibatch=minibatch), obj, [0], ()),
                ],
                l_star=0.0,
            )
        assert seen == []


@st.composite
def packed_block_sets(draw):
    """2-5 blocks of R chains each on one dataset and loss, so that the
    blocks of one gradient kind step as one group: gld and sgld (m in 1..7 <
    n_tr = 8) blocks mixed, N+1 in 3..9 (blocks of equal
    width share their objective), each on the call's R chain ids, on them
    reversed or on R ids of its own, horizons across chunk boundaries."""
    horizon = draw(st.integers(1, 600))
    burn_in = draw(st.integers(0, horizon - 1))
    seed = draw(st.integers(0, 2**16))
    data = Dataset.synthesize(8, seed=5)
    loss = draw(st.sampled_from(["squared", "savage"]))
    n_chains = draw(st.integers(1, 4))
    objectives, blocks = {}, []
    for i in range(draw(st.integers(2, 5))):
        sgld = draw(st.booleans())
        n_modes = draw(st.integers(3, 9))
        if n_modes not in objectives:
            objectives[n_modes] = ObjectiveSpec(data, loss_family(loss), KernelSpec(gamma=1.5), n_modes)
        cfg = make_cfg(
            n_modes=n_modes,
            eta=draw(st.sampled_from([0.02, 0.05, 0.1])),
            beta=draw(st.sampled_from([1.0, 4.0])),
            seed=seed,
            horizon=horizon,
            burn_in=burn_in,
            minibatch=draw(st.integers(1, 7)) if sgld else None,
            x0=draw(st.sampled_from([None, np.linspace(-1.0, 1.0, n_modes)])),
        )
        ids = draw(st.sampled_from(["shared", "reversed", "own"]))
        ids = {"shared": list(range(n_chains)), "reversed": list(range(n_chains))[::-1]}.get(
            ids, [100 * (i + 1) + r for r in range(n_chains)]
        )
        blocks.append((cfg, objectives[n_modes], ids))
    return blocks, draw(st.sampled_from([0.0, 0.3]))


def logged_run(blocks, l_star):
    """run_blocks with an observer per block that logs (step, X, risk) and
    whether either array was writable."""
    logs = [[] for _ in blocks]

    def observer(log):
        return lambda step, x, risk: log.append((step, x.copy(), risk.copy(), x.flags.writeable or risk.flags.writeable))

    return run_blocks([(*block, (observer(log),)) for block, log in zip(blocks, logs)], l_star), logs


class TestPackedGroups:
    """Blocks of one call that share R, the dataset, the loss and the gradient
    kind step as one column-packed group, with the bits of solo runs."""

    @given(packed_block_sets())
    @settings(max_examples=40, deadline=None)
    def test_packed_groups_equal_solo_runs(self, drawn):
        blocks, l_star = drawn
        results, logs = logged_run(blocks, l_star)
        width = max(cfg.n_modes for cfg, _, _ in blocks)
        for block, summary, log in zip(blocks, results, logs):
            cfg = block[0]
            # the block in a group of its own; a one-chain block on another dataset
            # sets the call's noise width
            setter = (dataclasses.replace(cfg, n_modes=width, minibatch=None, x0=None),
                      make_objective(n_modes=width), [10**6])
            (solo, _), (solo_log, _) = logged_run([block, setter], l_star)
            assert same_summary(summary, solo)
            assert len(log) == len(solo_log) == cfg.horizon - cfg.burn_in_steps
            for (step, x, risk, writable), (solo_step, solo_x, solo_risk, _) in zip(log, solo_log):
                assert step == solo_step and np.array_equal(x, solo_x) and np.array_equal(risk, solo_risk)
                assert not writable

    @pytest.mark.parametrize(
        "loss, n_blocks, n_chains, width",
        [
            ("squared", 5, 8, 32),  # the eta grid of acceptance test 7
            ("savage", 4, 8, 65),  # the beta grid of acceptance test 10
            ("logistic", 3, 1, 9),
            ("savage", 2, 5, 129),
        ],
    )
    @pytest.mark.parametrize("chain", ["gld", "ou"])
    def test_one_objective_groups_equal_solo_runs(self, loss, n_blocks, n_chains, width, chain):
        # each product is one matmul over the group's (B, R, N+1) view; the ou case
        # runs the loss's data under the zero loss
        obj = make_objective(n_modes=width, loss=ZERO if chain == "ou" else loss)
        ids = list(range(n_chains))
        blocks = [
            (make_cfg(n_modes=width, horizon=300, eta=eta, beta=4.0 * eta / 0.02), obj, ids[b:] + ids[:b])
            for b, eta in enumerate([0.02, 0.05, 0.1, 0.01, 0.03][:n_blocks])
        ]
        results, logs = logged_run(blocks, 0.3)
        for block, summary, log in zip(blocks, results, logs):
            (solo,), (solo_log,) = logged_run([block], 0.3)
            assert same_summary(summary, solo)
            for (step, x, risk, writable), (_, solo_x, solo_risk, _) in zip(log, solo_log):
                assert np.array_equal(x, solo_x) and np.array_equal(risk, solo_risk) and not writable

    @pytest.mark.parametrize("burn_in, fused, grad_only", [(0, 301, 0), (60, 241, 60)])
    def test_one_loss_call_per_step_for_a_galerkin_call(self, burn_in, fused, grad_only, monkeypatch):
        # five widths on one dataset, as galerkin_error_vs_n runs them: one group
        data = Dataset.synthesize(8, seed=5)
        cfg = make_cfg(horizon=300, burn_in=burn_in)
        blocks = [
            (dataclasses.replace(cfg, n_modes=n), ObjectiveSpec(data, loss_family("squared"), KernelSpec(), n), [0, 1, 2, 3], ())
            for n in (33, 3, 5, 9, 17)
        ]
        calls = counted_loss_calls(monkeypatch)
        run_blocks(blocks, 0.0, checkpoints=(cfg.horizon,))
        assert [calls[name] for name in LOSS_METHODS] == [fused, 0, grad_only]

    @pytest.mark.parametrize("diverging_first", [False, True])
    def test_abort_leaves_every_block_at_the_step_before(self, diverging_first):
        # the diverging block runs on another dataset, so it is a group of its own
        stable = (make_cfg(seed=1, horizon=1000, burn_in=0), make_objective(), [0, 2])
        wild = (ChainConfig(eta=10.0, beta=100.0, lam=1e-6, n_modes=6, seed=1, horizon=1000, burn_in=0),
                make_objective(n=9), [0, 2])
        blocks = [wild, stable] if diverging_first else [stable, wild]
        with pytest.raises(NumericalAbort) as exc_info:
            run_blocks([(*block, ()) for block in blocks], 0.3)
        step = exc_info.value.step
        assert step > 256  # past a flushed chunk
        for (cfg, obj, ids), partial in zip(blocks, exc_info.value.partial):
            assert partial.steps[-1] == partial.retained_steps == step - 1
            assert same_summary(partial, one_block(dataclasses.replace(cfg, horizon=step - 1), obj, ids, 0.3))


class TestGroupEvaluation:
    @given(
        st.data(),
        st.sampled_from(["squared", "logistic", "savage"]),
        st.sampled_from([[8], [3, 8, 5], [8, 8, 8]]),
        st.sampled_from([1, 5]),
        st.sampled_from([None, 3]),
    )
    @settings(max_examples=100, deadline=None)
    def test_evaluation_matches_separate_calls(self, data, loss, widths, n_chains, minibatch):
        # blocks of equal width share their objective, so [8, 8, 8] takes the stacked products;
        # a minibatch group evaluates only the risk
        dataset = Dataset.synthesize(12, seed=3)
        objectives = {n: ObjectiveSpec(dataset, loss_family(loss), KernelSpec(), n) for n in set(widths)}
        members = [
            dynamics._Block(make_cfg(n_modes=n, minibatch=minibatch), objectives[n], range(n_chains), (), 0.0, 0)
            for n in widths
        ]
        group = dynamics._Group(members, {r: r for r in range(n_chains)}, (n_chains, 1, max(widths)))
        x = data.draw(hnp.arrays(float, (n_chains, sum(widths)), elements=st.floats(-10.0, 10.0)))
        x.setflags(write=False)
        group.x = x
        for with_risk in (False, True):
            group.evaluate(with_risk)
            if minibatch is None:
                for b, xb, grad in zip(members, group.split(x), group.split(group.g)):
                    assert np.array_equal(grad, b.obj.grad_array(xb))
        for b, xb, risk in zip(members, group.split(x), [group.risk] if group.single else group.risk):
            assert np.array_equal(risk, b.obj.risk_array(xb))


class TestCheckpoints:
    """An explicit checkpoint list keeps the rows of a cadence-1 run at those
    steps, and nothing else of the run changes."""

    @pytest.mark.parametrize("burn_in", [0, 300])
    @pytest.mark.parametrize("chain", ["gld", "sgld", "ou"])
    def test_rows_equal_cadence_one_rows(self, chain, burn_in):
        obj = make_objective(loss=ZERO if chain == "ou" else "savage")
        cfg = make_cfg(horizon=600, burn_in=burn_in, minibatch=3 if chain == "sgld" else None)
        assert cfg.checkpoint_every == 1
        ids = [4, 1, 7]
        full = one_block(cfg, obj, ids, 0.3)
        checkpoints = [600, 257, 1, 256, 255, 433, 256]
        [picked] = run_blocks([(cfg, obj, ids, ())], 0.3, checkpoints)
        steps = [0, 1, 255, 256, 257, 433, 600]
        assert picked.steps.tolist() == steps
        for name in ("norm", "risk", "reg_objective", "phi", "cesaro_phi"):
            assert np.array_equal(getattr(picked, name), getattr(full, name)[:, steps], equal_nan=True)
        for name in ("chain_ids", "final_cesaro_phi", "final_cesaro_risk"):
            assert np.array_equal(getattr(picked, name), getattr(full, name))
        assert picked.retained_steps == full.retained_steps

    @pytest.mark.parametrize("checkpoints", [[0], [101], [-1, 50], [1, 100, 101], [2.7, 5.9]])
    def test_step_outside_the_horizon_raises_before_any_step(self, checkpoints, monkeypatch):
        obj = make_objective()
        calls = counted_loss_calls(monkeypatch)
        with pytest.raises(ValueError, match="checkpoints"):
            run_blocks([(make_cfg(), obj, [0], ())], l_star=0.0, checkpoints=checkpoints)
        assert not calls


class TestRng:
    def test_streams_distinct(self):
        a = make_rng(7, 0, 0).standard_normal(8)
        b = make_rng(7, 0, 1).standard_normal(8)
        c = make_rng(7, 1, 0).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_reproducible(self):
        assert np.array_equal(make_rng(7, 3, 0).standard_normal(8), make_rng(7, 3, 0).standard_normal(8))
