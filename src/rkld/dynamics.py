"""The chain engine: Galerkin GLD, SGLD and the noise-only OU chain.

Replica ensembles advance together as an (R, N+1) matrix with per-chain
counter-based random streams, so trajectories are bit-identical whether a
chain runs alone or inside an ensemble.  Several ensembles (blocks) advance
in lockstep through one loop; blocks that share a chain id share its noise,
drawn once, which couples runs of different step size, temperature,
starting point or dimension.  Noise and SGLD minibatch indices are
pregenerated in per-chain chunks to amortize generator overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .objective import ObjectiveSpec
from .spectral import KernelSpec, SpectralVector, resolvent_scales

__all__ = [
    "ChainConfig",
    "RunSummary",
    "NumericalAbort",
    "make_rng",
    "run_blocks",
    "run_chain",
    "run_ensemble",
    "sigmoid_gap",
]

_STREAM_NOISE = 0
_STREAM_BATCH = 1
_CHUNK = 256


class NumericalAbort(RuntimeError):
    """Raised when a chain produces a non-finite state."""

    def __init__(self, message, step, partial=None):
        super().__init__(message)
        self.step = step
        self.partial = partial


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one GLD/SGLD/OU run."""

    eta: float
    beta: float
    lam: float
    n_modes: int
    seed: int
    horizon: int
    minibatch: int | None = None  # None means full batch
    burn_in: int | None = None  # None means 20% of horizon
    x0: SpectralVector | None = None  # None means the zero vector

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive")
        if not (self.beta >= self.eta and math.isfinite(self.beta)):
            raise ValueError(f"finite beta >= eta required, got beta={self.beta}, eta={self.eta}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lambda must be positive and finite")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.burn_in is not None and not (0 <= self.burn_in < self.horizon):
            raise ValueError("burn_in must satisfy 0 <= burn_in < horizon")
        if self.minibatch is not None and self.minibatch < 1:
            raise ValueError("minibatch size must be >= 1")
        if self.x0 is not None and self.x0.n_modes != self.n_modes:
            raise ValueError("x0 mode count does not match n_modes")

    @property
    def burn_in_steps(self) -> int:
        return self.burn_in if self.burn_in is not None else self.horizon // 5

    @property
    def checkpoint_every(self) -> int:
        return max(1, self.horizon // 1000)

    def x0_array(self) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(self.n_modes)
        return np.array(self.x0.coeffs, copy=True)


@dataclass
class RunSummary:
    """Checkpointed trajectory statistics of one chain."""

    chain_id: int
    mode: str
    burn_in: int
    steps: np.ndarray
    norm: np.ndarray
    risk: np.ndarray
    reg_objective: np.ndarray
    phi: np.ndarray
    cesaro_phi: np.ndarray
    final_cesaro_phi: float
    final_cesaro_risk: float
    retained_steps: int


def make_rng(seed: int, chain_id: int = 0, stream: int = 0) -> np.random.Generator:
    """Counter-based generator on an independent stream keyed by (seed, chain, stream)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, chain_id, stream))))


def sigmoid_gap(gap) -> np.ndarray | float:
    """sigma(u) = 1/(1 + exp(-u)) - 1/2, the bounded test-function transform."""
    return 1.0 / (1.0 + np.exp(-np.asarray(gap, dtype=float))) - 0.5


class _Block:
    """One block's chains inside run_blocks: state, Cesaro sums, checkpoint log.

    A step only steps and keeps what the bookkeeping needs; flush() turns that
    into Cesaro sums and checkpoint rows once per noise chunk.
    """

    def __init__(self, cfg, obj, chain_ids, observers, mode, l_star):
        if mode in ("gld", "sgld"):
            if obj is None:
                raise ValueError(f"mode {mode!r} requires an objective")
            if obj.n_modes != cfg.n_modes:
                raise ValueError("objective mode count does not match config")
        self.cfg, self.obj, self.mode, self.l_star = cfg, obj, mode, l_star
        self.chain_ids = list(chain_ids)
        self.observers = tuple(observers)
        self.n = cfg.n_modes
        self.scales = resolvent_scales(obj.kernel if obj is not None else KernelSpec(), cfg.lam, cfg.eta, self.n)
        self.amp = math.sqrt(2.0 * cfg.eta / cfg.beta)
        self.x = np.tile(cfg.x0_array(), (len(self.chain_ids), 1))
        self.minibatch = None  # m when SGLD draws proper minibatches
        if mode == "sgld":
            n_tr = obj.dataset.size
            m = cfg.minibatch if cfg.minibatch is not None else n_tr
            if not (1 <= m <= n_tr):
                raise ValueError(f"minibatch size {m} out of range 1..{n_tr}")
            if m < n_tr:  # a full batch is the GLD gradient, exactly
                self.minibatch = m
                self.batch_rngs = [make_rng(cfg.seed, cid, _STREAM_BATCH) for cid in self.chain_ids]
        if obj is not None:
            self.mu = obj.kernel.eigenvalues(self.n)
        # a full-batch chain evaluates every state once, for its risk and its next gradient;
        # the others evaluate retained states, and checkpoint states at flush()
        self.fused = mode != "ou" and self.minibatch is None
        self.risk, self.g = None, 0.0  # risk None: the current states are not evaluated
        self.cesaro_phi = np.zeros(len(self.chain_ids))
        self.cesaro_risk = np.zeros(len(self.chain_ids))
        self.retained = 0
        self.chunk_risks: list[np.ndarray] = []  # the risk of each retained step since the last flush
        self.pending: list[tuple] = []  # (step, X, risk or None, len(chunk_risks), retained) per checkpoint
        self.ck_steps: list[int] = []
        self.ck_cols: list[tuple] = []  # (norm, risk, reg, phi, cesaro_phi) (K, R) arrays per flush

    def draw_batches(self, chunk_len):
        # row t of one chain's permuted tile is the t-th rng.permutation(n_tr), and
        # the generator ends in the same state, so chunking leaves the stream intact
        tile = np.tile(np.arange(self.obj.dataset.size), (chunk_len, 1))
        self.batches = np.stack([rng.permuted(tile, axis=1)[:, : self.minibatch] for rng in self.batch_rngs], axis=1)

    def evaluate(self):
        if self.fused:
            self.risk, self.g = self.obj.risk_and_grad_array(self.x)
        else:
            self.risk = self.obj.risk_array(self.x)
        self.risk.setflags(write=False)

    def advance(self, step, t, noise, retain):
        """X <- S_eta (X - eta g + amp eps) with eps the block's rows of noise[:, t]."""
        if self.minibatch is not None:
            g = self.obj.stochastic_grad_array(self.x, self.batches[t])
        else:
            g = self.g  # from X's fused evaluation; 0 for the OU chain
        x = self.scales * (self.x - self.cfg.eta * g + self.amp * noise[self.rows, t, : self.n])
        x.setflags(write=False)
        if not np.isfinite(x).all():
            raise NumericalAbort(f"non-finite state at step {step}", step=step)
        self.x, self.risk = x, None
        if self.fused or (retain and self.obj is not None):
            self.evaluate()
        if retain:
            if self.obj is not None:
                self.chunk_risks.append(self.risk)
            self.retained += 1
            for observer in self.observers:
                observer(step, x, self.risk)

    def record(self, step):
        self.pending.append((step, self.x, self.risk, len(self.chunk_risks), self.retained))

    def flush(self):
        """Cesaro sums and checkpoint rows since the last flush, with per-step bits:
        np.add.accumulate adds row after row like +=, where np.sum along axis 0
        would sum pairwise, and the rest acts per row or per (R, N+1) slice."""
        sums = self.cesaro_phi[None]
        if self.chunk_risks:
            risks = np.stack(self.chunk_risks)
            sums = np.add.accumulate(np.vstack([sums, sigmoid_gap(risks - self.l_star)]), axis=0)
            self.cesaro_risk = np.add.accumulate(np.vstack([self.cesaro_risk[None], risks]), axis=0)[-1]
            self.cesaro_phi = sums[-1]
            self.chunk_risks = []
        if not self.pending:
            return
        steps, xs, risks, rows, counts = zip(*self.pending)
        self.pending = []
        xs = np.stack(xs)
        norms = np.linalg.norm(xs, axis=-1)
        if self.obj is not None:
            risk = np.stack([np.zeros(len(self.chain_ids)) if r is None else r for r in risks])
            missing = [k for k, r in enumerate(risks) if r is None]
            if missing:  # states that no step evaluated: one call on the stacked (M, R, N+1) slices
                risk[missing] = self.obj.risk_array(xs[missing])
            reg = risk + 0.5 * self.cfg.lam * np.sum(xs * xs / self.mu, axis=-1)
            phi = sigmoid_gap(risk - self.l_star)
        else:
            risk = reg = phi = np.zeros(norms.shape)
        counts = np.array(counts)
        ces = sums[list(rows)] / np.maximum(counts, 1)[:, None]
        ces[counts == 0] = np.nan
        self.ck_steps.extend(steps)
        self.ck_cols.append((norms, risk, reg, phi, ces))

    def summaries(self) -> list[RunSummary]:
        cols = [np.concatenate(col) for col in zip(*self.ck_cols)]  # record(0) always ran
        steps_arr = np.array(self.ck_steps, dtype=int)
        retained = self.retained
        return [
            RunSummary(
                chain_id=cid,
                mode=self.mode,
                burn_in=self.cfg.burn_in_steps,
                steps=steps_arr.copy(),
                norm=cols[0][:, r].copy(),
                risk=cols[1][:, r].copy(),
                reg_objective=cols[2][:, r].copy(),
                phi=cols[3][:, r].copy(),
                cesaro_phi=cols[4][:, r].copy(),
                final_cesaro_phi=float(self.cesaro_phi[r] / retained) if retained else math.nan,
                final_cesaro_risk=float(self.cesaro_risk[r] / retained) if retained else math.nan,
                retained_steps=retained,
            )
            for r, cid in enumerate(self.chain_ids)
        ]


def run_blocks(blocks, mode: str = "gld", l_star: float = 0.0) -> list[list[RunSummary]]:
    """Advance several ensembles in lockstep, one loop for all of them.

    A block is a (cfg, obj, chain_ids, observers) tuple with the meaning of
    run_ensemble's arguments.  Blocks must share the seed, horizon and burn-in.
    Each distinct chain id draws its noise once per chunk, at the widest
    block's n_modes, and every block reads the first N+1 components of its
    chain ids' rows, so blocks that share a chain id share their noise
    (common random numbers across step sizes, temperatures or dimensions).
    A block as wide as the widest one gives the same bits as its solo
    run_ensemble call; each block keeps its own matmuls, since stacking the
    rows of several blocks into one matrix changes BLAS's summation order.

    Returns one list of summaries per block, ordered as the block's chain ids.
    On a NumericalAbort in any block the run stops and exc.partial holds
    these lists up to the aborted step.
    """
    if mode not in ("gld", "sgld", "ou"):
        raise ValueError(f"unknown mode: {mode!r}")
    if not blocks:
        raise ValueError("run_blocks needs at least one block")
    states = [_Block(cfg, obj, ids, observers, mode, l_star) for cfg, obj, ids, observers in blocks]
    first = states[0].cfg
    lockstep = (first.seed, first.horizon, first.burn_in_steps)
    if any((s.cfg.seed, s.cfg.horizon, s.cfg.burn_in_steps) != lockstep for s in states):
        raise ValueError("blocks must share seed, horizon and burn-in to run in lockstep")
    horizon, burn_in, cadence = first.horizon, first.burn_in_steps, first.checkpoint_every

    # one noise row per distinct chain id; a block's rows are a view when its
    # ids are consecutive in first-appearance order
    ids = list(dict.fromkeys(cid for s in states for cid in s.chain_ids))
    position = {cid: i for i, cid in enumerate(ids)}
    for s in states:
        rows = [position[cid] for cid in s.chain_ids]
        lo = rows[0] if rows else 0
        s.rows = slice(lo, lo + len(rows)) if rows == list(range(lo, lo + len(rows))) else np.array(rows)
    noise_rngs = [make_rng(first.seed, cid, _STREAM_NOISE) for cid in ids]
    noise = np.empty((len(ids), min(_CHUNK, horizon), max(s.n for s in states)))

    for s in states:
        if s.fused:
            s.evaluate()
        s.record(0)
    step = 0
    try:
        while step < horizon:
            chunk_len = min(_CHUNK, horizon - step)
            for rng, row in zip(noise_rngs, noise):
                rng.standard_normal(out=row[:chunk_len])
            for s in states:
                if s.minibatch is not None:
                    s.draw_batches(chunk_len)
            for t in range(chunk_len):
                step += 1
                retain = step > burn_in
                checkpoint = step % cadence == 0 or step == horizon
                for s in states:
                    s.advance(step, t, noise, retain)
                    if checkpoint:
                        s.record(step)
            for s in states:
                s.flush()
    except NumericalAbort as exc:
        for s in states:
            s.flush()
        exc.partial = [s.summaries() for s in states]
        raise
    return [s.summaries() for s in states]


def run_ensemble(
    cfg: ChainConfig,
    obj: ObjectiveSpec | None = None,
    mode: str = "gld",
    n_chains: int = 1,
    l_star: float = 0.0,
    observers: tuple = (),
    chain_ids=None,
) -> list[RunSummary]:
    """Advance n_chains replicas of the configured chain and summarize each.

    Replica r uses the random streams keyed by (cfg.seed, chain_ids[r]), so
    the trajectory of any single replica is independent of the ensemble it
    runs inside.  Observers are called as observer(step, X, risk) for every
    post-burn-in step, with the full (R, N+1) state matrix and the per-chain
    risk obj.risk_array(X) that also feeds the Cesaro sums and checkpoints
    (None without an objective); both arrays are read-only.

    This is run_blocks with one block.  Returns summaries ordered by chain id.
    """
    if chain_ids is None:
        chain_ids = list(range(n_chains))
    if len(chain_ids) != n_chains:
        raise ValueError("chain_ids length must equal n_chains")
    try:
        return run_blocks([(cfg, obj, chain_ids, observers)], mode, l_star)[0]
    except NumericalAbort as exc:
        exc.partial = exc.partial[0]
        raise


def run_chain(
    cfg: ChainConfig,
    obj: ObjectiveSpec | None = None,
    mode: str = "gld",
    l_star: float = 0.0,
    observers: tuple = (),
    chain_id: int = 0,
) -> RunSummary:
    """Single-chain driver; see run_ensemble for the contract."""
    return run_ensemble(
        cfg, obj, mode=mode, n_chains=1, l_star=l_star, observers=observers, chain_ids=[chain_id]
    )[0]
