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
from .spectral import resolvent_scales

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

    def __init__(self, message, step):
        super().__init__(message)
        self.step = step
        self.partial = None  # the run's per-block summaries up to the aborted step, set by run_blocks


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer))


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of one GLD/SGLD/OU run, the chain's mode included: only
    sgld takes a minibatch, and a config built without a mode is sgld when
    it has one and gld otherwise."""

    eta: float
    beta: float
    lam: float
    n_modes: int
    seed: int
    horizon: int
    mode: str | None = None  # gld, sgld or ou
    minibatch: int | None = None  # None means full batch
    burn_in: int | None = None  # None means 20% of horizon
    x0: np.ndarray | None = None  # N+1 coefficients; None means the zero vector

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ValueError("eta must be positive")
        if not (self.beta >= self.eta and math.isfinite(self.beta)):
            raise ValueError(f"beta = {self.beta!r}: must be finite and >= eta = {self.eta!r}")
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise ValueError("lambda must be positive and finite")
        if not (_is_int(self.n_modes) and self.n_modes >= 1):
            raise ValueError(f"n_modes must be an integer >= 1, got {self.n_modes!r}")
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (_is_int(self.horizon) and self.horizon >= 1):
            raise ValueError(f"horizon must be an integer >= 1, got {self.horizon!r}")
        if self.burn_in is not None and not (_is_int(self.burn_in) and 0 <= self.burn_in < self.horizon):
            raise ValueError(f"burn_in = {self.burn_in!r}: must be an integer >= 0 and < horizon = {self.horizon}")
        if self.minibatch is not None and not (_is_int(self.minibatch) and self.minibatch >= 1):
            raise ValueError(f"minibatch size must be an integer >= 1, got {self.minibatch!r}")
        if self.mode is None:
            object.__setattr__(self, "mode", "gld" if self.minibatch is None else "sgld")
        if self.mode not in ("gld", "sgld", "ou"):
            raise ValueError(f"unknown mode: {self.mode!r}")
        if self.minibatch is not None and self.mode != "sgld":
            raise ValueError(f"minibatch = {self.minibatch!r}: only mode = sgld draws minibatches, not {self.mode}")
        if self.x0 is not None:
            x0 = np.array(self.x0, dtype=float, copy=True)
            if x0.shape != (self.n_modes,):
                raise ValueError(f"x0 must have shape ({self.n_modes},), got {x0.shape}")
            if not np.all(np.isfinite(x0)):
                raise ValueError("x0 must be finite")
            x0.setflags(write=False)
            object.__setattr__(self, "x0", x0)

    @property
    def burn_in_steps(self) -> int:
        return self.burn_in if self.burn_in is not None else self.horizon // 5

    @property
    def checkpoint_every(self) -> int:
        return max(1, self.horizon // 1000)

    def x0_array(self) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(self.n_modes)
        return np.array(self.x0, copy=True)


@dataclass
class RunSummary:
    """Checkpointed trajectory statistics of one block of R chains, K checkpoints.

    Row r of each (R, K) column and entry r of each (R,) array belong to
    chain_ids[r].  Every array is read-only, and the five columns are views
    of the block's one (5, R, K) checkpoint array.
    """

    mode: str
    burn_in: int
    retained_steps: int
    chain_ids: np.ndarray  # (R,)
    steps: np.ndarray  # (K,)
    norm: np.ndarray  # (R, K)
    risk: np.ndarray
    reg_objective: np.ndarray
    phi: np.ndarray
    cesaro_phi: np.ndarray
    final_cesaro_phi: np.ndarray  # (R,), NaN when no step was retained
    final_cesaro_risk: np.ndarray


def make_rng(seed: int, chain_id: int, stream: int) -> np.random.Generator:
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

    def __init__(self, cfg, obj, chain_ids, observers, l_star, n_checkpoints):
        if obj is None:
            raise ValueError(f"mode {cfg.mode!r} requires an objective")
        if obj.n_modes != cfg.n_modes:
            raise ValueError("objective mode count does not match config")
        self.cfg, self.obj, self.l_star = cfg, obj, l_star
        self.chain_ids = list(chain_ids)
        self.observers = tuple(observers)
        self.n = cfg.n_modes
        self.scales = resolvent_scales(obj.kernel, cfg.lam, cfg.eta, self.n)
        self.amp = math.sqrt(2.0 * cfg.eta / cfg.beta)
        self.x = np.tile(cfg.x0_array(), (len(self.chain_ids), 1))
        self.minibatch = None  # m when SGLD draws proper minibatches
        m, n_tr = cfg.minibatch, obj.dataset.size
        if m is not None and m > n_tr:
            raise ValueError(f"minibatch size {m} out of range 1..{n_tr}")
        if m is not None and m < n_tr:  # a full batch is the GLD gradient, exactly
            self.minibatch = m
            self.batch_rngs = [make_rng(cfg.seed, cid, _STREAM_BATCH) for cid in self.chain_ids]
        self.mu = obj.kernel.eigenvalues(self.n)
        # every chain evaluates a state's risk where a retained step or a checkpoint reads
        # it; a full-batch chain also takes each state's gradient, from the same feature
        # product where it evaluates the risk
        self.fused = cfg.mode != "ou" and self.minibatch is None
        self.g = 0.0
        self.cesaro_phi = np.zeros(len(self.chain_ids))
        self.cesaro_risk = np.zeros(len(self.chain_ids))
        self.retained = 0
        self.chunk_risks: list[np.ndarray] = []  # the risk of each retained step since the last flush
        self.pending: list[tuple] = []  # (step, X, risk, len(chunk_risks), retained) per checkpoint
        self.ck_steps: list[int] = []
        # one (R, K) array per column (norm, risk, reg, phi, cesaro_phi) over the K
        # checkpoints, step 0 included, filled by flush()
        self.cols = np.empty((5, len(self.chain_ids), n_checkpoints + 1))

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

    def advance(self, step, t, noise, retain, checkpoint):
        """X <- S_eta (X - eta g + amp eps) with eps the block's rows of noise[:, t]."""
        if self.minibatch is not None:
            g = self.obj.stochastic_grad_array(self.x, self.batches[t])
        else:
            g = self.g  # from X's last evaluation; 0 for the OU chain
        x = self.scales * (self.x - self.cfg.eta * g + self.amp * noise[self.rows, t, : self.n])
        x.setflags(write=False)
        if not np.isfinite(x).all():
            raise NumericalAbort(f"non-finite state at step {step}", step=step)
        self.x = x
        if retain or checkpoint:
            self.evaluate()
        elif self.fused:
            self.g = self.obj.grad_array(x)  # no one reads this state's risk
        if retain:
            self.chunk_risks.append(self.risk)
            self.retained += 1
            for observer in self.observers:
                observer(step, x, self.risk)
        if checkpoint:
            self.record(step)

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
        risk = np.stack(risks)
        reg = risk + 0.5 * self.cfg.lam * np.sum(xs * xs / self.mu, axis=-1)
        phi = sigmoid_gap(risk - self.l_star)
        counts = np.array(counts)
        ces = sums[list(rows)] / np.maximum(counts, 1)[:, None]
        ces[counts == 0] = np.nan
        k0 = len(self.ck_steps)
        self.ck_steps.extend(steps)
        for row, col in zip(self.cols, (norms, risk, reg, phi, ces)):
            row[:, k0 : len(self.ck_steps)] = col.T

    def summary(self) -> RunSummary:
        # read-only arrays; the five columns are views of the filled part of cols
        retained = self.retained
        finals = [c / retained if retained else np.full(len(c), np.nan) for c in (self.cesaro_phi, self.cesaro_risk)]
        chain_ids, steps = np.array(self.chain_ids, dtype=int), np.array(self.ck_steps, dtype=int)
        cols = self.cols[:, :, : len(self.ck_steps)]
        for a in (chain_ids, steps, cols, *finals):
            a.setflags(write=False)
        return RunSummary(self.cfg.mode, self.cfg.burn_in_steps, retained, chain_ids, steps, *cols, *finals)


def run_blocks(blocks, l_star: float, checkpoints=None) -> list[RunSummary]:
    """Advance several ensembles in lockstep, one loop for all of them.

    A block is a (cfg, obj, chain_ids, observers) tuple: one replica of the
    chain cfg.mode names per chain id, on the objective obj, which every mode
    needs (the OU chain ignores its gradient, not its risk).  Replica r uses
    the random streams keyed by (cfg.seed, chain_ids[r]), so a replica's
    trajectory does not depend on the ensemble it runs inside.  Observers
    are called as observer(step, X, risk) for every post-burn-in step, with
    the block's (R, N+1) state matrix and the per-chain risk
    obj.risk_array(X) that also feeds the Cesaro sums and checkpoints; both
    arrays are read-only.  Blocks must share the seed, horizon and burn-in;
    their modes may differ.
    Each distinct chain id draws its noise once per chunk, at the widest
    block's n_modes, and every block reads the first N+1 components of its
    chain ids' rows, so blocks that share a chain id share their noise
    (common random numbers across step sizes, temperatures or dimensions).
    A block as wide as the widest one gives the same bits as a run_blocks
    call of its own; each block keeps its own matmuls, since stacking the
    rows of several blocks into one matrix changes BLAS's summation order.

    checkpoints are the steps in 1..horizon whose rows the summaries keep,
    after step 0's; None means every checkpoint_every-th step and the
    horizon.  A checkpoint only adds a row: the trajectories and the Cesaro
    sums do not depend on it.

    Returns one summary per block, its rows ordered as the block's chain ids.
    On a NumericalAbort in any block the run stops and exc.partial holds
    these summaries up to the aborted step.
    """
    if not blocks:
        raise ValueError("run_blocks needs at least one block")
    first = blocks[0][0]
    horizon, burn_in = first.horizon, first.burn_in_steps
    if checkpoints is None:
        checkpoints = {*range(first.checkpoint_every, horizon + 1, first.checkpoint_every), horizon}
    else:
        checkpoints = set(checkpoints)
        if not all(isinstance(c, (int, np.integer)) and 1 <= c <= horizon for c in checkpoints):
            raise ValueError(f"checkpoints must be integer steps in 1..{horizon}, got {sorted(checkpoints)}")
    states = [_Block(cfg, obj, ids, observers, l_star, len(checkpoints)) for cfg, obj, ids, observers in blocks]
    if any((s.cfg.seed, s.cfg.horizon, s.cfg.burn_in_steps) != (first.seed, horizon, burn_in) for s in states):
        raise ValueError("blocks must share seed, horizon and burn-in to run in lockstep")

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
                checkpoint = step in checkpoints
                for s in states:
                    s.advance(step, t, noise, retain, checkpoint)
            for s in states:
                s.flush()
    except NumericalAbort as exc:
        for s in states:
            s.flush()
        exc.partial = [s.summary() for s in states]
        raise
    return [s.summary() for s in states]


def run_ensemble(cfg: ChainConfig, obj: ObjectiveSpec, l_star: float) -> list[RunSummary]:
    """run_blocks with one block of chain id 0 and no observers: a
    one-element list of its one-row summary."""
    return run_blocks([(cfg, obj, [0], ())], l_star)


def run_chain(cfg: ChainConfig, obj: ObjectiveSpec, l_star: float = 0.0) -> RunSummary:
    """Chain id 0 alone: the one-row summary of run_ensemble."""
    return run_ensemble(cfg, obj, l_star=l_star)[0]
