"""The chain engine: Galerkin GLD, SGLD and the noise-only OU chain.

Replica ensembles advance together as an (R, N+1) matrix with per-chain
counter-based random streams, so trajectories are bit-identical whether a
chain runs alone or inside an ensemble.  Rows that share a chain id share
their noise, which couples runs from different starting points or of
different dimension.  Noise and SGLD minibatch indices are pregenerated in
per-chain chunks to amortize generator overhead.
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
        if self.beta < self.eta:
            raise ValueError(f"beta >= eta required, got beta={self.beta}, eta={self.eta}")
        if self.lam <= 0:
            raise ValueError("lambda must be positive")
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
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


def _scales(cfg: ChainConfig, obj: ObjectiveSpec | None) -> np.ndarray:
    kernel = obj.kernel if obj is not None else KernelSpec()
    return resolvent_scales(kernel, cfg.lam, cfg.eta, cfg.n_modes)


def _draw_noise_block(rngs, chunk_len, n_modes):
    return np.stack([rng.standard_normal((chunk_len, n_modes)) for rng in rngs])


def _draw_batch_block(rngs, chunk_len, n_tr, m):
    # row t of one chain's permuted tile is the t-th rng.permutation(n_tr), and
    # the generator ends in the same state, so chunking leaves the stream intact
    tile = np.tile(np.arange(n_tr), (chunk_len, 1))
    return np.stack([rng.permuted(tile, axis=1)[:, :m] for rng in rngs], axis=1)


def run_ensemble(
    cfg: ChainConfig,
    obj: ObjectiveSpec | None = None,
    mode: str = "gld",
    n_chains: int = 1,
    l_star: float = 0.0,
    observers: tuple = (),
    chain_ids=None,
    noise_modes: int | None = None,
) -> list[RunSummary]:
    """Advance n_chains replicas of the configured chain and summarize each.

    Replica r uses the random streams keyed by (cfg.seed, chain_ids[r]), so
    the trajectory of any single replica is independent of the ensemble it
    runs inside.  Observers are called as observer(step, X, risk) for every
    post-burn-in step, with the full (R, N+1) state matrix and the per-chain
    risk obj.risk_array(X) that also feeds the Cesaro sums and checkpoints
    (None without an objective); both arrays are read-only.

    noise_modes widens the per-step noise draw beyond the state dimension;
    fixing it across runs of different dimension couples them through common
    random numbers (the chain consumes the first N+1 components).

    Returns summaries ordered by chain id.
    """
    if mode not in ("gld", "sgld", "ou"):
        raise ValueError(f"unknown mode: {mode!r}")
    if mode in ("gld", "sgld"):
        if obj is None:
            raise ValueError(f"mode {mode!r} requires an objective")
        if obj.n_modes != cfg.n_modes:
            raise ValueError("objective mode count does not match config")
    if chain_ids is None:
        chain_ids = list(range(n_chains))
    if len(chain_ids) != n_chains:
        raise ValueError("chain_ids length must equal n_chains")

    n = cfg.n_modes
    if noise_modes is None:
        noise_modes = n
    elif noise_modes < n:
        raise ValueError("noise_modes must be at least the state dimension")
    scales = _scales(cfg, obj)
    amp = math.sqrt(2.0 * cfg.eta / cfg.beta)
    burn_in = cfg.burn_in_steps
    cadence = cfg.checkpoint_every
    noise_rngs = [make_rng(cfg.seed, cid, _STREAM_NOISE) for cid in chain_ids]

    x = np.tile(cfg.x0_array(), (n_chains, 1))
    minibatched = False
    if mode == "sgld":
        n_tr = obj.dataset.size
        m = cfg.minibatch if cfg.minibatch is not None else n_tr
        if not (1 <= m <= n_tr):
            raise ValueError(f"minibatch size {m} out of range 1..{n_tr}")
        minibatched = m < n_tr  # a full batch is the GLD gradient, exactly
        if minibatched:
            batch_rngs = [make_rng(cfg.seed, cid, _STREAM_BATCH) for cid in chain_ids]

    track_risk = obj is not None
    if track_risk:
        mu = obj.kernel.eigenvalues(n)

    cesaro_phi = np.zeros(n_chains)
    cesaro_risk = np.zeros(n_chains)
    retained = 0

    ck_steps: list[int] = []
    ck_rows: list[tuple] = []  # (norm, risk, reg, phi, cesaro_phi) row arrays

    def record(step, risk=None):
        norms = np.linalg.norm(x, axis=1)
        if track_risk:
            if risk is None:
                risk = obj.risk_array(x)
            reg = risk + 0.5 * cfg.lam * np.sum(x * x / mu, axis=1)
            phi = sigmoid_gap(risk - l_star)
        else:
            risk = reg = phi = np.zeros(n_chains)
        ces = cesaro_phi / retained if retained else np.full(n_chains, np.nan)
        ck_steps.append(step)
        ck_rows.append((norms, risk, reg, phi, ces))

    def summaries():
        cols = [np.stack(col) for col in zip(*ck_rows)] if ck_rows else [np.empty((0, n_chains))] * 5
        steps_arr = np.array(ck_steps, dtype=int)
        out = []
        for r, cid in enumerate(chain_ids):
            out.append(
                RunSummary(
                    chain_id=cid,
                    mode=mode,
                    burn_in=burn_in,
                    steps=steps_arr.copy(),
                    norm=cols[0][:, r].copy(),
                    risk=cols[1][:, r].copy(),
                    reg_objective=cols[2][:, r].copy(),
                    phi=cols[3][:, r].copy(),
                    cesaro_phi=cols[4][:, r].copy(),
                    final_cesaro_phi=float(cesaro_phi[r] / retained) if retained else math.nan,
                    final_cesaro_risk=float(cesaro_risk[r] / retained) if retained else math.nan,
                    retained_steps=retained,
                )
            )
        return out

    record(0)
    step = 0
    try:
        while step < cfg.horizon:
            chunk_len = min(_CHUNK, cfg.horizon - step)
            noise = _draw_noise_block(noise_rngs, chunk_len, noise_modes)
            if minibatched:
                batches = _draw_batch_block(batch_rngs, chunk_len, n_tr, m)
            for t in range(chunk_len):
                if minibatched:
                    g = obj.stochastic_grad_array(x, batches[t])
                elif mode == "ou":
                    g = 0.0
                else:
                    g = obj.grad_array(x)
                x = scales * (x - cfg.eta * g + amp * noise[:, t, :n])
                x.setflags(write=False)
                step += 1
                if not np.all(np.isfinite(x)):
                    raise NumericalAbort(f"non-finite state at step {step}", step=step)
                risk = None
                if step > burn_in:
                    if track_risk:
                        risk = obj.risk_array(x)
                        risk.setflags(write=False)
                        cesaro_risk += risk
                        cesaro_phi += sigmoid_gap(risk - l_star)
                    retained += 1
                    for observer in observers:
                        observer(step, x, risk)
                if step % cadence == 0 or step == cfg.horizon:
                    record(step, risk)
    except NumericalAbort as exc:
        exc.partial = summaries()
        raise
    return summaries()


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
