"""The chain engine: Galerkin GLD, SGLD and the noise-only OU chain.

Replica ensembles advance together as an (R, N+1) matrix with per-chain
counter-based random streams, so trajectories are bit-identical whether a
chain runs alone or inside an ensemble.  Several ensembles (blocks) advance
in lockstep through one loop; blocks that share a chain id share its noise,
drawn once, which couples runs of different step size, temperature,
starting point or dimension.  The blocks of a call that share R, the
dataset, the loss, lambda0 and the gradient kind form a group, whose states
sit side by side in one (R, sum of N+1) array that one step advances; each
block reads its columns through read-only views.  Noise and SGLD minibatch
indices are pregenerated in per-chain chunks to amortize generator overhead;
a call that draws a million normals or more forks a worker process that
draws the noise a half chunk ahead while the loop steps through the current
one, so no fill holds the interpreter the steps run on.
"""

from __future__ import annotations

import math
import mmap
import os
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
# a call's normals (distinct ids x horizon x widest N+1) from which a forked
# worker draws its noise.  On 2 cores fork plus reap cost about 3.3 ms and a fill
# about 24 ns a normal, but the half chunks add hand-offs and per-chunk work:
# forked, R = 8 at N+1 = 65 broke even near 300k normals (savage loss) and R = 8
# at N+1 = 16 near 1M (squared loss), while 104k and 256k ran 19-23% slower
_AHEAD_NORMALS = 10**6


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
    """One block's chains inside run_blocks: Cesaro sums and checkpoint log.

    The block's state is the columns `columns` of its group's state.  A step
    only keeps what the bookkeeping needs; flush() turns that into Cesaro sums
    and checkpoint rows once per noise chunk.
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
        self.minibatch = None  # m when SGLD draws proper minibatches
        m, n_tr = cfg.minibatch, obj.dataset.size
        if m is not None and m > n_tr:
            raise ValueError(f"minibatch size {m} out of range 1..{n_tr}")
        if m is not None and m < n_tr:  # a full batch is the GLD gradient, exactly
            self.minibatch = m
            self.batch_rngs = [make_rng(cfg.seed, cid, _STREAM_BATCH) for cid in self.chain_ids]
        self.gradient = "none" if cfg.mode == "ou" else "full" if self.minibatch is None else "minibatch"
        self.mu = obj.kernel.eigenvalues(self.n)
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

    def keep(self, step, retain, checkpoint, x, risk):
        """Bookkeeping of a new state X and its risk, read-only views of the group's."""
        if retain:
            self.chunk_risks.append(risk)
            self.retained += 1
            for observer in self.observers:
                observer(step, x, risk)
        if checkpoint:
            self.pending.append((step, x, risk, len(self.chunk_risks), self.retained))

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


class _Group:
    """The blocks of one run_blocks call that share R, the Dataset, the loss,
    lambda0 and the gradient kind, stepped as one (R, sum of N+1) state.

    Block b's state is its own run of columns, with per-column scales, eta and
    amp, so a step makes one noise read, one update and, where it evaluates,
    one loss call and one risk reduction for the whole group.  The feature
    products stay one matmul per block, written into the group's buffers, so
    BLAS sees each block's own operands; blocks of one objective make each
    product one matmul over a (B, R, N+1) view, which calls BLAS per block.
    A one-block group's state, products and risk are the block's own arrays.
    """

    def __init__(self, blocks, position, noise_shape):
        first = blocks[0]
        self.blocks = blocks
        self.single = len(blocks) == 1
        self.gradient = first.gradient
        self.loss, self.y, self.lambda0 = first.obj.loss, first.obj.dataset.y, first.obj.lambda0
        self.n_tr = first.obj.dataset.size
        n_chains, lo = len(first.chain_ids), 0
        for b in blocks:
            b.columns = slice(lo, lo + b.n)
            lo += b.n
        self.scales = np.concatenate([resolvent_scales(b.obj.kernel, b.cfg.lam, b.cfg.eta, b.n) for b in blocks])
        self.eta = self._per_column([b.cfg.eta for b in blocks])
        self.amp = self._per_column([math.sqrt(2.0 * b.cfg.eta / b.cfg.beta) for b in blocks])
        self.x = self.new = np.concatenate([np.tile(b.cfg.x0_array(), (n_chains, 1)) for b in blocks], axis=1)
        self.features = [b.obj.features for b in blocks]
        self.features_t = [f.T for f in self.features]
        # one stacked product per step when every block has the one objective
        self.shared = all(b.obj is first.obj for b in blocks)
        # the feature products X_b Phi_b^T, (B, R, n_tr); a one-block group's are (R, n_tr)
        self.u = np.empty((n_chains, self.n_tr) if self.single else (len(blocks), n_chains, self.n_tr))
        self.g = 0.0  # the OU chain's
        if self.gradient == "full":
            self.g = np.empty((n_chains, lo))
            self.g_out = self.stack(self.g) if self.shared else self.split(self.g)
        # one block on consecutive noise rows reads a view of them; any other group
        # gathers its columns with one take from the flat buffer
        rows = [[position[cid] for cid in b.chain_ids] for b in blocks]
        start = rows[0][0] if rows[0] else 0
        self.gather = None
        if self.single and rows[0] == list(range(start, start + n_chains)):
            self.rows = slice(start, start + n_chains)
        else:
            row_len = noise_shape[1] * noise_shape[2]
            self.gather = np.concatenate(
                [np.array(r, dtype=np.intp)[:, None] * row_len + np.arange(b.n) for r, b in zip(rows, blocks)], axis=1
            )
            self.eps = np.empty(self.x.shape)

    def _per_column(self, values):
        """One value per block as one per column; a float when they are all equal."""
        if all(v == values[0] for v in values):
            return values[0]
        return np.concatenate([np.full(b.n, v) for b, v in zip(self.blocks, values)])

    def split(self, a):
        """Each block's columns of an (R, sum of N+1) array."""
        if self.single:
            return (a,)
        return [a[:, b.columns] for b in self.blocks]

    def stack(self, a):
        """A one-objective group's (R, B (N+1)) array as a (B, R, N+1) view; a itself
        for one block."""
        if self.single:
            return a
        return a.reshape(a.shape[0], len(self.blocks), self.blocks[0].n).transpose(1, 0, 2)

    def propose(self, noise, t):
        """S_eta (X - eta g + amp eps), eps the group's columns of noise[:, t],
        kept as the group's new state; returns whether it is finite."""
        if self.gradient == "minibatch":
            gs = [b.obj.stochastic_grad_array(x, b.batches[t]) for b, x in zip(self.blocks, self.split(self.x))]
            g = gs[0] if len(gs) == 1 else np.concatenate(gs, axis=1)
        else:
            g = self.g  # from X's last evaluation; the next one overwrites it
        g *= self.eta  # in place for an array: the group's buffer or a fresh minibatch gradient
        if self.gather is None:
            eps = self.amp * noise[self.rows, t, : self.x.shape[1]]
        else:
            eps = np.take(noise.reshape(-1)[t * noise.shape[2] :], self.gather, out=self.eps, mode="clip")
            eps *= self.amp
        # the bits of the expression, with no temporary past the first operation
        new = self.new = self.x - g
        new += eps
        new *= self.scales
        return np.isfinite(new).all()

    def commit(self, step, retain, checkpoint):
        """Make the new state the group's, evaluate it, and keep it in each block."""
        x = self.x = self.new
        x.setflags(write=False)
        if retain or checkpoint:
            self.evaluate(True)
            if self.single:
                self.blocks[0].keep(step, retain, checkpoint, x, self.risk)
            else:
                for block, xb, risk in zip(self.blocks, self.split(x), self.risk):
                    block.keep(step, retain, checkpoint, xb, risk)
        elif self.gradient == "full":
            self.evaluate(False)  # no one reads this state's risk

    def evaluate(self, risk):
        """A full-batch group's gradient at X, and its risk if asked, with the
        bits of ObjectiveSpec.grad_array and risk_array per block."""
        x, u, loss = self.x, self.u, self.loss
        if self.shared:
            np.matmul(self.stack(x), self.features_t[0], out=u)
        else:
            for xb, ft, out in zip(self.split(x), self.features_t, u):
                np.matmul(xb, ft, out=out)
        if self.gradient != "full":
            value = loss.value(u, self.y)
        elif risk:
            value, d1 = loss.value_and_d1(u, self.y)
        else:
            d1 = loss.d1(u, self.y)
        if self.gradient == "full":
            if self.shared:
                np.matmul(d1, self.features[0], out=self.g_out)
            else:
                for d, f, out in zip(d1, self.features, self.g_out):
                    np.matmul(d, f, out=out)
            self.g /= self.n_tr
            if self.lambda0:
                self.g += self.lambda0 * x
        if risk:
            self.risk = np.add.reduce(value, axis=-1) / self.n_tr  # np.mean's bits
            if self.lambda0:
                ridge = np.reshape([np.sum(xb * xb, axis=-1) for xb in self.split(x)], self.risk.shape)
                self.risk += 0.5 * self.lambda0 * ridge
            self.risk.setflags(write=False)


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Worker:
    """A forked child that draws a call's noise a half chunk ahead of its steps.

    The child fills the two half-chunk buffers of an anonymous shared mmap,
    made before the fork, in turn, each generator its rows in step order.  A
    byte on the done pipe hands a filled buffer to the parent; a byte on the
    go pipe hands a stepped-through buffer back to the child.  The child calls
    only standard_normal(out=...) on generators no other thread has used, so
    a lock another thread held at the fork cannot stop it, and it reports an
    exception it raises on the done pipe before it exits.
    """

    def __init__(self, rngs, shape, horizon):
        size = math.prod(shape)
        shared = mmap.mmap(-1, 2 * 8 * size)  # the arrays keep it mapped
        self.buffers = [np.frombuffer(shared, count=size, offset=8 * size * k).reshape(shape) for k in (0, 1)]
        self.taken, self.status = 0, None
        go, self.go = os.pipe()
        self.done, done = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no process to run it: no silent inline draw either
            for fd in (go, self.go, self.done, done):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(self.go)
            os.close(self.done)
            self._fill(rngs, horizon, go, done)
        os.close(go)
        os.close(done)

    def _fill(self, rngs, horizon, go, done):
        """The child's whole life: fill every half chunk, then exit."""
        status = 1
        try:
            half = self.buffers[0].shape[1]
            for i, start in enumerate(range(0, horizon, half)):
                if i >= 2 and not os.read(go, 1):
                    break  # the parent closed the go pipe: it has left the step loop
                for rng, row in zip(rngs, self.buffers[i % 2]):
                    rng.standard_normal(out=row[: min(half, horizon - start)])
                os.write(done, b".")
            status = 0
        except BaseException as exc:  # the parent raises it; the child only reports it
            try:
                os.write(done, f"!{type(exc).__name__}: {exc}".encode()[:512])
            except OSError:
                pass  # the parent has closed the done pipe and reads nothing more
        finally:
            os._exit(status)

    def take(self) -> np.ndarray:
        """The next filled buffer, once the child has handed it over."""
        token = os.read(self.done, 1)
        if token != b".":
            raised = os.read(self.done, 512).decode(errors="replace") if token == b"!" else ""
            self.close()
            raise self.error(raised)
        buffer = self.buffers[self.taken % 2]
        self.taken += 1
        return buffer

    def release(self):
        """Hand the buffer last taken back to the child, for the half chunk after
        next; a dead child's pipe refuses it, and the next take() says why."""
        try:
            os.write(self.go, b".")
        except BrokenPipeError:
            pass

    def close(self):
        """Close both pipes and reap the child, once.  A child still filling ends
        after that fill, when it finds the pipes closed."""
        if self.status is None:
            os.close(self.go)
            os.close(self.done)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])

    def error(self, raised) -> RuntimeError:
        how = f"was killed by signal {-self.status}" if self.status < 0 else f"exited with status {self.status}"
        return RuntimeError(f"noise worker {self.pid} {how}" + (f" after it raised {raised}" if raised else ""))


def run_blocks(blocks, l_star: float, checkpoints=None) -> list[RunSummary]:
    """Advance several ensembles in lockstep, one loop for all of them.

    A block is a (cfg, obj, chain_ids, observers) tuple: one replica of the
    chain cfg.mode names per chain id, on the objective obj, which every mode
    needs (the OU chain ignores its gradient, not its risk).  Replica r uses
    the random streams keyed by (cfg.seed, chain_ids[r]), so a replica's
    trajectory does not depend on the ensemble it runs inside.  Observers
    are called as observer(step, X, risk) for every post-burn-in step, with
    the block's (R, N+1) state matrix and the per-chain risk
    obj.risk_array(X) that also feeds the Cesaro sums and checkpoints, both
    read-only parts of its group's arrays.  Blocks must share the seed,
    horizon and burn-in; their modes may differ.
    Each distinct chain id draws its noise once per chunk, at the widest
    block's n_modes, and every block reads the first N+1 components of its
    chain ids' rows, so blocks that share a chain id share their noise
    (common random numbers across step sizes, temperatures or dimensions).
    When the call draws at least _AHEAD_NORMALS normals (distinct chain ids
    x horizon x widest N+1), the horizon is longer than a half chunk, the
    process may run on more than one CPU and os.fork exists, the chunk is
    halved and a forked worker process draws the noise a half chunk ahead
    while the loop steps through the current one; the minibatches are still
    drawn in the loop, and the draws and every output keep their bits.
    Every exit reaps the worker, and a worker that raises or dies makes the
    call raise a RuntimeError naming it.
    Blocks that share R, the Dataset object, the loss, lambda0 and the gradient
    kind (full batch, minibatch, or none for the OU chain) step as one group: one
    noise read, one update, one finiteness check, one loss call and one risk
    reduction per step for all of them, on their states packed side by side
    by column.  Every block keeps its own matmuls, written into the group's
    buffers, since stacking the rows of several blocks into one matrix
    changes BLAS's summation order; blocks of one objective make each one
    matmul over a (B, R, N+1) view, which calls BLAS once per block.  So a
    block as wide as the widest one gives the same bits as a run_blocks call
    of its own.

    checkpoints are the steps in 1..horizon whose rows the summaries keep,
    after step 0's; None means every checkpoint_every-th step and the
    horizon.  A checkpoint only adds a row: the trajectories and the Cesaro
    sums do not depend on it.

    Returns one summary per block, its rows ordered as the block's chain ids.
    Every group's new state is checked before any block keeps one, so on a
    NumericalAbort at step s in any block the run stops and exc.partial
    holds every block's summary up to step s - 1.
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

    # one noise row per distinct chain id
    ids = list(dict.fromkeys(cid for s in states for cid in s.chain_ids))
    position = {cid: i for i, cid in enumerate(ids)}
    noise_rngs = [make_rng(first.seed, cid, _STREAM_NOISE) for cid in ids]
    width = max(s.n for s in states)
    # a large call past one half chunk on several CPUs: a forked worker fills two
    # half-chunk buffers, which hold what the one chunk buffer holds, the loop
    # stepping through one while the worker fills the other
    ahead = (
        horizon > _CHUNK // 2
        and len(ids) * horizon * width >= _AHEAD_NORMALS
        and _cpus() > 1
        and hasattr(os, "fork")
    )
    chunk = _CHUNK // 2 if ahead else _CHUNK
    shape = (len(ids), min(chunk, horizon), width)

    members = {}
    for s in states:
        key = (len(s.chain_ids), id(s.obj.dataset), s.obj.loss, s.obj.lambda0, s.gradient)
        members.setdefault(key, []).append(s)
    groups = [_Group(group, position, shape) for group in members.values()]
    step, worker = 0, None
    try:
        if ahead:
            worker = _Worker(noise_rngs, shape, horizon)
        else:
            noise = np.empty(shape)
        for g in groups:
            g.commit(0, False, True)  # X_0
        while step < horizon:
            chunk_len = min(chunk, horizon - step)
            if worker is None:  # each generator fills its rows in step order
                for rng, row in zip(noise_rngs, noise):
                    rng.standard_normal(out=row[:chunk_len])
            else:
                noise = worker.take()
            for s in states:
                if s.minibatch is not None:
                    s.draw_batches(chunk_len)
            for t in range(chunk_len):
                step += 1
                retain = step > burn_in
                checkpoint = step in checkpoints
                # every group's new state is checked before any block keeps one
                if not all([g.propose(noise, t) for g in groups]):
                    raise NumericalAbort(f"non-finite state at step {step}", step=step)
                for g in groups:
                    g.commit(step, retain, checkpoint)
            for s in states:
                s.flush()
            if worker is not None and step + chunk < horizon:
                worker.release()
    except NumericalAbort as exc:
        for s in states:
            s.flush()
        exc.partial = [s.summary() for s in states]
        raise
    finally:
        if worker is not None:
            worker.close()
    return [s.summary() for s in states]


def run_ensemble(cfg: ChainConfig, obj: ObjectiveSpec, l_star: float) -> list[RunSummary]:
    """run_blocks with one block of chain id 0 and no observers: a
    one-element list of its one-row summary."""
    return run_blocks([(cfg, obj, [0], ())], l_star)


def run_chain(cfg: ChainConfig, obj: ObjectiveSpec, l_star: float = 0.0) -> RunSummary:
    """Chain id 0 alone: the one-row summary of run_ensemble."""
    return run_ensemble(cfg, obj, l_star=l_star)[0]
