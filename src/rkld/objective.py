"""Empirical risks over the truncated RKHS model.

The model is linear in the spectral coefficients through the cached feature
rows psi_gamma(z_i); the per-sample losses supply the nonlinearity.  The
module also derives the constants that the theory needs from an objective:
smoothness M, gradient bound B, the dissipativity pair (m, c), and the
reference minimizers of the raw and regularized problems.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .spectral import KernelSpec

__all__ = [
    "Dataset",
    "LossFamily",
    "ObjectiveSpec",
    "MinimizerPair",
    "SQUARED",
    "LOGISTIC",
    "SAVAGE",
    "loss_family",
]


@dataclass(frozen=True)
class Dataset:
    """Observed pairs (z_i, y_i) with inputs on [0, 1]."""

    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        z = np.array(self.z, dtype=float, copy=True)
        y = np.array(self.y, dtype=float, copy=True)
        if z.ndim != 1 or y.ndim != 1 or z.size != y.size:
            raise ValueError("z and y must be 1-d arrays of equal length")
        if z.size < 1:
            raise ValueError("dataset must contain at least one point")
        if not (np.all((z >= 0.0) & (z <= 1.0)) and np.all(np.isfinite(y))):
            raise ValueError("inputs must lie in [0, 1] and targets must be finite")
        z.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "y", y)

    @property
    def size(self) -> int:
        return self.z.size

    @classmethod
    def from_csv(cls, path: str | Path) -> "Dataset":
        """Load from a CSV file with header row ``z,y``."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["z", "y"]:
                raise ValueError(f"{path}: expected CSV header 'z,y'")
            rows = []
            for r in reader:
                if not r:
                    continue
                if len(r) != 2:
                    raise ValueError(f"{path}: line {reader.line_num}: expected 2 fields, got {len(r)}")
                row = []
                for name, raw in zip("zy", r):
                    try:
                        row.append(float(raw))
                    except ValueError as exc:
                        raise ValueError(f"{path}: line {reader.line_num}: {name} = {raw!r}: {exc}") from None
                rows.append(row)
        if not rows:
            raise ValueError(f"{path}: no data rows")
        z, y = zip(*rows)
        return cls(np.array(z), np.array(y))

    @classmethod
    def synthesize(
        cls, n: int, seed: int, kind: str = "regression", noise: float = 0.1
    ) -> "Dataset":
        """Teacher data: z uniform on [0, 1], g(z) = sin(2 pi z).

        Regression adds Gaussian noise to g; classification takes sign(g).
        """
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.0, 1.0, size=n)
        g = np.sin(2.0 * math.pi * z)
        if kind == "regression":
            y = g + noise * rng.standard_normal(n)
        elif kind == "classification":
            y = np.where(g >= 0.0, 1.0, -1.0)
        else:
            raise ValueError(f"unknown synthetic dataset kind: {kind!r}")
        return cls(z, y)


# Savage loss l(u, y) = 1 / (1 + exp(y u))^2 = (1 - s)^2 with s = sigmoid(y u).
# |l'| peaks at s = 1/3, |l''| at s = (9 + sqrt(33)) / 24; both maxima are exact.
_SAVAGE_S1 = 1.0 / 3.0
_SAVAGE_B = 2.0 * _SAVAGE_S1 * (1.0 - _SAVAGE_S1) ** 2
_SAVAGE_S2 = (9.0 + math.sqrt(33.0)) / 24.0
_SAVAGE_G = 2.0 * _SAVAGE_S2 * (1.0 - _SAVAGE_S2) ** 2 * (3.0 * _SAVAGE_S2 - 1.0)


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # e = exp(-|t|) <= 1 cannot overflow, and e / d where t < 0 and 1 / d where
    # t >= 0 each have the bits of the stable branch for that sign; min(t, -t)
    # keeps a NaN's sign, unlike -|t|, and is a new array, since every caller's
    # t has at least one dimension
    e = np.minimum(t, -t)
    np.exp(e, out=e)
    d = e + 1.0
    np.divide(e, d, out=e)
    return np.divide(1.0, d, out=e, where=t >= 0)


@dataclass(frozen=True)
class LossFamily:
    """Per-sample loss l(u, y) with its first two u-derivatives and bounds.

    ``second_derivative_bound`` is G = sup |l''|; ``first_derivative_bound``
    is sup |l'| and is None for the squared loss (unbounded gradient).
    """

    tag: str
    second_derivative_bound: float
    first_derivative_bound: float | None

    def value_and_d1(self, u: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """l(u, y) and l'(u, y), with the bits of value and d1.

        Squared shares u - y, whose broadcast is about 1.4 of the 4 us the pair
        takes at (32, 24), and savage shares its sigmoid.
        """
        u = np.asarray(u, dtype=float)
        if self.tag == "squared":
            d = u - y
            return 0.5 * d**2, d
        if self.tag == "savage":
            s = _sigmoid(y * u)
            v = 1.0 - s
            v *= v  # (1 - s) ** 2, whose square is v * v
            s *= -2.0 * y  # -2 y s, then times v: the bits of d1's product
            s *= v
            return v, s
        return self.value(u, y), self.d1(u, y)

    def value(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.tag == "squared":
            return 0.5 * (u - y) ** 2
        if self.tag == "logistic":
            # log(1 + exp(-y u)) via the stable softplus form
            return np.logaddexp(0.0, -y * u)
        if self.tag == "savage":
            return (1.0 - _sigmoid(y * u)) ** 2
        raise ValueError(f"unknown loss: {self.tag!r}")

    def d1(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.tag == "squared":
            return u - y
        if self.tag == "logistic":
            return -y * _sigmoid(-y * u)
        if self.tag == "savage":
            s = _sigmoid(y * u)
            return -2.0 * y * s * (1.0 - s) ** 2
        raise ValueError(f"unknown loss: {self.tag!r}")

    def d2(self, u: np.ndarray, y: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        if self.tag == "squared":
            return np.ones_like(u)
        if self.tag == "logistic":
            s = _sigmoid(y * u)
            return s * (1.0 - s)
        if self.tag == "savage":
            s = _sigmoid(y * u)
            return -2.0 * s * (1.0 - s) ** 2 * (1.0 - 3.0 * s)
        raise ValueError(f"unknown loss: {self.tag!r}")


SQUARED = LossFamily("squared", second_derivative_bound=1.0, first_derivative_bound=None)
LOGISTIC = LossFamily("logistic", second_derivative_bound=0.25, first_derivative_bound=1.0)
SAVAGE = LossFamily("savage", second_derivative_bound=_SAVAGE_G, first_derivative_bound=_SAVAGE_B)

_LOSSES = {"squared": SQUARED, "logistic": LOGISTIC, "savage": SAVAGE}


def loss_family(tag: str) -> LossFamily:
    try:
        return _LOSSES[tag]
    except KeyError:
        raise ValueError(f"unknown loss family: {tag!r}") from None


_NEWTON_MAX_STEPS = 200  # damped Newton needs a handful; more means a degenerate problem
_NEWTON_TOL = 1e-9  # gradient norm at which the minimizer search stops


@dataclass(frozen=True)
class MinimizerPair:
    """Reference minimizers of the raw and regularized truncated problems.

    ``attained`` is False when the data are separable under a margin loss:
    then inf L = ``l_star`` = 0 is not attained and ``x_star`` is None.
    The coefficient arrays are read-only.
    """

    x_star: np.ndarray | None
    x_tilde: np.ndarray
    l_star: float
    l_tilde: float
    attained: bool


class ObjectiveSpec:
    """Empirical risk L(x) = (1/n) sum_i l(<x, psi_gamma(z_i)>, y_i) + (lambda0/2)||x||^2.

    Feature rows are precomputed once; all evaluations are pure afterwards.
    """

    def __init__(
        self,
        dataset: Dataset,
        loss: LossFamily,
        kernel: KernelSpec,
        n_modes: int,
        lambda0: float = 0.0,
    ):
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if not (lambda0 >= 0 and math.isfinite(lambda0)):
            raise ValueError("lambda0 must be nonnegative and finite")
        self.dataset = dataset
        self.loss = loss
        self.kernel = kernel
        self.n_modes = int(n_modes)
        self.lambda0 = float(lambda0)
        self.features = kernel.feature_matrix(dataset.z, n_modes)
        self.features.setflags(write=False)
        self._kernel_diag = np.sum(self.features**2, axis=1)
        self._kernel_diag.setflags(write=False)

    # -- raw-array evaluations (x may be a matrix of chains); the engine's step
    # reproduces their bits for a group of blocks at once --

    def risk_array(self, x: np.ndarray) -> np.ndarray:
        value = self.loss.value(x @ self.features.T, self.dataset.y)
        risk = np.add.reduce(value, axis=-1) / self.dataset.size  # np.mean's bits, without its overhead
        return risk + 0.5 * self.lambda0 * np.sum(x * x, axis=-1) if self.lambda0 else risk

    def grad_array(self, x: np.ndarray) -> np.ndarray:
        g = self.loss.d1(x @ self.features.T, self.dataset.y) @ self.features / self.dataset.size
        return g + self.lambda0 * x if self.lambda0 else g

    def grad_components_array(self, x: np.ndarray) -> np.ndarray:
        """Per-sample gradients of the data term (ridge part excluded)."""
        u = x @ self.features.T
        return self.loss.d1(u, self.dataset.y)[..., None] * self.features

    def stochastic_grad_array(self, x: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Minibatch gradient of one chain, x (N,) with batch (m,), or of R
        chains at once, x (R, N) with one batch per chain in batch (R, m)."""
        rows = self.features[batch]
        u = np.matmul(rows, x[..., None])[..., 0]
        g = np.matmul(self.loss.d1(u, self.dataset.y[batch])[..., None, :], rows)[..., 0, :] / batch.shape[-1]
        if self.lambda0:
            g = g + self.lambda0 * x
        return g

    # -- theory constants --

    def kernel_diag_sup(self) -> float:
        """R_gamma: max of the truncated K_gamma(z_i, z_i) over the data."""
        return float(np.max(self._kernel_diag))

    def smoothness_constant(self) -> float:
        """M = G * R_gamma (+ lambda0)."""
        return self.loss.second_derivative_bound * self.kernel_diag_sup() + self.lambda0

    def gradient_bound(self) -> float | None:
        """B = sup|l'| * max_i ||psi_gamma(z_i)||; None when unbounded."""
        bl = self.loss.first_derivative_bound
        if bl is None or self.lambda0 > 0:
            return None
        return bl * math.sqrt(self.kernel_diag_sup())

    def dissipativity_constants(self, lam: float) -> tuple[str, float, float]:
        """(regime, m, c) such that <Ax - grad L(x), x> <= -m ||x||^2 + c.

        Strict regime (lam > M mu0): m = (lam/mu0 - M)/2, with
        c = ||grad L(0)||^2 / (2 (lam/mu0 - M)) from the Young split at the
        origin.  Bounded regime: m = lam/(2 mu0), c = B^2 mu0 / (2 lam).
        """
        if lam <= 0:
            raise ValueError("lambda must be positive")
        mu0 = self.kernel.mu0
        M = self.smoothness_constant()
        B = self.gradient_bound()
        strict_gap = lam / mu0 - M
        if strict_gap > 0:
            grad0 = self.grad_array(np.zeros(self.n_modes))
            c = float(grad0 @ grad0) / (2.0 * strict_gap)
            return "strict", strict_gap / 2.0, max(c, np.finfo(float).tiny)
        if B is not None:
            return "bounded", lam / (2.0 * mu0), B**2 * mu0 / (2.0 * lam)
        raise ValueError(
            "no dissipativity regime applies: "
            f"lambda/mu0 - M = {strict_gap:.6g} <= 0 and the gradient is unbounded"
        )

    # -- reference minimizers --

    def find_minimizers(self, lam: float) -> MinimizerPair:
        """Oracle minimizers x* (lam off) and x~ (lam on) of the truncated problem.

        For a margin loss without a ridge term the search for x* stops at the
        first iterate that separates the data, which proves that inf L = 0 is
        not attained.  Results are global only for convex losses.
        """
        x_tilde, l_tilde = self.regularized_minimizer(lam)
        margin_loss = self.loss.tag in ("logistic", "savage") and self.lambda0 == 0
        x_star = self._newton(np.zeros(self.n_modes), stop_if_separated=margin_loss)
        attained = x_star is not None
        if attained:
            x_star.setflags(write=False)
        return MinimizerPair(
            x_star=x_star,
            x_tilde=x_tilde,
            l_star=float(self.risk_array(x_star)) if attained else 0.0,
            l_tilde=l_tilde,
            attained=attained,
        )

    def regularized_minimizer(self, lam: float) -> tuple[np.ndarray, float]:
        """Read-only x~ and L(x~) only; the regularized problem is strongly convex
        and always has a finite minimizer, unlike the plain risk on separable data."""
        if lam <= 0:
            raise ValueError("lambda must be positive")
        x_tilde = self._newton(lam / self.kernel.eigenvalues(self.n_modes))
        x_tilde.setflags(write=False)
        return x_tilde, float(self.risk_array(x_tilde))

    def _newton(self, w: np.ndarray, stop_if_separated: bool = False):
        """Damped Newton from x = 0 on F(x) = L(x) + x^T diag(w) x / 2.

        Steps solve with the eigendecomposition of the Hessian
        Phi^T diag(l'') Phi / n + lambda0 I + diag(w), negative curvature
        shifted out and null directions pseudo-inverted (so a rank-deficient
        problem ends at its minimum-norm minimizer), then backtrack on F.
        Returns None once min_i y_i u_i > 0 if ``stop_if_separated``.
        """
        phi, y = self.features, self.dataset.y
        eps = np.finfo(float).eps

        def objective(x):
            return float(self.risk_array(x)) + 0.5 * float(x @ (w * x))

        x = np.zeros(self.n_modes)
        f = objective(x)
        for _ in range(_NEWTON_MAX_STEPS):
            u = phi @ x
            if stop_if_separated and np.min(y * u) > 0.0:
                return None
            g = self.grad_array(x) + w * x
            h = (phi.T * self.loss.d2(u, y)) @ phi / self.dataset.size
            h[np.diag_indices_from(h)] += self.lambda0 + w
            evals, evecs = np.linalg.eigh(h)
            cutoff = self.n_modes * eps * float(np.max(np.abs(evals)))
            if np.linalg.norm(g) < _NEWTON_TOL:
                if evals[0] < -cutoff:
                    raise RuntimeError(
                        f"minimizer search ended where the Hessian has eigenvalue {evals[0]:.3g} < 0"
                    )
                return x
            coef = evecs.T @ g
            shifted = evals + max(0.0, -2.0 * evals[0])
            d = -(evecs @ np.divide(coef, shifted, out=np.zeros_like(coef), where=np.abs(evals) > cutoff))
            t = 1.0
            # the rounding allowance admits the last steps, whose decrease F cannot resolve
            while (f_new := objective(x + t * d)) > f + 1e-4 * t * float(g @ d) + 8.0 * eps * abs(f):
                t *= 0.5
                if t < 1e-12:
                    raise RuntimeError(f"minimizer line search stalled, gradient norm {np.linalg.norm(g):.3g}")
            x, f = x + t * d, f_new
        raise RuntimeError(f"minimizer search took over {_NEWTON_MAX_STEPS} Newton steps")
