"""Mercer eigenbasis, spectral vectors and the diagonal operators of the scheme.

Everything lives in the coefficient representation: an element of the
(N+1)-dimensional Galerkin subspace is its coefficient vector in the cosine
eigenbasis.  The operators of the scheme (the drift A and the resolvent
S_eta) are diagonal in this basis, so they are stored as per-mode scale
vectors and never as dense matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelSpec",
    "SpectralVector",
    "DiagonalOperator",
    "rkhs_norm",
    "resolvent_s_eta",
    "operator_a",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class KernelSpec:
    """Eigenvalue law and orthonormal basis of the Mercer expansion.

    The eigenvalues follow the inverse-square law ``mu_k = mu0 / (k+1)**2``,
    and the basis is the cosine family on [0, 1]: ``f_0 = 1``,
    ``f_k(z) = sqrt(2) cos(pi k z)`` for k >= 1.  ``gamma`` is the rescaling
    exponent of the feature map.
    """

    mu0: float = 1.0
    gamma: float = 1.5
    decay: str = "inverse-square"
    basis: str = "cosine"

    def __post_init__(self):
        if not (self.mu0 > 0 and math.isfinite(self.mu0)):
            raise ValueError(f"mu0 must be a positive finite real, got {self.mu0}")
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.decay not in ("inverse-square", "harmonic"):
            raise ValueError(f"unsupported eigenvalue decay law: {self.decay!r}")
        if self.basis != "cosine":
            raise ValueError(f"unsupported basis family: {self.basis!r}")

    def eigenvalue(self, k: int) -> float:
        """mu_k for a single mode index."""
        if k < 0:
            raise ValueError("mode index must be >= 0")
        power = 2 if self.decay == "inverse-square" else 1
        return self.mu0 / (k + 1) ** power

    def eigenvalues(self, n_modes: int) -> np.ndarray:
        """Vector (mu_0, ..., mu_N) with N+1 = n_modes.

        The harmonic law mu_k = mu0/(k+1) is accepted by the constructor but
        violates the inverse-square envelope; the verification suite flags it.
        """
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        k = np.arange(n_modes, dtype=float)
        power = 2.0 if self.decay == "inverse-square" else 1.0
        return self.mu0 / (k + 1.0) ** power

    def basis_eval(self, k: int, z) -> float | np.ndarray:
        """f_k(z) on [0, 1]."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise ValueError("basis point must lie in [0, 1]")
        if k < 0:
            raise ValueError("mode index must be >= 0")
        if k == 0:
            out = np.ones_like(z)
        else:
            out = _SQRT2 * np.cos(math.pi * k * z)
        return float(out) if out.ndim == 0 else out

    def basis_row(self, z: float, n_modes: int) -> np.ndarray:
        """(f_0(z), ..., f_N(z)) as one vector."""
        if not (0.0 <= z <= 1.0):
            raise ValueError("basis point must lie in [0, 1]")
        k = np.arange(n_modes, dtype=float)
        row = _SQRT2 * np.cos(math.pi * k * z)
        row[0] = 1.0
        return row

    def feature_matrix(self, z: np.ndarray, n_modes: int) -> np.ndarray:
        """Rows psi_gamma(z_i): coefficient k is mu_k^(gamma/2) f_k(z_i)."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise ValueError("feature points must lie in [0, 1]")
        k = np.arange(n_modes, dtype=float)
        rows = _SQRT2 * np.cos(math.pi * np.outer(z, k))
        rows[:, 0] = 1.0
        return rows * self.eigenvalues(n_modes) ** (self.gamma / 2.0)

    def feature_map(self, z: float, n_modes: int) -> "SpectralVector":
        """psi_gamma(z) truncated to n_modes coefficients."""
        return SpectralVector(self.feature_matrix(np.array([z]), n_modes)[0])

    def kernel_gamma(self, z: float, z2: float, n_modes: int) -> float:
        """Truncated K_gamma(z, z') = sum_k mu_k^gamma f_k(z) f_k(z')."""
        mu_g = self.eigenvalues(n_modes) ** self.gamma
        return float(np.dot(mu_g * self.basis_row(z, n_modes), self.basis_row(z2, n_modes)))


@dataclass(frozen=True)
class SpectralVector:
    """Coefficients (alpha_0 ... alpha_N) of an element of H_N in the eigenbasis."""

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=float, copy=True)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coefficients must form a nonempty 1-d vector")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        """Plain H-norm, sqrt(sum alpha_k^2)."""
        return float(np.linalg.norm(self.coeffs))

    def dot(self, other: "SpectralVector") -> float:
        if other.n_modes != self.n_modes:
            raise ValueError("mode count mismatch")
        return float(np.dot(self.coeffs, other.coeffs))

    @classmethod
    def zeros(cls, n_modes: int) -> "SpectralVector":
        return cls(np.zeros(n_modes))

    @classmethod
    def unit(cls, k: int, n_modes: int) -> "SpectralVector":
        c = np.zeros(n_modes)
        c[k] = 1.0
        return cls(c)

    def __add__(self, other: "SpectralVector") -> "SpectralVector":
        return SpectralVector(self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralVector") -> "SpectralVector":
        return SpectralVector(self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "SpectralVector":
        return SpectralVector(self.coeffs * a)

    __rmul__ = __mul__


@dataclass(frozen=True)
class DiagonalOperator:
    """Mode-wise multiplication operator, stored by its scale vector."""

    scale_per_mode: np.ndarray
    label: str = "identity"

    def __post_init__(self):
        s = np.array(self.scale_per_mode, dtype=float, copy=True)
        if s.ndim != 1:
            raise ValueError("scale vector must be 1-d")
        if not np.all(np.isfinite(s)):
            raise ValueError("scale vector must be finite")
        s.setflags(write=False)
        object.__setattr__(self, "scale_per_mode", s)

    @property
    def n_modes(self) -> int:
        return self.scale_per_mode.size

    @property
    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.scale_per_mode)))

    def apply(self, x: SpectralVector) -> SpectralVector:
        if x.n_modes != self.n_modes:
            raise ValueError("mode count mismatch")
        return SpectralVector(self.scale_per_mode * x.coeffs)

    def apply_array(self, a: np.ndarray) -> np.ndarray:
        return self.scale_per_mode * a


def rkhs_norm(x: SpectralVector, spec: KernelSpec) -> float:
    """RKHS norm (sum alpha_k^2 / mu_k)^(1/2) on the truncated representation."""
    mu = spec.eigenvalues(x.n_modes)
    return float(np.sqrt(np.sum(x.coeffs**2 / mu)))


def resolvent_scales(spec: KernelSpec, lam: float, eta: float, n_modes: int) -> np.ndarray:
    """Per-mode scales 1 / (1 + lam * eta / mu_k) of the resolvent."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return 1.0 / (1.0 + lam * eta / spec.eigenvalues(n_modes))


def resolvent_s_eta(spec: KernelSpec, lam: float, eta: float, n_modes: int) -> DiagonalOperator:
    """Semi-implicit resolvent of the RKHS regularizer.

    eta = 0 is accepted and returns the identity (the step-size -> 0 limit);
    negative eta or nonpositive lambda are rejected.
    """
    return DiagonalOperator(resolvent_scales(spec, lam, eta, n_modes), label="S_eta")


def operator_a(spec: KernelSpec, lam: float, n_modes: int) -> DiagonalOperator:
    """Drift operator A with A f_k = -(lam / mu_k) f_k."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    return DiagonalOperator(-lam / spec.eigenvalues(n_modes), label="A")
