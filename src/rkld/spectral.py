"""Mercer eigenbasis, feature map, resolvent scales and the RKHS norm.

Everything lives in the coefficient representation: an element of the
(N+1)-dimensional Galerkin subspace is its plain float array of N+1
coefficients in the cosine eigenbasis.  The operators of the scheme (the
drift A = -lam/mu_k and the resolvent S_eta = 1/(1 + lam eta/mu_k)) are
diagonal in this basis, so they are per-mode scale arrays that multiply
coefficient arrays elementwise, never dense matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["KernelSpec", "resolvent_scales", "rkhs_norm"]

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

    def __post_init__(self):
        if not (self.mu0 > 0 and math.isfinite(self.mu0)):
            raise ValueError(f"mu0 must be a positive finite real, got {self.mu0}")
        if self.gamma < 0 or not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")

    def eigenvalues(self, n_modes: int) -> np.ndarray:
        """Vector (mu_0, ..., mu_N) with N+1 = n_modes."""
        if n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        k = np.arange(n_modes, dtype=float)
        return self.mu0 / (k + 1.0) ** 2.0

    def basis_matrix(self, z: np.ndarray, n_modes: int) -> np.ndarray:
        """Rows (f_0(z_i), ..., f_N(z_i)) of the cosine basis, N+1 = n_modes."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0) or np.any(z > 1.0):
            raise ValueError("feature points must lie in [0, 1]")
        k = np.arange(n_modes, dtype=float)
        rows = _SQRT2 * np.cos(math.pi * np.outer(z, k))
        rows[:, 0] = 1.0
        return rows

    def feature_matrix(self, z: np.ndarray, n_modes: int) -> np.ndarray:
        """Rows psi_gamma(z_i): coefficient k is mu_k^(gamma/2) f_k(z_i)."""
        return self.basis_matrix(z, n_modes) * self.eigenvalues(n_modes) ** (self.gamma / 2.0)


def rkhs_norm(x: np.ndarray, spec: KernelSpec) -> float:
    """RKHS norm (sum alpha_k^2 / mu_k)^(1/2) of the coefficient array x."""
    mu = spec.eigenvalues(x.size)
    return float(np.sqrt(np.sum(x**2 / mu)))


def resolvent_scales(spec: KernelSpec, lam: float, eta: float, n_modes: int) -> np.ndarray:
    """Per-mode scales 1 / (1 + lam * eta / mu_k) of the resolvent S_eta.

    eta = 0 is accepted and gives the identity (the step-size -> 0 limit);
    negative eta or nonpositive lambda are rejected.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    return 1.0 / (1.0 + lam * eta / spec.eigenvalues(n_modes))
