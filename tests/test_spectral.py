import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rkld.spectral import KernelSpec, resolvent_scales, rkhs_norm

KERNEL = KernelSpec()


def kernel_gamma(kernel, z, z2, n_modes):
    """Truncated K_gamma(z, z') = sum_k mu_k^gamma f_k(z) f_k(z')."""
    f = kernel.basis_matrix(np.array([z, z2]), n_modes)
    return float(np.dot(kernel.eigenvalues(n_modes) ** kernel.gamma * f[0], f[1]))


def cosine(k, z):
    """Reference f_k(z), written out apart from rkld: 1 for k = 0, else sqrt(2) cos(pi k z)."""
    return 1.0 if k == 0 else math.sqrt(2.0) * math.cos(math.pi * (z * k))


finite_coeffs = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestEigenvalues:
    def test_leading(self):
        assert KERNEL.eigenvalues(1)[0] == 1.0

    def test_inverse_square_law(self):
        assert KERNEL.eigenvalues(4)[3] == 1.0 / 16.0
        assert KernelSpec(mu0=0.5).eigenvalues(2)[1] == 0.125

    def test_positive_nonincreasing(self):
        mu = KERNEL.eigenvalues(100)
        assert np.all(mu > 0)
        assert np.all(np.diff(mu) <= 0)

    def test_shape_bounds(self):
        k = np.arange(100)
        ratio = KERNEL.eigenvalues(100) * (k + 1.0) ** 2
        assert np.allclose(ratio, 1.0, atol=1e-12)


class TestBasis:
    def test_constant_mode(self):
        assert KERNEL.basis_matrix(np.array([0.37]), 1)[0, 0] == 1.0

    def test_cosine_values(self):
        assert KERNEL.basis_matrix(np.array([0.0]), 3)[0, 2] == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(KERNEL.basis_matrix(np.array([0.5]), 2)[0, 1]) < 1e-12

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            KERNEL.basis_matrix(np.array([1.5]), 2)

    def test_orthonormal_under_quadrature(self):
        z = np.linspace(0.0, 1.0, 2049)
        w = np.full(z.size, 1.0 / 2048)
        w[0] *= 0.5
        w[-1] *= 0.5
        rows = KERNEL.basis_matrix(z, 17).T
        gram = (rows * w) @ rows.T
        assert np.max(np.abs(gram - np.eye(17))) < 1e-6


class TestFeatureMap:
    def test_gamma_zero_is_plain_basis(self):
        z = 0.3
        psi = KernelSpec(gamma=0.0).feature_matrix(np.array([z]), 4)[0]
        expect = [cosine(k, z) for k in range(4)]
        assert np.allclose(psi, expect, atol=1e-15)

    def test_gamma_two_at_origin(self):
        psi = KernelSpec(gamma=2.0).feature_matrix(np.array([0.0]), 3)[0]
        expect = np.array([1.0, math.sqrt(2.0) / 4.0, math.sqrt(2.0) / 9.0])
        assert np.allclose(psi, expect, atol=1e-15)

    def test_norm_equals_kernel_diagonal(self):
        for z in (0.0, 0.21, 0.77, 1.0):
            psi = KERNEL.feature_matrix(np.array([z]), 17)[0]
            assert float(np.linalg.norm(psi)) ** 2 == pytest.approx(kernel_gamma(KERNEL, z, z, 17), rel=1e-13)

    @given(
        hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(0.0, 1.0)),
        st.integers(1, 140),
        st.integers(0, 140),
        st.floats(0.0, 3.0),
    )
    @settings(max_examples=100)
    def test_columns_do_not_depend_on_truncation(self, z, n, extra, gamma):
        # galerkin_error_vs_n reads an N-mode chain's risk as the reference
        # risk on the zero-padded state, which needs this bitwise
        kernel = KernelSpec(gamma=gamma)
        wide = kernel.feature_matrix(z, n + extra)
        assert np.array_equal(kernel.feature_matrix(z, n), wide[:, :n])


class TestKernelGamma:
    def test_symmetric(self):
        assert kernel_gamma(KERNEL, 0.2, 0.9, 33) == pytest.approx(kernel_gamma(KERNEL, 0.9, 0.2, 33), abs=1e-14)

    def test_gamma_zero_direct_sum(self):
        z, z2 = 0.13, 0.58
        spec = KernelSpec(gamma=0.0)
        direct = sum(cosine(k, z) * cosine(k, z2) for k in range(65))
        assert kernel_gamma(spec, z, z2, 65) == pytest.approx(direct, rel=1e-12)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, 10)
        gram = np.array([[kernel_gamma(KERNEL, a, b, 33) for b in pts] for a in pts])
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-9


class TestNorms:
    def test_zero_vector(self):
        assert rkhs_norm(np.zeros(5), KERNEL) == 0.0

    def test_rkhs_norm_single_modes(self):
        assert rkhs_norm(np.array([1.0]), KERNEL) == pytest.approx(1.0)
        e2 = np.array([0.0, 0.0, 1.0])
        assert rkhs_norm(e2, KERNEL) == pytest.approx(3.0, abs=1e-12)

    @given(finite_coeffs)
    def test_rkhs_dominates_h_norm(self, coeffs):
        assert rkhs_norm(coeffs, KERNEL) >= (np.linalg.norm(coeffs) / math.sqrt(KERNEL.mu0)) * (1.0 - 1e-12)


class TestResolvent:
    def test_eta_zero_is_identity(self):
        s = resolvent_scales(KERNEL, 1.0, 0.0, 5)
        assert np.allclose(s, 1.0)

    def test_mode_scales(self):
        s = resolvent_scales(KERNEL, 1.0, 0.5, 2)
        assert s[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_operator_norm(self):
        for lam in (0.5, 1.0, 4.0):
            for eta in (0.01, 0.1, 1.0):
                s = resolvent_scales(KERNEL, lam, eta, 9)
                norm = np.max(np.abs(s))
                assert norm == pytest.approx(1.0 / (1.0 + lam * eta / KERNEL.mu0), abs=1e-15)
                assert np.all(s > 0)
                assert np.all(s <= norm)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            resolvent_scales(KERNEL, 0.0, 0.1, 3)
        with pytest.raises(ValueError):
            resolvent_scales(KERNEL, 1.0, -0.1, 3)


class TestReproducingIdentity:
    def test_inner_product_matches_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.standard_normal(25)
            z = rng.uniform(0.0, 1.0)
            psi = KERNEL.feature_matrix(np.array([z]), 25)[0]
            mu = KERNEL.eigenvalues(25)
            f = np.array([cosine(k, z) for k in range(25)])
            direct = float(np.sum(mu ** (KERNEL.gamma / 2.0) * x * f))
            assert abs(float(np.dot(x, psi)) - direct) < 1e-12
