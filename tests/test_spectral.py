import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rkld.spectral import (
    DiagonalOperator,
    KernelSpec,
    SpectralVector,
    operator_a,
    resolvent_s_eta,
    rkhs_norm,
)

KERNEL = KernelSpec()

finite_coeffs = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=40),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestEigenvalues:
    def test_leading(self):
        assert KERNEL.eigenvalue(0) == 1.0

    def test_inverse_square_law(self):
        assert KERNEL.eigenvalue(3) == 1.0 / 16.0
        assert KernelSpec(mu0=0.5).eigenvalue(1) == 0.125

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
        assert KERNEL.basis_eval(0, 0.37) == 1.0

    def test_cosine_values(self):
        assert KERNEL.basis_eval(2, 0.0) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert abs(KERNEL.basis_eval(1, 0.5)) < 1e-12

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            KERNEL.basis_eval(1, 1.5)

    def test_orthonormal_under_quadrature(self):
        z = np.linspace(0.0, 1.0, 2049)
        w = np.full(z.size, 1.0 / 2048)
        w[0] *= 0.5
        w[-1] *= 0.5
        rows = np.stack([KERNEL.basis_eval(k, z) for k in range(17)])
        gram = (rows * w) @ rows.T
        assert np.max(np.abs(gram - np.eye(17))) < 1e-6


class TestFeatureMap:
    def test_gamma_zero_is_plain_basis(self):
        z = 0.3
        psi = KernelSpec(gamma=0.0).feature_map(z, 4)
        expect = [KERNEL.basis_eval(k, z) for k in range(4)]
        assert np.allclose(psi.coeffs, expect, atol=1e-15)

    def test_gamma_two_at_origin(self):
        psi = KernelSpec(gamma=2.0).feature_map(0.0, 3)
        expect = np.array([1.0, math.sqrt(2.0) / 4.0, math.sqrt(2.0) / 9.0])
        assert np.allclose(psi.coeffs, expect, atol=1e-15)

    def test_norm_equals_kernel_diagonal(self):
        for z in (0.0, 0.21, 0.77, 1.0):
            psi = KERNEL.feature_map(z, 17)
            assert psi.norm() ** 2 == pytest.approx(KERNEL.kernel_gamma(z, z, 17), rel=1e-13)

    @given(
        hnp.arrays(np.float64, st.integers(1, 30), elements=st.floats(0.0, 1.0)),
        st.integers(1, 140),
        st.integers(0, 140),
        st.sampled_from(["inverse-square", "harmonic"]),
        st.floats(0.0, 3.0),
    )
    @settings(max_examples=100)
    def test_columns_do_not_depend_on_truncation(self, z, n, extra, decay, gamma):
        # galerkin_error_vs_n reads an N-mode chain's risk as the reference
        # risk on the zero-padded state, which needs this bitwise
        kernel = KernelSpec(gamma=gamma, decay=decay)
        wide = kernel.feature_matrix(z, n + extra)
        assert np.array_equal(kernel.feature_matrix(z, n), wide[:, :n])


class TestKernelGamma:
    def test_symmetric(self):
        assert KERNEL.kernel_gamma(0.2, 0.9, 33) == pytest.approx(
            KERNEL.kernel_gamma(0.9, 0.2, 33), abs=1e-14
        )

    def test_gamma_zero_direct_sum(self):
        z, z2 = 0.13, 0.58
        spec = KernelSpec(gamma=0.0)
        direct = sum(spec.basis_eval(k, z) * spec.basis_eval(k, z2) for k in range(65))
        assert spec.kernel_gamma(z, z2, 65) == pytest.approx(direct, rel=1e-12)

    def test_gram_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0.0, 1.0, 10)
        gram = np.array([[KERNEL.kernel_gamma(a, b, 33) for b in pts] for a in pts])
        assert np.min(np.linalg.eigvalsh(gram)) >= -1e-9


class TestNorms:
    def test_zero_vector(self):
        assert SpectralVector(np.zeros(5)).norm() == 0.0
        assert rkhs_norm(SpectralVector(np.zeros(5)), KERNEL) == 0.0

    def test_rkhs_norm_single_modes(self):
        assert rkhs_norm(SpectralVector(np.array([1.0])), KERNEL) == pytest.approx(1.0)
        e2 = SpectralVector(np.array([0.0, 0.0, 1.0]))
        assert rkhs_norm(e2, KERNEL) == pytest.approx(3.0, abs=1e-12)

    @given(finite_coeffs)
    def test_rkhs_dominates_h_norm(self, coeffs):
        x = SpectralVector(coeffs)
        assert rkhs_norm(x, KERNEL) >= (x.norm() / math.sqrt(KERNEL.mu0)) * (1.0 - 1e-12)

    @given(finite_coeffs)
    @settings(max_examples=50)
    def test_parseval(self, coeffs):
        x = SpectralVector(coeffs)
        assert x.norm() ** 2 == pytest.approx(float(np.sum(coeffs**2)), rel=1e-12, abs=1e-12)


class TestResolvent:
    def test_eta_zero_is_identity(self):
        op = resolvent_s_eta(KERNEL, 1.0, 0.0, 5)
        assert np.allclose(op.scale_per_mode, 1.0)

    def test_mode_scales(self):
        op = resolvent_s_eta(KERNEL, 1.0, 0.5, 2)
        assert op.scale_per_mode[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert op.scale_per_mode[1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_operator_norm(self):
        for lam in (0.5, 1.0, 4.0):
            for eta in (0.01, 0.1, 1.0):
                op = resolvent_s_eta(KERNEL, lam, eta, 9)
                assert op.operator_norm == pytest.approx(
                    1.0 / (1.0 + lam * eta / KERNEL.mu0), abs=1e-15
                )
                assert np.all(op.scale_per_mode > 0)
                assert np.all(op.scale_per_mode <= op.operator_norm)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            resolvent_s_eta(KERNEL, 0.0, 0.1, 3)
        with pytest.raises(ValueError):
            resolvent_s_eta(KERNEL, 1.0, -0.1, 3)


class TestOperatorA:
    def test_mode_scales_negative(self):
        op = operator_a(KERNEL, 2.0, 4)
        mu = KERNEL.eigenvalues(4)
        assert np.allclose(op.scale_per_mode, -2.0 / mu, atol=1e-15)
        assert np.all(op.scale_per_mode < 0)

    @given(finite_coeffs)
    @settings(max_examples=50)
    def test_negativity_inequality(self, coeffs):
        x = SpectralVector(coeffs)
        lam = 1.5
        op = operator_a(KERNEL, lam, x.n_modes)
        lhs = op.apply(x).dot(x)
        bound = -(lam / KERNEL.mu0) * x.norm() ** 2
        assert lhs <= bound + 1e-9 * (1.0 + abs(bound))


class TestReproducingIdentity:
    def test_inner_product_matches_expansion(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = SpectralVector(rng.standard_normal(25))
            z = rng.uniform(0.0, 1.0)
            psi = KERNEL.feature_map(z, 25)
            mu = KERNEL.eigenvalues(25)
            direct = float(np.sum(mu ** (KERNEL.gamma / 2.0) * x.coeffs * KERNEL.basis_row(z, 25)))
            assert abs(x.dot(psi) - direct) < 1e-12


class TestDiagonalOperator:
    def test_apply_is_mode_wise(self):
        op = DiagonalOperator(np.array([2.0, -1.0, 0.5]), "test")
        x = SpectralVector(np.array([1.0, 4.0, 8.0]))
        assert np.array_equal(op.apply(x).coeffs, np.array([2.0, -4.0, 4.0]))

    def test_identity(self):
        op = DiagonalOperator(np.ones(4))
        x = SpectralVector(np.array([3.0, -1.0, 0.0, 2.0]))
        assert np.array_equal(op.apply(x).coeffs, x.coeffs)
