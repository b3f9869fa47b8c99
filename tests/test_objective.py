import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rkld.objective import (
    LOGISTIC,
    SAVAGE,
    SQUARED,
    Dataset,
    LossFamily,
    ObjectiveSpec,
    _sigmoid,
    loss_family,
)
from rkld.dynamics import ChainConfig, run_chain
from rkld.spectral import KernelSpec, rkhs_norm


def two_point_objective(loss, gamma=1.5, n_modes=8, lambda0=0.0):
    ds = Dataset(np.array([0.2, 0.8]), np.array([1.0, -1.0]))
    return ObjectiveSpec(ds, loss, KernelSpec(gamma=gamma), n_modes, lambda0=lambda0)


class TestDataset:
    def test_rejects_out_of_domain(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0.5, 1.2]), np.array([1.0, -1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(np.array([0.5]), np.array([1.0, -1.0]))

    def test_csv_roundtrip(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("z,y\n0.25,1.0\n0.75,-2.5\n")
        ds = Dataset.from_csv(p)
        assert np.array_equal(ds.z, [0.25, 0.75])
        assert np.array_equal(ds.y, [1.0, -2.5])

    def test_csv_bad_header(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("x,y\n0.25,1.0\n")
        with pytest.raises(ValueError):
            Dataset.from_csv(p)

    def test_synthesize_deterministic(self):
        a = Dataset.synthesize(10, seed=3)
        b = Dataset.synthesize(10, seed=3)
        assert np.array_equal(a.z, b.z) and np.array_equal(a.y, b.y)

    def test_synthesize_classification_labels(self):
        ds = Dataset.synthesize(50, seed=1, kind="classification")
        assert set(np.unique(ds.y)) <= {-1.0, 1.0}


class TestLossFamilies:
    def test_registry(self):
        assert loss_family("squared") is SQUARED
        with pytest.raises(ValueError):
            loss_family("hinge")

    def test_squared_values(self):
        assert SQUARED.value(np.array([2.0]), np.array([1.0]))[0] == 0.5
        assert SQUARED.d1(np.array([2.0]), np.array([1.0]))[0] == 1.0
        assert SQUARED.d2(np.array([2.0]), np.array([1.0]))[0] == 1.0

    def test_logistic_at_zero(self):
        assert LOGISTIC.value(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(math.log(2.0))
        assert LOGISTIC.d1(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(-0.5)
        assert LOGISTIC.d2(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(0.25)

    def test_savage_at_zero(self):
        assert SAVAGE.value(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(0.25)

    def test_savage_bounds_are_suprema(self):
        u = np.linspace(-30.0, 30.0, 200001)
        y = np.ones_like(u)
        assert np.max(np.abs(SAVAGE.d1(u, y))) <= SAVAGE.first_derivative_bound + 1e-12
        assert np.max(np.abs(SAVAGE.d2(u, y))) <= SAVAGE.second_derivative_bound + 1e-12
        assert np.max(np.abs(SAVAGE.d1(u, y))) > SAVAGE.first_derivative_bound - 1e-6
        assert np.max(np.abs(SAVAGE.d2(u, y))) > SAVAGE.second_derivative_bound - 1e-6

    def test_logistic_bounds_are_suprema(self):
        u = np.linspace(-30.0, 30.0, 200001)
        y = np.ones_like(u)
        assert np.max(np.abs(LOGISTIC.d1(u, y))) <= 1.0
        assert np.max(np.abs(LOGISTIC.d2(u, y))) <= 0.25 + 1e-12

    @given(
        st.floats(min_value=-20, max_value=20),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from(["squared", "logistic", "savage"]),
    )
    @settings(max_examples=60)
    def test_d1_matches_finite_difference(self, u, y, tag):
        fam = loss_family(tag)
        h = 1e-6 * max(1.0, abs(u))
        ua, ya = np.array([u]), np.array([y])
        fd = (fam.value(ua + h, ya) - fam.value(ua - h, ya))[0] / (2.0 * h)
        assert fam.d1(ua, ya)[0] == pytest.approx(fd, rel=1e-4, abs=1e-7)


def masked_sigmoid(t):
    # the two-branch stable logistic that _sigmoid must reproduce bit for bit
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def separate_formulas(tag, u, y):
    """l and l' from independent formulas, each with its own sigmoid."""
    if tag == "squared":
        return 0.5 * (u - y) ** 2, u - y
    if tag == "logistic":
        return np.logaddexp(0.0, -y * u), -y * masked_sigmoid(-y * u)
    s = masked_sigmoid(y * u)
    return (1.0 - s) ** 2, -2.0 * y * s * (1.0 - s) ** 2


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
U_SHAPES = st.one_of(hnp.array_shapes(min_dims=1, max_dims=1), hnp.array_shapes(min_dims=2, max_dims=2))


def float_arrays(shape, bound=1e3):
    return hnp.arrays(float, shape, elements=st.one_of(st.floats(-bound, bound), SPECIAL))


class TestFusedEvaluationBits:
    @given(st.data(), st.sampled_from(["squared", "logistic", "savage"]))
    @settings(max_examples=150, deadline=None)
    def test_value_and_d1_matches_separate_formulas(self, data, tag):
        u = data.draw(U_SHAPES.flatmap(float_arrays))
        y = data.draw(hnp.arrays(float, u.shape[-1], elements=st.floats(-3.0, 3.0)))
        fam = loss_family(tag)
        with np.errstate(invalid="ignore"):  # y = 0 with u = +-inf is 0 * inf in every form
            value, d1 = fam.value_and_d1(u, y)
            halves = fam.value(u, y), fam.d1(u, y)
            ref_value, ref_d1 = separate_formulas(tag, u, y)
        assert same_bits(value, ref_value) and same_bits(d1, ref_d1)
        assert same_bits(halves[0], ref_value) and same_bits(halves[1], ref_d1)

    @pytest.mark.parametrize("tag", ["squared", "logistic", "savage"])
    def test_single_halves_match_separate_formulas_at_special_values(self, tag):
        # every pairing of u and y from +-0, +-inf, NaN and ordinary values, as (n,) and (R, n)
        grid = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.5, -2.0]
        u, y = map(np.array, zip(*itertools.product(grid, [0.0, -0.0, 1.0, -1.0, 2.5])))
        fam = loss_family(tag)
        for shaped in (u, np.stack([u, -u])):
            with np.errstate(invalid="ignore"):
                ref_value, ref_d1 = separate_formulas(tag, shaped, y)
                halves = fam.value(shaped, y), fam.d1(shaped, y)
                fused = fam.value_and_d1(shaped, y)
            assert same_bits(halves[0], ref_value) and same_bits(halves[1], ref_d1)
            assert same_bits(fused[0], ref_value) and same_bits(fused[1], ref_d1)

    @given(U_SHAPES.flatmap(float_arrays))
    @settings(max_examples=150, deadline=None)
    def test_sigmoid_matches_masked_form_without_warnings(self, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert same_bits(_sigmoid(t), masked_sigmoid(t))

    def test_sigmoid_cannot_overflow_at_extremes(self):
        t = np.array([-1e308, -800.0, -0.0, 0.0, 800.0, 1e308, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert same_bits(_sigmoid(t), masked_sigmoid(t))
        assert same_bits(_sigmoid(t)[:6], np.array([0.0, 0.0, 0.5, 0.5, 1.0, 1.0]))


class TestRiskAndGradient:
    def test_risk_at_origin_squared(self):
        obj = two_point_objective(SQUARED)
        assert obj.risk_array(np.zeros(8)) == pytest.approx(0.5, abs=1e-15)

    def test_risk_at_origin_logistic(self):
        obj = two_point_objective(LOGISTIC)
        assert obj.risk_array(np.zeros(8)) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_ridge_term(self):
        obj = two_point_objective(SQUARED, lambda0=0.4)
        assert obj.risk_array(np.zeros(8)) == pytest.approx(0.5)
        x2 = np.r_[2.0, np.zeros(7)]
        plain = two_point_objective(SQUARED).risk_array(x2)
        assert obj.risk_array(x2) == pytest.approx(plain + 0.5 * 0.4 * 4.0, rel=1e-12)
        # one row per chain: the ridge term is per row
        both = obj.risk_array(np.stack([np.zeros(8), x2]))
        assert both[0] == pytest.approx(0.5) and both[1] == pytest.approx(plain + 0.8, rel=1e-12)

    def test_gradient_finite_difference_all_losses(self):
        rng = np.random.default_rng(17)
        for loss in (SQUARED, LOGISTIC, SAVAGE):
            obj = two_point_objective(loss, lambda0=0.1)
            for _ in range(10):
                x = rng.standard_normal(8)
                v = rng.standard_normal(8)
                v /= np.linalg.norm(v)
                h = 1e-6
                fd = (obj.risk_array(x + h * v) - obj.risk_array(x - h * v)) / (2.0 * h)
                assert abs(obj.grad_array(x) @ v - fd) < 1e-5

    def test_mode_count_mismatch(self):
        obj = two_point_objective(SQUARED)
        for method in (obj.risk_array, obj.grad_array):
            with pytest.raises(ValueError):
                method(np.zeros(5))

    def test_regularized_risk_uses_rkhs_norm(self):
        # the engine's reg_objective column is L(x) + (lam/2) ||x||_HK^2
        obj = two_point_objective(SQUARED)
        x = np.zeros(8)
        x[2] = 1.0
        cfg = ChainConfig(eta=0.05, beta=4.0, lam=2.0, n_modes=8, seed=1, horizon=1, x0=x)
        reg = run_chain(cfg, obj).reg_objective[0, 0]
        assert reg == pytest.approx(obj.risk_array(x) + 0.5 * 2.0 * 9.0, rel=1e-14)
        assert reg == pytest.approx(obj.risk_array(x) + 0.5 * 2.0 * rkhs_norm(x, obj.kernel) ** 2)


class TestMinibatch:
    def _objective(self):
        ds = Dataset.synthesize(6, seed=9)
        return ObjectiveSpec(ds, SQUARED, KernelSpec(), 6)

    def test_exhaustive_mean_identity(self):
        obj = self._objective()
        x = np.random.default_rng(2).standard_normal(6)
        batches = np.array(list(itertools.combinations(range(6), 2)))
        assert len(batches) == 15
        grads = np.stack([obj.stochastic_grad_array(x, b) for b in batches])
        assert np.max(np.abs(grads.mean(axis=0) - obj.grad_array(x))) < 1e-12
        # the stacked form takes all 15 minibatches at once
        stacked = obj.stochastic_grad_array(np.tile(x, (15, 1)), batches)
        assert np.array_equal(stacked, grads)

    def test_full_batch_equals_gradient(self):
        obj = self._objective()
        x = np.random.default_rng(3).standard_normal(6)
        g = obj.stochastic_grad_array(x, np.arange(6))
        assert np.max(np.abs(g - obj.grad_array(x))) < 1e-14

    @pytest.mark.parametrize("loss", [SQUARED, LOGISTIC, SAVAGE], ids=lambda f: f.tag)
    def test_stacked_batches_match_per_chain_calls(self, loss):
        kind = "regression" if loss is SQUARED else "classification"
        obj = ObjectiveSpec(Dataset.synthesize(10, seed=9, kind=kind), loss, KernelSpec(), 8, lambda0=0.1)
        rng = np.random.default_rng(4)
        xs = rng.standard_normal((5, 8))
        batches = np.stack([rng.permutation(10)[:3] for _ in range(5)])
        stacked = obj.stochastic_grad_array(xs, batches)
        assert stacked.shape == (5, 8)
        for x, batch, g in zip(xs, batches, stacked):
            assert np.array_equal(obj.stochastic_grad_array(x, batch), g)
            # the one-chain form keeps its row-vector formula, bit for bit
            rows = obj.features[batch]
            ref = loss.d1(x @ rows.T, obj.dataset.y[batch]) @ rows / 3 + 0.1 * x
            assert np.array_equal(g, ref)


class TestConstants:
    def test_smoothness_is_g_times_sup_diag(self):
        obj = two_point_objective(LOGISTIC, gamma=2.0, n_modes=16)
        # R_gamma = max_i sum_k mu_k^gamma f_k(z_i)^2, the f_k from the gamma = 0 feature map
        f = dataclasses.replace(obj.kernel, gamma=0.0).feature_matrix(obj.dataset.z, 16)
        r = float(np.max(f**2 @ obj.kernel.eigenvalues(16) ** obj.kernel.gamma))
        assert obj.smoothness_constant() == pytest.approx(0.25 * r, rel=1e-14)

    def test_gradient_bound_squared_is_none(self):
        assert two_point_objective(SQUARED).gradient_bound() is None

    def test_gradient_bound_logistic(self):
        obj = two_point_objective(LOGISTIC, gamma=2.0, n_modes=16)
        r = obj.kernel_diag_sup()
        assert obj.gradient_bound() == pytest.approx(math.sqrt(r), rel=1e-14)

    def test_dissipativity_strict_at_twice_threshold(self):
        obj = two_point_objective(SQUARED, gamma=1.5, n_modes=8)
        M = obj.smoothness_constant()
        regime, m, c = obj.dissipativity_constants(2.0 * M * obj.kernel.mu0)
        assert regime == "strict"
        assert m == pytest.approx(M / 2.0, rel=1e-12)
        grad0 = obj.grad_array(np.zeros(8))
        assert c == pytest.approx(float(grad0 @ grad0) / (2.0 * M), rel=1e-12)
        # never larger than the Young split around x*, since ||grad L(0)|| <= M ||x*||
        x_star = np.linalg.norm(obj.find_minimizers(2.0 * M).x_star)
        assert c <= M**2 * x_star**2 / (2.0 * M)

    def test_dissipativity_bounded(self):
        obj = two_point_objective(SAVAGE, n_modes=8)
        M = obj.smoothness_constant()
        lam = 0.25 * M * obj.kernel.mu0
        regime, m, c = obj.dissipativity_constants(lam)
        assert regime == "bounded"
        assert m == pytest.approx(lam / (2.0 * obj.kernel.mu0), rel=1e-14)
        B = obj.gradient_bound()
        assert c == pytest.approx(B**2 * obj.kernel.mu0 / (2.0 * lam), rel=1e-14)

    def test_no_regime_raises(self):
        obj = two_point_objective(SQUARED)
        lam = 0.1 * obj.smoothness_constant() * obj.kernel.mu0
        with pytest.raises(ValueError):
            obj.dissipativity_constants(lam)


class TestMinimizers:
    def test_squared_stationarity(self):
        ds = Dataset.synthesize(12, seed=4)
        obj = ObjectiveSpec(ds, SQUARED, KernelSpec(), 10)
        pair = obj.find_minimizers(1.5)
        assert np.max(np.abs(obj.grad_array(pair.x_star))) < 1e-9
        mu = obj.kernel.eigenvalues(10)
        res = obj.grad_array(pair.x_tilde) + 1.5 * pair.x_tilde / mu
        assert np.max(np.abs(res)) < 1e-9
        assert pair.l_tilde >= pair.l_star - 1e-12

    @staticmethod
    def _check_regularized_stationarity(loss):
        ds = Dataset.synthesize(10, seed=6, kind="classification")
        obj = ObjectiveSpec(ds, loss, KernelSpec(), 8)
        x_tilde, l_tilde = obj.regularized_minimizer(1.0)
        mu = obj.kernel.eigenvalues(8)
        res = obj.grad_array(x_tilde) + x_tilde / mu
        assert np.linalg.norm(res) < 1e-9
        assert l_tilde == pytest.approx(obj.risk_array(x_tilde), abs=1e-15)

    def test_logistic_regularized_stationarity(self):
        self._check_regularized_stationarity(LOGISTIC)

    def test_savage_regularized_stationarity(self):
        self._check_regularized_stationarity(SAVAGE)

    def test_huge_lambda_shrinks_x_tilde(self):
        ds = Dataset.synthesize(12, seed=4)
        obj = ObjectiveSpec(ds, SQUARED, KernelSpec(), 10)
        x_tilde, _ = obj.regularized_minimizer(1e6)
        assert np.linalg.norm(x_tilde) < 1e-3

    def test_minimizer_matches_regularized_minimizer(self):
        base = Dataset.synthesize(10, seed=6, kind="classification")
        y = base.y.copy()
        y[::3] = -y[::3]  # flipped labels keep the unregularized risk coercive
        obj = ObjectiveSpec(Dataset(base.z, y), LOGISTIC, KernelSpec(), 4)
        pair = obj.find_minimizers(1.0)
        x_tilde, _ = obj.regularized_minimizer(1.0)
        assert np.max(np.abs(pair.x_tilde - x_tilde)) < 1e-6
        assert pair.attained
        assert np.linalg.norm(obj.grad_array(pair.x_star)) < 1e-7
        assert pair.l_star == pytest.approx(0.497491, abs=1e-6)

    @pytest.mark.parametrize("which", ["x_star", "x_tilde", "regularized_minimizer"])
    def test_minimizers_are_read_only(self, which):
        ds = Dataset.synthesize(12, seed=4)
        obj = ObjectiveSpec(ds, SQUARED, KernelSpec(), 10)
        if which == "regularized_minimizer":
            x = obj.regularized_minimizer(1.5)[0]
        else:
            x = getattr(obj.find_minimizers(1.5), which)
        with pytest.raises(ValueError):
            x[0] = 1.0
        with pytest.raises(ValueError):
            x += 1.0

    @pytest.mark.parametrize("loss", [LOGISTIC, SAVAGE])
    def test_separable_data_infimum_not_attained(self, loss):
        ds = Dataset.synthesize(10, seed=6, kind="classification")
        obj = ObjectiveSpec(ds, loss, KernelSpec(), 8)
        pair = obj.find_minimizers(1.0)
        assert pair.l_star == 0.0
        assert not pair.attained and pair.x_star is None
        assert pair.l_tilde > 0.0

    def test_rank_deficient_x_star_is_minimum_norm(self):
        ds = Dataset.synthesize(5, seed=3)
        obj = ObjectiveSpec(ds, SQUARED, KernelSpec(gamma=0.5), 10)
        pair = obj.find_minimizers(1.0)
        assert pair.attained
        expected = np.linalg.pinv(obj.features) @ ds.y
        assert np.max(np.abs(pair.x_star - expected)) < 1e-10

    def test_negative_curvature_stationary_point_rejected(self):
        class Cosine(LossFamily):
            """l(u, y) = cos(u): u = 0 is stationary with l'' = -1."""

            def value(self, u, y):
                return np.cos(u)

            def d1(self, u, y):
                return -np.sin(u)

            def d2(self, u, y):
                return -np.cos(u)

        obj = two_point_objective(Cosine("cosine", 1.0, 1.0))
        with pytest.raises(RuntimeError, match="Hessian has eigenvalue"):
            obj.regularized_minimizer(1e-3)
