import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cinestat import linear_models
from cinestat.data_pipeline import ClassLabel, DesignMatrix, make_binner
from cinestat.linear_models import (
    LinearFit,
    evaluate_binned,
    fit_lasso,
    fit_logistic,
    fit_ols,
    fit_ridge,
    predict,
    predict_proba,
)


def dm(values, target, names=None):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and np.asarray(target).size != 1:
        values = values.T
    names = names or [f"x{j}" for j in range(values.shape[1])]
    return DesignMatrix(names, values, np.asarray(target, dtype=float))


class TestOls:
    def test_exact_line(self):
        # y = 1 + 2x fitted exactly
        fit = fit_ols(dm([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0]))
        assert fit.intercept == pytest.approx(1.0, abs=1e-10)
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-10)

    def test_hand_computed_slope(self):
        # x = [1,2,3], y = [1,2,4]: slope = cov/var = 3/2, intercept = 1/3 - ... hand:
        # mean x = 2, mean y = 7/3, Sxy = 3, Sxx = 2 -> slope 1.5, intercept 7/3 - 3 = -2/3
        fit = fit_ols(dm([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]))
        assert fit.coefficients[0] == pytest.approx(1.5, abs=1e-10)
        assert fit.intercept == pytest.approx(-2.0 / 3.0, abs=1e-10)

    def test_residuals_sum_to_zero(self):
        rng = np.random.default_rng(5)
        X = dm(rng.normal(size=(30, 3)), rng.normal(size=30))
        fit = fit_ols(X)
        resid = X.target - predict(fit, X.values)
        assert abs(resid.sum()) < 1e-8

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            fit_ols(dm(np.ones((3, 2)), [1.0, 2.0, 3.0]))

    def test_matches_numpy_lstsq(self):
        rng = np.random.default_rng(9)
        X = dm(rng.normal(size=(50, 4)), rng.normal(size=50))
        fit = fit_ols(X)
        Z = np.column_stack([np.ones(50), X.values])
        ref, *_ = np.linalg.lstsq(Z, X.target, rcond=None)
        np.testing.assert_allclose([fit.intercept, *fit.coefficients], ref, atol=1e-8)


class TestRidge:
    def test_two_point_hand_solution(self):
        # centered x = [-0.5, 0.5], y = [-0.5, 0.5], lam = 1:
        # beta = Sxy / (Sxx + lam) = 0.5 / 1.5 = 1/3
        fit = fit_ridge(dm([0.0, 1.0], [0.0, 1.0]), 1.0)
        assert fit.coefficients[0] == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.5 - (1.0 / 3.0) * 0.5, abs=1e-10)

    def test_shrinks_toward_zero(self):
        rng = np.random.default_rng(21)
        X = dm(rng.normal(size=(40, 3)), rng.normal(size=40))
        small = fit_ridge(X, 0.01)
        large = fit_ridge(X, 1e6)
        assert np.linalg.norm(large.coefficients) < np.linalg.norm(small.coefficients)
        assert np.linalg.norm(large.coefficients) < 1e-3

    def test_lambda_zero_limit_matches_ols(self):
        rng = np.random.default_rng(22)
        X = dm(rng.normal(size=(40, 3)), rng.normal(size=40))
        ridge = fit_ridge(X, 1e-10)
        ols = fit_ols(X)
        np.testing.assert_allclose(ridge.coefficients, ols.coefficients, atol=1e-6)

    def test_nonpositive_lambda_rejected(self):
        with pytest.raises(ValueError):
            fit_ridge(dm([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]), 0.0)

    def test_metadata(self):
        fit = fit_ridge(dm([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]), 2.0)
        assert fit.lam == 2.0


class TestLasso:
    def test_soft_threshold_hand_solution(self):
        # x standardized = [-1,-1,1,1], y = x, n = 4: rho = 1, lam = 0.25
        # -> beta_std = 0.75, original scale identical (unit std).
        fit = fit_lasso(dm([-1.0, -1.0, 1.0, 1.0], [-1.0, -1.0, 1.0, 1.0]), 0.25)
        assert fit.coefficients[0] == pytest.approx(0.75, abs=1e-8)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)

    def test_large_lambda_kills_all_coefficients(self):
        rng = np.random.default_rng(31)
        X = dm(rng.normal(size=(50, 4)), rng.normal(size=50))
        fit = fit_lasso(X, 1e3)
        np.testing.assert_allclose(fit.coefficients, 0.0, atol=1e-12)
        assert fit.intercept == pytest.approx(X.target.mean())

    def test_sparsity_increases_with_lambda(self):
        rng = np.random.default_rng(32)
        values = rng.normal(size=(80, 6))
        y = values[:, 0] * 2.0 + rng.normal(scale=0.1, size=80)
        X = dm(values, y)
        nz_small = np.count_nonzero(fit_lasso(X, 0.01).coefficients)
        nz_large = np.count_nonzero(fit_lasso(X, 1.0).coefficients)
        assert nz_large <= nz_small
        assert np.count_nonzero(fit_lasso(X, 1.0).coefficients) <= 1

    def test_constant_column_zeroed(self):
        values = np.column_stack([np.ones(10), np.arange(10.0)])
        fit = fit_lasso(dm(values, np.arange(10.0)), 0.05)
        assert fit.coefficients[0] == 0.0

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_non_finite_lambda_rejected(self, lam):
        # NaN would soft-threshold every coefficient to NaN and report convergence
        with pytest.raises(ValueError, match="lambda must be a finite number > 0"):
            fit_lasso(dm([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]), lam)

    def test_converged_flag(self):
        fit = fit_lasso(dm([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]), 0.1)
        assert fit.converged

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.floats(0.01, 2.0))
    def test_objective_at_most_zero_vector(self, seed, lam):
        # the returned solution never scores worse than beta = 0
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        X = dm(values, y)
        fit = fit_lasso(X, lam)
        x_mean, x_std = values.mean(axis=0), values.std(axis=0)
        scale = np.where(x_std > 0, x_std, 1.0)
        beta_std = fit.coefficients * scale
        yc = y - y.mean()
        Xs = (values - x_mean) / scale

        def obj(b):
            r = yc - Xs @ b
            return 0.5 / 20 * float(r @ r) + lam * float(np.abs(b).sum())

        assert obj(beta_std) <= obj(np.zeros(3)) + 1e-10


class TestLogistic:
    def test_intercept_only_structure(self):
        # no features: the MLE intercept is the log-odds of the class rate,
        # log(3/1) for 75% positives
        y = np.array([1.0, 1.0, 1.0, 0.0])
        X = DesignMatrix([], np.zeros((4, 0)), y)
        fit = fit_logistic(X)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-6)
        p = predict_proba(fit, X.values)
        np.testing.assert_allclose(p, 0.75, atol=1e-6)

    def test_balanced_symmetric_problem(self):
        # x = [-2,-1,1,2], y = [0,0,1,1]: by symmetry the intercept is 0
        X = dm([-2.0, -1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        fit = fit_logistic(X)
        assert abs(fit.intercept) < 1e-6

    def test_separation_flagged(self):
        X = dm([-2.0, -1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        fit = fit_logistic(X)
        # perfectly separable: either the norm guard trips or likelihood
        # plateaus near zero loss; converged with huge coefficients is wrong
        if fit.converged:
            assert abs(fit.coefficients[0]) < 1e4

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            fit_logistic(dm([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]))

    def test_mixed_signal_recovers_signs(self):
        rng = np.random.default_rng(41)
        values = rng.normal(size=(400, 2))
        eta = 0.5 + 1.5 * values[:, 0] - 2.0 * values[:, 1]
        y = (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        fit = fit_logistic(dm(values, y))
        assert fit.converged
        assert fit.coefficients[0] > 0 and fit.coefficients[1] < 0
        assert fit.standard_errors.shape == (3,)
        assert np.all(fit.standard_errors > 0)

    def test_log_likelihood_nonpositive(self):
        X = dm([-2.0, -1.0, 0.5, 2.0], [0.0, 1.0, 0.0, 1.0])
        assert fit_logistic(X).log_likelihood <= 0.0

    @pytest.mark.parametrize("separable", [False, True], ids=["mixed", "separable"])
    def test_each_log_likelihood_computed_once(self, monkeypatch, separable):
        # one evaluation at the start and one per IRLS step: the accepted
        # step's value is reused for the convergence test and returned, and
        # it is the log-likelihood at the returned coefficients
        if separable:
            X = dm([-2.0, -1.0, 1.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        else:
            rng = np.random.default_rng(41)
            values = rng.normal(size=(400, 2))
            eta = 0.5 + 1.5 * values[:, 0] - 2.0 * values[:, 1]
            X = dm(values, (rng.uniform(size=400) < 1.0 / (1.0 + np.exp(-eta))).astype(float))
        real = linear_models._log_likelihood
        calls = []

        def counting(eta, y):
            calls.append(eta)
            return real(eta, y)

        monkeypatch.setattr(linear_models, "_log_likelihood", counting)
        fit = fit_logistic(X)
        assert len(calls) == fit.iterations + 1
        Z = np.column_stack([np.ones(X.n), X.values])
        assert fit.log_likelihood == real(Z @ np.r_[fit.intercept, fit.coefficients], X.target)


class TestPredictHelpers:
    def test_column_mismatch(self):
        fit = LinearFit(0.0, ["a", "b"], [1.0, 2.0])
        with pytest.raises(ValueError):
            predict(fit, np.ones((3, 3)))

    def test_plain_array_accepted(self):
        fit = LinearFit(1.0, ["a"], [2.0])
        np.testing.assert_allclose(predict(fit, [[0.0], [1.0]]), [1.0, 3.0])

    def test_proba_bounds(self):
        # overlapping classes keep the fit finite and probabilities interior
        X = dm([-2.0, 1.0, -1.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        p = predict_proba(fit_logistic(X), X.values)
        assert np.all((p > 0) & (p < 1))


class TestEvaluateBinned:
    def test_perfect_and_clamped_predictions(self):
        # identity fit on scores already in bins; raw predictions outside
        # [0, 100] are clamped before binning
        fit = LinearFit(0.0, ["s"], [1.0])
        X = dm([30.0, 50.0, 70.0], [30.0, 50.0, 70.0], names=["s"])
        confusion, accuracy = evaluate_binned(fit, X, make_binner(40, 60))
        assert accuracy == 1.0
        np.testing.assert_array_equal(np.diag(confusion), [1, 1, 1])

    def test_clamping(self):
        fit = LinearFit(0.0, ["s"], [2.0])  # doubles the score
        X = dm([80.0], [80.0], names=["s"])  # prediction 160 -> clamp 100 -> HIT
        confusion, _ = evaluate_binned(fit, X, make_binner(40, 60))
        assert confusion[ClassLabel.HIT, ClassLabel.HIT] == 1

    def test_accuracy_counts(self):
        fit = LinearFit(50.0, ["s"], [0.0])  # always predicts NEUTRAL
        X = dm([10.0, 50.0, 90.0, 45.0], [10.0, 50.0, 90.0, 45.0], names=["s"])
        confusion, accuracy = evaluate_binned(fit, X, make_binner(40, 60))
        assert accuracy == pytest.approx(0.5)
        assert confusion.sum() == 4
