import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from cinestat.data_pipeline import DesignMatrix
from cinestat.inference import (
    StatTestResult,
    breusch_godfrey,
    confusion_and_accuracy,
    durbin_watson,
    f_statistic,
    jaccard,
    jarque_bera,
    regression_validity,
    roc_auc,
    select_best_regressor,
    silhouette,
    univariate_r2,
    vif,
    wald_test,
)
from cinestat.linear_models import fit_logistic, fit_ols


def dm(values, target, names=None):
    values = np.asarray(values, dtype=float)
    names = names or [f"x{j}" for j in range(values.shape[1])]
    return DesignMatrix(names, values, np.asarray(target, dtype=float))


class TestVif:
    def test_orthogonal_columns_give_one(self):
        values = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        out = vif(dm(values, np.zeros(4)))
        assert out["x0"] == pytest.approx(1.0, abs=1e-10)
        assert out["x1"] == pytest.approx(1.0, abs=1e-10)

    def test_hand_computed_correlated_pair(self):
        # orthonormal e1, e2; x2 = 0.8 e1 + 0.6 e2 so corr(x1, x2) = 0.8
        # -> VIF = 1 / (1 - 0.64) = 2.7777...
        e1 = np.array([1.0, -1.0, 1.0, -1.0]) / 2.0
        e2 = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
        values = np.column_stack([e1, 0.8 * e1 + 0.6 * e2])
        out = vif(dm(values, np.zeros(4)))
        assert out["x0"] == pytest.approx(1.0 / 0.36, abs=1e-8)
        assert out["x1"] == pytest.approx(1.0 / 0.36, abs=1e-8)

    def test_exact_collinearity_is_inf(self):
        col = np.arange(5.0)
        out = vif(dm(np.column_stack([col, 2.0 * col + 1.0]), np.zeros(5)))
        assert out["x0"] == float("inf")
        assert out["x1"] == float("inf")

    def test_single_column_rejected(self):
        with pytest.raises(ValueError):
            vif(dm(np.ones((4, 1)), np.zeros(4)))


class TestUnivariateR2:
    def test_perfect_and_zero_correlation(self):
        x_perf = np.array([1.0, 2.0, 3.0, 4.0])
        x_const = np.ones(4)
        y = np.array([2.0, 4.0, 6.0, 8.0])
        out = univariate_r2(dm(np.column_stack([x_perf, x_const]), y))
        assert out["x0"] == pytest.approx(1.0)
        assert out["x1"] == 0.0

    def test_matches_pearson_squared(self):
        rng = np.random.default_rng(17)
        values = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        out = univariate_r2(dm(values, y))
        for j in range(3):
            r = stats.pearsonr(values[:, j], y).statistic
            assert out[f"x{j}"] == pytest.approx(r * r, abs=1e-12)

    def test_constant_target_rejected(self):
        with pytest.raises(ValueError):
            univariate_r2(dm(np.eye(3), np.ones(3)))

    def test_select_best_lexicographic_tie(self):
        assert select_best_regressor({"b": 0.5, "a": 0.5, "c": 0.2}) == "a"
        assert select_best_regressor({"z": 0.9, "a": 0.1}) == "z"


class TestDurbinWatson:
    def test_alternating_residuals_near_four(self):
        # e = [1,-1,1,-1]: numerator = 3*4 = 12, denominator = 4 -> DW = 3
        assert durbin_watson([1.0, -1.0, 1.0, -1.0]).statistic == pytest.approx(3.0)

    def test_constant_sign_trend_small(self):
        e = np.ones(10)
        e[5:] = 1.0 + 1e-9
        assert durbin_watson(e).statistic < 0.1

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(23)
        e = rng.normal(size=50)
        ref = float(np.sum(np.diff(e) ** 2) / np.sum(e**2))
        assert durbin_watson(e).statistic == pytest.approx(ref)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            durbin_watson([1.0])
        with pytest.raises(ValueError):
            durbin_watson([0.0, 0.0, 0.0])


class TestJarqueBera:
    def test_symmetric_two_point_sample(self):
        # z in {-1, +1}: skew = 0, kurtosis = 1 -> JB = n/6 * (4/4) = n/6
        res = jarque_bera([-1.0, 1.0, -1.0, 1.0])
        assert res.statistic == pytest.approx(4.0 / 6.0, abs=1e-12)
        assert res.p_value == pytest.approx(stats.chi2.sf(4.0 / 6.0, 2), abs=1e-12)

    def test_matches_scipy_on_noise(self):
        rng = np.random.default_rng(29)
        e = rng.normal(size=500)
        res = jarque_bera(e)
        ref = stats.jarque_bera(e)
        assert res.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_heavy_tails_rejected(self):
        rng = np.random.default_rng(30)
        e = rng.standard_t(df=2, size=2000)
        assert jarque_bera(e).reject_at_5pct

    def test_preconditions(self):
        with pytest.raises(ValueError):
            jarque_bera([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            jarque_bera([2.0, 2.0, 2.0, 2.0])


class TestBreuschGodfrey:
    @staticmethod
    def _fit_resid(values, y):
        X = dm(values, y)
        fit = fit_ols(X)
        from cinestat.linear_models import predict

        return X, y - predict(fit, X)

    def test_matches_statsmodels_convention_on_ar1_noise(self):
        # strongly autocorrelated residuals must be detected
        rng = np.random.default_rng(37)
        n = 300
        e = np.zeros(n)
        for t in range(1, n):
            e[t] = 0.8 * e[t - 1] + rng.normal()
        values = rng.normal(size=(n, 2))
        y = values @ [1.0, -1.0] + e
        X, resid = self._fit_resid(values, y)
        res = breusch_godfrey(resid, X, lags=2)
        assert res.reject_at_5pct
        assert res.df == 2

    def test_white_noise_usually_accepted(self):
        rng = np.random.default_rng(38)
        n = 400
        values = rng.normal(size=(n, 2))
        y = values @ [1.0, 2.0] + rng.normal(size=n)
        X, resid = self._fit_resid(values, y)
        res = breusch_godfrey(resid, X, lags=3)
        assert res.p_value > 0.01

    def test_lm_statistic_is_n_times_r2(self):
        rng = np.random.default_rng(39)
        values = rng.normal(size=(60, 1))
        y = values[:, 0] + rng.normal(size=60)
        X, resid = self._fit_resid(values, y)
        res = breusch_godfrey(resid, X, lags=1)
        # recompute the auxiliary regression by hand
        lagged = np.zeros((60, 1))
        lagged[1:, 0] = resid[:-1]
        aux = np.column_stack([np.ones(60), values, lagged])
        beta, *_ = np.linalg.lstsq(aux, resid, rcond=None)
        fitted = aux @ beta
        r2 = 1.0 - np.sum((resid - fitted) ** 2) / np.sum((resid - resid.mean()) ** 2)
        assert res.statistic == pytest.approx(60 * r2, abs=1e-8)

    def test_too_many_lags(self):
        with pytest.raises(ValueError):
            breusch_godfrey(np.zeros(5), dm(np.ones((5, 2)), np.zeros(5)), lags=3)


class TestFStatistic:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(43)
        values = rng.normal(size=(50, 3))
        y = values @ [1.0, 0.5, -0.5] + rng.normal(size=50)
        X = dm(values, y)
        fit = fit_ols(X)
        res = f_statistic(fit, X)
        from cinestat.linear_models import predict

        fitted = predict(fit, X)
        r2 = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)
        ref = (r2 / 3) / ((1 - r2) / (50 - 3 - 1))
        assert res.statistic == pytest.approx(ref)
        assert res.p_value == pytest.approx(stats.f.sf(ref, 3, 46), abs=1e-12)

    def test_perfect_fit_infinite(self):
        values = np.arange(8.0).reshape(-1, 1)
        X = dm(values, 2.0 * values[:, 0] + 1.0)
        res = f_statistic(fit_ols(X), X)
        assert math.isinf(res.statistic)
        assert res.p_value == 0.0

    def test_pure_noise_insignificant(self):
        rng = np.random.default_rng(44)
        values = rng.normal(size=(200, 2))
        X = dm(values, rng.normal(size=200))
        assert f_statistic(fit_ols(X), X).p_value > 0.001


class TestWald:
    def test_statistic_definition(self):
        rng = np.random.default_rng(47)
        values = rng.normal(size=(300, 2))
        eta = 1.0 + values[:, 0]
        y = (rng.uniform(size=300) < 1 / (1 + np.exp(-eta))).astype(float)
        fit = fit_logistic(dm(values, y))
        results = wald_test(fit)
        assert [r.name for r in results] == ["wald[const]", "wald[x0]", "wald[x1]"]
        betas = [fit.intercept, *fit.coefficients]
        for r, b, se in zip(results, betas, fit.standard_errors):
            assert r.statistic == pytest.approx((b / se) ** 2)
            assert r.p_value == pytest.approx(stats.chi2.sf(r.statistic, 1), abs=1e-12)

    def test_informative_coefficient_significant(self):
        rng = np.random.default_rng(48)
        values = rng.normal(size=(500, 2))
        eta = 2.0 * values[:, 0]
        y = (rng.uniform(size=500) < 1 / (1 + np.exp(-eta))).astype(float)
        results = wald_test(fit_logistic(dm(values, y)))
        assert results[1].reject_at_5pct  # x0 drives the outcome
        assert not results[2].reject_at_5pct  # x1 is noise

    def test_unconverged_rejected(self):
        from cinestat.linear_models import LogisticFit

        fit = LogisticFit(0.0, ["a"], np.array([1.0]), np.array([1.0, 1.0]), False, 5)
        with pytest.raises(ValueError):
            wald_test(fit)


class TestSilhouette:
    def test_two_tight_far_clusters_near_one(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        s = silhouette(X, [0, 0, 1, 1])
        assert s > 0.95

    def test_hand_computed_three_points(self):
        # points 0,1 in cluster A at x=0,1; point 2 in cluster B at x=3.
        # point0: a=1, b=3 -> (3-1)/3; point1: a=1, b=2 -> 1/2; singleton -> 0
        s = silhouette(np.array([[0.0], [1.0], [3.0]]), [0, 0, 1])
        assert s == pytest.approx((2.0 / 3.0 + 0.5 + 0.0) / 3.0, abs=1e-12)

    def test_matches_sklearn_style_reference(self):
        rng = np.random.default_rng(53)
        X = np.vstack([rng.normal(0, 1, (20, 3)), rng.normal(6, 1, (25, 3))])
        labels = np.array([0] * 20 + [1] * 25)
        # independent reference computation
        d = np.sqrt(((X[:, None] - X[None]) ** 2).sum(-1))
        vals = []
        for i in range(45):
            own = labels == labels[i]
            a = d[i, own].sum() / (own.sum() - 1)
            b = d[i, ~own].mean()
            vals.append((b - a) / max(a, b))
        assert silhouette(X, labels) == pytest.approx(np.mean(vals), abs=1e-12)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError):
            silhouette(np.eye(3), [1, 1, 1])

    def test_equals_dense_distance_matrix_reference(self):
        # the per-row distances must give the float result of the full
        # n x n x p tensor exactly, singleton class included
        rng = np.random.default_rng(8)
        X = rng.normal(size=(61, 10))
        labels = np.array([0] * 20 + [1] * 25 + [2] * 15 + [3])
        rng.shuffle(labels)
        d = np.sqrt(((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2))
        masks = {u: labels == u for u in np.unique(labels)}
        scores = np.zeros(len(X))
        for i in range(len(X)):
            own = masks[labels[i]]
            if own.sum() == 1:
                continue
            a = d[i, own].sum() / (own.sum() - 1)
            b = min(d[i, m].mean() for u, m in masks.items() if u != labels[i])
            scores[i] = (b - a) / max(a, b)
        assert silhouette(X, labels) == float(scores.mean())

    def test_memory_below_quadratic(self):
        n, p = 2000, 3
        X = np.random.default_rng(9).normal(size=(n, p))
        labels = np.arange(n) % 3
        tracemalloc.start()
        try:
            silhouette(X, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 4


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_reversed_ranking(self):
        assert roc_auc([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_ties_give_half(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)

    def test_matches_mann_whitney(self):
        rng = np.random.default_rng(59)
        scores = rng.normal(size=200)
        y = (rng.uniform(size=200) < 0.4).astype(int)
        u = stats.mannwhitneyu(scores[y == 1], scores[y == 0]).statistic
        ref = u / ((y == 1).sum() * (y == 0).sum())
        assert roc_auc(scores, y) == pytest.approx(ref, abs=1e-12)

    def test_one_class_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([0.1, 0.9], [1, 1])


class TestConfusionJaccard:
    def test_confusion_counts(self):
        conf, acc = confusion_and_accuracy([0, 1, 2, 2], [0, 1, 1, 2])
        assert conf[1, 2] == 1
        assert acc == pytest.approx(0.75)
        assert conf.sum() == 4

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_and_accuracy([0], [0, 1])

    @pytest.mark.parametrize("predicted,truth", [([-1], [2]), ([3], [0]), ([0], [-1]), ([1], [3])])
    def test_label_outside_the_classes_rejected(self, predicted, truth):
        # -1 would index the Hit column and 3 * t + p would alias cells
        with pytest.raises(ValueError):
            confusion_and_accuracy(predicted, truth)

    def test_jaccard_hand_values(self):
        assert jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1.0 / 3.0)
        assert jaccard({"a"}, {"a"}) == 1.0
        assert jaccard({"a"}, {"b"}) == 0.0
        with pytest.raises(ValueError):
            jaccard(set(), set())

    @given(
        st.sets(st.sampled_from("abcdefgh")),
        st.sets(st.sampled_from("abcdefgh")),
    )
    def test_jaccard_bounds_and_symmetry(self, a, b):
        if not a and not b:
            return
        j = jaccard(a, b)
        assert 0.0 <= j <= 1.0
        assert j == jaccard(b, a)


class TestRegressionValidity:
    @staticmethod
    def _results(jb_p=0.5, lm_p=0.5, f_p=0.001, dw=2.0):
        return (
            StatTestResult("f", 10.0, p_value=f_p),
            StatTestResult("dw", dw),
            StatTestResult("jb", 1.0, p_value=jb_p),
            StatTestResult("lm", 1.0, p_value=lm_p),
        )

    def test_all_pass(self):
        ok, reasons = regression_validity(*self._results())
        assert ok and reasons == []

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            ({"jb_p": 0.01}, "Jarque-Bera"),
            ({"lm_p": 0.01}, "LM"),
            ({"f_p": 0.5}, "F"),
            ({"dw": 1.0}, "Durbin-Watson"),
            ({"dw": 2.6}, "Durbin-Watson"),
        ],
    )
    def test_each_rule_fires(self, kwargs, fragment):
        ok, reasons = regression_validity(*self._results(**kwargs))
        assert not ok
        assert any(fragment in r for r in reasons)

    def test_multiple_reasons_accumulate(self):
        ok, reasons = regression_validity(*self._results(jb_p=0.0, dw=3.0))
        assert not ok and len(reasons) == 2
