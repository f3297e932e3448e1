import dataclasses
import datetime
import math
import re
import types

import numpy as np
import pytest
from scipy import linalg as sla
from scipy import optimize, signal, stats

from cinestat.statespace import (
    GAIN_TOLERANCE,
    MAX_EVALUATIONS,
    FitError,
    SarimaxFit,
    SarimaxSpec,
    bfgs,
    build_state_space,
    concentrated_loglik,
    difference,
    expand_polynomials,
    initial_covariance,
    kalman_filter,
    model_from_parameters,
    sarimax_fit,
    sarimax_forecast,
    stationary_covariance,
    _pacf_to_coeffs,
)
from cinestat import timeseries
from cinestat.timeseries import (
    TimeSeries,
    _adf_p_value,
    acf,
    adf_test,
    aggregate_monthly,
    forecast,
    future_months,
    ljung_box,
    sarimax_grid_search,
)


def ar1_series(phi=0.7, n=400, seed=0, mu=0.0, sigma=1.0):
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + rng.normal(0, sigma)
    return y + mu


class TestSpec:
    def test_param_counting(self):
        spec = SarimaxSpec((1, 0, 1), (1, 0, 1, 12), ("a", "b"))
        # mean + 2 exog + p + q + P + Q + sigma2
        assert spec.n_params == 1 + 2 + 4 + 1
        assert spec.includes_mean

    def test_differenced_spec_drops_mean(self):
        spec = SarimaxSpec((1, 1, 0))
        assert not spec.includes_mean
        assert spec.n_params == 1 + 1  # ar1 + sigma2

    def test_invalid_orders(self):
        with pytest.raises(ValueError):
            SarimaxSpec((-1, 0, 0))
        with pytest.raises(ValueError):
            SarimaxSpec((0, 2, 0), (0, 1, 0, 12))
        with pytest.raises(ValueError):
            SarimaxSpec((0, 0, 0), (0, 0, 0, 0))


class TestPolynomials:
    def test_pacf_map_single(self):
        np.testing.assert_allclose(_pacf_to_coeffs(np.array([0.5])), [0.5])

    def test_pacf_map_always_stationary(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            r = rng.uniform(-0.99, 0.99, size=rng.integers(1, 5))
            a = _pacf_to_coeffs(r)
            # companion characteristic roots must lie inside the unit circle
            roots = np.roots(np.r_[1.0, -a])
            assert np.all(np.abs(roots) < 1.0 + 1e-8)

    def test_expand_hand_case(self):
        # (1 - 0.5B)(1 - 0.3B^2) = 1 - 0.5B - 0.3B^2 + 0.15B^3
        a, m = expand_polynomials([0.5], [0.3], [0.4], [0.2], s=2)
        np.testing.assert_allclose(a, [0.5, 0.3, -0.15], atol=1e-12)
        # (1 + 0.4B)(1 + 0.2B^2) = 1 + 0.4B + 0.2B^2 + 0.08B^3
        np.testing.assert_allclose(m, [0.4, 0.2, 0.08], atol=1e-12)

    def test_no_seasonal_passthrough(self):
        a, m = expand_polynomials([0.7], [], [-0.3], [], s=12)
        np.testing.assert_allclose(a, [0.7])
        np.testing.assert_allclose(m, [-0.3])


class TestStateSpace:
    def test_companion_shape_ar2(self):
        T, R = build_state_space(np.array([0.5, -0.2]), np.array([]))
        np.testing.assert_allclose(T, [[0.5, 1.0], [-0.2, 0.0]])
        np.testing.assert_allclose(R, [1.0, 0.0])

    def test_stationary_covariance_matches_direct_solve(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = _pacf_to_coeffs(rng.uniform(-0.9, 0.9, size=rng.integers(1, 4)))
            m = rng.uniform(-0.8, 0.8, size=rng.integers(0, 3))
            T, R = build_state_space(a, m)
            P = stationary_covariance(T, R)
            assert P is not None
            ref = sla.solve_discrete_lyapunov(T, np.outer(R, R))
            np.testing.assert_allclose(P, ref, atol=1e-9)

    def test_unstable_transition_returns_none(self):
        T = np.array([[1.5]])
        assert stationary_covariance(T, np.array([1.0])) is None
        P0 = initial_covariance(T, np.array([1.0]))
        assert P0[0, 0] == pytest.approx(1e7)

    def test_ar1_stationary_variance(self):
        T, R = build_state_space(np.array([0.8]), np.array([]))
        P = stationary_covariance(T, R)
        assert P[0, 0] == pytest.approx(1.0 / (1.0 - 0.64), rel=1e-10)


class TestKalmanExactness:
    @staticmethod
    def _joint_covariance(T, R, P0, n):
        """Brute-force Cov(y_1..y_n) in unit-innovation-variance units."""
        r = T.shape[0]
        RR = np.outer(R, R)
        S = [P0]
        for _ in range(n - 1):
            S.append(T @ S[-1] @ T.T + RR)
        Sigma = np.empty((n, n))
        for t in range(n):
            Sigma[t, t] = S[t][0, 0]
            M = S[t]
            for u in range(t + 1, n):
                M = T @ M  # builds T^{u-t} S_t
                Sigma[u, t] = Sigma[t, u] = M[0, 0]
        return Sigma

    def test_loglik_matches_multivariate_normal(self):
        # the filtered likelihood must equal the direct joint-Gaussian density
        rng = np.random.default_rng(11)
        for a_coefs, m_coefs in [([0.6], []), ([0.5], [0.3]), ([0.4, -0.2], [0.25])]:
            T, R = build_state_space(np.array(a_coefs), np.array(m_coefs))
            P0 = initial_covariance(T, R)
            n = 6
            z = rng.normal(size=n)
            v, F, _, _ = kalman_filter(z, T, R)
            sigma2 = 1.3
            ll_filter = (
                -0.5 * n * math.log(2 * math.pi * sigma2)
                - 0.5 * float(np.sum(np.log(F)))
                - 0.5 / sigma2 * float(np.sum(v * v / F))
            )
            Sigma = self._joint_covariance(T, R, P0, n)
            ll_direct = stats.multivariate_normal(np.zeros(n), sigma2 * Sigma).logpdf(z)
            assert ll_filter == pytest.approx(ll_direct, abs=1e-8)

    def test_white_noise_closed_form(self):
        # no dynamics: the concentrated likelihood is the iid Gaussian one
        rng = np.random.default_rng(13)
        z = rng.normal(size=50)
        zc = z - z.mean()
        T, R = build_state_space(np.zeros(0), np.zeros(0))
        ll, sigma2, *_ = concentrated_loglik(zc, T, R)
        s2 = float(np.mean(zc**2))
        ref = -0.5 * 50 * (math.log(2 * math.pi) + 1.0 + math.log(s2))
        assert sigma2 == pytest.approx(s2, rel=1e-10)
        assert ll == pytest.approx(ref, abs=1e-6)

    @staticmethod
    def _freeze_step(T, R):
        """One past the Riccati step at which the covariance stops changing:
        the first step of the filter's steady phase when the MA part is
        invertible."""
        P = initial_covariance(T, R)
        RR = np.outer(R, R)
        for t in range(10_000):
            K = P[:, 0] / P[0, 0]
            P_next = T @ (P - np.outer(K, P[0, :])) @ T.T + RR
            if np.max(np.abs(P_next - P)) < 1e-12 * (1.0 + np.max(np.abs(P_next))):
                return t + 1
            P = P_next
        raise AssertionError("the covariance recursion never fixed")

    @pytest.mark.parametrize(
        "a_coefs, m_coefs, length, diffuse",
        [
            pytest.param([0.7], [0.2], lambda s: 300, False, id="arma11"),
            # (1,0,0)(1,0,0)12: r = 13 and no MA lag
            pytest.param(
                *expand_polynomials(ar=[0.5], seasonal_ar=[0.4], ma=[], seasonal_ma=[], s=12),
                lambda s: 300,
                False,
                id="ar_sar12",
            ),
            # (1,0,0)(0,0,1)12: the one MA lag is 12
            pytest.param(
                *expand_polynomials(ar=[0.5], seasonal_ar=[], ma=[], seasonal_ma=[0.6], s=12),
                lambda s: s + 100,
                False,
                id="ar_sma12",
            ),
            # (0,0,1)(0,0,1)12: MA lags 1, 12 and 13, r = 14
            pytest.param(
                *expand_polynomials(ar=[], seasonal_ar=[], ma=[0.4], seasonal_ma=[0.5], s=12),
                lambda s: s + 100,
                False,
                id="ma_sma12",
            ),
            # a unit root: no stationary covariance, so the start is diffuse
            pytest.param([1.0], [0.3], lambda s: 300, True, id="unit_root_diffuse"),
            # a non-invertible MA part: the gain settles away from R, so the
            # Riccati recursion runs to the end
            pytest.param([0.5], [2.0], lambda s: 300, False, id="noninvertible_ma"),
            # the same with r = 3: the gain's last entry reaches R[-1] = 0,
            # while its MA entry settles away from R[1]
            pytest.param([0.5, 0.2, 0.1], [2.0], lambda s: 300, False, id="noninvertible_ma_last_gain_at_r"),
            # (2,0,1)(1,0,1)12: a steady phase of 13 steps, one short of
            # r = 14, that AR lags 1, 2 and 12 reach into; a_s[13] carries
            # over into the returned state
            pytest.param(
                *expand_polynomials(ar=[0.5, 0.2], seasonal_ar=[0.4], ma=[0.4], seasonal_ma=[0.5], s=12),
                lambda s: s + 13,
                False,
                id="short_steady_phase",
            ),
            pytest.param([0.7], [0.6], lambda s: s - 3, False, id="ends_before_freeze"),
            pytest.param([0.7], [0.6], lambda s: s, False, id="freeze_at_last_observation"),
            pytest.param([0.7], [0.6], lambda s: s + 1, False, id="last_observation_steady"),
        ],
    )
    def test_steady_state_freeze_harmless(self, a_coefs, m_coefs, length, diffuse):
        # the steady phase must agree with a no-freeze reference recursion
        T, R = build_state_space(np.asarray(a_coefs, dtype=float), np.asarray(m_coefs, dtype=float))
        P0 = initial_covariance(T, R)
        assert (stationary_covariance(T, R) is None) == diffuse
        s = self._freeze_step(T, R)
        n = length(s)
        assert n > 0
        rng = np.random.default_rng(17)
        z = rng.normal(size=n)
        v, F, a_next, P_next = kalman_filter(z, T, R)
        # reference: plain recursion without freezing; s_ref is the first
        # step at which it meets both freeze criteria (n if none)
        a = np.zeros(T.shape[0])
        P = P0.copy()
        RR = np.outer(R, R)
        v_ref = np.empty(n)
        F_ref = np.empty(n)
        s_ref = n
        for t in range(n):
            v_ref[t] = z[t] - a[0]
            F_ref[t] = P[0, 0]
            K = P[:, 0] / F_ref[t]
            a = T @ (a + K * v_ref[t])
            P_new = T @ (P - np.outer(K, P[0, :])) @ T.T + RR
            fixed = np.max(np.abs(P_new - P)) < 1e-12 * (1.0 + np.max(np.abs(P_new)))
            if s_ref == n and fixed and np.max(np.abs(K - R)) < GAIN_TOLERANCE:
                s_ref, P_frozen = t + 1, P_new
            P = P_new
        if s_ref == n:
            P_frozen = P
        # until it freezes the filter is this recursion bit for bit, and it
        # freezes at s_ref: F holds that step's covariance from there on,
        # and that covariance is the one returned
        np.testing.assert_array_equal(v[:s_ref], v_ref[:s_ref])
        np.testing.assert_array_equal(F[:s_ref], F_ref[:s_ref])
        np.testing.assert_array_equal(F[s_ref:], P_frozen[0, 0])
        np.testing.assert_array_equal(P_next, P_frozen)
        np.testing.assert_allclose(v, v_ref, rtol=0, atol=1e-8)
        np.testing.assert_allclose(F, F_ref, rtol=0, atol=1e-8)
        np.testing.assert_allclose(a_next, a, rtol=0, atol=1e-8)
        np.testing.assert_allclose(P_next, P, rtol=0, atol=1e-8)


class TestDifferencing:
    def test_no_differencing_identity(self):
        y = np.arange(10.0)
        np.testing.assert_array_equal(difference(y, 0, 0, 12), y)


class TestSarimaxFit:
    def test_white_noise_spec_matches_closed_form(self):
        rng = np.random.default_rng(23)
        y = rng.normal(5.0, 2.0, size=80)
        fit = sarimax_fit(y, SarimaxSpec((0, 0, 0)))
        assert fit.mean == pytest.approx(y.mean(), abs=1e-4)
        assert fit.sigma2 == pytest.approx(np.mean((y - y.mean()) ** 2), rel=1e-3)
        s2 = float(np.mean((y - y.mean()) ** 2))
        ref_ll = -0.5 * 80 * (math.log(2 * math.pi) + 1.0 + math.log(s2))
        assert fit.log_likelihood == pytest.approx(ref_ll, abs=1e-6)

    def test_ar1_parameter_recovery(self):
        y = ar1_series(phi=0.7, n=400, seed=29)
        fit = sarimax_fit(y, SarimaxSpec((1, 0, 0)))
        assert fit.ar[0] == pytest.approx(0.7, abs=0.05)
        assert fit.sigma2 == pytest.approx(1.0, abs=0.15)

    def test_information_criteria_identities(self):
        y = ar1_series(n=120, seed=31)
        fit = sarimax_fit(y, SarimaxSpec((1, 0, 0)))
        k, n, ll = fit.spec.n_params, fit.nobs, fit.log_likelihood
        assert fit.aic == pytest.approx(2 * k - 2 * ll, abs=1e-10)
        assert fit.bic == pytest.approx(k * math.log(n) - 2 * ll, abs=1e-10)
        assert fit.hqic == pytest.approx(2 * k * math.log(math.log(n)) - 2 * ll, abs=1e-10)

    def test_residuals_standardized(self):
        y = ar1_series(n=300, seed=37)
        fit = sarimax_fit(y, SarimaxSpec((1, 0, 0)))
        assert np.std(fit.residuals) == pytest.approx(1.0, abs=0.15)
        assert ljung_box(fit.residuals, lags=10).p_value > 0.01

    def test_exogenous_coefficient_recovery(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=150)
        y = 3.0 + 2.5 * x + rng.normal(0, 0.5, size=150)
        spec = SarimaxSpec((0, 0, 0), exog_names=("x",))
        fit = sarimax_fit(y, spec, exog=x.reshape(-1, 1))
        assert fit.exog_coef[0] == pytest.approx(2.5, abs=0.1)
        assert fit.parameter_dict()["beta[x]"] == pytest.approx(2.5, abs=0.1)

    def test_missing_exog_rejected(self):
        with pytest.raises(ValueError):
            sarimax_fit(np.zeros(50), SarimaxSpec((0, 0, 0), exog_names=("x",)))

    def test_misshaped_exog_rejected(self):
        # a reshape would take a transposed (k, n) exog and fit the scrambled
        # values; only (n, k), or a length-n vector when k is 1, is accepted
        rng = np.random.default_rng(43)
        n, horizon = 120, 6
        X = rng.normal(size=(n + horizon, 2))
        y = 1.0 + X[:n] @ np.array([2.0, -1.2]) + rng.normal(0, 0.3, size=n)
        spec = SarimaxSpec((0, 0, 0), exog_names=("a", "b"))
        for bad in (X[:n].T, X[:n].ravel(), X[:n, :1]):
            with pytest.raises(ValueError, match=rf"shape {re.escape(str(bad.shape))}; expected \({n}, 2\)"):
                sarimax_fit(y, spec, exog=bad)
        fit = sarimax_fit(y, spec, exog=X[:n])
        np.testing.assert_allclose(fit.exog_coef, [2.0, -1.2], atol=0.1)
        for bad in (X[n:].T, X[n:].ravel()):
            with pytest.raises(ValueError, match=rf"future_exog has shape .*; expected \({horizon}, 2\)"):
                sarimax_forecast(fit, horizon, future_exog=bad)
        assert sarimax_forecast(fit, horizon, future_exog=X[n:])[0].shape == (horizon,)

        one = SarimaxSpec((0, 0, 0), exog_names=("a",))
        vector_fit = sarimax_fit(y, one, exog=X[:n, 0])
        column_fit = sarimax_fit(y, one, exog=X[:n, :1])
        assert vector_fit.log_likelihood == column_fit.log_likelihood
        np.testing.assert_array_equal(
            sarimax_forecast(vector_fit, horizon, future_exog=X[n:, 0])[0],
            sarimax_forecast(column_fit, horizon, future_exog=X[n:, :1])[0],
        )
        with pytest.raises(ValueError, match=rf"shape \(1, {n}\); expected \({n}, 1\)"):
            sarimax_fit(y, one, exog=X[:n, :1].T)

    def test_too_short_series(self):
        with pytest.raises(FitError):
            sarimax_fit(np.arange(4.0), SarimaxSpec((1, 0, 0)))

    def test_stationarity_enforced(self):
        # a near-unit-root sample still yields |phi| < 1
        rng = np.random.default_rng(43)
        y = np.cumsum(rng.normal(size=150))
        fit = sarimax_fit(y, SarimaxSpec((1, 0, 0)))
        assert abs(fit.ar[0]) < 1.0


def counted(f):
    """f as ``bfgs`` takes it, returning its value and a copy of the point,
    plus a list holding the number of times it was called."""
    calls = [0]

    def wrapped(x):
        calls[0] += 1
        return f(x), x.copy()

    return wrapped, calls


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


class TestBfgs:
    def test_quadratic(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5))
        A = M @ M.T + 0.5 * np.eye(5)
        c = rng.normal(size=5)
        f, _ = counted(lambda x: float((x - c) @ A @ (x - c)))
        x, at, converged = bfgs(f, np.zeros(5), MAX_EVALUATIONS)
        assert converged and at.tobytes() == x.tobytes()
        np.testing.assert_allclose(x, c, atol=1e-4 / 0.5)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], [-1.2, 1.0, -0.5, 0.3]])
    def test_rosenbrock(self, x0):
        f, calls = counted(rosenbrock)
        x, at, converged = bfgs(f, np.array(x0), MAX_EVALUATIONS)
        assert converged and calls[0] < 500
        assert at.tobytes() == x.tobytes()  # the info of the evaluation at x
        np.testing.assert_allclose(x, 1.0, atol=1e-4)

    def test_evaluation_cap(self):
        # the cap is tested before each trial point, so the gradient there,
        # k = 2 evaluations, may run past it
        for cap in (1, 2, 10, 50):
            f, calls = counted(rosenbrock)
            x, at, converged = bfgs(f, np.array([-1.2, 1.0]), cap)
            assert not converged and calls[0] <= cap + 2
            assert at.tobytes() == x.tobytes()

    def test_kink_stops_on_a_failed_line_search(self):
        # |x| has no point where the gradient test holds; the line search
        # runs out of trials next to the kink, long before the cap
        f, calls = counted(lambda x: abs(x[0] - 0.3))
        x, at, converged = bfgs(f, np.zeros(1), MAX_EVALUATIONS)
        assert not converged and calls[0] < 500
        assert at.tobytes() == x.tobytes()
        assert x[0] == pytest.approx(0.3, abs=1e-6)

    def test_no_parameters(self):
        f, calls = counted(lambda x: 1.0)
        x, _, converged = bfgs(f, np.zeros(0), MAX_EVALUATIONS)
        assert converged and x.size == 0 and calls[0] == 1


class TestForecast:
    def test_white_noise_forecast_is_mean(self):
        rng = np.random.default_rng(47)
        y = rng.normal(10.0, 1.5, size=100)
        fit = sarimax_fit(y, SarimaxSpec((0, 0, 0)))
        point, intervals = sarimax_forecast(fit, 5)
        np.testing.assert_allclose(point, fit.mean, atol=1e-8)
        half = 1.96 * math.sqrt(fit.sigma2)
        np.testing.assert_allclose(intervals[:, 0], point - half, atol=1e-6)
        np.testing.assert_allclose(intervals[:, 1], point + half, atol=1e-6)

    def test_ar1_forecast_decays_to_mean(self):
        y = ar1_series(phi=0.8, n=400, seed=53, mu=5.0)
        fit = sarimax_fit(y, SarimaxSpec((1, 0, 0)))
        point, intervals = sarimax_forecast(fit, 40)
        gaps = np.abs(point - fit.mean)
        assert gaps[-1] < 0.05 * max(gaps[0], 1e-9) + 1e-6
        # interval width grows toward the stationary band
        widths = intervals[:, 1] - intervals[:, 0]
        assert np.all(np.diff(widths) > -1e-9)

    def test_random_walk_variance_linear_in_horizon(self):
        rng = np.random.default_rng(59)
        y = np.cumsum(rng.normal(size=200))
        fit = sarimax_fit(y, SarimaxSpec((0, 1, 0)))
        point, intervals = sarimax_forecast(fit, 6)
        np.testing.assert_allclose(point, y[-1], atol=1e-8)
        half = (intervals[:, 1] - intervals[:, 0]) / 2.0
        var = (half / 1.96) ** 2
        np.testing.assert_allclose(var, fit.sigma2 * np.arange(1, 7), rtol=1e-6)

    def test_horizon_zero_and_exog_validation(self):
        rng = np.random.default_rng(61)
        y = rng.normal(size=80)
        fit = sarimax_fit(y, SarimaxSpec((0, 0, 0)))
        point, intervals = sarimax_forecast(fit, 0)
        assert point.shape == (0,) and intervals.shape == (0, 2)
        with pytest.raises(ValueError):
            sarimax_forecast(fit, 3, future_exog=np.ones((3, 1)))

    def test_fit_needs_its_forecast_state(self):
        # a fit without the state the forecast reads fails where it is built
        fit = sarimax_fit(np.random.default_rng(67).normal(size=80), SarimaxSpec((0, 0, 0)))
        fields = {f.name: getattr(fit, f.name) for f in dataclasses.fields(fit) if f.name != "_tail"}
        with pytest.raises(TypeError, match="_tail"):
            SarimaxFit(**fields)


def lag_polynomial(coeffs, step=1, sign=1.0):
    """1 + sign * (c_1 B^step + c_2 B^(2 step) + ...) as a coefficient array."""
    poly = np.zeros(step * len(coeffs) + 1)
    poly[0] = 1.0
    poly[step::step] = sign * np.asarray(coeffs, dtype=float)
    return poly


def sarima_polynomials(ar=(), ma=(), sar=(), sma=(), s=12):
    """The full AR and MA lag polynomials of a multiplicative seasonal ARMA,
    multiplied here without the library's expansion."""
    ar_poly = np.convolve(lag_polynomial(ar, 1, -1.0), lag_polynomial(sar, s, -1.0))
    ma_poly = np.convolve(lag_polynomial(ma, 1, 1.0), lag_polynomial(sma, s, 1.0))
    return ar_poly, ma_poly


def sarima_series(n, ar=(), ma=(), sar=(), sma=(), d=0, D=0, s=12, seed=0, burn=300):
    rng = np.random.default_rng(seed)
    ar_poly, ma_poly = sarima_polynomials(ar, ma, sar, sma, s)
    for _ in range(d):
        ar_poly = np.convolve(ar_poly, [1.0, -1.0])
    for _ in range(D):
        ar_poly = np.convolve(ar_poly, lag_polynomial([1.0], s, -1.0))
    return signal.lfilter(ma_poly, ar_poly, rng.normal(size=n + burn))[burn:]


class TestPublicFitPath:
    """Known parameters recovered, and the exact likelihood reproduced,
    through ``sarimax_fit`` and ``sarimax_forecast`` themselves."""

    def test_ma1_recovery(self):
        y = sarima_series(400, ma=[0.6], seed=131)
        fit = sarimax_fit(y, SarimaxSpec((0, 0, 1)))
        assert fit.ma[0] == pytest.approx(0.6, abs=0.1)
        assert fit.sigma2 == pytest.approx(1.0, abs=0.15)

    def test_arma11_recovery(self):
        y = sarima_series(400, ar=[0.5], ma=[0.4], seed=137)
        fit = sarimax_fit(y, SarimaxSpec((1, 0, 1)))
        assert fit.ar[0] == pytest.approx(0.5, abs=0.1)
        assert fit.ma[0] == pytest.approx(0.4, abs=0.1)

    def test_seasonal_ar1_recovery(self):
        y = sarima_series(400, sar=[0.7], seed=139)
        fit = sarimax_fit(y, SarimaxSpec((0, 0, 0), (1, 0, 0, 12)))
        # 400 months are only 33 seasonal cycles, hence the wider tolerance
        assert fit.seasonal_ar[0] == pytest.approx(0.7, abs=0.15)

    def test_airline_model_recovery(self):
        y = sarima_series(400, ma=[-0.4], sma=[-0.6], d=1, D=1, seed=149)
        fit = sarimax_fit(y, SarimaxSpec((0, 1, 1), (0, 1, 1, 12)))
        assert fit.ma[0] == pytest.approx(-0.4, abs=0.1)
        assert fit.seasonal_ma[0] == pytest.approx(-0.6, abs=0.15)

    @pytest.mark.parametrize("order, seasonal_order", [
        ((1, 0, 1), (1, 0, 0, 12)),
        ((0, 1, 1), (1, 0, 1, 12)),
        # state size 1, filtered in closed form: scale_run's and
        # forecast_long's shapes
        ((1, 0, 0), (0, 0, 0, 12)),
        ((1, 1, 0), (0, 0, 0, 12)),
    ])
    def test_loglik_matches_dense_gaussian(self, order, seasonal_order):
        # the reported log-likelihood must be the joint-Gaussian density of
        # the differenced, de-meaned series under the reported coefficients
        y = 20.0 + sarima_series(150, ar=[0.5], ma=[0.4], sar=[0.5], sma=[0.3], d=order[1], seed=151)
        fit = sarimax_fit(y, SarimaxSpec(order, seasonal_order), max_evaluations=300)
        w = np.diff(y, n=order[1]) - fit.mean
        n = w.shape[0]
        ar_poly, ma_poly = sarima_polynomials(
            fit.ar, fit.ma, fit.seasonal_ar, fit.seasonal_ma, seasonal_order[3]
        )
        impulse = np.zeros(20000)
        impulse[0] = 1.0
        psi = signal.lfilter(ma_poly, ar_poly, impulse)
        assert np.max(np.abs(psi[-200:])) < 1e-12
        gamma = np.array([psi[: psi.size - k] @ psi[k:] for k in range(n)])
        lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        dense = stats.multivariate_normal(np.zeros(n), fit.sigma2 * gamma[lags]).logpdf(w)
        assert fit.log_likelihood == pytest.approx(dense, abs=1e-8)

    @pytest.mark.parametrize("y, spec", [
        (5.0 + sarima_series(300, ar=[0.6], ma=[0.3], seed=11), SarimaxSpec((1, 0, 1))),
        (
            50.0 + sarima_series(240, ar=[0.4], sma=[-0.5], D=1, seed=13),
            SarimaxSpec((1, 0, 0), (0, 1, 1, 12)),
        ),
        (
            sarima_series(240, ar=[0.5], sar=[0.5], sma=[0.3], seed=17),
            SarimaxSpec((1, 0, 1), (1, 0, 1, 12)),
        ),
    ])
    def test_loglik_matches_scipy_bfgs(self, y, spec):
        # a test-only oracle: scipy's BFGS on the same likelihood from the
        # same start, the zero vector with the mean at the sample mean
        fit = sarimax_fit(y, spec)
        _, d, _ = spec.order
        _, D, _, s = spec.seasonal_order
        w = difference(y, d, D, s)

        def negloglik(zvec):
            mean, _, *_, T, R = model_from_parameters(zvec, spec)
            ll = concentrated_loglik(w - mean, T, R)[0]
            return -ll if math.isfinite(ll) else 1e12

        x0 = np.zeros(spec.n_params - 1)
        if spec.includes_mean:
            x0[0] = w.mean()
        ref = optimize.minimize(negloglik, x0, method="BFGS")
        assert fit.converged
        assert fit.log_likelihood == pytest.approx(-ref.fun, abs=1e-6)

    def test_differenced_exog_forecast(self):
        # y = 2 x + random walk, fit as (0,1,0) on x: forecasts must move with
        # the future regressor from the last observed level
        rng = np.random.default_rng(157)
        n, h = 300, 3
        x = np.cumsum(rng.normal(size=n + h))
        y = 2.0 * x + np.cumsum(rng.normal(0.0, 0.5, size=n + h))
        fit = sarimax_fit(y[:n], SarimaxSpec((0, 1, 0), exog_names=("x",)), exog=x[:n, None])
        point, intervals = sarimax_forecast(fit, h, future_exog=x[n:, None])
        expect = y[n - 1] + fit.exog_coef[0] * (x[n:] - x[n - 1])
        np.testing.assert_allclose(point, expect, atol=1e-8)
        truth = y[n - 1] + 2.0 * (x[n:] - x[n - 1])
        assert np.all(np.abs(point - truth) < intervals[:, 1] - point)


    @pytest.mark.parametrize("order, seasonal_order, exog", [
        ((1, 0, 1), (0, 0, 0, 12), True),
        ((1, 1, 0), (0, 0, 0, 12), True),
        ((0, 0, 1), (1, 1, 0, 12), True),
        ((0, 1, 1), (0, 1, 1, 12), True),
        # white noise differenced seasonally: the seasonal MA lands near -1,
        # so the gain never freezes and the state is not known exactly
        ((1, 0, 0), (0, 1, 1, 12), False),
    ])
    def test_forecast_matches_dense_gaussian(self, order, seasonal_order, exog):
        # the forecast and its 95% bounds must be the mean and spread of the
        # future given the observed series, by dense Gaussian conditioning of
        # the differenced series and integration of the future back
        rng = np.random.default_rng(163)
        n, h, s = 200, 30, seasonal_order[3]
        _, d, _ = order
        _, D, _, _ = seasonal_order
        if exog:
            x = np.cumsum(rng.normal(size=(n + h, 1)), axis=0)
            y = 20.0 + 1.5 * x[:n, 0] + sarima_series(n, ar=[0.5], ma=[0.4], sar=[0.3], sma=[0.3], d=d, D=D, seed=167)
        else:
            x = None
            y = 20.0 + np.tile(rng.normal(size=s), n // s + 1)[:n] + rng.normal(size=n)
        spec = SarimaxSpec(order, seasonal_order, ("x",) if exog else ())
        fit = sarimax_fit(y, spec, exog=None if x is None else x[:n], max_evaluations=300)
        point, intervals = sarimax_forecast(fit, h, future_exog=None if x is None else x[n:])
        if not exog:
            assert fit.seasonal_ma[0] < -0.9
            assert np.abs(fit._final_cov - np.outer(fit._R, fit._R)).max() > 1e-6

        diff_poly = np.array([1.0])
        for _ in range(d):
            diff_poly = np.convolve(diff_poly, [1.0, -1.0])
        for _ in range(D):
            diff_poly = np.convolve(diff_poly, lag_polynomial([1.0], s, -1.0))
        K = diff_poly.size - 1
        u = y - x[:n] @ fit.exog_coef if exog else y
        w = signal.lfilter(diff_poly, [1.0], u)[K:] - fit.mean
        m = w.size + h
        P0 = sla.solve_discrete_lyapunov(fit._T, np.outer(fit._R, fit._R))
        gamma = np.empty(m)
        M = P0
        for k in range(m):
            gamma[k] = M[0, 0]
            M = fit._T @ M
        lags = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
        cov = fit.sigma2 * gamma[lags]
        cho = sla.cho_factor(cov[: w.size, : w.size])
        cross = cov[w.size :, : w.size]
        w_mean = cross @ sla.cho_solve(cho, w) + fit.mean
        w_cov = cov[w.size :, w.size :] - cross @ sla.cho_solve(cho, cross.T)
        # u_t = w_t - sum_k diff_poly[k] u_{t-k}; the future's weights on w
        u_full = np.r_[u, np.zeros(h)]
        for j in range(h):
            u_full[n + j] = w_mean[j] - diff_poly[1:] @ u_full[n + j - K : n + j][::-1]
        impulse = np.zeros(h)
        impulse[0] = 1.0
        g = signal.lfilter([1.0], diff_poly, impulse)
        A = sla.toeplitz(g, np.zeros(h))
        expect = u_full[n:] + (x[n:] @ fit.exog_coef if exog else 0.0)
        half = 1.96 * np.sqrt(np.diag(A @ w_cov @ A.T))
        np.testing.assert_allclose(point, expect, rtol=1e-9, atol=0)
        np.testing.assert_allclose(intervals[:, 0], expect - half, rtol=1e-9, atol=0)
        np.testing.assert_allclose(intervals[:, 1], expect + half, rtol=1e-9, atol=0)


class TestMonthlyAggregation:
    @staticmethod
    def _records(tmp_path):
        from test_data_pipeline import make_row, write_csv
        from cinestat.data_pipeline import load_movies

        rows = [
            make_row(title="A", date="2000-01-05", meta=60),
            make_row(title="B", date="2000-01-20", meta=80),
            # February empty -> interpolated
            make_row(title="C", date="2000-03-10", meta=50),
        ]
        return load_movies(write_csv(tmp_path, rows)).records

    def test_mean_gap_and_counts(self, tmp_path):
        series = aggregate_monthly(self._records(tmp_path), exog_fields=("movie_count",))
        assert series.n == 3
        np.testing.assert_allclose(series.values, [70.0, 60.0, 50.0])
        np.testing.assert_array_equal(series.interpolated, [False, True, False])
        np.testing.assert_allclose(series.exog["movie_count"], [2.0, 0.0, 1.0])
        assert series.start == 2000 * 12
        assert series.months == [datetime.date(2000, m, 1) for m in (1, 2, 3)]

    def test_matches_per_month_reference(self, tmp_path):
        # rows in random month order with non-integer values and gaps: each
        # month's mean must be np.mean over its values in row order, and
        # each gap month one np.interp over the known months
        from test_data_pipeline import make_row, write_csv
        from cinestat.data_pipeline import load_movies

        rng = np.random.default_rng(5)
        rows = []
        for i in range(300):
            year, month = 2000 + int(rng.integers(0, 3)), int(rng.choice([1, 2, 4, 7, 8, 11, 12]))
            rows.append(make_row(
                title=f"M{i}", year=year, date=f"{year}-{month:02d}-{int(rng.integers(1, 29)):02d}",
                avg_vote=round(float(rng.uniform(1, 10)), 3), budget="" if rng.random() < 0.3 else float(rng.lognormal(15)),
                meta="N/A" if rng.random() < 0.1 else int(rng.integers(0, 101)),
            ))
        table = load_movies(write_csv(tmp_path, rows)).records
        fields = ("avg_vote", "budget", "movie_count")
        series = aggregate_monthly(table, exog_fields=fields)

        buckets = {}
        for i in range(len(table)):
            if not np.isnan(table.columns["metascore"][i]):
                buckets.setdefault(int(table.month[i]), []).append(i)
        full = list(range(min(buckets), max(buckets) + 1))
        assert series.start == full[0] and series.n == len(full)

        def reference(values_of):
            known = {m: float(np.mean(v)) for m, idx in buckets.items() if (v := values_of(idx))}
            ks = sorted(known)
            return [known[m] if m in known else np.interp(m, ks, [known[k] for k in ks]) for m in full]

        def column_values(name):
            return lambda idx: [table.columns[name][i] for i in idx if not np.isnan(table.columns[name][i])]

        np.testing.assert_array_equal(series.values, reference(column_values("metascore")))
        np.testing.assert_array_equal(series.interpolated, [m not in buckets for m in full])
        for name in ("avg_vote", "budget"):
            np.testing.assert_array_equal(series.exog[name], reference(column_values(name)))
        np.testing.assert_array_equal(series.exog["movie_count"], [len(buckets.get(m, [])) for m in full])
        assert series.interpolated.sum() > 10

    def test_no_usable_records(self, tmp_path):
        table = self._records(tmp_path)
        with pytest.raises(ValueError):
            aggregate_monthly(table.take(np.zeros(len(table), dtype=bool)))

    def test_timeseries_invariants(self):
        with pytest.raises(ValueError):
            TimeSeries(2000 * 12, np.zeros(2), exog={"x": np.zeros(3)})
        # a mask of another shape would drop months from the report's series
        for shape in [(3,), (2, 1)]:
            with pytest.raises(ValueError, match="interpolated"):
                TimeSeries(2000 * 12, np.zeros(2), interpolated=np.zeros(shape, dtype=bool))

    def test_leaves_the_callers_exog_untouched(self):
        column = [1, 2]
        exog = {"x": column}
        series = TimeSeries(2000 * 12, np.zeros(2), exog=exog)
        assert exog["x"] is column and exog == {"x": [1, 2]}
        assert series.exog["x"].dtype == float

    def test_future_months_rolls_over_year(self):
        series = TimeSeries(2019 * 12 + 10, np.zeros(2))
        assert series.months == [datetime.date(2019, 11, 1), datetime.date(2019, 12, 1)]
        assert future_months(series, 3) == [
            datetime.date(2020, 1, 1), datetime.date(2020, 2, 1), datetime.date(2020, 3, 1),
        ]


class TestAcfPacf:
    def test_acf_hand_case(self):
        # y = [1, 2, 3, 4]: centered [-1.5, -.5, .5, 1.5], denom = 5
        # lag1: (-1.5*-.5 + -.5*.5 + .5*1.5) = 1.25 -> 0.25
        rho = acf([1.0, 2.0, 3.0, 4.0], 2)
        assert rho[0] == 1.0
        assert rho[1] == pytest.approx(1.25 / 5.0)
        assert rho[2] == pytest.approx((-1.5 * 0.5 + -0.5 * 1.5) / 5.0)

    def test_acf_matches_correlate(self):
        rng = np.random.default_rng(67)
        y = rng.normal(size=120)
        yc = y - y.mean()
        full = np.correlate(yc, yc, mode="full")[119:]
        rho = acf(y, 10)
        np.testing.assert_allclose(rho, full[:11] / full[0], atol=1e-12)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            acf([1.0, 1.0, 1.0], 1)
        with pytest.raises(ValueError):
            acf([1.0, 2.0], 2)


class TestAdf:
    def test_p_value_interpolation_at_table_points(self):
        assert _adf_p_value(-3.43) == pytest.approx(0.01, rel=1e-9)
        assert _adf_p_value(-2.86) == pytest.approx(0.05, rel=1e-9)
        assert _adf_p_value(-2.57) == pytest.approx(0.10, rel=1e-9)

    def test_p_value_clamped(self):
        assert _adf_p_value(-50.0) == 1e-6
        assert _adf_p_value(50.0) == 0.999

    def test_stationary_series_rejects_unit_root(self):
        y = ar1_series(phi=0.3, n=300, seed=79)
        res = adf_test(y)
        assert res.reject_at_5pct
        assert res.statistic < -2.86

    def test_random_walk_keeps_unit_root(self):
        rng = np.random.default_rng(83)
        y = np.cumsum(rng.normal(size=300))
        res = adf_test(y)
        assert not res.reject_at_5pct

    def test_default_lag_rule(self):
        y = ar1_series(n=100, seed=89)
        res = adf_test(y)
        assert res.df == float(int(12 * (100 / 100) ** 0.25))

    def test_too_short(self):
        with pytest.raises(ValueError):
            adf_test(np.arange(10.0))


class TestLjungBox:
    def test_matches_hand_formula(self):
        rng = np.random.default_rng(101)
        e = rng.normal(size=80)
        res = ljung_box(e, lags=5)
        rho = acf(e, 5)
        q = 80 * 82 * sum(rho[k] ** 2 / (80 - k) for k in range(1, 6))
        assert res.statistic == pytest.approx(q, rel=1e-12)
        assert res.p_value == pytest.approx(stats.chi2.sf(q, 5), abs=1e-12)

    def test_autocorrelated_rejected(self):
        y = ar1_series(phi=0.8, n=300, seed=103)
        assert ljung_box(y, lags=10).reject_at_5pct

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            ljung_box(np.zeros(5), lags=5)


def make_series(values, start=2000 * 12, exog=None):
    return TimeSeries(start, np.asarray(values, dtype=float), exog=exog or {})


# (1,0,0) under each (d, D) in {0, 1}^2: states of size at most 2
DIFFERENCING_GRID = {"p": (1,), "d": (0, 1), "q": (0,), "P": (0,), "D": (0, 1), "Q": (0,)}


class TestGridSearch:
    def test_prefers_ar_on_ar_data(self):
        series = make_series(ar1_series(phi=0.8, n=150, seed=107))
        grid = {"p": (0, 1), "d": (0,), "q": (0,), "P": (0,), "D": (0,), "Q": (0,)}
        best = sarimax_grid_search(series, grid=grid, max_evaluations=200)
        assert best.spec.order == (1, 0, 0)

    def test_winner_has_minimum_aic(self):
        series = make_series(ar1_series(phi=0.5, n=120, seed=109))
        grid = {"p": (0, 1), "d": (0,), "q": (0, 1), "P": (0,), "D": (0,), "Q": (0,)}
        best = sarimax_grid_search(series, grid=grid, max_evaluations=200)
        aics = []
        for p in (0, 1):
            for q in (0, 1):
                fit = sarimax_fit(series.values, SarimaxSpec((p, 0, q)), max_evaluations=200)
                aics.append(fit.aic)
        assert best.aic == pytest.approx(min(aics), abs=1e-9)

    def test_selection_does_not_depend_on_units(self):
        # a D = 1 candidate scored from its own first differenced month
        # leaves out 12 months whose density depends on the units; on this
        # series that alone takes the choice from D = 0 to D = 1 at 10x
        x = np.random.default_rng(5).normal(size=120)
        y = ar1_series(phi=0.5, n=120, seed=0) + 0.5 * x
        keys = [
            sarimax_grid_search(make_series(c * y, exog={"x": c * x}), DIFFERENCING_GRID, ("x",)).spec.key()
            for c in (1.0, 10.0)
        ]
        assert keys[0] == keys[1] == (1, 0, 0, 0, 0, 0)

    def test_seasonal_random_walk_is_differenced_seasonally(self):
        # y_t = y_{t-12} + e_t over ten years, in metascore units
        steps = np.random.default_rng(7).normal(0.0, 10.0, size=(10, 12))
        y = 60.0 + np.cumsum(steps, axis=0).ravel()
        assert sarimax_grid_search(make_series(y), DIFFERENCING_GRID).spec.seasonal_order[1] == 1

    def test_stationary_series_is_not_differenced(self):
        # an AR(1) at 0.5 in metascore units: a simulation of 400 seeds
        # kept d = D = 0 in 96.5% of them (7.8% when each candidate was
        # scored from its own first differenced month), and at least 17 of
        # every 20 consecutive seeds
        kept = 0
        for seed in range(20):
            y = ar1_series(phi=0.5, n=120, seed=seed, mu=60.0, sigma=10.0)
            best = sarimax_grid_search(make_series(y), DIFFERENCING_GRID)
            kept += best.spec.order[1] == best.spec.seasonal_order[1] == 0
        assert kept >= 16

    def test_no_nested_inversion(self, monkeypatch):
        # a spec that contains another, with the same d and D and every order
        # at least as large, can reach every likelihood the smaller one can
        fits = []

        def recorded(*args, **kwargs):
            fits.append(sarimax_fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(timeseries, "sarimax_fit", recorded)
        y = sarima_series(96, ar=[0.5], ma=[0.4], sar=[0.6], seed=0)
        grid = {"p": (0, 1), "d": (0,), "q": (0, 1), "P": (0, 1), "D": (0,), "Q": (0, 1)}
        # on this series a Nelder-Mead simplex from zeros, at this cap,
        # leaves 6 nested pairs inverted
        sarimax_grid_search(make_series(y), grid, max_evaluations=300)
        inverted = [
            (big.spec.key(), small.spec.key())
            for big in fits
            for small in fits
            if big is not small
            and all(b >= a for b, a in zip(big.spec.key(), small.spec.key()))
            and big.log_likelihood < small.log_likelihood - 1e-8
        ]
        assert len(fits) == 16 and not inverted

    def test_ties_go_to_the_smallest_key(self, monkeypatch):
        # every fit with p = 1 ties at the lowest AIC; the lists are unsorted,
        # so only the search's own order can keep the smallest key
        def tied_fit(y, spec, **_):
            return types.SimpleNamespace(spec=spec, aic=1.0 if spec.order[0] == 1 else 2.0)

        monkeypatch.setattr(timeseries, "sarimax_fit", tied_fit)
        grid = {"p": [1, 0], "d": [1, 0], "q": [1, 0], "P": [0], "D": [1, 0], "Q": [1, 0]}
        best = sarimax_grid_search(make_series(np.zeros(40)), grid=grid)
        assert best.spec.key() == (1, 0, 0, 0, 0, 0)

    def test_all_failures_raise(self):
        series = make_series(np.arange(30.0))
        grid = {"p": (5,), "d": (0,), "q": (5,), "P": (1,), "D": (1,), "Q": (1,)}
        with pytest.raises(FitError):
            sarimax_grid_search(series, grid=grid)

    def test_forecast_wrapper(self):
        series = make_series(ar1_series(phi=0.6, n=100, seed=113, mu=50.0))
        fit = sarimax_fit(series.values, SarimaxSpec((1, 0, 0)), max_evaluations=300)
        point, intervals = forecast(fit, 12)
        assert point.shape == (12,)
        assert intervals.shape == (12, 2)
        assert np.all(intervals[:, 0] < point) and np.all(point < intervals[:, 1])
