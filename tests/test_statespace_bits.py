"""Bit-for-bit pins of the likelihood path: the model build, the Kalman
filter, the stationary covariance and the concentrated log-likelihood.

Each function is compared with a plain copy of its earlier form, kept here
as the reference: ``np.dot`` calls, the broadcast outer product, every scalar
read as a numpy scalar, the innovations written straight into the output
arrays, both lag polynomials multiplied by ``np.convolve`` and the sums
taken by ``np.sum``.  The cheaper calls of the package's version must give
the same bits on every output, over every (T, R) of the default SARIMAX grid
and over state sizes 2 to 14.  A state of size 1 is filtered in closed form
and checked against that form in exact rational arithmetic on the float
inputs instead.  A block of series filtered together gives each column the
bits of that series filtered alone.  ``sarimax_fit`` is pinned end to end by
the hashes of three fits, and its GLS profile of the mean and the exog
coefficients is checked against least squares and the plain likelihood.
"""

import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from cinestat.numerics import least_squares
from cinestat.statespace import (
    DIFFUSE_VARIANCE,
    GAIN_TOLERANCE,
    SEASONAL_PERIOD,
    FitError,
    SarimaxSpec,
    _pacf_to_coeffs,
    build_state_space,
    concentrated_loglik,
    difference,
    kalman_filter,
    model_from_parameters,
    sarimax_fit,
    stationary_covariance,
)


def reference_stationary_covariance(T, R):
    A = T.copy()
    P = np.outer(R, R)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):
            P_next = P + np.dot(np.dot(A, P), A.T)
            A = np.dot(A, A)
            if not np.isfinite(P_next).all():
                return None
            if np.abs(P_next - P).max() < 1e-14 * (1.0 + np.abs(P_next).max()):
                if np.abs(A).max() > 1e-6:
                    return None
                return P_next
            P = P_next
    return None


def reference_kalman_filter(z, T, R):
    """The filter's earlier form; returns its four outputs and the step at
    which the gain froze (n when it did not)."""
    r = T.shape[0]
    a = np.zeros(r)
    P = reference_stationary_covariance(T, R)
    if P is None:
        P = DIFFUSE_VARIANCE * np.eye(r)
    RR = np.outer(R, R)
    n = z.shape[0]
    v = np.empty(n)
    F = np.empty(n)
    s = n
    Tt = np.ascontiguousarray(T.T)
    R_last = float(R[-1])
    for t in range(n):
        vt = z[t] - a[0]
        v[t] = vt
        F[t] = P[0, 0]
        K = P[:, 0] / P[0, 0]
        a = np.dot(T, a + K * vt)
        P_next = np.dot(np.dot(T, P - K[:, None] * P[0, :]), Tt)
        P_next += RR
        frozen = (
            abs(K.item(-1) - R_last) < GAIN_TOLERANCE
            and np.abs(K - R).max() < GAIN_TOLERANCE
            and np.abs(P_next - P).max() < 1e-12 * (1.0 + np.abs(P_next).max())
        )
        P = P_next
        if frozen:
            s = t + 1
            break
    if s == n:
        return v, F, a, P, s

    F[s:] = P[0, 0]
    c = T[:, 0]
    steps = n - s
    e = z[s:].astype(float)
    e[: min(steps, r)] -= a[:steps]
    for k in np.flatnonzero(c[: steps - 1]) + 1:
        e[k:] -= c[k - 1] * z[s : n - k]
    ma = [(int(k), float(R[k])) for k in np.flatnonzero(R[1:]) + 1]
    if ma:
        depth = ma[-1][0]
        w = [0.0] * depth + e.tolist()
        for t in range(depth, depth + steps):
            acc = w[t]
            for k, m_k in ma:
                acc -= m_k * w[t - k]
            w[t] = acc
        v[s:] = w[depth:]
    else:
        v[s:] = e
    h = min(steps, r)
    m_next = np.zeros(r)
    m_next[:-1] = R[1:]
    a_next = (np.convolve(c, z[n - h :]) + np.convolve(m_next, v[n - h :]))[h - 1 : h - 1 + r]
    a_next[: r - h] += a[h:]
    return v, F, a_next, P, s


def reference_model_from_parameters(zvec, spec):
    """The model build's earlier form: both lag polynomials multiplied by
    ``np.convolve``, even by a factor 1, on numpy arrays throughout."""

    def to_coeffs(z):
        if not z.size:
            return np.zeros(0)
        r = z / np.sqrt(1.0 + z**2)
        a = np.zeros(0)
        for k, rk in enumerate(r, start=1):
            new = np.empty(k)
            new[k - 1] = rk
            if k > 1:
                new[: k - 1] = a - rk * a[::-1]
            a = new
        return a

    def product(coeffs, seasonal, s):
        poly = np.zeros(len(coeffs) + 1)
        poly[0] = 1.0
        poly[1:] = coeffs
        spoly = np.zeros(s * len(seasonal) + 1)
        spoly[0] = 1.0
        spoly[s::s] = seasonal
        return np.convolve(poly, spoly)[1:]

    p, _, q = spec.order
    P, _, Q, s = spec.seasonal_order
    k = 0
    mean = 0.0
    if spec.includes_mean:
        mean = float(zvec[k])
        k += 1
    nx = len(spec.exog_names)
    beta = np.asarray(zvec[k : k + nx], dtype=float)
    k += nx
    ar = to_coeffs(zvec[k : k + p]); k += p
    ma = -to_coeffs(zvec[k : k + q]); k += q
    sar = to_coeffs(zvec[k : k + P]); k += P
    sma = -to_coeffs(zvec[k : k + Q]); k += Q
    a = -product(np.negative(ar), np.negative(sar), s)
    m = product(ma, sma, s)
    r = max(len(a), len(m) + 1, 1)
    T = np.zeros((r, r))
    T[: len(a), 0] = a
    if r > 1:
        T[:-1, 1:] = np.eye(r - 1)
    R = np.zeros(r)
    R[0] = 1.0
    R[1 : 1 + len(m)] = m
    return mean, beta, ar, ma, sar, sma, T, R


def reference_concentrated_loglik(z, T, R):
    """The concentrated log-likelihood's earlier form, on the reference filter."""
    v, F, a, P, _ = reference_kalman_filter(z, T, R)
    n = z.shape[0]
    ssq = float(np.sum(v * v / F))
    sigma2 = ssq / n
    if sigma2 <= 0 or not np.isfinite(sigma2):
        return -np.inf, 0.0, v, F, a, P
    ll = -0.5 * n * (math.log(2.0 * math.pi) + 1.0) - 0.5 * n * math.log(sigma2) - 0.5 * float(
        np.sum(np.log(F))
    )
    return ll, sigma2, v, F, a, P


def default_grid_models():
    """(id, T, R) of every spec of the default grid, (p,d,q)(P,D,Q) each in
    {0, 1}, at seeded parameter draws from mild to near the unit circle."""
    rng = np.random.default_rng(43)
    out = []
    for p, d, q, P, D, Q in itertools.product((0, 1), repeat=6):
        spec = SarimaxSpec((p, d, q), (P, D, Q, SEASONAL_PERIOD))
        for scale in (0.5, 2.0, 8.0):
            zvec = rng.normal(scale=scale, size=spec.n_params - 1)
            *_, T, R = model_from_parameters(zvec, spec)
            out.append((f"{p}{d}{q}_{P}{D}{Q}_x{scale:g}", T, R))
    return out


GRID_MODELS = default_grid_models()


def arma_of_size(r, seed):
    """A stationary AR part of r lags and an invertible MA part of r - 1,
    the companion form of state size r."""
    rng = np.random.default_rng(seed)
    a = _pacf_to_coeffs(rng.uniform(-0.9, 0.9, size=r))
    m = -_pacf_to_coeffs(rng.uniform(-0.3, 0.3, size=r - 1))
    return build_state_space(a, m)


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.shape == y.shape
        np.testing.assert_array_equal(x, y)
        assert x.tobytes() == y.tobytes()  # also tells -0.0 from 0.0


def exact_stationary_variance(T, R):
    """R[0]^2 / (1 - T^2) of a state of size 1, exact in rationals."""
    t, R0 = Fraction(T.item(0)), Fraction(R.item(0))
    return R0 * R0 / (1 - t * t)


def assert_relative_error(got, exact, bound):
    assert abs(Fraction(got) - exact) <= Fraction(bound) * abs(exact)


def check_state_size_1(z, T, R):
    """The filter of a state of size 1 against its closed form, computed in
    rationals from the float inputs: v_0 = z_0 and F_0 = P_0, then for t > 0
    v_t = z_t - T z_{t-1} to within 2^-52 (|z_t| + |T z_{t-1}|), F_t = R[0]^2,
    and a_{n+1|n} = T z_{n-1}, P_{n+1|n} = R[0]^2."""
    v, F, a, P = kalman_filter(z, T, R)
    n = z.shape[0]
    assert v.shape == F.shape == (n,) and a.shape == (1,) and P.shape == (1, 1)
    t, R0 = Fraction(T.item(0)), Fraction(R.item(0))
    assert v[0] == z[0]
    if abs(t) < 1:
        assert_relative_error(F[0], exact_stationary_variance(T, R), 1e-15)
    else:
        assert F[0] == DIFFUSE_VARIANCE
    assert (F[1:] == float(R0 * R0)).all() and P.item(0) == float(R0 * R0)
    ulp = Fraction(2) ** -52
    zf = [Fraction(x) for x in z.tolist()]
    for vt, zt, lag in zip(v[1:].tolist(), zf[1:], zf):
        Tz = t * lag
        assert abs(Fraction(vt) - (zt - Tz)) <= ulp * (abs(zt) + abs(Tz))
    assert a.item(0) == float(t * zf[-1])


class TestStationaryCovarianceBits:
    @pytest.mark.parametrize("T, R", [m[1:] for m in GRID_MODELS], ids=[m[0] for m in GRID_MODELS])
    def test_default_grid(self, T, R):
        got = stationary_covariance(T, R)
        if T.shape[0] == 1:
            assert got.shape == (1, 1)
            assert_relative_error(got.item(0), exact_stationary_variance(T, R), 1e-15)
            return
        want = reference_stationary_covariance(T, R)
        assert want is not None
        assert_same_bits([got], [want])

    @pytest.mark.parametrize("phi", [1 - 1e-9, -(1 - 1e-9), 0.999, -0.999])
    def test_near_unit_root(self, phi):
        # near a unit root the rounding of an iterative solve shows: 35
        # rounded doublings are off by 1.8e-9 relative at 1 - 1e-9 and by
        # 8.6e-15 at 0.999, while (1 - phi)(1 + phi) rounds a few times
        T, R = build_state_space(np.array([phi]), np.array([]))
        got = stationary_covariance(T, R)
        assert got.shape == (1, 1)
        assert_relative_error(got.item(0), exact_stationary_variance(T, R), 1e-15)

    @pytest.mark.parametrize(
        "T, R",
        [
            pytest.param(*build_state_space(np.array([1.0]), np.array([0.3])), id="unit_root"),
            pytest.param(*build_state_space(np.array([0.5, 0.0, 0.0, 0.0, 0.0, 1.0]), np.array([])), id="seasonal_unit_root"),
            pytest.param(np.array([[1.5]]), np.array([1.0]), id="explosive"),
            pytest.param(np.array([[1.0e200]]), np.array([1.0]), id="overflow_at_first_step"),
            pytest.param(*build_state_space(np.array([1.02, 0.1]), np.array([0.4])), id="overflow_after_doublings"),
        ],
    )
    def test_unstable_transitions(self, T, R):
        assert stationary_covariance(T, R) is None
        assert reference_stationary_covariance(T, R) is None


class TestKalmanFilterBits:
    @staticmethod
    def check(z, T, R):
        """Compare the four outputs with the reference's bits, or at state
        size 1 with the exact closed form; returns the step from which the
        steady phase runs: the reference's freeze step, or 1 at state size
        1, where the first observation reveals the state."""
        if T.shape[0] == 1:
            check_state_size_1(z, T, R)
            return 1
        *want, s = reference_kalman_filter(z, T, R)
        assert_same_bits(kalman_filter(z, T, R), want)
        return s

    @pytest.mark.parametrize("T, R", [m[1:] for m in GRID_MODELS], ids=[m[0] for m in GRID_MODELS])
    def test_default_grid(self, T, R):
        z = np.random.default_rng(47).normal(size=150)
        self.check(z, T, R)

    @pytest.mark.parametrize("r", range(1, 15))
    def test_every_state_size(self, r):
        T, R = arma_of_size(r, seed=50 + r)
        z = np.random.default_rng(r).normal(size=400)
        s = self.check(z, T, R)
        assert s < 400  # an invertible MA part freezes the gain
        # series that end before the freeze, at it and just after it
        for n in {1, s - 1, s, s + 1} - {0}:
            assert self.check(z[:n], T, R) == min(s, n)

    @pytest.mark.parametrize(
        "T, R",
        [
            pytest.param(*build_state_space(np.array([1.0]), np.array([0.3])), id="diffuse_start"),
            pytest.param(*build_state_space(np.array([1.0]), np.array([])), id="diffuse_start_r1"),
            pytest.param(*build_state_space(np.array([1.5]), np.array([])), id="explosive_r1"),
            pytest.param(*build_state_space(np.array([0.5]), np.array([2.0])), id="noninvertible_ma"),
            pytest.param(
                *build_state_space(np.array([0.5] + [0.0] * 10 + [0.3, -0.15]), np.array([0.0] * 11 + [0.6])),
                id="seasonal_r13",
            ),
            # state size 1 off the model's R[0] = 1 or with a non-finite
            # transition
            pytest.param(np.array([[0.5]]), np.array([2.0]), id="loading_2_r1"),
            pytest.param(np.array([[0.5]]), np.array([0.0]), id="loading_0_r1"),
            pytest.param(np.array([[np.nan]]), np.array([1.0]), id="nan_transition_r1"),
            pytest.param(np.array([[np.inf]]), np.array([1.0]), id="inf_transition_r1"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # F = 0 and inf * 0
    def test_special_starts(self, T, R):
        z = np.random.default_rng(53).normal(size=300)
        finite = np.isfinite(T).all()
        if finite:
            self.check(z, T, R)
        if T.shape[0] == 1 and not (finite and R.item(0)):
            # a non-finite transition or a zero loading has no likelihood
            assert concentrated_loglik(z, T, R)[0] == -math.inf

    @pytest.mark.parametrize("p, d, D", list(itertools.product((0, 1), repeat=3)))
    def test_state_size_1_freezes_by_its_second_step(self, p, d, D):
        # every spec the model builds at state size 1, fed as sarimax_fit
        # feeds the filter, at 120 seeded draws up to |x| = 1e200: its gain
        # is P / P = 1, so the steady phase runs from the second step
        spec = SarimaxSpec((p, d, 0), (0, D, 0, SEASONAL_PERIOD), ("x1", "x2"))
        rng = np.random.default_rng(67 + 4 * p + 2 * d + D)
        y = rng.normal(size=150).cumsum()
        X = rng.normal(size=(150, 2))
        w, wx = difference(y, d, D, SEASONAL_PERIOD), difference(X, d, D, SEASONAL_PERIOD)
        size = spec.n_params - 1
        for _ in range(120):
            zvec = rng.uniform(-1.0, 1.0, size=size) * 10.0 ** rng.uniform(-3.0, 200.0, size=size)
            mean, beta, *_, T, R = model_from_parameters(zvec, spec)
            assert T.shape == (1, 1)
            z = w - mean - wx @ beta
            check_state_size_1(z, T, R)


class TestRiccatiMemo:
    """Calls in any order, with models changed in place and outputs written
    into, must each give the reference's bits: no call leaves state behind
    for the next."""

    @staticmethod
    def check(z, T, R):
        *want, _ = reference_kalman_filter(z, T, R)
        got = kalman_filter(z, T, R)
        assert_same_bits(got, want)
        return got

    def test_interleaved_models_and_series(self):
        A, B = arma_of_size(13, seed=71), arma_of_size(13, seed=72)
        rng = np.random.default_rng(73)
        z1, z2 = rng.normal(size=300), rng.normal(size=300)
        for z, model in [(z1, A), (z2, A), (z1, B), (z1, A), (z1, A), (z1[:200], A), (z1, A)]:
            self.check(z, *model)

    def test_model_changed_in_place(self):
        T, R = arma_of_size(13, seed=74)
        z = np.random.default_rng(75).normal(size=300)
        self.check(z, T, R)
        T[0, 0] *= 0.5  # same array objects, new model
        self.check(z, T, R)
        R[1] += 0.1
        self.check(z, T, R)

    def test_writes_into_the_outputs_leave_the_next_call_unchanged(self):
        T, R = arma_of_size(13, seed=76)
        rng = np.random.default_rng(77)
        for n in (300, 5):  # past the freeze, and before it
            z = rng.normal(size=n)
            for out in self.check(z, T, R):
                out[...] = 7.0
            self.check(z, T, R)


class TestBlockFilter:
    """An n x m block is filtered through one Riccati pass, and each of its
    columns gets the bits of the same series filtered alone."""

    @pytest.mark.parametrize("r", [1, 2, 13, 14])
    def test_each_column_has_the_bits_of_a_series(self, r):
        T, R = arma_of_size(r, seed=80 + r)
        rng = np.random.default_rng(81 + r)
        Z = np.column_stack([rng.normal(size=400), np.ones(400), 100.0 + rng.normal(scale=8.0, size=400)])
        s = TestKalmanFilterBits.check(Z[:, 0].copy(), T, R)
        # past the freeze, at it and before it
        for n in {400, s, max(s - 1, 1)}:
            v, F, a, P = kalman_filter(Z[:n], T, R)
            assert v.shape == (n, 3) and a.shape == (r, 3)
            for j in range(3):
                assert_same_bits([v[:, j].copy(), F, a[:, j].copy(), P], kalman_filter(Z[:n, j].copy(), T, R))


def grid_parameter_draws():
    """(id, spec, zvec) for every default-grid spec with two regressors, at
    the zero start and at two seeded draws."""
    rng = np.random.default_rng(59)
    out = []
    for p, d, q, P, D, Q in itertools.product((0, 1), repeat=6):
        spec = SarimaxSpec((p, d, q), (P, D, Q, SEASONAL_PERIOD), ("x1", "x2"))
        size = spec.n_params - 1
        draws = {"zero": np.zeros(size), "draw1": rng.normal(size=size), "draw2": rng.normal(scale=3.0, size=size)}
        out += [(f"{p}{d}{q}_{P}{D}{Q}_{label}", spec, zvec) for label, zvec in draws.items()]
    return out


GRID_DRAWS = grid_parameter_draws()


def as_bits(x):
    """A float as a 0-d array, so ``assert_same_bits`` compares its bytes."""
    return np.asarray(x, dtype=float)


class TestLikelihoodPathBits:
    @pytest.mark.parametrize("spec, zvec", [d[1:] for d in GRID_DRAWS], ids=[d[0] for d in GRID_DRAWS])
    def test_default_grid(self, spec, zvec):
        got = model_from_parameters(zvec, spec)
        want = reference_model_from_parameters(zvec, spec)
        assert_same_bits([as_bits(x) for x in got], [as_bits(x) for x in want])
        *_, T, R = got
        z = np.random.default_rng(61).normal(size=300)
        ll, sigma2, *arrays = concentrated_loglik(z, T, R)
        want_ll, want_sigma2, *want_arrays = reference_concentrated_loglik(z, T, R)
        if T.shape[0] == 1:
            # the closed form against the reference's doubling and Riccati
            # steps, which round differently
            assert ll == pytest.approx(want_ll, rel=1e-12, abs=0)
            assert sigma2 == pytest.approx(want_sigma2, rel=1e-12, abs=0)
            return
        assert_same_bits(
            [as_bits(ll), as_bits(sigma2), *arrays], [as_bits(want_ll), as_bits(want_sigma2), *want_arrays]
        )


def regression_series(seed, integrated, n=240):
    """y = 3 + X (0.2, -1.1) + u with u an AR(1) at 0.5, summed once when
    ``integrated``; X a level and a count regressor."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([100 + rng.normal(scale=8.0, size=n), rng.poisson(12, size=n).astype(float)])
    e = rng.normal(size=n)
    u = np.empty(n)
    u[0] = e[0]
    for t in range(1, n):
        u[t] = 0.5 * u[t - 1] + e[t]
    if integrated:
        u = np.cumsum(u)
    return 3.0 + X @ np.array([0.2, -1.1]) + u, X


def sha256_of(x):
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


# The log-likelihood and the hashes of residuals, _final_state and _final_cov
# of three fits at the default evaluation cap: the benchmark's forecast_long
# specs (0,1,0) and (1,1,0) and scale_run's (1,0,0) with a mean, each with
# two regressors.
FIT_PINS = [
    ((0, 1, 0), True, 61, "-0x1.84239ad723ed1p+8", (
        "490b76d0baaedde9b81a9e42c0207a0a112a9e21ac70cc691e2098e2b51b5af3",
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    )),
    ((1, 1, 0), True, 62, "-0x1.4a315c044cd34p+8", (
        "c073f41900bbe6ee000b27b30b01125a44fb485f98741536b79cfab41ea93e9d",
        "e7408c99a4dd819c59d34bd4cf00722cbfd2005ed4c2f9bee4d3c03e1eaf8391",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    )),
    ((1, 0, 0), False, 63, "-0x1.5c48314ecf43bp+8", (
        "c0bc608f087db28d219e116d41d859e0b55f480a9198671d9b9fdf6ab5374570",
        "fbee6e8ec34cd23e1364aa6bb5d33041cf6e7a6de207f55880300b2bd36954c2",
        "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    )),
]


@pytest.mark.parametrize(
    "order, integrated, seed, ll_hex, hashes", FIT_PINS, ids=["".join(map(str, pin[0])) for pin in FIT_PINS]
)
def test_sarimax_fit_pins(order, integrated, seed, ll_hex, hashes):
    y, X = regression_series(seed, integrated)
    fit = sarimax_fit(y, SarimaxSpec(order, exog_names=("x1", "x2")), exog=X)
    assert fit.log_likelihood.hex() == ll_hex
    assert (sha256_of(fit.residuals), sha256_of(fit._final_state), sha256_of(fit._final_cov)) == hashes


class TestProfiledFit:
    """``sarimax_fit`` profiles the mean and the exog coefficients out by
    GLS, and searches the ARMA coefficients alone."""

    def test_no_filter_call_repeats(self, monkeypatch):
        # the fit's residuals, state and covariance come from the evaluation
        # at the point bfgs returns, not from a second pass over it
        from cinestat import statespace

        keys = []
        filter_ = statespace.kalman_filter

        def recorded_filter(z, T, R):
            keys.append((z.tobytes(), T.tobytes(), R.tobytes()))
            return filter_(z, T, R)

        monkeypatch.setattr(statespace, "kalman_filter", recorded_filter)
        y, X = regression_series(78, integrated=False)
        sarimax_fit(y, SarimaxSpec((1, 0, 0), (1, 0, 0, SEASONAL_PERIOD), ("x1", "x2")), exog=X)
        assert len(keys) > 1 and len(set(keys)) == len(keys)

    def test_level_regressor_fit_converges(self):
        # the mean and a regressor near 100 are no longer search coordinates,
        # whose large curvature kept a forward-difference gradient from the
        # gradient test: the joint search stopped unconverged at -348.28200237852714
        y, X = regression_series(63, integrated=False)
        fit = sarimax_fit(y, SarimaxSpec((1, 0, 0), exog_names=("x1", "x2")), exog=X)
        assert fit.converged
        assert fit.log_likelihood == pytest.approx(-348.28200237852714, abs=1e-9)

    def test_no_arma_part_is_ordinary_least_squares(self):
        y, X = regression_series(82, integrated=False)
        fit = sarimax_fit(y, SarimaxSpec((0, 0, 0), exog_names=("x1", "x2")), exog=X)
        ols = least_squares(np.column_stack([np.ones(len(y)), X]), y)
        np.testing.assert_allclose(np.r_[fit.mean, fit.exog_coef], ols, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "order, seasonal_order, integrated, score_from",
        [
            ((1, 0, 0), (0, 0, 0, SEASONAL_PERIOD), False, 0),
            ((1, 0, 1), (1, 0, 0, SEASONAL_PERIOD), False, 13),
            ((0, 1, 1), (0, 0, 1, SEASONAL_PERIOD), True, 13),
        ],
    )
    def test_profile_is_the_likelihood_at_the_fitted_coefficients(self, order, seasonal_order, integrated, score_from):
        y, X = regression_series(83, integrated)
        spec = SarimaxSpec(order, seasonal_order, ("x1", "x2"))
        fit = sarimax_fit(y, spec, exog=X, score_from=score_from)
        _, d, _ = order
        _, D, _, s = seasonal_order
        z = difference(y, d, D, s) - fit.mean - difference(X, d, D, s) @ fit.exog_coef
        ll, sigma2, *_ = concentrated_loglik(z, fit._T, fit._R, max(score_from - d - s * D, 0))
        assert fit.log_likelihood == pytest.approx(ll, rel=1e-10, abs=0)
        assert fit.sigma2 == pytest.approx(sigma2, rel=1e-10, abs=0)

    @pytest.mark.parametrize(
        "order, columns",
        [
            ((1, 0, 0), lambda X: np.column_stack([X, X[:, 0]])),  # a duplicated column
            ((1, 0, 0), lambda X: np.column_stack([X, np.full(len(X), 5.0)])),  # a constant beside the mean
            ((1, 1, 0), lambda X: np.column_stack([X, np.full(len(X), 5.0)])),  # differenced to zero
        ],
        ids=["duplicate", "constant_and_mean", "constant_differenced"],
    )
    def test_rank_deficient_regressors_raise(self, order, columns):
        y, X = regression_series(84, integrated=order[1] > 0)
        spec = SarimaxSpec(order, exog_names=("x1", "x2", "x3"))
        with pytest.raises(FitError, match=r"rank-deficient.*\(1, %d, 0, 0, 0, 0\)" % order[1]):
            sarimax_fit(y, spec, exog=columns(X))
