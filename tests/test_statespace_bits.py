"""Bit-for-bit pins of the Kalman filter and the stationary covariance.

Each function is compared with a plain copy of its earlier form, kept here
as the reference: ``np.dot`` calls, the broadcast outer product, every scalar
read as a numpy scalar and the innovations written straight into the output
arrays.  The cheaper calls of the package's version must give the same bits
on every output, over every (T, R) of the default SARIMAX grid and over
state sizes 1 to 14.
"""

import itertools

import numpy as np
import pytest

from cinestat.statespace import (
    DIFFUSE_VARIANCE,
    GAIN_TOLERANCE,
    SEASONAL_PERIOD,
    SarimaxSpec,
    _pacf_to_coeffs,
    build_state_space,
    kalman_filter,
    model_from_parameters,
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


class TestStationaryCovarianceBits:
    @pytest.mark.parametrize("T, R", [m[1:] for m in GRID_MODELS], ids=[m[0] for m in GRID_MODELS])
    def test_default_grid(self, T, R):
        got, want = stationary_covariance(T, R), reference_stationary_covariance(T, R)
        assert want is not None
        assert_same_bits([got], [want])

    @pytest.mark.parametrize("phi", [1 - 1e-9, -(1 - 1e-9)])
    def test_near_unit_root(self, phi):
        # the propagated term dies out only after about 35 doublings
        T, R = build_state_space(np.array([phi]), np.array([]))
        got, want = stationary_covariance(T, R), reference_stationary_covariance(T, R)
        assert want is not None
        assert_same_bits([got], [want])

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
        """Compare the four outputs; returns the reference's freeze step."""
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
        "a, m",
        [
            pytest.param([1.0], [0.3], id="diffuse_start"),
            pytest.param([1.0], [], id="diffuse_start_r1"),
            pytest.param([1.5], [], id="explosive_r1"),
            pytest.param([0.5], [2.0], id="noninvertible_ma"),
            pytest.param([0.5] + [0.0] * 10 + [0.3, -0.15], [0.0] * 11 + [0.6], id="seasonal_r13"),
        ],
    )
    def test_special_starts(self, a, m):
        T, R = build_state_space(np.array(a), np.array(m))
        z = np.random.default_rng(53).normal(size=300)
        self.check(z, T, R)
