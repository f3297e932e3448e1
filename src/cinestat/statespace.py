"""Seasonal ARIMA with exogenous regressors, estimated by exact Gaussian
maximum likelihood through the Kalman filter.

The (multiplicatively expanded) ARMA part of the differenced series is cast
into the companion state-space form.  The innovation variance is
concentrated out of the likelihood; AR/MA coefficients are kept stationary
and invertible by optimizing through partial-autocorrelation space.

The forecast is one Kalman prediction recursion for every spec: the fitted
ARMA state of the differenced series, stacked on the last d + sD values of
the undifferenced series net of its regressors, which the integration
carries forward.

The mean and the regressor coefficients are profiled out by generalized
least squares (Durbin & Koopman 2012, section 6.2): the filter is linear in
its data, so one pass over the block [w, 1, X] of the differenced series,
a column of ones when the spec has a mean, and the differenced regressors
gives each column's innovations through the same gains, and the
coefficients are the least-squares fit of the series' scaled innovations on
the regressors'.  The optimizer thus searches the ARMA coefficients alone.

The Kalman filter runs in two phases.  It runs the Riccati recursion until
the predicted covariance stops changing and the gain equals the innovation
loading R, which an invertible MA part always reaches; from that step on
the filter is the ARMA innovations recursion, whose coefficients it reads
off the companion form (AR from T[:, 0], MA from R[1:]), and each further
observation costs a few scalar operations instead of an r x r update.
Before that step, a Riccati step is a handful of numpy calls on r x r
arrays, and the call overhead, not the arithmetic, sets its cost; the calls
are the cheapest ones that give the bits of the plain matrix form, which
``tests/test_statespace_bits.py`` keeps as the reference.  The Riccati
recursion (covariance, gain and innovation variance) reads no data, only T
and R (Durbin & Koopman 2012, section 4.3), so ``_riccati`` runs it once
per call, and the state runs over its gains for every column of the block.
A state of size 1, the specs with no MA part and at most one AR lag, is
filtered in closed form instead (Durbin & Koopman 2012, section 3.4): its
stationary start is R[0]^2 / (1 - T^2), its gain P / P is 1, so the first
observation reveals the state, and the steady phase starts at the second.

On a long series with a small state, a likelihood evaluation is mostly
fixed cost: its arithmetic over 1,439 months takes a few microseconds, and
each numpy call around it about one.  So an evaluation does only the work
its parameters change.  A lag polynomial is multiplied by a seasonal factor
only when there is one.  The filter's steady phase reads its lags off T and
R as Python lists, and the sums skip ``np.sum``'s wrapper, both with the
bits of the plain numpy form.

The profile likelihood is maximized by ``bfgs``, a quasi-Newton method with
forward-difference gradients and a strong-Wolfe line search, written here so
the package needs numpy alone.  A fit is ``converged`` when every partial
derivative of -log L in the ARMA coefficients is below GRADIENT_TOLERANCE;
the evaluation cap only bounds a fit that never gets there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import RankDeficiencyError, least_squares

DIFFUSE_VARIANCE = 1e7
GAIN_TOLERANCE = 1e-8
MAX_EVALUATIONS = 2000
GRADIENT_TOLERANCE = 1e-4  # converged: every partial derivative of -log L below this
SQRT_EPS = math.sqrt(np.finfo(float).eps)  # relative forward-difference step
SEASONAL_PERIOD = 12  # months


@dataclass(frozen=True)
class SarimaxSpec:
    order: tuple[int, int, int]
    seasonal_order: tuple[int, int, int, int] = (0, 0, 0, SEASONAL_PERIOD)
    exog_names: tuple[str, ...] = ()

    def __post_init__(self):
        p, d, q = self.order
        P, D, Q, s = self.seasonal_order
        if min(p, d, q, P, D, Q) < 0 or s < 1:
            raise ValueError("orders must be non-negative, s positive")
        if d + D > 2:
            raise ValueError("d + D must not exceed 2")

    @property
    def includes_mean(self) -> bool:
        return self.order[1] + self.seasonal_order[1] == 0

    @property
    def n_params(self) -> int:
        """Estimated parameter count, innovation variance included."""
        p, _, q = self.order
        P, _, Q, _ = self.seasonal_order
        return (1 if self.includes_mean else 0) + len(self.exog_names) + p + q + P + Q + 1

    def key(self) -> tuple:
        return (*self.order, *self.seasonal_order[:3])


@dataclass
class SarimaxFit:
    spec: SarimaxSpec
    mean: float
    exog_coef: np.ndarray
    ar: np.ndarray  # non-seasonal phi
    ma: np.ndarray  # non-seasonal theta
    seasonal_ar: np.ndarray
    seasonal_ma: np.ndarray
    sigma2: float
    log_likelihood: float
    aic: float
    bic: float
    hqic: float
    residuals: np.ndarray  # standardized one-step innovations
    converged: bool
    nobs: int
    one_step_rmse: float
    # internals carried for forecasting
    _final_state: np.ndarray = field(repr=False)
    _final_cov: np.ndarray = field(repr=False)
    _T: np.ndarray = field(repr=False)
    _R: np.ndarray = field(repr=False)
    _tail: np.ndarray = field(repr=False)

    def parameter_dict(self) -> dict[str, float]:
        out = {"mean": self.mean} if self.spec.includes_mean else {}
        out.update(zip((f"beta[{name}]" for name in self.spec.exog_names), self.exog_coef))
        lags = {"ar": self.ar, "ma": self.ma, "sar": self.seasonal_ar, "sma": self.seasonal_ma}
        for prefix, coeffs in lags.items():
            out.update((f"{prefix}{i}", v) for i, v in enumerate(coeffs, 1))
        out["sigma2"] = self.sigma2
        return out


class FitError(RuntimeError):
    pass


def _pacf_to_coeffs(r) -> np.ndarray:
    """Levinson recursion mapping partial autocorrelations in (-1, 1) to the
    coefficients of a stationary AR polynomial."""
    a = []
    for rk in r:
        a = [x - rk * y for x, y in zip(a, a[::-1])]
        a.append(rk)
    return np.array(a, dtype=float)


def _unconstrained_to_coeffs(z: list[float]) -> np.ndarray:
    # numpy's z / sqrt(1 + z**2) on floats: z**2 is z * z, sqrt is exact
    return _pacf_to_coeffs([x / math.sqrt(1.0 + x * x) for x in z]) if z else np.zeros(0)


def expand_polynomials(ar, seasonal_ar, ma, seasonal_ma, s: int):
    """Multiply the seasonal and non-seasonal lag polynomials.

    Returns (a, m) with the reduced form y_t = sum a_i y_{t-i} + e_t +
    sum m_i e_{t-i}; a and m are coefficient arrays starting at lag 1.
    """
    def product(coeffs, seasonal):
        # (1 + sum c_i L^i)(1 + sum C_j L^(s j)) from lag 1; the AR side comes negated
        if not len(seasonal):
            # times 1: np.convolve adds each product to +0.0, so the product
            # is the coefficients plus 0.0, which turns -0.0 into 0.0
            return np.add(coeffs, 0.0)
        poly = np.zeros(len(coeffs) + 1)
        poly[0] = 1.0
        poly[1:] = coeffs
        spoly = np.zeros(s * len(seasonal) + 1)
        spoly[0] = 1.0
        spoly[s::s] = seasonal
        return np.convolve(poly, spoly)[1:]

    return -product(np.negative(ar), np.negative(seasonal_ar)), product(ma, seasonal_ma)


def build_state_space(a: np.ndarray, m: np.ndarray):
    """Companion (Harvey) form: T transition, R innovation loading, Z = e1."""
    r = max(len(a), len(m) + 1, 1)
    T = np.zeros((r, r))
    T[: len(a), 0] = a
    if r > 1:
        T[:-1, 1:] = np.eye(r - 1)
    R = np.zeros(r)
    R[0] = 1.0
    R[1 : 1 + len(m)] = m
    return T, R


def stationary_covariance(T: np.ndarray, R: np.ndarray) -> np.ndarray | None:
    """Solve P = T P T' + R R' by the doubling iteration; None when the
    transition is not stable.

    A state of size 1 takes the closed form R[0]^2 / (1 - T^2), with the
    denominator factored, which rounds far less near a unit root than
    1 - T * T.
    """
    if T.shape[0] == 1:
        t = T.item(0)
        if not abs(t) < 1.0:  # a NaN transition is not stable either
            return None
        R0 = R.item(0)
        return np.array([[R0 * R0 / ((1.0 - t) * (1.0 + t))]])
    A = T.copy()
    P = np.outer(R, R)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):
            P_next = A.dot(P).dot(A.T)
            P_next += P
            A = A.dot(A)
            # a non-finite entry of P_next makes the change's max non-finite,
            # so that max screens for one; a finite P_next can still overflow
            # the change, hence the exact check behind it
            change = np.abs(P_next - P).max()
            if not math.isfinite(change) and not np.isfinite(P_next).all():
                return None
            if change < 1e-14 * (1.0 + np.abs(P_next).max()):
                # the propagated term must actually have died out
                if np.abs(A).max() > 1e-6:
                    return None
                return P_next
            P = P_next
    return None


def initial_covariance(T: np.ndarray, R: np.ndarray) -> np.ndarray:
    P0 = stationary_covariance(T, R)
    if P0 is None:
        P0 = DIFFUSE_VARIANCE * np.eye(T.shape[0])
    return P0


def _riccati(T: np.ndarray, R: np.ndarray, n: int):
    """The data-free half of the filter over n steps from
    ``initial_covariance(T, R)``: the gains K_t and the variances F_t up to
    the step at which the gain freezes (all n when it does not), and the
    predicted covariance P after that step."""
    # A Riccati step is a dozen numpy calls on small arrays, and their call
    # overhead, not the arithmetic, is its cost, so each call is the
    # cheapest one with the same bits.  F_t is a Python float, read with
    # ``item``.  The gain divides by P[0, 0] as a 0-d array.
    # ``ndarray.dot`` with a contiguous copy of T' reaches the BLAS product
    # of ``T @ M @ T.T`` with less overhead, and the bits stay those of the
    # ``@`` form: T is a companion matrix, so each entry of T M and of M T'
    # is at most two non-zero products, one of them by 1.  K P[0]' is a
    # one-term matrix product, which rounds each entry once, as the
    # broadcast multiply does.
    #
    # The Riccati phase can run long, so its freeze test checks the gain,
    # the cheaper test that fails on most steps, before the covariance, and
    # the gain's last entry as a Python float before the whole vector.
    # After the gain settles, the covariance test still fails for some
    # steps, and ``cap`` settles most of those without max|P_next|: it
    # bounds max|P| from above (inf when unknown), max|P_next| <= cap +
    # change, and 1 + 1e-15 covers the three roundings of that bound.  A
    # change at or above the tolerance the bound gives is at or above the
    # exact one too.  Each shortcut is implied by the full rule, so the
    # freeze step is the one that rule gives.
    P = initial_covariance(T, R)
    gains, F_head = [], []
    RR = np.outer(R, R)
    Tt = np.ascontiguousarray(T.T)
    R_last = R.item(-1)
    cap = math.inf
    for _ in range(n):
        F_head.append(P.item(0))
        K = P[:, 0] / P[0, 0, ...]
        gains.append(K)
        P_next = T.dot(P - K[:, None].dot(P[:1])).dot(Tt)
        P_next += RR
        frozen = False
        if abs(K.item(-1) - R_last) < GAIN_TOLERANCE and np.abs(K - R).max() < GAIN_TOLERANCE:
            change = np.abs(P_next - P).max()
            cap = (cap + change) * (1.0 + 1e-15)
            if not change >= 1e-12 * (1.0 + cap):
                cap = np.abs(P_next).max()
                frozen = change < 1e-12 * (1.0 + cap)
        else:
            cap = math.inf
        P = P_next
        if frozen:
            break
    return gains, F_head, P


def kalman_filter(z: np.ndarray, T: np.ndarray, R: np.ndarray):
    """Filter a zero-mean series in unit-innovation-variance units, starting
    from ``initial_covariance(T, R)``.  z is a series of n values or an
    n x m block of them, filtered column by column through the same gains.

    Returns (innovations v, innovation variances F, predicted state a_{n+1|n},
    predicted covariance P_{n+1|n}); v has z's shape and a the shape (r,)
    or (r, m), while F and P are shared by the columns.

    The filter runs in two phases.  Until the gain freezes it is the full
    Riccati recursion.  The gain freezes at step s once the predicted
    covariance changes by less than 1e-12 of its size and the gain has
    reached the innovation loading R; for an invertible MA part it always
    does, and the state is then known exactly from the past.  From step s
    on, F stays at the frozen P[0, 0], and the innovations come from the
    ARMA recursion read off the companion form, AR coefficients c = T[:, 0]
    and MA coefficients m = R[1:]:

        v_t = z_t - sum_k c_k z_{t-k} - sum_k m_k v_{t-k} - a_s[t - s],

    with both sums over lags that reach back no further than s, and the
    frozen state a_s carrying what the history before s contributes.

    A state of size 1 is filtered in closed form.  Its gain is P / P = 1,
    so v_0 = z_0 and F_0 = P_0, the first observation reveals the state,
    a = T z_0 and P = R R', and the steady phase runs from s = 1:
    v_t = z_t - T z_{t-1} and F_t = R[0]^2.
    """
    r = T.shape[0]
    n = z.shape[0]
    zb = z if z.ndim == 2 else z[:, None]  # a series is a block of one column
    m = zb.shape[1]
    v = np.empty((n, m))
    F = np.empty(n)
    # Before the freeze, the covariance, the gain and F never read z, so
    # ``_riccati`` runs them first, and this pass runs the state over its
    # gains, with the same operations in the same order as one loop of
    # both.  The state update stays a separate product from the
    # covariance's: a joint T [P | a] rounds a differently at small r, since
    # the matrix and the vector kernels order their sums differently
    # (TestKalmanExactness and TestKalmanFilterBits pin all of this).  For
    # the same reason each column's state is an r x 1 matrix of a stack,
    # which ``matmul`` multiplies by the vector kernel, one column at a
    # time: a matrix product T [a_1 ... a_m] rounds differently at r = 2
    # and 3 (TestBlockFilter pins each column to the series' bits).  The
    # gain times the innovations is a one-term matrix product, which rounds
    # each entry once, as the broadcast multiply does, with less overhead;
    # the other calls write into buffers and their fixed views.
    if r == 1 and n:
        # closed form: the first observation reveals the state
        v[0] = zb[0]
        F[0] = initial_covariance(T, R).item(0)
        a = T.item(0) * zb[:1]
        P = np.array([[R.item(0) * R.item(0)]])
        s = 1
    else:
        gains, F_head, P = _riccati(T, R, n)
        s = len(gains)
        F[:s] = F_head
        a, Kv = np.zeros((m, r)), np.empty((m, r))  # row j: column j's state
        a_0, a_stack, Kv_stack = a[:, :1], a[:, :, None], Kv[:, :, None]
        for K, zt, vt in zip(gains, zb.reshape(n, m, 1), v.reshape(n, m, 1)):
            np.subtract(zt, a_0, out=vt)
            np.dot(vt, K[None], out=Kv)
            Kv += a
            np.matmul(T, Kv_stack, out=a_stack)
        a = a.T
    if s == n:
        return v.reshape(z.shape), F, a.reshape(r, *z.shape[1:]), P

    # The lags come off T and R as Python lists, and e is updated in place
    # through views, which spares numpy's write-back of each slice.
    F[s:] = P.item(0)
    c = T[:, 0]
    steps = n - s
    h = min(steps, r)
    e = v[s:]  # the steady innovations, built in place
    e[...] = zb[s:]
    head = e[:h]
    head -= a[:h]
    for k, c_k in enumerate(c[: steps - 1].tolist(), 1):
        if c_k:
            tail = e[k:]
            tail -= c_k * zb[s : n - k]
    ma = [(k, m_k) for k, m_k in enumerate(R[1:].tolist(), 1) if m_k]
    if ma:
        # v[t] with t < s stands at 0: a_s already holds those MA terms
        depth = ma[-1][0]
        for j, column in enumerate(e.T.tolist()):
            w = [0.0] * depth + column
            for t in range(depth, depth + steps):
                acc = w[t]
                for k, m_k in ma:
                    acc -= m_k * w[t - k]
                w[t] = acc
            e[:, j] = w[depth:]

    # a_{n+1|n}[i] = sum over j >= i of c[j] z[n-1-j+i] + R[j+1] v[n-1-j+i]
    # over the steady phase's last r steps, plus what is left of a_s when
    # the phase is shorter than r
    m_next = np.zeros(r)
    m_next[:-1] = R[1:]
    a_next = np.empty((r, m))
    for j in range(m):
        a_next[:, j] = (np.convolve(c, zb[n - h :, j]) + np.convolve(m_next, v[n - h :, j]))[h - 1 : h - 1 + r]
    if h < r:
        a_next[: r - h] += a[h:]
    return v.reshape(z.shape), F, a_next.reshape(r, *z.shape[1:]), P


def concentrated_loglik(z: np.ndarray, T: np.ndarray, R: np.ndarray, skip: int = 0):
    """Profile log-likelihood with the innovation variance concentrated out:
    the density of z[skip:] given z[:skip], which the filter still reads.

    Returns (log L, sigma2, v, F, a, P) with ``kalman_filter``'s outputs.
    In an n x (1 + k) block, the first column is the series and the others
    are regressors, whose coefficients are profiled out by GLS: the least
    squares of the series' innovations on theirs, each month scaled by
    1 / sqrt(F_t), from ``skip`` on.  v and a are then the series' net of
    the regressors, and the k coefficients come last.  A rank-deficient
    regressor block raises ``numerics.RankDeficiencyError``."""
    v, F, a, P = kalman_filter(z, T, R)
    n = z.shape[0] - skip
    profiled = z.ndim == 2
    if profiled:
        scaled = v[skip:] / np.sqrt(F[skip:])[:, None]
        if np.isfinite(scaled).all():
            coef = least_squares(scaled[:, 1:], scaled[:, 0])
        else:
            coef = np.full(z.shape[1] - 1, math.nan)
        weights = np.concatenate(([1.0], -coef))
        v, a = v.dot(weights), a.dot(weights)
    q = v[skip:] * v[skip:]  # the sums are np.sum's, without its Python wrapper
    q /= F[skip:]
    sigma2 = np.add.reduce(q).item() / n
    if sigma2 <= 0 or not math.isfinite(sigma2):
        ll = -math.inf
        sigma2 = 0.0
    else:
        ll = -0.5 * n * (math.log(2.0 * math.pi) + 1.0) - 0.5 * n * math.log(sigma2) - 0.5 * np.add.reduce(
            np.log(F[skip:], out=q)
        ).item()
    return (ll, sigma2, v, F, a, P, coef) if profiled else (ll, sigma2, v, F, a, P)


def difference(y: np.ndarray, d: int, D: int, s: int) -> np.ndarray:
    """Apply d regular and D seasonal differences along axis 0, to a series
    or to the rows of a regressor matrix."""
    w = np.asarray(y, dtype=float)
    for _ in range(d):
        w = np.diff(w, axis=0)
    for _ in range(D):
        w = w[s:] - w[:-s]
    return w


def model_from_parameters(zvec: np.ndarray, spec: SarimaxSpec):
    """Map an unconstrained parameter vector to the model: (mean, exog
    coefficients, ar, ma, seasonal_ar, seasonal_ma, T, R).

    The vector ends with the ARMA coefficients in the order p, q, P, Q.  The
    mean, when the spec has one, and the exog coefficients may precede them,
    as ``SarimaxFit.parameter_dict`` lists them; ``sarimax_fit`` profiles
    those out, passes the ARMA coefficients alone, and reads a mean of 0 and
    zero coefficients back.

    This is the one place that knows how the spec's lag polynomials form
    the state space; the forecast reads its reduced form back off T and R.
    """
    p, _, q = spec.order
    P, _, Q, s = spec.seasonal_order
    nx = len(spec.exog_names)
    k = len(zvec) - p - q - P - Q  # the mean and exog entries, or none
    mean = float(zvec[0]) if k and spec.includes_mean else 0.0
    beta = np.asarray(zvec[k - nx : k], dtype=float) if k else np.zeros(nx)
    x = zvec[k:].tolist()
    ar = _unconstrained_to_coeffs(x[:p])
    ma = -_unconstrained_to_coeffs(x[p : p + q])
    sar = _unconstrained_to_coeffs(x[p + q : p + q + P])
    sma = -_unconstrained_to_coeffs(x[p + q + P :])
    a, m = expand_polynomials(ar=ar, seasonal_ar=sar, ma=ma, seasonal_ma=sma, s=s)
    T, R = build_state_space(a, m)
    return mean, beta, ar, ma, sar, sma, T, R


def bfgs(f, x0: np.ndarray, max_evaluations: int):
    """Minimize f from x0 by BFGS.  f(x) returns (value, info), where info is
    anything the caller wants back from the evaluation at the point that
    ``bfgs`` returns; returns (x, info at x, converged).

    The quasi-Newton iteration of Nocedal & Wright (2006), Alg. 6.1, from
    the inverse Hessian I.  The gradient is the forward difference with step
    sqrt(eps) max(1, |x_i|) (section 8.1), so it costs k evaluations beyond
    f(x).  The line search meets the strong Wolfe conditions with c1 = 1e-4
    and c2 = 0.9: it doubles the step until a bracket holds one (Alg. 3.5),
    then bisects the bracket (Alg. 3.6), and takes the gradient only at
    points with sufficient decrease.  Its first trial step is
    min(1, 2.02 (f_k - f_{k-1}) / g'p), with f_{-1} = f_0 + |g| / 2.

    ``converged`` is True when max|g| < GRADIENT_TOLERANCE.  The search
    stops short of that when a line search finds no step in 40 trials, or
    when ``max_evaluations`` are spent, which is tested before each trial.
    """
    evaluations = 0

    def value(x):
        nonlocal evaluations
        evaluations += 1
        return f(x)

    def gradient(x, fx):
        g = np.empty(x.size)
        for i, xi in enumerate(x.tolist()):
            xh = x.copy()
            xh[i] = xi + SQRT_EPS * max(1.0, abs(xi))
            g[i] = (value(xh)[0] - fx) / (xh[i] - xi)
        return g

    x = np.asarray(x0, dtype=float)
    fx, info = value(x)
    g = gradient(x, fx)
    H = np.eye(x.size)
    f_prev = fx + math.sqrt(g @ g) / 2
    while g.size and np.abs(g).max() >= GRADIENT_TOLERANCE:
        p = -H @ g
        slope = g @ p
        alpha = min(1.0, 2.02 * (fx - f_prev) / slope) if fx < f_prev else 1.0
        lo, f_lo, hi = 0.0, fx, math.inf
        for _ in range(40):
            if evaluations >= max_evaluations:
                return x, info, False
            x_new = x + alpha * p
            f_new, info_new = value(x_new)
            if f_new > fx + 1e-4 * alpha * slope or f_new >= f_lo:
                hi = alpha
            else:
                g_new = gradient(x_new, f_new)
                d = g_new @ p
                if abs(d) <= -0.9 * slope:
                    break
                if d * (hi - lo) >= 0:
                    hi = lo
                lo, f_lo = alpha, f_new
            alpha = 2.0 * alpha if hi == math.inf else 0.5 * (lo + hi)
        else:
            return x, info, False
        s, y = x_new - x, g_new - g
        sy = s @ y
        if sy > 0:  # the curvature condition makes it so, up to the gradients' error
            Hy = H @ y
            H += ((sy + y @ Hy) / sy * np.outer(s, s) - np.outer(Hy, s) - np.outer(s, Hy)) / sy
        x, f_prev, fx, g, info = x_new, fx, f_new, g_new, info_new
    return x, info, True


def _regressors(x, rows: int, k: int, name: str) -> np.ndarray:
    """x as a rows x k float array, from that shape or, when k is 1, from
    ``rows`` values; a reshape would scramble a transposed array."""
    x = np.asarray(x, dtype=float)
    if x.shape == (rows, k) or (k == 1 and x.shape == (rows,)):
        return x.reshape(rows, k)
    raise ValueError(f"{name} has shape {x.shape}; expected {(rows, k)}")


def sarimax_fit(
    y: np.ndarray,
    spec: SarimaxSpec,
    exog: np.ndarray | None = None,
    max_evaluations: int = MAX_EVALUATIONS,
    score_from: int = 0,
) -> SarimaxFit:
    """Estimate a SARIMAX model on a plain series (exog as an n x k array
    aligned with y, column order following spec.exog_names).

    ``bfgs`` searches the ARMA coefficients; each evaluation profiles the
    mean and the exog coefficients out of the block [w, 1, X], and the fit
    keeps the outputs of the evaluation at the point ``bfgs`` returns.
    Regressors that are rank-deficient after differencing, beside the mean
    when there is one, raise ``FitError``.

    The likelihood, sigma2, ``nobs`` and the information criteria count the
    months of y from ``score_from`` on, or from the first differenced month
    d + sD if that is later; the filter still starts at d + sD.  Fits that
    share ``score_from`` thus score the same months and can be ranked."""
    y = np.asarray(y, dtype=float)
    p, d, q = spec.order
    P, D, Q, s = spec.seasonal_order
    skip = max(score_from - d - s * D, 0)
    nx = len(spec.exog_names)
    w = difference(y, d, D, s)
    columns = [w[:, None]]
    if spec.includes_mean:
        columns.append(np.ones((w.shape[0], 1)))
    if nx:
        if exog is None:
            raise ValueError("spec names exogenous series but none were supplied")
        exog = _regressors(exog, len(y), nx, "exog")
        columns.append(difference(exog, d, D, s))
    block = np.hstack(columns)

    n = w.shape[0] - skip
    x0 = np.zeros(p + q + P + Q)
    *_, T0, _ = model_from_parameters(x0, spec)
    if n <= spec.n_params + 1 or w.shape[0] <= T0.shape[0]:
        raise FitError(f"series too short ({n} points) for spec {spec.key()}")

    def negloglik(x):
        model = model_from_parameters(x, spec)
        profile = concentrated_loglik(block, model[-2], model[-1], skip)
        ll = profile[0]
        return (-ll if math.isfinite(ll) else 1e12), (model, profile)

    try:
        _, ((*_, ar, ma, sar, sma, T, R), profile), converged = bfgs(negloglik, x0, max_evaluations)
    except RankDeficiencyError as exc:
        raise FitError(f"regressors are rank-deficient after differencing for spec {spec.key()}") from exc
    ll, sigma2, v, F, a_next, P_next, coef = profile
    if not math.isfinite(ll):
        raise FitError("likelihood is not finite at the optimum")
    mean = coef.item(0) if spec.includes_mean else 0.0
    beta = coef[1:] if spec.includes_mean else coef

    start = len(y) - d - s * D  # the last d + sD values of u = y - X beta
    tail = y[start:] - exog[start:] @ beta if nx else y[start:]
    k = spec.n_params
    aic = 2.0 * k - 2.0 * ll
    bic = k * math.log(n) - 2.0 * ll
    hqic = 2.0 * k * math.log(math.log(n)) - 2.0 * ll
    residuals = v / np.sqrt(F * sigma2)
    return SarimaxFit(
        spec=spec,
        mean=mean,
        exog_coef=beta,
        ar=ar,
        ma=ma,
        seasonal_ar=sar,
        seasonal_ma=sma,
        sigma2=sigma2,
        log_likelihood=ll,
        aic=aic,
        bic=bic,
        hqic=hqic,
        residuals=residuals,
        converged=converged,
        nobs=n,
        one_step_rmse=float(np.sqrt(np.mean(v**2))),
        _final_state=a_next,
        _final_cov=P_next,
        _T=T,
        _R=R,
        _tail=tail,
    )


def sarimax_forecast(fit: SarimaxFit, horizon: int, future_exog: np.ndarray | None = None):
    """Point forecasts with symmetric 95% normal intervals on the original
    scale, from one Kalman prediction recursion for every spec.

    The state stacks the fitted ARMA state of the differenced series (its
    last prediction and covariance) on the last K = d + sD values of
    u = y - X beta, which are known, so they start with zero covariance
    (Durbin & Koopman 2012, section 3.4).  With 1 - sum_k delta_k B^k =
    (1 - B)^d (1 - B^s)^D, u_t = w_t + sum_k delta_k u_{t-k}, so the
    observation vector is Z = [e1', delta'] and the lag block's new entry
    is the same sum.  Future exog enters undifferenced, as x_future beta,
    after the mean.  With K = 0 this is the plain ARMA prediction loop.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    spec = fit.spec
    nx = len(spec.exog_names)
    if nx:
        if future_exog is None:
            raise ValueError("fit used exogenous inputs; future values required")
        future_exog = _regressors(future_exog, horizon, nx, "future_exog")
    elif future_exog is not None:
        raise ValueError("fit has no exogenous inputs")

    _, d, _ = spec.order
    _, D, _, s = spec.seasonal_order
    K = d + s * D
    r = fit._T.shape[0]
    # (1 - B)^d (1 - B^s)^D from lag 0, by differencing a padded impulse
    pad = np.zeros(K)
    delta = -difference(np.r_[pad, 1.0, pad], d, D, s)[1:]
    Z = np.r_[1.0, np.zeros(r - 1), delta]
    T = np.zeros((r + K, r + K))
    T[:r, :r] = fit._T
    T[r : r + 1] = Z
    T[r + 1 :, r:] = np.eye(K)[:-1]
    R = np.r_[fit._R, pad]
    a = np.r_[fit._final_state, fit._tail[::-1]]
    P = np.zeros((r + K, r + K))
    P[:r, :r] = fit._final_cov
    RR = np.outer(R, R)
    point = np.empty(horizon)
    var = np.empty(horizon)
    for h in range(horizon):
        point[h] = Z @ a
        var[h] = Z @ P @ Z * fit.sigma2
        a = T @ a
        P = T @ P @ T.T + RR

    point = point + fit.mean
    if nx:
        point = point + future_exog @ fit.exog_coef
    half = 1.96 * np.sqrt(np.maximum(var, 0.0))
    intervals = np.column_stack([point - half, point + half])
    return point, intervals
