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

The Kalman filter runs in two phases.  It runs the Riccati recursion until
the predicted covariance stops changing and the gain equals the innovation
loading R, which an invertible MA part always reaches; from that step on
the filter is the ARMA innovations recursion, whose coefficients it reads
off the companion form (AR from T[:, 0], MA from R[1:]), and each further
observation costs a few scalar operations instead of an r x r update.
Before that step, a Riccati step is a handful of numpy calls on r x r
arrays, and the call overhead, not the arithmetic, sets its cost; the calls
are the cheapest ones that give the bits of the plain matrix form, which
``tests/test_statespace_bits.py`` keeps as the reference.  A state of size
1, the specs with no MA part and at most one AR lag, runs the stationary
start and the Riccati phase on Python floats instead: numpy takes a product
of 1 x 1 arrays as one multiplication, so the same float operations in the
same order give the same bits, without a numpy call per operation.

On a long series with a small state, a likelihood evaluation is mostly
fixed cost: its arithmetic over 1,439 months takes a few microseconds, and
each numpy call around it about one.  So an evaluation does only the work
its parameters change.  A lag polynomial is multiplied by a seasonal factor
only when there is one, and a spec without a mean is not centred.  The
filter's steady phase reads its lags off T and R as Python lists, the sums
skip ``np.sum``'s wrapper, and the simplex tests convergence on Python
floats, all with the bits of the plain numpy form.

The likelihood is maximized by ``nelder_mead``, the Nelder & Mead (1965)
downhill simplex, written here so the package needs numpy alone.  It takes
the steps of scipy's ``minimize(method="Nelder-Mead")`` with ``maxfev`` set,
float operation for float operation, so a fit is the same to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DIFFUSE_VARIANCE = 1e7
GAIN_TOLERANCE = 1e-8
MAX_EVALUATIONS = 2000
SIMPLEX_XATOL = 1e-6  # stop when every vertex is this close to the best one
SIMPLEX_FATOL = 1e-8  # ... and every value this close to the best value
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
        out = {}
        if self.spec.includes_mean:
            out["mean"] = self.mean
        for name, b in zip(self.spec.exog_names, self.exog_coef):
            out[f"beta[{name}]"] = float(b)
        for i, v in enumerate(self.ar, 1):
            out[f"ar{i}"] = float(v)
        for i, v in enumerate(self.ma, 1):
            out[f"ma{i}"] = float(v)
        for i, v in enumerate(self.seasonal_ar, 1):
            out[f"sar{i}"] = float(v)
        for i, v in enumerate(self.seasonal_ma, 1):
            out[f"sma{i}"] = float(v)
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

    A state of size 1 runs the same iteration on Python floats, with the
    bits of the array form: numpy's product of 1 x 1 arrays is one
    multiplication.
    """
    if T.shape[0] == 1:
        A = T.item(0)
        P = R.item(0) * R.item(0)
        for _ in range(60):
            P_next = A * P * A
            P_next += P
            A = A * A
            change = abs(P_next - P)
            if not math.isfinite(change) and not math.isfinite(P_next):
                return None
            if change < 1e-14 * (1.0 + abs(P_next)):
                if abs(A) > 1e-6:
                    return None
                return np.array([[P_next]])
            P = P_next
        return None
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


def kalman_filter(z: np.ndarray, T: np.ndarray, R: np.ndarray):
    """Filter a zero-mean series in unit-innovation-variance units, starting
    from ``initial_covariance(T, R)``.

    Returns (innovations v, innovation variances F, predicted state a_{n+1|n},
    predicted covariance P_{n+1|n}).

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

    A state of size 1 runs the Riccati phase, and its start in
    ``stationary_covariance``, on Python floats: the same operations in the
    same order give the same bits, and a numpy call on a 1 x 1 array costs
    far more than the one multiplication it makes.
    """
    r = T.shape[0]
    P = initial_covariance(T, R)
    n = z.shape[0]
    # A Riccati step is a dozen numpy calls on small arrays, and their call
    # overhead, not the arithmetic, is its cost, so each call is the
    # cheapest one with the same bits.  The scalars v_t and F_t are Python
    # floats, read with ``item`` and kept in lists until the freeze.  The
    # gain divides by P[0, 0] as a 0-d array.  ``ndarray.dot`` with a
    # contiguous copy of T' reaches the BLAS product of ``T @ M @ T.T``
    # with less overhead, and the bits stay those of the ``@`` form: T is a
    # companion matrix, so each entry of T M and of M T' is at most two
    # non-zero products, one of them by 1.  K P[0]' is a one-term matrix
    # product, which rounds each entry once, as the broadcast multiply does.
    # The state update stays a separate product from the covariance's: a
    # joint T [P | a] rounds a differently at small r, since the matrix and
    # the vector kernels order their sums differently (TestKalmanExactness
    # and TestKalmanFilterBits pin all of this).
    #
    # The freeze test checks the gain before the covariance, since it is the
    # cheaper test and fails on most steps, and the gain's last entry as a
    # Python float before the whole vector.  After the gain settles, the
    # covariance test still fails for some steps, and ``cap`` settles most
    # of those without max|P_next|: it bounds max|P| from above (inf when
    # unknown), max|P_next| <= cap + change, and the factor 1 + 1e-15 covers
    # the three roundings of that bound.  A change at or above the tolerance
    # the bound gives is at or above the exact one too.  Each shortcut is
    # implied by the full rule, so the freeze step is the one that rule gives.
    v_head, F_head = [], []
    s = n
    cap = math.inf
    if r == 1:
        T1 = T.item(0)
        R1 = R.item(0)
        RR = R1 * R1
        a = 0.0
        P = P.item(0)
        for t in range(n):
            vt = z.item(t) - a
            v_head.append(vt)
            F_head.append(P)
            try:
                K = P / P
            except ZeroDivisionError:
                K = P * math.inf  # P is 0: the invalid operation, and NaN, of numpy's 0 / 0
            a = T1 * (a + K * vt)
            P_next = T1 * (P - K * P) * T1 + RR
            frozen = False
            if abs(K - R1) < GAIN_TOLERANCE:
                change = abs(P_next - P)
                cap = (cap + change) * (1.0 + 1e-15)
                if not change >= 1e-12 * (1.0 + cap):
                    cap = abs(P_next)
                    frozen = change < 1e-12 * (1.0 + cap)
            else:
                cap = math.inf
            P = P_next
            if frozen:
                s = t + 1
                break
        a = np.array([a])
        P = np.array([[P]])
    else:
        a = np.zeros(r)
        RR = np.outer(R, R)
        Tt = np.ascontiguousarray(T.T)
        R_last = R.item(-1)
        for t in range(n):
            vt = z.item(t) - a.item(0)
            v_head.append(vt)
            F_head.append(P.item(0))
            K = P[:, 0] / P[0, 0, ...]
            a = T.dot(a + K * vt)
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
                s = t + 1
                break
    v = np.empty(n)
    F = np.empty(n)
    v[:s] = v_head
    F[:s] = F_head
    if s == n:
        return v, F, a, P

    # The lags come off T and R as Python lists, and e is updated in place
    # through views, which spares numpy's write-back of each slice.
    F[s:] = P.item(0)
    c = T[:, 0]
    steps = n - s
    h = min(steps, r)
    e = v[s:]  # the steady innovations, built in place
    e[...] = z[s:]
    head = e[:h]
    head -= a[:h]
    for k, c_k in enumerate(c[: steps - 1].tolist(), 1):
        if c_k:
            tail = e[k:]
            tail -= c_k * z[s : n - k]
    ma = [(k, m_k) for k, m_k in enumerate(R[1:].tolist(), 1) if m_k]
    if ma:
        # v[t] with t < s stands at 0: a_s already holds those MA terms
        depth = ma[-1][0]
        w = [0.0] * depth + e.tolist()
        for t in range(depth, depth + steps):
            acc = w[t]
            for k, m_k in ma:
                acc -= m_k * w[t - k]
            w[t] = acc
        e[...] = w[depth:]

    # a_{n+1|n}[i] = sum over j >= i of c[j] z[n-1-j+i] + R[j+1] v[n-1-j+i]
    # over the steady phase's last r steps, plus what is left of a_s when
    # the phase is shorter than r
    m_next = np.zeros(r)
    m_next[:-1] = R[1:]
    a_next = (np.convolve(c, z[n - h :]) + np.convolve(m_next, v[n - h :]))[h - 1 : h - 1 + r]
    if h < r:
        a_next[: r - h] += a[h:]
    return v, F, a_next, P


def concentrated_loglik(z: np.ndarray, T: np.ndarray, R: np.ndarray):
    """Profile log-likelihood with the innovation variance concentrated out."""
    v, F, a, P = kalman_filter(z, T, R)
    n = z.shape[0]
    q = v * v  # the sums are np.sum's, without its Python wrapper
    q /= F
    sigma2 = np.add.reduce(q).item() / n
    if sigma2 <= 0 or not math.isfinite(sigma2):
        return -math.inf, 0.0, v, F, a, P
    ll = -0.5 * n * (math.log(2.0 * math.pi) + 1.0) - 0.5 * n * math.log(sigma2) - 0.5 * np.add.reduce(
        np.log(F, out=q)
    ).item()
    return ll, sigma2, v, F, a, P


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

    This is the one place that knows how the spec's lag polynomials form
    the state space; the forecast reads its reduced form back off T and R.
    """
    p, _, q = spec.order
    P, _, Q, s = spec.seasonal_order
    k = 1 if spec.includes_mean else 0
    mean = float(zvec[0]) if k else 0.0
    nx = len(spec.exog_names)
    beta = np.asarray(zvec[k : k + nx], dtype=float)
    x = zvec[k + nx :].tolist()
    ar = _unconstrained_to_coeffs(x[:p])
    ma = -_unconstrained_to_coeffs(x[p : p + q])
    sar = _unconstrained_to_coeffs(x[p + q : p + q + P])
    sma = -_unconstrained_to_coeffs(x[p + q + P :])
    a, m = expand_polynomials(ar=ar, seasonal_ar=sar, ma=ma, seasonal_ma=sma, s=s)
    T, R = build_state_space(a, m)
    return mean, beta, ar, ma, sar, sma, T, R


class _BudgetSpent(Exception):
    pass


def nelder_mead(f, x0: np.ndarray, max_evaluations: int):
    """Minimize f from x0 by the Nelder-Mead simplex; returns (x, converged).

    The steps are scipy's ``minimize(method="Nelder-Mead", options={"maxfev":
    max_evaluations, "xatol": SIMPLEX_XATOL, "fatol": SIMPLEX_FATOL})``, with
    the same float operations in the same order: the initial simplex moves
    each coordinate by 5% (to 0.00025 from zero); reflection, expansion,
    contraction and shrink use the coefficients 1, 2, 0.5 and 0.5.  The
    budget is checked before every evaluation; when it runs out mid-iteration
    the iteration is abandoned where it stands (a shrink keeps the vertices
    it already moved) and the simplex is re-sorted.  There is no iteration
    cap.  ``converged`` is False exactly when the budget ran out.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    x0 = np.asarray(x0, dtype=float)
    n = len(x0)
    evaluations = 0

    def evaluate(x):
        nonlocal evaluations
        if evaluations >= max_evaluations:
            raise _BudgetSpent
        evaluations += 1
        return f(np.copy(x))

    def by_value(sim, fsim):
        order = fsim.argsort()
        return sim.take(order, 0), fsim.take(order)

    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim[k + 1] = y
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = evaluate(sim[k])
    except _BudgetSpent:
        pass
    # sorted twice, as scipy does: argsort is not stable, so on tied values a
    # second sort need not keep the order the first one left
    sim, fsim = by_value(*by_value(sim, fsim))

    while evaluations < max_evaluations:
        # scipy's two tests, the values' first, on Python floats: it is the
        # cheaper one and fails on most iterations (a NaN fails either form)
        fs = fsim.tolist()
        if (
            all(abs(fj - fs[0]) <= SIMPLEX_FATOL for fj in fs[1:])
            and np.abs(sim[1:] - sim[0]).max() <= SIMPLEX_XATOL
        ):
            break
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = (1 + rho) * xbar - rho * sim[-1]
            fxr = evaluate(xr)
            shrink = False
            if fxr < fs[0]:
                xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
                fxe = evaluate(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fs[-2]:
                sim[-1], fsim[-1] = xr, fxr
            elif fxr < fs[-1]:
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = evaluate(xc)
                if fxc <= fxr:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    shrink = True
            else:
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = evaluate(xcc)
                if fxcc < fs[-1]:
                    sim[-1], fsim[-1] = xcc, fxcc
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = evaluate(sim[j])
        except _BudgetSpent:
            pass
        sim, fsim = by_value(sim, fsim)
    return sim[0], evaluations < max_evaluations


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
) -> SarimaxFit:
    """Estimate a SARIMAX model on a plain series (exog as an n x k array
    aligned with y, column order following spec.exog_names)."""
    y = np.asarray(y, dtype=float)
    _, d, _ = spec.order
    _, D, _, s = spec.seasonal_order
    nx = len(spec.exog_names)
    if nx:
        if exog is None:
            raise ValueError("spec names exogenous series but none were supplied")
        exog = _regressors(exog, len(y), nx, "exog")
        wx = difference(exog, d, D, s)

    w = difference(y, d, D, s)
    n = w.shape[0]
    x0 = np.zeros(spec.n_params - 1)
    *_, T0, _ = model_from_parameters(x0, spec)
    if n <= spec.n_params + 1 or n <= T0.shape[0]:
        raise FitError(f"series too short ({n} points) for spec {spec.key()}")
    if spec.includes_mean:
        x0[0] = float(w.mean())

    def centred(mean, beta):
        z = w - mean if spec.includes_mean else w  # w - 0.0 is w, -0.0 included
        return z - wx @ beta if nx else z

    def negloglik(zvec):
        mean, beta, *_, T, R = model_from_parameters(zvec, spec)
        ll, *_rest = concentrated_loglik(centred(mean, beta), T, R)
        return -ll if math.isfinite(ll) else 1e12

    if x0.size:
        zvec, converged = nelder_mead(negloglik, x0, max_evaluations)
    else:
        zvec = x0
        converged = True

    mean, beta, ar, ma, sar, sma, T, R = model_from_parameters(zvec, spec)
    ll, sigma2, v, F, a_next, P_next = concentrated_loglik(centred(mean, beta), T, R)
    if not np.isfinite(ll):
        raise FitError("likelihood is not finite at the optimum")

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
