"""Monthly metascore series, stationarity/autocorrelation diagnostics and
AIC-driven SARIMAX order selection."""

from __future__ import annotations

import datetime
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .inference import StatTestResult
from .special import chi2_sf
from .statespace import (
    MAX_EVALUATIONS, SEASONAL_PERIOD, FitError, SarimaxFit, SarimaxSpec, sarimax_fit, sarimax_forecast,
)

ADF_CRITICAL = ((0.01, -3.43), (0.05, -2.86), (0.10, -2.57))


@dataclass
class TimeSeries:
    start: int  # first month as year * 12 + month - 1, MovieTable.month's encoding
    values: np.ndarray
    exog: dict[str, np.ndarray] = field(default_factory=dict)
    interpolated: np.ndarray = None  # bool mask of gap-filled months

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.interpolated is None:
            self.interpolated = np.zeros(self.n, dtype=bool)
        elif np.shape(self.interpolated) != (self.n,):
            raise ValueError("interpolated mask must have one flag per month")
        self.exog = {name: np.asarray(series, dtype=float) for name, series in self.exog.items()}
        for name, series in self.exog.items():
            if series.shape[0] != self.n:
                raise ValueError(f"exogenous series {name!r} misaligned")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def months(self) -> list[datetime.date]:
        """First of each month of the series."""
        return _month_dates(self.start, self.n)

    def exog_matrix(self, names) -> np.ndarray:
        return np.column_stack([self.exog[name] for name in names]) if names else None


def _month_dates(first: int, count: int) -> list[datetime.date]:
    return [datetime.date(i // 12, i % 12 + 1, 1) for i in range(first, first + count)]


def future_months(series: TimeSeries, horizon: int) -> list[datetime.date]:
    return _month_dates(series.start + series.n, horizon)


def _monthly_means(month: np.ndarray, values: np.ndarray, full_range: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per month of ``full_range``, the mean of its finite ``values``, with
    ``month`` sorted; months without one are linearly interpolated and
    flagged.  Each month's sum is np.add.reduce over its values in row
    order, as np.mean takes it, so the means are np.mean's bit for bit."""
    present = np.isfinite(values)
    month, values = month[present], values[present]
    if not len(values):
        raise ValueError("no values to aggregate")
    known, starts, counts = np.unique(month, return_index=True, return_counts=True)
    bounds = starts.tolist() + [len(values)]
    means = np.array([np.add.reduce(values[a:b]) for a, b in zip(bounds, bounds[1:])]) / counts
    flags = np.ones(len(full_range), dtype=bool)
    flags[known - full_range[0]] = False
    out = np.empty(len(full_range))
    out[~flags] = means
    out[flags] = np.interp(full_range[flags], known, means)
    return out, flags


def aggregate_monthly(table, exog_fields: tuple[str, ...] = ()) -> TimeSeries:
    """Mean metascore per publication month of a MovieTable; empty months are
    linearly interpolated and flagged.  ``exog_fields`` may name numeric
    columns to aggregate as monthly means, plus the pseudo-field
    ``movie_count``."""
    scored = table.scored()
    if not len(scored):
        raise ValueError("no records with both date_published and metascore")
    order = np.argsort(scored.month, kind="stable")
    month = scored.month[order]
    full_range = np.arange(month[0], month[-1] + 1)
    values, flags = _monthly_means(month, scored.columns["metascore"][order], full_range)

    exog = {}
    for fld in exog_fields:
        if fld == "movie_count":
            exog[fld] = np.bincount(month - month[0], minlength=len(full_range)).astype(float)
        else:
            exog[fld], _ = _monthly_means(month, scored.columns[fld][order], full_range)

    return TimeSeries(int(month[0]), values, exog=exog, interpolated=flags)


def acf(series, nlags: int) -> np.ndarray:
    """Biased autocorrelation estimator (denominator n); acf[0] = 1."""
    y = np.asarray(series, dtype=float)
    n = y.shape[0]
    if nlags >= n:
        raise ValueError("nlags must be smaller than the series length")
    yc = y - y.mean()
    denom = float(yc @ yc)
    if denom == 0.0:
        raise ValueError("constant series")
    out = np.empty(nlags + 1)
    out[0] = 1.0
    for k in range(1, nlags + 1):
        out[k] = float(yc[k:] @ yc[:-k]) / denom
    return out


def _adf_p_value(stat: float) -> float:
    """Interpolate log10 p across the tabulated critical values, with linear
    extrapolation beyond the table, clamped to [1e-6, 0.999]."""
    xs = [cv for _, cv in ADF_CRITICAL]
    ys = [math.log10(p) for p, _ in ADF_CRITICAL]
    if stat <= xs[0]:
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        logp = ys[0] + slope * (stat - xs[0])
    elif stat >= xs[-1]:
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        logp = ys[-1] + slope * (stat - xs[-1])
    else:
        logp = float(np.interp(stat, xs, ys))
    return float(min(max(10.0**logp, 1e-6), 0.999))


def adf_test(series) -> StatTestResult:
    """Augmented Dickey-Fuller regression with constant; the statistic is the
    t-ratio of the lagged level, judged against the 5% critical value -2.86."""
    from .numerics import least_squares

    y = np.asarray(series, dtype=float)
    n = y.shape[0]
    if n < 20:
        raise ValueError("need at least 20 observations")
    lag = int(12 * (n / 100.0) ** 0.25)
    dy = np.diff(y)
    rows = n - 1 - lag
    if rows <= lag + 3:
        raise ValueError("series too short after lagging")
    target = dy[lag:]
    cols = [np.ones(rows), y[lag : n - 1]]
    for k in range(1, lag + 1):
        cols.append(dy[lag - k : n - 1 - k])
    Z = np.column_stack(cols)
    beta = least_squares(Z, target)
    resid = target - Z @ beta
    dof = rows - Z.shape[1]
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(Z.T @ Z)
    stat = float(beta[1] / math.sqrt(cov[1, 1]))
    result = StatTestResult("adf", stat, df=float(lag))
    result.p_value = _adf_p_value(stat)
    result.reject_at_5pct = stat < -2.86
    return result


def ljung_box(residuals, lags: int = 10) -> StatTestResult:
    e = np.asarray(residuals, dtype=float)
    n = e.shape[0]
    if n <= lags:
        raise ValueError("need more observations than lags")
    rho = acf(e, lags)
    q = n * (n + 2.0) * float(sum(rho[k] ** 2 / (n - k) for k in range(1, lags + 1)))
    return StatTestResult("ljung_box", q, p_value=chi2_sf(q, lags), df=lags)


def sarimax_grid_search(
    series: TimeSeries,
    grid: dict[str, tuple[int, ...]],
    exog_names: tuple[str, ...] = (),
    max_evaluations: int = MAX_EVALUATIONS,
) -> SarimaxFit:
    """Fit every (p,d,q)(P,D,Q) combination in the grid, with the seasonal
    period SEASONAL_PERIOD, and keep the minimum AIC; ties break toward the
    lexicographically smallest order tuple.

    Every candidate is scored on the same months, those from K = max d +
    SEASONAL_PERIOD * max D on, so that no candidate's AIC leaves out months
    that another one counts.  With one (d, D) in the grid, K is the first
    differenced month, so every candidate scores all of its months."""
    exog = series.exog_matrix(exog_names)
    score_from = max(grid["d"]) + SEASONAL_PERIOD * max(grid["D"])
    best: SarimaxFit | None = None
    failures = []
    combos = sorted(
        itertools.product(grid["p"], grid["d"], grid["q"], grid["P"], grid["D"], grid["Q"])
    )
    for p, d, q, P, D, Q in combos:
        try:
            spec = SarimaxSpec((p, d, q), (P, D, Q, SEASONAL_PERIOD), tuple(exog_names))
            fit = sarimax_fit(
                series.values, spec, exog=exog, max_evaluations=max_evaluations, score_from=score_from
            )
        except (FitError, ValueError) as exc:
            failures.append(((p, d, q, P, D, Q), str(exc)))
            continue
        if best is None or fit.aic < best.aic:  # the combos run in key order
            best = fit
    if best is None:
        raise FitError(f"all grid fits failed: {failures}")
    return best


def forecast(fit: SarimaxFit, horizon: int, future_exogenous=None):
    """Point forecasts with 95% intervals; thin wrapper over the state-space
    prediction recursion."""
    return sarimax_forecast(fit, horizon, future_exog=future_exogenous)
