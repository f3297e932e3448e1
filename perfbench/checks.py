"""Output checks on one invocation, and an independent likelihood oracle.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.linalg import solve_discrete_lyapunov, solve_triangular

FORECAST_HEADER = ["month", "point", "low", "high"]


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def forecast_problems(rows, horizon: int) -> list[str]:
    """``rows`` are (month, point, low, high); there must be ``horizon`` of
    them, all finite with low <= point <= high."""
    problems = []
    if len(rows) != horizon:
        problems.append(f"forecast has {len(rows)} rows, expected {horizon}")
    for i, row in enumerate(rows):
        if len(row) != 4:
            problems.append(f"forecast row {i} has {len(row)} fields")
        elif not all(_finite(v) for v in row[1:]):
            problems.append(f"forecast row {i} is not finite: {row}")
        elif not row[2] <= row[1] <= row[3]:
            problems.append(f"forecast row {i} violates low <= point <= high: {row}")
    return problems


def report_problems(report: dict, models, horizon: int) -> list[str]:
    """Checks on a ``run_pipeline`` report for the configured ``models``."""
    problems = []
    sections = report.get("models", {})
    for name in models:
        if name not in sections:
            problems.append(f"model section {name!r} is missing")
            continue
        accuracy = sections[name].get("accuracy")
        if not (_finite(accuracy) and 0.0 <= accuracy <= 1.0):
            problems.append(f"model {name!r} accuracy {accuracy!r} is not in [0, 1]")
    ts = report.get("timeseries", {})
    for key in ("log_likelihood", "aic"):
        if not _finite(ts.get(key)):
            problems.append(f"timeseries {key} {ts.get(key)!r} is not finite")
    problems += forecast_problems(report.get("series", {}).get("forecast", []), horizon)
    return problems


def forecast_csv_problems(text: str, horizon: int) -> list[str]:
    """Checks on the CSV that ``cinestat forecast`` prints."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != FORECAST_HEADER:
        return [f"forecast CSV header is {lines[0] if lines else None!r}, expected {FORECAST_HEADER}"]
    rows = []
    for line in lines[1:]:
        try:
            rows.append([line[0], *(float(v) for v in line[1:])])
        except (IndexError, ValueError):
            rows.append(line)
    return forecast_problems(rows, horizon)


def _difference(values: np.ndarray, d: int, D: int, s: int) -> np.ndarray:
    for _ in range(d):
        values = values[1:] - values[:-1]
    for _ in range(D):
        values = values[s:] - values[:-s]
    return values


def dense_loglik(z: np.ndarray, T: np.ndarray, R: np.ndarray, sigma2: float) -> float:
    """Gaussian log-density of ``z`` under the stationary state-space model
    (T, R, Z = e1) with innovation variance ``sigma2``, from the dense n x n
    covariance and its Cholesky factor."""
    n = z.shape[0]
    P0 = solve_discrete_lyapunov(T, np.outer(R, R))
    gamma = np.empty(n)
    M = P0
    for k in range(n):
        gamma[k] = M[0, 0]
        M = T @ M
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    L = np.linalg.cholesky(sigma2 * gamma[lags])
    alpha = solve_triangular(L, z, lower=True)
    return -0.5 * (n * math.log(2.0 * math.pi) + float(alpha @ alpha)) - float(np.sum(np.log(np.diag(L))))


def loglik_oracle(fit, series, tolerance: float = 1e-8) -> dict:
    """Compare ``fit.log_likelihood`` with ``dense_loglik`` on the differenced
    series, using the fit's own T, R, mean, exog coefficients and sigma2.

    The absolute gap must be within ``tolerance``.  A fit whose filter
    started diffuse has no stationary covariance to compare with, so the
    check is skipped with that reason.
    """
    from cinestat.statespace import stationary_covariance

    if stationary_covariance(fit._T, fit._R) is None:
        return {"status": "skipped", "reason": "diffuse start: the transition has no stationary covariance"}
    p, d, q = fit.spec.order
    P, D, Q, s = fit.spec.seasonal_order
    z = _difference(np.asarray(series.values, dtype=float), d, D, s) - fit.mean
    if fit.spec.exog_names:
        exog = _difference(series.exog_matrix(fit.spec.exog_names), d, D, s)
        z = z - exog @ fit.exog_coef
    expected = dense_loglik(z, fit._T, fit._R, fit.sigma2)
    gap = abs(expected - fit.log_likelihood)
    return {
        "status": "pass" if gap <= tolerance else "fail",
        "spec": list(fit.spec.key()),
        "log_likelihood": fit.log_likelihood,
        "dense_log_likelihood": expected,
        "gap": gap,
        "tolerance": tolerance,
    }
