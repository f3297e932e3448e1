"""Tail probabilities for the chi-square and F distributions.

The regularized incomplete gamma function uses the classic split: a power
series for x < a+1 and a continued fraction otherwise.  The regularized
incomplete beta function uses a continued fraction with the symmetry flip at
x = (a+1)/(a+b+2).  One modified-Lentz loop evaluates both fractions
(Thompson & Barnett 1986).  log-gamma comes from the stdlib.
"""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300


def gammainc_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x)."""
    if not a > 0.0:
        raise ValueError("a must be positive")
    if not x >= 0.0:
        raise ValueError("x must be non-negative")
    if x == 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def _gamma_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _lentz(c: float, d: float, terms) -> float:
    """Modified Lentz evaluation of a continued fraction from its first
    ratios ``c`` and ``d`` (``d`` already inverted).  ``terms`` yields groups
    of (partial numerator, partial denominator) pairs; convergence is tested
    after each group."""
    h = d
    for group in terms:
        for an, b in group:
            d = b + an * d
            if abs(d) < _TINY:
                d = _TINY
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _gamma_cf(a: float, x: float) -> float:
    b = x + 1.0 - a
    d = 1.0 / b if b != 0.0 else 1.0 / _TINY
    return _lentz(1.0 / _TINY, d, _gamma_terms(a, b)) * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_terms(a: float, b: float):
    for i in range(1, _MAX_ITER + 1):
        b += 2.0
        yield ((-i * (i - a), b),)


def betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if not (a > 0.0 and b > 0.0):
        raise ValueError("a and b must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def _beta_cf(a: float, b: float, x: float) -> float:
    # each group is one odd and one even step of the fraction
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    return _lentz(1.0, 1.0 / d, (
        ((m * (b - m) * x / ((qam + 2 * m) * (a + 2 * m)), 1.0),
         (-(a + m) * (qab + m) * x / ((a + 2 * m) * (qap + 2 * m)), 1.0))
        for m in range(1, _MAX_ITER + 1)
    ))


def chi2_sf(x: float, df: float) -> float:
    """P(X > x) for chi-square with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if x <= 0.0:
        return 1.0
    return gammainc_upper(df / 2.0, x / 2.0)


def f_sf(x: float, df1: float, df2: float) -> float:
    """P(X > x) for the F distribution with (df1, df2) degrees of freedom."""
    if df1 <= 0 or df2 <= 0:
        raise ValueError("degrees of freedom must be positive")
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    return betainc(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * x))
