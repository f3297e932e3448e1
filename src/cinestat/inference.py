"""Statistical tests and metrics: collinearity, residual diagnostics,
significance tests, clustering and classification scores."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_pipeline import DesignMatrix
from .numerics import RankDeficiencyError, least_squares
from .special import chi2_sf, f_sf

ALPHA = 0.05
DW_BAND = (1.5, 2.5)


@dataclass
class StatTestResult:
    name: str
    statistic: float
    p_value: float | None = None
    df: float | None = None
    reject_at_5pct: bool | None = None

    def __post_init__(self):
        if self.p_value is not None:
            self.reject_at_5pct = bool(self.p_value < ALPHA)


def r_squared(y: np.ndarray, fitted: np.ndarray) -> float:
    """Coefficient of determination of ``fitted`` against ``y``, about the mean."""
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return 1.0 - ss_res / ss_tot


def vif(X: DesignMatrix) -> dict[str, float]:
    """Variance inflation factor per column; exact collinearity reports inf."""
    values, names = X.values, X.column_names
    n, p = values.shape
    if p < 2:
        raise ValueError("need at least two columns")
    out = {}
    for j in range(p):
        others = np.column_stack([np.ones(n), np.delete(values, j, axis=1)])
        try:
            beta = least_squares(others, values[:, j])
        except RankDeficiencyError:
            out[names[j]] = float("inf")
            continue
        r2 = r_squared(values[:, j], others @ beta)
        out[names[j]] = float("inf") if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return out


def univariate_r2(X: DesignMatrix) -> dict[str, float]:
    """Squared Pearson correlation of every column with the target.

    Constant columns score 0.  The best single regressor is the argmax
    (ties broken by lexicographic column name, see select_best_regressor).
    """
    values, names, y = X.values, X.column_names, X.target
    if y.std() == 0:
        raise ValueError("constant target")
    yc = y - y.mean()
    out = {}
    for j, name in enumerate(names):
        col = values[:, j]
        if col.std() == 0:
            out[name] = 0.0
            continue
        xc = col - col.mean()
        r = float(xc @ yc) / math.sqrt(float(xc @ xc) * float(yc @ yc))
        out[name] = r * r
    return out


def select_best_regressor(scores: dict[str, float]) -> str:
    best = max(scores.values())
    return min(name for name, s in scores.items() if s == best)


def durbin_watson(residuals) -> StatTestResult:
    e = np.asarray(residuals, dtype=float)
    if e.size < 2:
        raise ValueError("need at least two residuals")
    denom = float(e @ e)
    if denom == 0.0:
        raise ValueError("zero residual sum of squares")
    dw = float(np.sum(np.diff(e) ** 2)) / denom
    return StatTestResult("durbin_watson", dw)


def moments(e: np.ndarray) -> tuple[float, float]:
    """Skewness and kurtosis of ``e``: the third and fourth moments of its
    standardized values."""
    sd = e.std()
    if sd == 0.0:
        raise ValueError("zero variance")
    z = (e - e.mean()) / sd
    return float(np.mean(z**3)), float(np.mean(z**4))


def jarque_bera(residuals) -> StatTestResult:
    e = np.asarray(residuals, dtype=float)
    n = e.size
    if n < 4:
        raise ValueError("need at least four residuals")
    skew, kurt = moments(e)
    jb = n / 6.0 * (skew**2 + (kurt - 3.0) ** 2 / 4.0)
    return StatTestResult("jarque_bera", jb, p_value=chi2_sf(jb, 2), df=2)


def breusch_godfrey(residuals, X: DesignMatrix, lags: int) -> StatTestResult:
    """LM serial-correlation test: n * R^2 of the auxiliary regression of the
    residuals on the original regressors plus zero-filled residual lags."""
    e = np.asarray(residuals, dtype=float)
    values = X.values
    n, p = values.shape
    if n <= p + lags:
        raise ValueError("too few observations for the requested lags")
    lagged = np.zeros((n, lags))
    for k in range(1, lags + 1):
        lagged[k:, k - 1] = e[:-k]
    aux = np.column_stack([np.ones(n), values, lagged])
    beta = least_squares(aux, e)
    # residuals are centered by the auxiliary intercept; R^2 about the mean
    lm = 0.0 if e.std() == 0.0 else max(n * r_squared(e, aux @ beta), 0.0)
    return StatTestResult("breusch_godfrey", lm, p_value=chi2_sf(lm, lags), df=lags)


def f_statistic(r2: float, n: int, p: int) -> StatTestResult:
    """Overall-significance F test for an OLS-family fit with intercept, from
    its R^2 on n rows and p regressors."""
    if n <= p + 1:
        raise ValueError("need n > p+1")
    if r2 >= 1.0 - 1e-12:
        return StatTestResult("f_statistic", float("inf"), p_value=0.0, df=p)
    f = (r2 / p) / ((1.0 - r2) / (n - p - 1))
    return StatTestResult("f_statistic", f, p_value=f_sf(f, p, n - p - 1), df=p)


def wald_test(fit) -> list[StatTestResult]:
    """Per-coefficient (beta/se)^2 chi-square(1) tests, constant first.

    A standard error that is 0 or not finite has no test: 0 would read as a
    certain rejection, or as NaN when beta is 0 too, so it raises, naming
    the coefficient."""
    if not fit.converged:
        raise ValueError("Wald test requires a converged fit")
    names = ["const"] + list(fit.feature_names)
    betas = np.concatenate([[fit.intercept], fit.coefficients])
    results = []
    for name, beta, se in zip(names, betas, fit.standard_errors):
        if not (math.isfinite(se) and se > 0.0):
            raise ValueError(f"coefficient {name!r} has standard error {se}, so it has no Wald test")
        w = (beta / se) ** 2
        results.append(StatTestResult(f"wald[{name}]", float(w), p_value=chi2_sf(w, 1), df=1))
    return results


def silhouette(X, labels) -> float:
    """Mean silhouette score under Euclidean distance; singletons score 0."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    # a stable sort by label makes each group one slice, its rows in their
    # original order
    order = np.argsort(labels, kind="stable")
    uniq, starts, sizes = np.unique(labels[order], return_index=True, return_counts=True)
    if uniq.size < 2:
        raise ValueError("need at least two distinct labels")
    groups = [slice(int(lo), int(lo + size)) for lo, size in zip(starts, sizes)]
    X = X[order]
    scores = np.zeros(X.shape[0])
    for own, size in zip(groups, sizes):
        if size == 1:
            continue
        others = [group for group in groups if group != own]
        for i in range(own.start, own.stop):
            # row i of the pairwise distance matrix, O(n*p) memory
            d = np.sqrt(((X[i] - X) ** 2).sum(axis=1))
            a = d[own].sum() / (size - 1)
            b = min(d[group].mean() for group in others)
            scores[order[i]] = (b - a) / max(a, b)
    return float(scores.mean())


def roc_auc(scores, binary_labels) -> float:
    """Area under the ROC curve; tied scores count as half-concordant."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(binary_labels)
    pos = s[y == 1]
    neg = s[y == 0]
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both classes must be present")
    # average ranks: a run of tied scores at 1-based ranks i..j takes (i + j) / 2
    _, group, counts = np.unique(s, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    n1 = pos.size
    pos_rank_sum = float(ranks[y == 1].sum())
    return (pos_rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * neg.size)


def confusion_and_accuracy(predicted, truth) -> tuple[np.ndarray, float]:
    """3x3 confusion matrix (rows = truth, cols = predicted) and trace accuracy."""
    predicted = np.asarray(predicted, dtype=int)
    truth = np.asarray(truth, dtype=int)
    if predicted.shape != truth.shape:
        raise ValueError("length mismatch")
    if not truth.size:
        raise ValueError("empty input")
    # a label outside {0, 1, 2} would land in another label's cell
    if not (np.isin(predicted, (0, 1, 2)) & np.isin(truth, (0, 1, 2))).all():
        raise ValueError("labels must lie in {0, 1, 2}")
    confusion = np.bincount(3 * truth + predicted, minlength=9).reshape(3, 3)
    return confusion, float(np.trace(confusion)) / truth.size


def jaccard(set_a, set_b) -> float:
    a, b = set(set_a), set(set_b)
    if not a and not b:
        raise ValueError("both sets empty")
    return len(a & b) / len(a | b)


def regression_validity(
    f_test: StatTestResult,
    durbin_watson: StatTestResult,
    jarque_bera: StatTestResult,
    lagrange_multiplier: StatTestResult,
) -> tuple[bool, list[str]]:
    """Rule a regression fit usable for further analysis.

    Requires normal errors (JB), no residual autocorrelation (LM p and a
    Durbin-Watson band around 2), and overall significance (F).
    """
    reasons = []
    if jarque_bera.p_value is None or jarque_bera.p_value < ALPHA:
        reasons.append("non-normal errors (Jarque-Bera)")
    if lagrange_multiplier.p_value is None or lagrange_multiplier.p_value < ALPHA:
        reasons.append("residual autocorrelation (LM)")
    if f_test.p_value is None or f_test.p_value >= ALPHA:
        reasons.append("overall regression insignificant (F)")
    if not DW_BAND[0] <= durbin_watson.statistic <= DW_BAND[1]:
        reasons.append("autocorrelation (Durbin-Watson outside [1.5, 2.5])")
    return (not reasons, reasons)
