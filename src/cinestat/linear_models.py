"""OLS, ridge, lasso, and logistic regression fits with prediction helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_pipeline import DesignMatrix
from .inference import confusion_and_accuracy
from .numerics import cholesky_solve, least_squares

LASSO_TOL = 1e-7
LASSO_MAX_SWEEPS = 10_000
LOGISTIC_TOL = 1e-9
LOGISTIC_MAX_ITER = 100
SEPARATION_NORM = 1e4


@dataclass
class LinearFit:
    intercept: float
    feature_names: list[str]
    coefficients: np.ndarray
    lam: float = 0.0
    converged: bool = True

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if len(self.feature_names) != self.coefficients.shape[0]:
            raise ValueError("coefficient names must match coefficient count")

    @property
    def named(self) -> dict[str, float]:
        return dict(zip(self.feature_names, self.coefficients.tolist()))


@dataclass
class LogisticFit:
    intercept: float
    feature_names: list[str]
    coefficients: np.ndarray
    standard_errors: np.ndarray  # intercept first, then features
    converged: bool
    iterations: int
    log_likelihood: float = float("nan")

    @property
    def named(self) -> dict[str, float]:
        return dict(zip(self.feature_names, self.coefficients.tolist()))


def fit_ols(X: DesignMatrix) -> LinearFit:
    """Least-squares fit with intercept; simple regression is just p = 1."""
    n, p = X.n, X.p
    if n <= p + 1:
        raise ValueError(f"need n > p+1, got n={n}, p={p}")
    Z = np.column_stack([np.ones(n), X.values])
    beta = least_squares(Z, X.target)
    return LinearFit(float(beta[0]), X.column_names, beta[1:])


def fit_ridge(X: DesignMatrix, lam: float) -> LinearFit:
    """L2-penalized fit; features centered so the intercept stays unpenalized."""
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be a finite number > 0, got {lam}")
    x_mean = X.values.mean(axis=0)
    y_mean = X.target.mean()
    Xc = X.values - x_mean
    yc = X.target - y_mean
    A = Xc.T @ Xc + lam * np.eye(X.p)
    beta = cholesky_solve(A, Xc.T @ yc)
    intercept = y_mean - float(x_mean @ beta)
    return LinearFit(intercept, X.column_names, beta, lam=lam)


def fit_lasso(X: DesignMatrix, lam: float) -> LinearFit:
    """Cyclic coordinate descent on (1/2n)||y - b0 - Xb||^2 + lam*||b||_1.

    Features are standardized internally; coefficients are reported on the
    original scale.  Constant columns get a zero coefficient.
    """
    if not 0 < lam < np.inf:
        raise ValueError(f"lambda must be a finite number > 0, got {lam}")
    n, p = X.n, X.p
    x_mean = X.values.mean(axis=0)
    x_std = X.values.std(axis=0)
    active = x_std > 0
    scale = np.where(active, x_std, 1.0)
    Xs = (X.values - x_mean) / scale
    y_mean = X.target.mean()
    yc = X.target - y_mean

    beta = np.zeros(p)
    resid = yc.copy()
    converged = False
    for _ in range(LASSO_MAX_SWEEPS):
        max_delta = 0.0
        for j in range(p):
            if not active[j]:
                continue
            xj = Xs[:, j]
            rho = (resid @ xj) / n + beta[j]  # columns have unit variance
            new = np.sign(rho) * max(abs(rho) - lam, 0.0)
            if new != beta[j]:
                resid -= (new - beta[j]) * xj
                max_delta = max(max_delta, abs(new - beta[j]))
                beta[j] = new
        if max_delta < LASSO_TOL:
            converged = True
            break

    beta_orig = beta / scale
    beta_orig[~active] = 0.0
    intercept = y_mean - float(x_mean @ beta_orig)
    return LinearFit(intercept, X.column_names, beta_orig, lam=lam, converged=converged)


def _log_likelihood(eta: np.ndarray, y: np.ndarray) -> float:
    # log p = y*eta - log(1 + exp(eta)), computed stably
    return float(y @ eta - np.logaddexp(0.0, eta).sum())


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-eta))


def _irls_terms(Z: np.ndarray, beta: np.ndarray):
    """Linear predictor, fitted probabilities and observed information of a
    logistic fit at ``beta``."""
    eta = Z @ beta
    p = _sigmoid(eta)
    w = np.clip(p * (1.0 - p), 1e-10, None)
    return eta, p, Z.T @ (Z * w[:, None])


def fit_logistic(X: DesignMatrix) -> LogisticFit:
    """Maximum-likelihood logistic fit by IRLS with step halving.

    The target must be 0/1 with both classes present.  Standard errors come
    from the inverse observed information at the final iterate.  Complete
    separation (coefficient norm blowing up) is flagged via converged=False.
    """
    y = X.target
    if not set(y.tolist()) == {0.0, 1.0}:
        raise ValueError("target must contain both 0 and 1")
    n = X.n
    Z = np.column_stack([np.ones(n), X.values])
    beta = np.zeros(Z.shape[1])
    ll = _log_likelihood(Z @ beta, y)
    converged = False
    iterations = 0
    for iterations in range(1, LOGISTIC_MAX_ITER + 1):
        _, p, info = _irls_terms(Z, beta)
        step = cholesky_solve(info, Z.T @ (y - p))
        # halve until the likelihood improves
        factor = 1.0
        for _ in range(30):
            beta_next = beta + factor * step
            new_ll = _log_likelihood(Z @ beta_next, y)
            if new_ll >= ll:
                break
            factor *= 0.5
        else:
            beta_next = beta + factor * step
            new_ll = _log_likelihood(Z @ beta_next, y)
        beta = beta_next
        ll, prev_ll = new_ll, ll
        if np.linalg.norm(beta) > SEPARATION_NORM:
            break
        if abs(ll - prev_ll) < LOGISTIC_TOL:
            converged = True
            break

    _, _, info = _irls_terms(Z, beta)
    cov = np.linalg.inv(info)
    se = np.sqrt(np.diag(cov))
    return LogisticFit(
        intercept=float(beta[0]),
        feature_names=X.column_names,
        coefficients=beta[1:],
        standard_errors=se,
        converged=converged,
        iterations=iterations,
        log_likelihood=ll,
    )


def predict(fit: LinearFit | LogisticFit, X) -> np.ndarray:
    """Linear predictor of the rows of ``X``, its columns in the fit's feature
    order: metascore for a LinearFit, log-odds for a LogisticFit."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != len(fit.feature_names):
        raise ValueError(f"column mismatch: X has {X.shape[1]} columns, the fit {len(fit.feature_names)}")
    return fit.intercept + X @ fit.coefficients


def predict_proba(fit: LogisticFit, X) -> np.ndarray:
    return _sigmoid(predict(fit, X))


def binned_labels(scores, binner) -> np.ndarray:
    """Ternary labels of continuous metascores: clamp to [0, 100], round half
    to even, bin."""
    return binner(np.round(np.clip(scores, 0, 100)))


def evaluate_binned(fit: LinearFit, X: DesignMatrix, binner) -> tuple[np.ndarray, float]:
    """Confusion matrix (rows = truth, cols = predicted) and accuracy of a
    continuous metascore fit judged through ternary bins."""
    return confusion_and_accuracy(binned_labels(predict(fit, X.values), binner), binned_labels(X.target, binner))
