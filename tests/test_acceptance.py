"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from cinestat.config import RunConfig
from cinestat.data_pipeline import ClassLabel, DesignMatrix
from cinestat.inference import (
    breusch_godfrey,
    durbin_watson,
    jaccard,
    jarque_bera,
    roc_auc,
    silhouette,
)
from cinestat.classifiers import kmeans_classify, kmeans_fit, ordinal_svm_fit, ordinal_svm_predict
from cinestat.linear_models import fit_lasso, fit_ols, fit_ridge
from cinestat.neural import mlp_gradients, mlp_init, mlp_loss, one_hot
from cinestat.statespace import (
    build_state_space,
    initial_covariance,
    kalman_filter,
    _pacf_to_coeffs,
)
from cinestat.timeseries import adf_test, ljung_box


def _criterion(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {number:02d} [{name}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _dm(values, target):
    values = np.asarray(values, dtype=float)
    names = [f"x{j}" for j in range(values.shape[1])]
    return DesignMatrix(names, values, np.asarray(target, dtype=float))


def test_criterion_01_ols_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 201))
        p = int(rng.integers(1, 7))
        X = rng.normal(size=(n, p))
        y = rng.normal(size=n)
        fit = fit_ols(_dm(X, y))
        Z = np.column_stack([np.ones(n), X])
        oracle = np.linalg.solve(Z.T @ Z, Z.T @ y)
        got = np.r_[fit.intercept, fit.coefficients]
        worst = max(worst, float(np.max(np.abs(got - oracle))))
    elapsed = time.monotonic() - start
    _criterion(
        1, "OLS oracle equivalence", worst < 1e-8 and elapsed < 5.0,
        f"max error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_penalty_limiting_consistency():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 4))
    y = X @ [1.0, -2.0, 0.5, 0.0] + rng.normal(size=60)
    dm = _dm(X, y)
    ols = fit_ols(dm)
    ridge = fit_ridge(dm, 1e-10)
    lasso = fit_lasso(dm, 1e-10)
    close = max(
        float(np.max(np.abs(ridge.coefficients - ols.coefficients))),
        float(np.max(np.abs(lasso.coefficients - ols.coefficients))),
    )
    # analytic all-zero threshold: lambda >= max_j |x_j . y_c| / n on the
    # standardized problem forces every slope to exactly zero
    x_mean, x_std = X.mean(axis=0), X.std(axis=0)
    Xs = (X - x_mean) / x_std
    yc = y - y.mean()
    lam_max = float(np.max(np.abs(Xs.T @ yc))) / 60
    dead = fit_lasso(dm, lam_max * 1.01)
    all_zero = bool(np.all(dead.coefficients == 0.0))
    _criterion(
        2, "ridge/lasso limiting consistency", close < 1e-4 and all_zero,
        f"limit gap {close:.2e}, zero slopes {all_zero}",
    )


def test_criterion_03_mlp_gradient_check():
    start = time.monotonic()
    worst = 0.0
    h = 1e-5
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = mlp_init(seed, (3, 6, 3))
        X = rng.normal(size=(5, 3))
        Y = one_hot(rng.integers(0, 3, 5))
        grads = mlp_gradients(model, X, Y)
        for param, grad in zip(model.parameters(), grads):
            flat, gflat = param.ravel(), grad.ravel()
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = mlp_loss(model, X, Y)
                flat[idx] = orig - h
                down = mlp_loss(model, X, Y)
                flat[idx] = orig
                numeric = (up - down) / (2 * h)
                denom = max(abs(numeric), abs(gflat[idx]), 1e-8)
                worst = max(worst, abs(numeric - gflat[idx]) / denom)
    elapsed = time.monotonic() - start
    _criterion(
        3, "MLP gradient check", worst < 1e-4 and elapsed < 10.0,
        f"max relative error {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_kalman_likelihood_exactness():
    from scipy import stats

    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n_ar = int(rng.integers(0, 3))
        n_ma = int(rng.integers(0, 3))
        a = _pacf_to_coeffs(rng.uniform(-0.9, 0.9, size=n_ar))
        m = rng.uniform(-0.7, 0.7, size=n_ma)
        T, R = build_state_space(a, m)
        P0 = initial_covariance(T, R)
        n = int(rng.integers(2, 7))
        z = rng.normal(size=n)
        v, F, _, _ = kalman_filter(z, T, R)
        sigma2 = float(rng.uniform(0.5, 2.0))
        ll_filter = (
            -0.5 * n * math.log(2 * math.pi * sigma2)
            - 0.5 * float(np.sum(np.log(F)))
            - 0.5 / sigma2 * float(np.sum(v * v / F))
        )
        # brute-force joint covariance of the observations
        RR = np.outer(R, R)
        S = [P0]
        for _ in range(n - 1):
            S.append(T @ S[-1] @ T.T + RR)
        Sigma = np.empty((n, n))
        for t in range(n):
            Sigma[t, t] = S[t][0, 0]
            M = S[t]
            for u in range(t + 1, n):
                M = T @ M
                Sigma[u, t] = Sigma[t, u] = M[0, 0]
        ll_direct = stats.multivariate_normal(np.zeros(n), sigma2 * Sigma).logpdf(z)
        worst = max(worst, abs(ll_filter - ll_direct))
    _criterion(4, "Kalman vs joint-Gaussian likelihood", worst < 1e-8, f"max gap {worst:.2e}")


def test_criterion_05_statistical_test_calibration():
    start = time.monotonic()
    reps = 50
    n = 500
    dw_stats = []
    jb_null = jb_alt = lb_null = lb_alt = bg_null = bg_alt = 0
    adf_wn_ok = adf_rw_reject = 0
    for rep in range(reps):
        rng = np.random.default_rng(1000 + rep)
        wn = rng.normal(size=n)
        dw_stats.append(durbin_watson(wn).statistic)
        jb_null += int(jarque_bera(wn).reject_at_5pct)
        jb_alt += int(jarque_bera(rng.standard_t(df=3, size=n)).reject_at_5pct)
        lb_null += int(ljung_box(wn, lags=10).reject_at_5pct)
        ar = np.zeros(n)
        for t in range(1, n):
            ar[t] = 0.8 * ar[t - 1] + rng.normal()
        lb_alt += int(ljung_box(ar, lags=10).reject_at_5pct)
        # the LM test expects OLS residuals on the supplied regressors
        X = rng.normal(size=(n, 2))
        Z = np.column_stack([np.ones(n), X])
        H = Z @ np.linalg.solve(Z.T @ Z, Z.T)
        bg_null += int(breusch_godfrey(wn - H @ wn, X, lags=2).reject_at_5pct)
        bg_alt += int(breusch_godfrey(ar - H @ ar, X, lags=2).reject_at_5pct)
        adf_wn_ok += int(adf_test(wn).statistic < -3.0)
        rw = np.cumsum(rng.normal(size=n))
        adf_rw_reject += int(adf_test(rw).statistic < -2.86)
    elapsed = time.monotonic() - start
    dw_mean = float(np.mean(dw_stats))
    ok = (
        abs(dw_mean - 2.0) < 0.15
        and jb_null <= 5 and jb_alt >= 45
        and lb_null <= 5 and lb_alt >= 45
        and bg_null <= 5 and bg_alt >= 45
        and adf_wn_ok >= 45 and adf_rw_reject <= 5
        and elapsed < 60.0
    )
    _criterion(
        5, "statistical-test calibration", ok,
        f"DW mean {dw_mean:.3f}; null rejects JB/LB/BG {jb_null}/{lb_null}/{bg_null}; "
        f"alt rejects {jb_alt}/{lb_alt}/{bg_alt}; ADF wn {adf_wn_ok}, rw {adf_rw_reject}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_06_metric_oracles():
    auc_ok = True
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(6, 30))
        scores = np.round(rng.normal(size=m), 1)  # rounded to force ties
        y = rng.integers(0, 2, size=m)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        pos, neg = scores[y == 1], scores[y == 0]
        conc = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
        brute = conc / (len(pos) * len(neg))
        if roc_auc(scores, y) != pytest.approx(brute, abs=1e-14):
            auc_ok = False
            break

    sil_gap = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(10, 101))
        X = rng.normal(size=(m, 3))
        labels = rng.integers(0, 3, size=m)
        labels[:3] = [0, 1, 2]
        vals = []
        for i in range(m):
            own = labels == labels[i]
            if own.sum() == 1:
                vals.append(0.0)
                continue
            d = np.sqrt(((X - X[i]) ** 2).sum(axis=1))
            a = d[own].sum() / (own.sum() - 1)
            b = min(d[labels == u].mean() for u in np.unique(labels) if u != labels[i])
            vals.append((b - a) / max(a, b))
        sil_gap = max(sil_gap, abs(silhouette(X, labels) - float(np.mean(vals))))
    _criterion(
        6, "ROC-AUC / silhouette oracles", auc_ok and sil_gap < 1e-12,
        f"silhouette gap {sil_gap:.2e}",
    )


def test_criterion_07_pinned_constants():
    cfg = RunConfig(dataset="unused.csv")
    j_mlr = jaccard(cfg.features["mlr"], cfg.features_2020["mlr"])
    j_svm = jaccard(cfg.features["svm"], cfg.features_2020["svm"])
    jaccard_ok = j_mlr == pytest.approx(4.0 / 18.0, abs=1e-12) and j_svm == pytest.approx(
        6.0 / 11.0, abs=1e-12
    )
    aic_ok = abs((2 * 9 + 2 * 965.539) - 1949.079) <= 0.01
    _criterion(
        7, "pinned attribute-overlap and AIC constants", jaccard_ok and aic_ok,
        f"jaccard {j_mlr:.4f}/{j_svm:.4f}",
    )


def test_criterion_08_classifier_sanity():
    rng = np.random.default_rng(8)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    X = np.vstack([rng.normal(c, 0.3, (40, 2)) for c in centers])
    truth = [ClassLabel(i) for i in range(3) for _ in range(40)]
    model = kmeans_fit(X, 3, seed=0)
    preds = kmeans_classify(model, truth, X)
    purity = sum(p == t for p, t in zip(preds, truth)) / len(truth)
    sil = silhouette(X, [int(p) for p in preds])

    # 1-D separable ordinal fixture
    x = np.concatenate([rng.uniform(-3, -1.5, 40), rng.uniform(-0.5, 0.5, 40), rng.uniform(1.5, 3, 40)])
    labels = [ClassLabel(i) for i in range(3) for _ in range(40)]
    svm = ordinal_svm_fit(x.reshape(-1, 1), labels, C=1.0, epochs=200, seed=0)
    svm_preds = ordinal_svm_predict(svm, x.reshape(-1, 1))
    svm_acc = sum(p == t for p, t in zip(svm_preds, labels)) / len(labels)
    ok = purity > 0.99 and sil > 0.9 and svm_acc == 1.0 and svm.b1 < svm.b2
    _criterion(
        8, "K-means and ordinal-SVM sanity", ok,
        f"purity {purity:.3f}, silhouette {sil:.3f}, svm accuracy {svm_acc:.3f}",
    )


def test_criterion_09_end_to_end_determinism(pipeline_runs):
    (report_a, json_a, t_a), (report_b, json_b, t_b) = pipeline_runs
    identical = json_a.encode() == json_b.encode()
    fast = max(t_a, t_b) < 120.0
    _criterion(
        9, "byte-identical deterministic pipeline", identical and fast,
        f"runs {t_a:.1f}s / {t_b:.1f}s",
    )


def test_criterion_10_optional_dataset_reproduction():
    path = os.environ.get("CINESTAT_FULL_DATASET", "")
    if not path or not os.path.exists(path):
        print("ACCEPTANCE 10 [optional full-dataset reproduction]: SKIPPED (no dataset)")
        pytest.skip("full dataset not supplied; set CINESTAT_FULL_DATASET to enable")
    from cinestat.pipeline import run_pipeline

    report = run_pipeline(RunConfig(dataset=path))
    targets = {"mlr": 0.7116, "logistic": 0.76, "svm": 0.71, "ann": 0.8616}
    gaps = {
        name: abs(report["models"][name]["accuracy"] - target)
        for name, target in targets.items()
        if name in report["models"]
    }
    within = all(g <= 0.08 for g in gaps.values())
    detail = ", ".join(f"{k} gap {v:.3f}" for k, v in gaps.items())
    # informational only: a miss is reported but never fails the suite
    print(
        f"ACCEPTANCE 10 [optional full-dataset reproduction]: "
        f"{'PASS' if within else 'OUT-OF-BAND (non-fatal)'} ({detail})"
    )
