"""End-to-end benchmark pipeline: ingest, preprocess, fit every model, run
every applicable test, and assemble the comparison report."""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import classifiers, inference, linear_models, neural, timeseries
from .config import RunConfig
from .data_pipeline import (
    LABEL_LETTERS,
    ClassLabel,
    DesignMatrix,
    MovieTable,
    build_design_matrix,
    feature_rows,
    load_movies,
    make_binner,
    split_by_year,
)
from .statespace import SEASONAL_PERIOD


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage {stage!r} failed: {cause}")


def run_stage(stage: str, fn, *args):
    """Return ``fn(*args)``; any exception it raises becomes StageError(stage)."""
    try:
        return fn(*args)
    except Exception as exc:
        raise StageError(stage, exc) from exc


def _py(value):
    """The report value in JSON types, recursively; a non-finite float becomes its repr."""
    if isinstance(value, dict):
        return {k: _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    if isinstance(value, np.ndarray):
        return _py(value.tolist())
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if math.isfinite(v) else repr(v)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, inference.StatTestResult):
        return _py(dataclasses.asdict(value))
    return value


def run_pipeline(config: RunConfig) -> dict:
    """Execute the full pipeline; returns the report as a plain dict.

    Any stage failure aborts with StageError naming the stage; a partial
    report is never returned.
    """
    report: dict = {
        "config": {
            "dataset": config.dataset,
            "seed": config.seed,
            "bin_thresholds": config.bin_thresholds,
            "ridge_lambda": config.ridge_lambda,
            "lasso_lambda": config.lasso_lambda,
            "models": config.models,
        },
        "models": {},
    }
    binner = make_binner(*config.bin_thresholds)
    loaded, train, val = run_stage("ingest", _ingest, config)
    report["config"]["n_rows"] = len(loaded.records)
    report["config"]["n_dropped"] = loaded.dropped
    report["config"]["n_train"] = len(train)
    report["config"]["n_validation"] = len(val)

    predictors = {}  # model name -> (feature names, vectorized predict)
    for name, fit_model in MODEL_STAGES:
        if name in config.models:
            row, entries, predictors[name] = run_stage(
                name, fit_and_score, name, fit_model, config, train, val, binner
            )
            report["models"][name] = row
            report.update(entries)

    ts_table, series_out = run_stage("timeseries", _timeseries_section, config, loaded.records)
    report["timeseries"] = ts_table
    report.setdefault("series", {}).update(series_out)

    # --- jaccard availability table ------------------------------------
    jaccard_table = []
    for name in ("mlr", "logistic", "svm"):
        if name in config.models and name in config.features_2020:
            a = config.features[name]
            b = config.features_2020[name]
            inter = len(set(a) & set(b))
            union = len(set(a) | set(b))
            jaccard_table.append(
                {
                    "model": name,
                    "attributes": sorted(a),
                    "attributes_2020": sorted(b),
                    "intersection": inter,
                    "union": union,
                    "jaccard": inference.jaccard(a, b),
                }
            )
    report["jaccard_table"] = jaccard_table

    # --- validity rulings -----------------------------------------------
    report["validity"] = {
        name: report["models"][name]["validity"]
        for name in report["models"]
        if "validity" in report["models"][name]
    }

    report["per_movie"] = run_stage(
        "per_movie", predict_movies, predictors, val, binner, config.per_movie_rows
    )
    if config.test_2020:
        report["test_2020"] = run_stage("test_2020", _evaluate_2020, config, predictors, binner)
    return _py(report)


def _ingest(config):
    loaded = load_movies(config.dataset, config.column_map)
    split = split_by_year(loaded.records)
    train, val = split.train.scored(), split.validation.scored()
    if not len(train) or not len(val):
        raise ValueError("empty train or validation partition after filtering")
    return loaded, train, val


# --------------------------------------------------------------------------
# model stages: each fits on the training partition and returns (report row,
# other top-level report entries, predict), where predict maps a feature
# matrix in the row's "features" column order to an int array of ClassLabel
# values, one per row.  fit_and_score adds the validation accuracy.


NO_COMPLETE_VALIDATION_ROW = "no validation row carries every feature"


def fit_and_score(name, fit_model, config, train, val, binner):
    """Fit one model stage and score the predict it serves on the validation
    partition.  Returns the report row, the other report entries and the
    model's (feature names, predict) pair."""
    row, entries, predict = fit_model(name, config, train, val, binner)
    predictor = (row["features"], predict)
    scored = score(name, predictor, val, binner)
    if scored is None:
        raise ValueError(NO_COMPLETE_VALIDATION_ROW)
    confusion, row["accuracy"] = scored
    if name != "logistic":  # a binary model has no ternary confusion matrix
        row["confusion"] = confusion
    return row, entries, predictor


def _regression_diagnostics(fit, train_dm):
    fitted = linear_models.predict(fit, train_dm.values)
    resid = train_dm.target - fitted
    n, p = train_dm.n, train_dm.p
    r2 = inference.r_squared(train_dm.target, fitted)
    adj_r2 = 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)
    f_test = inference.f_statistic(r2, n, p)
    dw = inference.durbin_watson(resid)
    jb = inference.jarque_bera(resid)
    lm = inference.breusch_godfrey(resid, train_dm, lags=min(10, n - p - 2))
    valid, reasons = inference.regression_validity(f_test, dw, jb, lm)
    return {
        "family": "regression",
        "features": list(train_dm.column_names),
        "coefficients": {"intercept": fit.intercept, **fit.named},
        "r2": r2,
        "adjusted_r2": adj_r2,
        "f_statistic": f_test,
        "durbin_watson": dw,
        "jarque_bera": jb,
        "lagrange_multiplier": lm,
        "validity": {"valid": valid, "reasons": reasons},
    }


def _fit_slr(name, config, train, val, binner):
    dm = build_design_matrix(train, config.slr_candidates, "metascore")
    scores = inference.univariate_r2(dm)
    best = inference.select_best_regressor(scores)
    row, entries, predict = _fit_linear(name, config, train, val, binner, feats=[best])
    row["selected_feature"] = best
    row["univariate_r2"] = scores
    return row, entries, predict


def _fit_linear(name, config, train, val, binner, feats=None):
    feats = feats or config.features[name]
    train_dm = build_design_matrix(train, feats, "metascore")
    if name == "ridge":
        fit = linear_models.fit_ridge(train_dm, config.ridge_lambda)
    elif name == "lasso":
        fit = linear_models.fit_lasso(train_dm, config.lasso_lambda)
    else:
        fit = linear_models.fit_ols(train_dm)
    row = _regression_diagnostics(fit, train_dm)
    if name == "mlr":
        row["vif"] = inference.vif(train_dm)
    if name in ("ridge", "lasso"):
        row["lambda"] = fit.lam
    return row, {}, lambda X: linear_models.binned_labels(linear_models.predict(fit, X), binner)


def _fit_logistic_model(name, config, train, val, binner):
    feats = config.features[name]
    dm = build_design_matrix(train, feats, "metascore")
    fit = linear_models.fit_logistic(
        DesignMatrix(dm.column_names, dm.values, binner(dm.target) == ClassLabel.HIT)
    )

    def predict(X):
        return np.where(linear_models.predict(fit, X) >= 0, ClassLabel.HIT, ClassLabel.FLOP)

    Xv, kept = feature_rows(val, feats)
    if not kept:  # before roc_auc, which would blame the classes
        raise ValueError(NO_COMPLETE_VALIDATION_ROW)
    hit = binner(val.columns["metascore"][kept]) == ClassLabel.HIT
    auc = inference.roc_auc(linear_models.predict_proba(fit, Xv), hit.astype(int))
    wald = inference.wald_test(fit) if fit.converged else []
    row = {
        "family": "logistic",
        "features": feats,
        "coefficients": {"intercept": fit.intercept, **fit.named},
        "converged": fit.converged,
        "iterations": fit.iterations,
        "roc_auc": auc,
    }
    return row, {"wald_table": wald}, predict


def _scaled_training(feats, train, binner):
    """The standardizing map by the training moments, the standardized
    training features and their binned labels."""
    train_dm = build_design_matrix(train, feats, "metascore")
    mean = train_dm.values.mean(axis=0)
    std = train_dm.values.std(axis=0)
    std = np.where(std > 0, std, 1.0)

    def scale(X):
        return (X - mean) / std

    return scale, scale(train_dm.values), binner(train_dm.target)


def _fit_kmeans(name, config, train, val, binner):
    feats = config.features[name]
    scale, Xt, yt = _scaled_training(feats, train, binner)
    model = classifiers.kmeans_fit(Xt, 3, seed=config.seed, restarts=config.kmeans_restarts)
    Xv = scale(feature_rows(val, feats)[0])
    predicted = classifiers.kmeans_classify(model, yt, Xv)
    row = {
        "family": "classifier",
        "features": feats,
        "silhouette": _predicted_silhouette(Xv, predicted),
        "inertia": model.inertia,
        "cluster_to_class": {str(j): LABEL_LETTERS[c] for j, c in enumerate(model.cluster_to_class)},
    }
    return row, {}, lambda X: classifiers.kmeans_predict(model, scale(X))


def _fit_svm(name, config, train, val, binner):
    feats = config.features[name]
    scale, Xt, yt = _scaled_training(feats, train, binner)
    model = classifiers.ordinal_svm_fit(Xt, yt, C=config.svm_C, epochs=config.svm_epochs, seed=config.seed)
    Xv = scale(feature_rows(val, feats)[0])
    row = {
        "family": "classifier",
        "features": feats,
        "silhouette": _predicted_silhouette(Xv, classifiers.ordinal_svm_predict(model, Xv)),
        "thresholds": [model.b1, model.b2],
    }
    return row, {}, lambda X: classifiers.ordinal_svm_predict(model, scale(X))


def _predicted_silhouette(X, predicted_labels):
    """Silhouette over predicted-class groupings; None when degenerate."""
    labels = np.asarray(predicted_labels, dtype=int)
    if labels.size == 0 or (labels == labels[0]).all():
        return None
    return inference.silhouette(X, labels)


def _fit_ann(name, config, train, val, binner):
    feats = config.features[name]
    scale, Xt, yt = _scaled_training(feats, train, binner)
    model = neural.mlp_init(config.seed, (len(feats), 100, 3))
    trained, trace = neural.mlp_train(model, Xt, yt, config.mlp_max_epochs)
    summary = {
        "attributes": feats,
        "type": "multi-layer perceptron classifier",
        "architecture": {"input": len(feats), "hidden": 100, "output": 3},
        "output_type": "ternary",
        "activation": "logistic",
        "optimizer": "adam",
        "early_stopping": True,
        "validation_fraction": neural.VALIDATION_FRACTION,
        "n_training_examples": len(Xt),
        "initial_loss": trace.losses[0] if trace.losses else None,
        "final_loss": trace.losses[-1] if trace.losses else None,
        "stopped_epoch": trace.stopped_epoch,
        "best_validation_score": trace.best_validation_score,
    }
    row = {"family": "neural", "features": feats}
    loss_curve = [[i + 1, loss] for i, loss in enumerate(trace.losses)]
    entries = {"ann_summary": summary, "series": {"loss_curve": loss_curve}}
    return row, entries, lambda X: neural.mlp_predict(trained, scale(X))


# The model stages, in the order they run.
MODEL_STAGES = (
    ("slr", _fit_slr),
    ("mlr", _fit_linear),
    ("ridge", _fit_linear),
    ("lasso", _fit_linear),
    ("logistic", _fit_logistic_model),
    ("kmeans", _fit_kmeans),
    ("svm", _fit_svm),
    ("ann", _fit_ann),
)


# --------------------------------------------------------------------------
# time series


def fit_and_forecast(config: RunConfig, table: MovieTable):
    """Aggregate the monthly series, select its SARIMAX spec by AIC over the
    configured grid, and forecast ``config.forecast_horizon`` months.

    Future exogenous values are seasonal-naive: the last SEASONAL_PERIOD
    observed months, repeated.  Returns the series, the winning fit and the
    forecast rows (month, point, low, high).
    """
    exog_fields = tuple(config.sarimax_exog)
    series = timeseries.aggregate_monthly(table, exog_fields=exog_fields)
    fit = timeseries.sarimax_grid_search(
        series,
        grid={k: list(v) for k, v in config.sarimax_grid.items()},
        exog_names=exog_fields,
        max_evaluations=config.sarimax_max_evaluations,
    )
    horizon = config.forecast_horizon
    future_exog = None
    if exog_fields:
        tail = series.exog_matrix(exog_fields)[-SEASONAL_PERIOD:]
        future_exog = tail[np.arange(horizon) % len(tail)]
    points, intervals = timeseries.forecast(fit, horizon, future_exogenous=future_exog)
    months = timeseries.future_months(series, horizon)
    return series, fit, [(m, p, lo, hi) for m, p, (lo, hi) in zip(months, points, intervals)]


def _timeseries_section(config, table):
    series, fit, forecast_rows = fit_and_forecast(config, table)
    resid = fit.residuals
    skewness, kurtosis = inference.moments(resid)
    table = {
        "adf": timeseries.adf_test(series.values),
        "selected_order": fit.spec.order,
        "selected_seasonal_order": fit.spec.seasonal_order,
        "exogenous": config.sarimax_exog,
        "parameters": fit.parameter_dict(),
        "log_likelihood": fit.log_likelihood,
        "aic": fit.aic,
        "bic": fit.bic,
        "hqic": fit.hqic,
        "rmse": fit.one_step_rmse,
        "ljung_box": timeseries.ljung_box(resid, lags=min(10, fit.nobs - 1)),
        "jarque_bera": inference.jarque_bera(resid),
        "durbin_watson": inference.durbin_watson(resid),
        "skewness": skewness,
        "kurtosis": kurtosis,
        "converged": fit.converged,
        "n_interpolated_months": series.interpolated.sum(),
    }
    series_out = {
        "monthly_metascore": [
            [m.isoformat(), v, flag] for m, v, flag in zip(series.months, series.values, series.interpolated)
        ],
        "forecast": [[m.isoformat(), p, lo, hi] for m, p, lo, hi in forecast_rows],
    }
    return table, series_out


# --------------------------------------------------------------------------
# predictions on held-out records


def predict_labels(predictor, table: MovieTable) -> tuple[list[int], np.ndarray]:
    """The indices of the table rows that carry every numeric feature of the
    model, and one vectorized predict over those rows."""
    feats, predict = predictor
    X, kept = feature_rows(table, feats)
    return kept, predict(X)


def score(name, predictor, table: MovieTable, binner) -> tuple[np.ndarray, float] | None:
    """Confusion matrix (rows = truth, cols = predicted) and accuracy of a
    model's predict over the table rows that carry every feature, judged
    against the binned metascore; the logistic model is judged on hit or not
    hit.  None when no row carries every feature."""
    kept, labels = predict_labels(predictor, table)
    if not kept:
        return None
    truths = binner(table.columns["metascore"][kept])
    if name == "logistic":
        truths = np.where(truths == ClassLabel.HIT, ClassLabel.HIT, ClassLabel.FLOP)
    return inference.confusion_and_accuracy(labels, truths)


def predict_movies(predictors, table: MovieTable, binner, limit: int) -> list[dict]:
    """Per-movie prediction rows for the most recent scored movies."""
    scored = table.scored()
    keys = list(zip(scored.date_published, scored.title))
    order = sorted(range(len(scored)), key=keys.__getitem__, reverse=True)
    recent = scored.take(order[:limit])
    if not len(recent):
        raise ValueError("no scorable movies")
    truths = binner(recent.columns["metascore"])
    rows = [{"movie": title, "truth": LABEL_LETTERS[truth]} for title, truth in zip(recent.title, truths)]
    for name in sorted(predictors):
        kept, labels = predict_labels(predictors[name], recent)
        for row in rows:
            row[name] = "-"
        for i, label in zip(kept, labels):
            rows[i][name] = LABEL_LETTERS[label]
    return rows


def _evaluate_2020(config, predictors, binner):
    """Score the second holdout CSV with the trained models, reading
    substituted source columns where configured (the attribute swap is
    flagged in the output)."""
    loaded = load_movies(config.test_2020, config.column_map)
    subs = config.test_2020_substitutions
    table = loaded.records.scored()
    columns = {target: table.columns[source] for target, source in subs.items()}
    table = dataclasses.replace(table, columns={**table.columns, **columns})
    if not len(table):
        raise ValueError("no scored rows in the 2020 holdout")
    out = {"substitutions": dict(subs), "n_rows": len(table), "accuracy": {}}
    for name, predictor in predictors.items():
        scored = score(name, predictor, table, binner)
        out["accuracy"][name] = None if scored is None else scored[1]
    return out
