"""Outside-in tracer for cinestat.

Each traced function is replaced, in the module where its caller looks the
name up, by a wrapper that records one span (name, parent, start, end,
attributes).  Nothing inside ``src/`` changes: ``timeseries.sarimax_fit`` is
patched in ``timeseries`` because that module imports it by name, while
``statespace.kalman_filter`` is patched in ``statespace`` because
``concentrated_loglik`` looks it up there.  Spans stay in memory and are
turned into per-layer metrics after the invocation.
"""

from __future__ import annotations

import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

ROOT = "harness.invocation"


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _load(fn, args, kwargs, result):
    return {"rows": len(result.records), "dropped": result.dropped}


def _silhouette(fn, args, kwargs, result):
    n, p = _bound(fn, args, kwargs)["X"].shape
    return {"bytes": n * n * p * 8}


def _logistic(fn, args, kwargs, result):
    return {"iterations": result.iterations}


def _lasso(fn, args, kwargs, result):
    return {"converged": bool(result.converged)}


def _svm(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"steps": len(a["X"]) * a["epochs"]}


def _mlp(fn, args, kwargs, result):
    return {"epochs": len(result[1].losses)}


def _monthly(fn, args, kwargs, result):
    return {"months": result.n, "interpolated": int(result.interpolated.sum())}


def _fit(fn, args, kwargs, result):
    return {"converged": bool(result.converged)}


def _kalman(fn, args, kwargs, result):
    return {"n": len(args[0]), "r": args[1].shape[0]}


def _stationary(fn, args, kwargs, result):
    return {"diffuse": result is None}


def _text(fn, args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module where the caller looks the name up, attribute, span name, observer)
TARGETS = [
    ("pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("cli", "main", "cli.main", None),
    ("pipeline", "load_movies", "data_pipeline.load_movies", _load),
    ("cli", "load_movies", "data_pipeline.load_movies", _load),
    ("pipeline", "split_by_year", "data_pipeline.split_by_year", None),
    ("pipeline", "build_design_matrix", "data_pipeline.build_design_matrix", None),
    ("linear_models", "fit_ols", "linear_models.fit_ols", None),
    ("linear_models", "fit_ridge", "linear_models.fit_ridge", None),
    ("linear_models", "fit_lasso", "linear_models.fit_lasso", _lasso),
    ("linear_models", "fit_logistic", "linear_models.fit_logistic", _logistic),
    ("linear_models", "predict", "linear_models.predict", None),
    ("linear_models", "predict_proba", "linear_models.predict_proba", None),
    ("linear_models", "evaluate_binned", "linear_models.evaluate_binned", None),
    ("linear_models", "cholesky_solve", "numerics.cholesky_solve", None),
    ("linear_models", "least_squares", "numerics.least_squares", None),
    ("inference", "least_squares", "numerics.least_squares", None),
    ("numerics", "least_squares", "numerics.least_squares", None),
    ("inference", "chi2_sf", "special.chi2_sf", None),
    ("inference", "f_sf", "special.f_sf", None),
    ("timeseries", "chi2_sf", "special.chi2_sf", None),
    ("inference", "univariate_r2", "inference.univariate_r2", None),
    ("inference", "vif", "inference.vif", None),
    ("inference", "f_statistic", "inference.f_statistic", None),
    ("inference", "durbin_watson", "inference.durbin_watson", None),
    ("inference", "jarque_bera", "inference.jarque_bera", None),
    ("inference", "breusch_godfrey", "inference.breusch_godfrey", None),
    ("inference", "wald_test", "inference.wald_test", None),
    ("inference", "roc_auc", "inference.roc_auc", None),
    ("inference", "silhouette", "inference.silhouette", _silhouette),
    ("inference", "confusion_and_accuracy", "inference.confusion_and_accuracy", None),
    ("classifiers", "kmeans_fit", "classifiers.kmeans_fit", None),
    ("classifiers", "kmeans_classify", "classifiers.kmeans_classify", None),
    ("classifiers", "ordinal_svm_fit", "classifiers.ordinal_svm_fit", _svm),
    ("classifiers", "ordinal_svm_predict", "classifiers.ordinal_svm_predict", None),
    ("neural", "mlp_init", "neural.mlp_init", None),
    ("neural", "mlp_train", "neural.mlp_train", _mlp),
    ("neural", "mlp_accuracy", "neural.mlp_accuracy", None),
    ("neural", "mlp_predict", "neural.mlp_predict", None),
    ("timeseries", "aggregate_monthly", "timeseries.aggregate_monthly", _monthly),
    ("timeseries", "adf_test", "timeseries.adf_test", None),
    ("timeseries", "sarimax_grid_search", "timeseries.sarimax_grid_search", None),
    ("timeseries", "ljung_box", "timeseries.ljung_box", None),
    ("timeseries", "forecast", "timeseries.forecast", None),
    ("timeseries", "sarimax_fit", "statespace.sarimax_fit", _fit),
    ("timeseries", "sarimax_forecast", "statespace.sarimax_forecast", None),
    ("statespace", "kalman_filter", "statespace.kalman_filter", _kalman),
    ("statespace", "stationary_covariance", "statespace.stationary_covariance", _stationary),
    ("report", "report_json", "report.report_json", _text),
    ("report", "report_markdown", "report.report_markdown", _text),
]

# Calls whose arguments and result are kept for checks made after the run.
CAPTURED = ("timeseries.sarimax_grid_search",)


class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` restores
    them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, attrs]
        self.captured: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, perf_counter(), 0.0, None])
        self._stack.append(index)
        return index

    def _close(self, index: int):
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, observe=None):
        captured = name in CAPTURED

        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index)
                self.spans[index][4] = {"raised": True}
                raise
            self._close(index)
            if observe is not None:
                self.spans[index][4] = observe(fn, args, kwargs, result)
            if captured:
                self.captured[name] = (args, kwargs, result)
            return result

        return traced

    def install(self):
        for module_name, attr, name, observe in TARGETS:
            module = importlib.import_module(f"cinestat.{module_name}")
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, observe))
        from cinestat.config import RunConfig

        descriptor = RunConfig.__dict__["from_file"]
        self._patched.append((RunConfig, "from_file", descriptor))
        RunConfig.from_file = staticmethod(self.wrap(RunConfig.from_file, "config.RunConfig.from_file"))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def span_table(spans) -> list[dict]:
    """Spans as JSON-ready dicts with inclusive and self seconds."""
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [
        {
            "id": i,
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "s": end - start,
            "self_s": end - start - child_time[i],
            "attrs": attrs,
        }
        for i, (name, parent, start, end, attrs) in enumerate(spans)
    ]


def _outermost(table, names) -> list[dict]:
    """Spans named in ``names`` that have no ancestor also named there."""
    out = []
    for row in table:
        if row["name"] not in names:
            continue
        parent = row["parent"]
        while parent >= 0 and table[parent]["name"] not in names:
            parent = table[parent]["parent"]
        if parent < 0:
            out.append(row)
    return out


def _ratio(num, den):
    return num / den if den else 0.0


LAYERS = (
    "harness", "config", "data_pipeline", "linear_models", "inference", "classifiers",
    "neural", "timeseries", "statespace", "numerics", "special", "report", "pipeline", "cli",
)
TESTS = {
    f"inference.{n}"
    for n in (
        "f_statistic", "durbin_watson", "jarque_bera", "breusch_godfrey", "vif",
        "univariate_r2", "wald_test", "roc_auc",
    )
}
FITS = {f"linear_models.fit_{n}" for n in ("ols", "ridge", "lasso", "logistic")}
R_BUCKETS = (("r_lt12", 0, 11), ("r12_20", 12, 20))


def layer_metrics(table) -> dict[str, float]:
    """Per-layer metrics of one traced invocation."""

    def by(name):
        return [row for row in table if row["name"] == name]

    def seconds(*names):
        return sum(row["s"] for row in _outermost(table, set(names)))

    def attr_sum(name, key):
        return sum(row["attrs"][key] for row in by(name) if row["attrs"] and key in row["attrs"])

    root = table[0]
    m: dict[str, float] = {
        "trace.run_s": root["s"],
        "trace.self_sum_s": sum(row["self_s"] for row in table),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for row in table if row["name"].split(".")[0] == layer)

    load_s = seconds("data_pipeline.load_movies")
    rows = attr_sum("data_pipeline.load_movies", "rows")
    m["data_pipeline.load_movies.s"] = load_s
    m["data_pipeline.load_movies.rows_per_s"] = _ratio(rows, load_s)
    m["data_pipeline.load_movies.dropped"] = attr_sum("data_pipeline.load_movies", "dropped")
    m["data_pipeline.build_design_matrix.s"] = seconds("data_pipeline.build_design_matrix")

    m["linear_models.fit.s"] = seconds(*FITS)
    m["linear_models.fit_logistic.iterations"] = attr_sum("linear_models.fit_logistic", "iterations")
    lasso = by("linear_models.fit_lasso")
    m["linear_models.fit_lasso.converged"] = _ratio(attr_sum("linear_models.fit_lasso", "converged"), len(lasso))

    m["inference.silhouette.s"] = seconds("inference.silhouette")
    m["inference.silhouette.bytes_computed"] = max(
        (row["attrs"]["bytes"] for row in by("inference.silhouette") if "bytes" in (row["attrs"] or {})),
        default=0,
    )
    m["inference.tests.s"] = seconds(*TESTS)

    m["classifiers.kmeans_fit.s"] = seconds("classifiers.kmeans_fit")
    svm_s = seconds("classifiers.ordinal_svm_fit")
    steps = attr_sum("classifiers.ordinal_svm_fit", "steps")
    m["classifiers.ordinal_svm_fit.s"] = svm_s
    m["classifiers.ordinal_svm_fit.sgd_steps"] = steps
    m["classifiers.ordinal_svm_fit.us_per_step"] = 1e6 * _ratio(svm_s, steps)
    mlp_s = seconds("neural.mlp_train")
    epochs = attr_sum("neural.mlp_train", "epochs")
    m["neural.mlp_train.s"] = mlp_s
    m["neural.mlp_train.epochs"] = epochs
    m["neural.mlp_train.ms_per_epoch"] = 1e3 * _ratio(mlp_s, epochs)

    m["timeseries.aggregate_monthly.s"] = seconds("timeseries.aggregate_monthly")
    m["timeseries.adf_test.s"] = seconds("timeseries.adf_test")
    m["timeseries.sarimax_grid_search.s"] = seconds("timeseries.sarimax_grid_search")
    m["timeseries.forecast.s"] = seconds("timeseries.forecast")
    fits = by("statespace.sarimax_fit")
    raised = [row for row in fits if row["attrs"] and row["attrs"].get("raised")]
    m["timeseries.grid.specs"] = len(fits)
    m["timeseries.grid.failed"] = len(raised)
    m["timeseries.grid.nonconverged"] = sum(
        1 for row in fits if row["attrs"] and row["attrs"].get("converged") is False
    )
    m["timeseries.interpolated_frac"] = _ratio(
        attr_sum("timeseries.aggregate_monthly", "interpolated"),
        attr_sum("timeseries.aggregate_monthly", "months"),
    )

    kalman = by("statespace.kalman_filter")
    m["statespace.sarimax_fit.s"] = seconds("statespace.sarimax_fit")
    m["statespace.sarimax_fit.calls"] = len(fits)
    m["statespace.loglik_evals_per_fit"] = _ratio(len(kalman), len(fits))
    m["statespace.kalman_filter.s"] = seconds("statespace.kalman_filter")
    m["statespace.kalman_filter.calls"] = len(kalman)
    m["statespace.kalman_filter.steps"] = attr_sum("statespace.kalman_filter", "n")
    for label, low, high in R_BUCKETS:
        rows_in = [row for row in kalman if "r" in (row["attrs"] or {}) and low <= row["attrs"]["r"] <= high]
        bucket_s = sum(row["s"] for row in rows_in)
        bucket_steps = sum(row["attrs"]["n"] for row in rows_in)
        m[f"statespace.kalman_filter.s.{label}"] = bucket_s
        m[f"statespace.kalman_filter.steps.{label}"] = bucket_steps
        m[f"statespace.kalman_filter.us_per_step.{label}"] = 1e6 * _ratio(bucket_s, bucket_steps)
    stationary = by("statespace.stationary_covariance")
    m["statespace.stationary_covariance.diffuse_fallbacks"] = _ratio(
        attr_sum("statespace.stationary_covariance", "diffuse"), len(stationary)
    )

    m["report.render.s"] = seconds("report.report_json", "report.report_markdown")
    m["report.bytes"] = attr_sum("report.report_json", "bytes") + attr_sum("report.report_markdown", "bytes")
    return m


def nesting_errors(table, tolerance: float = 1e-6) -> list[str]:
    """Spans whose children are not contained in them in time."""
    errors = []
    for row in table:
        if row["self_s"] < -tolerance:
            errors.append(f"{row['name']} (span {row['id']}) has negative self time {row['self_s']:.3g}s")
    return errors
