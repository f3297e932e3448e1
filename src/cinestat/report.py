"""Render the benchmark report as canonical JSON, markdown tables, or a CSV
bundle with plot-ready series.

Every table is built by one function, ``report -> (headers, rows)``; the
markdown report and the CSV bundle are each one ordered list of them."""

from __future__ import annotations

import csv
import json
import os

FORMATS = ("json", "md", "csv")


def report_json(report: dict) -> str:
    """Canonical serialized form: sorted keys, fixed layout, trailing newline."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def emit_report(report: dict, fmt: str, out_dir: str) -> list[str]:
    """Write the report in the requested format; returns the files written."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    os.makedirs(out_dir, exist_ok=True)
    if not os.access(out_dir, os.W_OK):
        raise OSError(f"output directory {out_dir!r} is not writable")
    if fmt == "csv":
        return _emit_csv_bundle(report, out_dir)
    render = report_json if fmt == "json" else report_markdown
    path = os.path.join(out_dir, f"report.{fmt}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(report))
    return [path]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if value is None:
        return "-"
    return str(value)


def _md_table(headers, rows) -> str:
    lines = ["| " + " | ".join(headers) + " |", "| " + " | ".join("---" for _ in headers) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(c) for c in row) + " |")
    return "\n".join(lines) + "\n"


def _stat(value, key="statistic"):
    return value.get(key) if isinstance(value, dict) else value


def _valid(row):
    """A model row's validity ruling; None for a model that has none."""
    return _stat(row.get("validity"), "valid")


def _models(report, *families):
    """(name, row) of every model in name order, or of the named families only."""
    return [
        (name, row)
        for name, row in sorted(report.get("models", {}).items())
        if not families or row.get("family") in families
    ]


# Table builders: report -> (headers, rows).


def _wald_table(report, p_header="p_value"):
    rows = [[r["name"], r["statistic"], r["p_value"], r["df"]] for r in report.get("wald_table", [])]
    return ["coefficient", "chi2", p_header, "df"], rows


def _regression_table(report):
    stats = (
        "r2", "adjusted_r2", "f_statistic", "durbin_watson",
        "jarque_bera", "lagrange_multiplier", "accuracy",
    )
    rows = [
        [name, *(_stat(row.get(k)) for k in stats), _valid(row)]
        for name, row in _models(report, "regression", "logistic")
    ]
    return ["model", "R2", "adj R2", "F", "DW", "JB", "LM", "accuracy", "valid"], rows


def _classification_table(report):
    rows = [
        [name, row.get("silhouette"), row.get("accuracy")]
        for name, row in _models(report, "classifier", "neural")
    ]
    return ["model", "silhouette", "accuracy"], rows


def _models_table(report):
    rows = [
        [name, *(row.get(k) for k in ("family", "accuracy", "r2", "silhouette")), _valid(row)]
        for name, row in _models(report)
    ]
    return ["model", "family", "accuracy", "r2", "silhouette", "valid"], rows


def _timeseries_table(quantities):
    """A builder of the time-series quantities, given as (label, report key)
    pairs; a test reads as its statistic."""

    def build(report):
        ts = report.get("timeseries", {})
        return ["quantity", "value"], [[label, _stat(ts.get(key))] for label, key in quantities]

    return build


def _ann_table(report):
    return ["attribute", "value"], sorted(report.get("ann_summary", {}).items())


def _jaccard_table(report):
    rows = [
        [r["model"], r["intersection"], r["union"], r["jaccard"]]
        for r in report.get("jaccard_table", [])
    ]
    return ["model", "intersection", "union", "jaccard"], rows


def _per_movie_table(report):
    per_movie = report.get("per_movie", [])
    model_cols = [k for k in per_movie[0] if k not in ("movie", "truth")] if per_movie else []
    rows = [[r["movie"], r["truth"]] + [r[c] for c in model_cols] for r in per_movie]
    return ["movie", "truth"] + model_cols, rows


_TIMESERIES_MD = [
    ("ADF statistic", "adf"),
    ("selected order", "selected_order"),
    ("selected seasonal order", "selected_seasonal_order"),
    ("RMSE", "rmse"),
    ("log-likelihood", "log_likelihood"),
    ("AIC", "aic"),
    ("BIC", "bic"),
    ("HQIC", "hqic"),
    ("Ljung-Box Q", "ljung_box"),
    ("skewness", "skewness"),
    ("kurtosis", "kurtosis"),
    ("Jarque-Bera", "jarque_bera"),
    ("Durbin-Watson", "durbin_watson"),
]

_TIMESERIES_CSV = [("adf_statistic", "adf")] + [
    (key, key)
    for key in (
        "rmse", "log_likelihood", "aic", "bic", "hqic",
        "ljung_box", "jarque_bera", "durbin_watson", "skewness", "kurtosis",
    )
]

MARKDOWN_SECTIONS = [
    ("Wald test (logistic regression)", lambda report: _wald_table(report, "p-value")),
    ("Regression analysis", _regression_table),
    ("Classification analysis", _classification_table),
    ("Time series analysis", _timeseries_table(_TIMESERIES_MD)),
    ("Neural network summary", _ann_table),
    ("Attribute availability (Jaccard)", _jaccard_table),
    ("Per-movie predictions", _per_movie_table),
]

TABLE_SECTIONS = [heading for heading, _ in MARKDOWN_SECTIONS]

CSV_TABLES = [
    ("wald.csv", _wald_table),
    ("models.csv", _models_table),
    ("timeseries.csv", _timeseries_table(_TIMESERIES_CSV)),
    ("jaccard.csv", _jaccard_table),
    ("per_movie.csv", _per_movie_table),
]

# The plot-ready series, each written to <key>.csv when the report holds it.
CSV_SERIES = [
    ("loss_curve", ["epoch", "loss"]),
    ("monthly_metascore", ["month", "value", "interpolated"]),
    ("forecast", ["month", "point", "low", "high"]),
]


def report_markdown(report: dict) -> str:
    parts = ["# Movie-success benchmark report\n"]
    for heading, build in MARKDOWN_SECTIONS:
        parts += [f"## {heading}\n", _md_table(*build(report))]
    return "\n".join(parts)


def _write_csv(path, headers, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
    return path


def _emit_csv_bundle(report: dict, out_dir: str) -> list[str]:
    series = report.get("series", {})
    tables = [(name, build(report)) for name, build in CSV_TABLES]
    tables += [
        (f"{key}.csv", (headers, series[key])) for key, headers in CSV_SERIES if key in series
    ]
    return [_write_csv(os.path.join(out_dir, name), *table) for name, table in tables]
