"""Render the benchmark report as canonical JSON, markdown tables, or a CSV
bundle with plot-ready series."""

from __future__ import annotations

import csv
import json
import os

FORMATS = ("json", "md", "csv")

TABLE_SECTIONS = [
    "Wald test (logistic regression)",
    "Regression analysis",
    "Classification analysis",
    "Time series analysis",
    "Neural network summary",
    "Attribute availability (Jaccard)",
    "Per-movie predictions",
]


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
    if fmt == "json":
        path = os.path.join(out_dir, "report.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_json(report))
        return [path]
    if fmt == "md":
        path = os.path.join(out_dir, "report.md")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report_markdown(report))
        return [path]
    return _emit_csv_bundle(report, out_dir)


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


# Tables that markdown and CSV render alike: (headers, rows).


def _wald_table(report):
    rows = [[r["name"], r["statistic"], r["p_value"], r["df"]] for r in report.get("wald_table", [])]
    return ["coefficient", "chi2", "p_value", "df"], rows


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


def report_markdown(report: dict) -> str:
    parts = ["# Movie-success benchmark report\n"]

    parts.append(f"## {TABLE_SECTIONS[0]}\n")
    headers, rows = _wald_table(report)
    parts.append(_md_table([h.replace("p_value", "p-value") for h in headers], rows))

    parts.append(f"## {TABLE_SECTIONS[1]}\n")
    reg_rows = []
    for name, row in sorted(report.get("models", {}).items()):
        if row.get("family") not in ("regression", "logistic"):
            continue
        reg_rows.append(
            [
                name,
                row.get("r2"),
                row.get("adjusted_r2"),
                _stat(row.get("f_statistic")),
                _stat(row.get("durbin_watson")),
                _stat(row.get("jarque_bera")),
                _stat(row.get("lagrange_multiplier")),
                row.get("accuracy"),
                row.get("validity", {}).get("valid") if "validity" in row else None,
            ]
        )
    parts.append(
        _md_table(
            ["model", "R2", "adj R2", "F", "DW", "JB", "LM", "accuracy", "valid"],
            reg_rows,
        )
    )

    parts.append(f"## {TABLE_SECTIONS[2]}\n")
    cls_rows = [
        [name, row.get("silhouette"), row.get("accuracy")]
        for name, row in sorted(report.get("models", {}).items())
        if row.get("family") == "classifier"
    ]
    parts.append(_md_table(["model", "silhouette", "accuracy"], cls_rows))

    parts.append(f"## {TABLE_SECTIONS[3]}\n")
    ts = report.get("timeseries", {})
    ts_rows = [
        ["ADF statistic", _stat(ts.get("adf"))],
        ["selected order", ts.get("selected_order")],
        ["selected seasonal order", ts.get("selected_seasonal_order")],
        ["RMSE", ts.get("rmse")],
        ["log-likelihood", ts.get("log_likelihood")],
        ["AIC", ts.get("aic")],
        ["BIC", ts.get("bic")],
        ["HQIC", ts.get("hqic")],
        ["Ljung-Box Q", _stat(ts.get("ljung_box"))],
        ["skewness", ts.get("skewness")],
        ["kurtosis", ts.get("kurtosis")],
        ["Jarque-Bera", _stat(ts.get("jarque_bera"))],
        ["Durbin-Watson", _stat(ts.get("durbin_watson"))],
    ]
    parts.append(_md_table(["quantity", "value"], ts_rows))

    parts.append(f"## {TABLE_SECTIONS[4]}\n")
    ann = report.get("ann_summary", {})
    parts.append(_md_table(["attribute", "value"], sorted((k, _fmt(v)) for k, v in ann.items())))

    parts.append(f"## {TABLE_SECTIONS[5]}\n")
    parts.append(_md_table(*_jaccard_table(report)))

    parts.append(f"## {TABLE_SECTIONS[6]}\n")
    parts.append(_md_table(*_per_movie_table(report)))

    return "\n".join(parts)


def _write_csv(path, headers, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(headers)
        writer.writerows(rows)
    return path


def _emit_csv_bundle(report: dict, out_dir: str) -> list[str]:
    files = []
    files.append(_write_csv(os.path.join(out_dir, "wald.csv"), *_wald_table(report)))
    model_rows = []
    for name, row in sorted(report.get("models", {}).items()):
        model_rows.append(
            [
                name,
                row.get("family"),
                row.get("accuracy"),
                row.get("r2"),
                row.get("silhouette"),
                row.get("validity", {}).get("valid") if "validity" in row else "",
            ]
        )
    files.append(
        _write_csv(
            os.path.join(out_dir, "models.csv"),
            ["model", "family", "accuracy", "r2", "silhouette", "valid"],
            model_rows,
        )
    )
    ts = report.get("timeseries", {})
    files.append(
        _write_csv(
            os.path.join(out_dir, "timeseries.csv"),
            ["quantity", "value"],
            [
                ["adf_statistic", _stat(ts.get("adf"))],
                ["rmse", ts.get("rmse")],
                ["log_likelihood", ts.get("log_likelihood")],
                ["aic", ts.get("aic")],
                ["bic", ts.get("bic")],
                ["hqic", ts.get("hqic")],
                ["ljung_box", _stat(ts.get("ljung_box"))],
                ["jarque_bera", _stat(ts.get("jarque_bera"))],
                ["durbin_watson", _stat(ts.get("durbin_watson"))],
                ["skewness", ts.get("skewness")],
                ["kurtosis", ts.get("kurtosis")],
            ],
        )
    )
    files.append(_write_csv(os.path.join(out_dir, "jaccard.csv"), *_jaccard_table(report)))
    if report.get("per_movie"):
        files.append(_write_csv(os.path.join(out_dir, "per_movie.csv"), *_per_movie_table(report)))
    series = report.get("series", {})
    if "loss_curve" in series:
        files.append(
            _write_csv(
                os.path.join(out_dir, "loss_curve.csv"),
                ["epoch", "loss"],
                series["loss_curve"],
            )
        )
    if "monthly_metascore" in series:
        files.append(
            _write_csv(
                os.path.join(out_dir, "monthly_metascore.csv"),
                ["month", "value", "interpolated"],
                series["monthly_metascore"],
            )
        )
    if "forecast" in series:
        files.append(
            _write_csv(
                os.path.join(out_dir, "forecast.csv"),
                ["month", "point", "low", "high"],
                series["forecast"],
            )
        )
    return files
