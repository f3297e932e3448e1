"""Tests of the benchmark's own generator, checks, oracle and tracer.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import types

import numpy as np
import pytest

from cinestat.statespace import SarimaxSpec, sarimax_fit
from perfbench import checks, gen, tracer


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    a = gen.write_table(tmp_path / "a.csv", 300, 7, (1985, 2019))
    b = gen.write_table(tmp_path / "b.csv", 300, 7, (1985, 2019))
    c = gen.write_table(tmp_path / "c.csv", 300, 8, (1985, 2019))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a["sha256"] == b["sha256"] != c["sha256"]
    assert a["rows"] == 300


def test_generator_respects_year_span():
    years = {row["year"] for row in gen.generate_rows(500, 3, (1900, 1905))}
    assert years <= set(range(1900, 1906)) and len(years) > 1


@pytest.fixture(scope="module")
def ar1_fit():
    rng = np.random.default_rng(0)
    y = np.zeros(150)
    for t in range(1, len(y)):
        y[t] = 0.6 * y[t - 1] + rng.normal()
    series = types.SimpleNamespace(values=y)
    return sarimax_fit(y, SarimaxSpec((1, 0, 0)), max_evaluations=200), series


def test_oracle_accepts_the_reported_loglik(ar1_fit):
    fit, series = ar1_fit
    verdict = checks.loglik_oracle(fit, series)
    assert verdict["status"] == "pass", verdict


def test_oracle_rejects_a_perturbed_loglik(ar1_fit):
    fit, series = ar1_fit
    perturbed = dataclasses.replace(fit, log_likelihood=fit.log_likelihood + 1e-6)
    assert checks.loglik_oracle(perturbed, series)["status"] == "fail"


def test_oracle_skips_a_diffuse_start(ar1_fit):
    fit, series = ar1_fit
    unit_root = dataclasses.replace(fit, _T=np.array([[1.0]]))
    verdict = checks.loglik_oracle(unit_root, series)
    assert verdict["status"] == "skipped" and "diffuse" in verdict["reason"]


def _forecast_rows(horizon):
    return [[f"{2020 + h // 12}-{h % 12 + 1:02d}-01", 50.0, 40.0, 60.0] for h in range(horizon)]


def test_checks_reject_a_truncated_forecast_csv():
    lines = ["month,point,low,high"] + [",".join(map(str, row)) for row in _forecast_rows(24)]
    assert checks.forecast_csv_problems("\n".join(lines) + "\n", 24) == []
    problems = checks.forecast_csv_problems("\n".join(lines[:-1]) + "\n", 24)
    assert any("23 rows" in p for p in problems)


def test_checks_reject_a_truncated_report_forecast():
    report = {
        "models": {"slr": {"accuracy": 0.5}},
        "timeseries": {"log_likelihood": -10.0, "aic": 24.0},
        "series": {"forecast": _forecast_rows(24)},
    }
    assert checks.report_problems(report, ["slr"], 24) == []
    report["series"]["forecast"] = report["series"]["forecast"][:12]
    assert checks.report_problems(report, ["slr"], 24)


def test_checks_reject_bad_accuracy_and_crossed_interval():
    rows = _forecast_rows(2)
    rows[1] = [rows[1][0], 70.0, 40.0, 60.0]
    report = {"models": {"svm": {"accuracy": 1.5}}, "timeseries": {"log_likelihood": "nan", "aic": 1.0},
              "series": {"forecast": rows}}
    problems = checks.report_problems(report, ["svm", "ann"], 2)
    assert len(problems) == 4


def test_tracer_self_times_sum_to_the_root():
    trace = tracer.Tracer()

    def leaf():
        return sum(range(1000))

    traced_leaf = trace.wrap(leaf, "numerics.leaf")

    def middle():
        return traced_leaf() + traced_leaf()

    traced_middle = trace.wrap(middle, "linear_models.middle")
    with trace.span(tracer.ROOT):
        traced_middle()
    table = tracer.span_table(trace.spans)
    assert [row["name"] for row in table] == [tracer.ROOT, "linear_models.middle", "numerics.leaf", "numerics.leaf"]
    assert [row["parent"] for row in table] == [-1, 0, 1, 1]
    assert sum(row["self_s"] for row in table) == pytest.approx(table[0]["s"], rel=1e-9)
    assert tracer.nesting_errors(table) == []
