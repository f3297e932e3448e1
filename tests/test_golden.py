"""Byte-for-byte check of every output format against tests/data/golden/.

The run uses the bundled fixture with a one-spec SARIMAX grid (every order
zero), so it takes about a second, and scores the fixture itself as the
2020-style holdout so that path runs too.  The dataset path is written into
the report, so every run here uses the same path relative to the repository
root.
"""

import copy
import dataclasses
import hashlib
import json
import pathlib
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from cinestat.cli import main
from cinestat.config import RunConfig
from cinestat.data_pipeline import NUMERIC_FIELDS, ClassLabel, load_movies, make_binner, split_by_year
from cinestat.pipeline import MODEL_STAGES, fit_and_score, predict_labels, run_pipeline
from cinestat.report import emit_report, report_json, report_markdown

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
DATASET = "src/cinestat/data/movies_fixture.csv"
CONFIG = {"dataset": DATASET, "sarimax_grid": {k: [0] for k in "pdqPDQ"}, "test_2020": DATASET}
CSV_BUNDLE = [
    "wald.csv", "models.csv", "timeseries.csv", "jaccard.csv", "per_movie.csv",
    "loss_curve.csv", "monthly_metascore.csv", "forecast.csv",
]


@pytest.fixture(scope="module")
def golden_report():
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(ROOT)
        return run_pipeline(RunConfig.from_dict(CONFIG))


def golden(name: str) -> bytes:
    return (GOLDEN / name).read_bytes()


def test_report_json(golden_report):
    assert report_json(golden_report).encode("utf-8") == golden("report.json")


def test_report_markdown(golden_report):
    assert report_markdown(golden_report).encode("utf-8") == golden("report.md")


def test_csv_bundle(golden_report, tmp_path):
    files = emit_report(golden_report, "csv", str(tmp_path))
    assert [pathlib.Path(f).name for f in files] == CSV_BUNDLE
    for name in CSV_BUNDLE:
        assert (tmp_path / name).read_bytes() == golden(name), name


def test_forecast_stdout(tmp_path, monkeypatch):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    monkeypatch.chdir(ROOT)
    out = StringIO()
    with redirect_stdout(out):
        assert main(["forecast", "--config", str(config_path)]) == 0
    assert out.getvalue().encode("utf-8") == golden("forecast_stdout.txt")


def test_ingest_summary_stdout(monkeypatch):
    monkeypatch.chdir(ROOT)
    out = StringIO()
    with redirect_stdout(out):
        assert main(["ingest", "--input", DATASET]) == 0
    assert out.getvalue().encode("utf-8") == golden("ingest_summary.json")


# SHA-256 of the full-grid fixture report, as `cinestat run --config
# configs/fixture.json` writes it in JSON and in markdown.  ROADMAP items 1-3
# change report numbers on purpose and will update these hashes.
ORACLE_JSON_SHA256 = "642969c78fd99526d36f0fc0825eb265c11277ff6bde9dff659c2e6d3f94fc73"
ORACLE_MARKDOWN_SHA256 = "ffdc917c56747e9a623e8ac1472bb91b46c5a93a334fcade63f7d9364b2460e5"


def full_grid_digests(report) -> tuple[str, str]:
    """SHA-256 of a full-grid fixture report in JSON and in markdown."""
    report = copy.deepcopy(report)
    # the shared run reads the fixture by its absolute path
    report["config"]["dataset"] = DATASET
    return tuple(
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        for text in (report_json(report), report_markdown(report))
    )


def test_full_grid_report_matches_the_oracle(full_grid_run):
    assert full_grid_digests(full_grid_run[0]) == (ORACLE_JSON_SHA256, ORACLE_MARKDOWN_SHA256)


def test_2020_holdout_accuracies(golden_report):
    holdout = golden_report["test_2020"]
    assert holdout["n_rows"] == 184
    assert {k: round(v, 4) for k, v in holdout["accuracy"].items()} == {
        "ann": 0.6793, "kmeans": 0.4565, "lasso": 0.7233, "logistic": 0.7826,
        "mlr": 0.7170, "ridge": 0.7170, "slr": 0.6413, "svm": 0.6685,
    }


def test_infinite_optional_value_is_missing_in_the_holdout(tmp_path, monkeypatch):
    # a budget of 1e999 parses as inf; the holdout row carrying it must be
    # left out of the budget models, exactly as if the budget were blank
    monkeypatch.chdir(ROOT)
    lines = (ROOT / DATASET).read_text(encoding="utf-8").splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    budget, metascore = header.index("budget"), header.index("metascore")
    # the first row with a budget and a metascore and no quoted field, so
    # that splitting on commas finds its cells
    i = next(i for i, line in enumerate(lines[1:], 1)
             if '"' not in line and line.split(",")[budget] and line.rstrip("\n").split(",")[metascore])
    accuracies = {}
    for value in ("1e999", ""):
        cells = lines[i].split(",")
        cells[budget] = value
        holdout = tmp_path / f"holdout{value}.csv"
        holdout.write_text("".join(lines[:i] + [",".join(cells)] + lines[i + 1:]), encoding="utf-8")
        config = RunConfig.from_dict({**CONFIG, "models": ["mlr", "ridge", "lasso"], "test_2020": str(holdout)})
        accuracies[value] = run_pipeline(config)["test_2020"]["accuracy"]
    assert accuracies["1e999"] == accuracies[""]


def reference_row(table, i, feature_names):
    """Row ``i``'s feature vector, built field by field: None when a numeric
    feature is missing, any other name read as 0/1 genre membership."""
    genres = {g for g, carried in zip(table.vocabulary, table.genre_matrix[i]) if carried}
    vals = []
    for name in feature_names:
        if name in NUMERIC_FIELDS:
            v = table.columns[name][i]
            if np.isnan(v):
                return None
            vals.append(float(v))
        else:
            vals.append(1.0 if name in genres else 0.0)
    return np.array(vals)


@pytest.fixture(scope="module")
def fitted_models():
    """Every model fitted on the fixture, with the record sets the report
    labels (the validation partition and the substituted holdout) and each
    model's validation accuracy, as the pipeline scores and reports it."""
    config = RunConfig.from_dict({**CONFIG, "dataset": str(ROOT / DATASET)})
    table = load_movies(config.dataset).records
    split = split_by_year(table)
    train, val = split.train.scored(), split.validation.scored()
    binner = make_binner(*config.bin_thresholds)
    models, accuracies = {}, {}
    for name, fit_model in MODEL_STAGES:
        row, _, models[name] = fit_and_score(name, fit_model, config, train, val, binner)
        accuracies[name] = row["accuracy"]
    holdout = table.scored()
    holdout = dataclasses.replace(
        holdout, columns={**holdout.columns, "top1000_voters_rating": holdout.columns["avg_vote"]}
    )
    return models, {"validation": val, "holdout": holdout}, accuracies


@pytest.mark.parametrize("record_set", ["validation", "holdout"])
@pytest.mark.parametrize("model", [name for name, _ in MODEL_STAGES])
def test_vectorized_labels_match_per_record_loop(fitted_models, model, record_set):
    models, record_sets, _ = fitted_models
    feature_names, predict = models[model]
    table = record_sets[record_set]
    expected = []
    for i in range(len(table)):
        x = reference_row(table, i, feature_names)
        expected.append(None if x is None else predict(x.reshape(1, -1))[0])
    kept, labels = predict_labels(models[model], table)
    assert isinstance(labels, np.ndarray) and labels.dtype.kind == "i"
    assert kept == [i for i, label in enumerate(expected) if label is not None]
    assert labels.tolist() == [label for label in expected if label is not None]


@pytest.mark.parametrize("model", [name for name, _ in MODEL_STAGES])
def test_reported_accuracy_is_the_served_predictors(fitted_models, model):
    # the accuracy reported for a model is the share of validation rows that
    # the predict serving the per-movie and 2020 rows labels correctly; the
    # logistic model is judged on hit or not hit
    models, record_sets, accuracies = fitted_models
    val = record_sets["validation"]
    binner = make_binner(*RunConfig.from_dict(CONFIG).bin_thresholds)
    truths = binner(val.columns["metascore"])
    if model == "logistic":
        truths = np.where(truths == ClassLabel.HIT, ClassLabel.HIT, ClassLabel.FLOP)
    kept, labels = predict_labels(models[model], val)
    assert kept
    assert accuracies[model] == int((labels == truths[kept]).sum()) / len(kept)
