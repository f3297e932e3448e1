import csv
import json
import os

import pytest

from cinestat.cli import main
from cinestat.config import ConfigError, RunConfig
from cinestat.pipeline import StageError, run_pipeline
from cinestat.report import FORMATS, TABLE_SECTIONS, emit_report, report_json, report_markdown

TINY_GRID = {"p": [0], "d": [0], "q": [0], "P": [0], "D": [0], "Q": [0]}


def small_config_dict(fixture_csv, **overrides):
    cfg = {
        "dataset": fixture_csv,
        "models": ["slr", "logistic"],
        "sarimax_grid": TINY_GRID,
        "sarimax_exog": [],
        "forecast_horizon": 3,
        "per_movie_rows": 3,
    }
    cfg.update(overrides)
    return cfg


def rewrite_csv(source, tmp_path, edit):
    """A copy of the ``source`` CSV with ``edit(i, row)`` applied to each
    data row's field dict in place."""
    with open(source, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    for i, row in enumerate(rows):
        edit(i, row)
    path = tmp_path / "movies.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)
    return str(path)


@pytest.fixture(scope="module")
def small_report(fixture_csv):
    return run_pipeline(RunConfig.from_dict(small_config_dict(fixture_csv)))


class TestConfig:
    def test_unknown_key_rejected(self, fixture_csv):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"dataset": fixture_csv, "not_a_key": 1})

    def test_missing_dataset_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"seed": 3})

    def test_bad_thresholds(self, fixture_csv):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, bin_thresholds=(60, 40))

    @pytest.mark.parametrize("thresholds", [(0, 60), (40, 101), (40, 60, 80)])
    def test_thresholds_out_of_range(self, fixture_csv, thresholds):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, bin_thresholds=thresholds)

    def test_negative_horizon(self, fixture_csv):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, forecast_horizon=-3)

    @pytest.mark.parametrize(
        "field",
        ["per_movie_rows", "kmeans_restarts", "svm_epochs", "mlp_max_epochs", "sarimax_max_evaluations"],
    )
    @pytest.mark.parametrize("value", [0, -3, True, 2.0])
    def test_count_below_one_or_not_int(self, fixture_csv, field, value):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, **{field: value})

    @pytest.mark.parametrize("field", ["seed", "forecast_horizon"])
    @pytest.mark.parametrize("value", [-1, True, 2.5, "abc"])
    def test_seed_or_horizon_negative_or_not_int(self, fixture_csv, field, value):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, **{field: value})

    @pytest.mark.parametrize("column_map", [["x"], "title", {"title": 1}, {1: "title"}])
    def test_column_map_not_str_to_str(self, fixture_csv, column_map):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, column_map=column_map)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("features", []),
            ("features", {"mlr": "budget"}),
            ("features", {"mlr": [1]}),
            ("features_2020", 3),
            ("features_2020", {"svm": None}),
            ("test_2020_substitutions", ["x"]),
            ("test_2020_substitutions", {"avg_vote": ["votes"]}),
            ("models", "svm"),
            ("models", {"svm": 1}),
            ("slr_candidates", "budget"),
            ("slr_candidates", ["budget", 2]),
            ("sarimax_exog", "duration"),
            ("ridge_lambda", "abc"),
            ("ridge_lambda", float("inf")),
            ("lasso_lambda", float("nan")),
            ("svm_C", 0),
            ("svm_C", True),
            ("bin_thresholds", [True, 60]),
            ("dataset", 5),
            ("dataset", 0),
            ("output_dir", 7),
            ("test_2020", 3),
            ("features", {"mlrr": ["budget"]}),
            ("features", {"slr": ["votes"]}),
            ("features_2020", {"ann": ["votes"]}),
            # an empty list, a repeated name or the target among its own regressors
            *[("features", {model: []}) for model in ("mlr", "ridge", "lasso", "logistic", "kmeans", "svm", "ann")],
            ("features", {"svm": ["avg_vote", "avg_vote", "Drama"]}),
            ("features", {"mlr": ["budget", "metascore"]}),
            ("features_2020", {"logistic": []}),
            ("features_2020", {"svm": ["avg_vote", "avg_vote"]}),
            ("slr_candidates", []),
            ("slr_candidates", ["metascore"]),
            ("slr_candidates", ["budget", "budget"]),
        ],
    )
    def test_wrong_json_type_names_the_field(self, fixture_csv, field, value):
        # a string where a list belongs is not split into characters, and an
        # object where none belongs is not an AttributeError
        with pytest.raises(ConfigError, match=f"{field} must be"):
            RunConfig.from_dict({"dataset": fixture_csv, field: value})

    @pytest.mark.parametrize("subs", [{"Drama": "avg_vote"}, {"avg_vote": "Drama"}])
    def test_non_numeric_substitution(self, fixture_csv, subs):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, test_2020_substitutions=subs)

    @pytest.mark.parametrize(
        "grid",
        [
            {"p": [1]},
            {**TINY_GRID, "s": [12]},
            {**TINY_GRID, "q": []},
            {**TINY_GRID, "p": [-1]},
            {**TINY_GRID, "d": [True]},
            {**TINY_GRID, "P": [1.0]},
            {**TINY_GRID, "Q": 1},
            {**TINY_GRID, "p": [1, 1]},
            {**TINY_GRID, "D": [0, 1, 0]},
        ],
    )
    def test_malformed_sarimax_grid(self, fixture_csv, grid):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, sarimax_grid=grid)

    @pytest.mark.parametrize(
        "exog", [["nosuch"], ["Drama"], ["movie_count", "movie_count"], ["duration", "votes", "duration"]]
    )
    def test_bad_sarimax_exog(self, fixture_csv, exog):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, sarimax_exog=exog)

    def test_valid_sarimax_exog(self, fixture_csv):
        exog = ["movie_count", "duration", "budget"]
        assert RunConfig(dataset=fixture_csv, sarimax_exog=exog).sarimax_exog == exog

    def test_unknown_model(self, fixture_csv):
        with pytest.raises(ConfigError):
            RunConfig(dataset=fixture_csv, models=["slr", "forest"])

    def test_defaults_populated(self, fixture_csv):
        cfg = RunConfig(dataset=fixture_csv)
        for name in ("mlr", "logistic", "svm", "kmeans", "ann", "ridge", "lasso"):
            assert cfg.features[name]
        assert cfg.bin_thresholds == (40, 60)

    def test_unreadable_file(self):
        with pytest.raises(ConfigError):
            RunConfig.from_file("/nonexistent/config.json")


class TestPipelineSubset:
    def test_only_requested_models_present(self, small_report):
        assert sorted(small_report["models"]) == ["logistic", "slr"]
        assert "timeseries" in small_report
        assert small_report["wald_table"]

    def test_per_movie_rows_and_missing_markers(self, small_report):
        rows = small_report["per_movie"]
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"movie", "truth", "logistic", "slr"}
            assert row["truth"] in {"F", "N", "H"}
            for model in ("logistic", "slr"):
                assert row[model] in {"F", "N", "H", "-"}

    def test_counts_recorded(self, small_report):
        cfg = small_report["config"]
        assert cfg["n_rows"] == 200
        assert cfg["n_train"] > 0 and cfg["n_validation"] > 0

    def test_slr_selected_feature_among_candidates(self, small_report, fixture_csv):
        selected = small_report["models"]["slr"]["selected_feature"]
        assert selected in RunConfig(dataset=fixture_csv).slr_candidates

    def test_stage_error_names_stage(self, tmp_path):
        bad = tmp_path / "missing.csv"
        with pytest.raises(StageError) as exc:
            run_pipeline(RunConfig.from_dict(small_config_dict(str(bad))))
        assert exc.value.stage == "ingest"

    @pytest.mark.parametrize(
        "model", ["slr", "mlr", "ridge", "lasso", "logistic", "kmeans", "svm", "ann"]
    )
    def test_unknown_feature_names_model_stage(self, fixture_csv, model):
        if model == "slr":
            overrides = {"slr_candidates": ["duration", "NoSuchGenre"]}
        else:
            overrides = {"features": {model: ["duration", "NoSuchGenre"]}}
        config = RunConfig.from_dict(small_config_dict(fixture_csv, models=[model], **overrides))
        with pytest.raises(StageError) as exc:
            run_pipeline(config)
        assert exc.value.stage == model
        assert isinstance(exc.value.cause, KeyError)

    @pytest.mark.parametrize("model", ["mlr", "ridge", "lasso", "logistic", "kmeans", "svm", "ann"])
    def test_genre_carried_only_by_training_rows(self, fixture_csv, tmp_path, model):
        # validation reads the genre as 0, as the per-movie and holdout rows do
        def add_western(i, row):
            if i % 4 == 0 and 1990 <= int(row["year"]) <= 2015:
                row["genres"] += ", Western"
        dataset = rewrite_csv(fixture_csv, tmp_path, add_western)
        features = {model: ["duration", "avg_vote", "votes", "Western"]}
        report = run_pipeline(RunConfig.from_dict(
            small_config_dict(dataset, models=[model], features=features)
        ))
        assert 0.0 <= report["models"][model]["accuracy"] <= 1.0

    @pytest.mark.parametrize("model", ["mlr", "ridge", "lasso", "logistic", "kmeans", "svm", "ann"])
    def test_no_complete_validation_row_names_model_stage(self, fixture_csv, tmp_path, model):
        def blank_later_budgets(i, row):
            if int(row["year"]) > 2015:
                row["budget"] = ""
        dataset = rewrite_csv(fixture_csv, tmp_path, blank_later_budgets)
        features = {model: ["duration", "avg_vote", "budget"]}
        config = RunConfig.from_dict(small_config_dict(dataset, models=[model], features=features))
        with pytest.raises(StageError) as exc:
            run_pipeline(config)
        assert exc.value.stage == model
        assert str(exc.value.cause) == "no validation row carries every feature"

    def test_infinite_exog_value_is_missing_in_the_monthly_means(self, fixture_csv, tmp_path):
        # a budget of 1e999 parses as inf; its month's exogenous mean must
        # leave it out, exactly as if the budget were blank
        with open(fixture_csv, newline="", encoding="utf-8") as fh:
            target = next(i for i, row in enumerate(csv.DictReader(fh)) if row["budget"] and row["metascore"])
        sections = {}
        for value in ("1e999", ""):
            def set_budget(i, row, value=value):
                if i == target:
                    row["budget"] = value
            dataset = rewrite_csv(fixture_csv, tmp_path, set_budget)
            config = RunConfig.from_dict(small_config_dict(dataset, models=["slr"], sarimax_exog=["budget"]))
            report = run_pipeline(config)
            sections[value] = (report["timeseries"], report["series"])
        assert sections["1e999"] == sections[""]

    def test_jaccard_table_subset(self, small_report):
        models = [r["model"] for r in small_report["jaccard_table"]]
        assert models == ["logistic"]
        for r in small_report["jaccard_table"]:
            assert 0.0 <= r["jaccard"] <= 1.0

    def test_report_is_json_serializable(self, small_report):
        text = report_json(small_report)
        assert json.loads(text) == small_report


class TestReportFormats:
    def test_json_canonical_form(self, small_report):
        text = report_json(small_report)
        assert text.endswith("\n")
        assert text == json.dumps(small_report, sort_keys=True, indent=2) + "\n"

    def test_markdown_has_all_sections(self, small_report):
        md = report_markdown(small_report)
        headings = [line for line in md.splitlines() if line.startswith("## ")]
        assert headings == [f"## {s}" for s in TABLE_SECTIONS]

    def test_emit_json_roundtrip(self, small_report, tmp_path):
        files = emit_report(small_report, "json", str(tmp_path))
        assert files == [os.path.join(str(tmp_path), "report.json")]
        with open(files[0], encoding="utf-8") as fh:
            assert json.load(fh) == small_report

    def test_emit_csv_bundle(self, small_report, tmp_path):
        # no ann in the report, so no loss curve; every other file in bundle order
        files = emit_report(small_report, "csv", str(tmp_path))
        assert [os.path.basename(f) for f in files] == [
            "wald.csv", "models.csv", "timeseries.csv", "jaccard.csv",
            "per_movie.csv", "monthly_metascore.csv", "forecast.csv",
        ]
        assert sorted(os.listdir(tmp_path)) == sorted(os.path.basename(f) for f in files)
        with open(os.path.join(str(tmp_path), "models.csv"), encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "model,family,accuracy,r2,silhouette,valid"
        assert len(lines) == 1 + len(small_report["models"])
        with open(os.path.join(str(tmp_path), "forecast.csv"), encoding="utf-8") as fh:
            assert len(fh.read().strip().splitlines()) == 1 + 3  # header + horizon

    def test_unknown_format_rejected(self, small_report, tmp_path):
        with pytest.raises(ValueError):
            emit_report(small_report, "xml", str(tmp_path))
        assert "xml" not in FORMATS


class TestCli:
    @staticmethod
    def _write_config(tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_run_success(self, fixture_csv, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv))
        out_dir = str(tmp_path / "out")
        code = main(["run", "--config", cfg_path, "--out", out_dir, "--format", "json"])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed == os.path.join(out_dir, "report.json")
        assert os.path.exists(printed)

    def test_run_markdown_format(self, fixture_csv, tmp_path):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv))
        out_dir = str(tmp_path / "out_md")
        assert main(["run", "--config", cfg_path, "--out", out_dir, "--format", "md"]) == 0
        assert os.path.exists(os.path.join(out_dir, "report.md"))

    def test_config_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_out_of_range_thresholds_exit_2(self, fixture_csv, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv, bin_thresholds=[0, 60]))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_non_numeric_substitution_exit_2(self, fixture_csv, tmp_path, capsys):
        cfg = small_config_dict(fixture_csv, test_2020=fixture_csv, test_2020_substitutions={"Drama": "avg_vote"})
        cfg_path = self._write_config(tmp_path, cfg)
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_zero_count_exit_2(self, fixture_csv, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv, kmeans_restarts=0))
        assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err

    def test_negative_forecast_horizon_exit_2(self, fixture_csv, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv))
        assert main(["forecast", "--config", cfg_path, "--horizon", "-3"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides",
        [
            {"sarimax_grid": {"p": [1]}},
            {"sarimax_grid": {**TINY_GRID, "p": [-1]}},
            {"sarimax_grid": {**TINY_GRID, "p": [1, 1]}},
            {"sarimax_exog": ["nosuch"]},
        ],
    )
    def test_malformed_sarimax_config_exit_2(self, fixture_csv, tmp_path, capsys, overrides):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv, **overrides))
        assert main(["forecast", "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_forecast_failure_names_stage(self, fixture_csv, tmp_path, capsys):
        # every spec in the grid has d + D = 3, so every fit fails
        grid = {**TINY_GRID, "d": [2], "D": [1]}
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv, sarimax_grid=grid))
        assert main(["forecast", "--config", cfg_path]) == 1
        assert "pipeline failure: stage 'timeseries'" in capsys.readouterr().err

    def test_stage_failure_exit_1(self, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, small_config_dict(str(tmp_path / "nope.csv")))
        assert main(["run", "--config", cfg_path]) == 1
        assert "pipeline failure" in capsys.readouterr().err

    def test_ingest_summary(self, fixture_csv, capsys):
        assert main(["ingest", "--input", fixture_csv]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["rows"] == 200
        assert summary["train"] + summary["validation"] + summary["excluded_pre_1990"] <= 200
        assert "Drama" in summary["genres"]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"forecast_horizon": 2.5},
            {"forecast_horizon": True},
            {"seed": 1.5},
            {"seed": "abc"},
            {"seed": -1},
            {"column_map": ["x"]},
            {"features": []},
            {"features": {"mlr": "budget"}},
            {"features_2020": 3},
            {"test_2020_substitutions": ["x"]},
            {"models": "svm"},
            {"slr_candidates": "budget"},
            {"ridge_lambda": "abc"},
            {"ridge_lambda": float("inf")},
            {"lasso_lambda": float("nan")},
            {"svm_C": 0},
            {"svm_C": True},
            {"bin_thresholds": [True, 60]},
            {"output_dir": 7},
            {"test_2020": 3},
            {"features": {"mlrr": ["budget"]}},
            {"features": {"slr": ["votes"]}},
            {"features_2020": {"ann": ["votes"]}},
            *[{"features": {model: []}} for model in ("mlr", "ridge", "lasso", "logistic", "kmeans", "svm", "ann")],
            {"features": {"svm": ["avg_vote", "avg_vote", "Drama"]}},
            {"features": {"mlr": ["budget", "metascore"]}},
            {"features_2020": {"svm": ["avg_vote", "avg_vote"]}},
            {"slr_candidates": []},
            {"slr_candidates": ["metascore"]},
        ],
    )
    def test_bad_config_value_exit_2(self, fixture_csv, tmp_path, capsys, overrides):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv, **overrides))
        assert main(["forecast", "--config", cfg_path]) == 2
        assert "config error" in capsys.readouterr().err

    def test_unknown_name_in_a_list_is_a_stage_failure(self, fixture_csv, tmp_path, capsys):
        cfg_path = self._write_config(
            tmp_path, small_config_dict(fixture_csv, slr_candidates=["budget", "nosuch"])
        )
        assert main(["run", "--config", cfg_path]) == 1
        assert "stage 'slr' failed" in capsys.readouterr().err

    @pytest.mark.parametrize("schema", [[1, 2], {"title": 3}])
    def test_ingest_bad_schema_exit_2(self, fixture_csv, tmp_path, capsys, schema):
        schema_path = tmp_path / "schema.json"
        schema_path.write_text(json.dumps(schema))
        assert main(["ingest", "--input", fixture_csv, "--schema", str(schema_path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["ingest", "forecast"])
    def test_load_failure_names_the_ingest_stage(self, fixture_csv, tmp_path, capsys, command):
        # load_movies runs outside the pipeline here, yet its failure is
        # reported as the ingest stage's, as `cinestat run` reports it
        with open(fixture_csv, newline="", encoding="utf-8") as fh:
            lines = list(csv.reader(fh))
        drop = lines[0].index("date_published")
        csv_path = tmp_path / "no_date.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([c for i, c in enumerate(line) if i != drop] for line in lines)
        if command == "ingest":
            argv = ["ingest", "--input", str(csv_path)]
        else:
            argv = ["forecast", "--config", self._write_config(tmp_path, small_config_dict(str(csv_path)))]
        assert main(argv) == 1
        assert "pipeline failure: stage 'ingest' failed: header lacks mandatory column" in capsys.readouterr().err

    def test_ingest_missing_file_exit_1(self, capsys):
        assert main(["ingest", "--input", "/nonexistent.csv"]) == 1

    def test_forecast_command(self, fixture_csv, tmp_path, capsys):
        cfg_path = self._write_config(tmp_path, small_config_dict(fixture_csv))
        assert main(["forecast", "--config", cfg_path, "--horizon", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "month,point,low,high"
        assert len(lines) == 3
        month, point, low, high = lines[1].split(",")
        assert float(low) <= float(point) <= float(high)
