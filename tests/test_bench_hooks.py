"""The benchmark's tracer (perfbench/tracer.py) wraps cinestat functions by
patching module attributes.  A refactor that renames or deletes one of them
fails here, instead of when the benchmark runs with ``--trace 1``."""

import dataclasses
import importlib
import importlib.util
import inspect
import pathlib

import numpy as np
import pytest

from cinestat import statespace
from cinestat.classifiers import ordinal_svm_fit
from cinestat.data_pipeline import load_movies
from cinestat.inference import silhouette
from cinestat.statespace import SarimaxFit, SarimaxSpec, kalman_filter
from cinestat.timeseries import aggregate_monthly, sarimax_grid_search

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _, _ in TARGETS], ids=[f"{m}.{a}" for m, a, _, _ in TARGETS]
)
def test_traced_name_resolves(module_name, attr):
    module = importlib.import_module(f"cinestat.{module_name}")
    assert callable(getattr(module, attr, None)), f"cinestat.{module_name}.{attr} is gone"


def test_arguments_the_observers_read():
    # the Kalman observer reads z and T positionally; the grid search is
    # captured with its series as the first argument
    assert list(inspect.signature(kalman_filter).parameters)[:2] == ["z", "T"]
    assert list(inspect.signature(sarimax_grid_search).parameters)[0] == "series"
    # the SVM and silhouette observers bind X (and epochs) by name: the SVM's
    # step count is len(X) * epochs, silhouette's bytes come from X's shape
    assert {"X", "epochs"} <= set(inspect.signature(ordinal_svm_fit).parameters)
    assert "X" in inspect.signature(silhouette).parameters


def test_results_the_ingest_observers_read(fixture_csv):
    # the load observer counts rows by len(result.records) and reads
    # result.dropped; the monthly observer reads series.n and sums the
    # interpolated flags
    result = load_movies(fixture_csv)
    assert len(result.records) == 200
    assert isinstance(result.dropped, int)
    series = aggregate_monthly(result.records)
    assert isinstance(series.n, int)
    assert series.interpolated.dtype == bool and series.interpolated.shape == (series.n,)


def test_fit_carries_state_space():
    # the likelihood oracle reads and replaces the fitted T and R
    names = {f.name for f in dataclasses.fields(SarimaxFit)}
    assert {"_T", "_R", "mean", "exog_coef", "sigma2", "log_likelihood"} <= names


def test_fit_filters_through_the_module_attribute(monkeypatch):
    # the tracer counts Kalman filter calls by patching statespace.kalman_filter;
    # a fit that inlines the filter, or reaches it any other way, would
    # leave the benchmark's statespace.kalman_filter metrics at zero
    calls = {}

    def count(name):
        original = getattr(statespace, name)
        calls[name] = 0

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(statespace, name, counted)

    count("kalman_filter")
    count("concentrated_loglik")
    y = np.random.default_rng(3).normal(size=60)
    statespace.sarimax_fit(y, SarimaxSpec((1, 0, 0)), max_evaluations=20)
    assert calls["kalman_filter"] == calls["concentrated_loglik"] > 1
