import json
import os

import pytest

from cinestat.config import RunConfig
from cinestat.pipeline import run_pipeline
from cinestat.report import report_json

FIXTURE_CSV = os.path.join(
    os.path.dirname(__file__), "..", "src", "cinestat", "data", "movies_fixture.csv"
)


@pytest.fixture(scope="session")
def fixture_csv() -> str:
    return os.path.normpath(FIXTURE_CSV)


@pytest.fixture(scope="session")
def pipeline_runs(fixture_csv):
    """Two independent full pipeline runs on the bundled fixture, with their
    serialized forms and wall times.  Shared session-wide: the full run is
    the expensive part of the suite."""
    import time

    results = []
    for _ in range(2):
        config = RunConfig(dataset=fixture_csv)
        start = time.monotonic()
        report = run_pipeline(config)
        elapsed = time.monotonic() - start
        results.append((report, report_json(report), elapsed))
    return results
