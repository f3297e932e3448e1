import os
import time

import pytest

from cinestat.config import RunConfig
from cinestat.pipeline import run_pipeline

FIXTURE_CSV = os.path.join(
    os.path.dirname(__file__), "..", "src", "cinestat", "data", "movies_fixture.csv"
)


@pytest.fixture(scope="session")
def fixture_csv() -> str:
    return os.path.normpath(FIXTURE_CSV)


@pytest.fixture(scope="session")
def full_grid_run(fixture_csv):
    """One full pipeline run on the bundled fixture with the default SARIMAX
    grid, and its wall time.  Shared session-wide: the full run is the
    expensive part of the suite."""
    start = time.monotonic()
    report = run_pipeline(RunConfig(dataset=fixture_csv))
    return report, time.monotonic() - start
