"""The benchmark's workloads and the inputs each one runs on.

All workloads are closed-loop and single-process: one invocation at a time,
the next starting when the previous one ends.  The program keeps its default
config seed; the workload seed only feeds the table generator.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import gen

FIXTURE = "src/cinestat/data/movies_fixture.csv"


@dataclass(frozen=True)
class Workload:
    entry: str  # "pipeline": RunConfig -> run_pipeline -> reports; "forecast": cli.main(["forecast", ...])
    config: dict = field(default_factory=dict)  # RunConfig keys besides "dataset"
    table: tuple[int, int, int] | None = None  # (rows, first year, last year) generated from the seed


def _grid(**values):
    grid = {k: [0] for k in "pdqPDQ"}
    grid.update(values)
    return grid


WORKLOADS = {
    # The whole default grid takes over a minute per invocation, longer than
    # one benchmark run may last, so this keeps two of its seasonal specs,
    # (1,0,0)(1,1,Q,12) for Q in {0, 1}: time goes to the Kalman filter at
    # seasonal state sizes on a short, mostly interpolated series, where the
    # covariance recursion never reaches steady state.
    "fixture_run": Workload(
        entry="pipeline",
        config={"sarimax_grid": _grid(p=[1], P=[1], D=[1], Q=[0, 1])},
    ),
    # Many rows and one tiny SARIMAX spec: the model, ingest and memory
    # layers do the work (silhouette builds an n x n x p tensor).
    "scale_run": Workload(
        entry="pipeline",
        config={"sarimax_grid": _grid(p=[1])},
        table=(4000, 1985, 2019),
    ),
    # 1,440 months over the IMDb date span with few gaps: long series whose
    # filter reaches steady state early, through the second entry point.
    "forecast_long": Workload(
        entry="forecast",
        config={"sarimax_grid": _grid(p=[0, 1], d=[1])},
        table=(6000, 1900, 2019),
    ),
}


def prepare(name: str, seed: int, out_dir: Path, root: Path) -> dict:
    """Write the workload's inputs and config under ``out_dir``; returns the
    config path relative to ``root`` and the provenance of every input."""
    workload = WORKLOADS[name]
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload.table is None:
        dataset = FIXTURE
        rows = len((root / FIXTURE).read_text(encoding="utf-8").splitlines()) - 1
        inputs = [{"path": FIXTURE, "rows": rows, "sha256": gen.sha256_file(root / FIXTURE), "generated": False}]
    else:
        rows, first, last = workload.table
        table = out_dir / "movies.csv"
        info = gen.write_table(table, rows, seed, (first, last))
        dataset = table.relative_to(root).as_posix()
        inputs = [{**info, "path": dataset, "generated": True, "years": [first, last], "seed": seed}]
    config = {"dataset": dataset, **workload.config}
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {"config": config_path.relative_to(root).as_posix(), "inputs": inputs, "run_config": config}
