"""The same inputs give the same bytes in every fresh interpreter.

A report that hangs on set or dict order under hash randomization, or on
memory that ``np.empty`` hands out before it is written, can differ between
two runs of the same command even though each run looks correct.  So
``cinestat forecast`` and a one-spec ``run_pipeline`` run on the fixture, and
``run_pipeline`` on the benchmark's generated ``scale_run`` table, in child
interpreters with different ``PYTHONHASHSEED`` values, and their output
must match byte for byte.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CHILD = """
import io, sys
from contextlib import redirect_stdout
from cinestat import cli, report
from cinestat.config import RunConfig
from cinestat.pipeline import run_pipeline

fixture, scale = sys.argv[1:]
text = report.report_json(run_pipeline(RunConfig.from_file(fixture)))
buf = io.StringIO()
with redirect_stdout(buf):
    code = cli.main(["forecast", "--config", fixture])
scale_text = report.report_json(run_pipeline(RunConfig.from_file(scale)))
sys.stdout.write(f"{text}\\n-- forecast exited {code}\\n{buf.getvalue()}-- scale_run\\n{scale_text}")
"""

# scale_run's spec: (1,0,0) with a mean and the two default regressors
SCALE_GRID = {"p": [1], "d": [0], "q": [0], "P": [0], "D": [0], "Q": [0]}


def write_scale_table(path):
    """The benchmark's scale_run input: 4,000 generated rows over 1985-2019 at seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_table(path, 4000, 1, (1985, 2019))


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": str(SRC / "cinestat" / "data" / "movies_fixture.csv"),
        "output_dir": str(tmp_path),
        "sarimax_grid": SCALE_GRID,
    }), encoding="utf-8")
    scale_config = tmp_path / "scale.json"
    write_scale_table(tmp_path / "movies.csv")
    scale_config.write_text(json.dumps({
        "dataset": str(tmp_path / "movies.csv"), "output_dir": str(tmp_path), "sarimax_grid": SCALE_GRID,
    }), encoding="utf-8")
    children = []
    for seed in ("0", "1", "2"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=seed,
            OPENBLAS_NUM_THREADS="1",  # three children share the cores
            PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
        )
        children.append(subprocess.Popen(
            [sys.executable, "-c", CHILD, str(config), str(scale_config)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
        outputs.append(out)
    assert b"-- forecast exited 0\nmonth,point,low,high\n" in outputs[0]
    assert b"-- scale_run\n{" in outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
