"""The same inputs give the same bytes in every fresh interpreter.

A report that hangs on set or dict order under hash randomization, or on
memory that ``np.empty`` hands out before it is written, can differ between
two runs of the same command even though each run looks correct.  So
``cinestat forecast`` and a one-spec ``run_pipeline`` run on the fixture in
child interpreters with different ``PYTHONHASHSEED`` values, and their
output must match byte for byte.
"""

import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CHILD = """
import io, sys
from contextlib import redirect_stdout
from cinestat import cli, report
from cinestat.config import RunConfig
from cinestat.pipeline import run_pipeline

text = report.report_json(run_pipeline(RunConfig.from_file(sys.argv[1])))
buf = io.StringIO()
with redirect_stdout(buf):
    code = cli.main(["forecast", "--config", sys.argv[1]])
sys.stdout.write(f"{text}\\n-- forecast exited {code}\\n{buf.getvalue()}")
"""


def test_output_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": str(SRC / "cinestat" / "data" / "movies_fixture.csv"),
        "output_dir": str(tmp_path),
        # scale_run's spec: (1,0,0) with a mean and the two default regressors
        "sarimax_grid": {"p": [1], "d": [0], "q": [0], "P": [0], "D": [0], "Q": [0]},
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
            [sys.executable, "-c", CHILD, str(config)], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ))
    outputs = []
    for child in children:
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, err.decode()
        outputs.append(out)
    assert b"-- forecast exited 0\nmonth,point,low,high\n" in outputs[0]
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
