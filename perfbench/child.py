"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/child.py setup <config.json>
    python3 perfbench/child.py run <workload> <config.json> <result.json> [--trace]

``setup`` imports cinestat and parses the config, then exits; the parent
times the whole process.  ``run`` makes one invocation of the workload,
checks its output and writes a JSON result.  With ``--trace`` the
invocation runs under the outside-in tracer and the result also holds the
spans, the per-layer metrics and the likelihood-oracle verdict.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import cinestat  # noqa: E402
from cinestat import cli, pipeline, report  # noqa: E402
from cinestat.config import RunConfig  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU of this process and of any processes it reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def invoke(entry: str, config_path: str):
    """The timed invocation; returns (report dict or None, canonical text)."""
    if entry == "pipeline":
        config = RunConfig.from_file(config_path)
        result = pipeline.run_pipeline(config)
        text = report.report_json(result)
        report.report_markdown(result)
        return result, text
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(["forecast", "--config", config_path])
    if code != 0:
        raise RuntimeError(f"cinestat forecast exited with code {code}")
    return None, buf.getvalue()


def run(workload_name: str, config_path: str, traced: bool) -> dict:
    from perfbench import checks, tracer
    from perfbench.workloads import WORKLOADS

    entry = WORKLOADS[workload_name].entry
    config = RunConfig.from_file(config_path)
    trace = tracer.Tracer() if traced else None
    problems: list[str] = []
    output, text = None, ""
    if trace:
        trace.install()
    gc.collect()
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    try:
        with trace.span(tracer.ROOT) if trace else nullcontext():
            output, text = invoke(entry, config_path)
    except Exception:
        problems.append(traceback.format_exc())
    t1, cpu1 = time.perf_counter(), cpu_seconds()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        trace.uninstall()

    if not problems:
        if entry == "pipeline":
            problems += checks.report_problems(output, config.models, config.forecast_horizon)
        else:
            problems += checks.forecast_csv_problems(text, config.forecast_horizon)
    result = {
        "traced": traced,
        "t0": t0,
        "t1": t1,
        "run_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "output_bytes": len(text.encode("utf-8")),
    }
    if trace:
        table = tracer.span_table(trace.spans)
        problems += tracer.nesting_errors(table)
        result["metrics"] = tracer.layer_metrics(table)
        captured = trace.captured.get("timeseries.sarimax_grid_search")
        if captured is None:
            oracle = {"status": "skipped", "reason": "no SARIMAX grid search ran"}
        else:
            args, kwargs, fit = captured
            oracle = checks.loglik_oracle(fit, args[0] if args else kwargs["series"])
        if oracle["status"] == "fail":
            problems.append(f"likelihood oracle failed: {oracle}")
        result["oracle"] = oracle
        result["spans"] = table
    result["problems"] = problems
    return result


def main(argv: list[str]) -> int:
    if Path(cinestat.__file__).resolve().parent != ROOT / "src" / "cinestat":
        print(f"cinestat imported from {cinestat.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    if argv[:1] == ["setup"] and len(argv) == 2:
        RunConfig.from_file(argv[1])
        return 0
    if argv[:1] == ["run"] and len(argv) in (4, 5):
        traced = argv[4:] == ["--trace"]
        result = run(argv[1], argv[2], traced)
        Path(argv[3]).write_text(json.dumps(result), encoding="utf-8")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
