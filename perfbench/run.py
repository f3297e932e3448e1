"""cinestat benchmark: one run of one workload.

    python3 perfbench/run.py --workload fixture_run --seed 1 --seconds 30 --trace 0

The workload runs closed-loop for ``--seconds``: one invocation at a time,
each in a fresh interpreter with BLAS pinned to one thread, the next starting
when the previous one ends (and only while it can finish in time).  Every
output is checked.  The run is pinned to one CPU, and while each child runs
the parent times a small reference kernel on that CPU; the end-to-end
seconds are rescaled to the nominal host speed (see ``HostSpeed``), which
cancels the host's speed drift, and the raw seconds go to the results file.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` traced and untraced invocations alternate, and the run reports
the per-layer metrics of the traced ones (raw seconds) plus the tracing
overhead.  The full results (every sample, provenance, spans) go to
``.perfbench_out/<workload>/seed<seed>/``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ".perfbench_out"
SETUP_REPS = 5
MIN_SAMPLES = {False: 3, True: 4}
RUN_LIMIT_S = 170.0
REF_PERIOD_S = 0.025
REF_STEPS = 100
# The reference kernel's time on an idle core of the machine this benchmark
# was written on (a 2-vCPU Xeon VM); it only fixes the scale of the seconds.
REF_NOMINAL_S = 4.0e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
E2E_UNITS = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_SAMPLE = ("run_s", "cpu_s", "peak_rss_mb")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("CINESTAT_SEED", "PYTHONPATH")}
    env.update({k: "1" for k in THREAD_VARS})
    return env


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        revision = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        revision = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {k: "1" for k in THREAD_VARS},
        "git_revision": revision or "unavailable (not a git checkout)",
        "workload_seed": seed,
    }


class HostSpeed:
    """A fixed loop of small numpy operations (the shape of cinestat's hot
    loops), timed in CPU seconds every ``REF_PERIOD_S`` while a child runs.

    The host's speed drifts by tens of percent over minutes.  Run on the
    same CPU as the child, this kernel slows down with it, so a time scaled
    by ``REF_NOMINAL_S`` over the kernel's median time meanwhile reads the
    same whatever the drift: seconds at the nominal host speed.
    """

    def __init__(self):
        import numpy

        self.matrix = numpy.random.default_rng(0).normal(scale=0.1, size=(6, 6))
        self.vector = numpy.ones(6)
        self.samples: list[tuple[float, float]] = []  # (perf_counter, kernel CPU seconds)

    def sample(self):
        a = self.vector
        start = time.thread_time()
        for _ in range(REF_STEPS):
            a = self.matrix @ a + 1.0
        self.samples.append((time.perf_counter(), time.thread_time() - start))

    def between(self, t0: float, t1: float) -> float | None:
        """Median kernel time over samples taken in [t0, t1]."""
        inside = [dt for t, dt in self.samples if t0 <= t <= t1]
        return statistics.median(inside) if inside else None

    def nominal(self, seconds: float, t0: float, t1: float) -> float | None:
        """``seconds`` spent in [t0, t1], rescaled to the nominal host speed."""
        ref = self.between(t0, t1)
        return None if ref is None else seconds * REF_NOMINAL_S / ref


class Runner:
    """Starts the child processes of one run and keeps its clock."""

    def __init__(self, workload: str, config: str, out_dir: Path):
        self.workload = workload
        self.config = config
        self.out_dir = out_dir
        self.env = child_env()
        self.started = time.perf_counter()
        self.speed = HostSpeed()

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def _child(self, args: list[str]) -> tuple[int, str]:
        """Run a child to completion, sampling host speed meanwhile; returns
        (exit code, stderr).  A child still running at the run's time limit
        is killed, and the run ends with ``subprocess.TimeoutExpired``."""
        err_path = self.out_dir / "child.err"
        with open(err_path, "w", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, str(ROOT / "perfbench" / "child.py"), *args],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
            )
            try:
                while True:
                    try:
                        proc.wait(timeout=REF_PERIOD_S)
                        break
                    except subprocess.TimeoutExpired:
                        if self.remaining() <= 0:
                            raise
                        self.speed.sample()
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        return proc.returncode, err_path.read_text(encoding="utf-8")

    def setup_seconds(self) -> float:
        """Nominal wall time of a child that starts, imports cinestat and
        parses the config."""
        start = time.perf_counter()
        code, err = self._child(["setup", self.config])
        end = time.perf_counter()
        if code != 0:
            raise RuntimeError(f"setup child failed: {err.strip()}")
        return self.speed.nominal(end - start, start, end) or end - start

    def sample(self, traced: bool) -> dict:
        """One invocation; the result carries ``problems`` when it failed."""
        path = self.out_dir / "sample.json"
        path.unlink(missing_ok=True)
        args = ["run", self.workload, self.config, str(path)] + (["--trace"] if traced else [])
        start = time.perf_counter()
        try:
            code, err = self._child(args)
        except subprocess.TimeoutExpired:
            return {"traced": traced, "wall_s": time.perf_counter() - start, "problems": ["child timed out"]}
        wall = time.perf_counter() - start
        if code != 0 or not path.exists():
            return {"traced": traced, "wall_s": wall, "problems": [f"child exited with code {code}: {err.strip()[-2000:]}"]}
        result = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        result["wall_s"] = wall
        ref = self.speed.between(result["t0"], result["t1"])
        if ref is None:
            result["problems"].append("no host-speed sample fell inside the invocation")
            return result
        result["ref_s"] = ref
        for key in ("run_s", "cpu_s"):
            result[f"raw_{key}"] = result[key]
            result[key] *= REF_NOMINAL_S / ref
        return result


def measure(runner: Runner, seconds: float, trace: bool) -> list[dict]:
    """Closed loop until the next sample would overrun ``seconds``; with
    ``trace`` the samples alternate traced, untraced, traced, ..."""
    deadline = time.perf_counter() + seconds
    samples: list[dict] = []
    while True:
        samples.append(runner.sample(traced=trace and len(samples) % 2 == 0))
        if samples[-1]["problems"] and "ref_s" not in samples[-1]:
            break  # the child crashed or hung: do not keep retrying
        longest = max(s["wall_s"] for s in samples)
        now = time.perf_counter()
        if len(samples) >= MIN_SAMPLES[trace] and now + longest > deadline:
            break
        if runner.remaining() < 2 * longest:
            break
    return samples


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest percentile with at
    least ten samples beyond it (when there are enough samples)."""
    values = sorted(values)
    out = {"n": len(values), "median": statistics.median(values), "min": values[0], "max": values[-1]}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 11:
        out["tail"] = {"percentile": 100.0 * (len(values) - 10) / len(values), "value": values[-11]}
    return out


def main(argv=None) -> int:
    from perfbench import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cinestat" / "__init__.py").is_file():
        print(f"no cinestat sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # children inherit it: the host-speed kernel shares their CPU

    out_dir = ROOT / OUT / args.workload / f"seed{args.seed}"
    prepared = workloads.prepare(args.workload, args.seed, out_dir, ROOT)
    runner = Runner(args.workload, prepared["config"], out_dir)
    runner.setup_seconds()  # warm-up: byte-compiles and fills the page cache
    setup = [] if trace else [runner.setup_seconds() for _ in range(SETUP_REPS)]
    samples = measure(runner, args.seconds, trace)

    ok = [s for s in samples if not s["problems"]]
    hashes = sorted({s["sha256"] for s in samples if "sha256" in s})
    oracles = [s["oracle"] for s in samples if "oracle" in s]
    correct = len(ok) == len(samples) and len(hashes) == 1
    timed = [s for s in samples if "ref_s" in s]
    untraced = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]

    def med(rows, key):
        return statistics.median(r[key] for r in rows) if rows else 0.0

    if trace:
        names = sorted(traced[0]["metrics"]) if traced else []
        metrics = {name: {"value": med([s["metrics"] for s in traced], name)} for name in names}
        metrics["trace.untraced_run_s"] = {"value": med(untraced, "raw_run_s")}
        overhead = med(traced, "run_s") / med(untraced, "run_s") - 1.0 if traced and untraced else 0.0
        metrics["trace.overhead_frac"] = {"value": overhead}
        for name, metric in metrics.items():
            metric["unit"] = unit_of(name)
        correct = correct and bool(traced) and bool(untraced)
    else:
        metrics = {name: {"value": med(untraced, name), "unit": E2E_UNITS[name]} for name in PER_SAMPLE}
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}

    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": {**provenance(args.seed), "pinned_cpu": cpu},
        "inputs": prepared["inputs"],
        "run_config": prepared["run_config"],
        "correct": correct,
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "fail_frac": (len(samples) - len(ok)) / len(samples),
        "output_sha256": hashes,
        "oracle": oracles,
        "setup_s": summary(setup) if setup else None,
        "summaries": {
            f"{kind}.{key}": summary([s[key] for s in rows])
            for kind, rows in (("untraced", untraced), ("traced", traced))
            for key in ("run_s", "cpu_s", "raw_run_s", "raw_cpu_s", "ref_s")
            if rows
        },
        "metrics": metrics,
        "samples": [{k: v for k, v in s.items() if k != "spans"} for s in samples],
    }
    (out_dir / f"results-trace{args.trace}.json").write_text(json.dumps(results, indent=2), encoding="utf-8")
    if trace:
        spans = [{"sample": i, "spans": s["spans"]} for i, s in enumerate(samples) if "spans" in s]
        (out_dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    for s in samples:
        for problem in s["problems"]:
            print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": len(samples) - len(ok), "metrics": metrics}))
    return 0


def unit_of(name: str) -> str:
    parts = name.split(".")
    if "us_per_step" in parts:
        return "us"
    if "ms_per_epoch" in parts:
        return "ms"
    if parts[-1] == "rows_per_s":
        return "1/s"
    if "s" in parts or parts[-1].endswith("_s"):
        return "s"
    if parts[-1] in ("bytes", "bytes_computed"):
        return "B"
    if parts[-1] in ("converged", "diffuse_fallbacks", "interpolated_frac", "overhead_frac"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
