"""Alternating before/after runs of one benchmark workload.

Usage: python3 scripts/bench_pairs.py --workload scale_run --pairs 10 [--base HEAD] [--seed 1] [--seconds 35]

Exports two trees into a temporary directory: the base revision's
committed files (``git archive``) and this working tree, that is every
existing path of ``git ls-files --cached --others --exclude-standard`` with
its working-tree bytes.  Both sides thus run from a fresh directory of the
same kind, and differ only in their files.  It then runs

    perfbench/run.py --workload W --seed N --seconds S --trace 0

in the two exports by turns: the base first in even pairs and the working
tree first in odd ones, so a drift in the host's speed does not favour one
side.  Prints each pair's end-to-end metrics as they come, and whether the
two sides wrote the same output (the ``output_sha256`` of each
run's results file); at the end, each side's medians, the interquartile
range of the base's runs, in how many pairs the working tree did better and
two verdicts per metric: whether a gain claim holds (the working tree lower
in at least 9 of every 10 pairs, and the medians further apart than the
base's IQR) and whether the working tree's median is worse than the base's
by more than the metric's ``bound`` in BENCHMARK.json, a fraction of the
base median.  After the pairs it runs the working tree's export once more
with ``--trace 1``, the same workload, seed and seconds: the run that checks
each traced invocation's output and its winning fit against the likelihood
oracle.  It prints that run's verdict, ``correct``, its failed samples and
how many oracle checks ended in each status, and in how many pairs the two
sides wrote the same output.  The last line is all of it as one JSON object,
with that count under ``same_output_pairs``, the traced run under
``traced`` and every failed pair side under ``failures``.  The script exits
1 when a run of any pair, base or working tree, is not correct or lost
samples (each such side is named by its pair index), or when the traced run
is not correct.  The temporary directory is removed on exit; the
repository's git state is not touched.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("run_s", "cpu_s", "peak_rss_mb", "setup_s")  # all lower-is-better
BENCHMARK = ROOT / "BENCHMARK.json"
# per-layer metrics of the traced run that the closing JSON repeats
TRACED_METRICS = (
    "statespace.kalman_filter.calls", "statespace.sarimax_fit.calls",
    "statespace.stationary_covariance.diffuse_fallbacks", "statespace.kalman_filter.s",
    "statespace.kalman_filter.us_per_step.r12_20", "statespace.sarimax_fit.s", "statespace.loglik_evals_per_fit",
    "timeseries.sarimax_grid_search.s", "timeseries.grid.nonconverged", "timeseries.grid.failed",
)


def export_worktree(root: Path, dest: Path) -> None:
    """The working tree of the repository at ``root`` as git sees it, copied
    into ``dest``: tracked and untracked files that are not ignored, with
    their current bytes.  A tracked file deleted from the working tree is
    left out."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=root, capture_output=True, check=True,
    ).stdout
    for name in os.fsdecode(listing).split("\0"):
        if name and (root / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(root / name, dest / name)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; returns the results file it
    wrote."""
    cmd = [
        sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((tree / ".perfbench_out" / workload / f"seed{seed}" / f"results-trace{trace}.json").read_text())


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``: its end-to-end metrics and the hashes of
    the output it wrote."""
    result = run_bench(tree, workload, seed, seconds, trace=0)
    return {
        "output_sha256": result["output_sha256"],
        "correct": result["correct"],
        "failed": result["failed"],
        "attempted": result["attempted"],
        **{name: result["metrics"][name]["value"] for name in METRICS},
    }


def metric_bounds() -> dict[str, float]:
    """Each end-to-end metric's regression bound in BENCHMARK.json, a fraction
    of the base median."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def traced_verdict(result: dict) -> dict:
    """The closing JSON's ``traced`` entry for a ``--trace 1`` results file:
    ``correct`` holds when the run says so, no sample failed and no
    likelihood oracle failed.  The entry also carries the run's failed and
    attempted samples, each oracle status and its ``TRACED_METRICS``."""
    oracle = [o["status"] for o in result["oracle"]]
    return {
        "correct": bool(result["correct"]) and result["failed"] == 0 and "fail" not in oracle,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "oracle": oracle,
        **{name: result["metrics"][name]["value"] for name in TRACED_METRICS if name in result["metrics"]},
    }


def run_failure(run: dict) -> str | None:
    """What went wrong in one side's run of a pair: None when the run is
    correct and lost no sample."""
    if run["failed"] or not run["correct"]:
        return f"{run['failed']} of {run['attempted']} samples failed" + ("" if run["correct"] else ", run not correct")
    return None


def pair_failures(pairs: list[dict]) -> list[str]:
    """One line for each failed side of each pair, naming the pair's index
    and the side."""
    return [
        f"pair {k} {side}: {why}"
        for k, pair in enumerate(pairs)
        for side in ("base", "head")
        if (why := run_failure(pair[side]))
    ]


def summarize(pairs: list[dict]) -> dict:
    bounds = metric_bounds()
    out = {}
    for name in METRICS:
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        q1, _, q3 = statistics.quantiles(base, n=4) if len(base) >= 2 else (base[0], None, base[0])
        base_median, head_median = statistics.median(base), statistics.median(head)
        wins = sum(h < b for b, h in zip(base, head))  # a tie counts for neither side
        out[name] = {
            "base_median": base_median,
            "head_median": head_median,
            "base_iqr": q3 - q1,
            "head_better_pairs": wins,
            "claim_met": 10 * wins >= 9 * len(pairs) and base_median - head_median > q3 - q1,
            "regressed": head_median - base_median > bounds[name] * base_median,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    args = parser.parse_args(argv)

    base_rev = subprocess.run(
        ["git", "rev-parse", "--verify", f"{args.base}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.strip()
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"base": Path(tmp) / "base", "head": Path(tmp) / "head"}
        archive = subprocess.run(["git", "archive", "--format=tar", base_rev], cwd=ROOT, capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(trees["base"], filter="data")
        export_worktree(ROOT, trees["head"])
        print(f"{args.workload} seed {args.seed}, {args.seconds:g} s a run: base {base_rev[:12]} against the working tree")
        for k in range(args.pairs):
            order = ("base", "head") if k % 2 == 0 else ("head", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, args.seed, args.seconds)
            pair["same_output"] = pair["base"]["output_sha256"] == pair["head"]["output_sha256"]
            pairs.append(pair)
            same = "same output" if pair["same_output"] else "outputs differ"
            print(f"pair {k} ({order[0]} first, {same}): " + "  ".join(
                f"{name} {pair['base'][name]:.3f} -> {pair['head'][name]:.3f}" for name in METRICS
            ) + "".join(
                f"  [{side}: {why}]" for side in ("base", "head") if (why := run_failure(pair[side]))
            ), flush=True)
        traced = traced_verdict(run_bench(trees["head"], args.workload, args.seed, args.seconds, trace=1))
    summary = summarize(pairs)
    for name, s in summary.items():
        print(f"{name}: median {s['base_median']:.3f} -> {s['head_median']:.3f} "
              f"(base IQR {s['base_iqr']:.3f}), working tree lower in {s['head_better_pairs']} of {len(pairs)} pairs; "
              f"gain claim {'met' if s['claim_met'] else 'not met'}, "
              f"{'worse than' if s['regressed'] else 'within'} the bound")
    print(f"traced run of the working tree: {'correct' if traced['correct'] else 'NOT correct'}, "
          f"{traced['failed']} of {traced['attempted']} samples failed, "
          "likelihood oracle " + (", ".join(f"{n} {status}" for status, n in Counter(traced["oracle"]).items())
                                  or "not run"), flush=True)
    same = sum(pair["same_output"] for pair in pairs)
    print(f"same output in {same} of {len(pairs)} pairs", flush=True)
    failures = pair_failures(pairs)
    for line in failures:
        print(f"FAILED {line}", flush=True)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "base": base_rev, "pairs": pairs, "summary": summary, "same_output_pairs": same, "traced": traced,
        "failures": failures,
    }))
    return 0 if traced["correct"] and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
