"""``scripts/bench_pairs.py``: the numbers a gain claim rests on, and the
exit status that fails a run with a bad pair."""

import importlib.util
import io
import json
import pathlib
import subprocess
import tarfile

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_script()


def pairs_of(base_head):
    """Pairs whose every metric reads the given (base, head) values."""
    return [
        {"base": dict.fromkeys(bench_pairs.METRICS, b), "head": dict.fromkeys(bench_pairs.METRICS, h)}
        for b, h in base_head
    ]


def test_single_pair_has_zero_iqr():
    summary = bench_pairs.summarize(pairs_of([(1.5, 1.25)]))
    assert set(summary) == set(bench_pairs.METRICS)
    for s in summary.values():
        assert s == {"base_median": 1.5, "head_median": 1.25, "base_iqr": 0.0, "head_better_pairs": 1,
                     "claim_met": True, "regressed": False}


def test_iqr_is_the_exclusive_quartile_distance():
    # statistics.quantiles' default (exclusive) method: for 1, 2, 3, 4 the
    # quartiles are 1.25 and 3.75
    summary = bench_pairs.summarize(pairs_of([(4.0, 0.0), (1.0, 0.0), (3.0, 0.0), (2.0, 0.0)]))
    assert summary["run_s"]["base_iqr"] == pytest.approx(2.5)
    assert summary["run_s"]["base_median"] == 2.5


def test_ties_count_for_neither_side():
    summary = bench_pairs.summarize(pairs_of([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]))
    assert summary["run_s"]["head_better_pairs"] == 0


def test_head_better_pairs_counts_only_lower_head_values():
    # lower is better: the head wins pairs 0 and 3, ties pair 1, loses pair 2
    summary = bench_pairs.summarize(pairs_of([(1.0, 0.9), (1.0, 1.0), (1.0, 1.1), (2.0, 1.0)]))
    assert summary["run_s"]["head_better_pairs"] == 2
    assert summary["cpu_s"]["head_better_pairs"] == 2
    assert summary["run_s"]["head_median"] == pytest.approx(1.0)


def test_claim_met_with_nine_wins_in_ten_and_a_gap_beyond_the_iqr():
    # base 1.00-1.09 (IQR 0.0575, median 1.045); head lower in 9 pairs
    base_head = [(1.0 + k / 100, 0.8) for k in range(9)] + [(1.09, 1.1)]
    s = bench_pairs.summarize(pairs_of(base_head))["run_s"]
    assert s["head_better_pairs"] == 9
    assert s["claim_met"] and not s["regressed"]


def test_claim_not_met_with_eight_wins_in_ten():
    base_head = [(1.0, 0.5)] * 8 + [(1.0, 1.0), (1.0, 1.5)]
    s = bench_pairs.summarize(pairs_of(base_head))["run_s"]
    assert s["head_better_pairs"] == 8 and s["base_median"] - s["head_median"] > s["base_iqr"]
    assert not s["claim_met"]


def test_claim_not_met_with_the_gap_inside_the_iqr():
    # the head wins every pair, by less than the spread of the base's own runs
    base_head = [(1.0 + k / 10, 0.99 + k / 10) for k in range(10)]
    s = bench_pairs.summarize(pairs_of(base_head))["run_s"]
    assert s["head_better_pairs"] == 10 and 0 < s["base_median"] - s["head_median"] < s["base_iqr"]
    assert not s["claim_met"]


def test_regressed_only_beyond_the_bound_in_the_benchmark():
    bounds = bench_pairs.metric_bounds()
    assert set(bounds) == set(bench_pairs.METRICS)
    for name in bench_pairs.METRICS:
        inside = bench_pairs.summarize(pairs_of([(2.0, 2.0 * (1 + 0.9 * bounds[name]))] * 3))[name]
        beyond = bench_pairs.summarize(pairs_of([(2.0, 2.0 * (1 + 1.1 * bounds[name]))] * 3))[name]
        assert not inside["regressed"] and not inside["claim_met"]
        assert beyond["regressed"]


def traced_result(correct=True, failed=0, oracle=("pass", "pass")):
    """A hand-made ``--trace 1`` results file of four samples."""
    return {
        "correct": correct, "attempted": 4, "failed": failed,
        "oracle": [{"status": status} for status in oracle],
        "metrics": {"statespace.kalman_filter.calls": {"value": 409}, "trace.run_s": {"value": 1.5}},
    }


def test_traced_verdict_of_a_correct_run():
    assert bench_pairs.traced_verdict(traced_result()) == {
        "correct": True, "attempted": 4, "failed": 0, "oracle": ["pass", "pass"],
        "statespace.kalman_filter.calls": 409,
    }
    # a grid-free workload skips the oracle, which is no failure
    assert bench_pairs.traced_verdict(traced_result(oracle=("skipped",) * 2))["correct"]


def test_traced_verdict_fails_on_an_oracle_fail():
    verdict = bench_pairs.traced_verdict(traced_result(oracle=("pass", "fail")))
    assert not verdict["correct"] and verdict["oracle"] == ["pass", "fail"]


def test_traced_verdict_fails_on_a_failed_sample():
    assert not bench_pairs.traced_verdict(traced_result(failed=1))["correct"]
    assert not bench_pairs.traced_verdict(traced_result(correct=False, failed=1, oracle=("pass",)))["correct"]


def test_traced_verdict_repeats_the_fit_metrics():
    result = traced_result()
    result["metrics"]["statespace.sarimax_fit.s"] = {"value": 0.04}
    result["metrics"]["statespace.loglik_evals_per_fit"] = {"value": 204.5}
    result["metrics"]["statespace.kalman_filter.us_per_step.r12_20"] = {"value": 2.1}
    result["metrics"]["timeseries.grid.nonconverged"] = {"value": 1}
    result["metrics"]["timeseries.grid.failed"] = {"value": 0}
    verdict = bench_pairs.traced_verdict(result)
    assert verdict["statespace.sarimax_fit.s"] == 0.04
    assert verdict["statespace.kalman_filter.us_per_step.r12_20"] == 2.1
    assert verdict["statespace.loglik_evals_per_fit"] == 204.5
    assert verdict["timeseries.grid.nonconverged"] == 1
    assert verdict["timeseries.grid.failed"] == 0


def run_result(correct=True, failed=0):
    """A hand-made ``run_once`` result of 20 samples."""
    return {"output_sha256": ["ab"], "correct": correct, "failed": failed, "attempted": 20,
            **dict.fromkeys(bench_pairs.METRICS, 1.0)}


def test_pair_failures_name_the_pair_and_the_side():
    pairs = [
        {"base": run_result(), "head": run_result()},
        {"base": run_result(), "head": run_result(correct=False)},
        {"base": run_result(correct=False, failed=2), "head": run_result()},
    ]
    assert bench_pairs.pair_failures(pairs) == [
        "pair 1 head: 0 of 20 samples failed, run not correct",
        "pair 2 base: 2 of 20 samples failed, run not correct",
    ]
    assert bench_pairs.pair_failures(pairs[:1]) == []


def fake_git(cmd, **kwargs):
    # rev-parse names a revision, archive exports an empty tree and
    # ls-files lists no working-tree file
    empty = io.BytesIO()
    tarfile.open(fileobj=empty, mode="w").close()
    stdout = "0" * 40 if "rev-parse" in cmd else b"" if "ls-files" in cmd else empty.getvalue()
    return subprocess.CompletedProcess(cmd, 0, stdout=stdout)


def test_export_worktree_copies_what_git_sees(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "export"
    repo.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo, check=True,
                       capture_output=True)

    git("init", "-q")
    for name, text in {"kept.txt": "old", "sub/gone.txt": "x", ".gitignore": "*.log\n"}.items():
        (repo / name).parent.mkdir(exist_ok=True)
        (repo / name).write_text(text)
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "kept.txt").write_text("modified")
    (repo / "new.txt").write_text("untracked")
    (repo / "run.log").write_text("ignored")
    (repo / "sub" / "gone.txt").unlink()
    bench_pairs.export_worktree(repo, dest)
    files = {str(f.relative_to(dest)): f.read_text() for f in dest.rglob("*") if f.is_file()}
    assert files == {"kept.txt": "modified", "new.txt": "untracked", ".gitignore": "*.log\n"}


def test_main_counts_the_pairs_with_the_same_output(monkeypatch, capsys):
    # the head writes other bytes in pair 1 only
    calls = []

    def fake_run_once(tree, workload, seed, seconds):
        k, side = len(calls) // 2, tree.name
        calls.append((k, side))
        return {**run_result(), "output_sha256": ["cd" if (k, side) == (1, "head") else "ab"]}

    traced_trees = []
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_git)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda tree, *a, **kw: traced_trees.append(tree) or traced_result())
    assert bench_pairs.main(["--workload", "scale_run", "--pairs", "3", "--seconds", "1"]) == 0
    # every run, the traced one too, is made in an export, never in this checkout
    assert [tree.name for tree in traced_trees] == ["head"] and traced_trees[0] != bench_pairs.ROOT
    out = capsys.readouterr().out
    closing = json.loads(out.strip().splitlines()[-1])
    assert [pair["same_output"] for pair in closing["pairs"]] == [True, False, True]
    assert closing["same_output_pairs"] == 2
    assert "same output in 2 of 3 pairs" in out


@pytest.mark.parametrize("bad_pair, bad_side", [(None, None), (0, "base"), (2, "head")])
def test_main_exits_1_when_any_pair_fails(monkeypatch, capsys, bad_pair, bad_side):
    # a run judged incorrect in any pair fails the script, even when the
    # closing traced run is correct
    calls = []

    def fake_run_once(tree, workload, seed, seconds):
        k, side = len(calls) // 2, tree.name
        calls.append((k, side))
        return run_result(correct=(k, side) != (bad_pair, bad_side))

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_git)
    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    monkeypatch.setattr(bench_pairs, "run_bench", lambda *args, **kwargs: traced_result())
    code = bench_pairs.main(["--workload", "forecast_long", "--pairs", "3", "--seconds", "1"])
    out = capsys.readouterr().out
    closing = json.loads(out.strip().splitlines()[-1])
    if bad_pair is None:
        assert code == 0 and closing["failures"] == []
    else:
        line = f"pair {bad_pair} {bad_side}: 0 of 20 samples failed, run not correct"
        assert code == 1 and closing["failures"] == [line]
        assert f"FAILED {line}" in out
