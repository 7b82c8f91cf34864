"""tools/bench_pairs.py: its paired-run summary on fixed numbers, its per-side
operation counts over stubbed runs, and its refusal of a checkout with cached
bytecode or of fewer than two pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

PARENT = [10.0 + i for i in range(10)]
CHANGE = [5.0 + i for i in range(9)] + [19.0]  # faster in 9 pairs, a tie in the last


def test_summary_counts_wins_and_ties_and_gives_quartiles():
    summary = bench_pairs.summarize(PARENT, CHANGE, "lower")
    assert (summary["change_wins"], summary["parent_wins"]) == (9, 0)
    assert summary["parent"] == {"q1": 11.75, "median": 14.5, "q3": 17.25}
    assert summary["change"] == {"q1": 6.75, "median": 9.5, "q3": 12.25}
    assert summary["median_change"] == -5.0
    assert summary["parent_iqr"] == 5.5
    assert summary["pairs"][-1] == [19.0, 19.0]
    # nine of ten pairs won, but the medians differ by less than the parent's spread
    assert not summary["gain_claimable"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread():
    assert bench_pairs.summarize(PARENT, [p - 6.0 for p in PARENT], "lower")["gain_claimable"]
    eight = [p - 6.0 for p in PARENT[:8]] + PARENT[8:]  # two ties
    assert not bench_pairs.summarize(PARENT, eight, "lower")["gain_claimable"]


def test_higher_is_better_reverses_the_wins():
    summary = bench_pairs.summarize(PARENT, CHANGE, "higher")
    assert (summary["change_wins"], summary["parent_wins"]) == (0, 9)
    assert not summary["gain_claimable"]


def test_a_checkout_with_cached_bytecode_is_refused_before_any_run(tmp_path, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "change" / "src" / "__pycache__").mkdir()
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--output", str(tmp_path / "out.json")])
    assert "__pycache__: both sides must compile" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_fewer_than_two_pairs_are_refused_before_any_run(tmp_path, capsys, monkeypatch, pairs):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("a run started"))
    with pytest.raises(SystemExit):
        bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--pairs", pairs,
                          "--output", str(tmp_path / "out.json")])
    assert f"--pairs {pairs}: quartiles need at least 2 pairs" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_report_sums_each_sides_attempted_and_failed_operations(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}]}), encoding="utf-8")
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        failed = int(checkout.name == "change" and workload == "pass_budget")
        return {"correct": not failed, "attempted": 40, "failed": failed,
                "metrics": {"run_s": {"value": 0.1 if checkout.name == "parent" else 0.2}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--pairs", "3", "--seeds", "1", "7",
                             "--output", str(out)]) == 0
    assert len(calls) == 4 * 2 * 3 * 2  # workloads x seeds x pairs x sides
    report = json.loads(out.read_text(encoding="utf-8"))
    for workload in bench_pairs.WORKLOADS:
        for seed in ("1", "7"):
            entry = report["workloads"][workload][seed]
            failing = workload == "pass_budget"
            assert entry["attempted"] == {"parent": 120, "change": 120}
            assert entry["failed"] == {"parent": 0, "change": 3 if failing else 0}
            assert entry["correct"] == {"parent": True, "change": not failing}
            assert entry["metrics"]["run_s"]["pairs"] == [[0.1, 0.2]] * 3
