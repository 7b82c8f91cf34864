"""tools/bench_pairs.py: its paired-run summary and bound check on fixed numbers,
its per-side operation counts, traced per-layer numbers and the benchmark file's
workloads over stubbed runs, and its refusal of a checkout with cached bytecode
or of fewer than two pairs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WORKLOADS = ("gm_md_sweep", "protocol_compare", "qam_shaping", "pass_budget")
PARENT = [10.0 + i for i in range(10)]
CHANGE = [5.0 + i for i in range(9)] + [19.0]  # faster in 9 pairs, a tie in the last


def test_summary_counts_wins_and_ties_and_gives_quartiles():
    summary = bench_pairs.summarize(PARENT, CHANGE, "lower", 0.25)
    assert (summary["change_wins"], summary["parent_wins"]) == (9, 0)
    assert summary["parent"] == {"q1": 11.75, "median": 14.5, "q3": 17.25}
    assert summary["change"] == {"q1": 6.75, "median": 9.5, "q3": 12.25}
    assert summary["median_change"] == -5.0
    assert summary["parent_iqr"] == 5.5
    assert summary["pairs"][-1] == [19.0, 19.0]
    # nine of ten pairs won, but the medians differ by less than the parent's spread
    assert not summary["gain_claimable"]


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_spread():
    faster = [p - 6.0 for p in PARENT]
    assert bench_pairs.summarize(PARENT, faster, "lower", 0.25)["gain_claimable"]
    eight = [p - 6.0 for p in PARENT[:8]] + PARENT[8:]  # two ties
    assert not bench_pairs.summarize(PARENT, eight, "lower", 0.25)["gain_claimable"]


def test_higher_is_better_reverses_the_wins():
    summary = bench_pairs.summarize(PARENT, CHANGE, "higher", 0.25)
    assert (summary["change_wins"], summary["parent_wins"]) == (0, 9)
    assert not summary["gain_claimable"]


def test_a_median_within_its_bound_is_no_regression():
    worse = [1.2 * p for p in PARENT]  # 20 % worse in every pair
    assert bench_pairs.summarize(PARENT, worse, "lower", 0.25)["within_bound"]
    assert not bench_pairs.summarize(PARENT, worse, "lower", 0.1)["within_bound"]
    assert bench_pairs.summarize(PARENT, PARENT, "lower", 0.0)["within_bound"]
    fewer = [0.8 * p for p in PARENT]  # 20 % worse where higher is better
    assert bench_pairs.summarize(PARENT, fewer, "higher", 0.25)["within_bound"]
    assert not bench_pairs.summarize(PARENT, fewer, "higher", 0.1)["within_bound"]
    assert bench_pairs.summarize(PARENT, worse, "higher", 0.0)["within_bound"]


def _benchmark_file(tmp_path, workloads, metrics):
    """The parent's BENCHMARK.json with these workload names and end-to-end metrics."""
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    (tmp_path / "parent" / "BENCHMARK.json").write_text(json.dumps({
        "workloads": [{"name": name} for name in workloads], "end_to_end": metrics,
    }), encoding="utf-8")


def test_the_report_covers_the_benchmark_files_workloads_and_bounds(tmp_path, monkeypatch):
    _benchmark_file(tmp_path, ["alpha", "beta"], [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "ops", "unit": "1/s", "better": "higher", "bound": 0.1}])
    # the change is 20 % slower: within run_s's bound; and 20 % fewer ops: outside its bound
    values = {"parent": {"run_s": 1.0, "ops": 100.0}, "change": {"run_s": 1.2, "ops": 80.0}}
    workloads = []

    def run_once(checkout, workload, seed, seconds, trace):
        workloads.append(workload)
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            name: {"value": value, "unit": "s"} for name, value in values[checkout.name].items()}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--pairs", "2",
                             "--output", str(out)]) == 0
    # pairs x sides and a traced run per side, in file order
    assert workloads == ["alpha"] * 6 + ["beta"] * 6
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report["workloads"]) == ["alpha", "beta"]
    for workload in ("alpha", "beta"):
        metrics = report["workloads"][workload]["1"]["metrics"]
        assert metrics["run_s"]["within_bound"] and not metrics["ops"]["within_bound"]


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
    _benchmark_file(tmp_path, WORKLOADS, [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}])
    calls = []

    def run_once(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, workload, seed))
        failed = int(checkout.name == "change" and workload == "pass_budget")
        return {"correct": not failed, "attempted": 40, "failed": failed, "metrics": {
            "run_s": {"value": 0.1 if checkout.name == "parent" else 0.2, "unit": "s"}}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--pairs", "3", "--seeds", "1", "7",
                             "--output", str(out)]) == 0
    assert len(calls) == 4 * 2 * (3 + 1) * 2  # workloads x seeds x (pairs + traced) x sides
    report = json.loads(out.read_text(encoding="utf-8"))
    for workload in WORKLOADS:
        for seed in ("1", "7"):
            entry = report["workloads"][workload][seed]
            failing = workload == "pass_budget"
            assert entry["attempted"] == {"parent": 120, "change": 120}
            assert entry["failed"] == {"parent": 0, "change": 3 if failing else 0}
            assert entry["correct"] == {"parent": True, "change": not failing}
            assert entry["metrics"]["run_s"]["pairs"] == [[0.1, 0.2]] * 3


def test_one_traced_run_per_side_reports_its_layers_without_bounds(tmp_path, monkeypatch):
    _benchmark_file(tmp_path, ["alpha"], [
        {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}])
    traced = []

    def run_once(checkout, workload, seed, seconds, trace):
        if not trace:
            return {"correct": True, "attempted": 4, "failed": 0,
                    "metrics": {"run_s": {"value": 0.1, "unit": "s"}}}
        traced.append((checkout.name, workload, seed, seconds))
        layers = {"config.load.busy_s": 0.002 if checkout.name == "parent" else 0.03}
        if checkout.name == "change":
            layers["cli.csv_s"] = 0.01  # a metric the parent does not report
        return {"correct": checkout.name == "parent", "attempted": 4, "failed": 0,
                "metrics": {name: {"value": value, "unit": "s"} for name, value in layers.items()}}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--pairs", "2", "--seeds", "1", "7",
                             "--seconds", "4", "--output", str(out)]) == 0
    assert traced == [(side, "alpha", seed, 4.0) for seed in (1, 7)
                      for side in ("parent", "change")]
    entry = json.loads(out.read_text(encoding="utf-8"))["workloads"]["alpha"]["7"]
    assert entry["traced"] == {
        "correct": {"parent": True, "change": False},
        "metrics": {"config.load.busy_s": {"unit": "s", "parent": 0.002, "change": 0.03},
                    "cli.csv_s": {"unit": "s", "parent": None, "change": 0.01}},
    }
    assert entry["attempted"] == {"parent": 8, "change": 8}  # the pairs' runs only
    assert list(entry["metrics"]) == ["run_s"]
