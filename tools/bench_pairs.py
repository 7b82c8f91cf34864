"""Paired benchmark runs of two checkouts, summarised per workload, seed and metric.

Usage (from any directory):

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pairs 10 --seconds 32 --seeds 1 20221130 --output BENCH_<pr>.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
parent first in even pairs and the change first in odd ones, for every
workload of the parent's ``BENCHMARK.json`` and every seed.  For each
end-to-end metric of that file the output gives each side's median and
quartiles, every pair's values, and how many pairs each side won; a tie
counts for neither.
Per side it also gives whether every run was correct and how many operations
its runs attempted and failed in all, so a growing share of failures shows.
After the pairs, one ``--trace 1`` run per side gives the per-layer metrics
(``traced``): each side's value, with no bound and no win count, to show
where a change moved time between layers.
A gain is claimed only when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile range.
A metric is within its bound when the change's median is no worse than the
parent's by more than the metric's ``bound``, a fraction of the parent's
median.
Neither checkout may hold a ``__pycache__`` under ``src/``.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles (``statistics.quantiles``' default exclusive method)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric over pairs ``zip(parent, change)``; ``better`` is "lower" or
    "higher", and ``bound`` the fraction of the parent's median by which the
    change's median may be worse."""
    sign = 1.0 if better == "lower" else -1.0
    change_wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    parent_wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    sides = {"parent": quartiles(parent), "change": quartiles(change)}
    spread = sides["parent"]["q3"] - sides["parent"]["q1"]
    parent_median, change_median = sides["parent"]["median"], sides["change"]["median"]
    gain = sign * (parent_median - change_median)
    within_bound = change_median <= parent_median * (1.0 + bound) if better == "lower" \
        else change_median >= parent_median * (1.0 - bound)
    return {
        **sides,
        "change_wins": change_wins,
        "parent_wins": parent_wins,
        "median_change": change_median - parent_median,
        "parent_iqr": spread,
        "gain_claimable": change_wins >= 0.9 * len(parent) and gain > spread,
        "within_bound": within_bound,
        "pairs": [[p, c] for p, c in zip(parent, change)],
    }


def layers(parent: dict, change: dict) -> dict:
    """Each per-layer metric of one traced run per side: its unit and each side's
    value (None on a side that lacks it)."""
    sides = {"parent": parent["metrics"], "change": change["metrics"]}
    units = {name: m["unit"] for metrics in sides.values() for name, m in metrics.items()}
    return {name: {"unit": unit, **{side: metrics.get(name, {}).get("value")
                                    for side, metrics in sides.items()}}
            for name, unit in units.items()}


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The JSON result line of one ``perfbench/run.py --trace <trace>`` run in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--labels", nargs=2, default=("parent", "change"),
                        metavar=("PARENT", "CHANGE"), help="names of the two sides")
    parser.add_argument("--output", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # statistics.quantiles needs two values per side
        parser.error(f"--pairs {args.pairs}: quartiles need at least 2 pairs")
    # Where PYTHONDONTWRITEBYTECODE is set, each perfbench child compiles src/
    # anew, unless its checkout already holds bytecode: that side starts faster.
    cached = [path for side in (args.parent, args.change)
              for path in (side / "src").rglob("__pycache__")]
    if cached:
        parser.error(f"remove {cached[0]}: both sides must compile their sources alike")

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    report = {"labels": dict(zip(("parent", "change"), args.labels)), "pairs": args.pairs,
              "seconds": args.seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            runs: dict[str, list[dict]] = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(run_once(getattr(args, side), workload, seed,
                                               args.seconds, 0))
                print(f"{workload} seed {seed}: pair {i + 1} of {args.pairs}", file=sys.stderr)
            traced = {side: run_once(getattr(args, side), workload, seed, args.seconds, 1)
                      for side in ("parent", "change")}
            report["workloads"].setdefault(workload, {})[str(seed)] = {
                "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
                **{count: {side: sum(r[count] for r in rs) for side, rs in runs.items()}
                   for count in ("attempted", "failed")},
                "metrics": {
                    name: {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                           **summarize(*([r["metrics"][name]["value"] for r in runs[side]]
                                         for side in ("parent", "change")),
                                       m["better"], m["bound"])}
                    for name, m in metrics.items()
                },
                "traced": {"correct": {side: r["correct"] for side, r in traced.items()},
                           "metrics": layers(traced["parent"], traced["change"])},
            }
    args.output.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
