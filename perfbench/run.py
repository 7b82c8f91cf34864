"""Cold-process CLI benchmark for satcvqkd.

Usage (from the repository root):

    python3 perfbench/run.py --workload gm_md_sweep --seed 1 --seconds 32 --trace 0

One operation is one ``satcvqkd sweep|compare|pass`` invocation in a fresh
interpreter, which is what a user pays each time: import, a cold QAM
moments cache, compute and the CSV write.  Operations run one at a time
for ``--seconds`` seconds on inputs generated from ``--seed``; every one is
checked (see checks.py).  The last line of stdout is a JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of the traced
run (``--trace 1``).  Timings are calibrated: each is divided by the
speed of a fixed loop timed next to it in the same child, because on a
shared host the machine's speed changes from second to second.  README.md
lists every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import inputs
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
CHILD = BENCH_DIR / "child.py"

MIN_OPERATIONS = 4  # even with a tiny --seconds: two traced, two untraced
OPERATION_TIMEOUT_S = 25.0  # an operation takes ~2 s; keeps a hung run under 3 minutes
IMPORTTIME_REPEATS = 3
# run_s_tail is the slowest sample that still has this many samples above it.
TAIL_BEYOND = 10
# Calibrated times are seconds at the speed at which child.calibration()
# takes this long; it takes about that on an idle 2-vCPU Xeon VM.
CALIBRATION_REFERENCE_S = 0.020


def child_env() -> dict[str, str]:
    """The library from this checkout, one BLAS thread, default worker count."""
    env = {k: v for k, v in os.environ.items() if k != "SATCVQKD_WORKERS"}
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Operation:
    ok: bool
    errors: list[str] = field(default_factory=list)
    traced: bool = False
    run_s: float = 0.0  # calibrated, like import_s and total_s
    import_s: float = 0.0
    total_s: float = 0.0
    wall_run_s: float = 0.0  # as measured
    wall_import_s: float = 0.0
    wall_total_s: float = 0.0
    calibration_s: float = 0.0  # the loop between import and main
    peak_rss_mb: float = 0.0
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)


def run_operation(workload: inputs.Workload, work: Path, traced: bool) -> tuple[Operation, str]:
    """Run the CLI once in a new interpreter; return the outcome and its CSV."""
    report_path, spans_path, output_path = (
        work / "report.json", work / "spans.json", work / "out.csv")
    for path in (report_path, spans_path, output_path):
        path.unlink(missing_ok=True)
    command = [sys.executable, str(CHILD), str(report_path)]
    if traced:
        command += ["--trace", str(spans_path)]
    command += ["--", workload.command, "--config", "config.json", "--output", output_path.name]

    started = time.perf_counter()
    try:
        proc = subprocess.run(command, cwd=work, env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=OPERATION_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        return Operation(ok=False, errors=[f"timed out after {OPERATION_TIMEOUT_S} s"],
                         traced=traced, wall_total_s=time.perf_counter() - started), ""
    op = Operation(ok=False, traced=traced, wall_total_s=time.perf_counter() - started)
    if proc.returncode != 0 or not report_path.exists() or not output_path.exists():
        op.errors.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return op, ""
    with open(report_path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    raw = output_path.read_bytes()
    calibrate(op, report)
    op.peak_rss_mb = report["peak_rss_kib"] / 1024.0
    op.digest = hashlib.sha256(raw).hexdigest()
    if traced:
        op.layers = spans.layer_metrics(
            spans.read_spans(str(spans_path)), workload.qam_constellations, len(raw))
    op.ok = True
    return op, raw.decode("utf-8")


def calibrate(op: Operation, report: dict) -> None:
    """Fill in the operation's times, calibrated by the loops around each.

    A timed span is divided by the mean of the calibration loops run just
    before and just after it, in the same process, and multiplied by
    CALIBRATION_REFERENCE_S.  The parent's total excludes the loops.
    """
    before, between, after = report["calibration_s"]
    op.wall_import_s, op.wall_run_s = report["import_s"], report["run_s"]
    op.wall_total_s -= before + between + after
    op.import_s = op.wall_import_s * 2 * CALIBRATION_REFERENCE_S / (before + between)
    op.run_s = op.wall_run_s * 2 * CALIBRATION_REFERENCE_S / (between + after)
    op.total_s = op.wall_total_s * 3 * CALIBRATION_REFERENCE_S / (before + between + after)
    op.calibration_s = between


def output_errors(workload: inputs.Workload, seed: int, text: str) -> list[str]:
    """Content checks for one distinct output of the run."""
    try:
        output = checks.CsvOutput(text)
        errors = []
        if len(output.rows) != workload.expected_rows:
            errors.append(f"{len(output.rows)} data rows, expected {workload.expected_rows}")
        if seed == inputs.DEFAULT_SEED:
            errors += checks.reference_errors(output, checks.load_reference(workload.name))
        if workload.command == "pass":
            errors += checks.pass_oracle_errors(output)
        return errors
    except (ValueError, KeyError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest sample with TAIL_BEYOND samples above it, and its percentile.

    With TAIL_BEYOND or fewer samples no sample qualifies; the minimum is
    returned with percentile 0.
    """
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        return ordered[0], 0.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def import_metrics(work: Path) -> dict[str, float]:
    """Median per-package import self time over IMPORTTIME_REPEATS cold imports."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import satcvqkd.cli"],
            cwd=work, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=OPERATION_TIMEOUT_S, text=True, check=True)
        runs.append(spans.import_breakdown(proc.stderr))
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def measure(workload: inputs.Workload, seed: int, seconds: float, trace: bool,
            work: Path) -> tuple[list[Operation], dict[str, float]]:
    """Run operations for ``seconds``; with ``trace`` every other one is traced."""
    deadline = time.perf_counter() + seconds
    inputs.write_inputs(workload, work)
    extra = import_metrics(work) if trace else {}

    operations: list[Operation] = []
    checked: dict[str, list[str]] = {}
    durations: list[float] = []  # start no operation that would overrun, by their median
    while len(operations) < MIN_OPERATIONS or (
            time.perf_counter() + statistics.median(durations) < deadline):
        started = time.perf_counter()
        op, text = run_operation(workload, work, traced=trace and len(operations) % 2 == 1)
        durations.append(time.perf_counter() - started)
        if op.ok:
            if op.digest not in checked:
                checked[op.digest] = output_errors(workload, seed, text)
                if len(checked) > 1:
                    checked[op.digest].append("CSV bytes differ between repetitions")
            op.errors += checked[op.digest]
            op.ok = not op.errors
        operations.append(op)
    return operations, extra


def end_to_end(operations: list[Operation]) -> tuple[dict[str, float], str]:
    """Medians over the run's good operations, the tail, and a line naming the tail."""
    good = [op for op in operations if op.ok]
    run_s = [op.run_s for op in good]
    tail_s, percentile = tail(run_s)
    return {
        "run_s": statistics.median(run_s),
        "run_s_tail": tail_s,
        "setup_s": statistics.median(op.import_s for op in good),
        "total_s": statistics.median(op.total_s for op in good),
        "peak_rss_mb": statistics.median(op.peak_rss_mb for op in good),
    }, f"run_s_tail is p{percentile:.0f} of {len(run_s)} samples"


def per_layer(operations: list[Operation], extra: dict[str, float]) -> dict[str, float]:
    traced = [op for op in operations if op.ok and op.traced]
    plain = [op for op in operations if op.ok and not op.traced]
    metrics = {key: statistics.median(op.layers[key] for op in traced)
               for key in traced[0].layers}
    metrics.update(extra)
    metrics["wall.run_s"] = statistics.median(op.wall_run_s for op in plain)
    metrics["wall.setup_s"] = statistics.median(op.wall_import_s for op in plain)
    metrics["wall.total_s"] = statistics.median(op.wall_total_s for op in plain)
    metrics["calibration_s"] = statistics.median(op.calibration_s for op in plain)
    metrics["trace.overhead_s"] = (statistics.median(op.run_s for op in traced)
                                   - statistics.median(op.run_s for op in plain))
    return metrics


def load_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "satcvqkd" / "cli.py").is_file():
        print(f"error: no satcvqkd sources under {SRC}", file=sys.stderr)
        return 2
    units = load_units()
    workload = inputs.generate(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        operations, extra = measure(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [op for op in operations if not op.ok]
    for op in failed[:5]:
        print(f"failed operation: {'; '.join(op.errors)}", file=sys.stderr)
    kinds = {op.traced for op in operations if op.ok}
    values: dict[str, float] = {}
    note = ""
    if args.trace and kinds == {False, True}:
        values = per_layer(operations, extra)
    elif not args.trace and kinds:
        values, note = end_to_end(operations)
    print(f"workload {args.workload} seed {args.seed}: {len(operations)} operations, "
          f"{len(failed)} failed")
    print(f"failed_share {len(failed) / len(operations):.4f} ratio")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    if note:
        print(note)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(operations),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
