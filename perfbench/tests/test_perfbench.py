"""Self-tests of the benchmark harness (no library import, no timing).

Run from the repository root: ``python3 -m pytest perfbench/tests -q``
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span  # noqa: E402


def _written(name: str, seed: int, directory: Path) -> dict[str, bytes]:
    directory.mkdir()
    inputs.write_inputs(inputs.generate(name, seed), directory)
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(inputs.GENERATORS))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    first = _written(name, 5, tmp_path / "a")
    assert first == _written(name, 5, tmp_path / "b")
    assert first != _written(name, 6, tmp_path / "c")


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, inputs.HOLDOUT_SEED, 0, 99])
def test_generated_inputs_are_valid(seed):
    for name in inputs.GENERATORS:
        workload = inputs.generate(name, seed)
        sweep = workload.config.get("sweep")
        if sweep is not None:
            assert all(0.0 < e <= 90.0 for e in sweep["elevation_deg"])
            assert len(set(sweep["altitude_km"])) == len(sweep["altitude_km"])
        if workload.profile is not None:
            times = [t for t, _ in workload.profile]
            assert all(b > a for a, b in zip(times, times[1:]))
            assert all(0.0 < e <= 90.0 for _, e in workload.profile)
            assert workload.expected_rows == len(workload.profile)


def test_self_time_on_synthetic_span_tree():
    tree = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 is covered once
        Span("late", 9.5, 11.0, 0),  # only the part inside the root counts
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 2.0, 1.0, 3.0, 1.5])


def test_busy_time_counts_nested_spans_once():
    tree = [
        Span("load", 0.0, 5.0, -1),
        Span("load", 1.0, 4.0, 0),  # recursive call inside the outer one
        Span("other", 6.0, 7.0, -1),
        Span("load", 6.2, 6.4, 2),
    ]
    assert spans.busy_time(tree, frozenset({"load"})) == pytest.approx(5.2)


def test_tracer_records_parents_and_results():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (name0, _, _, parent0), (name1, _, _, parent1) = tracer.spans
    assert (name0, parent0, name1, parent1) == ("outer", -1, "inner", 0)


def _pass_csv(total_md: float, total_mlc: float, rows) -> str:
    lines = [
        '# satcvqkd config {"schema_version": 1}',
        f"# summary model=MD total_key_bits={total_md!r} excluded_bins=0",
        f"# summary model=MLC-MSD total_key_bits={total_mlc!r} excluded_bins=0",
        "time_s,elevation_deg,skr_bits_per_second[MD],skr_bits_per_second[MLC-MSD]",
    ]
    lines += [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_pass_oracle_accepts_the_integral_and_flags_a_perturbed_total():
    rows = [(0.0, 10.0, -5.0, 1.0), (0.5, 20.0, 100.0, 2.0),
            (2.0, 30.0, 300.0, -1.0), (2.25, 40.0, 7.0, 9.0)]
    md = 100.0 * 1.5 + 300.0 * 0.25
    mlc = 1.0 * 0.5 + 2.0 * 1.5
    assert checks.pass_oracle_errors(checks.CsvOutput(_pass_csv(md, mlc, rows))) == []
    perturbed = checks.pass_oracle_errors(
        checks.CsvOutput(_pass_csv(md * (1.0 + 1e-6), mlc, rows)))
    assert len(perturbed) == 1 and "model MD" in perturbed[0]


def test_reference_check_tolerates_rounding_but_not_a_changed_value():
    text = "header,a,b\n" + "\n".join(f"x,{i + 0.5!r},{-i * 1e3!r}" for i in range(60))
    output = checks.CsvOutput(text)
    reference = checks.make_reference("w", 1, output)
    assert checks.reference_errors(output, reference) == []
    nudged = text.replace("x,30.5,", f"x,{30.5 * (1 + 1e-12)!r},")
    assert checks.reference_errors(checks.CsvOutput(nudged), reference) == []
    changed = text.replace("x,59.5,", "x,59.6,")
    assert checks.reference_errors(checks.CsvOutput(changed), reference) != []


def test_import_breakdown_sums_self_time_per_top_level_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:      1000 |       1000 |     scipy.special",
        "import time:        50 |       1050 |   satcvqkd.channel",
        "import time:        25 |       1075 | satcvqkd",
    ])
    assert spans.import_breakdown(stderr) == pytest.approx({
        "import.numpy_s": 300e-6, "import.scipy_s": 1000e-6,
        "import.satcvqkd_self_s": 75e-6,
    })


def test_tail_is_the_highest_sample_with_ten_above_it():
    samples = [float(v) for v in range(1, 21)]
    assert run.tail(samples) == (10.0, 50.0)
    value, percentile = run.tail(samples[:5])
    assert (value, percentile) == (1.0, 0.0)


def test_calibration_divides_each_span_by_the_loops_around_it():
    op = run.Operation(ok=True, wall_total_s=2.0)
    ref = run.CALIBRATION_REFERENCE_S
    report = {"import_s": 0.8, "run_s": 0.6,
              "calibration_s": [ref, 3 * ref, 2 * ref]}
    run.calibrate(op, report)
    assert (op.wall_import_s, op.wall_run_s) == (0.8, 0.6)
    assert op.wall_total_s == pytest.approx(2.0 - 6 * ref)
    assert op.import_s == pytest.approx(0.8 / 2)  # loops before and between: 2x slow
    assert op.run_s == pytest.approx(0.6 / 2.5)   # between and after: 2.5x slow
    assert op.total_s == pytest.approx((2.0 - 6 * ref) / 2)
