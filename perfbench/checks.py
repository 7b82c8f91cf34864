"""Output checks applied to every benchmark operation.

An operation fails when it exits non-zero, emits the wrong number of data
rows, differs in bytes from the other operations of the run, departs from
the recorded reference at the default seed, or (for a pass) reports a
total the emitted series does not add up to.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

# Numeric fields must match the reference to this relative tolerance, taken
# against the larger of the value and the largest magnitude of its column
# in the reference sample (so a rate that crosses zero is not held to an
# unreachable relative precision).
REFERENCE_RTOL = 1e-8
# The pass oracle sums the same products in another order.
PASS_ORACLE_RTOL = 1e-9
SAMPLE_ROWS = 48
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


class CsvOutput:
    """A CLI output file split into summary lines, header and data rows."""

    def __init__(self, text: str) -> None:
        lines = text.splitlines()
        comments = [line for line in lines if line.startswith("#")]
        body = [line for line in lines if not line.startswith("#")]
        self.summaries = [line for line in comments if line.startswith("# summary ")]
        self.header = body[0] if body else ""
        self.rows = body[1:]


def sample_indices(rows: int) -> list[int]:
    """Fixed, evenly spaced row indices (first and last included)."""
    if rows <= SAMPLE_ROWS:
        return list(range(rows))
    return sorted({round(i * (rows - 1) / (SAMPLE_ROWS - 1)) for i in range(SAMPLE_ROWS)})


def make_reference(name: str, seed: int, output: CsvOutput) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "header": output.header,
        "row_count": len(output.rows),
        "rows": {str(i): output.rows[i] for i in sample_indices(len(output.rows))},
        "summaries": output.summaries,
    }


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


def _number(field: str) -> float | None:
    try:
        return float(field)
    except ValueError:
        return None


def _fields_match(got: list[str], want: list[str], scales: list[float]) -> bool:
    if len(got) != len(want):
        return False
    for g, w, scale in zip(got, want, scales):
        gv, wv = _number(g), _number(w)
        if gv is None or wv is None:
            if g != w:
                return False
        elif abs(gv - wv) > REFERENCE_RTOL * max(abs(gv), abs(wv), scale):
            return False
    return True


def _column_scales(rows: list[list[str]]) -> list[float]:
    width = max(len(row) for row in rows)
    scales = [0.0] * width
    for row in rows:
        for j, field in enumerate(row):
            value = _number(field)
            if value is not None and math.isfinite(value):
                scales[j] = max(scales[j], abs(value))
    return scales


def _summary_fields(line: str) -> list[str]:
    return [part.split("=", 1)[-1] for part in line.split()[2:]]


def reference_errors(output: CsvOutput, reference: dict) -> list[str]:
    """Differences from the reference beyond the stated tolerance."""
    errors = []
    if output.header != reference["header"]:
        errors.append("header differs from the reference")
    if len(output.rows) != reference["row_count"]:
        errors.append(f"{len(output.rows)} rows, reference has {reference['row_count']}")
        return errors
    want_rows = {int(i): row.split(",") for i, row in reference["rows"].items()}
    scales = _column_scales(list(want_rows.values()))
    for i, want in sorted(want_rows.items()):
        if not _fields_match(output.rows[i].split(","), want, scales):
            errors.append(f"row {i} differs from the reference: {output.rows[i]}")
    want_summaries = [_summary_fields(s) for s in reference["summaries"]]
    got_summaries = [_summary_fields(s) for s in output.summaries]
    if len(got_summaries) != len(want_summaries) or not all(
        _fields_match(g, w, [0.0] * len(w)) for g, w in zip(got_summaries, want_summaries)
    ):
        errors.append(f"pass summaries differ from the reference: {output.summaries}")
    return errors


def pass_oracle_errors(output: CsvOutput) -> list[str]:
    """Recompute each pass total as sum_i max(skr_i, 0) * (t_{i+1} - t_i).

    The series is the one the CLI emitted; this shares no code with the
    library's dwell binning.
    """
    columns = output.header.split(",")
    table = [[float(v) for v in row.split(",")] for row in output.rows]
    times = [row[0] for row in table]
    errors = []
    if not output.summaries:
        errors.append("pass output has no summary lines")
    for line in output.summaries:
        fields = dict(part.split("=", 1) for part in line.split()[2:])
        column = columns.index(f"skr_bits_per_second[{fields['model']}]")
        expected = math.fsum(
            max(table[i][column], 0.0) * (times[i + 1] - times[i])
            for i in range(len(table) - 1)
        )
        reported = float(fields["total_key_bits"])
        if not math.isclose(reported, expected, rel_tol=PASS_ORACLE_RTOL, abs_tol=1e-9):
            errors.append(
                f"model {fields['model']}: total_key_bits {reported!r} but the "
                f"series integrates to {expected!r}"
            )
    return errors
