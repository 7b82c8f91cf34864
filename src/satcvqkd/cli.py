"""Command-line front end: sweeps, pass budgets and protocol comparisons.

Output is CSV with a '#'-prefixed echo of the resolved configuration;
identical configs produce byte-identical files.  All numerical work is done
before the output is opened, with numpy's overflow, division by zero and
invalid operations raised as errors, so a numerical failure writes nothing;
rows are then formatted and written one block at a time, and every number
field is the ``repr`` of its float (empty for NaN).

A sweep or compare block formats each distinct value of a number column
once over all protocols' rows, keyed on its bit pattern, with ``repr``;
dedup stops at the block, which bounds the texts kept alive.

A pass block is 8192 rows and one uint8 matrix of ``_float_fields`` rows,
whose NUL bytes are then deleted.  ``_float_fields`` builds a value of up
to 15 significant digits (a measured profile's six decimals) from numpy
digit columns and every other value (most of a synthesized pass) with
``repr``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import config as config_mod
from .errors import ConfigError, SatCvqkdError, evaluating, message
from .finite_size import MD, MLC_MSD, ReconciliationModel
from .pass_analysis import integrate_key_bits
from .pipeline import PointResult, evaluate_point, link_columns

_CSV_HEADER = ",".join(PointResult._fields)
_BLOCK_ROWS = 512  # sweep rows formatted and written at a time
_PASS_BLOCK_ROWS = 8192  # pass rows at a time: under 0.5 MiB of text
_FLAG_TEXT = {True: "true", False: "false", None: ""}
_POW10 = 10.0 ** np.arange(19)  # exact doubles
_TO_18_DIGITS = 10 ** (18 - np.arange(19))  # int64: d fraction digits scaled to 18
_ZERO, _POINT, _MINUS = ord("0"), ord("."), ord("-")


def _texts(values: Sequence, block: slice) -> list[str]:
    """CSV fields of one column over a block of points, in row order.

    ``values`` holds each protocol's column: a per-run constant (str, float
    or None) or an array with one element per point: numbers (NaN where a
    point has none), flags (None where a point has none) or strings.  Rows
    run point-major, protocol-minor.  A number column formats each distinct
    bit pattern once (-0.0 and 0.0 differ); NaN and None are empty fields.
    """
    numeric = any(isinstance(v, float) or isinstance(v, np.ndarray) and v.dtype.kind == "f"
                  for v in values)
    shape = (block.stop - block.start, len(values))  # points, protocols
    stacked = np.empty(shape, dtype=float if numeric else object)
    for p, value in enumerate(values):
        stacked[:, p] = value[block] if isinstance(value, np.ndarray) else \
            np.nan if numeric and value is None else value
    flat = stacked.ravel()  # row order
    if not numeric:
        return [_FLAG_TEXT.get(v, v) for v in flat.tolist()]
    distinct, inverse = np.unique(flat.view(np.int64), return_inverse=True)
    if distinct.size == flat.size:  # nothing repeats: format in row order
        distinct, inverse = flat, None
    else:
        distinct = distinct.view(np.float64)
    texts = list(map(repr, distinct.tolist()))
    for i in np.flatnonzero(np.isnan(distinct)).tolist():
        texts[i] = ""
    return texts if inverse is None else list(map(texts.__getitem__, inverse.tolist()))


def _float_fields(x: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float of ``x`` (NaN: empty) as one row of ASCII
    bytes per value, padded with NUL bytes that may sit anywhere in the row.

    A value v = |x| in [1e-4, 1e15) is proven when n = rint(v 10^d), with d
    chosen so that n has 15 digits, satisfies n / 10^d == v.  That test is
    exact: n < 2^53 and 10^d <= 1e18 are exact doubles, and IEEE division
    rounds the quotient as ``float()`` rounds the decimal n 10^-d.  Doubles
    lie closer together than 15-digit decimals, so no other 15-digit decimal
    rounds to v; when ``repr`` needs at most 15 digits, its digits are n's
    without trailing zeros, in fixed point in this range.  ``rint`` finds n:
    it lies within 0.11 of the exact v 10^d, and the computed product within
    0.0625 of that.  Only proven values are built from digits; every other
    value (16 or 17 digits, 0, inf, NaN, and |x| outside the range) is one
    ``repr`` call.
    """
    x = np.asarray(x, dtype=float)
    v = np.abs(x)
    proven = (v >= 1e-4) & (v < 1e15)  # False for NaN
    v = np.where(proven, v, 1.0)
    d = 14 - np.floor(np.log10(v)).astype(np.intp)
    n = np.rint(v * _POW10[d])
    d += (n < 1e14).view(np.int8) - (n >= 1e15).view(np.int8)  # log10 missed a decade
    np.clip(d, 0, 18, out=d)
    np.rint(v * _POW10[d], out=n)
    proven &= (n >= 1e14) & (n < 1e15) & (n / _POW10[d] == v)
    signed = x
    others = np.flatnonzero(~proven)
    if others.size:  # digits for the proven values only
        v, n, d, signed = v[proven], n[proven], d[proven], x[proven]
    scale = _POW10[d]

    # Columns are sign, integer digits, point and fraction digits; a NUL stands
    # for a leading zero of the integer part and a trailing zero of the fraction.
    # Below 1e15, floor(w * 0.1) is w // 10 exactly.  The fraction is n's last
    # d digits, scaled to 18 digits in int64.
    whole = np.floor(v)
    fraction = (n - whole * scale).astype(np.int64) * _TO_18_DIGITS[d]
    columns = []
    while True:
        above = np.floor(whole * 0.1)
        digit = (whole - 10.0 * above).astype(np.uint8) + _ZERO
        columns.append(np.where(whole == 0.0, 0, digit) if columns else digit)
        whole = above
        if not whole.any():
            break
    columns.append(np.where(np.signbit(signed), _MINUS, 0).astype(np.uint8))
    columns.reverse()
    columns.append(np.full(v.size, _POINT, np.uint8))
    for power in range(17, -1, -1):
        digit, rest = np.divmod(fraction, 10**power)
        digit = digit.astype(np.uint8) + _ZERO
        columns.append(digit if power == 17 else np.where(fraction == 0, 0, digit))
        fraction = rest
        if not fraction.any():
            break
    digits = np.stack(columns, axis=1)
    if not others.size:
        return digits

    texts = np.array(list(map(repr, x[others].tolist())), dtype=bytes)
    fields = np.zeros((x.size, max(digits.shape[1], texts.itemsize)), np.uint8)
    fields[proven, :digits.shape[1]] = digits
    fields[others, :texts.itemsize] = texts.view(np.uint8).reshape(others.size, -1)
    fields[np.isnan(x)] = 0
    return fields


def _csv_lines(fields: Sequence[np.ndarray]) -> str:
    """One block's CSV lines, joined by newlines, from its ``_float_fields`` rows."""
    comma = np.full((fields[0].shape[0], 1), ord(","), np.uint8)
    matrix = np.hstack([part for field in fields for part in (field, comma)])
    matrix[:, -1] = ord("\n")
    matrix[-1, -1] = 0  # _write ends the last line
    return matrix.tobytes().translate(None, b"\0").decode("ascii")


def _echo_line(plan: config_mod.RunPlan) -> str:
    return f"# satcvqkd config {json.dumps(plan.resolved, sort_keys=True)}"


def _write(output: str | None, head: Sequence[str], blocks: Iterable[str]) -> None:
    """Write the ``head`` lines, then each block of CSV lines joined by newlines."""
    try:
        opened = contextlib.nullcontext(sys.stdout) if output is None \
            else open(output, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot open --output: {exc}") from None
    with opened as handle:
        handle.write("".join(line + "\n" for line in head))
        for lines in blocks:
            handle.write(lines)
            handle.write("\n")  # a separate write: no copy of the block's text


def _run_sweep(plan: config_mod.RunPlan, output: str | None) -> None:
    altitudes_m, elevations_deg = plan.sweep.altitudes_m, plan.sweep.elevations_deg
    # Row order is deterministic: altitude major, elevation minor, protocol last.
    altitudes = np.repeat(altitudes_m, len(elevations_deg))
    elevations = np.tile(elevations_deg, len(altitudes_m))
    with evaluating():
        link = link_columns(plan.setup, altitudes, elevations)
        results = evaluate_point(link, plan.protocols, plan.key_constants, plan.reconciliation,
                                 plan.finite)
    columns = list(zip(*results))  # per CSV column, each protocol's value over the grid

    points = altitudes.size
    step = max(1, _BLOCK_ROWS // len(results))

    def blocks() -> Iterator[str]:
        for start in range(0, points, step):
            block = slice(start, min(start + step, points))
            yield "\n".join(map(",".join, zip(*(_texts(values, block) for values in columns))))

    _write(output, [_echo_line(plan), _CSV_HEADER], blocks())


def _run_pass(plan: config_mod.RunPlan, output: str | None) -> None:
    pass_spec, profile, spec = plan.pass_spec, plan.profile, plan.protocols[0]
    # A fitted model always reports both, so the summaries are comparable.
    reconciliations = (MD, MLC_MSD) if isinstance(plan.reconciliation, ReconciliationModel) \
        else (plan.reconciliation,)
    with evaluating():
        result = integrate_key_bits(
            profile, plan.setup, spec, plan.key_constants[spec], reconciliations, plan.finite,
            satellite_altitude_m=pass_spec.satellite_altitude_m,
            bin_width_deg=pass_spec.bin_width_deg,
            keyhole_ceiling_deg=pass_spec.keyhole_ceiling_deg,
        )

    models = sorted(result.models.items())
    excluded = len(result.excluded_bins_deg)
    head = [_echo_line(plan)]
    for name, model in models:
        head.append(
            f"# summary model={name} total_key_bits={model.total_key_bits!r} "
            f"excluded_bins={excluded}"
        )
    head.append("time_s,elevation_deg," + ",".join(
        f"skr_bits_per_second[{name}]" for name, _ in models
    ))
    bin_fields = [_float_fields(model.bin_rates) for _, model in models]
    sample_bins = result.sample_bins

    def blocks() -> Iterator[str]:
        for start in range(0, len(sample_bins), _PASS_BLOCK_ROWS):
            block = slice(start, start + _PASS_BLOCK_ROWS)
            bins = sample_bins[block]
            yield _csv_lines([_float_fields(profile.times_s[block]),
                              _float_fields(profile.elevations_deg[block]),
                              *(fields[bins] for fields in bin_fields)])

    _write(output, head, blocks())
    if excluded:
        for name, _ in models:
            print(f"note: {name}: {excluded} elevation bins excluded (far field or keyhole)",
                  file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="satcvqkd",
        description="Satellite-to-ground CV-QKD secret key rate calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("sweep", "evaluate one protocol over an altitude/elevation grid"),
        ("pass", "budget the key over a satellite pass"),
        ("compare", "evaluate several protocols on the same grid"),
        ("validate-config", "check a configuration file and echo the resolved values"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to a JSON configuration")
        if name != "validate-config":
            cmd.add_argument(
                "--output", default=None, help="output CSV path (default: stdout)"
            )

    args = parser.parse_args(argv)

    try:
        plan = config_mod.load(args.config)  # the config's keys name its run
        if args.command == "validate-config":
            print(json.dumps(plan.resolved, sort_keys=True, indent=2))
        elif (args.command == "pass") != (plan.pass_spec is not None):
            section = "pass" if args.command == "pass" else "sweep"
            raise ConfigError(f"{args.command} needs a '{section}' section")
        elif args.command == "pass":
            _run_pass(plan, args.output)
        else:  # sweep and compare both run any grid plan
            _run_sweep(plan, args.output)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout; the exit flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SatCvqkdError, ValueError, ArithmeticError) as exc:
        # resolve reports these kinds as ConfigErrors; here they are a library
        # check or float arithmetic failing on a resolved plan
        print(f"numerical failure: {message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
