"""Command-line front end: sweeps, pass budgets and protocol comparisons.

Output is CSV with a '#'-prefixed echo of the resolved configuration;
identical configs produce byte-identical files.  All numerical work is done
before the output is opened, so a numerical failure writes nothing; rows are
then formatted and written one block at a time.
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
from .errors import ConfigError, SatCvqkdError
from .finite_size import MD, MLC_MSD
from .pass_analysis import integrate_key_bits, load_profile, synthesize_circular_pass
from .pipeline import CSV_COLUMNS, ReconciliationSpec, evaluate_point, link_columns

_CSV_HEADER = ",".join(column for column, _, _ in CSV_COLUMNS)
_BLOCK_ROWS = 512  # rows formatted and written at a time
_FLAG_TEXT = {True: "true", False: "false", None: ""}


def _texts(value, block: slice, count: int) -> list[str]:
    """CSV fields of one column over a block of ``count`` rows.

    ``value`` is a per-run constant (str, float or None) or an array with
    one element per row: numbers (NaN where a row has none), flags (None
    where a row has none) or strings.
    """
    if not isinstance(value, np.ndarray):
        return [repr(value) if isinstance(value, float) else _FLAG_TEXT.get(value, value)] * count
    values = value[block]
    if values.dtype.kind != "f":
        return [_FLAG_TEXT.get(v, v) for v in values.tolist()]
    texts = list(map(repr, values.tolist()))
    for i in np.flatnonzero(np.isnan(values)).tolist():
        texts[i] = ""
    return texts


def _echo_line(plan: config_mod.RunPlan) -> str:
    return f"# satcvqkd config {json.dumps(plan.resolved, sort_keys=True)}"


def _write(
    output: str | None, head: Sequence[str], blocks: Iterable[Iterable[Sequence[str]]]
) -> None:
    """Write the ``head`` lines, then each non-empty block of rows of CSV fields."""
    try:
        opened = contextlib.nullcontext(sys.stdout) if output is None \
            else open(output, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot open --output: {exc}") from None
    with opened as handle:
        handle.write("".join(line + "\n" for line in head))
        for rows in blocks:
            handle.write("\n".join(map(",".join, rows)))
            handle.write("\n")  # a separate write: no copy of the block's text


def _run_sweep(plan: config_mod.RunPlan, output: str | None) -> None:
    altitudes_m, elevations_deg = plan.sweep.altitudes_m, plan.sweep.elevations_deg
    # Row order is deterministic: altitude major, elevation minor, protocol last.
    altitudes = np.repeat(altitudes_m, len(elevations_deg))
    elevations = np.tile(elevations_deg, len(altitudes_m))
    link = link_columns(plan.setup, altitudes, elevations)
    columns = []  # per protocol, each CSV column's value over the grid's points
    for spec in plan.protocols:
        point = evaluate_point(link, spec, plan.reconciliation, plan.finite)
        columns.append([getattr(point, name) / divisor if divisor else getattr(point, name)
                        for _, name, divisor in CSV_COLUMNS])

    points = altitudes.size
    step = max(1, _BLOCK_ROWS // len(columns))

    def blocks() -> Iterator[Iterable[Sequence[str]]]:
        for start in range(0, points, step):
            block = slice(start, min(start + step, points))
            count = block.stop - start
            per_protocol = [zip(*(_texts(v, block, count) for v in values)) for values in columns]
            yield (row for rows in zip(*per_protocol) for row in rows)

    _write(output, [_echo_line(plan), _CSV_HEADER], blocks())


def _run_pass(plan: config_mod.RunPlan, output: str | None) -> None:
    spec = plan.protocols[0]
    pass_spec = plan.pass_spec
    altitude_m = pass_spec.satellite_altitude_m
    if pass_spec.profile_path is not None:
        try:
            profile = load_profile(pass_spec.profile_path, pass_spec.ogs_altitude_m)
        except OSError as exc:  # the file was checked at resolve time; reading it failed
            raise ConfigError(f"cannot read pass.profile_csv: {exc}") from None
    else:
        profile = synthesize_circular_pass(
            altitude_m,
            pass_spec.synth_max_elevation_deg,
            pass_spec.synth_sample_dt_s,
            ogs_altitude_m=pass_spec.ogs_altitude_m,
            earth_radius_m=plan.setup.earth_radius_m,
        )

    if plan.reconciliation.kind == "finite":
        # Always report both fitted models so the summaries are comparable.
        reconciliations = [ReconciliationSpec(kind="finite", model=m) for m in (MD, MLC_MSD)]
    else:
        reconciliations = [plan.reconciliation]
    result = integrate_key_bits(
        profile,
        plan.setup,
        spec,
        reconciliations,
        plan.finite,
        satellite_altitude_m=altitude_m,
        bin_width_deg=pass_spec.bin_width_deg,
        keyhole_ceiling_deg=pass_spec.keyhole_ceiling_deg,
    )

    models = sorted(result.models.items())
    head = [_echo_line(plan)]
    for name, model in models:
        head.append(
            f"# summary model={name} total_key_bits={model.total_key_bits!r} "
            f"excluded_bins={len(model.excluded_bins_deg)}"
        )
    head.append("time_s,elevation_deg," + ",".join(
        f"skr_bits_per_second[{name}]" for name, _ in models
    ))
    bin_texts = [list(map(repr, model.bin_rates.tolist())) for _, model in models]
    samples = len(models[0][1].sample_bins)

    def blocks() -> Iterator[Iterable[Sequence[str]]]:
        for start in range(0, samples, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            yield zip(
                map(repr, profile.times_s[block].tolist()),
                map(repr, profile.elevations_deg[block].tolist()),
                *(map(texts.__getitem__, model.sample_bins[block].tolist())
                  for texts, (_, model) in zip(bin_texts, models)),
            )

    _write(output, head, blocks())
    for name, model in models:
        if model.excluded_bins_deg:
            print(
                f"note: {name}: {len(model.excluded_bins_deg)} elevation bins excluded "
                "(far field or keyhole)",
                file=sys.stderr,
            )


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
        if args.command == "validate-config":
            plan = config_mod.load(args.config)  # run type inferred from the keys
            print(json.dumps(plan.resolved, sort_keys=True, indent=2))
            return 0
        plan = config_mod.load(args.config, args.command)
        if args.command == "pass":
            _run_pass(plan, args.output)
        else:  # sweep and compare share the grid runner
            _run_sweep(plan, args.output)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader closed stdout; the exit flush must not fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except SatCvqkdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
