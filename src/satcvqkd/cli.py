"""Command-line front end: sweeps, pass budgets and protocol comparisons.

Output is CSV with a '#'-prefixed echo of the resolved configuration;
identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
from typing import Iterable, Sequence

from . import config as config_mod
from .errors import ConfigError, SatCvqkdError
from .finite_size import MD, MLC_MSD
from .pass_analysis import integrate_key_bits, load_profile, synthesize_circular_pass
from .pipeline import CSV_COLUMNS, PointResult, ReconciliationSpec, evaluate_point

_CSV_HEADER = ",".join(column for column, _, _ in CSV_COLUMNS)
_CSV_FIELDS = operator.attrgetter(*(name for _, name, _ in CSV_COLUMNS))
_CSV_SCALED = tuple((i, div) for i, (_, _, div) in enumerate(CSV_COLUMNS) if div)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_row(point: PointResult) -> str:
    values = list(_CSV_FIELDS(point))
    for i, divisor in _CSV_SCALED:
        if values[i] is not None:
            values[i] /= divisor
    return ",".join(map(_fmt, values))


def _echo_line(plan: config_mod.RunPlan) -> str:
    return f"# satcvqkd config {json.dumps(plan.resolved, sort_keys=True)}"


def _emit(lines: Iterable[str], output: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _run_sweep(plan: config_mod.RunPlan, output: str | None) -> None:
    setup, reconciliation, finite = plan.setup, plan.reconciliation, plan.finite
    lines = [_echo_line(plan), _CSV_HEADER]
    # Row order is deterministic: altitude major, elevation minor, protocol last.
    lines.extend(
        _csv_row(evaluate_point(setup, spec, altitude, elevation, reconciliation, finite))
        for altitude in plan.sweep.altitudes_m
        for elevation in plan.sweep.elevations_deg
        for spec in plan.protocols
    )
    _emit(lines, output)


def _run_pass(plan: config_mod.RunPlan, output: str | None) -> None:
    spec = plan.protocols[0]
    pass_spec = plan.pass_spec
    altitude_m = pass_spec.satellite_altitude_m
    if pass_spec.profile_path is not None:
        profile = load_profile(pass_spec.profile_path, pass_spec.ogs_altitude_m)
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
    lines = [_echo_line(plan)]
    for name, model in models:
        lines.append(
            f"# summary model={name} total_key_bits={model.total_key_bits!r} "
            f"excluded_bins={len(model.excluded_bins_deg)}"
        )
    lines.append("time_s,elevation_deg," + ",".join(
        f"skr_bits_per_second[{name}]" for name, _ in models
    ))
    # Each model's series holds one (time, rate) pair per sample, in order.
    series = [model.skr_series for _, model in models]
    for t, e, *rates in zip(profile.times_s, profile.elevations_deg, *series):
        lines.append(",".join([repr(float(t)), repr(float(e))]
                              + [repr(float(rate)) for _, rate in rates]))
    _emit(lines, output)
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
    except SatCvqkdError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
