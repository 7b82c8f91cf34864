"""The record rule: every record is an immutable ``typing.NamedTuple``.  An input
record checks its fields in ``_check``, which ``quantities.validating`` runs
however the record is built: by the constructor, ``_make`` or ``_replace``."""

import copy
import enum
import importlib
import os
import pickle
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satcvqkd
from satcvqkd import channel, config, errors, finite_size, gaussian, pass_analysis, pipeline, \
    qam

# Each result record with its fields in order and its defaults.
RESULT_RECORDS = {
    channel.SlantPath: (("total_distance_m", "effective_atmosphere_m"), {}),
    channel.LinkBudget: (("geometric_db", "scattering_db", "scintillation_db"), {}),
    gaussian.ChannelNoiseState: (("chi_line", "chi_detector", "chi_total"), {}),
    gaussian.SecurityResult: (("mutual_information", "holevo", "skr_asymptotic"), {}),
    gaussian.KeyConstants: (
        ("modulation_variance", "correlation", "budget", "detection", "qam_information"),
        {"qam_information": False},
    ),
    # the CSV row: test_grid pins its fields against the literal header; the
    # five leading fields are required and every key or link value is optional
    pipeline.PointResult: (
        pipeline.PointResult._fields,
        {**dict.fromkeys(pipeline.PointResult._fields[5:-2]), "far_field_ok": True,
         "status": "ok"},
    ),
    pipeline.LinkColumns: (
        ("shape", "far_field_ok", "linked", "transmittance", "columns"), {}),
    pass_analysis.ModelPassResult: (("total_key_bits", "bin_rates"), {}),
    pass_analysis.PassResult: (("sample_bins", "excluded_bins_deg", "models"), {}),
    qam.FockWorkspace: (
        ("source", "cutoff", "sectors", "point_vectors", "probabilities", "gate_round"),
        {"point_vectors": None, "probabilities": None, "gate_round": None},
    ),
    qam.Binomial: ((), {}),
    finite_size.ReconciliationModel: (
        ("name", "c1", "c2", "c3", "c4", "m1", "m2", "m3"),
        {"m1": 0.8218, "m2": -19.46, "m3": -298.1},
    ),
    config.SweepSpec: (("altitudes_m", "elevations_deg"), {}),
    config.RunPlan: (
        ("protocols", "setup", "reconciliation", "finite", "key_constants", "sweep",
         "pass_spec", "profile"),
        {"sweep": None, "pass_spec": None, "profile": None},
    ),
}

# Each input record: a valid instance, one field with a bad value, and the
# exception type and message that value raises.
INPUT_RECORDS = {
    channel.Site: (
        channel.Site(), "ogs_altitude_m", 20e3, errors.GeometryError,
        "altitudes must satisfy atmosphere thickness > OGS >= 0, got 20000.0, 20000.0"),
    channel.OpticalTerminals: (
        channel.OpticalTerminals(), "pointing_loss", 1.5,
        ValueError, "pointing_loss must be in [0, 1), got 1.5"),
    channel.AtmosphericConditions: (
        config.GOOD_CONDITIONS, "cn2", 0.0, ValueError, "Cn^2 must be positive, got 0.0"),
    gaussian.NoiseBudget: (
        gaussian.DAYLIGHT_NOISE, "detector_efficiency", 0.0,
        ValueError, "detector efficiency must be in (0, 1], got 0.0"),
    finite_size.FiniteSizeParams: (
        finite_size.FiniteSizeParams(), "discretisation", 0,
        ValueError, "discretisation parameter must be positive"),
    pipeline.ProtocolSpec: (
        pipeline.ProtocolSpec("gm", gaussian.Detection.HOMODYNE, 5.0), "modulation_variance",
        0.0, errors.ConfigError, "modulation variance must be positive"),
    qam.DiscreteGaussian: (
        qam.DiscreteGaussian(0.5), "nu", -1.0, ValueError, "nu must be positive, got -1.0"),
    qam.Constellation: (
        qam.Constellation((1 + 0j, -1 + 0j), (0.5, 0.5)), "probabilities", (0.5, 0.6),
        ValueError, "probabilities must sum to 1, got 1.1"),
    pass_analysis.PassProfile: (
        pass_analysis.PassProfile((0.0, 1.0), (45.0, 46.0)), "elevations_deg", (45.0, 91.0),
        pass_analysis._BadSample, "sample 1: elevation 91.0 out of (0, 90]"),
    config.PassSpec: (
        config.PassSpec(), "synth_sample_dt_s", 0.0,
        errors.ConfigError, "pass.synthesize.sample_dt_s must be positive, got 0.0"),
}


def _ids(records):
    return [cls.__name__ for cls in records]


def _same(a, b) -> bool:
    return type(a) is type(b) and all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in zip(a, b))


@pytest.mark.parametrize("cls", RESULT_RECORDS, ids=_ids(RESULT_RECORDS))
def test_result_record_is_a_tuple_with_its_old_fields(cls):
    names, defaults = RESULT_RECORDS[cls]
    assert issubclass(cls, tuple)
    assert cls._fields == names
    assert cls._field_defaults == defaults
    record = cls(*range(len(names)))  # positional construction keeps the order
    assert [getattr(record, name) for name in names] == list(range(len(names)))


@pytest.mark.parametrize("cls", RESULT_RECORDS, ids=_ids(RESULT_RECORDS))
def test_result_record_is_immutable(cls):
    names, _ = RESULT_RECORDS[cls]
    record = cls(*[None] * len(names))
    with pytest.raises(AttributeError):
        setattr(record, names[0] if names else "extra", 1.0)


def test_every_record_class_is_a_tuple():
    records = set()
    for info in pkgutil.iter_modules(satcvqkd.__path__):
        module = importlib.import_module(f"satcvqkd.{info.name}")
        records.update(value for value in vars(module).values()
                       if isinstance(value, type) and value.__module__ == module.__name__
                       and not issubclass(value, (Exception, enum.Enum)))
    assert records >= set(RESULT_RECORDS) | set(INPUT_RECORDS)
    assert sorted(cls.__name__ for cls in records if not issubclass(cls, tuple)) == []


def test_cli_import_loads_no_dataclasses():
    src = str(Path(satcvqkd.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, satcvqkd.cli; print('dataclasses' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("cls", INPUT_RECORDS, ids=_ids(INPUT_RECORDS))
def test_input_record_validates_or_feeds_the_config_tables(cls):
    # every input record validates; config reads them through _fields and
    # rebuilds them with _replace
    good = INPUT_RECORDS[cls][0]
    assert issubclass(cls, tuple) and "_check" in vars(cls)
    assert _same(cls._make(good), good) and _same(good._replace(), good)


@pytest.mark.parametrize("cls", INPUT_RECORDS, ids=_ids(INPUT_RECORDS))
def test_input_record_rejects_a_bad_value_however_built(cls):
    good, field, bad, error, message = INPUT_RECORDS[cls]
    values = {**good._asdict(), field: bad}
    builds = {
        "constructor": lambda: cls(**values),
        "_replace": lambda: good._replace(**{field: bad}),
        "_make": lambda: cls._make(values.values()),
    }
    for how, build in builds.items():
        with pytest.raises(error, match=f"^{re.escape(message)}$") as raised:
            build()
        assert type(raised.value) is error, how


@pytest.mark.parametrize("cls", INPUT_RECORDS, ids=_ids(INPUT_RECORDS))
def test_input_record_survives_pickle_and_deepcopy(cls):
    good = INPUT_RECORDS[cls][0]
    assert _same(pickle.loads(pickle.dumps(good)), good)
    assert _same(copy.deepcopy(good), good)


def test_pass_profile_holds_read_only_arrays_and_compares_by_identity():
    profile = pass_analysis.PassProfile([0.0, 1.0], [45.0, 46.0])
    twin = profile._replace()
    for series in (profile.times_s, twin.elevations_deg):
        assert series.dtype == np.float64 and not series.flags.writeable
    assert profile == profile and profile != twin and not profile == twin
    assert len({profile, twin, profile}) == 2


def test_distributions_are_told_apart_by_type():
    assert not isinstance(qam.DiscreteGaussian(1.0), qam.Binomial)
    assert not isinstance(qam.Binomial(), qam.DiscreteGaussian)


def test_config_key_source_is_read_through_its_fields():
    assert {name for name, _ in config._GEOMETRY.values()} <= set(channel.Site._fields)


def test_fock_workspace_repr_shows_no_arrays():
    workspace = qam.thermal_workspace(1.0, cutoff=30)
    assert repr(workspace) == "FockWorkspace(cutoff=30, sectors=4)"

