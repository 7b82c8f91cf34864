"""The record rule: a record that validates its fields in ``__post_init__``, or
that ``config`` reads through ``dataclasses.fields``/``replace``, is a frozen
dataclass; every other record is an immutable NamedTuple."""

import dataclasses
import importlib
import pkgutil

import pytest

import satcvqkd
from satcvqkd import channel, config, finite_size, gaussian, pass_analysis, pipeline, qam

_NONE_DEFAULTS = dict.fromkeys(
    ("l_tot_m", "l_atm_eff_m", "a_geo_db", "a_scat_db", "a_sci_db", "a_tot_db",
     "transmittance", "mutual_information", "holevo", "skr_asymptotic_per_pulse", "snr_db",
     "beta_value", "beta_valid", "fer_value", "fer_raw", "privacy", "skr_bits_per_second"))

# Each result record with its fields in order and its defaults.
RESULT_RECORDS = {
    channel.SlantPath: (("total_distance_m", "effective_atmosphere_m"), {}),
    channel.LinkBudget: (("geometric_db", "scattering_db", "scintillation_db"), {}),
    gaussian.ChannelNoiseState: (("chi_line", "chi_detector", "chi_total"), {}),
    gaussian.SecurityResult: (("mutual_information", "holevo", "skr_asymptotic"), {}),
    pipeline.PointResult: (
        ("protocol", "detection", "modulation_variance", "altitude_m", "elevation_deg",
         "status", "l_tot_m", "l_atm_eff_m", "a_geo_db", "a_scat_db", "a_sci_db", "a_tot_db",
         "transmittance", "far_field_ok", "mutual_information", "holevo",
         "skr_asymptotic_per_pulse", "snr_db", "beta_value", "beta_valid", "fer_value",
         "fer_raw", "privacy", "skr_bits_per_second"),
        {"status": "ok", "far_field_ok": True, **_NONE_DEFAULTS},
    ),
    pipeline.LinkColumns: (
        ("noise", "shape", "far_field_ok", "linked", "transmittance", "columns"), {}),
    pass_analysis.ModelPassResult: (("total_key_bits", "bin_rates"), {}),
    pass_analysis.PassResult: (("times_s", "sample_bins", "excluded_bins_deg", "models"), {}),
    qam.FockWorkspace: (
        ("source", "cutoff", "sectors", "point_vectors", "probabilities"),
        {"point_vectors": None, "probabilities": None},
    ),
    qam.Binomial: ((), {}),
    finite_size.ReconciliationModel: (
        ("name", "c1", "c2", "c3", "c4", "m1", "m2", "m3"),
        {"m1": 0.8218, "m2": -19.46, "m3": -298.1},
    ),
    config.SweepSpec: (("altitudes_m", "elevations_deg"), {}),
    config.RunPlan: (
        ("protocols", "setup", "reconciliation", "finite", "sweep", "pass_spec"),
        {"sweep": None, "pass_spec": None},
    ),
}

INPUT_RECORDS = (
    channel.LinkGeometry, channel.OpticalTerminals, channel.AtmosphericConditions,
    gaussian.NoiseBudget, finite_size.FiniteSizeParams, pipeline.LinkSetup,
    pipeline.ProtocolSpec, satcvqkd.PskConfig,
    qam.DiscreteGaussian, qam.Constellation, pass_analysis.PassProfile, config.PassSpec,
)
# Input records without validation of their own, read by ``config._keys``
CONFIG_KEY_SOURCES = {pipeline.LinkSetup}


def _ids(records):
    return [cls.__name__ for cls in records]


@pytest.mark.parametrize("cls", RESULT_RECORDS, ids=_ids(RESULT_RECORDS))
def test_result_record_is_a_tuple_with_its_old_fields(cls):
    names, defaults = RESULT_RECORDS[cls]
    assert issubclass(cls, tuple) and not dataclasses.is_dataclass(cls)
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


def test_dataclasses_are_exactly_the_input_records():
    found = set()
    for module in pkgutil.iter_modules(satcvqkd.__path__):
        namespace = vars(importlib.import_module(f"satcvqkd.{module.name}"))
        found.update(value for value in namespace.values()
                     if isinstance(value, type) and dataclasses.is_dataclass(value)
                     and value.__module__.startswith("satcvqkd."))
    assert found == set(INPUT_RECORDS)


@pytest.mark.parametrize("cls", INPUT_RECORDS, ids=_ids(INPUT_RECORDS))
def test_input_record_validates_or_feeds_the_config_tables(cls):
    assert cls.__dataclass_params__.frozen
    assert "__post_init__" in vars(cls) or cls in CONFIG_KEY_SOURCES


def test_config_key_source_is_read_through_its_fields():
    names = {f.name for f in dataclasses.fields(pipeline.LinkSetup)}
    assert {name for name, _ in config._GEOMETRY.values()} <= names


def test_fock_workspace_repr_shows_no_arrays():
    workspace = qam.thermal_workspace(1.0, cutoff=30)
    assert repr(workspace) == "FockWorkspace(cutoff=30, sectors=4)"
