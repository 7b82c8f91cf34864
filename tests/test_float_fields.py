"""The pass CSV's number formatter gives ``repr``'s text for every float."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from satcvqkd.cli import _float_fields


def _rendered(values) -> list[str]:
    fields = _float_fields(np.asarray(values, dtype=float))
    assert fields.dtype == np.uint8 and fields.shape[0] == len(values)
    return [bytes(row).replace(b"\0", b"").decode("ascii") for row in fields]


def _assert_repr(values) -> None:
    values = [float(v) for v in values]
    assert _rendered(values) == ["" if math.isnan(v) else repr(v) for v in values]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(arrays(np.float64, st.integers(0, 40),
              elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
def test_every_field_is_repr_and_nan_is_empty(values):
    _assert_repr(values)


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


@pytest.mark.parametrize("values", [
    [0.0, -0.0, math.inf, -math.inf, math.nan],
    _with_neighbours([1e-4, 1e15]),  # the fast path's edges: scientific repr outside
    [2.0**53 - 1, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2)],
    _with_neighbours(2.0 ** np.arange(-20, 60)),
    -_with_neighbours(2.0 ** np.arange(-20, 60)),
], ids=["zeros_inf_nan", "range_edges", "2^53", "powers_of_two", "negative_powers_of_two"])
def test_edge_values_are_repr(values):
    _assert_repr(values)


@pytest.mark.parametrize("digits", range(1, 18))
def test_decimals_and_their_neighbours_are_repr(digits):
    rng = np.random.default_rng(digits)
    mantissas = rng.integers(10 ** (digits - 1), 10**digits, 200)
    exponents = rng.integers(-22, 18, 200)
    values = [float(f"{m}e{e}") for m, e in zip(mantissas.tolist(), exponents.tolist())]
    _assert_repr(_with_neighbours(values))
    _assert_repr(-_with_neighbours(values))

