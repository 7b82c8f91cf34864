import importlib.util
from pathlib import Path

import pytest

import satcvqkd

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # it imports only the standard library
    return spans.TRACED


@pytest.mark.parametrize("module, function", _traced())
def test_traced_name_is_a_library_function(module, function):
    # The benchmark's traced run wraps satcvqkd.<module>.<function>; a rename
    # or deletion would otherwise surface only there.
    assert callable(getattr(getattr(satcvqkd, module), function, None))
