"""The README's Python examples run as written, and its JSON configs resolve."""

import json
import re
from pathlib import Path

import pytest

from satcvqkd import config

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
CONFIGS = re.findall(r"^```json\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(index, capsys):
    namespace = {}
    exec(compile(BLOCKS[index], f"README.md python block {index + 1}", "exec"), namespace)
    if "grid" in namespace:  # the 2-D grid example
        assert namespace["grid"].skr_bits_per_second.shape == (2, 3)
    if "profile" in namespace:  # the pass from a 1029 m station
        assert namespace["result"].models["MD"].total_key_bits == pytest.approx(1.127e9, rel=1e-3)


def test_readme_has_config_examples():
    assert len(CONFIGS) >= 3  # sweep, pass and compare


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_readme_config_resolves(index):
    config.resolve(json.loads(CONFIGS[index]))
