"""The README's Python examples run as written, its JSON configs resolve, and its
list of run-time failures is the CLI tests' list."""

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


def test_readme_lists_every_known_run_time_failure():
    # each case's leaf (or its last segment), its value as README writes it and
    # its message stand in one bullet of the exit-2 list, the message being the
    # first quoted text after the value
    from test_cli import RUN_TIME_FAILURES

    known = TEXT[TEXT.index("These are the known cases"):TEXT.index("Two more are pinned")]
    bullets = [" ".join(bullet.split()) for bullet in known.split("\n* ")[1:]]

    def listed(bullet, leaf, value, message):
        written = re.escape(repr(value).replace("e+", "e"))
        quoted = re.search(rf"(?<![\d.]){written}(?!\d)[^`]*`([^`]*)`", bullet)
        return (f"`{leaf}`" in bullet or f"`{leaf.split('.')[-1]}`" in bullet) \
            and quoted is not None and quoted.group(1) == message

    for (_, leaf, value), message in RUN_TIME_FAILURES.items():
        assert any(listed(bullet, leaf, value, message) for bullet in bullets), (leaf, value)
