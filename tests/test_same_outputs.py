"""tools/same_outputs.py on one tiny config: two copies of the package write the
same files, and a doctored copy is named by its first differing file and line."""

import importlib.util
import json
import shutil
from pathlib import Path

import satcvqkd

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_SPEC = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_outputs)

TINY = {"protocol": "gm", "sweep": {"altitude_km": [500], "elevation_deg": [90]}}


def _tree(root: Path) -> Path:
    shutil.copytree(Path(satcvqkd.__file__).parent, root / "src" / "satcvqkd",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def test_same_trees_pass_and_a_doctored_output_is_named(tmp_path, monkeypatch, capsys):
    parent, change = _tree(tmp_path / "parent"), _tree(tmp_path / "change")

    def tiny_cases(tree, directory):
        (directory / "tiny").mkdir(parents=True)
        config = directory / "tiny" / "config.json"
        config.write_text(json.dumps(TINY), encoding="utf-8")
        return [config]

    monkeypatch.setattr(same_outputs, "cases", tiny_cases)
    argv = ["--parent", str(parent), "--change", str(change)]
    assert same_outputs.main(argv) == 0
    assert capsys.readouterr().out == "same outputs: 1 configs, validate-config and run\n"

    cli = change / "src" / "satcvqkd" / "cli.py"
    cli.write_text(cli.read_text(encoding="utf-8").replace(
        '"# satcvqkd config ', '"# satcvqkd  config '), encoding="utf-8")
    assert same_outputs.main(argv) == 1
    assert capsys.readouterr().out == "outputs differ: tiny/compare.csv: line 1 differs\n"
    assert not list((parent / "src").rglob("__pycache__"))  # no bytecode left behind
