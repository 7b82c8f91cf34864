"""Do two checkouts write the same bytes?  Runs each one's CLI on the same inputs
and compares every output file, byte for byte.

Usage (from any directory):

    python3 tools/same_outputs.py --parent PARENT_DIR --change CHANGE_DIR

The inputs are the four benchmark workloads at seeds 1 and 20221130, written by
the change's ``perfbench/inputs.py``, the change's
``tests/data/{minimal_sweep,shaped_compare,full_pass,mixed_compare,md_gm_pair}.json``
(the last two: a compare of all three kinds under both detections with some
far-field points, and two GM V_A under MD whose beta is valid at different
points, so that each way of grouping protocols in the key stage runs), and one refused
config per protocol rule that ``pipeline.key_constants`` applies: the one-point
sweep of each ``BUILDER_RULES`` entry of the change's ``tests/test_cli.py``
``REFUSED_PROTOCOLS``, read from its source.  For each config
a checkout runs ``validate-config`` and the config's own command (``pass`` for
a pass, else ``compare``), with ``src/`` of that checkout on ``PYTHONPATH``;
stdout, stderr, the exit code and the CSV are kept.  The exit status is 0 when
every file is the same in both checkouts; otherwise it is 1 and the first file
and line that differ are printed.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 20221130)
DATA = ("minimal_sweep", "shaped_compare", "full_pass", "mixed_compare", "md_gm_pair")


def refused(change: Path) -> dict[str, dict]:
    """The refused config of each protocol rule in ``BUILDER_RULES`` of the change's
    ``tests/test_cli.py``: its ``REFUSED_PROTOCOLS`` entry as the protocol of
    ``ONE_POINT``.  The literals are read with ``ast``; the module is not imported."""
    tree = ast.parse((change / "tests" / "test_cli.py").read_text(encoding="utf-8"))
    values = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    table = values["REFUSED_PROTOCOLS"]
    entries = {ast.literal_eval(key): ast.literal_eval(value.elts[0])
               for key, value in zip(table.keys, table.values)}
    one_point = ast.literal_eval(values["ONE_POINT"])
    return {rule: {**one_point, "protocol": entries[rule]}
            for rule in ast.literal_eval(values["BUILDER_RULES"])}


def cases(change: Path, directory: Path) -> list[Path]:
    """Write every input config under ``directory``; return the config paths."""
    spec = importlib.util.spec_from_file_location("inputs", change / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules["inputs"] = inputs  # dataclasses look their module up
    spec.loader.exec_module(inputs)
    configs = []
    for name in inputs.GENERATORS:
        for seed in SEEDS:
            case = directory / f"{name}-{seed}"
            case.mkdir(parents=True)
            configs.append(inputs.write_inputs(inputs.generate(name, seed), case))
    for name in DATA:
        case = directory / name
        case.mkdir(parents=True)
        configs.append(Path(shutil.copy(change / "tests" / "data" / f"{name}.json", case)))
    for rule, config in refused(change).items():
        case = directory / f"refused-{rule}"
        case.mkdir(parents=True)
        configs.append(case / "config.json")
        configs[-1].write_text(json.dumps(config), encoding="utf-8")
    return configs


def run_tree(tree: Path, configs: list[Path], out: Path) -> None:
    """Run ``tree``'s CLI on each config, writing its outputs under ``out``."""
    # no bytecode is left in the checkout, so a later benchmark compiles both alike
    env = {**os.environ, "PYTHONPATH": str(tree.resolve() / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    for config in configs:
        run = json.loads(config.read_text(encoding="utf-8"))
        command = "pass" if "pass" in run else "compare"
        case = out / config.parent.name
        case.mkdir(parents=True)
        for argv, name in ((["validate-config"], "validate"),
                           ([command, "--output", str(case / f"{command}.csv")], command)):
            proc = subprocess.run(
                [sys.executable, "-m", "satcvqkd.cli", *argv, "--config", config.name],
                cwd=config.parent, env=env, capture_output=True)
            (case / f"{name}.stdout").write_bytes(proc.stdout)
            (case / f"{name}.stderr").write_bytes(proc.stderr)
            (case / f"{name}.exit").write_text(f"{proc.returncode}\n", encoding="ascii")


def first_difference(parent: Path, change: Path) -> str | None:
    """Where the two output trees first differ, or None when they are the same."""
    names = sorted({p.relative_to(root) for root in (parent, change)
                    for p in root.rglob("*") if p.is_file()})
    for name in names:
        sides = [root / name for root in (parent, change)]
        missing = [side for side in sides if not side.exists()]
        if missing:
            return f"{name}: only in {'change' if missing[0] == sides[0] else 'parent'}"
        a, b = (side.read_bytes() for side in sides)
        if a != b:
            a_lines, b_lines = a.split(b"\n"), b.split(b"\n")
            line = next(i for i, (x, y) in enumerate(zip(a_lines + [None], b_lines + [None]))
                        if x != y)
            return f"{name}: line {line + 1} differs"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        configs = cases(args.change, scratch / "inputs")
        for side in ("parent", "change"):
            run_tree(getattr(args, side), configs, scratch / side)
        difference = first_difference(scratch / "parent", scratch / "change")
    if difference is not None:
        print(f"outputs differ: {difference}")
        return 1
    print(f"same outputs: {len(configs)} configs, validate-config and run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
