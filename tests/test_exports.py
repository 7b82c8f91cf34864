"""Every name the package exports is used by the package itself: a helper that
only the tests call belongs in the tests."""

import ast
import re
from pathlib import Path

import satcvqkd

PACKAGE = Path(satcvqkd.__file__).parent


def _exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(alias.asname or alias.name for node in tree.body
                  if isinstance(node, ast.ImportFrom) for alias in node.names)


def test_every_export_is_used_inside_the_package():
    lines = [line for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"
             for line in path.read_text(encoding="utf-8").splitlines()]

    def used(name: str) -> bool:
        return any(re.search(rf"\b{name}\b", line)
                   and not re.match(rf"\s*(def|class)\s+{name}\b", line) for line in lines)

    names = _exported_names()
    assert len(names) > 50  # the parse found the export list
    assert [name for name in names if not used(name)] == []
