"""Source hygiene: no module imports a name it never uses."""

import ast
from pathlib import Path

import pytest

import redop

MODULES = sorted(
    p for p in Path(redop.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted("%s (line %d)" % (name, line)
                    for name, line in imported.items() if name not in used)
    assert not unused, "unused imports: " + ", ".join(unused)
