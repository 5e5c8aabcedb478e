"""Source hygiene: no module imports a name that it never reads."""

import ast
import pathlib

import pytest

import hemoflow

PACKAGE = pathlib.Path(hemoflow.__file__).parent
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the import statements of ``source`` that the module
    never reads, as (line, name) pairs. ``from __future__`` imports and
    statements whose first line carries ``# noqa: F401`` are exempt."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name
            if isinstance(node, ast.Import) and alias.asname is None:
                name = name.split(".")[0]
            bound.append((node.lineno, name))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport sys  # noqa: F401\n"
              "from math import pi, tau\nprint(tau)\n")
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []
