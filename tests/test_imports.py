"""Every module-level import in the library is used.

Checked with the standard library's ast, since no linter is a dependency.
__init__.py is left out: its imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

import wittkit

SOURCES = sorted(p for p in Path(wittkit.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the module-level imports of source that no Name node
    of the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound if name not in used]


def test_the_check_sees_an_unused_import():
    src = "import os\nimport sys as system\nfrom .linalg import Matrix, span_basis\nspan_basis(system.argv)\n"
    assert unused_imports(src) == ["os (line 1)", "Matrix (line 3)"]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []
