"""Every module-level import in the library is used, and every private
module-level helper is referenced from somewhere else in the library.

Checked with the standard library's ast, since no linter is a dependency.
__init__.py is left out of the import check: its imports are the
package's re-exports."""

import ast
from pathlib import Path

import pytest

import wittkit

PACKAGE = sorted(Path(wittkit.__file__).parent.glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def dead_private_helpers(sources):
    """Module-level functions and classes named _x, in a dict of module
    name -> source, that no Name, attribute or import anywhere in the
    sources refers to, apart from the helper's own body."""
    defined = []
    used = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            inner = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    inner.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    inner.add(sub.attr)
                elif isinstance(sub, ast.ImportFrom):
                    inner.update(a.name for a in sub.names)
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined.append((module, node.name, node.lineno))
                inner.discard(node.name)
            used |= inner
    return [f"{module}.{name} (line {line})" for module, name, line in defined if name not in used]


def test_the_check_sees_a_dead_private_helper():
    sources = {
        "a": "def _dead(n):\n    return _dead(n - 1)\n\ndef _used():\n    pass\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _used\n_used()\n",
    }
    assert dead_private_helpers(sources) == ["a._dead (line 1)", "a._Gone (line 7)"]


def test_every_private_helper_is_referenced():
    assert dead_private_helpers({p.stem: p.read_text() for p in PACKAGE}) == []
