"""No module of the package imports a name it never uses.

``__init__`` re-exports on purpose and is left out.  The check reads the
source with the stdlib ``ast``: a name bound by an import must occur as a
name somewhere in its module."""

import ast
import pathlib

import pytest

import drinfeld

MODULES = sorted(
    path for path in pathlib.Path(drinfeld.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """(line, name) of every imported name that `source` never uses."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_reports_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .errors import NonMonic, NotTorsionPoint as Missing\n"
        "raise Missing(os.sep)\n"
    )
    assert unused_imports(source) == [(3, "NonMonic")]
