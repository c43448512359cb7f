"""Every function, class and method the package defines is used somewhere.

The check reads the source with the stdlib ``ast``.  A module-level
function or class of ``src/drinfeld``, or a method of such a class other
than a dunder, must occur as a name or as an attribute in some module
under ``src/``, ``tests/`` or ``perfbench/``.  It matches bare names, not
objects: any attribute of the same name counts as a use.  A name reached
only through a string or ``getattr`` is out of its reach and looks dead
to it."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "drinfeld"
MODULES = sorted(PACKAGE.glob("*.py"))


def definitions(tree):
    """(line, name) of the module-level functions and classes of `tree`
    and of its classes' methods other than dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield item.lineno, item.name


def references(trees):
    """Every name and attribute that occurs in `trees`."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def dead_definitions(source, used):
    """(line, name) of every definition in `source` whose name is not in `used`."""
    return sorted((line, name) for line, name in definitions(ast.parse(source))
                  if name not in used)


@pytest.fixture(scope="module")
def used():
    paths = [path for top in ("src", "tests", "perfbench")
             for path in (ROOT / top).rglob("*.py")]
    return references(ast.parse(path.read_text(encoding="utf-8")) for path in paths)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_definition_is_referenced(path, used):
    assert dead_definitions(path.read_text(encoding="utf-8"), used) == []


def test_the_check_reports_a_dead_function():
    source = (
        "def used():\n"
        "    return 1\n"
        "def dead():\n"
        "    return used()\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def size(self):\n"
        "        return len(self)\n"
    )
    caller = ast.parse("Box().size()\n")
    assert dead_definitions(source, references([ast.parse(source), caller])) == [(3, "dead")]
