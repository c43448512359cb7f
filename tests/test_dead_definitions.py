"""Every function, class and method the package defines is used somewhere,
and a private one is used by the package or the bench, not only by tests.

The checks read the source with the stdlib ``ast``.  A module-level
function or class of ``src/drinfeld``, or a method of such a class other
than a dunder, must occur as a name or as an attribute in some module
under ``src/``, ``tests/`` or ``perfbench/``; when its name starts with
an underscore and ``tests/`` names it, ``src/`` or ``perfbench/`` must
name it too, so no private helper lives on in the package for the tests
alone.  They match bare names, not objects: any attribute of the same
name counts as a use.  A name reached only through a string or
``getattr`` is out of their reach and looks dead to them."""

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


def only_tested(source, production, tested):
    """(line, name) of every underscore-named definition in `source` whose
    name is in `tested` but not in `production`."""
    return sorted((line, name) for line, name in definitions(ast.parse(source))
                  if name.startswith("_") and name in tested and name not in production)


def tree_references(*tops):
    """Every name and attribute in the modules under the given top-level directories."""
    return references(ast.parse(path.read_text(encoding="utf-8"))
                      for top in tops for path in (ROOT / top).rglob("*.py"))


@pytest.fixture(scope="module")
def production():
    return tree_references("src", "perfbench")


@pytest.fixture(scope="module")
def tested():
    return tree_references("tests")


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_definition_is_referenced(path, production, tested):
    assert dead_definitions(path.read_text(encoding="utf-8"), production | tested) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_definition_serves_only_the_tests(path, production, tested):
    source = path.read_text(encoding="utf-8")
    assert only_tested(source, production, tested) == []


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


def test_the_check_reports_a_private_definition_only_tests_name():
    source = (
        "def _shared():\n"
        "    return 1\n"
        "def _oracle():\n"
        "    return _shared()\n"
        "class Box:\n"
        "    def _size(self):\n"
        "        return 0\n"
        "def _unused():\n"
        "    return 2\n"
        "def public():\n"
        "    return _shared()\n"
    )
    tested = references([ast.parse("_oracle(); Box()._size(); _shared(); public()\n")])
    production = references([ast.parse(source)])
    assert only_tested(source, production, tested) == [(3, "_oracle"), (6, "_size")]
