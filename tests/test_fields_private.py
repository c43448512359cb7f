"""Only `fields` reaches into a `FieldCtx`.

The check reads the source with the stdlib ``ast``.  No module of
``src/drinfeld`` other than ``fields.py`` may name `ensure_tables`, as a
name or as an attribute, or name a private attribute of `FieldCtx` (its
underscore methods and slots, dunders aside, read from ``fields.py``'s
AST) on anything but ``self``: when a packed level builds its tables,
and how a level stores and multiplies its payloads, is decided inside
``fields`` alone.  ``self`` is exempt because classes elsewhere may own
an attribute of the same name (`TorsionModule._coords`).  A use reached
only through a string or ``getattr`` is out of its reach."""

import ast
import pathlib

import pytest

import drinfeld

PACKAGE = pathlib.Path(drinfeld.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "fields.py")


def private_names(source):
    """The underscore methods and slots of the class `FieldCtx` in
    `source`, dunders aside."""
    (cls,) = [node for node in ast.parse(source).body
              if isinstance(node, ast.ClassDef) and node.name == "FieldCtx"]
    names = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
    for item in cls.body:
        if isinstance(item, ast.Assign) and item.targets[0].id == "__slots__":
            names |= {elt.value for elt in item.value.elts}
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


PRIVATE = private_names((PACKAGE / "fields.py").read_text(encoding="utf-8"))


def stray_uses(source):
    """(line, name) of every `ensure_tables` in `source`, and of every
    private `FieldCtx` attribute taken of anything but ``self``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
        on_self = isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "self"
        if name == "ensure_tables" or (isinstance(node, ast.Attribute) and name in PRIVATE
                                       and not on_self):
            found.append((node.lineno, name))
    return sorted(found)


def test_the_private_names_are_read_from_fields():
    assert {"_log", "_coords", "_mul_coords", "_build_tables", "_ext_cache"} <= PRIVATE
    assert not PRIVATE & {"__init__", "__slots__", "add", "dot_ops", "rank_of"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_fields_reaches_into_a_level(path):
    assert stray_uses(path.read_text(encoding="utf-8")) == []


def test_the_check_reports_a_level_reached_into():
    source = (
        "def evaluator(level, a, b):\n"
        "    level.ensure_tables()\n"
        "    return level._kron, level.mul(a, b)\n"
        "class TorsionModule:\n"
        "    def coordinates(self, other):\n"
        "        return self._coords, other._coords, self.level._log\n"
        "hook = ensure_tables\n"
    )
    assert stray_uses(source) == [(2, "ensure_tables"), (3, "_kron"), (6, "_coords"),
                                  (6, "_log"), (7, "ensure_tables")]
