"""Only `PairingEvaluator` contracts the pairing polynomial's trie.

The check reads the source with the stdlib ``ast``.  In ``src/drinfeld``
the names `_trie` (the evaluator's trie) and `dot_ops` (the level's
contraction op) may occur, as a name or as an attribute, only inside
the class `PairingEvaluator` of ``pairing.py``; `dot_ops` also inside
`FieldCtx` of ``fields.py``, which defines and installs it.  A use
reached only through a string or ``getattr`` is out of its reach."""

import ast
import pathlib

import pytest

import drinfeld

MODULES = sorted(pathlib.Path(drinfeld.__file__).parent.glob("*.py"))
# name -> the (module, class) pairs allowed to use it
OWNERS = {
    "_trie": {("pairing.py", "PairingEvaluator")},
    "dot_ops": {("pairing.py", "PairingEvaluator"), ("fields.py", "FieldCtx")},
}


def stray_uses(source, module):
    """(line, name) of every use of a name of OWNERS in `source`, the
    text of `module`, outside the classes allowed to use it."""
    found = []
    for top in ast.parse(source).body:
        owner = (module, top.name) if isinstance(top, ast.ClassDef) else None
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in OWNERS and owner not in OWNERS[name]:
                found.append((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_evaluator_contracts_the_trie(path):
    assert stray_uses(path.read_text(encoding="utf-8"), path.name) == []


def test_the_check_reports_a_second_contraction():
    source = (
        "def contract(level, terms):\n"
        "    return level.dot_ops(len(terms))\n"
        "class PairingEvaluator:\n"
        "    def __init__(self, level):\n"
        "        self._trie = level.dot_ops(1)\n"
        "class QPowerPoly:\n"
        "    def __call__(self, ev):\n"
        "        return ev._trie\n"
    )
    assert stray_uses(source, "pairing.py") == [(2, "dot_ops"), (8, "_trie")]
    assert stray_uses(source, "core.py") == [(2, "dot_ops"), (5, "_trie"), (5, "dot_ops"),
                                             (8, "_trie")]
