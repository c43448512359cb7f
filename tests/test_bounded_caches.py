"""Caches are bounded: every module-level cache of ``src/drinfeld`` grows
only through `pairing._remember`.

The check reads the source with the stdlib ``ast``.  A cache is a
module-level name matching ``_*_CACHE``; no module may write one by
subscript assignment (plain or augmented), `setdefault` or `update`,
whether it names the cache bare or as a module attribute.  `_remember`
keeps at most `_MEMO_SIZE` entries and drops the oldest first, so a
cache written only through it stays bounded.  A write reached only
through a string, ``getattr`` or another name bound to the same dict is
out of its reach."""

import ast
import pathlib
import re

import pytest

import drinfeld

PACKAGE = pathlib.Path(drinfeld.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
CACHE_NAME = re.compile(r"_\w*_CACHE")


def cache_names(source):
    """The module-level names matching ``_*_CACHE`` that `source` binds."""
    names = set()
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names |= {t.id for t in targets if isinstance(t, ast.Name) and CACHE_NAME.fullmatch(t.id)}
    return names


CACHES = set().union(*(cache_names(path.read_text(encoding="utf-8")) for path in MODULES))


def _cache(node, caches):
    """The cache `node` names, bare or as an attribute, else None."""
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    return name if name in caches else None


def unbounded_writes(source, caches=CACHES):
    """(line, cache) of every write to one of `caches` in `source` that
    does not go through `_remember`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, name) for t in targets if isinstance(t, ast.Subscript)
                      and (name := _cache(t.value, caches))]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("setdefault", "update")
              and (name := _cache(node.func.value, caches))):
            found.append((node.lineno, name))
    return sorted(found)


def test_the_caches_are_found():
    assert CACHES == {"_ROOTS_CACHE", "_F_CACHE", "_SITE_CACHE"}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_caches_grow_only_through_remember(path):
    assert unbounded_writes(path.read_text(encoding="utf-8")) == []


def test_the_check_reports_a_direct_write():
    source = (PACKAGE / "pairing.py").read_text(encoding="utf-8")
    text = "    return _remember(_F_CACHE, key, result)\n"
    assert source.count(text) == 1
    mutant = source.replace(text, "    _F_CACHE[key] = result\n    return result\n")
    line = mutant[: mutant.index("_F_CACHE[key] = result")].count("\n") + 1
    assert unbounded_writes(mutant) == [(line, "_F_CACHE")]
    other = (
        "from . import pairing\n"
        "_SITE_CACHE.setdefault(key, rows)\n"
        "pairing._F_CACHE.update(more)\n"
        "pairing._ROOTS_CACHE[key] += value\n"
        "_LOCAL_CACHE: dict = {}\n"
        "_LOCAL_CACHE[key] = 1\n"
        "memo[key] = _F_CACHE.get(key)\n"
    )
    caches = CACHES | cache_names(other)
    assert unbounded_writes(other, caches) == [(2, "_SITE_CACHE"), (3, "_F_CACHE"),
                                               (4, "_ROOTS_CACHE"), (6, "_LOCAL_CACHE")]
