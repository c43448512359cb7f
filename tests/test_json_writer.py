"""`cli._dumps`, the writer behind every --json subcommand, against the
stdlib's `json.dumps(obj, indent=2, sort_keys=True)`: equal text on
arbitrary JSON trees, the same text or exception type on values only
the stdlib's fallback handles, and no fallback on the CLI's own trees."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import cli


def stdlib(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


def outcome(write, obj):
    try:
        return write(obj)
    except Exception as exc:  # the exception type is what must agree
        return type(exc)


TEXT = st.text(
    st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=())
) | st.sampled_from(['"', "\\", '\\"', "\x00\x1f\x7f", "\n\t\r", "é", " ", "\ud800", "\udfff"])

FLOATS = st.floats() | st.sampled_from(
    [-0.0, 0.0, 1e300, -1e-300, float("nan"), float("inf"), float("-inf")]
)

LEAVES = (
    st.integers()
    | st.integers(-(10**60), 10**60)
    | st.booleans()
    | st.none()
    | FLOATS
    | TEXT
)

TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(TEXT, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(TREES)
def test_writer_equals_stdlib_on_json_trees(obj):
    assert cli._dumps(obj) == stdlib(obj)


def test_writer_fixed_leaves_and_empties():
    for obj in [True, False, [True, 1, False], {"t": True}, [], {}, (), [[], {}, ()],
                {"": []}, -0.0, 1e300, [float("nan"), float("inf"), float("-inf")],
                10**100, -(10**100), ["\ud800", '"\\', "\x01é"]]:
        assert cli._dumps(obj) == stdlib(obj)


class Unserializable:
    pass


class Key(str):
    pass


@pytest.mark.parametrize(
    "obj",
    [
        {1: "a", 2: [1, 2]},
        {None: 1},
        {"a": {3: {None: [True]}}, "b": [{0.5: 1, 1.5: 2}]},
        {True: 1, False: 2},
        {Key("k"): 1},
        [{1: 2}, {None: None}],
        {1: 1, "a": 2},
        {None: 1, "a": 2},
        Unserializable(),
        [1, Unserializable()],
        {"a": [{"b": Unserializable()}]},
        {(1, 2): 3},
        {1, 2},
        b"bytes",
    ],
)
def test_writer_matches_stdlib_outside_plain_json(obj):
    assert outcome(cli._dumps, obj) == outcome(stdlib, obj)


@pytest.fixture
def no_indented_dumps(monkeypatch):
    """json.dumps that fails when asked for an indent: the stdlib's slow
    encoder is never reached."""
    plain = json.dumps

    def dumps(obj, *args, **kwargs):
        assert kwargs.get("indent") is None, "fell back to the indented stdlib encoder"
        return plain(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", dumps)


@pytest.mark.parametrize(
    "argv",
    [
        ["fa", "--q", "2", "--a", "1,1,1", "--r", "3"],
        ["fa", "--q", "3", "--a", "2,0,1", "--r", "2", "--route", "both"],
        ["fa", "--q", "2", "--q-deg", "2", "--a", "2,3,1", "--r", "3"],
        ["fa", "--q", "3", "--q-deg", "2", "--a", "1,0,1", "--r", "2"],
        ["verify", "--suite", "det"],
    ],
)
def test_cli_json_never_falls_back(no_indented_dumps, capsys, argv):
    assert cli.main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) and out.endswith("}\n")
