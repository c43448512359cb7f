"""`cli._dumps`, the writer behind every --json subcommand, against the
stdlib's `json.dumps(obj, indent=2, sort_keys=True)`: equal text on
arbitrary JSON trees, the same text or exception type on values only
the stdlib's fallback handles, no fallback on the CLI's own trees, and
polynomials written from their terms as the stdlib writes `to_json()`."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import cli
from drinfeld.fields import extend, make_field
from drinfeld.pairing import QPowerPoly, f_rootfree
from drinfeld.polynomials import MultiPoly, UniPoly


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


@settings(max_examples=400)
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


GF4 = {"p": 2, "e": 2, "tower": [{"degree": 2, "modulus": [1, 1, 1]}]}

# GF(4) over GF(2) writes each coefficient as a nested list
LEVELS = (make_field(2), make_field(3), make_field(3, 2), extend(make_field(2), 2))


@st.composite
def sparse_polys(draw):
    """A MultiPoly or QPowerPoly in 0-4 variables; rank 0 coefficients
    drop out, so some draws are the zero polynomial."""
    ctx = draw(st.sampled_from(LEVELS))
    cls = draw(st.sampled_from((MultiPoly, QPowerPoly)))
    nvars = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 6)] * nvars)
    terms = draw(st.dictionaries(exps, st.integers(0, ctx.order - 1), max_size=12))
    return cls(ctx, nvars, {e: ctx.element_of_rank(n) for e, n in terms.items()})


@settings(max_examples=300)
@given(sparse_polys())
def test_poly_writer_equals_stdlib_on_to_json(p):
    assert cli._dumps(p) == stdlib(p.to_json())
    # one level deeper, as `fa --route both` nests its two polynomials
    assert cli._dumps({"poly": p, "x": 1}) == stdlib({"poly": p.to_json(), "x": 1})


@pytest.mark.parametrize("ctx", LEVELS)
@pytest.mark.parametrize("nvars", range(5))
def test_poly_writer_on_the_zero_polynomial(ctx, nvars):
    for p in (MultiPoly.zero(ctx, nvars), QPowerPoly(ctx, nvars)):
        assert cli._dumps(p) == stdlib(p.to_json())
        assert cli._dumps([p]) == stdlib([p.to_json()])


def test_poly_writer_on_fa_with_provenance():
    for ctx, ranks, r in [(LEVELS[0], (1, 1, 1), 4), (LEVELS[2], (5, 0, 1), 3),
                          (LEVELS[3], (2, 3, 1), 3), (LEVELS[1], (2, 1), 6)]:
        fa = f_rootfree(UniPoly.from_ranks(ctx, ranks), r)
        assert cli._dumps(fa) == stdlib(fa.to_json())
        assert cli._dumps({"chain": fa, "match": True}) == stdlib(
            {"chain": fa.to_json(), "match": True})


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
        ["fa", "--q", "2", "--q-deg", "2", "--a", "2,3,1", "--r", "3", "--route", "both"],
        ["weil", "--module", json.dumps({"K": GF4, "theta": [0, 1], "g": [[1, 0], [1, 1]]}),
         "--a", "1,1"],
        ["verify", "--suite", "det"],
    ],
)
def test_cli_json_never_falls_back(no_indented_dumps, capsys, argv):
    assert cli.main(argv + ["--json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) and out.endswith("}\n")
