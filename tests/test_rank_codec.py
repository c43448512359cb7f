"""The rank <-> coordinates codec (`fields._digits`, `fields._from_digits`)
and what reads through it: `as_vector` against the tower walk it replaced
(`tower_as_vector`), `from_vector` as its inverse, `project_payload` as a
rank bound, and `rank_of` against `payload_of_rank`, on packed and tuple
towers and every level below each; plus the error types of the edges."""

import pytest
from conftest import tower_as_vector
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.errors import LevelMismatch, MalformedInput, NotInSubfield, WrongLength
from drinfeld.fields import (
    _digits,
    _from_digits,
    as_vector,
    dim_between,
    extend,
    from_vector,
    make_field,
)

TOPS = {
    "GF(2)->GF(4)->GF(4^3)": extend(make_field(2, 2), 3),
    "GF(9)^6": extend(make_field(3, 2), 6),
    "GF(2^17)": make_field(2, 17),
    "GF(3^40)": extend(make_field(3), 40),
    "GF(37^2)": make_field(37, 2),
    "GF(2^17)^2": extend(make_field(2, 17), 2),  # a tuple level over a binary rank level
    "GF(3^11)^2": extend(extend(make_field(3), 11), 2),  # a tuple level over a tuple level
}


def chain(top):
    """`top` and every level below it, top first."""
    out = [top]
    while out[-1].parent is not None:
        out.append(out[-1].parent)
    return out


# (level, a level at or below it) for every tower
PAIRS = [(upper, lower) for top in TOPS.values()
         for i, upper in enumerate(chain(top)) for lower in chain(top)[i:]]
SETTINGS = settings(max_examples=150)


def test_the_towers_take_both_payload_forms():
    assert [top.packed for top in TOPS.values()] == [True, False, True, False, True, False, False]
    assert TOPS["GF(9)^6"].parent.packed and TOPS["GF(2^17)^2"].parent.packed
    assert not TOPS["GF(3^11)^2"].parent.packed
    assert len(PAIRS) == 6 + 6 + 3 + 3 + 3 + 6 + 6


@st.composite
def element_over(draw):
    upper, lower = draw(st.sampled_from(PAIRS))
    return draw(st.integers(0, upper.order - 1).map(upper.element_of_rank)), lower


@SETTINGS
@given(st.integers(0, 10**30), st.integers(2, 40), st.integers(0, 25))
def test_digits_and_from_digits_invert_each_other(n, base, count):
    digits = _digits(n, base, count)
    assert len(digits) == count and all(0 <= c < base for c in digits)
    assert _from_digits(digits, base) == n % base**count


@SETTINGS
@given(element_over())
def test_as_vector_is_the_tower_walk_and_from_vector_inverts_it(case):
    x, over = case
    vec = as_vector(x, over)
    assert vec == tower_as_vector(x, over)
    assert len(vec) == dim_between(x.ctx, over) and all(c.ctx is over for c in vec)
    assert from_vector(vec, x.ctx) == x


@SETTINGS
@given(st.data())
def test_project_fails_exactly_when_the_rank_is_too_big(data):
    upper, lower = data.draw(st.sampled_from(PAIRS))
    # half the draws from the image of `lower`, whose ranks are those below |lower|
    rank = data.draw(st.integers(0, lower.order - 1) | st.integers(0, upper.order - 1))
    x = upper.element_of_rank(rank)
    if rank >= lower.order:
        with pytest.raises(NotInSubfield):
            x.project_to(lower)
    else:
        y = x.project_to(lower)
        assert y.ctx is lower and y.rank() == rank and y.embed_to(upper) == x


@SETTINGS
@given(st.data())
def test_rank_of_inverts_payload_of_rank(data):
    level = data.draw(st.sampled_from([upper for upper, lower in PAIRS if upper is lower]))
    n = data.draw(st.integers(0, level.order - 1))
    assert level.rank_of(level.payload_of_rank(n)) == n


def test_the_edges_keep_their_error_types():
    gf64, gf9_6 = TOPS["GF(2)->GF(4)->GF(4^3)"], TOPS["GF(9)^6"]
    gf4, f2 = gf64.parent, gf64.parent.parent
    x = gf64.element_of_rank(5)
    # a level that is not below
    for over in (gf9_6.parent, make_field(3)):
        with pytest.raises(LevelMismatch):
            as_vector(x, over)
    with pytest.raises(LevelMismatch):
        as_vector(f2.one_element, gf4)
    with pytest.raises(LevelMismatch):
        from_vector(as_vector(x, f2), gf9_6)
    with pytest.raises(LevelMismatch):
        from_vector([f2.one_element, gf4.one_element, f2.one_element], gf64)
    with pytest.raises(LevelMismatch):
        x.project_to(make_field(3))
    # an empty or wrong-length vector
    with pytest.raises(WrongLength):
        from_vector([], gf64)
    for wrong in (as_vector(x, f2)[:-1], as_vector(x, f2) + [f2.zero_element], [x, x]):
        with pytest.raises(WrongLength):
            from_vector(wrong, gf64)
    # a rank out of range
    for level in (gf64, gf9_6, TOPS["GF(37^2)"], f2):
        for n in (-1, level.order):
            with pytest.raises(MalformedInput):
                level.payload_of_rank(n)
            with pytest.raises(MalformedInput):
                level.element_of_rank(n)
