"""Sparse polynomials keep their terms in one {exponent tuple: payload} dict.

`_wrap` on a payload dict must build the polynomial the validating
constructor builds from the same coefficients as FieldElements, equal
to it and hashing alike.  The read-only `terms` view yields nonzero
FieldElements of the polynomial's level, and the JSON form round-trips.
Fields: GF(2), GF(3), GF(4) and the tuple level GF(2^31)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.fields import FieldElement, extend, make_field
from drinfeld.pairing import QPowerPoly
from drinfeld.polynomials import MultiPoly

FIELDS = (make_field(2), make_field(3), make_field(2, 2), extend(make_field(2), 31))


@st.composite
def payload_dicts(draw, ctx, nvars):
    # low ranks (zero among them) often, so some payloads are dropped
    ranks = st.integers(0, min(ctx.order, 3) - 1) | st.integers(0, ctx.order - 1)
    keys = st.tuples(*[st.integers(0, 3)] * nvars)
    return draw(st.dictionaries(keys, ranks.map(ctx.payload_of_rank), max_size=6))


@pytest.mark.parametrize("ctx", FIELDS, ids=repr)
@pytest.mark.parametrize("cls", [MultiPoly, QPowerPoly])
@given(data=st.data())
@settings(max_examples=40)
def test_wrapped_payloads_match_the_constructor(cls, ctx, data):
    nvars = data.draw(st.integers(0, 3))
    vals = data.draw(payload_dicts(ctx, nvars))
    wrapped = cls._wrap(ctx, nvars, vals)
    built = cls(ctx, nvars, {e: FieldElement(ctx, v) for e, v in vals.items()})
    assert wrapped == built and hash(wrapped) == hash(built)

    terms = wrapped.terms
    nonzero = {e: v for e, v in vals.items() if v != ctx.zero()}
    assert len(terms) == len(nonzero) and set(terms) == set(nonzero)
    for e, c in terms.items():
        assert type(c) is FieldElement and c.ctx is ctx and not c.is_zero()
        assert c.val == nonzero[e]
    with pytest.raises(TypeError):
        terms[(0,) * nvars] = ctx.one_element

    assert cls.from_json(wrapped.to_json()) == wrapped
