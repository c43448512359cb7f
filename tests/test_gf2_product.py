"""The one GF(2)[x] product of the levels directly over GF(2): ranks
spread into byte slots, one bigint product, the parity mask and the fold
(the slot codec ``fields._slots`` over GF(2)), against sympy's galoistools at every degree and
against the log tables where a level has them; and the rule that a level
above the table cap never builds them."""

import pytest
from conftest import binary_level
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_mul, gf_pow_mod, gf_rem, gf_strip

from drinfeld.fields import PACKED_MAX_ORDER, FieldCtx, _power, make_field

F2 = make_field(2)
NARROW = (2, 3, 8, 15, 16, 17, 28, 31, 64)
WIDE = (254, 255, 256, 511)  # sympy's cost per product grows as d**2: fewer draws
DEGREES = NARROW + WIDE


def _big(rank):
    """A rank as sympy's big-endian coefficient list over GF(2)."""
    return gf_strip([int(c) for c in format(rank, "b")])


def _rank(coeffs):
    return int("".join(map(str, coeffs)) or "0", 2)


def _modulus(ctx):
    return [int(c) for c in reversed(ctx._mod)]


def _sympy_mul(ctx, a, b):
    return _rank(gf_rem(gf_mul(_big(a), _big(b), 2, ZZ), _modulus(ctx), 2, ZZ))


def test_every_level_over_gf2_holds_its_rank():
    for d in DEGREES:
        ctx = binary_level(d)
        assert ctx.packed and ctx.parent is F2 and ctx._mul_coords != ctx._mul_generic
        assert ctx.payload_of_rank(ctx.order - 1) == ctx.order - 1
    # a tuple level over a binary parent multiplies over that parent
    above = binary_level(17)
    assert not FieldCtx(2, parent=above, degree=2, modulus=(1, 1, 1)).packed


@pytest.mark.parametrize("d", NARROW)
@settings(max_examples=25)
@given(data=st.data())
def test_product_power_inverse_and_frobenius_match_sympy(d, data):
    ctx = binary_level(d)
    top = ctx.order - 1
    ranks = st.one_of(st.sampled_from((0, 1, 2, top)), st.integers(0, top))
    a, b = data.draw(ranks), data.draw(ranks)
    e = data.draw(st.integers(0, 300))
    k = data.draw(st.integers(-d, 2 * d))
    A, mod = _big(a), _modulus(ctx)
    j = k % d  # a**(2**k) with k taken modulo the degree over GF(2)
    clmul = ctx._mul_coords  # the codec's product, on ranks
    product, square = clmul(a, b), clmul(a, a)
    assert product == _sympy_mul(ctx, a, b) and square == _sympy_mul(ctx, a, a)
    powered = _power(clmul, a, e, 1)
    assert _big(powered) == gf_pow_mod(A, e, mod, 2, ZZ)
    frob = _power(clmul, a, 2**j, 1)
    if 2 * j <= d:
        assert _big(frob) == gf_pow_mod(A, 2**j, mod, 2, ZZ)
    else:  # sympy squares the shorter way round the Frobenius orbit
        assert gf_pow_mod(_big(frob), 2 ** (d - j), mod, 2, ZZ) == A
    # the level's own ops: the carry-less product above the cap, the log
    # tables at or below it
    if ctx.order <= PACKED_MAX_ORDER:
        ctx.dot_ops(1)  # builds the tables
        assert ctx._log is not None
    else:
        assert ctx.mul is clmul and ctx._log is None
    assert (ctx.mul(a, b), ctx.mul(a, a)) == (product, square)
    assert ctx.power(a, e) == powered and ctx.frobenius(a, k) == frob
    if a:
        inv, _, one = gf_gcdex(A, mod, 2, ZZ)  # inv * A + _ * mod = 1
        assert one == [1] and _big(ctx.inv(a)) == inv and clmul(a, ctx.inv(a)) == 1


@pytest.mark.parametrize("d", WIDE)
@settings(max_examples=2)
@given(data=st.data())
def test_product_power_inverse_and_frobenius_match_sympy_on_wide_levels(d, data):
    test_product_power_inverse_and_frobenius_match_sympy.hypothesis.inner_test(d, data)


@pytest.mark.parametrize("d", [255, 256])
def test_all_ones_operands_fill_a_product_slot_to_d(d):
    # the middle slot of (x**d - 1)/(x - 1) squared sums d ones: a slot
    # width that holds d - 1 at most carries into the next slot
    ctx = binary_level(d)
    ones, again = ctx.order - 1, (1 << d) - 1
    assert ones is not again
    expected = _sympy_mul(ctx, ones, ones)
    assert ctx.mul(ones, ones) == ctx.mul(ones, again) == expected
    assert ctx.mul(ones, 2) == _sympy_mul(ctx, ones, 2)


def test_no_table_is_built_above_the_cap(monkeypatch):
    ticks, builds = [], []
    monkeypatch.setattr(FieldCtx, "_tick", lambda self: ticks.append(self))
    monkeypatch.setattr(FieldCtx, "_build_tables", lambda self: builds.append(self))
    level = binary_level(17)
    ctx = FieldCtx(2, parent=F2, degree=17, modulus=level._mod)  # uncached: no ops yet
    x, y = 3, ctx.order - 2
    for _ in range(ctx.order + 1):
        x = ctx.mul(x, y)
    for a in range(1, 200):
        assert ctx.mul(a, ctx.inv(a)) == 1
    assert ctx.power(y, ctx.order - 1) == 1 and ctx.frobenius(y, 17) == y
    spread, dot, payload = ctx.dot_ops(2)
    (value,) = dot([spread(y), spread(1)], [spread(x), spread(y)], [[(0, 0), (1, 1)]])
    assert payload(value) == ctx.add(ctx.mul(y, x), y)
    assert ctx._log is None and ctx._slow_ops == 0 and ticks == [] and builds == []
