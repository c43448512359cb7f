"""Properties of both element forms: packed levels (the element is its
rank: order <= 2^16, with and without their log/Zech tables, or any
degree directly over GF(2)), and tuple levels above the cap, over a
prime, a packed parent or a binary level above the cap."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_gcdex, gf_irreducible_p, gf_pow_mod, gf_strip

from drinfeld.errors import MalformedInput, NotInSubfield
from drinfeld.fields import PACKED_MAX_ORDER, FieldCtx, _is_irreducible, _power, extend, make_field

F2, F3, F5 = make_field(2), make_field(3), make_field(5)
F4 = extend(F2, 2)
F9 = make_field(3, 2)
F256 = extend(F2, 8)

LEVELS = {
    "GF(2^15)": extend(F2, 15),
    "GF(3^8)": extend(F3, 8),
    "GF(3^2)": F9,
    "GF(4)^3": extend(F4, 3),  # packed over packed
    "GF(9)^4": extend(F9, 4),  # odd p: packed over packed, q = 9
    "GF(2^8)^3": extend(F256, 3),  # tuple level over a packed parent
    "GF(2^17)": extend(F2, 17),  # packed above the cap: over GF(2), with no tables
    "GF(9)^6": extend(F9, 6),  # odd p: tuple level over a packed parent
    "GF(3^11)": extend(F3, 11),  # odd p: tuple level over the prime field
    "GF(2^17)^2": extend(extend(F2, 17), 2),  # tuple level over a binary parent
}
PACKED = [name for name, ctx in LEVELS.items() if ctx.order <= PACKED_MAX_ORDER]

SETTINGS = settings(max_examples=60)


def _pow_raw(ctx, a, e):
    """a**e on the digit path: square-and-multiply by ``_mul_raw``."""
    return _power(ctx._mul_raw, a, e, 1)


def test_levels_have_the_intended_form():
    assert [LEVELS[name].packed for name in LEVELS] == [True] * 5 + [False, True] + [False] * 3
    assert LEVELS["GF(2^8)^3"].parent.packed and LEVELS["GF(2^17)"].parent is F2
    assert LEVELS["GF(9)^6"].parent.packed and LEVELS["GF(3^11)"].parent is F3
    assert LEVELS["GF(2^17)^2"].parent is LEVELS["GF(2^17)"]


@st.composite
def level_and_ranks(draw, names=tuple(LEVELS), count=3):
    ctx = LEVELS[draw(st.sampled_from(names))]
    ranks = st.one_of(st.sampled_from((0, 1, ctx.order - 1)), st.integers(0, ctx.order - 1))
    return ctx, [ctx.element_of_rank(draw(ranks)) for _ in range(count)]


@SETTINGS
@given(level_and_ranks())
def test_field_axioms(case):
    ctx, (a, b, c) = case
    zero, one = ctx.zero_element, ctx.one_element
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - b == a + (-b) and (a - a).is_zero() and -(-a) == a
    if not a.is_zero():
        assert a * a.inverse() == one and (b / a) * a == b
        assert a ** -1 == a.inverse() and a ** (ctx.order - 1) == one


@SETTINGS
@given(level_and_ranks(PACKED, count=2), st.integers(-40, 40), st.integers(0, 20))
def test_table_path_equals_digit_path(case, e, k):
    ctx, (x, y) = case
    if ctx._log is None:
        ctx._build_tables()  # the digit path stays callable beside the tables
    a, b = x.val, y.val
    n = ctx.order - 1
    assert ctx.mul(a, b) == ctx._mul_raw(a, b)
    if ctx.p == 2:
        assert ctx.add(a, b) == ctx.sub(a, b) == a ^ b and ctx.neg(a) == a
    else:
        assert ctx.add(a, b) == ctx._add_slow(a, b) and ctx.sub(a, b) == ctx._sub_slow(a, b)
        assert ctx.neg(a) == ctx._neg_slow(a)
    if a:
        assert ctx.inv(a) == _pow_raw(ctx, a, n - 1)
        assert ctx.power(a, e) == _pow_raw(ctx, a, e % n)
        assert ctx.frobenius(a, k) == _pow_raw(ctx, a, pow(ctx.q, k, n))


def _rank_from_json(ctx, obj):
    """A nested coordinate array read as base-p digits."""
    if ctx.parent is None:
        return obj
    r = 0
    for c in reversed(obj):
        r = r * ctx.parent.order + _rank_from_json(ctx.parent, c)
    return r


def _as_tuples(obj):
    return tuple(_as_tuples(c) for c in obj) if isinstance(obj, list) else obj


@SETTINGS
@given(level_and_ranks(count=1))
def test_rank_elem_and_json_roundtrips(case):
    ctx, (x,) = case
    obj = x.to_json()
    assert ctx.element_of_rank(x.rank()) == x
    assert _rank_from_json(ctx, obj) == x.rank()
    assert ctx.element_from_json(obj) == x
    assert ctx.element_from_json(_as_tuples(obj)) == x


@SETTINGS
@given(level_and_ranks(count=1), st.data())
def test_embed_then_project_is_identity(case, data):
    ctx, _ = case
    below = []
    low = ctx.parent
    while low is not None:
        below.append(low)
        low = low.parent
    low = data.draw(st.sampled_from(below))
    x = low.element_of_rank(data.draw(st.integers(0, low.order - 1)))
    up = x.embed_to(ctx)
    assert up.rank() == x.rank() and up.project_to(low) == x
    outside = ctx.element_of_rank(data.draw(st.integers(low.order, ctx.order - 1)))
    with pytest.raises(NotInSubfield):
        outside.project_to(low)


@settings(max_examples=25)
@given(level_and_ranks(count=1), st.integers(0, 6))
def test_frobenius_is_q_power(case, k):
    ctx, (x,) = case
    assert x.frobenius(k) == x ** (ctx.q**k)


def _frobenius_wraps(ctx, m):
    """Checks that k counts modulo m = the degree over GF(q); returns
    the elements' x.frobenius(-1)."""
    xs = [ctx.element_of_rank(r) for r in range(2, 12)]
    back = [x.frobenius(-1) for x in xs]
    for x, y in zip(xs, back):
        assert y == x.frobenius(m - 1) and y.frobenius() == x, (ctx, x)
        assert x.frobenius(m) == x and x.frobenius(-m - 1) == y, (ctx, x)
    return back


def test_frobenius_takes_k_modulo_the_degree_over_gf_q():
    # a fresh packed GF(2^10) over GF(2), before and after its tables exist
    ctx = FieldCtx(2, parent=F2, degree=10, modulus=extend(F2, 10)._mod)
    before = _frobenius_wraps(ctx, 10)
    assert ctx._log is None
    ctx._build_tables()
    assert _frobenius_wraps(ctx, 10) == before
    for name, m in (("GF(2^17)", 17), ("GF(9)^4", 4), ("GF(9)^6", 6)):
        _frobenius_wraps(LEVELS[name], m)


def test_is_irreducible_matches_sympy():
    for ctx in (F2, F3, F5):
        p = ctx.p
        for d in range(1, 5):
            for low in itertools.product(range(p), repeat=d):
                f = list(low) + [1]  # little-endian monic
                expected = gf_irreducible_p(f[::-1], p, ZZ)
                assert _is_irreducible(ctx, f) == expected, (p, f)


@pytest.mark.parametrize("rank", [1.5, 1.0, True, "1"])
def test_rank_must_be_an_int(rank):
    for ctx in (make_field(2, 2), F3, LEVELS["GF(2^17)"]):
        with pytest.raises(MalformedInput):
            ctx.element_of_rank(rank)
    assert make_field(2, 2).element_of_rank(1).rank() == 1


def _gf(coords):
    """Little-endian coordinates over GF(p) as sympy's big-endian list."""
    return gf_strip(list(coords)[::-1])


@settings(max_examples=12)
@given(level_and_ranks(("GF(2^17)", "GF(3^11)"), count=1))
def test_frobenius_and_inverse_on_tuple_levels_match_sympy(case):
    # GF(2^17) holds ranks and GF(3^11) tuples; to_json is the coordinates on both
    ctx, (x,) = case
    p, m = ctx.p, ctx.degree  # q = p on these levels over GF(p)
    f, mod = _gf(x.to_json()), _gf(ctx._mod)
    for k in range(-m, 2 * m + 1):
        y = x.frobenius(k)
        if k >= 0:
            assert _gf(y.to_json()) == gf_pow_mod(f, p**k, mod, p, ZZ), (ctx, x, k)
        else:  # Frobenius by -k undoes Frobenius by k
            assert gf_pow_mod(_gf(y.to_json()), p**-k, mod, p, ZZ) == f, (ctx, x, k)
    if not x.is_zero():
        assert x * x.inverse() == ctx.one_element
        inv, _, one = gf_gcdex(f, mod, p, ZZ)  # inv * f + _ * mod = 1
        assert one == [1] and _gf(x.inverse().to_json()) == inv


@pytest.mark.parametrize("name", ["GF(2^15)", "GF(9)^4"])
def test_packed_frobenius_and_inverse_match_the_digit_path_with_and_without_tables(name):
    level = LEVELS[name]
    ctx = FieldCtx(level.p, parent=level.parent, degree=level.degree, modulus=level._mod)
    m, q = level.degree, ctx.q  # the parent is the base on both levels
    ranks = [0, 1, 2, ctx.order - 1] + random.Random(0).sample(range(3, ctx.order - 1), 4)

    def check():
        for a in ranks:
            for k in range(-m, 2 * m + 1):
                b = ctx.frobenius(a, k)
                if k >= 0:
                    assert b == _pow_raw(ctx, a, q**k), (a, k)
                else:
                    assert _pow_raw(ctx, b, q**-k) == a, (a, k)
            if a:
                assert ctx._mul_raw(a, ctx.inv(a)) == 1

    check()
    assert ctx._log is None
    ctx._build_tables()
    check()
