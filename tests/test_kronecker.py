"""Kronecker-substitution arithmetic on levels over odd GF(p), against
the schoolbook multiply and sympy's galoistools; the irreducibility
test, the binomial skip of the modulus search and splitting_level
against sympy too.  A level over GF(2) holds its rank and multiplies
carry-lessly instead (test_gf2_product)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_factor, gf_irreducible_p, gf_mul, gf_rem

from drinfeld.errors import MalformedInput
from drinfeld.fields import (
    _find_irreducible,
    _is_irreducible,
    _kron_modulus,
    _no_irreducible_binomial,
    extend,
    field_from_descriptor,
    make_field,
)
from drinfeld.polynomials import UniPoly, splitting_level

F2, F3, F5, F7, F17 = (make_field(p) for p in (2, 3, 5, 7, 17))


def _first_dense_irreducible(p, d):
    """Smallest monic irreducible of degree d over GF(p), in counting
    order, with every coefficient nonzero (little-endian)."""
    for low in itertools.product(range(1, p), repeat=d):
        f = list(low) + [1]
        if gf_irreducible_p(f[::-1], p, ZZ):
            return f
    raise AssertionError("no dense irreducible")  # pragma: no cover


LEVELS = {
    # at or just under the byte bound d*(p-1)**2 + (p-1) < 256
    "GF(3^63)": extend(F3, 63),
    "GF(5^15)": extend(F5, 15),
    "GF(7^6)": extend(F7, 6),
    # a dense modulus: every fold lowers the top degree by one only
    "GF(3^12) dense": extend(F3, 12, modulus=_first_dense_irreducible(3, 12)),
    "GF(3^40)": make_field(3, 40),
}
WIDE = extend(F17, 3)  # 3 * 16**2 + 16 >= 256: the schoolbook stays

SETTINGS = settings(max_examples=60)


def test_byte_bound_picks_the_levels():
    for ctx in LEVELS.values():
        assert ctx._kron is not None and ctx.parent.parent is None
    assert WIDE._kron is None
    # over GF(2) no level takes Kronecker data; the modulus search still does
    assert extend(F2, 31)._kron is None and extend(F2, 31).packed
    for p, d in ((2, 254), (3, 63), (5, 15), (7, 6), (11, 2), (13, 1)):
        assert _kron_modulus(p, [1] * (d + 1)) is not None
        assert _kron_modulus(p, [1] * (d + 2)) is None


@st.composite
def coordinates(draw, ctx):
    p, d = ctx.p, ctx.degree
    digit = st.integers(0, p - 1)
    return draw(st.one_of(
        # zero, one, and all p-1: every product slot at its largest
        st.sampled_from(((0,) * d, (1,) + (0,) * (d - 1), (p - 1,) * d)),
        st.tuples(*[digit] * d),
    ))


@st.composite
def level_and_pair(draw, names=tuple(LEVELS)):
    ctx = LEVELS[draw(st.sampled_from(names))]
    return ctx, draw(coordinates(ctx)), draw(coordinates(ctx))


def _sympy_mulmod(ctx, a, b):
    p, d = ctx.p, ctx.degree
    big = lambda c: [int(x) for x in c[::-1]]  # noqa: E731 - sympy is big-endian
    r = gf_rem(gf_mul(big(a), big(b), p, ZZ), big(ctx._mod), p, ZZ)
    r = [int(x) for x in r[::-1]]
    return tuple(r + [0] * (d - len(r)))


@SETTINGS
@given(level_and_pair())
def test_kronecker_mul_matches_schoolbook_and_sympy(case):
    ctx, a, b = case
    expected = ctx._mul_schoolbook(a, b)
    assert ctx.mul(a, b) == ctx._mul_over_prime(a, b) == expected
    assert expected == _sympy_mulmod(ctx, a, b)


@SETTINGS
@given(level_and_pair())
def test_kronecker_add_sub_neg_match_coordinatewise(case):
    ctx, a, b = case
    p = ctx.p
    assert ctx.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
    assert ctx.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
    assert ctx.neg(a) == tuple(-x % p for x in a)


@SETTINGS
@given(st.data())
def test_wide_slots_keep_the_schoolbook(data):
    assert WIDE._kron is None and WIDE._mul_coords == WIDE._mul_schoolbook
    a, b = data.draw(coordinates(WIDE)), data.draw(coordinates(WIDE))
    assert WIDE._mul_coords(a, b) == _sympy_mulmod(WIDE, a, b)
    x, y = WIDE.element_from_json(a), WIDE.element_from_json(b)
    assert (x * y).to_json() == list(_sympy_mulmod(WIDE, a, b))


@settings(max_examples=150)
@given(st.data())
def test_is_irreducible_matches_sympy_degrees_5_to_12(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    d = data.draw(st.integers(5, 12))
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
    assert _is_irreducible(make_field(p), f) == gf_irreducible_p(f[::-1], p, ZZ), (p, f)


def test_is_irreducible_matches_sympy_without_kronecker():
    # over GF(17) no degree >= 1 fits a byte slot: the generic powering runs
    for d in (2, 3):
        for low in itertools.islice(itertools.product(range(17), repeat=d), 1000):
            f = list(low)[::-1] + [1]
            assert _is_irreducible(F17, f) == gf_irreducible_p(f[::-1], 17, ZZ), f


def test_found_modulus_is_the_first_irreducible_in_counting_order():
    for p, d in ((2, 8), (2, 12), (3, 6), (3, 8), (5, 4), (5, 6)):
        for n in itertools.count():
            f = [n // p**i % p for i in range(d)] + [1]
            if gf_irreducible_p(f[::-1], p, ZZ):
                break
        assert list(_find_irreducible(make_field(p), d)) == f, (p, d)


BINOMIAL_FIELDS = [
    make_field(2), make_field(3), extend(F2, 2), make_field(5),
    make_field(7), extend(F2, 3), make_field(3, 2),
]


@pytest.mark.parametrize("ctx", BINOMIAL_FIELDS, ids=repr)
def test_binomial_skip_is_exact(ctx):
    # the skipped block holds no irreducible, and the rule skips every such block
    one = ctx.one()
    for m in range(2, 7):
        binomials = ([c] + [ctx.zero()] * (m - 1) + [one] for c in ctx.iter_payloads())
        none_irreducible = not any(_is_irreducible(ctx, f) for f in binomials)
        assert _no_irreducible_binomial(ctx.order, m) == none_irreducible, (ctx, m)


def test_binomial_skip_keeps_the_modulus():
    top = make_field(2, 15)
    level = extend(top, 2)
    assert level.modulus == ((1,) + (0,) * 14,) * 3  # x^2 + x + 1
    assert _no_irreducible_binomial(top.order, 2)


@settings(max_examples=80)
@given(st.data())
def test_splitting_level_matches_sympy_factor_degrees(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    ctx = make_field(p)
    parts = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    f = [1]
    for deg in parts:  # products of small factors, repeated ones included
        g = data.draw(st.lists(st.integers(0, p - 1), min_size=deg, max_size=deg)) + [1]
        f = [int(c) for c in gf_mul(f, g[::-1], p, ZZ)]  # big-endian
    _, factors = gf_factor(f, p, ZZ)
    expected = math.lcm(*(len(g) - 1 for g, _ in factors))
    level = splitting_level(UniPoly.from_ranks(ctx, f[::-1]))
    assert level.order == p**expected, (p, f)


@pytest.mark.parametrize("modulus", [[4, 0, 1], [1, 0, -2], [1, 0, True], [1.0, 0, 1]])
def test_descriptor_modulus_is_never_reduced(modulus):
    desc = {"p": 3, "e": 2, "tower": [{"degree": 2, "modulus": modulus}]}
    with pytest.raises(MalformedInput):
        field_from_descriptor(desc)
    assert field_from_descriptor(make_field(3, 2).descriptor()) is make_field(3, 2)


@pytest.mark.parametrize(
    "desc",
    [
        {"p": 2.7, "e": 1, "tower": []},
        {"p": "3", "e": 1, "tower": []},
        {"p": 3, "e": False, "tower": []},
        {"p": 3.9, "e": 2.5, "tower": [{"degree": "2", "modulus": [1, 0, 1]}]},
        {"p": 3, "e": 2, "tower": [{"degree": 2.0, "modulus": [1, 0, 1]}]},
        {"p": 3, "e": 1, "tower": [{"degree": "2", "modulus": [1, 0, 1]}]},
    ],
)
def test_descriptor_numbers_are_never_coerced(desc):
    with pytest.raises(MalformedInput):
        field_from_descriptor(desc)
