"""The slot codec of the levels directly over odd GF(p) (``fields._slots``,
Kronecker substitution): products, squares, powers, Frobenius maps,
inverses and sums of products, against the schoolbook oracle
(``conftest.mul_schoolbook``) and sympy's galoistools, on both sides of
the byte bound d*(p-1)**2 + (p-1) < 256 of the earlier one-byte product,
and on levels that have no codec; the rule that picks the slot widths
and gives no codec; the irreducibility test, the binomial skip of the
modulus search, the searched moduli and splitting_level against sympy
and a pinned digest.  A level over GF(2) holds its rank and multiplies
carry-lessly instead (test_gf2_product)."""

import hashlib
import itertools
import json
import math

import pytest
from conftest import mul_schoolbook, prime_level
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import (
    gf_factor,
    gf_gcdex,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_rem,
    gf_strip,
)

from drinfeld.errors import MalformedInput
from drinfeld.fields import (
    PACKED_MAX_ORDER,
    FieldElement,
    _find_irreducible,
    _is_irreducible,
    _no_irreducible_binomial,
    _slots,
    extend,
    field_from_descriptor,
    make_field,
)
from drinfeld.polynomials import UniPoly, splitting_level

F2, F3 = make_field(2), make_field(3)


def _first_dense_irreducible(p, d):
    """Smallest monic irreducible of degree d over GF(p), in counting
    order, with every coefficient nonzero (little-endian)."""
    for low in itertools.product(range(1, p), repeat=d):
        f = list(low) + [1]
        if gf_irreducible_p(f[::-1], p, ZZ):
            return f
    raise AssertionError("no dense irreducible")  # pragma: no cover


# (p, d) on both sides of the old byte bound; keys of conftest.MODULI are
# built on a modulus whose x**(d-1) coefficient is 1
CODEC = {f"GF({p}^{d})": prime_level(p, d) for p, d in (
    (3, 63), (3, 64), (3, 100), (5, 15), (5, 16), (7, 6), (7, 7),
    (13, 2), (13, 5), (17, 5), (127, 3),
)}
CODEC["GF(3^12) dense"] = extend(F3, 12, modulus=_first_dense_irreducible(3, 12))
CODEC["GF(3^40)"] = make_field(3, 40)
NO_CODEC = {f"GF({p}^{d})": prime_level(p, d) for p, d in ((127, 5), (131, 3), (1009, 2))}
LEVELS = {**CODEC, **NO_CODEC}

SETTINGS = settings(max_examples=60)


def _widths(p, d, terms):
    """The operand and fold slot widths of the rule, by counting up."""
    w = next(w for w in itertools.count(1) if terms * d * (p - 1) ** 2 < 256**w)
    wf = next(w for w in itertools.count(1) if (p - 1) + (d - 1) * (p - 1) ** 2 < 256**w)
    return w, wf


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 31, 61, 127, 131, 257])
def test_slots_are_none_exactly_when_a_slot_outgrows_the_byte_tables(p):
    for d, terms in itertools.product(range(1, 41), (1, 16, 300)):
        w, wf = _widths(p, d, terms)
        codec = _slots(p, [1] * (d + 1), terms)
        assert (codec is None) == (max(w, wf) * (p - 1) >= 256), (p, d, terms)
        if codec is not None:  # x**(d-1) spreads to bit 8w(d-1)
            top = 1 << d - 1 if p == 2 else (0,) * (d - 1) + (1,)
            assert codec[0](top).bit_length() == 8 * w * (d - 1) + 1


def test_the_codec_picks_the_levels():
    for ctx in CODEC.values():
        assert ctx.parent.parent is None and _slots(ctx.p, ctx._mod, 1) is not None
        assert ctx._mul_coords != ctx._mul_generic
    for ctx in NO_CODEC.values():
        assert _slots(ctx.p, ctx._mod, 1) is None and ctx._mul_coords == ctx._mul_generic
    # (w, wf) of a product: the levels take one- and two-byte operand and
    # fold slots, on both sides of the old bound
    widths = {(3, 63): (1, 1), (3, 64): (2, 1), (3, 100): (2, 2), (5, 15): (1, 1),
              (5, 16): (2, 1), (7, 6): (1, 1), (7, 7): (1, 1), (127, 3): (2, 2)}
    for (p, d), pair in widths.items():
        assert _widths(p, d, 1) == pair
    # a tower level has no codec: its coordinates are not ints mod p
    tower = extend(make_field(3, 2), 6)
    assert tower.order > PACKED_MAX_ORDER and tower._mul_coords == tower._mul_generic


@st.composite
def coordinates(draw, ctx):
    p, d = ctx.p, ctx.degree
    digit = st.integers(0, p - 1)
    return draw(st.one_of(
        # zero, one, and all p-1: every product slot at its largest
        st.sampled_from(((0,) * d, (1,) + (0,) * (d - 1), (p - 1,) * d)),
        st.tuples(*[digit] * d),
    ))


def _big(c):
    return gf_strip([int(x) for x in c[::-1]])  # sympy is big-endian


def _little(ctx, r):
    r = [int(x) for x in r[::-1]]
    return tuple(r + [0] * (ctx.degree - len(r)))


def _sympy_mulmod(ctx, a, b):
    p = ctx.p
    return _little(ctx, gf_rem(gf_mul(_big(a), _big(b), p, ZZ), _big(ctx._mod), p, ZZ))


def _sympy_powmod(ctx, a, e):
    return _little(ctx, gf_pow_mod(_big(a), e, _big(ctx._mod), ctx.p, ZZ))


def _element(ctx, a):
    return ctx.element_from_json(list(a))


@pytest.mark.parametrize("name", sorted(LEVELS))
@settings(max_examples=10)
@given(data=st.data())
def test_products_powers_frobenius_and_inverses_match_sympy(name, data):
    ctx = LEVELS[name]
    p, d = ctx.p, ctx.degree
    a, b = data.draw(coordinates(ctx)), data.draw(coordinates(ctx))
    e = data.draw(st.integers(0, 300))
    product, square = mul_schoolbook(ctx, a, b), mul_schoolbook(ctx, a, a)
    assert product == _sympy_mulmod(ctx, a, b) and square == _sympy_mulmod(ctx, a, a)
    assert ctx._mul_coords(a, b) == product and ctx._mul_coords(a, a) == square
    x, y = _element(ctx, a), _element(ctx, b)
    assert (x * y).to_json() == list(product) and (x * x).to_json() == list(square)
    assert (x**e).to_json() == list(_sympy_powmod(ctx, a, e))
    # frobenius(k) is a**(q**(k mod m)), m the degree over GF(q): step
    # sympy's q-th power the shorter way round the orbit
    m = d // ctx.base.degree
    k = data.draw(st.sampled_from((1, 2, -1, -2, m)))
    j = k % m
    frob = x.frobenius(k).to_json()
    steps, start, end = (j, a, frob) if 2 * j <= m else (m - j, frob, a)
    for _ in range(steps):
        start = _sympy_powmod(ctx, start, ctx.q)
    assert list(start) == list(end)
    if any(a):
        inv, _, one = gf_gcdex(_big(a), _big(ctx._mod), p, ZZ)  # inv * a + _ * mod = 1
        assert one == [1] and x.inverse().to_json() == list(_little(ctx, inv))


def _coordinate_sum(ctx, vectors):
    return [sum(cs) % ctx.p for cs in zip(*vectors)] if vectors else [0] * ctx.degree


@pytest.mark.parametrize("name", sorted(LEVELS))
@pytest.mark.parametrize("terms", [1, 16, 300])
@settings(max_examples=3)
@given(data=st.data())
def test_dot_ops_match_the_oracle(name, terms, data):
    # a few drawn products, the rest all-(p-1) squares: every product slot
    # of the sum at its largest
    ctx = LEVELS[name]
    n = data.draw(st.integers(0, min(terms, 4)))
    pairs = [(data.draw(coordinates(ctx)), data.draw(coordinates(ctx))) for _ in range(n)]
    top = (ctx.p - 1,) * ctx.degree
    pairs += [(top, top)] * (terms - n)
    square = mul_schoolbook(ctx, top, top)
    assert square == _sympy_mulmod(ctx, top, top)
    products = [mul_schoolbook(ctx, a, b) for a, b in pairs[:n]] + [square] * (terms - n)
    spread, dot, payload = ctx.dot_ops(terms)
    row = [spread(_element(ctx, a).val) for a, _ in pairs]
    vals = [spread(_element(ctx, b).val) for _, b in pairs]
    nodes = [[(k, k) for k in range(terms)], [(k, k) for k in range(n)]]
    got = [FieldElement(ctx, payload(v)).to_json() for v in dot(row, vals, nodes)]
    assert got == [_coordinate_sum(ctx, products), _coordinate_sum(ctx, products[:n])]


@st.composite
def level_and_pair(draw, levels=LEVELS):
    ctx = levels[draw(st.sampled_from(sorted(levels)))]
    return ctx, draw(coordinates(ctx)), draw(coordinates(ctx))


@SETTINGS
@given(level_and_pair())
def test_kronecker_mul_matches_schoolbook_and_sympy(case):
    ctx, a, b = case
    assert ctx._mul_coords(a, b) == mul_schoolbook(ctx, a, b) == _sympy_mulmod(ctx, a, b)


TUPLE_LEVELS = {name: ctx for name, ctx in LEVELS.items() if not ctx.packed}


@SETTINGS
@given(level_and_pair(TUPLE_LEVELS))
def test_kronecker_add_sub_neg_match_coordinatewise(case):
    ctx, a, b = case
    p = ctx.p
    assert ctx.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
    assert ctx.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
    assert ctx.neg(a) == tuple(-x % p for x in a)
    assert ctx.mul(a, b) == _sympy_mulmod(ctx, a, b)


@SETTINGS
@given(level_and_pair(NO_CODEC))
def test_levels_without_a_codec_multiply_generically(case):
    ctx, a, b = case
    assert ctx._mul_coords == ctx._mul_generic and ctx.mul == ctx._mul_generic
    assert ctx._mul_coords(a, b) == _sympy_mulmod(ctx, a, b)
    x, y = _element(ctx, a), _element(ctx, b)
    assert (x * y).to_json() == list(_sympy_mulmod(ctx, a, b))
    spread, _, payload = ctx.dot_ops(16)  # the plain op: operands are payloads
    assert spread(a) is a and payload(a) is a


@settings(max_examples=150)
@given(st.data())
def test_is_irreducible_matches_sympy_degrees_5_to_12(data):
    p = data.draw(st.sampled_from((2, 3, 5)))
    d = data.draw(st.integers(5, 12))
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d)) + [1]
    assert _is_irreducible(make_field(p), f) == gf_irreducible_p(f[::-1], p, ZZ), (p, f)


@pytest.mark.parametrize("p", [17, 131])
def test_is_irreducible_matches_sympy_past_the_byte_bound(p):
    # over GF(17) the codec folds in two-byte slots; GF(131) has no codec
    # and the generic powering runs
    F = make_field(p)
    for d in (2, 3):
        assert (_slots(p, [1] * (d + 1), 1) is None) == (p == 131)
        for low in itertools.islice(itertools.product(range(p), repeat=d), 1000):
            f = list(low)[::-1] + [1]
            assert _is_irreducible(F, f) == gf_irreducible_p(f[::-1], p, ZZ), f


def test_found_modulus_is_the_first_irreducible_in_counting_order():
    for p, d in ((2, 8), (2, 12), (3, 6), (3, 8), (5, 4), (5, 6)):
        for n in itertools.count():
            f = [n // p**i % p for i in range(d)] + [1]
            if gf_irreducible_p(f[::-1], p, ZZ):
                break
        assert list(_find_irreducible(make_field(p), d)) == f, (p, d)


# degrees of make_field(p, d) on both sides of the old byte bound
PINNED_DEGREES = {
    2: [*range(2, 17), 28, 31, 64],
    3: [*range(2, 9), 40, 63, 64, 65],
    5: [*range(2, 7), 15, 16, 17],
    7: [*range(2, 9)],
    11: [*range(2, 6)],
    13: [*range(2, 6)],
}


def test_searched_moduli_are_pinned():
    # one digest of the descriptors, as the search found them when its
    # Frobenius map ran on one-byte Kronecker products inside the byte
    # bound and on the generic powering beyond it
    descs = [make_field(p, d).descriptor() for p, ds in PINNED_DEGREES.items() for d in ds]
    descs += [extend(make_field(p, 2), m).descriptor() for p in (2, 3) for m in range(1, 9)]
    assert len(descs) == 68
    assert hashlib.sha256(json.dumps(descs).encode()).hexdigest() == (
        "19323c11ee088f228fa0fff7db0a8574a2174d2485934d7e6f5df52be58c5fc6"
    )


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
