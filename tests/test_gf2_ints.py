"""GF(2)[x] on ints (``fields._gf2_*``): division, gcd, extended gcd and
the irreducibility test over GF(2) against sympy's galoistools at degrees
up to 600, zero operands included; the inverse on levels directly over
GF(2) against ``gf_gcdex``; and the moduli the search finds at degrees
126, 255, 256 and 511, pinned by one digest."""

import hashlib
import json
import random

import pytest
from conftest import binary_level
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import (
    gf_div,
    gf_gcd,
    gf_gcdex,
    gf_irred_p_ben_or,
    gf_irreducible_p,
    gf_strip,
)

from drinfeld.errors import DivisionByZero
from drinfeld.fields import _is_irreducible, _pdivmod, _pgcd, _pxgcd, make_field

F2 = make_field(2)


def _big(n):
    """An int's bits as sympy's big-endian coefficient list."""
    return gf_strip([int(c) for c in format(n, "b")])


def _little(n, pad=0):
    """An int's bits little-endian, with `pad` zeros above the top."""
    return [int(c) for c in reversed(format(n, "b"))] + [0] * pad if n else [0] * pad


def _clmul(a, b):
    out = 0
    while b:
        if b & 1:
            out ^= a
        a, b = a << 1, b >> 1
    return out


@st.composite
def gf2_polys(draw, max_degree=600):
    """An int of degree up to `max_degree`, or zero; small degrees often."""
    degree = draw(st.one_of(st.integers(-1, 12), st.integers(-1, max_degree)))
    if degree < 0:
        return 0
    low = random.Random(draw(st.integers(0, 2**32))).getrandbits(degree)
    return 1 << degree | low


@settings(max_examples=60)
@given(st.data())
def test_division_and_gcds_match_sympy(data):
    common = data.draw(gf2_polys(200))  # a shared factor, so gcds reach past 1
    f, g = (_clmul(data.draw(gf2_polys(400)), common) for _ in range(2))
    pads = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
    F, G = _little(f, pads[0]), _little(g, pads[1])
    if g:
        q, r = gf_div(_big(f), _big(g), 2, ZZ)
        assert _pdivmod(F2, F, G) == (q[::-1], r[::-1])
    else:
        with pytest.raises(DivisionByZero):
            _pdivmod(F2, F, G)
    assert _pgcd(F2, F, G) == gf_gcd(_big(f), _big(g), 2, ZZ)[::-1]
    s, t, h = gf_gcdex(_big(f), _big(g), 2, ZZ)  # s*f + t*g = h
    assert _pxgcd(F2, F, G) == (h[::-1], s[::-1], t[::-1])


def _next_irreducible(f):
    """The first irreducible from f on, in counting order, by sympy."""
    while not gf_irreducible_p(_big(f), 2, ZZ):
        f += 1
    return f


@settings(max_examples=60)
@given(st.data())
def test_irreducibility_matches_sympy(data):
    f = data.draw(gf2_polys())
    f += 2 if f < 2 else 0  # a degree of at least 1; every nonzero int is monic
    shape = data.draw(st.sampled_from(("any", "irreducible", "two factors")))
    if shape == "irreducible" and f.bit_length() <= 65:
        f = _next_irreducible(f)
    elif shape == "two factors":
        # no factor below the smaller one's degree: the loop runs that far
        low, high = f & 2**40 - 1, f >> 40 & 2**40 - 1
        f = _clmul(_next_irreducible(low | 2), _next_irreducible(high | 2))
    # sympy's default Rabin test takes seconds past degree 200; its Ben-Or
    # test is the other criterion it ships
    criterion = gf_irreducible_p if f.bit_length() <= 201 else gf_irred_p_ben_or
    assert _is_irreducible(F2, _little(f)) == criterion(_big(f), 2, ZZ), f


@pytest.mark.parametrize("ctx", [make_field(2, 17), make_field(2, 31), binary_level(255)],
                         ids=repr)
def test_binary_inverse_matches_sympy_gcdex(ctx):
    mod = [int(c) for c in reversed(ctx._mod)]
    rng = random.Random(ctx.degree)
    top = ctx.order - 1
    edges = [1, 2, 3, top, top - 1, 1 << ctx.degree - 1]
    for a in edges + [rng.randrange(1, top) for _ in range(12)]:
        s, _, one = gf_gcdex(_big(a), mod, 2, ZZ)  # s*a + _*mod = 1
        assert one == [1] and _big(ctx.inv(a)) == s, a
    with pytest.raises(DivisionByZero):
        ctx.inv(0)


def test_searched_binary_moduli_are_pinned():
    # one digest of the descriptors the counting-order search found when
    # its gcds ran on coefficient lists
    descs = [make_field(2, d).descriptor() for d in (126, 255, 256, 511)]
    assert hashlib.sha256(json.dumps(descs).encode()).hexdigest() == (
        "1cac3b37e06cb88e36827665307c8594ff62bc265bb349f42c739dce4e07aa95"
    )
