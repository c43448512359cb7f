"""The root search and the chain sum against the slow constructions they
replaced, kept here as reference oracles: the exhaustive root scan and
the chain sum as a product of MultiPolys.  Over prime fields the roots
are also checked against sympy's factorization, and the root-oracle
memos against their bound."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_factor

from drinfeld import cli, pairing
from drinfeld.fields import FieldCtx, make_field
from drinfeld.pairing import (
    _MEMO_SIZE,
    chain_sum_over_roots,
    f_chain_sum,
    f_recursive,
    f_root_order_variant,
    f_rootfree,
)
from drinfeld.polynomials import MultiPoly, UniPoly, roots_in_field, splitting_level

FIELDS = [make_field(p, e) for p, e in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2))]
SETTINGS = settings(max_examples=400)


def scan_roots(f, level):
    """Every element of the level in rank order, each divided out as
    often as it is a root."""
    g = f.embed_to(level)
    roots = []
    x_poly = UniPoly.gen(level)
    for x in level.elements():
        if g.degree < 1:
            break
        while g.degree >= 1 and g(x).is_zero():
            roots.append(x)
            g = g // (x_poly - UniPoly.constant(x))
    return roots


def multipoly_chain_sum(level, roots, r):
    """The chain sum with every omitted root's linear factor multiplied
    in as a MultiPoly."""
    n = len(roots)
    acc = MultiPoly.zero(level, r)
    if n == 0:
        return acc
    for mid in itertools.combinations_with_replacement(range(1, n + 1), r - 1):
        chain = (1,) + mid + (n,)
        term = MultiPoly.one(level, r)
        for j in range(1, r + 1):
            lo, hi = chain[j - 1], chain[j]
            var = MultiPoly.variable(level, r, j - 1)
            for i in range(1, n + 1):
                if not lo <= i <= hi:
                    term = term * (var - MultiPoly.constant(level, r, roots[i - 1]))
        acc = acc + term
    return acc


@st.composite
def polynomials(draw):
    """Monic polynomials of degree <= 4: products of small factors
    (repeated ones included), T^n, or inseparable g(T^p)."""
    ctx = draw(st.sampled_from(FIELDS))
    rank = st.integers(0, ctx.order - 1)
    kind = draw(st.sampled_from(("product", "tn", "inseparable")))
    if kind == "tn":
        return UniPoly.gen(ctx) ** draw(st.integers(1, 4))
    if kind == "inseparable" and ctx.p <= 3:
        g = [draw(rank) for _ in range(draw(st.integers(1, 4 // ctx.p)))] + [1]
        spread = [0] * (ctx.p * (len(g) - 1) + 1)
        spread[:: ctx.p] = g
        return UniPoly.from_ranks(ctx, spread)
    f = UniPoly.one(ctx)
    for deg in draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)):
        if f.degree + deg > 4:
            break
        factor = UniPoly.from_ranks(ctx, [draw(rank) for _ in range(deg)] + [1])
        f = f * factor ** draw(st.integers(1, max(1, (4 - f.degree) // deg)))
    return f


@SETTINGS
@given(polynomials())
def test_roots_match_the_scan(f):
    for level in (f.ctx, splitting_level(f)):
        assert roots_in_field(f, level) == scan_roots(f, level), (f, level)


@pytest.mark.parametrize(
    "ctx,ranks",
    [
        (make_field(2), [0, 0, 0, 1]),  # T^3
        (make_field(2), [1, 0, 1]),  # (T + 1)^2, inseparable
        (make_field(2, 2), [2, 0, 0, 0, 1]),  # T^4 + w, inseparable
        (make_field(3), [1, 0, 0, 1]),  # (T + 1)^3, inseparable
        (make_field(3, 2), [0, 2, 0, 0, 1]),  # T (T^3 + 2), repeated roots
    ],
)
def test_roots_of_special_shapes(ctx, ranks):
    f = UniPoly.from_ranks(ctx, ranks)
    level = splitting_level(f)
    roots = roots_in_field(f, level)
    assert roots == scan_roots(f, level)
    assert len(roots) == f.degree


def _sympy_linear_roots(coeffs, p):
    """Roots in GF(p), with multiplicity, from sympy's factorization of
    the little-endian coefficient list."""
    _, factors = gf_factor([int(c) for c in coeffs[::-1]], p, ZZ)
    roots = []
    for g, e in factors:
        if len(g) == 2:  # monic x + c, big-endian
            roots += [int(-g[1] % p)] * e
    return sorted(roots)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 127, 257, 1009])
def test_roots_match_sympy_over_prime_fields(p):
    ctx = make_field(p)
    rng = random.Random(p)
    for _ in range(25):
        roots = [rng.randrange(p) for _ in range(rng.randrange(0, 4))]
        f = UniPoly.one(ctx)
        for c in roots:  # some linear factors, then a random cofactor
            f = f * UniPoly.from_ranks(ctx, [(-c) % p, 1])
        f = f * UniPoly.from_ranks(ctx, [rng.randrange(p) for _ in range(rng.randrange(4))] + [1])
        found = [x.rank() for x in roots_in_field(f, ctx)]
        assert found == _sympy_linear_roots([c.rank() for c in f.coeffs], p), f


@pytest.mark.parametrize(
    "argv",
    [
        # irreducible quadratic: the roots live in GF(1009^2)
        ["fa", "--q", "1009", "--a", "11,0,1", "--r", "2", "--route", "chain"],
        # irreducible cubic; "both" also compares chain with recursive
        ["fa", "--q", "127", "--a", "4,1,0,1", "--r", "2", "--route", "both"],
    ],
)
def test_large_field_oracles_never_enumerate_a_level(argv, capsys, monkeypatch):
    def forbidden(self):
        raise AssertionError("the root search enumerated a level")

    monkeypatch.setattr(FieldCtx, "elements", forbidden)
    assert cli.main(argv) == 0
    oracle = capsys.readouterr().out.splitlines()[0]
    rootfree = argv[: argv.index("--route")]
    assert cli.main(rootfree) == 0
    assert capsys.readouterr().out.splitlines() == [oracle]


@settings(max_examples=60)
@given(st.data())
def test_chain_sum_matches_multipoly_products(data):
    level = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 4))
    r = data.draw(st.integers(1, 4))
    ranks = data.draw(st.lists(st.integers(0, level.order - 1), min_size=n, max_size=n))
    roots = [level.element_of_rank(k) for k in ranks]
    assert chain_sum_over_roots(level, roots, r) == multipoly_chain_sum(level, roots, r)


def test_roots_are_found_once_per_field_and_a(monkeypatch):
    calls = []

    def counting(f, level):
        calls.append(f)
        return roots_in_field(f, level)

    monkeypatch.setattr(pairing, "_ROOTS_CACHE", {})
    monkeypatch.setattr(pairing, "_F_CACHE", {})
    monkeypatch.setattr(pairing, "roots_in_field", counting)
    a = UniPoly.from_ranks(make_field(3), [1, 2, 0, 1])
    reference = f_chain_sum(a, 3)
    f_recursive(a, 3)
    for order in itertools.permutations(range(3)):
        assert f_root_order_variant(a, 3, order) == reference
    assert len(calls) == 1
    level, roots = pairing._sorted_roots(a)
    assert isinstance(roots, tuple) and roots == reference.roots
    assert [x.rank() for x in roots] == sorted(x.rank() for x in roots)


def test_memos_stay_bounded(monkeypatch):
    monkeypatch.setattr(pairing, "_ROOTS_CACHE", {})
    monkeypatch.setattr(pairing, "_F_CACHE", {})
    ctx = make_field(23)
    polys = [UniPoly.from_ranks(ctx, [c, 1]) for c in range(23)]
    polys += [UniPoly.from_ranks(ctx, [c0, c1, 1]) for c0 in range(23) for c1 in range(23)]
    assert len(polys) > _MEMO_SIZE
    one = MultiPoly.one(ctx, 1)
    for a in polys:
        assert f_chain_sum(a, 1).poly == one
        assert len(pairing._ROOTS_CACHE) <= _MEMO_SIZE
        assert len(pairing._F_CACHE) <= _MEMO_SIZE
    assert len(pairing._ROOTS_CACHE) == len(pairing._F_CACHE) == _MEMO_SIZE
    # the oldest entries went first and come back equal when asked again
    first, last = polys[0], polys[-1]
    assert (ctx, first.coeffs) not in pairing._ROOTS_CACHE
    assert (ctx, last.coeffs) in pairing._ROOTS_CACHE
    for a in (first, polys[100], last):
        assert f_chain_sum(a, 2).poly == f_rootfree(a, 2).poly
        level, roots = pairing._sorted_roots(a)
        assert list(roots) == scan_roots(a, level)
    assert len(pairing._ROOTS_CACHE) == len(pairing._F_CACHE) == _MEMO_SIZE
