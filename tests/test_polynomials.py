import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_rem

from drinfeld.errors import ArityMismatch, DivisionByZero, MalformedInput
from drinfeld.fields import _pdistinct_degree, _ppow_mod, extend, make_field
from drinfeld.polynomials import (
    MultiPoly,
    UniPoly,
    all_monic,
    normal_form,
    poly_gcd,
    poly_xgcd,
    roots_in_field,
    splitting_level,
)

F2 = make_field(2)
F3 = make_field(3)


def test_divmod_example():
    f = UniPoly.from_ranks(F3, [1, 0, 1])  # T**2 + 1
    q, r = divmod(f, UniPoly.gen(F3))
    assert q == UniPoly.gen(F3)
    assert r == UniPoly.one(F3)


def test_divmod_contract_random():
    rng = random.Random(0)
    for _ in range(50):
        f = UniPoly.from_ranks(F3, [rng.randrange(3) for _ in range(rng.randrange(6))])
        g = UniPoly.from_ranks(F3, [rng.randrange(3) for _ in range(rng.randrange(1, 4))])
        if g.is_zero():
            continue
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree < g.degree


def test_division_by_zero_poly():
    with pytest.raises(DivisionByZero):
        divmod(UniPoly.one(F3), UniPoly.zero(F3))


def test_gcd_monic_example():
    a = UniPoly.from_ranks(F3, [2, 0, 1])  # T**2 - 1
    b = UniPoly.from_ranks(F3, [2, 1])  # T - 1
    g = poly_gcd(a, b)
    assert g == UniPoly.from_ranks(F3, [2, 1])
    assert g.is_monic()


def test_xgcd_bezout():
    rng = random.Random(1)
    for _ in range(30):
        f = UniPoly.from_ranks(F3, [rng.randrange(3) for _ in range(4)])
        g = UniPoly.from_ranks(F3, [rng.randrange(3) for _ in range(3)])
        if f.is_zero() and g.is_zero():
            continue
        d, u, v = poly_xgcd(f, g)
        assert u * f + v * g == d
        assert d == poly_gcd(f, g) or (f.is_zero() or g.is_zero())


def test_eval_example():
    f = UniPoly.from_ranks(F2, [1, 1, 0, 1])  # T**3 + T + 1
    assert f(F2.zero_element) == F2.one_element


def test_derivative():
    f = UniPoly.from_ranks(F3, [1, 2, 0, 1])  # T**3 + 2T + 1
    assert f.derivative() == UniPoly.from_ranks(F3, [2])  # 3T**2 + 2 = 2
    sq = UniPoly.from_ranks(F2, [0, 0, 1])  # T**2 in char 2
    assert sq.derivative().is_zero()


def test_pow_mod_matches_naive():
    f = UniPoly.gen(F3) + UniPoly.one(F3)
    mod = UniPoly.from_ranks(F3, [1, 0, 1])
    got = _ppow_mod(F3, f._payloads(F3), 13, mod._payloads(F3))
    assert got == ((f**13) % mod)._payloads(F3)


def test_roots_examples():
    f = UniPoly.from_ranks(F2, [1, 1, 0, 1])  # x**3 + x + 1
    assert roots_in_field(f, F2) == []
    F8 = extend(F2, 3)
    roots = roots_in_field(f, F8)
    assert len(roots) == 3 and len(set(roots)) == 3
    # independent oracle: exhaustive scan of GF(8)
    expected = [x for x in F8.elements() if f(x).is_zero()]
    assert sorted(r.rank() for r in roots) == sorted(x.rank() for x in expected)


def test_roots_with_multiplicity():
    x = UniPoly.gen(F3)
    f = (x - UniPoly.one(F3)) ** 2 * x
    roots = roots_in_field(f, F3)
    assert sorted(r.rank() for r in roots) == [0, 1, 1]


def test_roots_of_constant():
    assert roots_in_field(UniPoly.one(F3), F3) == []


def test_roots_example_f3():
    f = UniPoly.from_ranks(F3, [2, 0, 1])  # x**2 - 1
    assert sorted(r.rank() for r in roots_in_field(f, F3)) == [1, 2]


@pytest.mark.parametrize(
    "coeffs,expected_dim",
    [
        ([0, 1], 1),  # T
        ([1, 1, 1], 2),  # irreducible quadratic
        ([0, 1, 1, 1], 2),  # T * (T**2 + T + 1): lcm(1, 2)
        ([1, 1, 0, 1], 3),  # irreducible cubic
        ([0, 0, 1], 1),  # T**2, repeated root
    ],
)
def test_splitting_level_degrees(coeffs, expected_dim):
    f = UniPoly.from_ranks(F2, coeffs)
    level = splitting_level(f)
    assert level.dim_over_prime == expected_dim


def peeled_splitting_degree(f):
    """Splitting-field degree of f over its level by squarefree peeling,
    an independent oracle: the factors of g whose exponent is prime to
    p make up w = g // gcd(g, g'), whose distinct degrees are collected
    before every power of them is divided out of g; a g with g' = 0 is
    a polynomial in T**p and gives way to its p-th root."""
    ctx = f.ctx
    g, degrees = f.monic(), []
    while g.degree > 0:
        d = g.derivative()
        if d.is_zero():
            g = UniPoly(ctx, [c ** (ctx.order // ctx.p) for c in g.coeffs[:: ctx.p]])
            continue
        w = g // poly_gcd(g, d)
        degrees.extend(i for i, _ in _pdistinct_degree(ctx, w._payloads(ctx)))
        while (c := poly_gcd(g, w)).degree > 0:
            g = g // c
    return math.lcm(*degrees)


@settings(max_examples=60)
@given(st.sampled_from((make_field(2, 2), make_field(3, 2))), st.data())
def test_splitting_level_over_gf4_gf9_matches_peeling(ctx, data):
    # products of small monic factors raised to 1, 2, p or p + 1: squares,
    # p-th powers and polynomials in T**p all occur
    f = UniPoly.one(ctx)
    for _ in range(data.draw(st.integers(1, 3))):
        low = data.draw(st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=3))
        e = data.draw(st.sampled_from((1, 2, ctx.p, ctx.p + 1)))
        f = f * UniPoly.from_ranks(ctx, low + [1]) ** e
    level = splitting_level(f)
    assert level.order == ctx.order ** peeled_splitting_degree(f)
    assert (level is ctx) == (level.order == ctx.order)


def test_splitting_level_yields_all_roots():
    for ctx in (F2, F3):
        for d in (1, 2, 3):
            for a in all_monic(ctx, d):
                level = splitting_level(a)
                roots = roots_in_field(a, level)
                assert len(roots) == a.degree
                # reconstruct a from its roots
                acc = UniPoly.one(level)
                x = UniPoly.gen(level)
                for r in roots:
                    acc = acc * (x - UniPoly.constant(r))
                assert acc == a.embed_to(level)


def test_multipoly_product_example():
    t1 = MultiPoly.variable(F3, 2, 0)
    t2 = MultiPoly.variable(F3, 2, 1)
    prod = (t1 + t2) * (t1 - t2)
    assert prod.terms == {(2, 0): F3.one_element, (0, 2): F3.element_of_rank(2)}


def test_multipoly_scale_and_cancel():
    t1 = MultiPoly.variable(F3, 2, 0)
    assert t1.scale(F3.zero_element).is_zero()
    assert (t1 - t1).is_zero()


def test_multipoly_arity_mismatch():
    with pytest.raises(ArityMismatch):
        MultiPoly.variable(F3, 2, 0) + MultiPoly.variable(F3, 3, 0)


def test_permute_examples_and_group_action():
    p = MultiPoly(F2, 2, {(2, 1): F2.one_element})
    assert p.permute((1, 0)).terms == {(1, 2): F2.one_element}
    assert p.permute((0, 1)) == p
    rng = random.Random(2)
    q = MultiPoly(
        F3,
        3,
        {
            (2, 1, 0): F3.element_of_rank(2),
            (0, 0, 1): F3.one_element,
            (1, 1, 1): F3.element_of_rank(1),
        },
    )
    perms = list(itertools.permutations(range(3)))
    for _ in range(20):
        sigma = rng.choice(perms)
        rho = rng.choice(perms)
        composed = tuple(rho[sigma[j]] for j in range(3))
        assert q.permute(sigma).permute(rho) == q.permute(composed)


def test_normal_form_examples():
    a = UniPoly.from_ranks(F2, [0, 0, 1])  # a = T**2
    p = MultiPoly(F2, 2, {(2, 1): F2.one_element})  # T1**2 T2
    assert normal_form(p, a).is_zero()
    small = MultiPoly(F2, 2, {(1, 1): F2.one_element, (0, 0): F2.one_element})
    assert normal_form(small, a) == small  # already reduced


def test_normal_form_degree_and_idempotence():
    rng = random.Random(3)
    a = UniPoly.from_ranks(F3, [1, 2, 1])
    for _ in range(20):
        terms = {}
        for _ in range(5):
            key = (rng.randrange(5), rng.randrange(5))
            terms[key] = F3.element_of_rank(rng.randrange(3))
        p = MultiPoly(F3, 2, terms)
        nf = normal_form(p, a)
        for j in range(2):
            assert nf.degree_in(j) < a.degree
        assert normal_form(nf, a) == nf


@settings(max_examples=200)
@given(st.data())
def test_normal_form_is_the_slotwise_remainder_of_gf_rem(data):
    # each T_j^e goes to sympy's T^e mod a, for a non-monic a of degree 1-3
    # over GF(2), GF(3) or GF(5), and the slots multiply out
    p = data.draw(st.sampled_from((2, 3, 5)))
    n, r = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    a_ranks = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    a_ranks.append(data.draw(st.integers(1, p - 1)))
    exps = st.tuples(*[st.integers(0, 2 * n + 1)] * r)
    terms = data.draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=6))
    expected = {}
    for key, c in terms.items():
        # little-endian T^e mod a, padded to n coefficients
        rems = [gf_rem([1] + [0] * e, a_ranks[::-1], p, ZZ)[::-1] for e in key]
        for pick in itertools.product(*(enumerate(rem) for rem in rems)):
            k = tuple(i for i, _ in pick)
            expected[k] = (expected.get(k, 0) + c * math.prod(int(x) for _, x in pick)) % p
    ctx = make_field(p)
    poly = MultiPoly(ctx, r, {k: ctx.element_of_rank(c) for k, c in terms.items()})
    got = normal_form(poly, UniPoly.from_ranks(ctx, a_ranks))
    assert {k: c.rank() for k, c in got.terms.items()} == {k: v for k, v in expected.items() if v}


def test_normal_form_needs_a_nonconstant_a():
    p = MultiPoly(F2, 2, {(1, 1): F2.one_element})
    for a in (UniPoly.one(F2), UniPoly.zero(F2)):
        with pytest.raises(ValueError):
            normal_form(p, a)


def test_normal_form_kills_ideal_members():
    # p + sum h_j * a(T_j) reduces to the same normal form as p
    rng = random.Random(4)
    for ctx in (F2, F3):
        a = all_monic(ctx, 2)[rng.randrange(ctx.order**2)]
        gens = []
        for j in range(2):
            gens.append(
                MultiPoly(
                    ctx, 2, {tuple(e if i == j else 0 for i in range(2)): c
                             for e, c in enumerate(a.coeffs) if not c.is_zero()}
                )
            )
        for _ in range(20):
            terms = {
                (rng.randrange(3), rng.randrange(3)): ctx.element_of_rank(
                    rng.randrange(ctx.order)
                )
                for _ in range(4)
            }
            p = MultiPoly(ctx, 2, terms)
            spiked = p
            for g in gens:
                h = MultiPoly(
                    ctx,
                    2,
                    {
                        (rng.randrange(2), rng.randrange(2)): ctx.element_of_rank(
                            rng.randrange(ctx.order)
                        )
                    },
                )
                spiked = spiked + h * g
            assert normal_form(spiked, a) == normal_form(p, a)


def test_unipoly_json_roundtrip():
    f = UniPoly.from_ranks(F3, [1, 2, 0, 1])
    assert UniPoly.from_json(f.to_json()) == f


def test_multipoly_json_roundtrip_and_order():
    p = MultiPoly(
        F3, 2, {(0, 0): F3.one_element, (1, 0): F3.element_of_rank(2),
                (0, 2): F3.one_element}
    )
    obj = p.to_json()
    # canonical: graded lex with T1 > T2, largest first
    assert [tuple(t["exps"]) for t in obj["terms"]] == [(0, 2), (1, 0), (0, 0)]
    assert MultiPoly.from_json(obj) == p


def test_render():
    p = MultiPoly(
        F2, 2, {(1, 0): F2.one_element, (0, 1): F2.one_element,
                (0, 0): F2.one_element}
    )
    assert p.render() == "T1 + T2 + 1"
    assert UniPoly.from_ranks(F3, [1, 0, 2]).render() == "2*T^2 + 1"


@pytest.mark.parametrize("ranks", [[1.7, True], [1, True], [1.0, 1], ["1", 1]])
def test_from_ranks_never_coerces(ranks):
    with pytest.raises(MalformedInput):
        UniPoly.from_ranks(F2, ranks)
    assert UniPoly.from_ranks(F2, [1, 1]) == UniPoly.gen(F2) + UniPoly.one(F2)


@pytest.mark.parametrize(
    "exps", [(1.5, True), (True, 1), (-1, 0), (0, -2), ("1", 0), (1.0, 0)]
)
def test_sparse_exponents_are_never_coerced(exps):
    from drinfeld.pairing import QPowerPoly

    one = F2.one_element
    for cls in (MultiPoly, QPowerPoly):
        with pytest.raises(MalformedInput):
            cls(F2, 2, {exps: one})
    with pytest.raises(MalformedInput):
        MultiPoly.from_json({"vars": 2, "level": F2.descriptor(),
                             "terms": [{"exps": list(exps), "coeff": 1}]})
    with pytest.raises(MalformedInput):
        QPowerPoly.from_json({"vars": 2, "level": F2.descriptor(),
                              "terms": [{"frob_exps": list(exps), "coeff": 1}]})


@pytest.mark.parametrize("nvars", [2.9, True, -1, "2"])
def test_sparse_arity_is_never_coerced(nvars):
    from drinfeld.pairing import QPowerPoly

    for cls in (MultiPoly, QPowerPoly):
        with pytest.raises(MalformedInput):
            cls(F2, nvars, {})
        with pytest.raises(MalformedInput):
            cls.from_json({"vars": nvars, "level": F2.descriptor(), "terms": []})
    with pytest.raises(MalformedInput):
        MultiPoly.from_json({"vars": nvars, "level": F2.descriptor(),
                             "terms": [{"exps": [1, 0], "coeff": 1}]})


@pytest.mark.parametrize(
    "terms",
    [
        [{"E": [1], "coeff": 1}, {"E": [1], "coeff": 1}],  # the sum would be 0
        5,
        [{"E": 5, "coeff": 1}],
        [5],
        [{"coeff": 1}],
        [{"E": [[1]], "coeff": 1}],
    ],
)
def test_sparse_from_json_rejects_repeats_and_non_lists(terms):
    from drinfeld.pairing import QPowerPoly

    for cls in (MultiPoly, QPowerPoly):
        # "E" stands for the class's exponent key
        obj = {"vars": 1, "level": F2.descriptor(), "terms": terms}
        blob = json.dumps(obj).replace('"E"', f'"{cls._json_key}"')
        with pytest.raises(MalformedInput):
            cls.from_json(json.loads(blob))


@pytest.mark.parametrize(
    "obj",
    [
        {"level": F2.descriptor()},  # no "coeffs"
        {"coeffs": [1]},  # no "level"
        {"coeffs": 1, "level": F2.descriptor()},
        {"coeffs": [1], "level": {"e": 1, "tower": []}},  # no "p"
        [1, 1],
        None,
    ],
)
def test_unipoly_from_json_is_strict(obj):
    with pytest.raises(MalformedInput):
        UniPoly.from_json(obj)


@pytest.mark.parametrize(
    "obj",
    [
        {"level": F2.descriptor(), "terms": []},  # no "vars"
        {"vars": 1, "level": F2.descriptor()},  # no "terms"
        {"vars": 1, "level": F2.descriptor(), "terms": [{"E": [1]}]},  # a term without "coeff"
        {"vars": 1, "terms": []},  # no "level"
        [{"E": [1], "coeff": 1}],
        "T1",
    ],
)
def test_sparse_from_json_is_strict(obj):
    from drinfeld.pairing import QPowerPoly

    for cls in (MultiPoly, QPowerPoly):
        # "E" stands for the class's exponent key
        blob = json.dumps(obj).replace('"E"', f'"{cls._json_key}"')
        with pytest.raises(MalformedInput):
            cls.from_json(json.loads(blob))


def grlex_key(exps):
    # the former sort key: graded lexicographic with T_1 > T_2 > ...,
    # negated for an ascending sort
    return (-sum(exps),) + tuple(-e for e in exps)


@settings(max_examples=80)
@given(st.integers(1, 5).flatmap(
    lambda r: st.sets(st.tuples(*[st.integers(0, 4)] * r), min_size=1, max_size=40)
))
def test_sorted_terms_is_graded_lex_descending(exponents):
    r = len(next(iter(exponents)))
    p = MultiPoly(F3, r, {e: F3.element_of_rank(1 + sum(e) % 2) for e in exponents})
    expected = sorted(p.terms.items(), key=lambda item: grlex_key(item[0]))
    assert p.sorted_terms() == expected
    assert [t["exps"] for t in p.to_json()["terms"]] == [list(e) for e, _ in expected]
