import itertools
import math
import random
from collections import Counter

import pytest
from conftest import flat_evaluate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drinfeld.core import DrinfeldModule, torsion
from drinfeld.errors import (
    ArityMismatch,
    InseparableTorsion,
    LevelMismatch,
    NonMonic,
    NotTorsionPoint,
)
from drinfeld.fields import extend, make_field
from drinfeld.pairing import (
    PairingEvaluator,
    QPowerPoly,
    f_chain_sum,
    f_recursive,
    f_root_order_variant,
    f_rootfree,
    moore_eval,
    moore_poly,
    weil_evaluate,
    weil_polynomial,
)
from drinfeld.polynomials import MultiPoly, UniPoly, all_monic, normal_form

F2 = make_field(2)
F3 = make_field(3)
T2 = UniPoly.gen(F2)
T3 = UniPoly.gen(F3)


def rank2_f2():
    return DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.one_element))


# -- the symmetric coefficient family ---------------------------------------


def test_f_constant_cases():
    assert f_chain_sum(T2, 1).poly == MultiPoly.one(F2, 1)
    assert f_chain_sum(T2, 5).poly == MultiPoly.one(F2, 5)
    a = UniPoly.from_ranks(F2, [1, 1])  # degree 1
    assert f_chain_sum(a, 3).poly == MultiPoly.one(F2, 3)


def test_f_tsquared_rank2():
    fa = f_chain_sum(T2 * T2, 2)
    assert fa.poly == MultiPoly(
        F2, 2, {(1, 0): F2.one_element, (0, 1): F2.one_element}
    )


def test_f_example_quadratic():
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    fa = f_chain_sum(a, 2)
    assert fa.render() == "T1 + T2 + 1"


def test_f_tn_closed_form():
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for base in (F2, F3):
            a = UniPoly.gen(base) ** n
            fa = f_chain_sum(a, r).poly
            expected = {}
            for exps in itertools.product(range(n), repeat=r):
                if sum(exps) == (r - 1) * (n - 1):
                    expected[exps] = base.one_element
            assert fa.terms == expected


def test_f_rank2_coefficient_formula():
    # f_a(T1,T2) = sum_i a_i sum_{j<=i} T1**(j-1) T2**(i-j)
    for base in (F2, F3):
        for d in (1, 2, 3):
            for a in all_monic(base, d):
                fa = f_chain_sum(a, 2).poly
                expected = {}
                for i in range(1, d + 1):
                    if a[i].is_zero():
                        continue
                    for j in range(1, i + 1):
                        expected[(j - 1, i - j)] = a[i]
                assert fa.terms == expected


def test_f_degree2_recursion_family():
    # coefficients follow g(1)=1, g(2)=a1, g(s+2)=a1 g(s+1) - a0 g(s)
    a = UniPoly.from_ranks(F3, [2, 1, 1])  # a0=2, a1=1
    a0, a1 = a[0], a[1]
    g_seq = [None, F3.one_element, a1]
    for _ in range(3, 6):
        g_seq.append(a1 * g_seq[-1] - a0 * g_seq[-2])
    for r in (2, 3, 4):
        fa = f_chain_sum(a, r).poly
        expected = {}
        for s in range(1, r + 1):
            for exps in itertools.product(range(2), repeat=r):
                if sum(exps) == r - s:
                    expected[exps] = g_seq[s]
        expected = {k: v for k, v in expected.items() if not v.is_zero()}
        assert fa.terms == expected


def test_f_n3_r3_table():
    # frozen coefficient table for cubic a in three variables
    for base in (F2, F3):
        for a in all_monic(base, 3):
            a0, a1, a2 = a[0], a[1], a[2]
            one = base.one_element
            orbits = {
                (2, 2, 0): one,
                (2, 1, 1): one,
                (2, 1, 0): a2,
                (1, 1, 1): (one + one) * a2,
                (2, 0, 0): a1,
                (1, 1, 0): a2 * a2,
                (1, 0, 0): a1 * a2 - a0,
                (0, 0, 0): a1 * a1 - a0 * a2,
            }
            expected = {}
            for pattern, coeff in orbits.items():
                if coeff.is_zero():
                    continue
                for exps in set(itertools.permutations(pattern)):
                    expected[exps] = coeff
            assert f_chain_sum(a, 3).poly.terms == expected


def test_f_dual_construction_grid():
    for base in (F2, F3):
        for d in (1, 2, 3):
            for a in all_monic(base, d):
                for r in (1, 2, 3):
                    assert f_chain_sum(a, r) == f_recursive(a, r)


FIELDS = {2: F2, 3: F3, 4: make_field(2, 2), 5: make_field(5), 7: make_field(7),
          9: make_field(3, 2)}


@st.composite
def monic_operators(draw, qs=tuple(sorted(FIELDS)), max_degree=3):
    """Monic a of degree <= max_degree over GF(q), q in qs: random
    coefficients, T**n, or a product of linear factors with a repeated
    root (inseparable a included)."""
    q = draw(st.sampled_from(qs))
    base = FIELDS[q]
    rank = st.integers(0, q - 1)
    kind = draw(st.sampled_from(("random", "power", "repeated")))
    if kind == "random":
        n = draw(st.integers(1, max_degree))
        return UniPoly.from_ranks(base, [draw(rank) for _ in range(n)] + [1])
    if kind == "power":
        return UniPoly.gen(base) ** draw(st.integers(1, max_degree))
    t = UniPoly.gen(base)
    root = UniPoly.constant(base.element_of_rank(draw(rank)))
    a = (t - root) ** draw(st.integers(2, max_degree))
    if a.degree < max_degree and draw(st.booleans()):
        a = a * (t - UniPoly.constant(base.element_of_rank(draw(rank))))
    return a


@settings(max_examples=40)
@given(a=monic_operators(), r=st.integers(1, 4))
def test_f_rootfree_matches_both_oracles(a, r):
    rootfree = f_rootfree(a, r)
    assert rootfree.route == "rootfree" and rootfree.roots == ()
    assert rootfree.poly == f_chain_sum(a, r).poly == f_recursive(a, r).poly


def normal_form_product(a, r):
    """Oracle of the site expansion: NF_I of the product of the r-1
    difference quotients Delta_a(T_j, T_{j+1}), built from MultiPoly and
    normal_form and reduced modulo I after each factor."""
    poly = MultiPoly.one(a.ctx, r)
    for j in range(r - 1):
        quotient = {}
        for i in range(1, a.degree + 1):
            for k in range(i):
                exps = [0] * r
                exps[j], exps[j + 1] = k, i - 1 - k
                quotient[tuple(exps)] = a[i]
        poly = normal_form(poly * MultiPoly(a.ctx, r, quotient), a)
    return poly


@settings(max_examples=60)
@given(a=monic_operators(qs=(2, 3, 4, 5), max_degree=4), r=st.integers(1, 6))
@example(a=T2 * T2, r=6)
@example(a=(T3 - UniPoly.one(F3)) ** 3, r=5)
def test_f_rootfree_site_expansion_matches_oracles(a, r):
    """The site expansion equals the chain sum and the normal-form
    product, inseparable a (T^2 over GF(2), (T-1)^3 over GF(3)) included."""
    poly = f_rootfree(a, r).poly
    assert poly == normal_form_product(a, r) == f_chain_sum(a, r).poly


def test_f_rootfree_term_count_pinned():
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    assert len(f_rootfree(a, 12).poly.terms) == 2730


def test_f_recursion_peel_example():
    # a = T**2, r = 2: the peel step gives T2 * 1 + T1 * 1
    fa = f_recursive(T2 * T2, 2)
    assert fa.poly.terms == {(1, 0): F2.one_element, (0, 1): F2.one_element}
    assert fa.route == "recursive"


def test_f_root_order_variants():
    a = T2 * UniPoly.from_ranks(F2, [1, 1]) * UniPoly.from_ranks(F2, [1, 1, 1])
    # degree 4: roots 0, 1, and the two elements of GF(4) \ GF(2)
    reference = f_chain_sum(a, 2)
    rng = random.Random(0)
    orders = list(itertools.permutations(range(4)))
    for order in [orders[0], orders[-1]] + [rng.choice(orders) for _ in range(10)]:
        assert f_root_order_variant(a, 2, order) == reference


def test_f_rejects_nonmonic():
    with pytest.raises(NonMonic):
        f_chain_sum(UniPoly.from_ranks(F3, [0, 2]), 2)


F_ROUTES = {
    "rootfree": f_rootfree,
    "chain": f_chain_sum,
    "recursive": f_recursive,
    "root_order": lambda a, r: f_root_order_variant(a, r, (1, 0)),
}


@pytest.mark.parametrize("r", [True, False, 2.0, "2", 0, -1])
@pytest.mark.parametrize("route", sorted(F_ROUTES))
def test_f_routes_reject_an_arity_that_is_not_a_positive_int(route, r):
    # f_chain_sum(a, True) used to be memoized under r = 1, so a later
    # f_chain_sum(a, 1) reported "r": true; f_rootfree(a, 2.0) died with TypeError
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    with pytest.raises(ArityMismatch):
        F_ROUTES[route](a, r)
    provenance = f_chain_sum(a, 1).to_json()["provenance"]
    assert provenance["r"] == 1 and type(provenance["r"]) is int


@pytest.mark.parametrize(
    "ranks, error, needle",
    [([1, 1], InseparableTorsion, "a(1) = 0: a is divisible by the A-characteristic "
      "generated by T + 1"), ([1], NonMonic, "need deg(a) >= 1")],
    ids=["inseparable", "constant"],
)
def test_torsion_and_pairing_reject_an_operator_alike(ranks, error, needle):
    # the pairing's guard used to word both errors differently from torsion's
    phi, a = rank2_f2(), UniPoly.from_ranks(F2, ranks)
    with pytest.raises(error) as by_torsion:
        torsion(phi, a)
    with pytest.raises(error) as by_pairing:
        weil_evaluate(phi, a, [F2.one_element, F2.one_element])
    assert str(by_pairing.value) == str(by_torsion.value) == needle


def test_weil_polynomial_rejects_an_a_above_the_base_field():
    # over GF(4) above GF(2), a = T + x is monic but not in GF(2)[T]
    K = extend(F2, 2)
    phi = DrinfeldModule(K, K.element_of_rank(2), (K.one_element, K.one_element))
    a = UniPoly.from_ranks(K, [2, 1])
    with pytest.raises(LevelMismatch):
        weil_polynomial(phi, a)
    with pytest.raises(LevelMismatch):
        PairingEvaluator(phi, a, K)


def test_fa_json_carries_provenance():
    fa = f_chain_sum(UniPoly.from_ranks(F2, [1, 1, 1]), 2)
    obj = fa.to_json()
    assert obj["provenance"]["route"] == "chain"
    assert obj["provenance"]["r"] == 2
    assert MultiPoly.from_json(obj) == fa.poly


# -- Moore determinants ------------------------------------------------------


def test_moore_rank1():
    assert moore_poly(1, F2).terms == {(0,): F2.one_element}


def test_moore_poly_term_count_and_eval_agreement():
    F9 = extend(F3, 2)
    for r in (1, 2, 3):
        mp = moore_poly(r, F3)
        assert len(mp.terms) == [1, 2, 6][r - 1]
        rng = random.Random(r)
        for _ in range(10):
            pts = [F9.element_of_rank(rng.randrange(9)) for _ in range(r)]
            assert flat_evaluate(mp, pts) == moore_eval(pts)


def test_moore_eval_rank2_oracle():
    F9 = extend(F3, 2)
    for b1 in F9.elements():
        for b2 in F9.elements():
            assert moore_eval([b1, b2]) == b1 * b2**3 - b2 * b1**3


def test_moore_repeated_arguments_vanish():
    F8 = extend(F2, 3)
    for x in F8.elements():
        for y in F8.elements():
            assert moore_eval([x, y, x]).is_zero()


# -- the pairing -------------------------------------------------------------


def test_weil_polynomial_for_t_is_moore():
    phi = rank2_f2()
    assert weil_polynomial(phi, T2) == moore_poly(2, F2)
    phi3 = DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.zero_element,
                                               F2.one_element))
    assert weil_polynomial(phi3, T2) == moore_poly(3, F2)


def test_weil_polynomial_rank2_double_sum_oracle():
    # independent route: the explicit rank-2 double sum
    # sum_i a_i sum_{j<=i} MooreDet(phi_{T^(j-1)}(b1), phi_{T^(i-j)}(b2))
    phi = rank2_f2()
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    tm = torsion(phi, a)
    for b1, b2 in itertools.product(tm.points(), repeat=2):
        expected = tm.level.zero_element
        for i in range(1, a.degree + 1):
            if a[i].is_zero():
                continue
            inner = tm.level.zero_element
            for j in range(1, i + 1):
                inner = inner + moore_eval(
                    [phi.phi_tpow(j - 1)(b1), phi.phi_tpow(i - j)(b2)]
                )
            expected = expected + a[i].embed_to(tm.level) * inner
        assert weil_evaluate(phi, a, [b1, b2]) == expected


def test_weil_f8_example():
    phi = rank2_f2()
    tm = torsion(phi, T2)
    beta = next(p for p in tm.points() if not p.is_zero())
    val = weil_evaluate(phi, T2, [beta, beta.frobenius(1)])
    assert val == tm.level.one_element
    # oracle by hand: beta * beta**4 + beta**2 * beta**2
    assert val == beta * beta**4 + beta**2 * beta**2


def test_weil_zero_and_repeated_slots():
    phi = rank2_f2()
    tm = torsion(phi, T2)
    beta = next(p for p in tm.points() if not p.is_zero())
    assert weil_evaluate(phi, T2, [tm.level.zero_element, beta]).is_zero()
    assert weil_evaluate(phi, T2, [beta, beta]).is_zero()


def test_weil_rejects_outsiders():
    phi = rank2_f2()
    tm = torsion(phi, T2)
    outsider = next(
        x for x in tm.level.elements() if not phi.phi(T2)(x).is_zero()
    )
    beta = next(p for p in tm.points() if not p.is_zero())
    with pytest.raises(NotTorsionPoint):
        weil_evaluate(phi, T2, [outsider, beta])


def test_weil_rejects_characteristic_divisor():
    phi = rank2_f2()
    a = UniPoly.from_ranks(F2, [1, 1])  # vanishes at theta = 1
    with pytest.raises(InseparableTorsion):
        weil_evaluate(phi, a, [F2.zero_element, F2.zero_element])


def test_weil_values_live_in_det_module_torsion():
    phi = rank2_f2()
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    tm = torsion(phi, a)
    psi_a = phi.det_module().phi(a)
    for tup in itertools.product(tm.points(), repeat=2):
        assert psi_a(weil_evaluate(phi, a, list(tup))).is_zero()


def test_weil_polynomial_degree_bound_example():
    # q=2, r=2, a = T**2+T+1: degree bound q**3 and leading split with c = 1
    phi = rank2_f2()
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    w = weil_polynomial(phi, a)
    assert w.max_frob_exp(0) <= 3 and w.max_frob_exp(1) <= 3  # degree q**3 = 8
    top = w.top_slice(1, 3)
    lower = weil_polynomial(phi, a, arity=1)
    assert lower.terms == {(0,): F2.one_element}  # the identity map x1
    assert top == lower  # c = g_2**(n-1) = 1
    # everything else has strictly smaller exponent in x2
    for key in w.terms:
        assert key[1] <= 3


def test_pairing_evaluator_matches_direct():
    phi = rank2_f2()
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    tm = torsion(phi, a)
    ev = PairingEvaluator(phi, a, tm.level)
    rng = random.Random(5)
    pts = tm.points()
    for _ in range(40):
        tup = [rng.choice(pts), rng.choice(pts)]
        assert ev(tup) == weil_evaluate(phi, a, tup)


def test_qpower_multilinearity():
    phi = rank2_f2()
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    tm = torsion(phi, a)
    w = PairingEvaluator(phi, a, tm.level)
    pts = tm.points()
    rng = random.Random(6)
    for _ in range(20):
        x, y, z = (rng.choice(pts) for _ in range(3))
        assert w([x + y, z]) == w([x, z]) + w([y, z])
        assert w([x, y + z]) == w([x, y]) + w([x, z])


def test_qpower_json_roundtrip_and_order():
    phi = rank2_f2()
    w = weil_polynomial(phi, UniPoly.from_ranks(F2, [1, 1, 1]))
    obj = w.to_json()
    keys = [tuple(t["frob_exps"]) for t in obj["terms"]]
    assert keys == sorted(keys)
    assert QPowerPoly.from_json(obj) == w


def test_evaluator_embeds_lower_points_and_rejects_other_levels():
    phi = rank2_f2()
    rng = random.Random(5)
    tm = torsion(phi, T2)  # in GF(2^3)
    points = tm.points()
    f4 = extend(F2, 2)  # not in the tower of the torsion level
    for m in (2, 6):  # GF(2^6) is packed, GF(2^18) holds tuples of GF(2^3) ranks
        upper = extend(tm.level, m)
        ev = PairingEvaluator(phi, T2, upper)
        for _ in range(8):
            x, y = rng.choice(points), rng.choice(points)
            expected = weil_evaluate(phi, T2, [x, y]).embed_to(upper)
            assert ev([x, y]) == expected
            assert ev([x.embed_to(upper), y]) == expected
        with pytest.raises(LevelMismatch):
            ev([f4.one_element, points[1]])
        with pytest.raises(LevelMismatch):
            PairingEvaluator(phi, T2, tm.level)([points[1].embed_to(upper), points[1]])


@pytest.mark.parametrize("p, ranks, r, count, orbits", [
    (2, (1, 1, 1), 16, 43_691, 11),  # T^2+T+1 over GF(2)
    (3, (2, 0, 2, 1), 8, 3_608, 27),  # T^3+2T^2+2 over GF(3)
])
def test_fa_term_and_orbit_counts_pinned(p, ranks, r, count, orbits):
    terms = f_rootfree(UniPoly.from_ranks(make_field(p), ranks), r).poly.terms
    by_orbit = {}
    for exps, c in terms.items():
        by_orbit.setdefault(tuple(sorted(exps)), []).append(c)
    assert len(terms) == count and len(by_orbit) == orbits
    # f_a is symmetric: each orbit under permuting the variables is whole,
    # with one coefficient
    for key, coeffs in by_orbit.items():
        size = math.factorial(r)
        for mult in Counter(key).values():
            size //= math.factorial(mult)
        assert len(coeffs) == size and len(set(coeffs)) == 1
