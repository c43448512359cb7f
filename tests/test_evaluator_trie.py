"""The trie evaluator and the trie-built `weil_polynomial` against the
flat constructions they replaced, kept here as oracles: every term of
the pairing polynomial multiplied out slot by slot, and every (f-term,
permutation, twisted-coefficient) product multiplied out in full.
Random small modules over GF(2), GF(3), GF(4) (and, for the
polynomial, GF(5) and GF(4) over GF(2)) with rank 1-4, and one fixed
module of rank 5."""

import functools
import itertools

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld import pairing
from drinfeld.core import DrinfeldModule, torsion
from drinfeld.errors import ArityMismatch, SearchCapExceeded
from drinfeld.fields import extend, make_field
from drinfeld.pairing import (
    PairingEvaluator,
    QPowerPoly,
    f_rootfree,
    weil_evaluate,
    weil_polynomial,
)
from drinfeld.polynomials import UniPoly

FIELDS = (make_field(2), make_field(3), make_field(2, 2))
# adds GF(5), and GF(4) over GF(2), where the Frobenius twist is not the identity
WIDE_FIELDS = FIELDS + (make_field(5), extend(make_field(2), 2)[0])
CAP = 24

SETTINGS = settings(max_examples=80)


def flat_evaluate(poly, betas):
    """Every term of the q-power polynomial multiplied out in turn."""
    acc = poly.ctx.zero_element
    for key, c in poly.terms.items():
        term = c
        for beta, j in zip(betas, key):
            term = term * beta.embed_to(poly.ctx).frobenius(j)
        acc = acc + term
    return acc


def _signed_permutations(r):
    for perm in itertools.permutations(range(r)):
        inversions = sum(1 for i in range(r) for j in range(i + 1, r) if perm[i] > perm[j])
        yield perm, -1 if inversions % 2 else 1


def flat_weil_polynomial(phi, a, arity=None):
    """f_a contracted against the Moore determinant with every product
    of r twisted operator coefficients multiplied out on its own."""
    r = phi.rank if arity is None else arity
    K = phi.K
    twisted = [
        [[(k, c.embed_to(K).frobenius(s)) for k, c in enumerate(phi.phi_tpow(i).coeffs)
          if not c.is_zero()] for s in range(r)]
        for i in range(a.degree)
    ]
    terms = {}
    for exps, c in f_rootfree(a, r).poly.terms.items():
        for perm, sign in _signed_permutations(r):
            base = c.embed_to(K) if sign == 1 else -c.embed_to(K)
            slot_terms = [twisted[exps[slot]][perm[slot]] for slot in range(r)]
            for combo in itertools.product(*slot_terms):
                key = tuple(k + perm[slot] for slot, (k, _) in enumerate(combo))
                val = base
                for _, coeff in combo:
                    val = val * coeff
                terms[key] = terms.get(key, K.zero_element) + val
    return QPowerPoly(K, r, terms)


@st.composite
def modules(draw, fields=FIELDS, max_degree=2):
    """A module of rank 1 to 4 and a monic a over the base field GF(q)
    of degree 1 to max_degree (at most 2 at rank 4, where the flat
    oracle grows too slow) with a(theta) != 0."""
    K = draw(st.sampled_from(fields))
    base = K.base
    r = draw(st.integers(1, 4))
    n = draw(st.integers(1, max_degree if r <= 3 else 2))
    theta = K.element_of_rank(draw(st.integers(0, K.order - 1)))
    g = [K.element_of_rank(draw(st.integers(0, K.order - 1))) for _ in range(r - 1)]
    g.append(K.element_of_rank(draw(st.integers(1, K.order - 1))))
    high = draw(st.lists(st.integers(0, base.order - 1), min_size=n - 1, max_size=n - 1))
    # the constant term avoids the one value that makes a(theta) = 0
    shift = -UniPoly.from_ranks(base, [0] + high + [1])(theta)
    const = draw(st.sampled_from([c for c in base.elements() if c.embed_to(K) != shift]))
    phi = DrinfeldModule(K, theta, tuple(g))
    return phi, UniPoly.from_ranks(base, [const.rank()] + high + [1])


@functools.lru_cache(maxsize=64)
def _setup(phi, a):
    tm = torsion(phi, a, cap=CAP)
    return tm, PairingEvaluator(phi, a, tm.level)


@st.composite
def cases(draw):
    """A module whose torsion fits CAP (at rank 4 only deg a = 1 does),
    its evaluator, and r + 1 torsion points from the F_q span of the
    basis."""
    phi, a = draw(modules())
    try:
        tm, ev = _setup(phi, a)
    except SearchCapExceeded:
        assume(False)
    K = phi.K

    def point():
        acc = tm.level.zero_element
        for b in tm.fq_basis:
            c = K.element_of_rank(draw(st.integers(0, K.order - 1)))
            acc = acc + c.embed_to(tm.level) * b
        return acc

    return phi, a, ev, [point() for _ in range(phi.rank + 1)]


@SETTINGS
@given(cases())
def test_trie_matches_flat_oracle_and_weil_evaluate(case):
    phi, a, ev, points = case
    betas, extra = points[:-1], points[-1]
    ev._memo.clear()
    cold = ev(betas)
    assert cold == flat_evaluate(ev.poly, betas) == weil_evaluate(phi, a, betas)
    assert ev.poly(betas) == cold
    # warm: the first point moves to the last slot, where only its row
    # is cached, and the old last point moves up a slot
    rotated = betas[1:] + betas[:1]
    assert ev(rotated) == flat_evaluate(ev.poly, rotated) == weil_evaluate(phi, a, rotated)
    assert ev(betas) == cold
    # one new point reused in two slots gives zero: the pairing alternates
    if phi.rank >= 2:
        repeated = [extra] + betas[1:-1] + [extra]
        assert ev(repeated).is_zero() and flat_evaluate(ev.poly, repeated).is_zero()
        swapped = [extra] + betas[1:]
        assert ev(swapped) == flat_evaluate(ev.poly, swapped)


@settings(max_examples=80)
@given(modules(WIDE_FIELDS, max_degree=3))
def test_weil_polynomial_matches_flat_construction(case):
    phi, a = case
    assert weil_polynomial(phi, a) == flat_weil_polynomial(phi, a)
    if phi.rank >= 2:
        lower = weil_polynomial(phi, a, arity=phi.rank - 1)
        assert lower == flat_weil_polynomial(phi, a, arity=phi.rank - 1)


def _module_i_sweep():
    """A rank-2 module over GF(2) with a = T^2+T+1: 16 torsion points."""
    K = make_field(2)
    phi = DrinfeldModule(K, K.one_element, (K.one_element, K.one_element))
    a = UniPoly.from_ranks(K, [1, 1, 1])
    tm = torsion(phi, a)
    return phi, a, tm


def test_memo_stays_bounded_with_unchanged_values(monkeypatch):
    phi, a, tm = _module_i_sweep()
    points = tm.points()
    tuples = list(itertools.product(points, repeat=2))
    ev = PairingEvaluator(phi, a, tm.level)
    expected = {tup: flat_evaluate(ev.poly, tup) for tup in tuples}
    monkeypatch.setattr(pairing, "_MEMO_SIZE", 5)
    bounded = PairingEvaluator(phi, a, tm.level)
    assert len(points) > 3 * pairing._MEMO_SIZE
    for order in (tuples, tuples[::-1]):
        for tup in order:
            assert bounded(tup) == expected[tup]
            assert len(bounded._memo) <= pairing._MEMO_SIZE
    assert len(bounded._memo) == pairing._MEMO_SIZE


def test_powers_of_fills_no_last_slot_vector(monkeypatch):
    phi, a, tm = _module_i_sweep()
    points = tm.points()
    ev = PairingEvaluator(phi, a, tm.level)

    def refuse(level, leaves, row):
        raise AssertionError("powers_of contracted the last slot")

    with monkeypatch.context() as patch:
        patch.setattr(pairing, "_contract_last", refuse)
        for x in points:
            powers = ev.powers_of(x)
            assert powers == [x.frobenius(j) for j in range(len(powers))]
    assert all(vector is None for _, vector in ev._memo.values())
    # each point's vector is filled on its first use in the last slot
    calls = []
    real = pairing._contract_last
    monkeypatch.setattr(pairing, "_contract_last",
                        lambda *args: calls.append(1) or real(*args))
    for x, y in itertools.product(points[:4], repeat=2):
        assert ev([x, y]) == flat_evaluate(ev.poly, [x, y])
    assert len(calls) == 4
    filled = {x for x, (_, vector) in ev._memo.items() if vector is not None}
    assert filled == set(points[:4])


def test_weil_polynomial_rank5_matches_flat_construction_and_weil_evaluate():
    """GF(2), theta = 1, phi_T = 1 + tau^5, a = T^2+T+1: 2,520 terms."""
    K = make_field(2)
    one, zero = K.one_element, K.zero_element
    phi = DrinfeldModule(K, one, (zero,) * 4 + (one,))
    a = UniPoly.from_ranks(K, [1, 1, 1])
    poly = weil_polynomial(phi, a)
    assert len(poly.terms) == 2520 and poly == flat_weil_polynomial(phi, a)
    assert weil_polynomial(phi, a, arity=4) == flat_weil_polynomial(phi, a, arity=4)
    tm = torsion(phi, a)
    points = tm.fq_basis + (tm.fq_basis[0] + tm.fq_basis[-1],)
    for start in range(3):
        betas = points[start : start + 5]
        assert poly(betas) == weil_evaluate(phi, a, betas)


@pytest.mark.parametrize("arity", [True, False, 2.0, "2", 0, -1, 3])
def test_weil_polynomial_arity_is_an_int_up_to_the_rank(arity):
    K = make_field(2)
    phi = DrinfeldModule(K, K.one_element, (K.one_element, K.one_element))
    with pytest.raises(ArityMismatch):
        weil_polynomial(phi, UniPoly.from_ranks(K, [1, 1]), arity=arity)
