"""The sum-of-products op behind the trie contraction (`FieldCtx.dot_ops`)
against the mul/add loop, and `PairingEvaluator` and `QPowerPoly.__call__`
against every term multiplied out in turn, on Kronecker levels above the
pack cap, a tower level and a level too wide for Kronecker data."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.core import DrinfeldModule, torsion
from drinfeld.fields import PACKED_MAX_ORDER, FieldElement, extend, make_field
from drinfeld.pairing import PairingEvaluator, weil_evaluate
from drinfeld.polynomials import UniPoly

F2, F3, F5, F7, F11 = (make_field(p) for p in (2, 3, 5, 7, 11))

KRONECKER = {
    "GF(2^20)": extend(F2, 20)[0],
    "GF(3^11)": extend(F3, 11)[0],
    "GF(5^7)": extend(F5, 7)[0],
    "GF(7^6)": extend(F7, 6)[0],
}
OTHER = {
    "GF(4^9) tower": extend(make_field(2, 2), 9)[0],
    "GF(11^5)": extend(F11, 5)[0],
}
LEVELS = {**KRONECKER, **OTHER}

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def test_levels_take_the_op_they_should():
    for ctx in LEVELS.values():
        assert ctx.order > PACKED_MAX_ORDER and not ctx.packed
    for ctx in KRONECKER.values():
        assert ctx._kron is not None and ctx.parent.parent is None
    assert OTHER["GF(4^9) tower"].parent.parent is not None
    assert OTHER["GF(11^5)"]._kron is None
    # the plain op's operands are the payloads themselves
    for ctx in OTHER.values():
        spread, _, payload = ctx.dot_ops(100)
        x = ctx.payload_of_rank(ctx.order - 1)
        assert spread(x) is x and payload(x) is x


def loop_dot(ctx, xs, ys):
    acc = ctx.zero()
    for x, y in zip(xs, ys):
        acc = ctx.add(acc, ctx.mul(x, y))
    return acc


def _width(ctx, terms):
    """Bytes per slot of `ctx.dot_ops(terms)`, read off the operand of x**(d-1)."""
    spread, _, _ = ctx.dot_ops(terms)
    top = spread(ctx.payload_of_rank(ctx.p ** (ctx.degree - 1)))
    return (top.bit_length() - 1) // (8 * (ctx.degree - 1))


@pytest.mark.parametrize("name", sorted(KRONECKER))
@pytest.mark.parametrize("width", [1, 2])
def test_dot_at_the_largest_term_count_of_a_width(name, width):
    # every coefficient p-1: the middle slot of the unreduced sum reaches
    # terms * d * (p-1)**2, the bound the slot width is chosen from
    ctx = KRONECKER[name]
    per_term = ctx.degree * (ctx.p - 1) ** 2
    most = (256**width - 1) // per_term
    top = (ctx.p - 1,) * ctx.degree
    for terms, expected_width in ((most, width), (most + 1, width + 1)):
        assert _width(ctx, terms) == expected_width
        spread, dot, payload = ctx.dot_ops(terms)
        xs = [spread(top)] * terms
        (value,) = dot(xs, xs, [[(k, k) for k in range(terms)]])
        assert payload(value) == loop_dot(ctx, [top] * terms, [top] * terms)


@st.composite
def dots(draw):
    ctx = LEVELS[draw(st.sampled_from(sorted(LEVELS)))]
    terms = draw(st.integers(1, 12))
    n = draw(st.integers(0, terms))
    ranks = st.integers(0, ctx.order - 1)
    xs = [ctx.payload_of_rank(draw(ranks)) for _ in range(n)]
    ys = [ctx.payload_of_rank(draw(ranks)) for _ in range(n)]
    return ctx, terms, xs, ys


@SETTINGS
@given(dots())
def test_dot_matches_the_mul_add_loop(case):
    ctx, terms, xs, ys = case
    spread, dot, payload = ctx.dot_ops(terms)
    # one node over all pairs, one over every other pair; a node's value
    # is an operand again, as the contraction uses it
    nodes = [[(k, k) for k in range(len(xs))], [(k, k) for k in range(0, len(xs), 2)]]
    both = dot(list(map(spread, xs)), list(map(spread, ys)), nodes)
    assert list(map(payload, both)) == [loop_dot(ctx, xs, ys), loop_dot(ctx, xs[::2], ys[::2])]
    (again,) = dot([spread(ctx.one())], both, [[(0, 0)]])
    assert payload(again) == payload(both[0])


def flat_evaluate(poly, betas):
    """Every term of the q-power polynomial multiplied out in turn."""
    acc = poly.ctx.zero_element
    for key, c in poly.terms.items():
        term = c
        for beta, j in zip(betas, key):
            term = term * beta.embed_to(poly.ctx).frobenius(j)
        acc = acc + term
    return acc


@st.composite
def evaluations(draw):
    """An evaluator on one of LEVELS for a module over its base level
    (rank 1-3, monic a of degree 1-2), and r + 1 random points there."""
    level = LEVELS[draw(st.sampled_from(sorted(LEVELS)))]
    K = level.base
    ranks = st.integers(0, K.order - 1)
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    g = [K.element_of_rank(draw(ranks)) for _ in range(r - 1)]
    g.append(K.element_of_rank(draw(st.integers(1, K.order - 1))))
    phi = DrinfeldModule(K, K.element_of_rank(draw(ranks)), tuple(g))
    a = UniPoly.from_ranks(K, [draw(ranks) for _ in range(n)] + [1])
    points = [FieldElement(level, level.payload_of_rank(draw(st.integers(0, level.order - 1))))
              for _ in range(r + 1)]
    return PairingEvaluator(phi, a, level), points


@settings(max_examples=30, derandomize=True, deadline=None)
@given(evaluations())
def test_evaluator_and_poly_call_match_flat_evaluation(case):
    ev, points = case
    betas = points[:-1]
    expected = flat_evaluate(ev.poly, betas)
    assert ev(betas) == ev.poly(betas) == expected
    # warm: the last-slot vector and the operand rows come from the memo
    assert ev(betas) == expected
    rotated = [points[-1]] + betas[1:]
    assert ev(rotated) == ev.poly(rotated) == flat_evaluate(ev.poly, rotated)


def test_rank3_gf2_28_evaluator_matches_weil_evaluate():
    # the rank-3 module of the pairing-sweep benchmark: torsion in GF(2^28)
    K = F2
    phi = DrinfeldModule(K, K.one_element, (K.one_element, K.zero_element, K.one_element))
    a = UniPoly.from_ranks(K, [0, 0, 0, 1])
    tm = torsion(phi, a)
    assert tm.level.order == 2**28 and tm.level._kron is not None
    ev = PairingEvaluator(phi, a, tm.level)
    points = tm.points()
    values = []
    for idx in itertools.islice(itertools.combinations(range(1, len(points), 37), 3), 4):
        betas = [points[i] for i in idx]
        values.append(ev(betas))
        assert values[-1] == weil_evaluate(phi, a, betas)
    assert any(not v.is_zero() for v in values)
