"""The sum-of-products op behind the trie contraction (`FieldCtx.dot_ops`)
against the mul/add loop, and `PairingEvaluator`, its one caller, against
every term multiplied out in turn (`flat_evaluate`), on Kronecker levels
above the pack cap, binary levels above it (the carry-less op), a tower
level, a level too wide for Kronecker data and packed levels (the exp/log
op, towers included); and the rule that an evaluator, not plain
arithmetic or a one-shot `weil_evaluate`, builds a packed level's tables."""

import itertools
import random

import pytest
from conftest import binary_level, flat_evaluate
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.core import DrinfeldModule, torsion
from drinfeld.fields import (
    PACKED_MAX_ORDER,
    FieldCtx,
    FieldElement,
    _gf2_dot_ops,
    _kron_dot_ops,
    extend,
    make_field,
)
from drinfeld.pairing import PairingEvaluator, weil_evaluate
from drinfeld.polynomials import UniPoly

F2, F3, F5, F7, F11 = (make_field(p) for p in (2, 3, 5, 7, 11))

KRONECKER = {
    "GF(3^11)": extend(F3, 11),
    "GF(5^7)": extend(F5, 7),
    "GF(7^6)": extend(F7, 6),
}
BINARY = {
    "GF(2^20)": extend(F2, 20),
    "GF(2^255)": binary_level(255),
}
OTHER = {
    "GF(4^9) tower": extend(make_field(2, 2), 9),
    "GF(11^5)": extend(F11, 5),
}
PACKED = {
    "GF(2^2)": extend(F2, 2),
    "GF(2^15)": extend(F2, 15),
    "GF(2^16)": extend(F2, 16),
    "GF(3^8)": extend(F3, 8),
    "GF(5^6)": extend(F5, 6),
    "GF(4)^2 tower": extend(make_field(2, 2), 2),
    "GF(9)^2 tower": extend(make_field(3, 2), 2),
}
for ctx in PACKED.values():
    ctx.dot_ops(1)  # a packed level builds its tables when its dot op is asked for
LEVELS = {**KRONECKER, **BINARY, **OTHER}
EVERY = {**LEVELS, **PACKED}

SETTINGS = settings(max_examples=40)
# the properties again, with draws of their own on each level
PER_LEVEL = settings(max_examples=8)


def test_levels_take_the_op_they_should():
    for ctx in LEVELS.values():
        assert ctx.order > PACKED_MAX_ORDER and ctx.packed == (ctx.p == 2 and ctx.parent is F2)
    for ctx in KRONECKER.values():
        assert ctx._kron is not None and ctx.parent.parent is None
        assert ctx.dot_ops.func is _kron_dot_ops
    # a binary level above the cap: its rank is its payload, and it builds no tables
    for ctx in BINARY.values():
        assert ctx.dot_ops.func is _gf2_dot_ops and ctx._kron is None
        spread, _, payload = ctx.dot_ops(100)
        assert payload(spread(ctx.order - 1)) == ctx.order - 1 and ctx._log is None
    assert OTHER["GF(4^9) tower"].parent.parent is not None
    assert OTHER["GF(11^5)"]._kron is None
    # the plain op's operands are the payloads themselves
    for ctx in OTHER.values():
        spread, _, payload = ctx.dot_ops(100)
        x = ctx.payload_of_rank(ctx.order - 1)
        assert spread(x) is x and payload(x) is x
    # with its tables, a packed level's operand is a log, 0 at the sentinel 2(order-1)
    for ctx in PACKED.values():
        assert ctx.packed and ctx.parent is not None and ctx._log is not None
        spread, _, payload = ctx.dot_ops(100)
        n = ctx.order - 1
        assert spread(0) == 2 * n and payload(2 * n) == 0
        assert [spread(ctx.one()), spread(ctx._exp[n - 1])] == [0, n - 1]
        assert all(payload(spread(x)) == x for x in (0, 1, 2, n // 2, n))
    assert PACKED["GF(3^8)"]._kron is not None and PACKED["GF(9)^2 tower"]._kron is None
    assert PACKED["GF(2^15)"]._clmul is not None and PACKED["GF(2^15)"]._kron is None


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


@pytest.mark.parametrize("name", sorted(KRONECKER) + sorted(BINARY))
@pytest.mark.parametrize("width", [1, 2])
def test_dot_at_the_largest_term_count_of_a_width(name, width):
    # every coefficient p-1: the middle slot of the unreduced sum reaches
    # terms * d * (p-1)**2, the bound the slot width is chosen from
    ctx = LEVELS[name]
    per_term = ctx.degree * (ctx.p - 1) ** 2
    most = (256**width - 1) // per_term
    top = ctx.payload_of_rank(ctx.order - 1)
    for terms, expected_width in ((most, width), (most + 1, width + 1)):
        assert _width(ctx, terms) == expected_width
        spread, dot, payload = ctx.dot_ops(terms)
        xs = [spread(top)] * terms
        (value,) = dot(xs, xs, [[(k, k) for k in range(terms)]])
        assert payload(value) == loop_dot(ctx, [top] * terms, [top] * terms)


@st.composite
def dots(draw, names=sorted(LEVELS)):
    ctx = EVERY[draw(st.sampled_from(names))]
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


@pytest.mark.parametrize("name", sorted(EVERY))
@PER_LEVEL
@given(data=st.data())
def test_dot_matches_the_mul_add_loop_on_each_level(name, data):
    test_dot_matches_the_mul_add_loop.hypothesis.inner_test(data.draw(dots([name])))


@pytest.mark.parametrize("name", sorted(EVERY))
def test_dot_of_zeros_and_of_no_terms_is_zero(name):
    ctx = EVERY[name]
    spread, dot, payload = ctx.dot_ops(4)
    zero, one = ctx.zero(), ctx.one()
    x = ctx.payload_of_rank(ctx.order - 1)
    row = list(map(spread, [zero, x, one]))
    vals = list(map(spread, [zero, x, zero, one]))
    nodes = [
        [(0, 0), (2, 2)],  # every product has a zero
        [(0, 1), (0, 3)],  # a zero in the row
        [(1, 0), (2, 2)],  # a zero in the values
        [(0, 1), (1, 3), (2, 2)],  # one nonzero product among zeros
        [],  # no terms
    ]
    got = list(map(payload, dot(row, vals, nodes)))
    assert got == [zero, zero, zero, x, zero]
    assert payload(dot((), (), [()])[0]) == zero


@st.composite
def evaluations(draw, names=sorted(LEVELS)):
    """An evaluator on one of the named levels for a module over its base
    level (rank 1-3, monic a of degree 1-2), and r + 1 random points there."""
    level = EVERY[draw(st.sampled_from(names))]
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


@settings(max_examples=30)
@given(evaluations())
def test_evaluator_matches_flat_evaluation(case):
    ev, points = case
    betas = points[:-1]
    expected = flat_evaluate(ev.poly, betas)
    assert ev(betas) == expected
    # warm: the last-slot vector and the operand rows come from the memo
    assert ev(betas) == expected
    rotated = [points[-1]] + betas[1:]
    assert ev(rotated) == flat_evaluate(ev.poly, rotated)


@pytest.mark.parametrize("name", sorted(EVERY))
@PER_LEVEL
@given(data=st.data())
def test_evaluator_matches_flat_evaluation_on_each_level(name, data):
    inner = test_evaluator_matches_flat_evaluation.hypothesis.inner_test
    inner(data.draw(evaluations([name])))


@pytest.mark.parametrize("g, a, m, step", [
    ((1, 0, 1), (0, 0, 0, 1), 28, 37),  # rank 3, a = T^3: torsion in GF(2^28)
    ((1, 1), (1, 1, 0, 1, 1, 1), 31, 97),  # a = T^5+T^4+T^3+T+1: torsion in GF(2^31)
], ids=["GF(2^28)", "GF(2^31)"])
def test_binary_torsion_evaluator_matches_weil_evaluate(g, a, m, step):
    # the two binary modules of the pairing-sweep benchmark, theta = 1
    K = F2
    phi = DrinfeldModule(K, K.one_element, tuple(map(K.element_of_rank, g)))
    a = UniPoly.from_ranks(K, a)
    tm = torsion(phi, a)
    assert tm.level.order == 2**m and tm.level.packed and tm.level.dot_ops.func is _gf2_dot_ops
    ev = PairingEvaluator(phi, a, tm.level)
    points = tm.points()
    values = []
    for idx in itertools.islice(itertools.combinations(range(1, len(points), step), phi.rank), 4):
        betas = [points[i] for i in idx]
        values.append(ev(betas))
        assert values[-1] == weil_evaluate(phi, a, betas)
    assert any(not v.is_zero() for v in values)
    assert tm.level._log is None


def test_evaluator_on_gf2_255_matches_flat_evaluation():
    # r = 2, a = T^2 + T + 1 over GF(2), random points of GF(2^255)
    level, K = BINARY["GF(2^255)"], F2
    phi = DrinfeldModule(K, K.one_element, (K.one_element, K.one_element))
    ev = PairingEvaluator(phi, UniPoly.from_ranks(K, [1, 1, 1]), level)
    rng = random.Random(255)
    points = [level.element_of_rank(rng.randrange(level.order)) for _ in range(4)]
    for betas in itertools.combinations(points, 2):
        assert ev(betas) == flat_evaluate(ev.poly, betas)
    assert level._log is None


@pytest.mark.parametrize("name", ["GF(2^15)", "GF(2^20)", "GF(3^11)", "GF(4^9) tower"])
def test_each_row_takes_operand_form_once(name):
    """The log, carry-less, Kronecker and plain dot ops: `spread` converts a point's
    Frobenius row when `powers_of`, a call or a sweep first sees the
    point, and never again; `powers_of` reads the row back exactly."""
    level = EVERY[name]
    K = level.base
    phi = DrinfeldModule(K, K.one_element, (K.one_element, K.one_element))
    ev = PairingEvaluator(phi, UniPoly.from_ranks(K, [1, 1, 1]), level)
    leaves, inner, (spread, dot, payload) = ev._trie
    spread_args = []
    ev._trie = leaves, inner, (lambda x: spread_args.append(x) or spread(x), dot, payload)
    w, x, y, z = (level.element_of_rank(i) for i in (0, 3, 5, level.order - 1))
    width = ev._top + 1

    def row(b):
        return [b.frobenius(j) for j in range(width)]

    assert ev.powers_of(w) == row(w)
    seen = [v.val for v in row(w)]
    assert spread_args == seen
    ev([w, x])  # x first seen by a call
    seen += [v.val for v in row(x)]
    assert spread_args == seen
    sweep = list(ev.values([x, y, w]))  # y first seen by a sweep
    seen += [v.val for v in row(y)]
    assert spread_args == seen
    ev([y, x]), ev([x, w])
    assert list(ev.values([x, y, w])) == sweep
    assert [ev.powers_of(b) for b in (w, x, y)] == [row(w), row(x), row(y)]
    assert spread_args == seen
    assert ev.powers_of(z) == row(z)
    assert spread_args == seen + [v.val for v in row(z)]


def _fresh(level):
    """An uncached copy of a packed level, so that its tables are missing."""
    return FieldCtx(level.p, parent=level.parent, degree=level.degree, modulus=level._mod)


@pytest.fixture
def builds(monkeypatch):
    """The levels whose tables get built, one entry per build."""
    built = []
    build = FieldCtx._build_tables

    def counted(ctx):
        built.append(ctx)
        build(ctx)

    monkeypatch.setattr(FieldCtx, "_build_tables", counted)
    return built


@pytest.mark.parametrize("name, p, e, theta, g, a", [
    ("GF(2^15)", 2, 1, 1, (1, 1), (1, 1, 1)),  # a = T^2 + T + 1
    ("GF(3^8)", 3, 1, 2, (1, 1), (0, 1)),  # a = T
    ("GF(9)^2 tower", 3, 2, 1, (1,), (0, 1)),  # rank 1 over GF(9), a = T
])
def test_a_one_shot_weil_evaluate_builds_no_tables(name, p, e, theta, g, a, builds):
    K = make_field(p, e)
    phi = DrinfeldModule(K, K.element_of_rank(theta), tuple(map(K.element_of_rank, g)))
    a = UniPoly.from_ranks(K, a)
    tm = torsion(phi, a)
    assert tm.level is PACKED[name]
    ctx = _fresh(tm.level)
    betas = tm.points()[-phi.rank:]
    expected = weil_evaluate(phi, a, betas)
    assert not expected.is_zero()
    # the same points on a torsion level that has no tables yet
    assert weil_evaluate(phi, a, [FieldElement(ctx, x.val) for x in betas]).val == expected.val
    assert ctx not in builds and ctx._log is None


@pytest.mark.parametrize("name", ["GF(2^15)", "GF(3^8)", "GF(9)^2 tower"])
def test_an_evaluator_builds_the_tables_once(name, builds):
    ctx = _fresh(PACKED[name])
    slow_mul = ctx.mul  # a caller may still hold a slow op after the switch
    K = ctx.base
    phi = DrinfeldModule(K, K.one_element, (K.one_element, K.one_element))
    a = UniPoly.from_ranks(K, [1, 1, 1])
    ev = PairingEvaluator(phi, a, ctx)
    assert builds == [ctx]
    assert ctx.dot_ops.__func__ is FieldCtx._log_dot_ops
    points = [ctx.element_of_rank(3), ctx.element_of_rank(ctx.order - 2)]
    assert ev(points) == flat_evaluate(ev.poly, points)
    PairingEvaluator(phi, a, ctx)
    x, y = points[0].val, points[1].val
    for _ in range(ctx.order):
        assert slow_mul(x, y) == ctx.mul(x, y)
    assert builds == [ctx]


def test_fewer_than_order_plain_ops_build_no_tables(builds):
    ctx = _fresh(PACKED["GF(3^8)"])
    x, y = ctx.payload_of_rank(10), ctx.payload_of_rank(ctx.order - 1)
    for _ in range((ctx.order - 1) // 2):
        ctx.add(ctx.mul(x, y), y)
    assert builds == [] and ctx._log is None
    ctx.mul(x, y)  # the order-th op
    assert builds == [ctx] and ctx._log is not None


@pytest.mark.parametrize("p, theta, g, a, order", [
    (2, 1, (1, 1), (1, 1, 1), 2**15),  # a = T^2 + T + 1
    (3, 2, (1, 1), (0, 1), 3**8),  # a = T
])
def test_evaluators_agree_with_weil_evaluate_on_a_packed_torsion_level(p, theta, g, a, order):
    K = make_field(p)
    phi = DrinfeldModule(K, K.element_of_rank(theta), tuple(map(K.element_of_rank, g)))
    a = UniPoly.from_ranks(K, a)
    tm = torsion(phi, a)
    assert tm.level.order == order and tm.level.packed
    points = tm.points()
    tuples = [(points[i], points[j]) for i in range(1, len(points), 3)
              for j in range(2, len(points), 4)]
    ev = PairingEvaluator(phi, a, tm.level)
    cold = [ev(t) for t in tuples]
    warm = [ev(t) for t in tuples]
    expected = [weil_evaluate(phi, a, t) for t in tuples]
    assert cold == warm == expected
    assert [flat_evaluate(ev.poly, t) for t in tuples] == expected
    assert any(not v.is_zero() for v in expected)
