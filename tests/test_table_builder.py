"""A packed level's log/exp/Zech tables from the one-pass builder, on
each of its paths (p = 2 by XOR of half-rank tables, odd p by packed
coordinates, towers, and ``_mul_raw`` for p > 36): log and exp are
inverse bijections, the tables equal the powers of g taken by
``_mul_raw``, g is the smallest-rank primitive element that a search on
ranks by ``_pow_raw`` finds, and Zech add and sub equal the digit path."""

import itertools

import pytest

from drinfeld.fields import FieldCtx, _power, _prime_factors, extend, make_field

F2, F3, F5, F7 = (make_field(p) for p in (2, 3, 5, 7))


def _pow_raw(ctx, a, e):
    """a**e on the digit path: square-and-multiply by ``_mul_raw``."""
    return _power(ctx._mul_raw, a, e, 1)


SMALL = {  # order <= 729, checked exhaustively
    "GF(2^9)": extend(F2, 9),
    "GF(3^6)": extend(F3, 6),
    "GF(5^4)": extend(F5, 4),
    "GF(7^3)": extend(F7, 3),
    "GF(4)^3 tower": extend(make_field(2, 2), 3),
    "GF(9)^3 tower": extend(make_field(3, 2), 3),
    "GF(8)^2 tower": extend(make_field(2, 3), 2),
}
LARGE = {
    "GF(37^2)": make_field(37, 2),  # int() reads no base above 36: _mul_raw
    "GF(2^15)": extend(F2, 15),
    "GF(3^8)": extend(F3, 8),
}


def _fresh(level):
    """An uncached copy of a packed level, its tables built now."""
    ctx = FieldCtx(level.p, parent=level.parent, degree=level.degree, modulus=level._mod)
    ctx._build_tables()
    return ctx


def test_levels_cover_every_builder_path():
    levels = {**SMALL, **LARGE}
    assert all(ctx.packed and ctx.order <= 729 for ctx in SMALL.values())
    paths = {(ctx.p == 2, ctx.parent.parent is None, ctx.p <= 36) for ctx in levels.values()}
    assert paths == {
        (True, True, True), (False, True, True), (True, False, True), (False, False, True),
        (False, True, False),
    }


@pytest.mark.parametrize("name", sorted(SMALL))
def test_log_and_exp_are_inverse_bijections(name):
    ctx = _fresh(SMALL[name])
    n = ctx.order - 1
    log, exp = ctx._log, ctx._exp
    assert sorted(exp[:n]) == list(range(1, ctx.order))
    assert all(log[exp[k]] == k for k in range(n))
    assert all(exp[log[x]] == x for x in range(1, ctx.order))
    # doubled, then zero up to twice the sentinel log(0) = 2n
    assert list(exp[n:2 * n]) == list(exp[:n])
    assert len(exp) == 4 * n + 1 and not any(exp[2 * n:])
    assert log[0] == 2 * n


@pytest.mark.parametrize("name", sorted({**SMALL, **LARGE}))
def test_tables_are_the_powers_of_g_by_mul_raw(name):
    ctx = _fresh({**SMALL, **LARGE}[name])
    n = ctx.order - 1
    g = 2  # the smallest-rank primitive element
    while any(_pow_raw(ctx, g, n // f) == 1 for f in _prime_factors(n)):
        g += 1
    powers = [1]
    for _ in range(n - 1):
        powers.append(ctx._mul_raw(g, powers[-1]))
    assert list(ctx._exp[:n]) == powers and ctx._exp[1] == g
    log = [2 * n] * ctx.order
    for k, x in enumerate(powers):
        log[x] = k
    assert list(ctx._log) == log


# levels for the primitive-element search on coordinates: GF(3^k), GF(5^k),
# and GF(2^2) over GF(2) with towers over it
SEARCH = {
    **{f"GF(3^{k})": extend(F3, k) for k in range(2, 8)},
    **{f"GF(5^{k})": extend(F5, k) for k in range(2, 5)},
    "GF(2^2)": make_field(2, 2),
    **{f"GF(4)^{k} tower": extend(make_field(2, 2), k) for k in range(2, 5)},
}


@pytest.mark.parametrize("name", sorted(SEARCH))
def test_search_on_coordinates_finds_the_g_of_the_search_on_ranks(name):
    ctx = _fresh(SEARCH[name])
    n = ctx.order - 1
    g = 2  # the search on ranks by _pow_raw, one digit split per product
    while any(_pow_raw(ctx, g, n // f) == 1 for f in _prime_factors(n)):
        g += 1
    assert ctx._exp[1] == g
    x = 1
    for k in range(n):
        assert ctx._exp[k] == x and ctx._log[x] == k
        x = ctx._mul_raw(g, x)
    assert x == 1 and ctx._log[0] == 2 * n


@pytest.mark.parametrize("name", [k for k in sorted(SMALL) if SMALL[k].p != 2] + ["GF(3^8)"])
def test_zech_add_and_sub_equal_the_digit_path(name):
    ctx = _fresh({**SMALL, **LARGE}[name])
    assert ctx._zech is not None
    every = range(ctx.order)
    step = max(7, ctx.order // 90)
    # 1 + b and b + 1 read every Zech entry; a grid of about 8,000 pairs mixes the rest
    pairs = itertools.chain(
        ((1, b) for b in every), ((a, 1) for a in every), ((0, b) for b in every),
        ((a, 0) for a in every), itertools.product(every[::step], every[3::step + 4]),
    )
    for a, b in pairs:
        assert ctx.add(a, b) == ctx._add_slow(a, b), (a, b)
        assert ctx.sub(a, b) == ctx._sub_slow(a, b), (a, b)
    assert all(ctx.neg(a) == ctx._neg_slow(a) for a in every)
