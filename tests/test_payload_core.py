"""The payload core of ``fields``: UniPoly arithmetic, gcds and powering
against sympy's galoistools over prime fields and against a
wrapped-element schoolbook over GF(4), GF(9) and tuple levels; the one
row reduction behind determinant, kernel and solve against sympy, the
permutation expansion and brute force; the one square-and-multiply by
its product count, the Frobenius map and the distinct-degree loop
against galoistools, and the irreducibility test over GF(4) and GF(9)
against trial division."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.polys.galoistools import (
    gf_add,
    gf_ddf_zassenhaus,
    gf_div,
    gf_factor,
    gf_gcdex,
    gf_mul,
    gf_pow_mod,
    gf_sqf_part,
    gf_sub,
)

from drinfeld.errors import DivisionByZero, LevelMismatch, MalformedInput
from drinfeld.fields import (
    _frobenius_map,
    _is_irreducible,
    _pdistinct_degree,
    _pdivmod,
    _power,
    _ppow_mod,
    _pstrip,
    _slots,
    determinant,
    extend,
    kernel,
    make_field,
    solve,
)
from drinfeld.polynomials import UniPoly, poly_gcd, poly_xgcd

PRIMES = {p: make_field(p) for p in (2, 3, 5, 7)}
GF9 = make_field(3, 2)
WIDE = {
    "GF(4)": make_field(2, 2),
    "GF(9)": GF9,
    "GF(2^17)": make_field(2, 17),  # a tuple level over GF(2)
    "GF(9^6)": extend(GF9, 6),  # a tuple level over a packed level
}
SETTINGS = settings(max_examples=80)


def _poly(ctx, ranks):
    return UniPoly(ctx, [ctx.element_of_rank(r) for r in ranks])


@st.composite
def _ranks(draw, ctx, max_len=7, nonzero=False):
    ranks = draw(st.lists(st.integers(0, ctx.order - 1), max_size=max_len))
    if nonzero:
        ranks.append(draw(st.integers(1, ctx.order - 1)))
    return ranks


# -- against sympy over GF(p) -------------------------------------------------


def _gf(f):
    """sympy's dense form: big-endian ints."""
    return [c.rank() for c in reversed(f.coeffs)]


@st.composite
def prime_pairs(draw):
    p = draw(st.sampled_from(sorted(PRIMES)))
    F = PRIMES[p]
    return p, _poly(F, draw(_ranks(F))), _poly(F, draw(_ranks(F)))


@SETTINGS
@given(prime_pairs())
def test_ring_ops_match_galoistools(case):
    p, f, g = case
    assert _gf(f + g) == gf_add(_gf(f), _gf(g), p, ZZ)
    assert _gf(f - g) == gf_sub(_gf(f), _gf(g), p, ZZ)
    assert _gf(f * g) == gf_mul(_gf(f), _gf(g), p, ZZ)
    assert _gf(-f) == gf_sub([], _gf(f), p, ZZ)
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            divmod(f, g)
    else:
        quo, rem = divmod(f, g)
        assert (_gf(quo), _gf(rem)) == gf_div(_gf(f), _gf(g), p, ZZ)


@SETTINGS
@given(prime_pairs())
def test_gcds_match_galoistools(case):
    p, f, g = case
    s, t, h = gf_gcdex(_gf(f), _gf(g), p, ZZ)
    d, u, v = poly_xgcd(f, g)
    assert (_gf(d), _gf(u), _gf(v)) == (h, s, t)
    assert _gf(poly_gcd(f, g)) == h


@SETTINGS
@given(prime_pairs(), st.integers(0, 40))
def test_pow_mod_matches_galoistools(case, e):
    p, f, mod = case
    assume(not mod.is_zero())
    F = PRIMES[p]  # a prime-field payload is its rank
    got = _ppow_mod(F, f._payloads(F), e, mod._payloads(F))
    assert got[::-1] == gf_pow_mod(_gf(f), e, _gf(mod), p, ZZ)


# -- against the wrapped-element schoolbook over GF(4), GF(9), tuple levels ----


def _strip(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _old_add(f, g, sign=1):
    n = max(len(f), len(g))
    zero = (f + g)[0] - (f + g)[0] if n else None
    f, g = f + [zero] * (n - len(f)), g + [zero] * (n - len(g))
    return _strip(a + b if sign > 0 else a - b for a, b in zip(f, g))


def _old_mul(f, g):
    if not f or not g:
        return []
    out = [f[0] - f[0]] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return _strip(out)


def _old_divmod(f, g):
    rem = list(f)
    dd = len(g) - 1
    inv_lead = g[-1].inverse()
    quo = [g[0] - g[0]] * max(0, len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        factor = rem[k] * inv_lead
        quo[k - dd] = factor
        for j in range(dd + 1):
            rem[k - dd + j] = rem[k - dd + j] - factor * g[j]
    return _strip(quo), _strip(rem[:dd])


def _old_xgcd(f, g, one):
    r0, r1 = f, g
    u0, u1, v0, v1 = [one], [], [], [one]
    while r1:
        q, r = _old_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, _old_add(u0, _old_mul(q, u1), -1)
        v0, v1 = v1, _old_add(v0, _old_mul(q, v1), -1)
    if r0:
        scale = [r0[-1].inverse()]
        r0, u0, v0 = _old_mul(r0, scale), _old_mul(u0, scale), _old_mul(v0, scale)
    return r0, u0, v0


def _old_pow_mod(f, e, mod, one):
    result, acc = [one], _old_divmod(f, mod)[1]
    while e > 0:
        if e & 1:
            result = _old_divmod(_old_mul(result, acc), mod)[1]
        acc = _old_divmod(_old_mul(acc, acc), mod)[1]
        e >>= 1
    return result


@st.composite
def wide_pairs(draw):
    ctx = WIDE[draw(st.sampled_from(sorted(WIDE)))]
    f = _poly(ctx, draw(_ranks(ctx)))
    g = _poly(ctx, draw(_ranks(ctx, max_len=4, nonzero=True)))
    return ctx, f, g


@SETTINGS
@given(wide_pairs(), st.integers(0, 12))
def test_core_matches_wrapped_schoolbook(case, e):
    ctx, f, g = case
    F, G = list(f.coeffs), list(g.coeffs)
    assert list((f + g).coeffs) == _old_add(F, G)
    assert list((g + f).coeffs) == _old_add(G, F)
    assert list((f - g).coeffs) == _old_add(F, G, -1)
    assert list((f * g).coeffs) == _old_mul(F, G)
    quo, rem = divmod(f, g)
    assert (list(quo.coeffs), list(rem.coeffs)) == _old_divmod(F, G)
    d, u, v = poly_xgcd(f, g)
    assert [list(h.coeffs) for h in (d, u, v)] == list(_old_xgcd(F, G, ctx.one_element))
    assert u * f + v * g == d and poly_gcd(f, g) == d
    got = _ppow_mod(ctx, f._payloads(ctx), e, g._payloads(ctx))
    assert got == [c.val for c in _old_pow_mod(F, e, G, ctx.one_element)]


def test_unipoly_from_outside_still_validates():
    with pytest.raises(TypeError):
        UniPoly(GF9, [1, 2])
    # results of the core are stripped like validated ones
    f = _poly(GF9, [1, 2, 5])
    assert (f - f).coeffs == () and f + (-f) == UniPoly.zero(GF9)


# -- the row reduction ----------------------------------------------------------


@st.composite
def matrices(draw, ctx, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    # a small rank pool makes zero pivots, and so row swaps, common
    pool = st.sampled_from([0, 0, 1, ctx.order - 1, draw(st.integers(0, ctx.order - 1))])
    ranks = draw(st.lists(st.lists(pool, min_size=ncols, max_size=ncols),
                          min_size=nrows, max_size=nrows))
    return [[ctx.element_of_rank(r) for r in row] for row in ranks]


@SETTINGS
@given(st.data())
def test_determinant_matches_sympy_over_prime_fields(data):
    p = data.draw(st.sampled_from(sorted(PRIMES)))
    rows = data.draw(matrices(PRIMES[p], square=True))
    expected = Matrix([[x.rank() for x in row] for row in rows]).det() % p
    assert determinant(rows).rank() == expected


def _leibniz(rows):
    n = len(rows)
    acc = rows[0][0] - rows[0][0]
    for perm in itertools.permutations(range(n)):
        term = rows[0][perm[0]]
        for i in range(1, n):
            term = term * rows[i][perm[i]]
        odd = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        acc = acc - term if odd else acc + term
    return acc


@SETTINGS
@given(matrices(GF9, square=True))
def test_determinant_matches_permutation_expansion_over_gf9(rows):
    assert determinant(rows) == _leibniz(rows)


def test_determinant_sign_of_one_swap():
    one, zero = GF9.one_element, GF9.zero_element
    assert determinant([[zero, one], [one, zero]]) == -one


def _apply(rows, vec):
    zero = rows[0][0] - rows[0][0]
    return [sum((a * x for a, x in zip(row, vec)), zero) for row in rows]


def _transpose(rows):
    return [list(col) for col in zip(*rows)]


@SETTINGS
@given(st.data())
def test_kernel_and_solve(data):
    ctx = data.draw(st.sampled_from([GF9, WIDE["GF(2^17)"], WIDE["GF(9^6)"]]))
    rows = data.draw(matrices(ctx))
    ncols = len(rows[0])
    basis = kernel(rows)
    zero = [ctx.zero_element] * len(rows)
    assert all(_apply(rows, v) == zero for v in basis)
    # rank-nullity, with the rank read off the transpose's kernel
    assert ncols - len(basis) == len(rows) - len(kernel(_transpose(rows)))
    # the basis is independent: reduced, so no nontrivial combination vanishes
    if basis:
        assert len(kernel(_transpose([list(v) for v in basis]))) == 0
    x = [ctx.element_of_rank(data.draw(st.integers(0, ctx.order - 1))) for _ in range(ncols)]
    b = _apply(rows, x)
    y = solve(rows, b)
    assert y is not None and _apply(rows, y) == b


@SETTINGS
@given(matrices(GF9))
def test_kernel_and_solve_by_brute_force_over_gf9(rows):
    ncols = len(rows[0])
    assume(ncols <= 3)
    zero = [GF9.zero_element] * len(rows)
    vectors = [[GF9.element_of_rank(r) for r in rs]
               for rs in itertools.product(range(GF9.order), repeat=ncols)]
    nulls = sum(_apply(rows, v) == zero for v in vectors)
    assert nulls == GF9.order ** len(kernel(rows))
    images = {tuple(_apply(rows, v)) for v in vectors}
    for rs in itertools.product((0, 1, 5), repeat=len(rows)):
        b = [GF9.element_of_rank(r) for r in rs]
        sol = solve(rows, b)
        assert (sol is not None) == (tuple(b) in images)
        assert sol is None or _apply(rows, sol) == b


def test_mixed_levels_raise():
    F3 = PRIMES[3]
    one3, one9 = F3.one_element, GF9.one_element
    mixed = [[one3, one9], [one9, one9]]
    with pytest.raises(LevelMismatch):
        kernel(mixed)
    with pytest.raises(LevelMismatch):
        determinant(mixed)
    with pytest.raises(LevelMismatch):
        solve([[one9, one9]], [one3])


# -- one power, one Frobenius map, one distinct-degree loop --------------------


def _counting(mul):
    calls = []

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    return counted, calls


def test_power_makes_log2_plus_popcount_minus_one_products():
    mul, calls = _counting(lambda a, b: a * b % 1_000_003)
    for e in range(300):
        calls.clear()
        assert _power(mul, 7, e, 1) == pow(7, e, 1_000_003), e
        assert len(calls) == (e.bit_length() - 1 + e.bit_count() - 1 if e else 0), e


@pytest.mark.parametrize("p, m, products", [(2, 31, 1), (3, 40, 2)])
def test_frobenius_step_on_a_tuple_level_is_one_or_two_products(monkeypatch, p, m, products):
    # the GF(2^31) (ranks) and GF(3^40) (tuples) levels of the pairing-sweep benchmark
    ctx = extend(make_field(p), m)
    x = ctx.payload_of_rank(p)  # the residue generator
    expected = ctx.payload_of_rank(p**p)  # x**p, below x**m: no reduction
    counted, calls = _counting(ctx.mul)
    monkeypatch.setattr(ctx, "mul", counted)
    assert ctx.q == p and ctx.power(x, ctx.q) == expected
    assert len(calls) == products


def test_unipoly_negative_power_raises():
    x = UniPoly.gen(PRIMES[2])
    with pytest.raises(ValueError):
        x**-1
    assert x**0 == UniPoly.one(PRIMES[2]) and x**3 == x * x * x


@pytest.mark.parametrize("e", [True, 2.0, "2"])
def test_power_exponents_must_be_ints(e):
    x = WIDE["GF(4)"].element_of_rank(2)
    with pytest.raises(MalformedInput):
        UniPoly.gen(PRIMES[2]) ** e
    with pytest.raises(MalformedInput):
        x**e
    assert x**-2 == (x * x).inverse()


def _gf_rem_pow(h, p, f):
    """h**p mod f by sympy, little-endian."""
    return gf_pow_mod(h[::-1], p, f[::-1], p, ZZ)[::-1]


@SETTINGS
@given(st.sampled_from((2, 3, 5, 7, 17, 131)), st.data())
def test_kronecker_frobenius_map_matches_generic_powering(p, data):
    # h of any degree, moduli from degree 1 up: h is reduced before it is
    # spread; the codec folds GF(17)'s slots in two bytes, and GF(131) has
    # no codec
    F = PRIMES.get(p) or make_field(p)
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=6)) + [1]
    h = _pstrip(F, data.draw(st.lists(st.integers(0, p - 1), max_size=12)))
    assert (_slots(p, f, 1) is None) == (p == 131)
    assert _frobenius_map(F, f)(h) == _ppow_mod(F, h, p, f) == _gf_rem_pow(h, p, f)


@SETTINGS
@given(st.sampled_from((2, 3, 5, 17)), st.data())
def test_distinct_degree_loop_matches_galoistools(p, data):
    # sympy's distinct-degree factorization of a monic squarefree f
    F = PRIMES.get(p) or make_field(p)
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8)) + [1]
    f = gf_sqf_part(f[::-1], p, ZZ)[::-1]
    assume(len(f) > 1)
    expected = [(i, g[::-1]) for g, i in gf_ddf_zassenhaus(f[::-1], p, ZZ)]
    assert list(_pdistinct_degree(F, f)) == expected


def _distinct_factors_by_degree(p, factors):
    """(f, [(i, product of f's distinct irreducible factors of degree
    i)]) for f the product of g**e over `factors`, little-endian, by
    sympy's full factorization."""
    f = [1]  # big-endian, as galoistools has it
    for g, e in factors:
        for _ in range(e):
            f = gf_mul(f, g[::-1], p, ZZ)
    by_degree = {}
    for g, _ in gf_factor(f, p, ZZ)[1]:
        by_degree[len(g) - 1] = gf_mul(by_degree.get(len(g) - 1, [1]), g, p, ZZ)
    return [int(c) for c in f[::-1]], [(i, g[::-1]) for i, g in sorted(by_degree.items())]


def test_distinct_degree_loop_divides_out_every_power():
    # T^4 (T+1)^2: dividing by g = T(T+1) only while g | f leaves T^2
    f, expected = _distinct_factors_by_degree(2, [([0, 1], 4), ([1, 1], 2)])
    assert list(_pdistinct_degree(PRIMES[2], f)) == expected == [(1, [0, 1, 1])]


@SETTINGS
@given(st.sampled_from((2, 3, 5)), st.data())
def test_distinct_degree_loop_on_any_monic_f_matches_gf_factor(p, data):
    # products of small monic factors with multiplicities up to 2p, so
    # squares, p-th powers and unequal multiplicities of one degree occur
    low = st.integers(1, 3).flatmap(
        lambda d: st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    drawn = data.draw(st.lists(st.tuples(low, st.integers(1, 2 * p)), min_size=1, max_size=3))
    f, expected = _distinct_factors_by_degree(p, [(g + [1], e) for g, e in drawn])
    assert list(_pdistinct_degree(PRIMES[p], f)) == expected


def _divisible_by_a_low_monic(ctx, f):
    """True when some monic polynomial of degree 1 .. deg f // 2 divides
    f: trial division, which never uses the Frobenius map."""
    one = ctx.one()
    for k in range(1, (len(f) - 1) // 2 + 1):
        for low in itertools.product(list(ctx.iter_payloads()), repeat=k):
            if not _pdivmod(ctx, f, list(low) + [one])[1]:
                return True
    return False


@pytest.mark.parametrize("name", ["GF(4)", "GF(9)"])
def test_is_irreducible_over_extension_fields_matches_trial_division(name):
    # the non-Kronecker branch: coefficients in a level above GF(p)
    ctx = WIDE[name]
    elems, one = list(ctx.iter_payloads()), ctx.one()
    cases = [list(low) + [one] for d in (2, 3) for low in itertools.product(elems, repeat=d)]
    rng = random.Random(2010)
    cases += [[rng.choice(elems) for _ in range(4)] + [one] for _ in range(40)]
    for f in cases:
        assert _is_irreducible(ctx, f) == (not _divisible_by_a_low_monic(ctx, f)), (name, f)
