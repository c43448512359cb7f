"""Invariants of the two polynomial shapes.

Every result of a `UniPoly`, `SkewPoly`, `MultiPoly` or `QPowerPoly`
operation is built by the unvalidated `_wrap`, so each one is checked
against the validating constructor: it equals its own terms passed
back through it, holds no zero (or trailing zero) term, and keeps every
coefficient on `.ctx`.  `SkewPoly` composition and application are
compared with the wrapped-element loops they replaced, kept here as
oracles.  Fields: GF(2), GF(3), GF(4) and the tuple level GF(9^6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld.core import DrinfeldModule, SkewPoly
from drinfeld.fields import FieldElement, _ppow_mod, common_level, extend, make_field
from drinfeld.pairing import (
    PairingEvaluator,
    QPowerPoly,
    chain_sum_over_roots,
    moore_poly,
    weil_polynomial,
)
from drinfeld.polynomials import (
    DensePoly,
    MultiPoly,
    UniPoly,
    normal_form,
    poly_gcd,
    poly_xgcd,
)

FIELDS = (make_field(2), make_field(3), make_field(2, 2), extend(make_field(3, 2), 6))
UPPER = {ctx: extend(ctx, 2) for ctx in FIELDS}

SETTINGS = settings(max_examples=60)


def check(poly):
    """poly equals its terms passed back through the public constructor,
    has no zero term and keeps every coefficient on its level."""
    if isinstance(poly, DensePoly):
        assert poly == type(poly)(poly.ctx, poly.coeffs)
        assert not poly.coeffs or not poly.coeffs[-1].is_zero()
        values = poly.coeffs
    else:
        assert poly == type(poly)(poly.ctx, poly.nvars, poly.terms)
        assert not any(c.is_zero() for c in poly.terms.values())
        assert all(type(e) is int for key in poly.terms for e in key)
        values = poly.terms.values()
    assert all(type(c) is FieldElement and c.ctx is poly.ctx for c in values)


@st.composite
def elements(draw, ctx):
    # low ranks (zero and the prime field) often, so sums cancel
    rank = draw(st.integers(0, min(ctx.order, 3) - 1) | st.integers(0, ctx.order - 1))
    return ctx.element_of_rank(rank)


@st.composite
def dense(draw, cls, ctx, max_len=5):
    return cls(ctx, draw(st.lists(elements(ctx), max_size=max_len)))


@st.composite
def sparse(draw, cls, ctx, nvars, top=3):
    keys = st.tuples(*[st.integers(0, top)] * nvars)
    return cls(ctx, nvars, draw(st.dictionaries(keys, elements(ctx), max_size=6)))


def old_compose(f, g):
    """Composition under tau * c = c**q * tau, on wrapped elements."""
    ctx = common_level(f.ctx, g.ctx)
    fc = [c.embed_to(ctx) for c in f.coeffs]
    gc = [c.embed_to(ctx) for c in g.coeffs]
    if not fc or not gc:
        return SkewPoly.zero(ctx)
    out = [ctx.zero_element] * (len(fc) + len(gc) - 1)
    twisted = gc
    for i, a in enumerate(fc):
        if i > 0:
            twisted = [c.frobenius(1) for c in twisted]
        for j, b in enumerate(twisted):
            out[i + j] = out[i + j] + a * b
    return SkewPoly(ctx, out)


def old_apply(f, beta):
    """sum(c_i * beta**(q**i)), on wrapped elements."""
    acc = beta.ctx.zero_element
    y = beta
    for i, c in enumerate(f.coeffs):
        if i > 0:
            y = y.frobenius(1)
        acc = acc + c.embed_to(beta.ctx) * y
    return acc


@SETTINGS
@given(st.data(), st.sampled_from(FIELDS))
def test_unipoly_results(data, ctx):
    f, g = data.draw(dense(UniPoly, ctx)), data.draw(dense(UniPoly, ctx))
    c = data.draw(elements(ctx))
    results = [f + g, f - g, g - g, -f, f * g, f * c, f.monic(), f.derivative(),
               f.embed_to(UPPER[ctx]), f.embed_to(UPPER[ctx]) + g]
    if not g.is_zero():
        powered = _ppow_mod(ctx, f._payloads(ctx), 5, g._payloads(ctx))
        results += [*divmod(f, g), poly_gcd(f, g), *poly_xgcd(f, g), UniPoly._wrap(ctx, powered)]
    for poly in results:
        check(poly)


@SETTINGS
@given(st.data(), st.sampled_from(FIELDS))
def test_skewpoly_results_match_element_loops(data, ctx):
    upper = UPPER[ctx]
    f, g = data.draw(dense(SkewPoly, ctx, 4)), data.draw(dense(SkewPoly, ctx, 4))
    h = data.draw(dense(SkewPoly, upper, 3))
    for poly in (f + g, f - g, g - g, -f, f * g, g * f, f * h, h * f, f + h):
        check(poly)
    assert f * g == old_compose(f, g)
    assert h * f == old_compose(h, f) and f * h == old_compose(f, h)
    for beta in (data.draw(elements(ctx)), data.draw(elements(upper))):
        value = f(beta)
        assert value == old_apply(f, beta)
        assert value.ctx is beta.ctx
    assert (f * g)(beta) == f(g(beta))


@SETTINGS
@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 3))
def test_multipoly_results(data, ctx, nvars):
    f = data.draw(sparse(MultiPoly, ctx, nvars))
    g = data.draw(sparse(MultiPoly, ctx, nvars))
    c = data.draw(elements(ctx))
    sigma = data.draw(st.permutations(range(nvars)))
    low = data.draw(st.lists(elements(ctx), min_size=1, max_size=3))
    a = UniPoly(ctx, low + [ctx.one_element])
    results = [f + g, f - g, g - g, -f, f * g, f * c, f.scale(c), f.permute(sigma),
               f.embed_to(UPPER[ctx]), f.embed_to(UPPER[ctx]) - g,
               normal_form(f * g, a)]
    for poly in results:
        check(poly)
    roots = [data.draw(elements(ctx)) for _ in range(data.draw(st.integers(0, 3)))]
    check(chain_sum_over_roots(ctx, roots, nvars))


@SETTINGS
@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 3))
def test_qpowerpoly_results(data, ctx, nvars):
    w = data.draw(sparse(QPowerPoly, ctx, nvars))
    c = data.draw(elements(ctx))
    results = [w.scale(c), moore_poly(nvars, ctx)]
    if nvars > 1:
        results += [w.top_slice(nvars - 1, j) for j in range(4)]
    for poly in results:
        check(poly)


@SETTINGS
@given(st.data(), st.sampled_from(FIELDS), st.integers(1, 3))
def test_pairing_polynomial_results(data, ctx, r):
    g = [data.draw(elements(ctx)) for _ in range(r - 1)]
    lead = ctx.element_of_rank(data.draw(st.integers(1, min(ctx.order, 5) - 1)))
    phi = DrinfeldModule(ctx, data.draw(elements(ctx)), tuple(g) + (lead,))
    a = UniPoly(phi.base, [data.draw(elements(phi.base)), phi.base.one_element])
    check(weil_polynomial(phi, a))
    check(PairingEvaluator(phi, a, UPPER[ctx]).poly)
    if r > 1:
        check(weil_polynomial(phi, a, arity=r - 1))


@SETTINGS
@given(st.data(), st.sampled_from(FIELDS))
def test_unipoly_and_skewpoly_never_mix(data, ctx):
    coeffs = data.draw(st.lists(elements(ctx), max_size=4))
    u, s = UniPoly(ctx, coeffs), SkewPoly(ctx, coeffs)
    assert u.coeffs == s.coeffs
    assert u != s and s != u
    for x, y in ((u, s), (s, u)):
        for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
            with pytest.raises(TypeError):
                op(x, y)
    with pytest.raises(TypeError):
        poly_gcd(u, s)
    terms = {(0,) * 2: ctx.one_element}
    assert MultiPoly(ctx, 2, terms) != QPowerPoly(ctx, 2, terms)
