"""PairingEvaluator on random small Drinfeld modules over GF(2), GF(3)
and GF(4): alternating, GF(q)-multilinear in every slot, and equal to
the direct contraction weil_evaluate."""

import functools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld.core import DrinfeldModule, torsion
from drinfeld.errors import SearchCapExceeded
from drinfeld.fields import make_field
from drinfeld.pairing import PairingEvaluator, weil_evaluate
from drinfeld.polynomials import UniPoly

FIELDS = (make_field(2), make_field(3), make_field(2, 2))
CAP = 24

SETTINGS = settings(max_examples=30)

@functools.lru_cache(maxsize=128)
def _setup(phi, a):
    """Torsion module and evaluator, built once per (module, a)."""
    tm = torsion(phi, a, cap=CAP)
    return tm, PairingEvaluator(phi, a, tm.level)


@st.composite
def cases(draw):
    """A rank 2-3 module, a monic a of degree 1-2 with a(theta) != 0 and
    its torsion level at most CAP over K, a tuple of torsion points, two
    distinct slots, a scalar of GF(q) and one more torsion point."""
    K = draw(st.sampled_from(FIELDS))
    r = draw(st.integers(2, 3))
    n = draw(st.integers(1, 2))
    theta = K.element_of_rank(draw(st.integers(0, K.order - 1)))
    g = [K.element_of_rank(draw(st.integers(0, K.order - 1))) for _ in range(r - 1)]
    g.append(K.element_of_rank(draw(st.integers(1, K.order - 1))))
    high = draw(st.lists(st.integers(0, K.order - 1), min_size=n - 1, max_size=n - 1))
    # the constant term avoids the one value that makes a(theta) = 0
    shift = -UniPoly.from_ranks(K, [0] + high + [1])(theta)
    const = draw(st.sampled_from([c for c in K.elements() if c != shift]))
    phi = DrinfeldModule(K, theta, tuple(g))
    a = UniPoly.from_ranks(K, [const.rank()] + high + [1])
    try:
        tm, ev = _setup(phi, a)
    except SearchCapExceeded:
        assume(False)
    dim = len(tm.fq_basis)

    def point():
        combo = draw(st.lists(st.integers(0, K.order - 1), min_size=dim, max_size=dim))
        acc = tm.level.zero_element
        for c, b in zip(combo, tm.fq_basis):
            acc = acc + K.element_of_rank(c).embed_to(tm.level) * b
        return acc

    betas = [point() for _ in range(r)]
    slot = draw(st.integers(0, r - 1))
    other = draw(st.integers(0, r - 1).filter(lambda j: j != slot))
    scalar = K.element_of_rank(draw(st.integers(0, K.order - 1))).embed_to(tm.level)
    return phi, a, ev, betas, slot, other, scalar, point()


def _with(betas, slot, value):
    return betas[:slot] + [value] + betas[slot + 1 :]


@SETTINGS
@given(cases())
def test_evaluator_agrees_with_weil_evaluate(case):
    phi, a, ev, betas, *_ = case
    assert ev(betas) == weil_evaluate(phi, a, betas)


@SETTINGS
@given(cases())
def test_evaluator_is_alternating(case):
    _, _, ev, betas, slot, other, _, _ = case
    assert ev(_with(betas, other, betas[slot])).is_zero()


@SETTINGS
@given(cases())
def test_evaluator_is_fq_multilinear_in_every_slot(case):
    _, _, ev, betas, slot, _, c, y = case
    combined = ev(_with(betas, slot, c * betas[slot] + y))
    assert combined == c * ev(betas) + ev(_with(betas, slot, y))
