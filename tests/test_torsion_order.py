"""torsion() reads the level off the order of tau**s modulo phi_a; the
old scan, which builds every level m = 1, 2, ... and stops at the first
full kernel, is kept here as its oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import core
from drinfeld.core import DrinfeldModule, operator_kernel, torsion
from drinfeld.errors import InseparableTorsion, MalformedInput, SearchCapExceeded
from drinfeld.fields import extend, make_field
from drinfeld.polynomials import UniPoly

F2, F3, F5 = make_field(2), make_field(3), make_field(5)
# K over its base GF(q), with s = [K : GF(q)] and the cap of the search
FIELDS = {
    "GF(2)": (F2, 12),
    "GF(3)": (F3, 12),
    "GF(4)": (make_field(2, 2), 12),
    "GF(5)": (F5, 12),
    "GF(9)/GF(3)": (extend(F3, 2)[0], 8),
    "GF(4)/GF(2)": (extend(F2, 2)[0], 8),
    "GF(8)/GF(2)": (extend(F2, 3)[0], 6),
}

SETTINGS = settings(max_examples=80)


def scan_torsion(phi, a, cap):
    """(m, level, fq_basis) from the first level whose kernel of phi_a
    has dimension r*deg(a), or None when no m <= cap has one."""
    base = phi.base
    phi_a = phi.phi(a)
    want = phi.rank * a.degree
    for m in range(1, cap + 1):
        level = phi.K if m == 1 else extend(phi.K, m)[0]
        null = operator_kernel(phi_a, level, base)
        if len(null) == want:
            return m, level, null
    return None


@st.composite
def modules(draw):
    name = draw(st.sampled_from(sorted(FIELDS)))
    K, cap = FIELDS[name]
    base = K.base
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 3))
    theta = K.element_of_rank(draw(st.integers(0, K.order - 1)))
    g = [K.element_of_rank(draw(st.integers(0, K.order - 1))) for _ in range(r - 1)]
    g.append(K.element_of_rank(draw(st.integers(1, K.order - 1))))
    low = draw(st.lists(st.integers(0, base.order - 1), min_size=n, max_size=n))
    return DrinfeldModule(K, theta, tuple(g)), UniPoly.from_ranks(base, low + [1]), cap


@SETTINGS
@given(modules())
def test_torsion_matches_the_level_scan(case):
    phi, a, cap = case
    try:
        tm = torsion(phi, a, cap=cap)
    except InseparableTorsion:
        assert phi.gamma(a).is_zero()
        return
    except SearchCapExceeded:
        assert scan_torsion(phi, a, cap) is None
        return
    found = scan_torsion(phi, a, cap)
    assert found is not None
    m, level, basis = found
    assert tm.m == m
    assert tm.level is level
    assert [b.rank() for b in tm.fq_basis] == [b.rank() for b in basis]


def test_s_above_one_reaches_every_kind_of_answer():
    # GF(9) over GF(3), rank 2: levels 8, 2 and 6 over K, and a cap miss
    K = FIELDS["GF(9)/GF(3)"][0]
    phi = DrinfeldModule(K, K.element_of_rank(3), (K.one_element, K.one_element))
    seen = []
    for low in ([1], [2], [0], [0, 1]):
        a = UniPoly.from_ranks(F3, low + [1])
        found = scan_torsion(phi, a, 8)
        try:
            tm = torsion(phi, a, cap=8)
        except SearchCapExceeded:
            assert found is None
            seen.append(None)
            continue
        assert (tm.m, tm.level) == found[:2]
        seen.append(tm.m)
    assert seen == [8, 2, 6, None]


def test_wrong_kernel_dimension_is_an_error(monkeypatch):
    phi = DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.one_element))
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    real = core.operator_kernel
    monkeypatch.setattr(core, "operator_kernel", lambda *args: real(*args)[:-1])
    with pytest.raises(AssertionError, match="dimension 3, not 4"):
        torsion(phi, a)


@pytest.mark.parametrize("cap", [0, -3, 2.0, True, "4"])
def test_cap_must_be_a_positive_int(cap):
    phi = DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.one_element))
    with pytest.raises(MalformedInput):
        torsion(phi, UniPoly.gen(F2), cap=cap)

