"""`weil_polynomial`'s Horner contraction (`pairing._horner`) on packed
int entries against its dict loop (packed=False), both called on the
same twisted rows and f_a terms: random modules over GF(2), GF(3),
GF(5) and GF(7) at rank 1-5, deg a 1-3, arity r and r-1; every
coefficient p-1 at the largest p whose slot fits at n = r = 3; no field
product or sum on the packed path; the levels and boxes that keep the
dict loop; and a twisted operator given a term above the degree bound,
which `leading.degree_bound` must catch on either path."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import pairing
from drinfeld.core import DrinfeldModule
from drinfeld.fields import make_field
from drinfeld.polynomials import UniPoly
from drinfeld.verify import VerificationConfig, verify_leading_term

PRIMES = (2, 3, 5, 7)


def _dict_terms(inputs):
    zero = inputs[0].zero()
    return {key: v for key, v in pairing._horner(*inputs, packed=False).items() if v != zero}


def forbidden(*args):
    raise AssertionError("a field operation")


def _no_field_ops(monkeypatch, K):
    """K's mul and add raise until the patch is undone."""
    monkeypatch.setattr(K, "mul", forbidden)
    monkeypatch.setattr(K, "add", forbidden)


def _module(p, theta, g, a):
    K = make_field(p)
    return (DrinfeldModule(K, K.element_of_rank(theta), [K.element_of_rank(c) for c in g]),
            UniPoly.from_ranks(K, a))


@st.composite
def cases(draw):
    """A module over GF(p) of rank 1-5 with g_r != 0, a monic a of
    degree 1-3 (1-2 at rank 5, where the dict loop takes seconds), and
    an arity of r or r-1."""
    p = draw(st.sampled_from(PRIMES))
    r = draw(st.integers(1, 5))
    n = draw(st.integers(1, 3 if r <= 4 else 2))
    digit = st.integers(0, p - 1)
    g = draw(st.lists(digit, min_size=r - 1, max_size=r - 1)) + [draw(st.integers(1, p - 1))]
    a = draw(st.lists(digit, min_size=n, max_size=n)) + [1]
    phi, a = _module(p, draw(digit), g, a)
    return phi, a, draw(st.sampled_from(sorted({r, r - 1} - {0})))


@settings(max_examples=150, deadline=None)
@given(cases())
def test_packed_build_equals_the_dict_loop(case):
    inputs = pairing._horner_inputs(*case)
    assert pairing._horner(*inputs) == _dict_terms(inputs)


@pytest.mark.parametrize("p", [2, 3])
def test_rank5_cubic_a_packed_equals_the_dict_loop(p):
    # g = (0, 0, 0, 0, 1) keeps the dict loop fast at r = 5, n = 3
    phi, a = _module(p, 1, [0, 0, 0, 0, 1], [0, 1, 1, 1])
    for r in (5, 4):
        inputs = pairing._horner_inputs(phi, a, r)
        assert pairing._horner(*inputs) == _dict_terms(inputs)


def test_every_coefficient_p_minus_1_at_the_widest_fitting_slot(monkeypatch):
    # at n = r = 3 a slot takes 9*(p-1)**2: two bytes, 2*(p-1) < 256, up to p = 83
    phi, a = _module(83, 82, [82, 82, 82], [82, 82, 82, 1])
    inputs = pairing._horner_inputs(phi, a, 3)
    _no_field_ops(monkeypatch, phi.K)
    packed = pairing._horner(*inputs)
    monkeypatch.undo()
    assert packed == _dict_terms(inputs) and len(set(packed.values())) > 1


def test_p_89_at_n_r_3_keeps_the_dict_loop(monkeypatch):
    # three-byte slots, and 3*88 >= 256
    phi, a = _module(89, 88, [88, 88, 88], [88, 88, 88, 1])
    inputs = pairing._horner_inputs(phi, a, 3)
    _no_field_ops(monkeypatch, phi.K)
    with pytest.raises(AssertionError, match="field operation"):
        pairing._horner(*inputs)


@pytest.mark.parametrize("p", PRIMES)
def test_the_packed_path_makes_no_field_product_or_sum(monkeypatch, p):
    phi, a = _module(p, 1, [p - 1, 1, 1, 1], [1, 0, p - 1, 1])
    inputs = pairing._horner_inputs(phi, a, 4)
    _no_field_ops(monkeypatch, phi.K)
    packed = pairing._horner(*inputs)
    with pytest.raises(AssertionError, match="field operation"):
        pairing._horner(*inputs, packed=False)
    monkeypatch.undo()
    assert packed and packed == _dict_terms(inputs)


@pytest.mark.parametrize("p, e, r, n", [
    (2, 2, 3, 2),  # GF(4): a tower level
    (3, 2, 3, 2),  # GF(9)
    (131, 1, 2, 1),  # w*(p-1) = 2*130 >= 256
    (3, 1, 6, 3),  # 18**6 one-byte slots, above the box cap
], ids=["GF(4)", "GF(9)", "GF(131)", "box above the cap"])
def test_levels_off_the_packed_domain_keep_the_dict_loop(monkeypatch, p, e, r, n):
    K = make_field(p, e)
    phi = DrinfeldModule(K, K.one_element, [K.one_element] * r)
    inputs = pairing._horner_inputs(phi, UniPoly.from_ranks(K, [0] + [1] * n), r)
    _no_field_ops(monkeypatch, K)
    with pytest.raises(AssertionError, match="field operation"):
        pairing._horner(*inputs)


@pytest.mark.parametrize("cfg, packed", [
    (VerificationConfig(p=2, theta=1, g=(1, 1), a_list=((1, 1, 1),)), True),
    (VerificationConfig(p=3, theta=2, g=(1, 2), a_list=((1, 0, 1),)), True),
    (VerificationConfig(p=2, e=2, theta=2, g=(1, 3), a_list=((1, 1, 1),)), False),
], ids=["GF(2)", "GF(3)", "GF(4)"])
def test_mutation_a_twisted_term_above_the_bound_fails_degree_bound(monkeypatch, cfg, packed):
    # phi_{T^(n-1)} gains tau**(rn), one above its degree r(n-1) + r - 1
    real_inputs, real_horner, field_ops = pairing._horner_inputs, pairing._horner, []

    def with_high_term(phi, a, r):
        K, twisted, leaves, r = real_inputs(phi, a, r)
        one, rn = K.one(), phi.rank * a.degree
        top = [([*plus, (rn + t, one)], [*minus, (rn + t, K.neg(one))])
               for t, (plus, minus) in enumerate(twisted[-1])]
        return K, twisted[:-1] + [top], leaves, r

    def counted(K, *args):
        real_mul, calls = K.mul, []
        with monkeypatch.context() as patch:
            patch.setattr(K, "mul", lambda *x: calls.append(x) or real_mul(*x))
            terms = real_horner(K, *args)
        field_ops.append(len(calls))
        return terms

    monkeypatch.setattr(pairing, "_horner_inputs", with_high_term)
    monkeypatch.setattr(pairing, "_horner", counted)
    report = verify_leading_term(cfg)
    (check,) = [c for c in report.failures() if c.name.startswith("leading.degree_bound")]
    counterexample = check.counterexample
    assert counterexample["identity"] == "w_degree_bound"
    assert counterexample["lhs"] > counterexample["rhs"] == 2 * 2 - 1
    assert len(field_ops) == 2 and (max(field_ops) == 0) is packed
