import random

import pytest

from drinfeld.core import (
    DrinfeldModule,
    GaloisElement,
    ResidueRing,
    SkewPoly,
    galois_action_matrix,
    torsion,
)
from drinfeld.errors import (
    InseparableTorsion,
    NonMonic,
    NotSquarefree,
    SearchCapExceeded,
    ZeroLeadingCoefficient,
)
from drinfeld.fields import extend, make_field
from drinfeld.polynomials import UniPoly

F2 = make_field(2)
F3 = make_field(3)
F9 = extend(F3, 2)[0]  # GF(9) above the base GF(3): tau acts as x -> x**3
T2 = UniPoly.gen(F2)
T3 = UniPoly.gen(F3)


def rank2_module():
    return DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.one_element))


def test_skew_twist_rule():
    # tau * y = y**3 * tau = 2y * tau over GF(9)
    y = F9.elem((0, 1))
    tau = SkewPoly(F9, (F9.zero_element, F9.one_element))
    prod = tau * SkewPoly.constant(y)
    assert prod.coeffs == (F9.zero_element, F9.elem((0, 2)))


def test_skew_square_char2():
    f = SkewPoly(F2, (F2.one_element, F2.one_element))  # 1 + tau
    assert (f * f).coeffs == (F2.one_element, F2.zero_element, F2.one_element)


def test_skew_associative_random():
    rng = random.Random(0)
    elems = list(F9.elements())
    for _ in range(50):
        f, g, h = (
            SkewPoly(F9, [rng.choice(elems) for _ in range(rng.randrange(1, 4))])
            for _ in range(3)
        )
        assert (f * g) * h == f * (g * h)
    f = SkewPoly(F9, [rng.choice(elems) for _ in range(3)])
    g = SkewPoly(F9, [rng.choice(elems) for _ in range(3)])
    h = SkewPoly(F9, [rng.choice(elems) for _ in range(3)])
    assert f * (g + h) == f * g + f * h
    assert f.degree + g.degree == (f * g).degree


def test_skew_apply_shape():
    theta = F9.elem((2, 1))
    f = SkewPoly(F9, (theta, F9.one_element))  # theta + tau
    for beta in F9.elements():
        assert f(beta) == theta * beta + beta**3


def test_skew_apply_linearity_and_composition():
    rng = random.Random(1)
    F8, _ = extend(F2, 3)
    elems = list(F8.elements())
    for _ in range(50):
        f = SkewPoly(F8, [rng.choice(elems) for _ in range(rng.randrange(1, 4))])
        g = SkewPoly(F8, [rng.choice(elems) for _ in range(rng.randrange(1, 4))])
        beta = rng.choice(elems)
        assert (f * g)(beta) == f(g(beta))
        assert f(F8.zero_element).is_zero()


def test_make_drinfeld_examples():
    phi = DrinfeldModule(F2, F2.one_element, (F2.one_element,))
    assert phi.rank == 1
    assert phi.phi_T.render() == "1 + tau"
    assert phi.char_poly() == UniPoly.from_ranks(F2, [1, 1])  # T + 1
    phi2 = rank2_module()
    assert phi2.phi_T.render() == "1 + tau + tau^2"
    with pytest.raises(ZeroLeadingCoefficient):
        DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.zero_element))


def test_phi_image_unital_and_example():
    phi2 = rank2_module()
    assert phi2.phi(UniPoly.one(F2)) == SkewPoly.one(F2)
    img = phi2.phi(T2 * T2)
    # hand expansion of (1 + tau + tau**2)**2 in char 2
    assert img == SkewPoly(
        F2,
        (F2.one_element, F2.zero_element, F2.one_element, F2.zero_element,
         F2.one_element),
    )
    assert img.degree == 4


def test_phi_is_ring_homomorphism_random():
    rng = random.Random(2)
    phi2 = rank2_module()
    phi9 = DrinfeldModule(F9, F9.elem((0, 1)), (F9.one_element, F9.elem((1, 1))))
    for phi, base in ((phi2, F2), (phi9, F3)):
        for _ in range(30):
            a = UniPoly.from_ranks(base, [rng.randrange(base.order) for _ in range(3)])
            b = UniPoly.from_ranks(base, [rng.randrange(base.order) for _ in range(3)])
            assert phi.phi(a * b) == phi.phi(a) * phi.phi(b)
            assert phi.phi(a + b) == phi.phi(a) + phi.phi(b)
            # constant coefficient is gamma(a) = a(theta)
            img = phi.phi(a)
            assert img[0] == phi.gamma(a).embed_to(phi.K)


def test_phi_tau_degree():
    phi2 = rank2_module()
    for d in (1, 2, 3):
        a = UniPoly.gen(F2) ** d
        assert phi2.phi(a).degree == 2 * d


def test_det_module_signs():
    phi1 = DrinfeldModule(F3, F3.one_element, (F3.element_of_rank(2),))
    assert phi1.det_module() == phi1  # rank 1: sign is +1
    c = F3.element_of_rank(2)
    phi2 = DrinfeldModule(F3, F3.one_element, (F3.one_element, c))
    assert phi2.det_module().g == (-c,)
    phi3 = DrinfeldModule(F3, F3.one_element, (F3.one_element, F3.one_element, c))
    assert phi3.det_module().g == (c,)


def test_torsion_rank2_oracle():
    # independent oracle: exhaustive scan for x + x**2 + x**4 = 0 in GF(8)
    phi2 = rank2_module()
    tm = torsion(phi2, T2)
    assert tm.m == 3
    F8, _ = extend(F2, 3)
    assert tm.level is F8
    expected = {x for x in F8.elements() if (x + x**2 + x**4).is_zero()}
    assert set(tm.points()) == expected
    assert tm.count() == 4
    assert len(tm.fq_basis) == 2


def test_torsion_rank1_oracle():
    phi = DrinfeldModule(F2, F2.one_element, (F2.one_element,))
    tm = torsion(phi, T2)
    assert tm.m == 1
    assert {p.rank() for p in tm.points()} == {0, 1}


def test_torsion_inseparable():
    phi2 = rank2_module()
    with pytest.raises(InseparableTorsion) as info:
        torsion(phi2, UniPoly.from_ranks(F2, [1, 1]))
    assert "T + 1" in str(info.value)


def test_torsion_rejects_nonmonic():
    phi9 = DrinfeldModule(F9, F9.elem((0, 1)), (F9.one_element, F9.one_element))
    with pytest.raises(NonMonic):
        torsion(phi9, UniPoly.from_ranks(F3, [1, 2]))


def test_torsion_cap():
    phi2 = rank2_module()
    with pytest.raises(SearchCapExceeded):
        torsion(phi2, UniPoly.from_ranks(F2, [1, 1, 1]), cap=2)


def test_torsion_counts_and_submodule():
    rng = random.Random(3)
    phi2 = rank2_module()
    for coeffs in ([0, 1], [1, 1, 1]):
        a = UniPoly.from_ranks(F2, coeffs)
        tm = torsion(phi2, a)
        assert tm.count() == 2 ** (2 * a.degree)
        assert len(tm.points()) == len(set(tm.points()))
        # torsion is a module over the operator ring
        pts = tm.points()
        for _ in range(10):
            b = UniPoly.from_ranks(F2, [rng.randrange(2) for _ in range(4)])
            beta = rng.choice(pts)
            assert tm.contains(phi2.phi(b)(beta))


def test_a_basis_generates_everything():
    phi2 = rank2_module()
    for coeffs in ([0, 1], [1, 1, 1]):
        a = UniPoly.from_ranks(F2, coeffs)
        tm = torsion(phi2, a)
        basis = tm.a_basis()
        assert len(basis) == 2
        generated = set()
        for b1 in tm.residues():
            for b2 in tm.residues():
                generated.add(phi2.phi(b1)(basis[0]) + phi2.phi(b2)(basis[1]))
        assert generated == set(tm.points())


def test_a_basis_rank1_any_nonzero():
    phi = DrinfeldModule(F2, F2.one_element, (F2.one_element,))
    tm = torsion(phi, T2)
    (gen,) = tm.a_basis()
    assert not gen.is_zero()


def test_a_basis_rejects_non_squarefree():
    phi2 = rank2_module()
    tm = torsion(phi2, T2 * T2)
    with pytest.raises(NotSquarefree):
        tm.a_basis()


def test_galois_matrix_identity_and_homomorphism():
    phi2 = rank2_module()
    tm = torsion(phi2, T2)
    basis = tm.a_basis()
    ring = ResidueRing(T2)
    eye = galois_action_matrix(tm, GaloisElement(0), basis)
    assert eye[0][0] == ring.one() and eye[1][1] == ring.one()
    assert eye[0][1].is_zero() and eye[1][0].is_zero()

    def matmul(x, y):
        n = len(x)
        return [
            [
                ring.reduce(sum((x[i][k] * y[k][j] for k in range(n)),
                                UniPoly.zero(F2)))
                for j in range(n)
            ]
            for i in range(n)
        ]

    m1 = galois_action_matrix(tm, GaloisElement(1), basis)
    for k in range(2, tm.m + 1):
        mk = galois_action_matrix(tm, GaloisElement(k), basis)
        prev = galois_action_matrix(tm, GaloisElement(k - 1), basis)
        assert mk == matmul(m1, prev)
    # order of Frobenius on the splitting level
    assert galois_action_matrix(tm, GaloisElement(tm.m), basis) == eye


def test_galois_det_hand_example():
    # Frobenius permutes the roots of x**3 + x + 1; its matrix on the
    # 2-dimensional torsion has determinant 1 = the trivial action on
    # the determinant module's T-torsion, which sits inside GF(2)
    phi2 = rank2_module()
    tm = torsion(phi2, T2)
    basis = tm.a_basis()
    ring = ResidueRing(T2)
    det = ring.det(galois_action_matrix(tm, GaloisElement(1), basis))
    assert det == ring.one()
    psi = phi2.det_module()
    tpsi = torsion(psi, T2)
    assert {p.rank() for p in tpsi.points()} == {0, 1}  # inside K


def test_residue_ring_inverse():
    ring = ResidueRing(UniPoly.from_ranks(F3, [1, 0, 1]))
    u = UniPoly.from_ranks(F3, [1, 1])
    inv = ring.inv(u)
    assert ring.mul(u, inv) == ring.one()
    with pytest.raises(ZeroDivisionError):
        ring.inv(UniPoly.zero(F3))


def test_module_json_roundtrip():
    phi9 = DrinfeldModule(F9, F9.elem((0, 1)), (F9.one_element, F9.elem((1, 1))))
    again = DrinfeldModule.from_json(phi9.to_json())
    assert again == phi9


def test_torsion_json_shape():
    phi2 = rank2_module()
    tm = torsion(phi2, T2)
    tm.a_basis()
    obj = tm.to_json()
    assert obj["extension_degree_over_K"] == 3
    assert len(obj["fq_basis"]) == 2
    assert len(obj["a_basis"]) == 2


def combination_span(basis, level, base):
    """Every base-field combination built on its own, one multiply-add
    per nonzero coefficient, in `rank_vectors` order."""
    from drinfeld.polynomials import rank_vectors

    scalars = [c.embed_to(level) for c in base.elements()]
    out = []
    for combo in rank_vectors(base.order, len(basis)):
        acc = level.zero_element
        for c, b in zip(combo, basis):
            if c:
                acc = acc + scalars[c] * b
        out.append(acc)
    return out


GF4 = make_field(2, 2)
GF8 = extend(F2, 3)[0]


@pytest.mark.parametrize(
    "base, source, level",
    [(F2, None, extend(F2, 5)[0]), (F3, None, extend(F3, 3)[0]),
     (GF4, None, extend(GF4, 3)[0]), (F3, F3, F9), (GF4, GF4, extend(GF4, 2)[0]),
     (F2, GF8, extend(GF8, 6)[0])],  # GF(2^18) stores tuples over GF(8)
)
def test_fq_span_matches_combination_oracle(base, source, level):
    from drinfeld.core import fq_span

    source = source or level
    rng = random.Random(level.order)
    for size in range(4):
        basis = [source.element_of_rank(rng.randrange(source.order)) for _ in range(size)]
        got = fq_span(basis, level, base)
        assert got == combination_span(basis, level, base)
        assert all(x.ctx is level for x in got)


def test_torsion_points_match_combination_oracle():
    tm = torsion(rank2_module(), UniPoly.from_ranks(F2, [1, 1, 1]))
    assert list(tm.points()) == combination_span(tm.fq_basis, tm.level, F2)
    phi = DrinfeldModule(F9, F9.element_of_rank(4), (F9.one_element, F9.element_of_rank(2)))
    tm = torsion(phi, T3)
    assert list(tm.points()) == combination_span(tm.fq_basis, tm.level, F3)
