import random

import pytest

from drinfeld.core import (
    DrinfeldModule,
    ResidueRing,
    SkewPoly,
    galois_action_matrix,
    galois_det_table,
    torsion,
)
from drinfeld.errors import (
    InseparableTorsion,
    MalformedInput,
    NonMonic,
    PointNotInModule,
    SearchCapExceeded,
    ZeroLeadingCoefficient,
)
from drinfeld.fields import as_vector, dim_between, extend, make_field, solve
from drinfeld.polynomials import UniPoly, poly_gcd, rank_vectors

F2 = make_field(2)
F3 = make_field(3)
F9 = extend(F3, 2)  # GF(9) above the base GF(3): tau acts as x -> x**3
T2 = UniPoly.gen(F2)
T3 = UniPoly.gen(F3)


def rank2_module():
    return DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.one_element))


def test_skew_twist_rule():
    # tau * y = y**3 * tau = 2y * tau over GF(9)
    y = F9.element_from_json((0, 1))
    tau = SkewPoly(F9, (F9.zero_element, F9.one_element))
    prod = tau * SkewPoly.constant(y)
    assert prod.coeffs == (F9.zero_element, F9.element_from_json((0, 2)))


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
    theta = F9.element_from_json((2, 1))
    f = SkewPoly(F9, (theta, F9.one_element))  # theta + tau
    for beta in F9.elements():
        assert f(beta) == theta * beta + beta**3


def test_skew_apply_linearity_and_composition():
    rng = random.Random(1)
    F8 = extend(F2, 3)
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


def solved_char_poly(phi):
    """Minimal polynomial of theta over GF(q) by linear solves of growing
    size, an independent oracle: the least d for which theta**d is a
    GF(q)-combination of 1, theta, ..., theta**(d-1)."""
    base = phi.base
    powers = [as_vector(phi.theta**i, base) for i in range(dim_between(phi.K, base) + 1)]
    for d in range(1, len(powers)):
        sol = solve([list(row[:d]) for row in zip(*powers)], powers[d])
        if sol is not None:
            return UniPoly(base, [-c for c in sol] + [base.one_element])


@pytest.mark.parametrize("base, degrees", [
    (make_field(2), (2, 3)),
    (make_field(2, 2), (3,)),
    (F3, (2, 2)),
    (make_field(3, 2), (2,)),
], ids=["GF(2^6)/GF(2)", "GF(4^3)/GF(4)", "GF(81)/GF(3)", "GF(9^2)/GF(9)"])
def test_char_poly_matches_solved_minimal_polynomial_on_towers(base, degrees):
    K = base
    for m in degrees:
        K = extend(K, m)
    for theta in K.elements():
        phi = DrinfeldModule(K, theta, (K.one_element,))
        assert phi.char_poly() == solved_char_poly(phi), theta


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
    phi9 = DrinfeldModule(F9, F9.element_from_json((0, 1)),
                          (F9.one_element, F9.element_from_json((1, 1))))
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
    F8 = extend(F2, 3)
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
    phi9 = DrinfeldModule(F9, F9.element_from_json((0, 1)), (F9.one_element, F9.one_element))
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
            assert phi2.phi(a)(phi2.phi(b)(beta)).is_zero()


def test_a_basis_generates_everything():
    phi2 = rank2_module()
    for coeffs in ([0, 1], [1, 1, 1]):
        a = UniPoly.from_ranks(F2, coeffs)
        tm = torsion(phi2, a)
        basis = tm.a_basis()
        assert len(basis) == 2
        residues = [UniPoly.from_ranks(F2, list(c)) for c in rank_vectors(2, a.degree)]
        generated = set()
        for b1 in residues:
            for b2 in residues:
                generated.add(phi2.phi(b1)(basis[0]) + phi2.phi(b2)(basis[1]))
        assert generated == set(tm.points())


def test_a_basis_rank1_any_nonzero():
    phi = DrinfeldModule(F2, F2.one_element, (F2.one_element,))
    tm = torsion(phi, T2)
    (gen,) = tm.a_basis()
    assert not gen.is_zero()


def enumeration_a_basis(tm, seed=0):
    """The module basis by exhaustive search, as `a_basis` once found it:
    draw r nonzero points from `points()` and accept them when the
    q**(n*r) combinations sum(phi_(c_j)(beta_j)) are all distinct.
    Returns the basis and the table point -> coordinates."""
    base = tm.phi.base
    residues = [
        UniPoly(base, [base.element_of_rank(x) for x in ranks])
        for ranks in rank_vectors(base.order, tm.a.degree)
    ]
    images = [tm.phi.phi(b) for b in residues]
    nonzero = [p for p in tm.points() if not p.is_zero()]
    rng = random.Random(seed)
    for _ in range(200):
        candidate = tuple(rng.choice(nonzero) for _ in range(tm.rank))
        table = {}
        for combo in rank_vectors(len(residues), tm.rank):
            acc = tm.level.zero_element
            for slot, idx in enumerate(combo):
                acc = acc + images[idx](candidate[slot])
            if acc in table:
                break
            table[acc] = tuple(residues[idx] for idx in combo)
        if len(table) == tm.count():
            return candidate, table
    raise AssertionError("no module basis in 200 draws")


def assert_matches_enumeration(tm):
    basis, table = enumeration_a_basis(tm)
    assert tm.a_basis() == basis
    assert {p: tm.coordinates(p) for p in tm.points()} == table


def _stock_and_golden_configs():
    """The stock bundle's det configs and the golden CLI configs."""
    from drinfeld.verify import VerificationConfig, default_bundle

    from test_cli_golden import CONFIGS

    configs = [e.config for e in default_bundle() if "det" in e.suites]
    return configs + [
        VerificationConfig.from_json({k: v for k, v in c.items() if k != "label"})
        for c in CONFIGS
    ]


def _stock_and_golden_modules():
    for cfg in _stock_and_golden_configs():
        phi = cfg.module()
        for a in cfg.a_polys():
            for module in (phi, phi.det_module()):
                yield module, a


def test_a_basis_matches_enumeration_on_stock_and_golden_configs():
    cases = list(_stock_and_golden_modules())
    assert len(cases) == 18
    for module, a in cases:
        assert_matches_enumeration(torsion(module, a))


@pytest.mark.parametrize("base", [F2, F3, make_field(2, 2)], ids=["q2", "q3", "q4"])
def test_a_basis_matches_enumeration_on_random_squarefree(base):
    rng = random.Random(base.order)
    checked = 0
    while checked < 12:
        r, n = rng.randint(1, 3), rng.randint(1, 2)
        if base.order ** (r * n) > 729:
            continue
        nonzero = [base.element_of_rank(x) for x in range(1, base.order)]
        g = [base.element_of_rank(rng.randrange(base.order)) for _ in range(r - 1)]
        phi = DrinfeldModule(base, rng.choice(nonzero), tuple(g) + (rng.choice(nonzero),))
        a = UniPoly.from_ranks(base, [rng.randrange(base.order) for _ in range(n)] + [1])
        if poly_gcd(a, a.derivative()).degree != 0 or phi.gamma(a).is_zero():
            continue
        try:
            tm = torsion(phi, a, cap=24)
        except SearchCapExceeded:
            continue
        assert_matches_enumeration(tm)
        checked += 1


def test_a_basis_non_squarefree_matches_enumeration():
    phi2 = rank2_module()
    for a in (T2**2, T2**3):
        tm = torsion(phi2, a)
        assert_matches_enumeration(tm)
        assert tm.count() == 2 ** (2 * a.degree)


def test_a_basis_and_coordinates_never_enumerate(monkeypatch):
    import drinfeld.core as core

    def no_span(*args):
        raise AssertionError("fq_span enumerates the torsion")

    monkeypatch.setattr(core, "fq_span", no_span)
    one, zero = F2.one_element, F2.zero_element
    phi = DrinfeldModule(F2, one, (zero,) * 5 + (one,))
    a = UniPoly.from_ranks(F2, [0, 1, 1, 1])
    tm = torsion(phi, a)
    assert tm.count() == 2**18
    basis = tm.a_basis()
    assert tm.coordinates(basis[2]) == tuple(
        UniPoly.one(F2) if j == 2 else UniPoly.zero(F2) for j in range(6)
    )
    beta = tm.fq_basis[-1]
    rebuilt = tm.level.zero_element
    for c, b in zip(tm.coordinates(beta), basis):
        rebuilt = rebuilt + phi.phi(c)(b)
    assert rebuilt == beta


def test_coordinates_reject_points_outside_the_torsion():
    tm = torsion(rank2_module(), T2)
    assert tm.level is not F2
    for x in F2.elements():  # points of K, one level down
        with pytest.raises(PointNotInModule):
            tm.coordinates(x)
    phi_a = tm.phi.phi(T2)
    outside = next(x for x in tm.level.elements() if not phi_a(x).is_zero())
    with pytest.raises(PointNotInModule):
        tm.coordinates(outside)


def test_galois_matrix_identity_and_homomorphism():
    phi2 = rank2_module()
    tm = torsion(phi2, T2)
    ring = ResidueRing(T2)
    eye = galois_action_matrix(tm, 0)
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

    m1 = galois_action_matrix(tm, 1)
    for k in range(2, tm.m + 1):
        mk = galois_action_matrix(tm, k)
        prev = galois_action_matrix(tm, k - 1)
        assert mk == matmul(m1, prev)
    # order of Frobenius on the splitting level
    assert galois_action_matrix(tm, tm.m) == eye


def test_galois_det_hand_example():
    # Frobenius permutes the roots of x**3 + x + 1; its matrix on the
    # 2-dimensional torsion has determinant 1 = the trivial action on
    # the determinant module's T-torsion, which sits inside GF(2)
    phi2 = rank2_module()
    tm = torsion(phi2, T2)
    ring = ResidueRing(T2)
    det = ring.det(galois_action_matrix(tm, 1))
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
    phi9 = DrinfeldModule(F9, F9.element_from_json((0, 1)),
                          (F9.one_element, F9.element_from_json((1, 1))))
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
GF8 = extend(F2, 3)


@pytest.mark.parametrize(
    "base, source, level",
    [(F2, None, extend(F2, 5)), (F3, None, extend(F3, 3)),
     (GF4, None, extend(GF4, 3)), (F3, F3, F9), (GF4, GF4, extend(GF4, 2)),
     (F2, GF8, extend(GF8, 6))],  # GF(2^18) stores tuples over GF(8)
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


def test_a_basis_and_coordinates_agree_on_every_call():
    phi2 = rank2_module()
    a = UniPoly.from_ranks(F2, [1, 1, 1])
    tm = torsion(phi2, a)
    coords = {p: tm.coordinates(p) for p in tm.points()}  # before any a_basis call
    basis = tm.a_basis()
    assert tm.a_basis() is basis
    one, zero = UniPoly.one(F2), UniPoly.zero(F2)
    for j, beta in enumerate(basis):
        assert tm.coordinates(beta) == tuple(one if i == j else zero for i in range(2))
    assert {p: tm.coordinates(p) for p in tm.points()} == coords
    fresh = torsion(phi2, a)
    assert fresh.a_basis() == basis
    assert {p: fresh.coordinates(p) for p in fresh.points()} == coords
    assert galois_action_matrix(tm, 1) == galois_action_matrix(fresh, 1)
    with pytest.raises(TypeError):
        tm.a_basis(5)  # no seed: one basis per module
    with pytest.raises(MalformedInput, match="Frobenius exponent"):
        galois_action_matrix(tm, 1.0)


def _action_matrix(tm, basis, table, k):
    """sigma**k on phi[a] over any module basis, from its enumeration table."""
    s = dim_between(tm.phi.K, tm.phi.base)
    cols = [table[beta.frobenius(k * s)] for beta in basis]
    return [list(row) for row in zip(*cols)]


def test_galois_dets_and_scalars_do_not_depend_on_the_basis():
    changed = []
    for cfg in _stock_and_golden_configs():
        phi = cfg.module()
        psi = phi.det_module()
        for a in cfg.a_polys():
            rows = galois_det_table(phi, psi, a)
            tm, tpsi = torsion(phi, a), torsion(psi, a)
            s = dim_between(psi.K, psi.base)
            ring = ResidueRing(a)
            bases = set()
            for seed in range(5):
                basis, table = enumeration_a_basis(tm, seed)
                (gen,), psi_table = enumeration_a_basis(tpsi, seed)
                bases.add(basis)
                for k, det, scalar in rows:
                    assert ring.det(_action_matrix(tm, basis, table, k)) == det
                    assert psi_table[gen.frobenius(k * s)][0] == scalar
            changed.append(len(bases) > 1)
    assert changed == [True] * 9  # each module got other bases from other seeds


def test_point_index_outside_the_points_raises():
    tm = torsion(rank2_module(), UniPoly.from_ranks(F2, [1, 1, 1]))
    assert tm.point(tm.count() - 1) == tm.points()[-1]
    for index in (tm.count(), tm.count() + 1, -1):
        with pytest.raises(IndexError):
            tm.point(index)
