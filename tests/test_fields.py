import itertools
import random

import pytest
import sympy

from drinfeld.errors import (
    DivisionByZero,
    InvalidDegree,
    LevelMismatch,
    MalformedInput,
    NonPrimeCharacteristic,
    NotInSubfield,
    ReducibleModulus,
    WrongLength,
)
from drinfeld import fields
from drinfeld.core import DrinfeldModule
from drinfeld.fields import (
    FieldCtx,
    as_vector,
    determinant,
    dim_between,
    extend,
    field_from_descriptor,
    from_vector,
    kernel,
    make_field,
    solve,
)
from drinfeld.polynomials import UniPoly


F2 = make_field(2)
F3 = make_field(3)
F9 = make_field(3, 2)


def test_make_field_prime():
    assert F2.order == 2
    assert F2.q == 2
    assert (F2.one_element + F2.one_element).is_zero()


def test_make_field_f9_modulus():
    # y**2 + 1 is irreducible mod 3 and is the first candidate found
    assert F9.modulus == (1, 0, 1)
    y = F9.element_from_json((0, 1))
    assert (y * y).to_json() == [2, 0]


@pytest.mark.parametrize("p", [0, 1, -7, 4, 91, True])
def test_make_field_rejects_every_non_prime(p):
    with pytest.raises(NonPrimeCharacteristic):
        make_field(p)
    with pytest.raises(NonPrimeCharacteristic):  # reported before a bad degree
        make_field(p, 0)


@pytest.mark.parametrize("p", [2, 3, 65537])
def test_make_field_accepts_primes(p):
    ctx = make_field(p)
    assert ctx.order == p and ctx.parent is None and make_field(p) is ctx


def test_prime_factors_is_the_primality_test():
    for n in range(-20, 5001):
        assert (fields._prime_factors(n) == [n]) == sympy.isprime(n), n


def test_make_field_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, modulus=[2, 0, 1])  # y**2 - 1 = (y-1)(y+1)


def test_make_field_accepts_given_irreducible():
    ctx = make_field(3, 2, modulus=[1, 0, 1])
    assert ctx is F9


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F3.one_element / F3.zero_element
    with pytest.raises(DivisionByZero):
        F9.zero_element.inverse()


def test_field_axioms_sampled():
    rng = random.Random(0)
    elements = list(F9.elements())
    for _ in range(200):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_pow_matches_repeated_multiplication():
    for x in F9.elements():
        acc = F9.one_element
        for e in range(5):
            assert x**e == acc
            acc = acc * x


def test_fermat_sweep_small_fields():
    for ctx in (F2, F3, F9, extend(F2, 4)):
        for x in ctx.elements():
            assert x**ctx.order == x


def test_fermat_sweep_sampled_large_field():
    big = extend(F2, 13)
    assert big.order > 4096
    rng = random.Random(1)
    for _ in range(50):
        x = big.element_of_rank(rng.randrange(big.order))
        assert x**big.order == x


def test_frobenius_is_qth_power():
    F8 = extend(F2, 3)
    for ctx in (F9, F8):
        q = ctx.q
        for x in ctx.elements():
            for k in range(2 * ctx.dim_over_prime + 1):
                assert x.frobenius(k) == x ** (q**k)


def test_frobenius_fixes_base():
    # q here is 9, so the 9-power Frobenius fixes all of GF(9)
    top = extend(F9, 2)
    for x in F9.elements():
        assert x.frobenius(1) == x
        lifted = x.embed_to(top)
        assert lifted.frobenius(1) == lifted


@pytest.mark.parametrize("k", [True, 1.0])
def test_frobenius_exponent_must_be_an_int(k):
    # x.frobenius(True) used to return x**q, x.frobenius(1.0) die with TypeError
    x = extend(F2, 3).element_of_rank(3)
    with pytest.raises(MalformedInput, match="Frobenius exponent"):
        x.frobenius(k)


def test_frobenius_example_f9_over_f3():
    # GF(9) as an extension of the base GF(3): tau is x -> x**3 there
    F9e = extend(F3, 2)
    y = F9e.element_from_json((0, 1))
    assert y.frobenius(1) == y**3
    assert y**3 == F9e.element_from_json((0, 2))
    assert y.frobenius(0) == y


def test_frobenius_identity_on_base_gf9():
    # GF(9) built as a base field has q = 9, so its Frobenius is trivial
    assert F9.q == 9
    for x in F9.elements():
        assert x.frobenius(1) == x


def test_frobenius_linear_and_multiplicative():
    F8 = extend(F2, 3)
    for x in F8.elements():
        for z in F8.elements():
            assert (x + z).frobenius(1) == x.frobenius(1) + z.frobenius(1)
            assert (x * z).frobenius(1) == x.frobenius(1) * z.frobenius(1)


def test_extend_finds_standard_modulus():
    F8 = extend(F2, 3)
    assert F8.modulus == (1, 1, 0, 1)  # x**3 + x + 1


def test_extend_rejects_bad_degree():
    with pytest.raises(InvalidDegree):
        extend(F2, 0)


@pytest.mark.parametrize("degree", [True, 2.0])
def test_extension_degree_must_be_an_int(degree):
    # make_field(2, True) used to return GF(2), extend(F2, 2.0) die with TypeError
    with pytest.raises(MalformedInput):
        make_field(2, degree)
    with pytest.raises(MalformedInput):
        extend(F2, degree)


def test_extend_returns_the_cached_level():
    # the level itself, and the identical object on every call
    assert isinstance(extend(F2, 3), FieldCtx)
    assert extend(F2, 3) is extend(F2, 3)


def test_make_field_searches_for_its_modulus_once(monkeypatch):
    first = make_field(7, 3)

    def no_search(ctx, f):
        raise AssertionError(f"tested candidate {f} over {ctx!r} again")

    monkeypatch.setattr(fields, "_is_irreducible", no_search)
    assert make_field(7, 3) is first
    # extend shares the search over the prime field
    assert extend(make_field(7), 3).modulus == first.modulus


def test_embedding_is_ring_homomorphism():
    F4 = extend(F2, 2)
    F16 = extend(F4, 2)
    elements = list(F4.elements())
    images = {x.embed_to(F16) for x in elements}
    assert len(images) == len(elements)  # injective
    for x in elements:
        for z in elements:
            assert (x + z).embed_to(F16) == x.embed_to(F16) + z.embed_to(F16)
            assert (x * z).embed_to(F16) == x.embed_to(F16) * z.embed_to(F16)


def test_tower_embeddings_compose():
    F4 = extend(F2, 2)
    F16 = extend(F4, 2)
    for x in F2.elements():
        assert x.embed_to(F16) == x.embed_to(F4).embed_to(F16)


def test_hash_agrees_with_eq_and_levels_stay_apart():
    # equal elements hash alike; the hash is the payload's, so elements of
    # two levels with one payload collide in a dict but stay two keys
    F4 = extend(F2, 2)
    F8 = extend(F2, 3)
    for level in (F2, F4, F8, make_field(3, 2), extend(F2, 31)):
        for x in itertools.islice(level.elements(), 8):
            y = fields.FieldElement(level, x.val)
            assert x == y and hash(x) == hash(y)
    table = {}
    for level in (F4, F8, make_field(2, 2)):
        for x in level.elements():
            table[x] = level
    assert len(table) == 4 + 8 + 4
    assert all(table[x] is level for level in (F4, F8) for x in level.elements())
    assert F4.one_element != F8.one_element and hash(F4.one_element) == hash(F8.one_element)


def test_incomparable_levels_raise():
    F4 = extend(F2, 2)
    F8 = extend(F2, 3)
    with pytest.raises(LevelMismatch):
        F4.one_element + F8.one_element


def test_project_roundtrip_and_failure():
    F4 = extend(F2, 2)
    one = F2.one_element.embed_to(F4)
    assert one.project_to(F2) == F2.one_element
    gen = F4.element_from_json((0, 1))
    with pytest.raises(NotInSubfield):
        gen.project_to(F2)


def test_as_vector_roundtrip_random():
    F16 = extend(extend(F2, 2), 2)
    rng = random.Random(2)
    for _ in range(100):
        x = F16.element_of_rank(rng.randrange(16))
        assert from_vector(as_vector(x, F2), F16) == x
    zero_vec = as_vector(F16.zero_element, F2)
    assert all(c.is_zero() for c in zero_vec)
    assert len(zero_vec) == dim_between(F16, F2)


def test_as_vector_is_linear():
    F8 = extend(F2, 3)
    for x in F8.elements():
        for z in F8.elements():
            lhs = as_vector(x + z, F2)
            rhs = [a + b for a, b in zip(as_vector(x, F2), as_vector(z, F2))]
            assert lhs == rhs


def test_from_vector_wrong_length():
    F8 = extend(F2, 3)
    with pytest.raises(WrongLength):
        from_vector([F2.one_element] * 2, F8)


def test_wrong_shape_json_entry_is_malformed_input():
    # a bare int where GF(4) needs a coordinate pair
    F4 = make_field(2, 2)
    with pytest.raises(MalformedInput):
        UniPoly.from_json({"coeffs": [5], "level": F4.descriptor()})
    module = DrinfeldModule(F4, F4.one_element, (F4.one_element,)).to_json()
    with pytest.raises(MalformedInput):
        DrinfeldModule.from_json({**module, "theta": 1})


def test_kernel_identity_and_zero():
    one, zero = F2.one_element, F2.zero_element
    eye = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert kernel(eye) == []
    zeros = [[zero] * 3 for _ in range(3)]
    basis = kernel(zeros)
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        assert [c.rank() for c in vec] == [1 if j == i else 0 for j in range(3)]


def test_kernel_hand_oracle():
    # rows {(1,1,0),(0,1,1)} over GF(2); elimination by hand gives (1,1,1)
    one, zero = F2.one_element, F2.zero_element
    rows = [[one, one, zero], [zero, one, one]]
    basis = kernel(rows)
    assert len(basis) == 1
    assert [c.rank() for c in basis[0]] == [1, 1, 1]


def _mat_vec(rows, vec):
    out = []
    for row in rows:
        acc = row[0].ctx.zero_element
        for a, x in zip(row, vec):
            acc = acc + a * x
        out.append(acc)
    return out


def test_kernel_rank_nullity_random():
    rng = random.Random(3)
    for ctx in (F2, F3):
        elements = list(ctx.elements())
        for _ in range(25):
            nrows = rng.randrange(1, 5)
            ncols = rng.randrange(1, 5)
            rows = [[rng.choice(elements) for _ in range(ncols)] for _ in range(nrows)]
            basis = kernel(rows)
            for vec in basis:
                assert all(v.is_zero() for v in _mat_vec(rows, vec))
            # independent oracle: count annihilated vectors by brute force
            count = 0
            for combo in itertools.product(elements, repeat=ncols):
                if all(v.is_zero() for v in _mat_vec(rows, list(combo))):
                    count += 1
            assert count == ctx.order ** len(basis)


def test_solve_consistent_and_inconsistent():
    one, zero = F2.one_element, F2.zero_element
    rows = [[one, one], [zero, one]]
    sol = solve(rows, [zero, one])
    assert sol is not None and _mat_vec(rows, sol) == [zero, one]
    rows2 = [[one, one], [one, one]]
    assert solve(rows2, [zero, one]) is None


ONE3, ZERO3 = F3.one_element, F3.zero_element
RAGGED = [[ONE3, ZERO3], [ONE3]]


@pytest.mark.parametrize(
    "call",
    [
        lambda: kernel([]),
        lambda: kernel([[]]),
        lambda: kernel(RAGGED),
        lambda: solve(RAGGED, [ONE3, ONE3]),
        lambda: solve([[ONE3, ONE3], [ZERO3, ONE3]], [ONE3]),  # used to drop a row
        lambda: determinant(RAGGED),
        lambda: determinant([[ONE3, ONE3, ONE3], [ZERO3, ONE3, ONE3]]),  # used to give 2
    ],
    ids=["kernel-empty", "kernel-no-columns", "kernel-ragged", "solve-ragged",
         "solve-short-rhs", "determinant-ragged", "determinant-2x3"],
)
def test_matrix_edges_check_the_shape(call):
    with pytest.raises(ValueError):
        call()


def test_determinant_matches_permutation_expansion():
    rng = random.Random(4)
    elements = list(F3.elements())
    for _ in range(20):
        n = rng.randrange(1, 4)
        rows = [[rng.choice(elements) for _ in range(n)] for _ in range(n)]
        expected = F3.zero_element
        for perm in itertools.permutations(range(n)):
            sign = sum(
                1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
            )
            term = F3.one_element
            for i in range(n):
                term = term * rows[i][perm[i]]
            expected = expected - term if sign % 2 else expected + term
        assert determinant(rows) == expected


def test_descriptor_roundtrip_identity():
    F16 = extend(extend(F2, 2), 2)
    for ctx in (F2, F9, F16):
        assert field_from_descriptor(ctx.descriptor()) is ctx


def test_element_json_roundtrip():
    F16 = extend(extend(F2, 2), 2)
    for n in range(16):
        x = F16.element_of_rank(n)
        assert F16.element_from_json(x.to_json()) == x


def test_rank_enumeration_bijective():
    F8 = extend(F2, 3)
    seen = {x.rank() for x in F8.elements()}
    assert seen == set(range(8))


# Out-of-range input from outside raises MalformedInput (a ValueError), not a bare ValueError.


def test_out_of_range_rank_is_malformed_input():
    F4 = extend(F2, 2)
    for ctx, rank in ((F2, 2), (F9, -1), (F4, 4), (extend(F2, 17), 2**17)):
        with pytest.raises(MalformedInput, match="out of range"):
            ctx.payload_of_rank(rank)


def test_modulus_for_a_prime_field_is_malformed_input():
    with pytest.raises(MalformedInput, match="e >= 2"):
        make_field(3, 1, modulus=[1, 1])


@pytest.mark.parametrize("modulus", [[1, 0, 2], [1, 0, 1, 0], [2, 1]])
def test_make_field_modulus_of_wrong_shape_is_malformed_input(modulus):
    with pytest.raises(MalformedInput, match="monic of degree 2"):
        make_field(3, 2, modulus=modulus)


@pytest.mark.parametrize(
    "e, modulus", [(1, [1, 1, 0]), (1, [1, 1, 1, 1]), (2, [[1, 0], [1, 0], [0, 1]])]
)
def test_extend_modulus_of_wrong_shape_is_malformed_input(e, modulus):
    with pytest.raises(MalformedInput, match="monic of degree 2"):
        extend(make_field(2, e), 2, modulus=modulus)


def test_descriptor_base_degree_disagreeing_with_its_tower_is_malformed_input():
    for tower in ([], [{"degree": 3, "modulus": [1, 1, 0, 1]}]):
        with pytest.raises(MalformedInput, match="disagrees with its tower"):
            field_from_descriptor({"p": 2, "e": 2, "tower": tower})
