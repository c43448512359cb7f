import functools

import pytest
from hypothesis import settings

from drinfeld.errors import LevelMismatch
from drinfeld.fields import FieldCtx, FieldElement, common_level, extend, make_field
from drinfeld.verify import default_bundle, run_suites

# every property test is reproducible: the same examples on every run
settings.register_profile("drinfeld", derandomize=True, deadline=None)
settings.load_profile("drinfeld")


@pytest.fixture(scope="session")
def bundle():
    """The stock verification bundle, keyed by label."""
    return {entry.label: entry for entry in default_bundle()}


@pytest.fixture(scope="session")
def bundle_reports(bundle):
    """Reports for every bundle entry; computed once per session."""
    return {
        label: run_suites(entry.config, entry.suites)
        for label, entry in bundle.items()
    }


def flat_evaluate(poly, betas):
    """A q-power polynomial at `betas`, in the highest of their levels and
    the coefficients', every term multiplied out in turn: the oracle for
    `PairingEvaluator`."""
    level = functools.reduce(common_level, (beta.ctx for beta in betas), poly.ctx)
    acc = level.zero_element
    for key, c in poly.terms.items():
        term = c.embed_to(level)
        for beta, j in zip(betas, key):
            term = term * beta.embed_to(level).frobenius(j)
        acc = acc + term
    return acc


def tower_as_vector(x, over):
    """Coordinates of x over `over` by walking the tower: each coordinate
    over the parent level, expanded in turn down to `over`.  The oracle
    for `fields.as_vector`, which reads the digits of x's rank instead."""
    if x.ctx is over:
        return [x]
    if x.ctx.parent is None:
        raise LevelMismatch(f"{over!r} is not below {x.ctx!r}")
    parent = x.ctx.parent
    out = []
    for c in x.ctx._coords(x.val):
        out.extend(tower_as_vector(FieldElement(parent, c), over))
    return out


def mul_schoolbook(ctx, a, b):
    """The product of coordinate tuples `a` and `b` of a level directly
    over odd GF(p), coefficient by coefficient, reduced by the level's
    modulus one top coefficient at a time: the oracle for the slot codec
    (``fields._slots``)."""
    p, d, mod = ctx.p, ctx.degree, ctx._mod
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k] % p
        for j in range(d):
            prod[k - d + j] -= c * mod[j]
    return tuple(c % p for c in prod[:d])


# monic irreducibles over GF(p) by their coefficients below x**d, each
# checked with sympy's gf_irreducible_p: over GF(2) few terms, at degrees
# whose modulus search takes seconds; over odd p x**(d-1) + a*x**k + c, so
# that a product folds up to d-1 times, at levels past the byte bound
# d*(p-1)**2 + (p-1) < 256 of the earlier one-byte Kronecker product
MODULI = {
    (2, 254): {0: 1, 1: 1, 2: 1, 7: 1},
    (2, 255): {0: 1, 52: 1},
    (2, 256): {0: 1, 2: 1, 5: 1, 10: 1},
    (2, 511): {0: 1, 10: 1},
    (3, 64): {0: 1, 7: 2, 63: 1},
    (3, 100): {0: 1, 1: 2, 99: 1},
    (5, 16): {0: 1, 2: 1, 15: 1},
    (7, 7): {0: 6, 1: 1, 6: 1},
    (13, 5): {0: 4, 1: 1, 4: 1},
    (17, 5): {0: 4, 1: 1, 4: 1},
    (127, 3): {0: 2, 1: 1, 2: 1},
    (127, 5): {0: 2, 1: 1, 4: 1},
    (131, 3): {0: 3, 1: 1, 2: 1},
}


@functools.cache
def prime_level(p, d):
    """GF(p^d) directly over GF(p): the searched level, or at a key of
    MODULI the level on that modulus, built without a search."""
    F = make_field(p)
    if (p, d) not in MODULI:
        return extend(F, d)
    mod = [0] * d + [1]
    for k, c in MODULI[p, d].items():
        mod[k] = c
    return FieldCtx(p, parent=F, degree=d, modulus=tuple(mod))


def binary_level(d):
    """GF(2^d) directly over GF(2), as ``prime_level`` builds it."""
    return prime_level(2, d)
