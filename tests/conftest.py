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


# monic irreducibles over GF(2) with few terms, by the exponents of their
# middle terms (each checked with sympy's gf_irreducible_p): degrees whose
# modulus search takes seconds
BINARY_MODULI = {254: (1, 2, 7), 255: (52,), 256: (2, 5, 10), 511: (10,)}


@functools.cache
def binary_level(d):
    """GF(2^d) directly over GF(2): the searched level, or at a degree of
    BINARY_MODULI the level on that modulus, built without a search."""
    F2 = make_field(2)
    if d not in BINARY_MODULI:
        return extend(F2, d)
    mod = [0] * (d + 1)
    for k in (0, *BINARY_MODULI[d], d):
        mod[k] = 1
    return FieldCtx(2, parent=F2, degree=d, modulus=tuple(mod))
