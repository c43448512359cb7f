import functools

import pytest
from hypothesis import settings

from drinfeld.errors import LevelMismatch
from drinfeld.fields import FieldElement, common_level
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
