"""`PairingEvaluator.values`, the streaming sweep: W's payload at every
tuple of product(points, repeat=r), in that order, contracted slot by
slot.  It equals the per-tuple `__call__` on random small modules over
GF(2), GF(3), GF(4) and GF(4) over GF(2) (rank 1-3, deg a = 1-2) and the
direct contraction `weil_evaluate` on a few tuples; it runs one dot per
(point, vector of the later slots) and streams the root's; and hand
mutants of it, and of `__call__`'s contraction, fail the pairing or
compatibility suite on the stock bundle."""

import functools
import inspect
import itertools
import textwrap

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from drinfeld import pairing
from drinfeld.core import DrinfeldModule, torsion
from drinfeld.errors import SearchCapExceeded
from drinfeld.fields import FieldElement, extend, make_field
from drinfeld.pairing import PairingEvaluator, weil_evaluate
from drinfeld.polynomials import UniPoly
from drinfeld.verify import default_bundle, reevaluate, run_suites

FIELDS = (make_field(2), make_field(3), make_field(2, 2), extend(make_field(2), 2))
CAP = 24


@functools.lru_cache(maxsize=128)
def _setup(phi, a):
    """Torsion module and evaluator, built once per (module, a)."""
    tm = torsion(phi, a, cap=CAP)
    return tm, PairingEvaluator(phi, a, tm.level)


@st.composite
def cases(draw):
    """A rank 1-3 module, a monic a over GF(q) of degree 1-2 with
    a(theta) != 0 and its torsion level at most CAP over K, and 1-4 of its torsion points
    (repeats allowed) in a drawn order."""
    K = draw(st.sampled_from(FIELDS))
    base = K.base
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    theta = K.element_of_rank(draw(st.integers(0, K.order - 1)))
    g = [K.element_of_rank(draw(st.integers(0, K.order - 1))) for _ in range(r - 1)]
    g.append(K.element_of_rank(draw(st.integers(1, K.order - 1))))
    high = draw(st.lists(st.integers(0, base.order - 1), min_size=n - 1, max_size=n - 1))
    # the constant term avoids the one value that makes a(theta) = 0
    shift = -UniPoly.from_ranks(base, [0] + high + [1])(theta)
    const = draw(st.sampled_from([c for c in base.elements() if c.embed_to(K) != shift]))
    phi = DrinfeldModule(K, theta, tuple(g))
    a = UniPoly.from_ranks(base, [const.rank()] + high + [1])
    try:
        tm, ev = _setup(phi, a)
    except SearchCapExceeded:
        assume(False)
    indices = st.integers(0, tm.count() - 1)
    points = [tm.point(i) for i in draw(st.lists(indices, min_size=1, max_size=4))]
    return phi, a, ev, points


@settings(max_examples=120)
@given(cases())
def test_sweep_equals_one_call_per_tuple(case):
    phi, _, ev, points = case
    sweep = ev.values(points)
    assert inspect.isgenerator(sweep)
    expected = [ev(tup).val for tup in itertools.product(points, repeat=phi.rank)]
    assert list(sweep) == expected
    # a second sweep reads the memo that the first one and the calls filled
    assert list(ev.values(points[::-1])) == [
        ev(tup).val for tup in itertools.product(points[::-1], repeat=phi.rank)]


@settings(max_examples=15)
@given(cases())
def test_sweep_equals_weil_evaluate_on_a_few_tuples(case):
    phi, a, ev, points = case
    tuples = list(itertools.product(points, repeat=phi.rank))
    for k, val in enumerate(ev.values(points)):
        if k % 7 == 0:  # every seventh tuple, the first among them
            assert FieldElement(ev.level, val) == weil_evaluate(phi, a, tuples[k])


def test_sweep_runs_one_dot_per_point_and_later_vector():
    """GF(2), g = (1, 0, 1), a = T: rank 3 and 8 points, so 8 last-slot
    contractions, 8 * 8 dots for slot 1 and 8**3 at the root."""
    K = make_field(2)
    phi = DrinfeldModule(K, K.one_element, (K.one_element, K.zero_element, K.one_element))
    a = UniPoly.from_ranks(K, [0, 1])
    tm = torsion(phi, a)
    pts = tm.points()
    reference = PairingEvaluator(phi, a, tm.level)
    expected = [reference(tup).val for tup in itertools.product(pts, repeat=3)]
    ev = PairingEvaluator(phi, a, tm.level)
    leaves, inner, (spread, dot, payload) = ev._trie
    sizes = []  # the number of nodes of each dot

    def counted(row, vals, nodes):
        sizes.append(len(nodes))
        return dot(row, vals, nodes)

    ev._trie = leaves, inner, (spread, counted, payload)
    values = ev.values(pts)
    first = next(values)  # the first value needs every vector of the later slots
    n, last, (mid, root) = len(pts), len(leaves[1]), map(len, inner)
    assert n == 8 and root == 1 and sizes == [last] * n + [mid] * n * n + [root]
    assert [first, *values] == expected
    assert sizes[n + n * n:] == [root] * n**3


# hand mutants of the sweep, and one of __call__'s contraction:
# (owner, function, its text, the mutated text)
SWEEP_MUTANTS = {
    # the root's loops swapped: each suffix vector meets every point of slot 0
    # in turn, so a value lands at the tuple with slots 0 and 1 exchanged,
    # off by the sign -1 that only odd q sees
    "suffix vectors paired with the wrong slot's rows": (
        PairingEvaluator, "values", "inner[-1]) for row in rows for v in vecs)",
        "inner[-1]) for v in vecs for row in rows)"),
    # __call__ takes slots 1 .. r-1's rows for slots 0 .. r-2
    "rows shifted a slot in __call__": (
        PairingEvaluator, "__call__", "reversed(rows[:-1])", "reversed(rows[1:])"),
    # slot 1 is never contracted at r = 3: the root reads the last slot's vectors
    "one inner level skipped": (
        PairingEvaluator, "values", "for nodes in inner[:-1]:", "for nodes in inner[1:-1]:"),
    # each point after the first takes the previous point's last-slot vector
    "the previous point's last-slot vector reused": (
        PairingEvaluator, "values", "vecs.append(entry[1])",
        "vecs.append(vecs[-1] if vecs else entry[1])"),
}
STOCK = [entry for entry in default_bundle() if "pairing" in entry.suites]


@pytest.mark.parametrize("mutant", sorted(SWEEP_MUTANTS))
def test_sweep_mutants_fail_agreement_or_compatibility(monkeypatch, mutant):
    owner, name, text, mutated = SWEEP_MUTANTS[mutant]
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(text) == 1
    namespace = dict(vars(pairing))
    exec(compile(source.replace(text, mutated), pairing.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
    failures = []
    for entry in STOCK:
        suites = [s for s in entry.suites if s in ("pairing", "compatibility")]
        failures += run_suites(entry.config, suites).failures()
    failed = {c.name.split("[")[0] for c in failures}
    # the sweep meets the direct contraction in agreement and itself in
    # compatibility; __call__ meets the direct values in multilinear, and
    # its counterexamples reproduce in isolation
    caught = ({"pairing.poly_agreement", "compatibility.identity"} if name == "values"
              else {"pairing.multilinear"})
    assert failed & caught, failed
    assert all(reevaluate(c.counterexample) for c in failures
               if c.counterexample["identity"] == "multilinear")
