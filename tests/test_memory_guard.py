"""Memory guards: a long sweep over fresh field elements leaves no
per-element state on its level, and a sampled compatibility check builds
only the torsion points it draws.  Measured with tracemalloc on
derandomized inputs."""

import gc
import random
import tracemalloc

from drinfeld.core import DrinfeldModule
from drinfeld.fields import extend, make_field
from drinfeld.polynomials import UniPoly
from drinfeld.verify import bundle_from_json, run_suites

KIB, MIB = 1024, 1024 * 1024


def _traced(work):
    """(bytes still allocated after `work` and a full collection, traced
    peak) of the allocations `work` made."""
    gc.collect()
    tracemalloc.start()
    try:
        work()
        gc.collect()
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def test_fresh_elements_leave_no_memo_behind():
    F2 = make_field(2)
    phi = DrinfeldModule(F2, F2.one_element, (F2.one_element, F2.one_element))
    phi_a = phi.phi(UniPoly.from_ranks(F2, [1, 1, 1]))  # a = T^2 + T + 1
    level = extend(F2, 31)
    prime = make_field(2**31 - 1)
    rng = random.Random(0)
    xs = [level.element_of_rank(rng.randrange(level.order)) for _ in range(2000)]
    ys = [prime.element_of_rank(rng.randrange(1, prime.order)) for _ in range(2000)]
    phi_a(xs[0])  # warm whatever is built once per level
    ys[0].inverse()

    def sweep():
        for x in xs:
            phi_a(x)
        for y in ys:
            y.inverse()

    retained, _ = _traced(sweep)
    assert retained <= 256 * KIB, f"{retained / KIB:.0f} KiB retained"


def test_sampled_compatibility_builds_only_the_drawn_points():
    # phi[T^2] on a rank-3 module over GF(8) has 8**6 points
    (entry,) = bundle_from_json({"p": 2, "e": 3, "theta": 1, "g": [1, 1, 1],
                                 "ab_pairs": [[[0, 1], [0, 1]]], "budget": 1,
                                 "suites": ["compatibility"]})
    reports = []
    _, peak = _traced(lambda: reports.append(run_suites(entry.config, entry.suites)))
    assert reports[0].ok()
    assert peak < 4 * MIB, f"{peak / MIB:.1f} MiB traced peak"
