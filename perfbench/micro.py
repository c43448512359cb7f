"""Fixed-input timings of the ROADMAP's per-layer micro-cases.

Run in a fresh interpreter, the cold cases first, so that "cold" means
what a first call pays: f_a and torsion are timed once, on their first
call in the process.  The steady cases report the median of several
batches.  Times are scaled to the reference host speed like every other
time of the benchmark (see ``hostspeed.py``).  These numbers give
context next to the ROADMAP's reference values and are not gated.
"""

from __future__ import annotations

import random
import statistics
import time

# metric -> the ROADMAP's reference value, in the metric's unit
REFERENCE = {
    "fields.mul_us.gf2_15": 18.9,
    "fields.mul_us.gf3_8": 9.3,
    "pairing.fa_ms.q3n3r3": 2.4,
    "pairing.tuple_us.gf2_15": 137.0,
}
UNITS = {
    "fields.mul_us.gf2_15": "us",
    "fields.mul_us.gf3_8": "us",
    "fields.add_us.gf2_15": "us",
    "fields.mul_us.gf3_40": "us",
    "core.torsion_ms.gf2_t2t1": "ms",
    "pairing.fa_ms.q3n3r3": "ms",
    "pairing.tuple_us.gf2_15": "us",
}
BATCHES = 5


def _per_item_us(scale, batch, items):
    times = []
    for _ in range(BATCHES):
        start = time.perf_counter()
        batch()
        times.append(scale(start, time.perf_counter()))
    return statistics.median(times) / items * 1e6


def _pair(ctx):
    rng = random.Random(2010_05283)
    return (ctx.element_of_rank(rng.randrange(1, ctx.order)),
            ctx.element_of_rank(rng.randrange(1, ctx.order)))


def _mul_us(scale, ctx, n):
    x, y = _pair(ctx)

    def batch():
        for _ in range(n):
            x * y

    return _per_item_us(scale, batch, n)


def _add_us(scale, ctx, n):
    x, y = _pair(ctx)

    def batch():
        for _ in range(n):
            x + y

    return _per_item_us(scale, batch, n)


def measure(scale):
    """Every micro-case in this process; returns metric -> value.
    ``scale(start, end)`` turns a perf_counter interval into seconds."""
    from drinfeld import DrinfeldModule, PairingEvaluator, UniPoly, f_chain_sum, make_field, torsion

    out = {}
    gf3 = make_field(3)
    a = UniPoly.from_ranks(gf3, (1, 2, 0, 1))  # T^3 + 2T + 1
    start = time.perf_counter()
    f_chain_sum(a, 3)
    out["pairing.fa_ms.q3n3r3"] = scale(start, time.perf_counter()) * 1e3

    gf2 = make_field(2)
    phi = DrinfeldModule(gf2, gf2.one_element, (gf2.one_element, gf2.one_element))
    t2t1 = UniPoly.from_ranks(gf2, (1, 1, 1))
    start = time.perf_counter()
    tm = torsion(phi, t2t1)
    out["core.torsion_ms.gf2_t2t1"] = scale(start, time.perf_counter()) * 1e3

    ev = PairingEvaluator(phi, t2t1, tm.level)  # GF(2^15), 8 terms
    tuples = [(x, y) for x in tm.points() for y in tm.points()]

    def sweep():
        for tup in tuples:
            ev(tup)

    sweep()  # fill the Frobenius-power cache: steady state is measured
    out["pairing.tuple_us.gf2_15"] = _per_item_us(scale, sweep, len(tuples))

    out["fields.mul_us.gf2_15"] = _mul_us(scale, make_field(2, 15), 4000)
    out["fields.add_us.gf2_15"] = _add_us(scale, make_field(2, 15), 10000)
    out["fields.mul_us.gf3_8"] = _mul_us(scale, make_field(3, 8), 8000)
    out["fields.mul_us.gf3_40"] = _mul_us(scale, make_field(3, 40), 600)
    return out
