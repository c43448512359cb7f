"""The benchmark's workloads: seeded inputs, one timed pass, and the
correctness gate of each.

Input generation uses only the standard library; the package sees
nothing but the generated inputs.  A pass runs in a fresh interpreter
(see ``worker.py``), because a CLI user pays cold caches on every call.
Measured on a copy of the seed commit, a second ``verify`` pass in the
same process took 5.6 s against 8.6 s cold: ``_F_CACHE``,
``_inv_cache``, ``_frob_cache`` and the cached tower levels were warm.
The benchmark never clears those caches itself, so a warm cache can
never pass for a gain.

verify-default
    ``cli.main(["verify", "--json", "--seed", S])`` on the stock bundle
    (1,676 checks).  The ROADMAP's end-to-end yardstick: field
    multiply/add at small levels (GF(2^2) to GF(2^15)) inside exhaustive
    pairing, compatibility and Galois sweeps, with heavy f_a reuse
    across suites.  An operation is the whole call, so a run has one
    latency sample per pass.

fa-queries
    About 110 distinct ``cli.main(["fa", ..., "--json"])`` queries in
    one process, with a cold f_a cache because no query repeats.  Half
    are over small fields q in {2, 3, 4, 5, 7, 8, 9} with deg a 2-4 and
    r 2-4 (chain-sum and MultiPoly work); half are over primes in
    [50, 150] with deg a = 2 and r 2-3 (the root scan over GF(p^2)).
    Splitting levels are bounded on purpose: a small-field ``a`` is a
    product of linear and (for q <= 5) quadratic factors, so its roots
    lie in GF(q^2).  One irreducible cubic at q=127 (a scan of GF(127^3)), or
    ``fa --q 1009 --a 11,0,1 --r 2`` (12.8 s), would set the whole run's
    time on its own.  Each (q, deg a, r) shape and factor pattern, and
    each prime slot with the share of GF(p^2) its root scan visits, is
    fixed, and so is their order; the seed draws the factors and the
    roots, so the cost of a pass barely depends on the seed.
    Carried by the polynomials, pairing and cli layers; a root-free f_a
    shows its gain here.

pairing-sweep
    Three modules whose torsion lies far above any lookup-table size:
    set-up builds the torsion module, its points and one
    PairingEvaluator each, and caches the Frobenius powers of a seeded
    pool of points; the timed part evaluates a seeded sample of tuples
    over that pool, i.e. steady-state evaluation.  Set-up is the tower search up to m = 40 and linear algebra
    in dimension 28-40.  Every level is far above any lookup-table size,
    so a table-based field backend should leave this workload unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import time

DEFAULT_SEED = 0
ORDER_SEED = 2010_05283
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# ---------------------------------------------------------------------------
# fa-queries: inputs
# ---------------------------------------------------------------------------

SMALL_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}
PRIMES = tuple(p for p in range(50, 151) if all(p % d for d in range(2, int(p**0.5) + 1)))
# degrees of the irreducible factors of a small-field a, by deg a.  Only
# q <= QUADRATIC_MAX_Q gets quadratic factors: the root scan of GF(q^2)
# stays short, while at q = 8 or 9 it would take long enough, through a
# two-level tower, that where the seed puts the roots would show.
FACTOR_PATTERNS = {2: ((1, 1), (2,)), 3: ((1, 1, 1), (1, 2)), 4: ((1, 1, 1, 1), (1, 1, 2), (2, 2))}
QUADRATIC_MAX_Q = 5


class _SmallField:
    """GF(p^e) on element ranks, in the representation ``make_field(p, e)``
    uses: the modulus is the first monic irreducible of degree e over
    GF(p) in counting order (lowest coefficient varying fastest), and an
    element's rank is its coefficient vector read as base-p digits."""

    def __init__(self, p, e):
        self.p, self.e, self.order = p, e, p**e
        self.modulus = None
        if e > 1:  # e <= 3 here, so irreducible means rootless
            for n in range(p**e):
                low = [(n // p**k) % p for k in range(e)]
                if all(_peval(low + [1], x, p) for x in range(p)):
                    self.modulus = low
                    break

    def _digits(self, r):
        return [(r // self.p**k) % self.p for k in range(self.e)]

    def _rank(self, digits):
        return sum(d * self.p**k for k, d in enumerate(digits))

    def add(self, x, y):
        return self._rank([(a + b) % self.p for a, b in zip(self._digits(x), self._digits(y))])

    def neg(self, x):
        return self._rank([(-a) % self.p for a in self._digits(x)])

    def mul(self, x, y):
        p, e = self.p, self.e
        if e == 1:
            return x * y % p
        a, b = self._digits(x), self._digits(y)
        prod = [0] * (2 * e - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
        for k in range(2 * e - 2, e - 1, -1):
            c = prod[k] % p
            for j in range(e):
                prod[k - e + j] -= c * self.modulus[j]
        return self._rank([c % p for c in prod[:e]])

    def poly_mul(self, f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = self.add(out[i + j], self.mul(a, b))
        return out

    def has_root(self, f):
        for x in range(self.order):
            acc = 0
            for c in reversed(f):
                acc = self.add(self.mul(acc, x), c)
            if acc == 0:
                return True
        return False


def _peval(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


def _small_query(rng, field, pattern):
    """Product of random monic factors of the given degrees.  Roots are
    nonzero: a zero root makes f_a sparser, which spreads the work of a
    shape across seeds."""
    a = [1]
    for deg in pattern:
        if deg == 1:
            factor = [field.neg(1 + rng.randrange(field.order - 1)), 1]
        else:
            factor = [rng.randrange(field.order), rng.randrange(field.order), 1]
            while field.has_root(factor):
                factor = [rng.randrange(field.order), rng.randrange(field.order), 1]
        a = field.poly_mul(a, factor)
    return a


def _gf_p2_modulus(p):
    """m0 of x^2 + m0, the modulus ``extend(GF(p), 2)`` finds first in
    counting order (some x^2 + m0 is irreducible, so m1 = 0)."""
    return next(m0 for m0 in range(1, p) if pow(-m0 % p, (p - 1) // 2, p) == p - 1)


def _irreducible_quadratic(rng, p, scan):
    """Monic irreducible quadratic over GF(p) whose conjugate roots
    u0 +- u1*y in GF(p^2) = GF(p)[y]/(y^2 + m0) make the rank-order root
    scan visit about ``scan`` of GF(p^2): max(u1, p - u1) = scan * p."""
    u1 = round(scan * p)
    if rng.random() < 0.5:
        u1 = p - u1
    u0 = rng.randrange(p)
    m0 = _gf_p2_modulus(p)
    return [(u0 * u0 + m0 * u1 * u1) % p, (-2 * u0) % p, 1]


def _split_quadratic(rng, p):
    u, v = rng.sample(range(p), 2)
    return [u * v % p, (-u - v) % p, 1]


def fa_queries(seed, tiny=False):
    """The seeded query list: dicts with p, e, a (little-endian ranks),
    r, n and the CLI argv."""
    rng = random.Random(seed)
    small, prime = [], []  # (p, e, r, draw a)
    for qi, (q, (p, e)) in enumerate(SMALL_FIELDS.items()):
        field = _SmallField(p, e)
        for n in (2, 3, 4):
            for r in (2, 3, 4):
                pattern = FACTOR_PATTERNS[n][(qi + n + r) % len(FACTOR_PATTERNS[n])]
                if q > QUADRATIC_MAX_Q:
                    pattern = (1,) * n
                small.append((p, e, r, functools.partial(_small_query, rng, field, pattern)))
    for i, p in enumerate(PRIMES):
        # scan shares spread evenly over [0.55, 0.95], fixed per slot
        for r, slot in ((2, 3 * i % 20), (3, (3 * i + 10) % 20)):
            share = 0.55 + 0.4 * slot / 19
            prime.append((p, 1, r, functools.partial(_irreducible_quadratic, rng, p, share)))
        if i % 2 == 0:
            prime.append((p, 1, 2 + (i // 2) % 2, functools.partial(_split_quadratic, rng, p)))
    specs = small[:1] + prime[:1] if tiny else small + prime
    out, seen = [], set()
    for p, e, r, draw in specs:
        a = draw()
        while (p, e, tuple(a), r) in seen:
            a = draw()
        seen.add((p, e, tuple(a), r))
        argv = ["fa", "--q", str(p), "--q-deg", str(e), "--a", ",".join(map(str, a)),
                "--r", str(r), "--json"]
        out.append({"p": p, "e": e, "a": a, "r": r, "n": len(a) - 1, "argv": argv})
    # one fixed interleaving for every seed: the first query on each field
    # pays for building it, so that query's shape must not depend on the seed
    random.Random(ORDER_SEED).shuffle(out)
    return out


def field_reuse_share(queries):
    """Share of queries whose base field an earlier query already built."""
    seen, reused = set(), 0
    for qd in queries:
        key = (qd["p"], qd["e"])
        reused += key in seen
        seen.add(key)
    return reused / len(queries)


def fa_digest(obj):
    """Digest of an ``fa --json`` result's terms and level (not its provenance)."""
    blob = json.dumps({"level": obj["level"], "terms": obj["terms"]}, sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _coeff_json(rank, p, e):
    if e == 1:
        return rank
    return [(rank // p**k) % p for k in range(e)]


def fa_problems(query, obj):
    """Property checks on one ``fa --json`` result that hold on every
    seed: level, arity, degree <= n-1 in each variable, symmetry, and
    the closed form f_a = (a(x) - a(y)) / (x - y) at r = 2."""
    p, e, r, n = query["p"], query["e"], query["r"], query["n"]
    if obj["level"]["p"] != p or obj["level"]["e"] != e or obj["vars"] != r:
        return "wrong level or arity"
    terms = {tuple(t["exps"]): json.dumps(t["coeff"]) for t in obj["terms"]}
    if not terms:
        return "zero polynomial"
    for exps, coeff in terms.items():
        if len(exps) != r or max(exps) > n - 1:
            return f"exponents {list(exps)} break the degree bound {n - 1}"
        for i in range(r - 1):
            swapped = exps[:i] + (exps[i + 1], exps[i]) + exps[i + 2:]
            if terms.get(swapped) != coeff:
                return f"not symmetric at {list(exps)}"
    if r == 2:
        expected = {}
        for i in range(1, n + 1):
            if query["a"][i]:
                for j in range(1, i + 1):
                    expected[(j - 1, i - j)] = json.dumps(_coeff_json(query["a"][i], p, e))
        if terms != expected:
            return "differs from the r=2 closed form"
    return None


# ---------------------------------------------------------------------------
# pairing-sweep: inputs
# ---------------------------------------------------------------------------

# theta, g and a as little-endian ranks over GF(p); "pool_size" points,
# drawn by seed, make up the "tuples" timed tuples
PAIRING_MODULES = (
    # a = T^5+T^4+T^3+T+1: torsion in GF(2^31), 1,024 points, 32 terms
    {"p": 2, "theta": 1, "g": (1, 1), "a": (1, 1, 0, 1, 1, 1), "pool_size": 64, "tuples": 400},
    # a = T^3+2T^2+2: torsion in GF(3^40), 729 points, 16 terms
    {"p": 3, "theta": 1, "g": (1, 1), "a": (2, 0, 2, 1), "pool_size": 64, "tuples": 240},
    # rank 3, a = T^3: torsion in GF(2^28), 512 points, 228 terms
    {"p": 2, "theta": 1, "g": (1, 0, 1), "a": (0, 0, 0, 1), "pool_size": 32, "tuples": 32},
)
# a = T^2+T+1 over GF(2): torsion in GF(2^15), 16 points, 8 terms
TINY_PAIRING_MODULES = (
    {"p": 2, "theta": 1, "g": (1, 1), "a": (1, 1, 1), "pool_size": 8, "tuples": 6},
)
GATE_TUPLES = 4  # per module, checked after the timed sweep


def pairing_inputs(seed, tiny=False):
    """Per module: point indices of the timed tuples, the gated subset,
    and for each gated tuple the index of a second point for the
    additivity check."""
    rng = random.Random(seed)
    out = []
    for spec in TINY_PAIRING_MODULES if tiny else PAIRING_MODULES:
        rank, deg = len(spec["g"]), len(spec["a"]) - 1
        count = spec["p"] ** (rank * deg)
        pool = rng.sample(range(count), spec["pool_size"])
        tuples = [tuple(rng.choice(pool) for _ in range(rank)) for _ in range(spec["tuples"])]
        gated = sorted(rng.sample(range(len(tuples)), min(GATE_TUPLES, len(tuples))))
        others = [rng.randrange(count) for _ in gated]
        out.append({**spec, "points": count, "pool": pool, "tuples": tuples,
                    "gated": gated, "others": others})
    return out


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def _load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _quiet_main(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


# Each pass returns raw perf_counter intervals: "setup" from the start of
# the interpreter to the first timed operation, "timed" around the timed
# operations and "ops" around each one; the worker scales them.


def pass_verify(seed, trace, t0, tiny=False):
    from drinfeld import cli

    argv = ["verify", "--json", "--seed", str(seed)]
    if tiny:
        argv += ["--suite", "det"]
    setup_end = time.perf_counter()
    with trace:
        start = time.perf_counter()
        code, text = _quiet_main(cli, argv)
        end = time.perf_counter()
    problem = None
    if code != 0:
        problem = f"verify exited {code}"
    else:
        report = json.loads(text)
        names = {c["name"] for rep in report["reports"] for c in rep["checks"]}
        missing = [] if tiny else sorted(set(_load_reference()["verify_check_names"]) - names)
        if report["ok"] is not True:
            problem = "verify reported failures"
        elif missing:
            problem = f"{len(missing)} checks missing, e.g. {missing[0]}"
    return {"setup": (t0, setup_end), "timed": (start, end), "ops": [(start, end)],
            "attempted": 1,
            "failed": int(problem is not None), "problems": [problem] if problem else []}


def pass_fa(seed, trace, t0, tiny=False):
    queries = fa_queries(seed, tiny)
    from drinfeld import cli

    setup_end = time.perf_counter()
    results = []
    with trace:
        clock = time.perf_counter
        start = clock()
        for query in queries:
            t = clock()
            try:
                code, text = _quiet_main(cli, query["argv"])
            except Exception as exc:  # an operation that raised counts as failed
                code, text = f"raised {type(exc).__name__}", ""
            results.append((code, text, (t, clock())))
        end = clock()
    digests = None
    if seed == DEFAULT_SEED and not tiny:
        digests = _load_reference()["fa_digests"]
    problems = []
    for i, (query, (code, text, _)) in enumerate(zip(queries, results)):
        if code != 0:
            problem = f"exit {code}"
        else:
            obj = json.loads(text)
            problem = fa_problems(query, obj)
            if problem is None and digests is not None and fa_digest(obj) != digests[i]:
                problem = "digest differs from the reference"
        if problem:
            problems.append(f"fa {' '.join(query['argv'][1:-1])}: {problem}")
    return {"setup": (t0, setup_end), "timed": (start, end),
            "ops": [span for _, _, span in results],
            "attempted": len(queries), "failed": len(problems), "problems": problems,
            "field_reuse_share": field_reuse_share(queries)}


def pass_pairing(seed, trace, t0, tiny=False):
    inputs = pairing_inputs(seed, tiny)
    with trace:
        from drinfeld import DrinfeldModule, PairingEvaluator, UniPoly, make_field, torsion

        built = []
        for spec in inputs:
            K = make_field(spec["p"])
            phi = DrinfeldModule(K, K.element_of_rank(spec["theta"]),
                                 tuple(K.element_of_rank(c) for c in spec["g"]))
            a = UniPoly.from_ranks(K, spec["a"])
            tm = torsion(phi, a)
            points = tm.points()
            ev = PairingEvaluator(phi, a, tm.level)
            for i in spec["pool"]:
                ev.powers_of(points[i])
            tuples = [tuple(points[i] for i in idx) for idx in spec["tuples"]]
            built.append((phi, a, points, ev, tuples))
        clock = time.perf_counter
        setup_end = clock()
        ops, values = [], []
        start = clock()
        for _, _, _, ev, tuples in built:
            vals = []
            for tup in tuples:
                t = clock()
                vals.append(ev(tup))
                ops.append((t, clock()))
            values.append(vals)
        end = clock()
    from drinfeld import weil_evaluate

    problems = []
    for spec, (phi, a, points, ev, tuples), vals in zip(inputs, built, values):
        if len(points) != spec["points"]:
            problems.append(f"module {spec['g']}: {len(points)} torsion points")
            continue
        psi_a = phi.det_module().phi(a)
        for i, other in zip(spec["gated"], spec["others"]):
            tup, val = tuples[i], vals[i]
            x, y = tup[0], points[other]
            if not psi_a(val).is_zero():
                problem = "value not killed by psi_a"
            elif not ev((x, x) + tup[2:]).is_zero():
                problem = "not alternating"
            elif ev((x + y,) + tup[1:]) != val + ev((y,) + tup[1:]):
                problem = "not additive in slot 1"
            elif weil_evaluate(phi, a, list(tup)) != val:
                problem = "disagrees with weil_evaluate"
            else:
                continue
            problems.append(f"module {spec['g']} tuple {list(spec['tuples'][i])}: {problem}")
    return {"setup": (t0, setup_end), "timed": (start, end), "ops": ops,
            "attempted": len(ops), "failed": len(problems), "problems": problems}


PASSES = {
    "verify-default": pass_verify,
    "fa-queries": pass_fa,
    "pairing-sweep": pass_pairing,
}
