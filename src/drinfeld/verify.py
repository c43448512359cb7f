"""Executable renditions of the identities the package implements.

Every suite turns one family of statements into named pass/fail checks
with machine-readable counterexamples: the dual construction and closed
forms of the symmetric family, the exchange and root-peel congruences,
the five pairing properties by exhaustion, the degree/leading-term
decomposition, and the determinant-of-Galois-action comparison.

All randomness flows from the config seed, the exhaustive/sampled
switch is an explicit evaluation budget, and reports are reproducible
byte-for-byte apart from their timing fields.

Each exhaustive pairing or compatibility check reads
`PairingEvaluator.values` sweeps, each evaluating every tuple once.  The
Galois check compares sigma of the value at each tuple, for the
Frobenius sigma of K, with the value at the tuple of its images, read
off a second sweep over the points' images; sigma**k then follows for
every k.  Operators are applied once per point or value, and each
operator phi_b and psi_b is built once per b.  The root-order
check sums each distinct root sequence once and skips the rank-ordered
one, which `f_chain_sum` has summed.  A chain sum with a coefficient
outside GF(q) fails its (a, r)'s rationality check, or both congruence
checks, and the rest of that (a, r) is skipped.

The mutation tests in tests/test_verify.py prove the checks have teeth
by patching a broken construction in from outside: `_det_module` (the
one place the verifier takes the determinant module from),
`f_chain_sum` as this module sees it, `pairing.f_rootfree` (the f_a
behind `PairingEvaluator`) and hand mutants of its site expansion.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from dataclasses import dataclass, field, fields, replace

from .core import (
    DEFAULT_EXTENSION_CAP,
    DrinfeldModule,
    ResidueRing,
    fq_span,
    galois_det_table,
    operator_kernel,
    torsion,
)
from .errors import ConfigurationTooLarge, MalformedInput, RationalityFailure
from .fields import (FieldElement, dim_between, extend, field_from_descriptor, make_field,
                     require_int)
from .pairing import (
    PairingEvaluator,
    chain_sum_over_roots,
    f_chain_sum,
    f_recursive,
    f_root_order_variant,
    f_rootfree,
    linear_factors,
    weil_evaluate,
    weil_polynomial,
    weil_values,
)
from .polynomials import MultiPoly, UniPoly, all_monic, normal_form, rank_vectors

SUITE_NAMES = ("f", "congruence", "pairing", "compatibility", "leading", "det")


# ---------------------------------------------------------------------------
# configuration and reports
# ---------------------------------------------------------------------------


def _is_ranks(obj):
    """True for the coefficients of one polynomial: a tuple of int ranks."""
    return isinstance(obj, tuple) and all(type(r) is int for r in obj)


def _tuples(obj):
    """JSON arrays as tuples, at every depth; anything else unchanged."""
    return tuple(map(_tuples, obj)) if isinstance(obj, (list, tuple)) else obj


# the int fields of a config, each with its lower bound (None: any int)
_INT_FIELDS = {"p": None, "e": None, "max_deg": None, "trials": 1, "seed": None,
               "extension_cap": 1, "budget": 1}


@dataclass(frozen=True)
class VerificationConfig:
    """One verification setup: a base field, an optional Drinfeld
    module above it, the operator polynomials to exercise, and the
    knobs that keep runs deterministic."""

    p: int
    e: int = 1
    k_extensions: tuple = ()  # degrees stacked above the base to reach K
    theta: object = None  # element rank or nested coefficient list over K
    g: tuple = ()
    ranks: tuple = (1, 2, 3)  # arities for the coefficient-family suites
    max_deg: int = 3  # those suites sweep every monic a up to this degree
    a_list: tuple = ()  # coefficient ranks, little-endian, for module suites
    ab_pairs: tuple = ()
    trials: int = 30
    seed: int = 0
    extension_cap: int = DEFAULT_EXTENSION_CAP
    budget: int = 10_000_000

    def __post_init__(self):
        for name, low in _INT_FIELDS.items():
            require_int(getattr(self, name), name, low)
        for name, low in (("ranks", 1), ("k_extensions", None)):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                raise MalformedInput(f"{name} must be a list of ints, got {value!r}")
            for entry in value:
                require_int(entry, f"every entry of {name}", low)
        make_field(self.p)  # raises NonPrimeCharacteristic unless p is prime
        pairs_ok = isinstance(self.ab_pairs, tuple) and all(
            isinstance(ab, tuple) and len(ab) == 2 and all(map(_is_ranks, ab))
            for ab in self.ab_pairs
        )
        if not (isinstance(self.a_list, tuple) and all(map(_is_ranks, self.a_list)) and pairs_ok):
            raise MalformedInput("a_list and ab_pairs polynomials must be flat lists of int ranks")

    def base_ctx(self):
        return make_field(self.p, self.e)

    def K_ctx(self):
        ctx = self.base_ctx()
        for d in self.k_extensions:
            ctx = extend(ctx, d)
        return ctx

    def module(self):
        """The Drinfeld module the config declares; MalformedInput if it
        declares none (no theta)."""
        if self.theta is None:
            raise MalformedInput(f"config with p={self.p} declares no Drinfeld module (no theta)")
        K = self.K_ctx()
        return DrinfeldModule(
            K, parse_element(K, self.theta), tuple(parse_element(K, c) for c in self.g)
        )

    def a_polys(self):
        base = self.base_ctx()
        return [UniPoly.from_ranks(base, ranks) for ranks in self.a_list]

    def ab_poly_pairs(self):
        base = self.base_ctx()
        return [
            (UniPoly.from_ranks(base, a), UniPoly.from_ranks(base, b))
            for a, b in self.ab_pairs
        ]

    def grid_polys(self):
        """Every monic a of degree 1 .. max_deg over the base field, the
        grid of the f and congruence suites, which check each a once per
        rank: ConfigurationTooLarge, before any a is built, when
        len(ranks) * (q + q**2 + ... + q**max_deg) exceeds the budget.
        With no ranks no check reads the grid, so it is empty."""
        base, count = self.base_ctx(), 0
        degrees = range(1, self.max_deg + 1) if self.ranks else ()
        for d in degrees:
            count += len(self.ranks) * base.order**d
            if count > self.budget:
                raise ConfigurationTooLarge(
                    f"{len(self.ranks)} ranks times the monic a of degree <= {self.max_deg} "
                    f"over GF({base.order}) exceed the budget of {self.budget}")
        return [a for d in degrees for a in all_monic(base, d)]

    def to_json(self):
        """Every field by name; `json` writes the tuples as arrays."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, obj):
        """Config from its JSON object: arrays become tuples and absent
        keys take their defaults; numbers must be ints (not bools),
        nothing is coerced."""
        if not isinstance(obj, dict):
            raise MalformedInput(f"a config must be a JSON object, got {obj!r}")
        if not isinstance(obj.get("g", []), (list, tuple)):
            raise MalformedInput(f"g must be a list of elements, got {obj['g']!r}")
        kwargs = {f.name: _tuples(obj[f.name]) for f in fields(cls) if f.name in obj}
        kwargs["p"] = obj["p"]  # the one required key
        # element specs keep their JSON form: theta as given, g one level deep
        kwargs.update(theta=obj.get("theta"), g=tuple(obj.get("g", ())))
        return cls(**kwargs)

    def digest(self):
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_element(level, spec):
    """Element of `level` from an int rank or its nested coefficient
    array; anything else, a bool included, is MalformedInput."""
    if type(spec) is int:
        return level.element_of_rank(spec)
    if not isinstance(spec, (list, tuple)):
        raise MalformedInput(f"{spec!r} is neither an int rank nor a coefficient list")
    return level.element_from_json(spec)


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "skipped"
    counterexample: dict | None = None
    millis: float = 0.0
    details: dict | None = None

    def to_json(self):
        obj = {"name": self.name, "status": self.status, "millis": self.millis}
        if self.counterexample is not None:
            obj["counterexample"] = self.counterexample
        if self.details is not None:
            obj["details"] = self.details
        return obj


@dataclass
class VerificationReport:
    config_digest: str
    checks: list = field(default_factory=list)

    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def failures(self):
        return [c for c in self.checks if c.status == "fail"]

    def to_json(self):
        return {
            "config_digest": self.config_digest,
            "checks": [c.to_json() for c in self.checks],
        }

    def render(self):
        lines = []
        for c in self.checks:
            lines.append(f"{c.status.upper():7s} {c.name}  ({c.millis:.1f} ms)")
        n_fail = len(self.failures())
        lines.append(f"-- {len(self.checks)} checks, {n_fail} failures")
        return "\n".join(lines)


def _mismatch(identity, inputs, lhs, rhs):
    """A failed check: (False, counterexample), with each side that has
    a JSON form stored as it."""
    counterexample = {
        "identity": identity,
        "inputs": inputs,
        "lhs": lhs.to_json() if hasattr(lhs, "to_json") else lhs,
        "rhs": rhs.to_json() if hasattr(rhs, "to_json") else rhs,
    }
    return False, counterexample


class _Suite:
    def __init__(self, cfg):
        self.report = VerificationReport(cfg.digest())

    def run(self, name, fn):
        start = time.perf_counter()
        outcome = fn()
        millis = (time.perf_counter() - start) * 1000.0
        details = None
        if isinstance(outcome, tuple) and len(outcome) == 3:
            ok, counter, details = outcome
        elif isinstance(outcome, tuple):
            ok, counter = outcome
        else:
            ok, counter = outcome, None
        status = "pass" if ok else "fail"
        self.report.checks.append(
            CheckResult(name, status, counter, round(millis, 3), details)
        )

    def skip(self, name, details=None):
        self.report.checks.append(CheckResult(name, "skipped", None, 0.0, details))


# ---------------------------------------------------------------------------
# suite: the symmetric coefficient family
# ---------------------------------------------------------------------------


def _closed_form_tn(base, n, r):
    terms = {}
    one = base.one_element
    for exps in itertools.product(range(n), repeat=r):
        if sum(exps) == (r - 1) * (n - 1):
            terms[exps] = one
    return MultiPoly(base, r, terms)


def _closed_form_n2(base, a, r):
    a0, a1 = a[0], a[1]
    g_vals = [None, base.one_element, a1]
    for _ in range(3, r + 1):
        g_vals.append(a1 * g_vals[-1] - a0 * g_vals[-2])
    terms = {}
    for s in range(1, r + 1):
        coeff = g_vals[s]
        for exps in itertools.product(range(2), repeat=r):
            if sum(exps) == r - s:
                terms[exps] = coeff
    return MultiPoly(base, r, terms)


def _closed_form_n3_r3(base, a):
    a0, a1, a2 = a[0], a[1], a[2]
    one = base.one_element
    two = one + one
    by_orbit = {
        (2, 2, 0): one,
        (2, 1, 1): one,
        (2, 1, 0): a2,
        (1, 1, 1): two * a2,
        (2, 0, 0): a1,
        (1, 1, 0): a2 * a2,
        (1, 0, 0): a1 * a2 - a0,
        (0, 0, 0): a1 * a1 - a0 * a2,
    }
    terms = {}
    for pattern, coeff in by_orbit.items():
        for exps in set(itertools.permutations(pattern)):
            terms[exps] = coeff
    return MultiPoly(base, 3, terms)


def _closed_form_r2(base, a):
    terms = {}
    for i in range(1, a.degree + 1):
        coeff = a[i]
        if coeff.is_zero():
            continue
        for j in range(1, i + 1):
            terms[(j - 1, i - j)] = coeff
    return MultiPoly(base, 2, terms)


def _constructions_agree(identity, cfg, a_ranks, r, lhs, rhs):
    """Check that two f_a constructions, built when the check runs,
    give the same polynomial."""

    def check():
        left, right = lhs(), rhs()
        if left == right:
            return True
        return _mismatch(identity, {"p": cfg.p, "e": cfg.e, "a": a_ranks, "r": r},
                         left, right)

    return check


def _irrational(cfg, a_ranks, r, err):
    """The failed check of an (a, r) whose chain sum has a coefficient
    outside GF(q): the oracle's RationalityFailure, as a counterexample."""
    inputs = {"p": cfg.p, "e": cfg.e, "a": a_ranks, "r": r}
    return lambda: _mismatch("f_rationality", inputs, str(err), "every coefficient in GF(q)")


def verify_f_identities(cfg):
    """Dual construction, root-free product against the chain sum,
    symmetry, root-order invariance, rationality, degree bounds, and
    every applicable closed form, over the grid."""
    suite = _Suite(cfg)
    base = cfg.base_ctx()
    rng = random.Random(cfg.seed)
    for a in cfg.grid_polys():
        n = a.degree
        a_ranks = [c.rank() for c in a.coeffs]
        for r in cfg.ranks:
            tag = f"[q={base.order},r={r},a={a.render()}]"
            try:
                fa = f_chain_sum(a, r)
            except RationalityFailure as err:
                suite.run(f"f.rationality{tag}", _irrational(cfg, a_ranks, r, err))
                continue
            poly = fa.poly

            suite.run(f"f.chain_eq_recursive{tag}", _constructions_agree(
                "f_chain_eq_recursive", cfg, a_ranks, r,
                lambda: poly, lambda: f_recursive(a, r).poly))
            suite.run(f"f.rootfree_eq_chain{tag}", _constructions_agree(
                "f_rootfree_eq_chain", cfg, a_ranks, r,
                lambda: f_rootfree(a, r).poly, lambda: poly))

            def symmetry():
                for sigma in itertools.permutations(range(r)):
                    if poly.permute(sigma) != poly:
                        return _mismatch("f_symmetry",
                                         {"a": a_ranks, "r": r, "sigma": list(sigma)},
                                         poly.permute(sigma), poly)
                return True

            suite.run(f"f.symmetry{tag}", symmetry)

            def root_order():
                # every order is drawn, but each distinct root sequence is
                # summed once, and the rank-ordered one, f_chain_sum's, not again
                seen = {fa.roots}
                for _ in range(max(10, cfg.trials // 3)):
                    order = list(range(n))
                    rng.shuffle(order)
                    sequence = tuple(fa.roots[i] for i in order)
                    if sequence in seen:
                        continue
                    seen.add(sequence)
                    variant = f_root_order_variant(a, r, order)
                    if variant.poly != poly:
                        return _mismatch("f_root_order",
                                         {"a": a_ranks, "r": r, "order": order},
                                         variant.poly, poly)
                return True

            suite.run(f"f.root_order{tag}", root_order)

            def degree_bound():
                for j in range(r):
                    if poly.degree_in(j) > n - 1:
                        return _mismatch("f_degree_bound",
                                         {"a": a_ranks, "r": r, "var": j + 1},
                                         poly.degree_in(j), n - 1)
                return True

            suite.run(f"f.degree_bound{tag}", degree_bound)

            # rationality: f_chain_sum would have raised; assert the level
            suite.run(f"f.rationality{tag}", lambda: poly.ctx is base)

            closed = []
            if r == 1 or n == 1:
                closed.append(("const_one", MultiPoly.one(base, r)))
            if all(a[i].is_zero() for i in range(n)):
                closed.append(("tn", _closed_form_tn(base, n, r)))
            if n == 2:
                closed.append(("n2", _closed_form_n2(base, a, r)))
            if n == 3 and r == 3:
                closed.append(("n3r3", _closed_form_n3_r3(base, a)))
            if r == 2:
                closed.append(("r2", _closed_form_r2(base, a)))
            for label, expected in closed:

                def closed_check():
                    if poly == expected:
                        return True
                    return _mismatch(f"f_closed_{label}", {"a": a_ranks, "r": r},
                                     poly, expected)

                suite.run(f"f.closed_form.{label}{tag}", closed_check)
    return suite.report


# ---------------------------------------------------------------------------
# suite: congruences modulo the torsion ideal
# ---------------------------------------------------------------------------


def verify_congruences(cfg):
    """Exchange congruence T_l f_a = T_h f_a and the root-peel
    congruence over the splitting level, reduced to normal form."""
    suite = _Suite(cfg)
    base = cfg.base_ctx()
    for a in cfg.grid_polys():
        a_ranks = [c.rank() for c in a.coeffs]
        for r in cfg.ranks:
            tag = f"[q={base.order},r={r},a={a.render()}]"
            try:
                fa = f_chain_sum(a, r)
            except RationalityFailure as err:
                for name in ("exchange", "root_peel"):
                    suite.run(f"congruence.{name}{tag}", _irrational(cfg, a_ranks, r, err))
                continue

            def exchange():
                for l in range(r):
                    for h in range(l + 1, r):
                        diff = (
                            MultiPoly.variable(base, r, l)
                            - MultiPoly.variable(base, r, h)
                        ) * fa.poly
                        nf = normal_form(diff, a)
                        if not nf.is_zero():
                            return _mismatch("congruence_exchange",
                                             {"a": a_ranks, "r": r, "l": l + 1, "h": h + 1},
                                             nf, MultiPoly.zero(base, r))
                return True

            suite.run(f"congruence.exchange{tag}", exchange)

            def root_peel():
                level = fa.roots[0].ctx if fa.roots else base
                lifted = fa.poly.embed_to(level)
                seen = set()
                for idx, alpha in enumerate(fa.roots):
                    if alpha in seen:
                        continue
                    seen.add(alpha)
                    rest = fa.roots[:idx] + fa.roots[idx + 1 :]
                    f_rem = chain_sum_over_roots(level, rest, r)
                    rhs = linear_factors(level, r, [(j, alpha) for j in range(r)], f_rem)
                    for l in range(r):
                        lhs = linear_factors(level, r, [(l, alpha)], lifted)
                        nf = normal_form(lhs - rhs, a)
                        if not nf.is_zero():
                            return _mismatch("congruence_root_peel",
                                             {"a": a_ranks, "r": r, "l": l + 1,
                                              "alpha": alpha.to_json()},
                                             nf, MultiPoly.zero(level, r))
                return True

            suite.run(f"congruence.root_peel{tag}", root_peel)
    return suite.report


# ---------------------------------------------------------------------------
# suite: pairing properties by exhaustion
# ---------------------------------------------------------------------------


def _det_module(phi):
    """psi, the rank-1 module the pairing of phi lands in; every suite
    and `reevaluate` take it from here."""
    return phi.det_module()


def _point_list_json(points):
    return [p.to_json() for p in points]


_MISSING = object()  # no memo value is this


def _applied(memo, op, x):
    """op(x), computed on x's first use and then read from `memo`."""
    got = memo.get(x, _MISSING)
    if got is _MISSING:
        got = memo[x] = op(x)
    return got


def verify_pairing_properties(cfg):
    """Multilinearity, alternation, surjectivity, nondegeneracy,
    Galois invariance and agreement with `weil_values`, exhaustively
    within the configured budget; each sweep evaluates a tuple once.
    Alternation, surjectivity, nondegeneracy and agreement each read one
    `PairingEvaluator.values` sweep of payloads, and the Galois check two:
    over the points and over their Frobenius images.  Only the multilinear
    check calls the evaluator, beside base values from `weil_values`.  A
    direct value outside psi[a] fails agreement."""
    suite = _Suite(cfg)
    phi = cfg.module()
    base = phi.base
    psi = _det_module(phi)
    rng = random.Random(cfg.seed)
    r = phi.rank
    s = dim_between(phi.K, base)
    module_json = phi.to_json()
    for a in cfg.a_polys():
        tag = f"[a={a.render()}]"
        tm = torsion(phi, a, cap=cfg.extension_cap)
        if tm.count() ** r > cfg.budget:  # checked before any point is built
            raise ConfigurationTooLarge(
                f"{tm.count()}**{r} tuples exceed the budget of {cfg.budget}"
            )
        pts = tm.points()
        level = tm.level
        ev = PairingEvaluator(phi, a, level)
        a_ranks = [c.rank() for c in a.coeffs]
        zero = level.zero()

        def multilinear():
            psi_cache, phi_cache = {}, {}
            # one deterministic trial on an independent tuple, then
            # cfg.trials random operator draws for every slot
            trials = [(UniPoly.gen(base), tuple(tm.fq_basis[:r]), 0)]
            for slot in range(r):
                for _ in range(cfg.trials):
                    b = UniPoly.from_ranks(
                        base,
                        [rng.randrange(base.order) for _ in range(2 * a.degree)],
                    )
                    tup = tuple(rng.choice(pts) for _ in range(r))
                    trials.append((b, tup, slot))
            # the base values are the direct contraction's: the calls meet the oracle
            direct = weil_values(phi, a, pts, (tup for _, tup, _ in trials))
            for (b, tup, slot), value in zip(trials, direct):
                psi_b = _applied(psi_cache, psi.phi, b)
                phi_b = _applied(phi_cache, phi.phi, b)
                scaled = list(tup)
                scaled[slot] = phi_b(tup[slot])
                lhs = ev(scaled)
                rhs = psi_b(value)
                if lhs != rhs:
                    return _mismatch("multilinear", {
                        "module": module_json,
                        "a": a_ranks,
                        "b": [c.rank() for c in b.coeffs],
                        "slot": slot,
                        "points": _point_list_json(tup),
                        "level": level.descriptor(),
                    }, lhs, rhs)
                other = rng.choice(pts)
                summed = list(tup)
                summed[slot] = tup[slot] + other
                split = list(tup)
                split[slot] = other
                lhs2 = ev(summed)
                rhs2 = value + ev(split)
                if lhs2 != rhs2:
                    return _mismatch("additive", {
                        "a": a_ranks,
                        "slot": slot,
                        "points": _point_list_json(tup),
                        "other": other.to_json(),
                        "level": level.descriptor(),
                    }, lhs2, rhs2)
            return True

        suite.run(f"pairing.multilinear{tag}", multilinear)

        def alternating():
            for idx, val in zip(itertools.product(range(len(pts)), repeat=r), ev.values(pts)):
                if val != zero and len(set(idx)) < r:
                    return _mismatch("alternating", {"a": a_ranks, "points": _point_list_json(
                        [pts[i] for i in idx])}, FieldElement(level, val), level.zero_element)
            return True

        suite.run(f"pairing.alternating{tag}", alternating)

        psi_a = psi.phi(a)
        psi_points = set(fq_span(operator_kernel(psi_a, level, base), level, base))
        psi_vals = {x.val for x in psi_points}

        def codomain_and_surjective():
            image = set(ev.values(pts))
            expected_size = base.order**a.degree
            if len(psi_points) != expected_size or image != psi_vals:
                return _mismatch("surjective", {"a": a_ranks},
                                 sorted(map(level.rank_of, image)),
                                 sorted(v.rank() for v in psi_points))
            return True

        suite.run(f"pairing.surjective{tag}", codomain_and_surjective)

        def nondegenerate():
            hit = [[False] * len(pts) for _ in range(r)]  # hit[slot][i]: pts[i] there meets W != 0
            for idx, val in zip(itertools.product(range(len(pts)), repeat=r), ev.values(pts)):
                if val != zero:
                    for slot, i in enumerate(idx):
                        hit[slot][i] = True
            for slot in range(r):
                for beta, seen in zip(pts, hit[slot]):
                    if not (seen or beta.is_zero()):
                        return _mismatch("nondegenerate",
                                         {"a": a_ranks, "slot": slot, "beta": beta.to_json()},
                                         beta, level.zero_element)
            return True

        suite.run(f"pairing.nondegenerate{tag}", nondegenerate)

        def galois():
            # sigma carries W at each tuple to W at the tuple of images: one
            # sweep over the points, one over their images in the same order
            images = [pt.frobenius(s) for pt in pts]
            on = set(pts)
            for pt, image in zip(pts, images):
                if image not in on:
                    return _mismatch("galois", {"a": a_ranks, "point": pt.to_json()}, image, None)
            for tup, val, moved in zip(itertools.product(pts, repeat=r), ev.values(pts),
                                       ev.values(images)):
                if (lhs := level.frobenius(val, s)) != moved:
                    return _mismatch("galois", {"a": a_ranks, "k": 1,
                                                "points": _point_list_json(tup)},
                                     FieldElement(level, lhs), FieldElement(level, moved))
            return True

        suite.run(f"pairing.galois{tag}", galois)

        def agreement():
            # weil_evaluate's tripwire, as a failure: a direct value outside
            # the torsion of phi's own determinant module (not `_det_module`'s)
            psi_a_direct, landed = phi.det_module().phi(a), set()
            direct_values = weil_values(phi, a, pts, itertools.product(pts, repeat=r))
            for tup, direct, val in zip(itertools.product(pts, repeat=r), direct_values,
                                        ev.values(pts)):
                if direct.val != val or (
                        direct.val not in landed and not psi_a_direct(direct).is_zero()):
                    return _mismatch("poly_agreement",
                                     {"a": a_ranks, "points": _point_list_json(tup)},
                                     direct, FieldElement(level, val))
                landed.add(val)
            return True

        suite.run(f"pairing.poly_agreement{tag}", agreement)
    return suite.report


# ---------------------------------------------------------------------------
# suite: compatibility with operator products
# ---------------------------------------------------------------------------


def verify_compatibility(cfg):
    """psi_b(W_{ab}(t)) = W_a(phi_b applied slotwise), on every torsion
    tuple of phi[ab] when that fits the budget (a sweep of W_ab over the
    points beside a sweep of W_a over their phi_b images), else on
    min(budget, 10,000) sampled tuples, whose points alone are built,
    with W_a called once per image tuple (phi_b maps many tuples to
    one).  phi_b and psi_b are applied once per point and once per value."""
    suite = _Suite(cfg)
    phi = cfg.module()
    psi = _det_module(phi)
    rng = random.Random(cfg.seed)
    r = phi.rank
    module_json = phi.to_json()
    for a, b in cfg.ab_poly_pairs():
        tag = f"[a={a.render()},b={b.render()}]"
        ab = a * b
        tm = torsion(phi, ab, cap=cfg.extension_cap)
        level = tm.level
        ev_ab = PairingEvaluator(phi, ab, level)
        ev_a = PairingEvaluator(phi, a, level)
        psi_b = psi.phi(b)
        phi_b = phi.phi(b)

        def mismatch(tup, lhs, rhs):
            return _mismatch("compatibility", {
                "module": module_json,
                "a": [c.rank() for c in a.coeffs],
                "b": [c.rank() for c in b.coeffs],
                "points": _point_list_json(tup),
                "level": level.descriptor(),
            }, lhs, rhs)

        def compat():
            phi_images, psi_images, rhs_values = {}, {}, {}  # filled on first use
            count = tm.count()
            if count ** r <= cfg.budget:
                # W_ab swept over the points, W_a over their phi_b images in the same order
                pts = tm.points()
                for tup, val, rhs in zip(itertools.product(pts, repeat=r), ev_ab.values(pts),
                                         ev_a.values([phi_b(x) for x in pts])):
                    if (lhs := psi_images.get(val)) is None:
                        lhs = psi_images[val] = psi_b(FieldElement(level, val))
                    if lhs.val != rhs:
                        return mismatch(tup, lhs, FieldElement(level, rhs))
                return True
            for _ in range(min(cfg.budget, 10_000)):
                tup = tuple(tm.point(rng.randrange(count)) for _ in range(r))
                lhs = _applied(psi_images, psi_b, ev_ab(tup))
                rhs = _applied(rhs_values, ev_a,
                               tuple(_applied(phi_images, phi_b, x) for x in tup))
                if lhs != rhs:
                    return mismatch(tup, lhs, rhs)
            return True

        suite.run(f"compatibility.identity{tag}", compat)
    return suite.report


# ---------------------------------------------------------------------------
# suite: degree bound and leading-term split
# ---------------------------------------------------------------------------


def verify_leading_term(cfg):
    """Degree bound q**(rn-1) in every slot, and the factorization of
    the top coefficient in the last slot through the lower-arity
    pairing polynomial: c times it, for

        c = prod_{i=1}^{n-1} g_r**(q**(ri-1)).

    The top x_r term comes only from the last Moore column of
    phi_{T^(n-1)}(x_r), whose lead g_r**(1 + q**r + ... + q**(r(n-2)))
    is raised to q**(r-1); its cofactor is the arity-(r-1) form.  For
    g_r in GF(q), c = g_r**(n-1)."""
    suite = _Suite(cfg)
    phi = cfg.module()
    r = phi.rank
    for a in cfg.a_polys():
        tag = f"[a={a.render()}]"
        n = a.degree
        a_ranks = [c.rank() for c in a.coeffs]
        built = [None]  # W_a, built inside the timed degree_bound, reused by split

        def degree_bound():
            w = built[0] = weil_polynomial(phi, a)
            for j in range(r):
                if w.max_frob_exp(j) > r * n - 1:
                    return _mismatch("w_degree_bound", {"a": a_ranks, "var": j + 1},
                                     w.max_frob_exp(j), r * n - 1)
            return True

        suite.run(f"leading.degree_bound{tag}", degree_bound)

        if r < 2:
            suite.skip(f"leading.split{tag}", {"reason": "no lower arity in rank 1"})
            continue

        def split():
            top = built[0].top_slice(r - 1, r * n - 1)
            lower = weil_polynomial(phi, a, arity=r - 1)
            g_r = phi.g[-1]
            c = g_r.ctx.one_element
            for i in range(1, n):
                c = c * g_r.frobenius(r * i - 1)
            expected = lower.scale(c)
            if top == expected:
                return True, None, {"c": c.to_json()}
            return _mismatch("leading_split", {"a": a_ranks}, top, expected)

        suite.run(f"leading.split{tag}", split)
    return suite.report


# ---------------------------------------------------------------------------
# suite: determinant of the Galois action
# ---------------------------------------------------------------------------


def verify_det_representation(cfg):
    """det of the torsion action matrix against the scalar by which the
    same Frobenius power acts on the determinant module's torsion."""
    suite = _Suite(cfg)
    phi = cfg.module()
    psi = _det_module(phi)
    for a in cfg.a_polys():
        tag = f"[a={a.render()}]"

        def det_match():
            ring = ResidueRing(a)
            for k, det, scalar in galois_det_table(phi, psi, a, cfg.extension_cap):
                if det != scalar or not ring.is_unit(det):
                    return _mismatch("det_representation",
                                     {"a": [c.rank() for c in a.coeffs], "k": k}, det, scalar)
            return True

        suite.run(f"det.scalar_match{tag}", det_match)
    return suite.report


# ---------------------------------------------------------------------------
# bundles
# ---------------------------------------------------------------------------

_SUITE_FUNCS = {
    "f": verify_f_identities,
    "congruence": verify_congruences,
    "pairing": verify_pairing_properties,
    "compatibility": verify_compatibility,
    "leading": verify_leading_term,
    "det": verify_det_representation,
}


def run_suites(cfg, suites):
    """Run the named suites on one config; returns one merged report."""
    merged = VerificationReport(cfg.digest())
    for name in suites:
        fn = _SUITE_FUNCS.get(name)
        if fn is None:
            raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")
        merged.checks.extend(fn(cfg).checks)
    return merged


@dataclass(frozen=True)
class BundleEntry:
    label: str
    config: VerificationConfig
    suites: tuple


def _all_monic_ranks(q, max_deg):
    return tuple(
        ranks + (1,) for d in range(1, max_deg + 1) for ranks in rank_vectors(q, d)
    )


def default_bundle(seed=VerificationConfig.seed, budget=VerificationConfig.budget):
    """The stock verification set: the full small-field grid for the
    coefficient-family suites, and the exhaustive pairing
    configurations used by the acceptance tests."""
    t = (0, 1)
    t2t1 = (1, 1, 1)

    def config(**kwargs):
        return VerificationConfig(seed=seed, budget=budget, **kwargs)

    return [
        BundleEntry("f-grid-q2", config(p=2), ("f", "congruence")),
        BundleEntry("f-grid-q3", config(p=3), ("f", "congruence")),
        BundleEntry(
            "pairing-q2-r2",
            config(p=2, theta=1, g=(1, 1), a_list=(t, t2t1), ab_pairs=((t, t), (t, t2t1))),
            ("pairing", "compatibility", "det"),
        ),
        BundleEntry(
            "pairing-q2-K4-r2",
            config(p=2, k_extensions=(2,), theta=[0, 1], g=(1, [0, 1]), a_list=(t,)),
            ("pairing", "leading"),
        ),
        BundleEntry("pairing-q2-r3", config(p=2, theta=1, g=(1, 0, 1), a_list=(t,)),
                    ("pairing",)),
        BundleEntry("det-q3-r2", config(p=3, theta=2, g=(1, 1), a_list=(t,)),
                    ("pairing", "det")),
    ] + [
        BundleEntry(
            f"leading-q{q}-r{r}",
            config(p=q, theta=1, g=(1,) * r, a_list=_all_monic_ranks(q, 3)),
            ("leading",),
        )
        for q in (2, 3)
        for r in (1, 2, 3)
    ]


def bundle_from_json(obj, **overrides):
    """One BundleEntry per config in a config file's parsed JSON, each
    config's fields replaced by `overrides` (the CLI's --seed and
    --budget).

    The file holds one config object or {"configs": [config, ...]}.  A
    config object has `VerificationConfig.to_json`'s keys, of which only
    "p" is required, and two more, both optional: "label", a string
    ("config-<i>" for the i-th config by default), and "suites", a list
    of names from SUITE_NAMES.  With no suites, or an empty list, a
    config with a theta runs the four module suites and one without runs
    "f" and "congruence"."""
    if isinstance(obj, dict) and "configs" in obj:
        objs = obj["configs"]
        if not isinstance(objs, list):
            raise MalformedInput(f"configs must be a list of objects, got {objs!r}")
    else:
        objs = [obj]
    out = []
    for i, entry in enumerate(objs):
        if not isinstance(entry, dict):
            raise MalformedInput(f"a config must be a JSON object, got {entry!r}")
        entry = dict(entry)
        suites = entry.pop("suites", [])
        if not (isinstance(suites, list) and all(s in SUITE_NAMES for s in suites)):
            raise MalformedInput(
                f"suites must be a list of names from {SUITE_NAMES}, got {suites!r}"
            )
        label = entry.pop("label", f"config-{i}")
        if not isinstance(label, str):
            raise MalformedInput(f"label must be a string, got {label!r}")
        cfg = replace(VerificationConfig.from_json(entry), **overrides)
        if not suites:
            suites = SUITE_NAMES[2:] if cfg.theta is not None else SUITE_NAMES[:2]
        out.append(BundleEntry(label, cfg, tuple(suites)))
    return out


# ---------------------------------------------------------------------------
# counterexample re-evaluation
# ---------------------------------------------------------------------------


# every identity a suite's counterexample can name
_IDENTITIES = tuple("""f_chain_eq_recursive f_rootfree_eq_chain f_rationality f_symmetry
    f_root_order f_degree_bound f_closed_const_one f_closed_tn f_closed_n2 f_closed_n3r3
    f_closed_r2 congruence_exchange congruence_root_peel multilinear additive alternating
    surjective nondegenerate galois poly_agreement compatibility w_degree_bound leading_split
    det_representation""".split())


def reevaluate(counterexample):
    """Recompute a stored counterexample in isolation; True means the
    mismatch reproduces.  A counterexample that is no object, names no
    suite's identity, or whose "inputs" is no object, lacks a key its
    identity reads or holds one of the wrong shape, is MalformedInput."""
    if not isinstance(counterexample, dict):
        raise MalformedInput(f"a counterexample is an object, got {counterexample!r}")
    identity = counterexample.get("identity")
    inputs = counterexample.get("inputs", {})
    if not isinstance(inputs, dict):
        raise MalformedInput(f"counterexample inputs must be an object, got {inputs!r}")
    if identity not in _IDENTITIES:
        raise MalformedInput(f"no suite reports the identity {identity!r}")

    def listed(key):
        value = inputs.get(key)
        if not isinstance(value, (list, tuple)):
            raise MalformedInput(f"inputs.{key} must be a list, got {value!r}")
        return value

    if identity in ("f_chain_eq_recursive", "f_rootfree_eq_chain"):
        p, r = require_int(inputs.get("p"), "inputs.p"), require_int(inputs.get("r"), "inputs.r")
        a = UniPoly.from_ranks(make_field(p, inputs.get("e", 1)), listed("a"))
        other = f_rootfree if identity == "f_rootfree_eq_chain" else f_recursive
        return f_chain_sum(a, r).poly != other(a, r).poly
    if identity in ("multilinear", "compatibility"):
        phi = DrinfeldModule.from_json(inputs.get("module"))
        base = phi.base
        level = field_from_descriptor(inputs.get("level"))
        points = [level.element_from_json(p) for p in listed("points")]
        if len(points) != phi.rank:
            raise MalformedInput(f"inputs.points needs {phi.rank} points, got {len(points)}")
        a = UniPoly.from_ranks(base, listed("a"))
        b = UniPoly.from_ranks(base, listed("b"))
        psi = _det_module(phi)
        if identity == "multilinear":
            slot = require_int(inputs.get("slot"), "inputs.slot")
            if not 0 <= slot < len(points):
                raise MalformedInput(f"inputs.slot {slot} is not a slot of {len(points)} points")
            scaled = list(points)
            scaled[slot] = phi.phi(b)(points[slot])
            lhs = PairingEvaluator(phi, a, level)(scaled)
            rhs = psi.phi(b)(weil_evaluate(phi, a, points))
            return lhs != rhs
        lhs = psi.phi(b)(PairingEvaluator(phi, a * b, level)(points))
        phi_b = phi.phi(b)
        rhs = weil_evaluate(phi, a, [phi_b(x) for x in points])
        return lhs != rhs
    # generic fallback: the stored sides must disagree structurally
    return json.dumps(counterexample.get("lhs"), sort_keys=True) != json.dumps(
        counterexample.get("rhs"), sort_keys=True
    )
