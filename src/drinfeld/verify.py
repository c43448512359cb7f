"""Executable renditions of the identities the package implements.

Every suite turns one family of statements into named pass/fail checks
with machine-readable counterexamples: the dual construction and closed
forms of the symmetric family, the exchange and root-peel congruences,
the five pairing properties by exhaustion, the degree/leading-term
decomposition, and the determinant-of-Galois-action comparison.

All randomness flows from the config seed, the exhaustive/sampled
switch is an explicit evaluation budget, and reports are reproducible
byte-for-byte apart from their timing fields.

The suites also accept deliberate fault injections (a dropped
determinant-module sign, a wrong coefficient family for a product
operator, a flipped coefficient).  These exist so the test bed can
prove the checks have teeth; production callers leave `fault=None`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field

from .core import (
    DrinfeldModule,
    GaloisElement,
    ResidueRing,
    fq_span,
    galois_action_matrix,
    operator_kernel,
    torsion,
)
from .errors import ConfigurationTooLarge, MalformedInput, NotInSubfield
from .fields import dim_between, extend, field_from_descriptor, make_field
from .pairing import (
    PairingEvaluator,
    chain_sum_over_roots,
    f_chain_sum,
    f_recursive,
    f_root_order_variant,
    f_rootfree,
    weil_evaluate,
    weil_polynomial,
)
from .polynomials import IdealI, MultiPoly, UniPoly, all_monic, normal_form

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
    extension_cap: int = 64
    budget: int = 10_000_000

    def __post_init__(self):
        make_field(self.p)  # raises NonPrimeCharacteristic unless p is prime
        for name in ("trials", "budget", "extension_cap"):
            if getattr(self, name) < 1:
                raise MalformedInput(f"{name} must be >= 1, got {getattr(self, name)}")
        if any(r < 1 for r in self.ranks):
            raise MalformedInput(f"every arity in ranks must be >= 1, got {list(self.ranks)}")
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
            ctx = extend(ctx, int(d))[0]
        return ctx

    def module(self):
        if self.theta is None:
            return None
        K = self.K_ctx()
        return DrinfeldModule(
            K, _element(K, self.theta), tuple(_element(K, c) for c in self.g)
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
        base = self.base_ctx()
        out = []
        for d in range(1, self.max_deg + 1):
            out.extend(all_monic(base, d))
        return out

    def to_json(self):
        return {
            "p": self.p,
            "e": self.e,
            "k_extensions": list(self.k_extensions),
            "theta": self.theta,
            "g": list(self.g),
            "ranks": list(self.ranks),
            "max_deg": self.max_deg,
            "a_list": [list(a) for a in self.a_list],
            "ab_pairs": [[list(a), list(b)] for a, b in self.ab_pairs],
            "trials": self.trials,
            "seed": self.seed,
            "extension_cap": self.extension_cap,
            "budget": self.budget,
        }

    @classmethod
    def from_json(cls, obj):
        return cls(
            p=int(obj["p"]),
            e=int(obj.get("e", 1)),
            k_extensions=tuple(obj.get("k_extensions", ())),
            theta=obj.get("theta"),
            g=tuple(obj.get("g", ())),
            ranks=tuple(obj.get("ranks", (1, 2, 3))),
            max_deg=int(obj.get("max_deg", 3)),
            a_list=_tuples(obj.get("a_list", ())),
            ab_pairs=_tuples(obj.get("ab_pairs", ())),
            trials=int(obj.get("trials", 30)),
            seed=int(obj.get("seed", 0)),
            extension_cap=int(obj.get("extension_cap", 64)),
            budget=int(obj.get("budget", 10_000_000)),
        )

    def digest(self):
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _element(K, spec):
    if isinstance(spec, int):
        return K.element_of_rank(spec)
    return K.element_from_json(spec)


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


def merge_reports(reports):
    """Single report with checks ordered by name; digests are chained."""
    blob = ",".join(r.config_digest for r in reports)
    merged = VerificationReport(hashlib.sha256(blob.encode()).hexdigest())
    for r in reports:
        merged.checks.extend(r.checks)
    merged.checks.sort(key=lambda c: c.name)
    return merged


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


def verify_f_identities(cfg, fault=None):
    """Dual construction, root-free product against the chain sum,
    symmetry, root-order invariance, rationality, degree bounds, and
    every applicable closed form, over the grid."""
    suite = _Suite(cfg)
    base = cfg.base_ctx()
    rng = random.Random(cfg.seed)
    for a in cfg.grid_polys():
        n = a.degree
        for r in cfg.ranks:
            tag = f"[q={base.order},r={r},a={a.render()}]"
            chain = f_chain_sum(a, r)
            poly = chain.poly
            if fault == "flip_fa_coefficient":
                key = min(poly.terms, key=lambda e: (sum(e), e))
                terms = dict(poly.terms)
                terms[key] = terms[key] + base.one_element
                poly = MultiPoly(base, r, terms)

            def chain_eq_recursive(poly=poly, a=a, r=r):
                rec = f_recursive(a, r).poly
                if poly == rec:
                    return True
                return False, {
                    "identity": "f_chain_eq_recursive",
                    "inputs": {
                        "p": cfg.p,
                        "e": cfg.e,
                        "a": [c.rank() for c in a.coeffs],
                        "r": r,
                        "fault": fault,
                    },
                    "lhs": poly.to_json(),
                    "rhs": rec.to_json(),
                }

            suite.run(f"f.chain_eq_recursive{tag}", chain_eq_recursive)

            def rootfree_eq_chain(poly=poly, a=a, r=r):
                rootfree = f_rootfree(a, r).poly
                if rootfree == poly:
                    return True
                return False, {
                    "identity": "f_rootfree_eq_chain",
                    "inputs": {
                        "p": cfg.p,
                        "e": cfg.e,
                        "a": [c.rank() for c in a.coeffs],
                        "r": r,
                        "fault": fault,
                    },
                    "lhs": rootfree.to_json(),
                    "rhs": poly.to_json(),
                }

            suite.run(f"f.rootfree_eq_chain{tag}", rootfree_eq_chain)

            def symmetry(poly=poly, r=r, a=a):
                for sigma in itertools.permutations(range(r)):
                    if poly.permute(sigma) != poly:
                        return False, {
                            "identity": "f_symmetry",
                            "inputs": {"a": [c.rank() for c in a.coeffs], "r": r,
                                       "sigma": list(sigma)},
                            "lhs": poly.permute(sigma).to_json(),
                            "rhs": poly.to_json(),
                        }
                return True

            suite.run(f"f.symmetry{tag}", symmetry)

            def root_order(a=a, r=r, chain=chain, n=n):
                count = max(10, cfg.trials // 3)
                for _ in range(count):
                    order = list(range(n))
                    rng.shuffle(order)
                    variant = f_root_order_variant(a, r, order)
                    if variant.poly != chain.poly:
                        return False, {
                            "identity": "f_root_order",
                            "inputs": {"a": [c.rank() for c in a.coeffs], "r": r,
                                       "order": order},
                            "lhs": variant.poly.to_json(),
                            "rhs": chain.poly.to_json(),
                        }
                return True

            suite.run(f"f.root_order{tag}", root_order)

            def degree_bound(poly=poly, r=r, n=n, a=a):
                for j in range(r):
                    if poly.degree_in(j) > n - 1:
                        return False, {
                            "identity": "f_degree_bound",
                            "inputs": {"a": [c.rank() for c in a.coeffs], "r": r,
                                       "var": j + 1},
                            "lhs": poly.degree_in(j),
                            "rhs": n - 1,
                        }
                return True

            suite.run(f"f.degree_bound{tag}", degree_bound)

            # rationality: f_chain_sum would have raised; assert the level
            suite.run(f"f.rationality{tag}", lambda poly=poly: poly.ctx is base)

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

                def closed_check(poly=poly, expected=expected, label=label, a=a, r=r):
                    if poly == expected:
                        return True
                    return False, {
                        "identity": f"f_closed_{label}",
                        "inputs": {"a": [c.rank() for c in a.coeffs], "r": r},
                        "lhs": poly.to_json(),
                        "rhs": expected.to_json(),
                    }

                suite.run(f"f.closed_form.{label}{tag}", closed_check)
    return suite.report


# ---------------------------------------------------------------------------
# suite: congruences modulo the torsion ideal
# ---------------------------------------------------------------------------


def verify_congruences(cfg, fault=None):
    """Exchange congruence T_l f_a = T_h f_a and the root-peel
    congruence over the splitting level, reduced to normal form."""
    suite = _Suite(cfg)
    base = cfg.base_ctx()
    for a in cfg.grid_polys():
        for r in cfg.ranks:
            tag = f"[q={base.order},r={r},a={a.render()}]"
            fa = f_chain_sum(a, r)
            poly = fa.poly
            if fault == "fa_plus_T1":
                poly = poly + MultiPoly.variable(base, r, 0)
            ideal = IdealI(a, r)

            def exchange(poly=poly, r=r, ideal=ideal, a=a):
                for l in range(r):
                    for h in range(l + 1, r):
                        diff = (
                            MultiPoly.variable(base, r, l)
                            - MultiPoly.variable(base, r, h)
                        ) * poly
                        nf = normal_form(diff, ideal)
                        if not nf.is_zero():
                            return False, {
                                "identity": "congruence_exchange",
                                "inputs": {"a": [c.rank() for c in a.coeffs],
                                           "r": r, "l": l + 1, "h": h + 1,
                                           "fault": fault},
                                "lhs": nf.to_json(),
                                "rhs": MultiPoly.zero(base, r).to_json(),
                            }
                return True

            suite.run(f"congruence.exchange{tag}", exchange)

            def root_peel(fa=fa, r=r, ideal=ideal, a=a):
                level = fa.roots[0].ctx if fa.roots else base
                lifted = fa.poly.embed_to(level)
                seen = set()
                for idx, alpha in enumerate(fa.roots):
                    if alpha in seen:
                        continue
                    seen.add(alpha)
                    rest = fa.roots[:idx] + fa.roots[idx + 1 :]
                    f_rem = chain_sum_over_roots(level, rest, r)
                    shared = MultiPoly.one(level, r)
                    for j in range(r):
                        shared = shared * (
                            MultiPoly.variable(level, r, j)
                            - MultiPoly.constant(level, r, alpha)
                        )
                    rhs = shared * f_rem
                    for l in range(r):
                        lhs = (
                            MultiPoly.variable(level, r, l)
                            - MultiPoly.constant(level, r, alpha)
                        ) * lifted
                        nf = normal_form(lhs - rhs, ideal)
                        if not nf.is_zero():
                            return False, {
                                "identity": "congruence_root_peel",
                                "inputs": {"a": [c.rank() for c in a.coeffs],
                                           "r": r, "l": l + 1,
                                           "alpha": alpha.to_json()},
                                "lhs": nf.to_json(),
                                "rhs": MultiPoly.zero(level, r).to_json(),
                            }
                return True

            suite.run(f"congruence.root_peel{tag}", root_peel)
    return suite.report


# ---------------------------------------------------------------------------
# suite: pairing properties by exhaustion
# ---------------------------------------------------------------------------


def _det_module_for(phi, fault):
    if fault == "psi_sign":
        # deliberately wrong: drops the (-1)**(r-1) factor
        return DrinfeldModule(phi.K, phi.theta, (phi.g[-1],))
    return phi.det_module()


def _point_list_json(points):
    return [p.to_json() for p in points]


def verify_pairing_properties(cfg, fault=None):
    """Multilinearity, alternation, surjectivity, nondegeneracy and
    Galois invariance, exhaustively within the configured budget."""
    suite = _Suite(cfg)
    phi = cfg.module()
    base = phi.base
    psi = _det_module_for(phi, fault)
    rng = random.Random(cfg.seed)
    r = phi.rank
    s = dim_between(phi.K, base)
    module_json = phi.to_json()
    for a in cfg.a_polys():
        tag = f"[a={a.render()}]"
        tm = torsion(phi, a, cap=cfg.extension_cap)
        pts = tm.points()
        if len(pts) ** r > cfg.budget:
            raise ConfigurationTooLarge(
                f"{len(pts)}**{r} tuples exceed the budget of {cfg.budget}"
            )
        level = tm.level
        ev = PairingEvaluator(phi, a, level)
        a_ranks = [c.rank() for c in a.coeffs]

        def multilinear():
            psi_cache = {}
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
            for b, tup, slot in trials:
                key = tuple(c.rank() for c in b.coeffs)
                if key not in psi_cache:
                    psi_cache[key] = psi.phi(b)
                psi_b = psi_cache[key]
                phi_b = phi.phi(b)
                scaled = list(tup)
                scaled[slot] = phi_b(tup[slot])
                lhs = ev(scaled)
                rhs = psi_b(ev(tup))
                if lhs != rhs:
                    return False, {
                        "identity": "multilinear",
                        "inputs": {
                            "module": module_json,
                            "a": a_ranks,
                            "b": [c.rank() for c in b.coeffs],
                            "slot": slot,
                            "points": _point_list_json(tup),
                            "level": level.descriptor(),
                            "fault": fault,
                        },
                        "lhs": lhs.to_json(),
                        "rhs": rhs.to_json(),
                    }
                other = rng.choice(pts)
                summed = list(tup)
                summed[slot] = tup[slot] + other
                split = list(tup)
                split[slot] = other
                lhs2 = ev(summed)
                rhs2 = ev(tup) + ev(split)
                if lhs2 != rhs2:
                    return False, {
                        "identity": "additive",
                        "inputs": {
                            "a": a_ranks,
                            "slot": slot,
                            "points": _point_list_json(tup),
                            "other": other.to_json(),
                            "level": level.descriptor(),
                        },
                        "lhs": lhs2.to_json(),
                        "rhs": rhs2.to_json(),
                    }
            return True

        suite.run(f"pairing.multilinear{tag}", multilinear)

        def alternating():
            for tup in itertools.product(pts, repeat=r):
                if len(set(tup)) == len(tup):
                    continue
                val = ev(tup)
                if not val.is_zero():
                    return False, {
                        "identity": "alternating",
                        "inputs": {"a": a_ranks, "points": _point_list_json(tup)},
                        "lhs": val.to_json(),
                        "rhs": level.zero_element.to_json(),
                    }
            return True

        suite.run(f"pairing.alternating{tag}", alternating)

        psi_a = psi.phi(a)
        psi_points = set(fq_span(operator_kernel(psi_a, level, base), level, base))

        def codomain_and_surjective():
            image = set()
            for tup in itertools.product(pts, repeat=r):
                image.add(ev(tup))
            expected_size = base.order**a.degree
            if len(psi_points) != expected_size or image != psi_points:
                return False, {
                    "identity": "surjective",
                    "inputs": {"a": a_ranks, "fault": fault},
                    "lhs": sorted(v.rank() for v in image),
                    "rhs": sorted(v.rank() for v in psi_points),
                }
            return True

        suite.run(f"pairing.surjective{tag}", codomain_and_surjective)

        def nondegenerate():
            for slot in range(r):
                for beta in pts:
                    if beta.is_zero():
                        continue
                    hit = False
                    for rest in itertools.product(pts, repeat=r - 1):
                        tup = rest[:slot] + (beta,) + rest[slot:]
                        if not ev(tup).is_zero():
                            hit = True
                            break
                    if not hit:
                        return False, {
                            "identity": "nondegenerate",
                            "inputs": {"a": a_ranks, "slot": slot,
                                       "beta": beta.to_json()},
                            "lhs": beta.to_json(),
                            "rhs": level.zero_element.to_json(),
                        }
            return True

        suite.run(f"pairing.nondegenerate{tag}", nondegenerate)

        def galois():
            for k in range(1, tm.m + 1):
                for tup in itertools.product(pts, repeat=r):
                    lhs = ev(tup).frobenius(k * s)
                    rhs = ev([b.frobenius(k * s) for b in tup])
                    if lhs != rhs:
                        return False, {
                            "identity": "galois",
                            "inputs": {"a": a_ranks, "k": k,
                                       "points": _point_list_json(tup)},
                            "lhs": lhs.to_json(),
                            "rhs": rhs.to_json(),
                        }
            return True

        suite.run(f"pairing.galois{tag}", galois)

        def agreement():
            for tup in itertools.product(pts, repeat=r):
                direct = weil_evaluate(phi, a, list(tup))
                if direct != ev(tup):
                    return False, {
                        "identity": "poly_agreement",
                        "inputs": {"a": a_ranks, "points": _point_list_json(tup)},
                        "lhs": direct.to_json(),
                        "rhs": ev(tup).to_json(),
                    }
            return True

        suite.run(f"pairing.poly_agreement{tag}", agreement)
    return suite.report


# ---------------------------------------------------------------------------
# suite: compatibility with operator products
# ---------------------------------------------------------------------------


def verify_compatibility(cfg, fault=None):
    """psi_b(W_{ab}(t)) = W_a(phi_b applied slotwise), on every torsion
    tuple of phi[ab] when that fits the budget, else on sampled tuples."""
    suite = _Suite(cfg)
    phi = cfg.module()
    psi = phi.det_module()
    rng = random.Random(cfg.seed)
    r = phi.rank
    module_json = phi.to_json()
    for a, b in cfg.ab_poly_pairs():
        tag = f"[a={a.render()},b={b.render()}]"
        ab = a * b
        tm = torsion(phi, ab, cap=cfg.extension_cap)
        pts = tm.points()
        level = tm.level
        f_override = None
        if fault == "fab_product":
            f_override = (f_chain_sum(a, r).poly * f_chain_sum(b, r).poly,)
        ev_ab = PairingEvaluator(
            phi, ab, level, f_poly=f_override[0] if f_override else None
        )
        ev_a = PairingEvaluator(phi, a, level)
        psi_b = psi.phi(b)
        phi_b = phi.phi(b)

        def compat():
            total = len(pts) ** r
            if total <= cfg.budget:
                tuples = itertools.product(pts, repeat=r)
            else:
                tuples = (
                    tuple(rng.choice(pts) for _ in range(r)) for _ in range(10_000)
                )
            for tup in tuples:
                lhs = psi_b(ev_ab(tup))
                rhs = ev_a([phi_b(x) for x in tup])
                if lhs != rhs:
                    return False, {
                        "identity": "compatibility",
                        "inputs": {
                            "module": module_json,
                            "a": [c.rank() for c in a.coeffs],
                            "b": [c.rank() for c in b.coeffs],
                            "points": _point_list_json(tup),
                            "level": level.descriptor(),
                            "fault": fault,
                        },
                        "lhs": lhs.to_json(),
                        "rhs": rhs.to_json(),
                    }
            return True

        suite.run(f"compatibility.identity{tag}", compat)
    return suite.report


# ---------------------------------------------------------------------------
# suite: degree bound and leading-term split
# ---------------------------------------------------------------------------


def verify_leading_term(cfg, fault=None):
    """Degree bound q**(rn-1) in every slot, and the factorization of
    the top coefficient in the last slot through the lower-arity
    pairing polynomial."""
    suite = _Suite(cfg)
    phi = cfg.module()
    base = phi.base
    r = phi.rank
    for a in cfg.a_polys():
        tag = f"[a={a.render()}]"
        n = a.degree
        w = weil_polynomial(phi, a)

        def degree_bound(w=w, n=n, a=a):
            for j in range(r):
                if w.max_frob_exp(j) > r * n - 1:
                    return False, {
                        "identity": "w_degree_bound",
                        "inputs": {"a": [c.rank() for c in a.coeffs], "var": j + 1},
                        "lhs": w.max_frob_exp(j),
                        "rhs": r * n - 1,
                    }
            return True

        suite.run(f"leading.degree_bound{tag}", degree_bound)

        if r < 2:
            suite.skip(f"leading.split{tag}", {"reason": "no lower arity in rank 1"})
            continue

        def split(w=w, n=n, a=a):
            top = w.top_slice(r - 1, r * n - 1)
            lower = weil_polynomial(phi, a, arity=r - 1)
            g_r = phi.g[-1]
            try:
                g_r.project_to(base)
                rational = True
            except NotInSubfield:
                rational = False
            if rational:
                expected = lower.scale(g_r ** (n - 1))
                if top == expected:
                    return True, None, {"c": (g_r ** (n - 1)).to_json()}
                return False, {
                    "identity": "leading_split",
                    "inputs": {"a": [c.rank() for c in a.coeffs]},
                    "lhs": top.to_json(),
                    "rhs": expected.to_json(),
                }
            # top twist coefficient outside the base field: record the
            # observed scalar instead of asserting the closed form
            if lower.is_zero() or not top.terms:
                return False, {
                    "identity": "leading_split",
                    "inputs": {"a": [c.rank() for c in a.coeffs]},
                    "lhs": top.to_json(),
                    "rhs": lower.to_json(),
                }
            key = next(iter(sorted(lower.terms)))
            c_obs = top.terms.get(key)
            if c_obs is None:
                return False, {
                    "identity": "leading_split",
                    "inputs": {"a": [c.rank() for c in a.coeffs]},
                    "lhs": top.to_json(),
                    "rhs": lower.to_json(),
                }
            c_obs = c_obs / lower.terms[key]
            if top == lower.scale(c_obs):
                return True, None, {
                    "observed_c": c_obs.to_json(),
                    "g_r^(n-1)": (g_r ** (n - 1)).to_json(),
                    "asserted": False,
                }
            return False, {
                "identity": "leading_split",
                "inputs": {"a": [c.rank() for c in a.coeffs]},
                "lhs": top.to_json(),
                "rhs": lower.scale(c_obs).to_json(),
            }

        suite.run(f"leading.split{tag}", split)
    return suite.report


# ---------------------------------------------------------------------------
# suite: determinant of the Galois action
# ---------------------------------------------------------------------------


def verify_det_representation(cfg, fault=None):
    """det of the torsion action matrix against the scalar by which the
    same Frobenius power acts on the determinant module's torsion."""
    suite = _Suite(cfg)
    phi = cfg.module()
    psi = _det_module_for(phi, fault)
    for a in cfg.a_polys():
        tag = f"[a={a.render()}]"
        tm = torsion(phi, a, cap=cfg.extension_cap)
        tpsi = torsion(psi, a, cap=cfg.extension_cap)
        basis = tm.a_basis(seed=cfg.seed)
        w_gen = tpsi.a_basis(seed=cfg.seed)[0]
        ring = ResidueRing(a)
        period = math.lcm(tm.m, tpsi.m)

        def det_match():
            for k in range(period):
                sigma = GaloisElement(k)
                mat = galois_action_matrix(tm, sigma, basis)
                det = ring.det(mat)
                image = tpsi.apply_galois(w_gen, sigma)
                scalar = tpsi.coordinates(image)[0]
                if det != scalar or not ring.is_unit(det):
                    return False, {
                        "identity": "det_representation",
                        "inputs": {"a": [c.rank() for c in a.coeffs], "k": k,
                                   "fault": fault},
                        "lhs": det.to_json(),
                        "rhs": scalar.to_json(),
                    }
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


def run_suites(cfg, suites, fault=None):
    """Run the named suites on one config; returns one merged report."""
    reports = []
    for name in suites:
        fn = _SUITE_FUNCS.get(name)
        if fn is None:
            raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES}")
        reports.append(fn(cfg, fault=fault))
    if len(reports) == 1:
        return reports[0]
    merged = VerificationReport(cfg.digest())
    for r in reports:
        merged.checks.extend(r.checks)
    return merged


@dataclass(frozen=True)
class BundleEntry:
    label: str
    config: VerificationConfig
    suites: tuple


def _all_monic_ranks(q, max_deg):
    out = []
    for d in range(1, max_deg + 1):
        for combo in itertools.product(range(q), repeat=d):
            out.append(tuple(combo) + (1,))
    return tuple(out)


def default_bundle(seed=0, budget=10_000_000, cap=64):
    """The stock verification set: the full small-field grid for the
    coefficient-family suites, and the exhaustive pairing
    configurations used by the acceptance tests."""
    t = (0, 1)
    t2t1 = (1, 1, 1)
    return [
        BundleEntry(
            "f-grid-q2",
            VerificationConfig(p=2, seed=seed, budget=budget, extension_cap=cap),
            ("f", "congruence"),
        ),
        BundleEntry(
            "f-grid-q3",
            VerificationConfig(p=3, seed=seed, budget=budget, extension_cap=cap),
            ("f", "congruence"),
        ),
        BundleEntry(
            "pairing-q2-r2",
            VerificationConfig(
                p=2, theta=1, g=(1, 1), a_list=(t, t2t1),
                ab_pairs=((t, t), (t, t2t1)),
                seed=seed, budget=budget, extension_cap=cap,
            ),
            ("pairing", "compatibility", "det"),
        ),
        BundleEntry(
            "pairing-q2-K4-r2",
            VerificationConfig(
                p=2, k_extensions=(2,), theta=[0, 1], g=(1, [0, 1]),
                a_list=(t,), seed=seed, budget=budget, extension_cap=cap,
            ),
            ("pairing", "leading"),
        ),
        BundleEntry(
            "pairing-q2-r3",
            VerificationConfig(
                p=2, theta=1, g=(1, 0, 1), a_list=(t,),
                seed=seed, budget=budget, extension_cap=cap,
            ),
            ("pairing",),
        ),
        BundleEntry(
            "det-q3-r2",
            VerificationConfig(
                p=3, theta=2, g=(1, 1), a_list=(t,),
                seed=seed, budget=budget, extension_cap=cap,
            ),
            ("pairing", "det"),
        ),
    ] + [
        BundleEntry(
            f"leading-q{q}-r{r}",
            VerificationConfig(
                p=q, theta=1, g=(1,) * r, a_list=_all_monic_ranks(q, 3),
                seed=seed, budget=budget, extension_cap=cap,
            ),
            ("leading",),
        )
        for q in (2, 3)
        for r in (1, 2, 3)
    ]


def run_bundle(bundle=None, fault=None):
    """Run every bundle entry; returns [(label, report)]."""
    if bundle is None:
        bundle = default_bundle()
    return [
        (entry.label, run_suites(entry.config, entry.suites, fault=fault))
        for entry in bundle
    ]


# ---------------------------------------------------------------------------
# counterexample re-evaluation
# ---------------------------------------------------------------------------


def reevaluate(counterexample):
    """Recompute a stored counterexample in isolation; True means the
    mismatch reproduces."""
    identity = counterexample.get("identity")
    inputs = counterexample.get("inputs", {})
    if identity in ("f_chain_eq_recursive", "f_rootfree_eq_chain"):
        base = make_field(int(inputs["p"]), int(inputs.get("e", 1)))
        a = UniPoly.from_ranks(base, inputs["a"])
        r = int(inputs["r"])
        poly = f_chain_sum(a, r).poly
        if inputs.get("fault") == "flip_fa_coefficient":
            key = min(poly.terms, key=lambda e: (sum(e), e))
            terms = dict(poly.terms)
            terms[key] = terms[key] + base.one_element
            poly = MultiPoly(base, r, terms)
        if identity == "f_rootfree_eq_chain":
            return poly != f_rootfree(a, r).poly
        return poly != f_recursive(a, r).poly
    if identity in ("multilinear", "compatibility"):
        phi = DrinfeldModule.from_json(inputs["module"])
        base = phi.base
        level = field_from_descriptor(inputs["level"])
        points = [level.element_from_json(p) for p in inputs["points"]]
        a = UniPoly.from_ranks(base, inputs["a"])
        b = UniPoly.from_ranks(base, inputs["b"])
        psi = _det_module_for(phi, inputs.get("fault"))
        if identity == "multilinear":
            slot = int(inputs["slot"])
            scaled = list(points)
            scaled[slot] = phi.phi(b)(points[slot])
            lhs = weil_evaluate(phi, a, scaled)
            rhs = psi.phi(b)(weil_evaluate(phi, a, points))
            return lhs != rhs
        ab = a * b
        f_poly = None
        if inputs.get("fault") == "fab_product":
            r = phi.rank
            f_poly = f_chain_sum(a, r).poly * f_chain_sum(b, r).poly
        lhs = phi.det_module().phi(b)(
            PairingEvaluator(phi, ab, level, f_poly=f_poly)(points)
        )
        phi_b = phi.phi(b)
        rhs = weil_evaluate(phi, a, [phi_b(x) for x in points])
        return lhs != rhs
    # generic fallback: the stored sides must disagree structurally
    return json.dumps(counterexample.get("lhs"), sort_keys=True) != json.dumps(
        counterexample.get("rhs"), sort_keys=True
    )
