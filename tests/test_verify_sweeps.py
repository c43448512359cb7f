"""The pairing suite's exhaustive sweeps evaluate each tuple once.

The Galois check walks Frobenius orbits of tuples; the k-major loop it
replaced lives on here as an oracle and must give the same verdict.
Call counts are taken by monkeypatch: the check that is running is
read off `_Suite.run`, and every evaluator call and operator
application is recorded under it.
"""

import itertools
from collections import Counter

import pytest

from drinfeld import core, pairing, verify
from drinfeld.core import torsion
from drinfeld.fields import dim_between
from drinfeld.pairing import PairingEvaluator, linear_factors
from drinfeld.polynomials import MultiPoly
from drinfeld.verify import VerificationConfig, default_bundle, verify_pairing_properties

PAIR_I = VerificationConfig(p=2, theta=1, g=(1, 1), a_list=((0, 1),),
                            ab_pairs=(((0, 1), (0, 1)),))
DET_Q3 = VerificationConfig(p=3, theta=2, g=(1, 1), a_list=((0, 1),))
STOCK = [entry.config for entry in default_bundle() if "pairing" in entry.suites]


def k_major_galois(ev, pts, r, m, s):
    """The Galois check as one loop over k = 1..m, each over every
    tuple: both sides evaluated afresh for every (tuple, k).  The first
    failing (k, tuple), or None."""
    for k in range(1, m + 1):
        for tup in itertools.product(pts, repeat=r):
            if ev(tup).frobenius(k * s) != ev([b.frobenius(k * s) for b in tup]):
                return k, tup
    return None


def oracle_failures(cfg):
    phi = cfg.module()
    s = dim_between(phi.K, phi.base)
    failures = []
    for a in cfg.a_polys():
        tm = torsion(phi, a, cap=cfg.extension_cap)
        ev = PairingEvaluator(phi, a, tm.level)
        failures.append(k_major_galois(ev, tm.points(), phi.rank, tm.m, s))
    return failures


def oracle_verdicts(cfg):
    return [failure is None for failure in oracle_failures(cfg)]


def galois_verdicts(report):
    return [c.status == "pass" for c in report.checks if c.name.startswith("pairing.galois")]


def scale_outside_k(monkeypatch):
    """Every evaluator value is multiplied by the least-ranked element
    of its level that the Frobenius of K moves."""
    real = pairing.PairingEvaluator.__call__
    factors = {}

    def scaled(self, betas):
        level = self.level
        if level not in factors:
            s = dim_between(self.phi.K, self.phi.base)
            factors[level] = next(
                x for x in map(level.element_of_rank, range(level.order))
                if x.frobenius(s) != x
            )
        return real(self, betas) * factors[level]

    monkeypatch.setattr(pairing.PairingEvaluator, "__call__", scaled)


def record_by_check(monkeypatch):
    """Evaluator calls and operator applications, keyed by the name of
    the check that made them."""
    current = [None]
    evals, applied = {}, {}
    real_run = verify._Suite.run
    real_ev = pairing.PairingEvaluator.__call__
    real_apply = core.SkewPoly.__call__

    def run(self, name, fn):
        current[0] = name
        try:
            return real_run(self, name, fn)
        finally:
            current[0] = None  # set-up between checks is nobody's

    def ev(self, betas):
        evals.setdefault(current[0], []).append(tuple(betas))
        return real_ev(self, betas)

    def apply(self, x):
        # the operator itself is kept, so no two live operators share an id
        applied.setdefault(current[0], []).append((self, x))
        return real_apply(self, x)

    monkeypatch.setattr(verify._Suite, "run", run)
    monkeypatch.setattr(pairing.PairingEvaluator, "__call__", ev)
    monkeypatch.setattr(core.SkewPoly, "__call__", apply)
    return evals, applied


def per_a(cfg):
    phi = cfg.module()
    for a in cfg.a_polys():
        yield phi, a, torsion(phi, a, cap=cfg.extension_cap).points()


def repeats(calls):
    return max(Counter((id(op), x) for op, x in calls).values())


@pytest.mark.parametrize("cfg", STOCK, ids=lambda c: f"q{c.p}-r{len(c.g)}-K{c.k_extensions}")
def test_orbit_walk_agrees_with_k_major_oracle(cfg):
    report = verify_pairing_properties(cfg)
    verdicts = galois_verdicts(report)
    assert verdicts and all(verdicts)
    assert verdicts == oracle_verdicts(cfg)


@pytest.mark.parametrize("cfg", [PAIR_I, DET_Q3], ids=["PAIR_I", "DET_Q3"])
def test_scaled_evaluator_fails_galois(monkeypatch, cfg):
    scale_outside_k(monkeypatch)
    report = verify_pairing_properties(cfg)
    fails = [c for c in report.failures() if c.name.startswith("pairing.galois")]
    assert fails and fails[0].counterexample["identity"] == "galois"
    assert fails[0].counterexample["lhs"] != fails[0].counterexample["rhs"]
    assert galois_verdicts(report) == oracle_verdicts(cfg) == [False]
    # the scaled value fails on every tuple with a nonzero value, so the
    # least such tuple leads the first failing orbit and the walk names
    # the same (k, tuple) as the k-major loop
    ((k, tup),) = oracle_failures(cfg)
    inputs = fails[0].counterexample["inputs"]
    assert (inputs["k"], inputs["points"]) == (k, [b.to_json() for b in tup])


def test_galois_point_outside_the_points_is_a_mismatch(monkeypatch):
    # a torsion module whose last point is dropped: its Frobenius image
    # has no index, and the check names the point instead of raising
    real = core.TorsionModule.points
    monkeypatch.setattr(core.TorsionModule, "points", lambda self: real(self)[:-1])
    report = verify_pairing_properties(PAIR_I)
    (check,) = [c for c in report.checks if c.name.startswith("pairing.galois")]
    assert check.status == "fail"
    assert set(check.counterexample["inputs"]) == {"a", "point"}


@pytest.mark.parametrize("cfg", STOCK, ids=lambda c: f"q{c.p}-r{len(c.g)}-K{c.k_extensions}")
def test_galois_evaluates_each_tuple_once(monkeypatch, cfg):
    evals, _ = record_by_check(monkeypatch)
    assert verify_pairing_properties(cfg).ok()
    assert len([n for n in evals if n and "galois" in n]) == len(cfg.a_list)
    for phi, a, pts in per_a(cfg):
        calls = evals[f"pairing.galois[a={a.render()}]"]
        assert len(calls) == len(set(calls)) == len(pts) ** phi.rank


def test_multilinear_evaluates_each_base_tuple_once(monkeypatch):
    evals, _ = record_by_check(monkeypatch)
    assert verify_pairing_properties(PAIR_I).ok()
    trials = 1 + 2 * PAIR_I.trials  # the fixed trial, then trials per slot
    # phi_b-scaled, base, summed and split tuple, once each
    assert len(evals["pairing.multilinear[a=T]"]) == 4 * trials


def test_agreement_applies_each_operator_once_per_point(monkeypatch):
    _, applied = record_by_check(monkeypatch)
    for cfg in STOCK:
        applied.clear()
        assert verify_pairing_properties(cfg).ok()
        for phi, a, pts in per_a(cfg):
            calls = applied[f"pairing.poly_agreement[a={a.render()}]"]
            assert repeats(calls) == 1
            psi_torsion = cfg.base_ctx().order ** a.degree
            # phi_{T^i} for i < deg a and phi_a once per point, the
            # tripwire once per value
            assert len(calls) <= (a.degree + 1) * len(pts) + psi_torsion
            for i in range(a.degree):
                tpow = phi.phi_tpow(i)
                assert {x for op, x in calls if op == tpow} >= set(pts)


def test_compat_applies_operators_once_per_point_and_value(monkeypatch):
    _, applied = record_by_check(monkeypatch)
    cfg = next(c for c in STOCK if c.ab_pairs)
    assert verify.verify_compatibility(cfg).ok()
    names = [n for n in applied if n and n.startswith("compatibility.identity")]
    assert len(names) == len(cfg.ab_pairs)
    for name in names:
        calls = applied[name]
        assert calls and repeats(calls) == 1


def test_linear_factors_match_one_term_products():
    level = STOCK[0].base_ctx()
    one = level.one_element
    for r in (1, 2, 3):
        for factors in ([], [(0, one)], [(r - 1, one), (0, level.zero_element), (r - 1, one)]):
            expected = MultiPoly.one(level, r)
            for j, alpha in factors:
                expected = expected * (MultiPoly.variable(level, r, j)
                                       - MultiPoly.constant(level, r, alpha))
            assert linear_factors(level, r, factors) == expected
