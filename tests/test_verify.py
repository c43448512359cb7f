import copy
import hashlib
import json
import random

import pytest

from drinfeld import pairing, verify
from drinfeld.core import DrinfeldModule, TorsionModule, torsion
from drinfeld.errors import ConfigurationTooLarge, MalformedInput
from drinfeld.pairing import FaPoly
from drinfeld.polynomials import MultiPoly, UniPoly
from drinfeld.verify import (
    VerificationConfig,
    VerificationReport,
    default_bundle,
    merge_reports,
    reevaluate,
    run_suites,
    verify_compatibility,
    verify_congruences,
    verify_det_representation,
    verify_f_identities,
    verify_leading_term,
    verify_pairing_properties,
)

SMALL_F = VerificationConfig(p=2, max_deg=2)
PAIR_I = VerificationConfig(p=2, theta=1, g=(1, 1), a_list=((0, 1),),
                            ab_pairs=(((0, 1), (0, 1)),))
DET_Q3 = VerificationConfig(p=3, theta=2, g=(1, 1), a_list=((0, 1),))


def _strip_millis(report_json):
    cleaned = copy.deepcopy(report_json)
    for check in cleaned["checks"]:
        check.pop("millis", None)
    return cleaned


def test_f_suite_passes_and_counts():
    report = verify_f_identities(SMALL_F)
    assert report.ok()
    # every check name carries the configuration that produced it
    assert all("[q=2" in c.name for c in report.checks)


def test_r1_grid_is_all_ones():
    cfg = VerificationConfig(p=3, ranks=(1,), max_deg=2)
    report = verify_f_identities(cfg)
    assert report.ok()
    const_checks = [c for c in report.checks if "closed_form.const_one" in c.name]
    assert len(const_checks) == 12  # every monic a of degree 1 and 2


def test_congruence_suite_passes():
    assert verify_congruences(SMALL_F).ok()


def test_congruence_r1_vacuous():
    cfg = VerificationConfig(p=2, ranks=(1,), max_deg=1)
    report = verify_congruences(cfg)
    assert report.ok()
    assert any("exchange" in c.name and c.status == "pass" for c in report.checks)


def test_pairing_suite_passes():
    assert verify_pairing_properties(PAIR_I).ok()


def test_compat_suite_passes():
    assert verify_compatibility(PAIR_I).ok()


def test_det_suite_passes():
    assert verify_det_representation(PAIR_I).ok()
    assert verify_det_representation(DET_Q3).ok()


def test_leading_suite_skips_rank1_split():
    cfg = VerificationConfig(p=2, theta=1, g=(1,), a_list=((0, 1), (1, 1, 1)))
    report = verify_leading_term(cfg)
    assert report.ok()
    assert any(c.status == "skipped" for c in report.checks)


def test_leading_records_scalar_for_nonrational_top_coefficient():
    cfg = VerificationConfig(p=2, k_extensions=(2,), theta=[0, 1],
                             g=(1, [0, 1]), a_list=((0, 1, 1),))
    report = verify_leading_term(cfg)
    assert report.ok()
    split = next(c for c in report.checks if "split" in c.name)
    assert split.details is not None and "observed_c" in split.details
    assert split.details["asserted"] is False


def test_budget_guard():
    tiny = VerificationConfig(p=2, theta=1, g=(1, 1), a_list=((0, 1),), budget=10)
    with pytest.raises(ConfigurationTooLarge):
        verify_pairing_properties(tiny)


@pytest.mark.parametrize("budget, tuples", [(1, 1), (100, 100), (256, 256)])
def test_compatibility_sampling_respects_budget(monkeypatch, budget, tuples):
    # phi[T^2] has 16 points, so 256 tuples; past the budget the suite
    # used to sample 10,000 tuples whatever the budget
    calls = {}  # degree of the evaluator's a -> the tuples it was called on
    real_call = pairing.PairingEvaluator.__call__

    def counted(self, betas):
        calls.setdefault(self.a.degree, []).append(tuple(betas))
        return real_call(self, betas)

    monkeypatch.setattr(pairing.PairingEvaluator, "__call__", counted)
    cfg = VerificationConfig(p=2, theta=1, g=(1, 1), ab_pairs=(((0, 1), (0, 1)),),
                             budget=budget)
    assert verify_compatibility(cfg).ok()
    # W_ab (a*b = T^2) once per tuple; W_a (a = T) once per distinct
    # phi_b image tuple, with the images recomputed here
    ab_tuples, a_tuples = calls[2], calls[1]
    assert len(ab_tuples) == tuples
    phi_b = cfg.module().phi(UniPoly.from_ranks(cfg.K_ctx(), [0, 1]))
    images = {tuple(phi_b(x) for x in tup) for tup in ab_tuples}
    assert len(a_tuples) == len(set(a_tuples)) == len(images)
    assert set(a_tuples) == images


def _break_chain_sum(monkeypatch, alter):
    """The verifier's chain-sum f_a becomes alter(f_a).  Each call returns
    a fresh FaPoly, so the oracle memo keeps the true f_a."""
    real = verify.f_chain_sum

    def broken(a, r):
        fa = real(a, r)
        return FaPoly(alter(fa.poly), fa.a, fa.r, fa.route, fa.roots)

    monkeypatch.setattr(verify, "f_chain_sum", broken)


def _flip_lowest_term(poly):
    """One added to the coefficient of the lowest term (least total
    degree, then exponents)."""
    key = min(poly.terms, key=lambda e: (sum(e), e))
    terms = dict(poly.terms)
    terms[key] = terms[key] + poly.ctx.one_element
    return MultiPoly(poly.ctx, poly.nvars, terms)


def _drop_psi_sign(monkeypatch):
    """The verifier's determinant module loses its (-1)**(r-1) factor."""
    monkeypatch.setattr(
        verify, "_det_module", lambda phi: DrinfeldModule(phi.K, phi.theta, (phi.g[-1],))
    )


def test_mutation_flip_coefficient_detected(monkeypatch):
    _break_chain_sum(monkeypatch, _flip_lowest_term)
    report = verify_f_identities(SMALL_F)
    fails = report.failures()
    assert fails
    for entry in fails:
        assert entry.counterexample is not None
    for identity in ("f_chain_eq_recursive", "f_rootfree_eq_chain"):
        sample = next(c for c in fails if c.counterexample["identity"] == identity)
        assert sample.name.startswith(f"f.{identity[2:]}")
        assert reevaluate(sample.counterexample)


def test_mutation_fa_plus_t1_detected(monkeypatch):
    _break_chain_sum(monkeypatch, lambda f: f + MultiPoly.variable(f.ctx, f.nvars, 0))
    report = verify_congruences(SMALL_F)
    fails = report.failures()
    assert fails and all(c.counterexample for c in fails)
    assert any("exchange" in c.name for c in fails)


def test_mutation_psi_sign_detected_in_odd_characteristic(monkeypatch):
    _drop_psi_sign(monkeypatch)
    report = verify_pairing_properties(DET_Q3)
    fails = report.failures()
    assert fails and all(c.counterexample for c in fails)
    multi = [c for c in fails if "multilinear" in c.name]
    assert multi, "dropping the sign must break linearity in even rank"
    assert reevaluate(multi[0].counterexample)


def test_mutation_psi_sign_invisible_in_char2(monkeypatch):
    # (-1)**(r-1) = 1 in characteristic 2, so the broken module is the
    # correct one and nothing can fail
    _drop_psi_sign(monkeypatch)
    report = verify_pairing_properties(PAIR_I)
    assert report.ok()


def test_mutation_fab_product_detected(monkeypatch):
    # the pairing for ab is built from f_a * f_b instead of f_ab
    base = PAIR_I.base_ctx()
    ((a_ranks, b_ranks),) = PAIR_I.ab_pairs
    a, b = UniPoly.from_ranks(base, a_ranks), UniPoly.from_ranks(base, b_ranks)
    real = pairing.f_rootfree

    def broken(c, r):
        if c != a * b:
            return real(c, r)
        return FaPoly(real(a, r).poly * real(b, r).poly, c, r, "rootfree", ())

    monkeypatch.setattr(pairing, "f_rootfree", broken)
    report = verify_compatibility(PAIR_I)
    fails = report.failures()
    assert fails and fails[0].counterexample["identity"] == "compatibility"
    assert reevaluate(fails[0].counterexample)


def test_reports_reproducible_modulo_timing():
    r1 = verify_pairing_properties(PAIR_I)
    r2 = verify_pairing_properties(PAIR_I)
    assert _strip_millis(r1.to_json()) == _strip_millis(r2.to_json())
    f1 = verify_f_identities(VerificationConfig(p=2, max_deg=1, seed=9))
    f2 = verify_f_identities(VerificationConfig(p=2, max_deg=1, seed=9))
    assert _strip_millis(f1.to_json()) == _strip_millis(f2.to_json())


def test_report_json_schema():
    report = verify_pairing_properties(PAIR_I)
    obj = report.to_json()
    assert set(obj) == {"config_digest", "checks"}
    assert obj["config_digest"] == PAIR_I.digest()
    for check in obj["checks"]:
        assert {"name", "status", "millis"} <= set(check)
        assert check["status"] in ("pass", "fail", "skipped")
    blob = json.dumps(obj)
    assert json.loads(blob) == obj


def test_config_json_roundtrip_and_digest():
    cfg = VerificationConfig(
        p=2, k_extensions=(2,), theta=[0, 1], g=(1, [0, 1]),
        a_list=((0, 1),), ab_pairs=(((0, 1), (1, 1, 1)),), seed=7,
    )
    again = VerificationConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.digest() == cfg.digest()


def test_merge_reports_sorted():
    r1 = VerificationReport("a")
    r2 = VerificationReport("b")
    from drinfeld.verify import CheckResult

    r1.checks.append(CheckResult("z", "pass"))
    r2.checks.append(CheckResult("a", "fail", {"lhs": 1, "rhs": 2}))
    merged = merge_reports([r1, r2])
    assert [c.name for c in merged.checks] == ["a", "z"]
    assert not merged.ok()


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(SMALL_F, ("nonsense",))


def test_reevaluate_fallback_compares_sides():
    assert reevaluate({"identity": "anything", "lhs": [1], "rhs": [2]})
    assert not reevaluate({"identity": "anything", "lhs": [1], "rhs": [1]})


@pytest.mark.parametrize(
    "inputs",
    [
        {"p": 2.9, "e": 1, "a": [1, 1], "r": 2},
        {"p": 2, "e": True, "a": [1, 1], "r": 2},
        {"p": 2, "e": 1, "a": [1, 1], "r": 2.0},
        {"p": 2, "a": [1.5, 1], "r": 2},
        {"p": 2, "a": [1, True], "r": 2},
    ],
)
def test_reevaluate_never_coerces_inputs(inputs):
    counterexample = {"identity": "f_chain_eq_recursive", "inputs": inputs}
    with pytest.raises(MalformedInput):
        reevaluate(counterexample)


def test_default_bundle_shape():
    bundle = default_bundle()
    labels = [entry.label for entry in bundle]
    assert "f-grid-q2" in labels and "f-grid-q3" in labels
    assert "pairing-q2-r2" in labels
    assert len(labels) == len(set(labels))
    for entry in bundle:
        assert entry.suites


def test_default_bundle_report_is_golden(bundle, bundle_reports):
    # the object `drinfeld verify --json` prints for the stock bundle,
    # timing fields dropped, must not change by a byte
    reports = [{"label": label, **bundle_reports[label].to_json()} for label in bundle]
    for report in reports:
        for check in report["checks"]:
            del check["millis"]
    obj = {"ok": all(r.ok() for r in bundle_reports.values()), "reports": reports}
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "73a692be8c343ac11e1eee1d713850c263f683a499ee37860ef37cb4077b4728"
    )


def test_compatibility_samples_by_index_the_tuples_the_point_list_gave(monkeypatch):
    # sampling draws an index per slot and builds that point alone; the
    # draws are those random.choice made on the full point list
    cfg = VerificationConfig(p=2, e=2, theta=2, g=(1, 1), ab_pairs=(((1, 1), (0, 1)),),
                             budget=7, seed=3)
    a, b = (UniPoly.from_ranks(cfg.K_ctx(), r) for r in cfg.ab_pairs[0])
    tm = torsion(cfg.module(), a * b, cap=cfg.extension_cap)
    pts = tm.points()
    assert [tm.point(i) for i in range(tm.count())] == list(pts)
    rng = random.Random(cfg.seed)
    expected = [tuple(rng.choice(pts) for _ in range(2)) for _ in range(cfg.budget)]

    seen = []
    real_call = pairing.PairingEvaluator.__call__

    def counted(self, betas):
        if self.a.degree == 2:
            seen.append(tuple(betas))
        return real_call(self, betas)

    def no_point_list(self):
        raise AssertionError("the sampled branch builds the whole point list")

    monkeypatch.setattr(pairing.PairingEvaluator, "__call__", counted)
    monkeypatch.setattr(TorsionModule, "points", no_point_list)
    assert verify_compatibility(cfg).ok()
    assert seen == expected
