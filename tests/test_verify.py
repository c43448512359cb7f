import copy
import hashlib
import inspect
import itertools
import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import pairing, polynomials, verify
from drinfeld.core import DrinfeldModule, TorsionModule, torsion
from drinfeld.errors import ConfigurationTooLarge, MalformedInput, RationalityFailure
from drinfeld.pairing import FaPoly, QPowerPoly
from drinfeld.polynomials import MultiPoly, UniPoly
from drinfeld.verify import (
    VerificationConfig,
    default_bundle,
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


def test_leading_asserts_c_for_a_nonrational_top_coefficient():
    # K = GF(4) over GF(2), g_2 = w outside GF(2) and a = T^2 + T, so
    # c = g_2**(q**(r-1)) = w**2, where g_2**(n-1) would be w
    cfg = VerificationConfig(p=2, k_extensions=(2,), theta=[0, 1],
                             g=(1, [0, 1]), a_list=((0, 1, 1),))
    report = verify_leading_term(cfg)
    assert report.ok()
    split = next(c for c in report.checks if "split" in c.name)
    w = cfg.module().g[-1]
    assert w**2 != w and split.details == {"c": (w**2).to_json()}


# K over GF(q) as (p, e, k_extensions): GF(2^2), GF(2^3) and GF(3^2) over
# the prime field, GF(4^2) over GF(4)
LEADING_FIELDS = [(2, 1, (2,)), (2, 1, (3,)), (3, 1, (2,)), (2, 2, (2,))]


@st.composite
def leading_configs(draw):
    """A rank 2-3 module over one of LEADING_FIELDS, g_r drawn over all of
    K, and one monic a over GF(q) of degree 1-3."""
    p, e, ks = draw(st.sampled_from(LEADING_FIELDS))
    q = p**e
    ranks = st.integers(0, q ** ks[0] - 1)
    r = draw(st.integers(2, 3))
    g = tuple(draw(ranks) for _ in range(r - 1)) + (draw(st.integers(1, q ** ks[0] - 1)),)
    a = tuple(draw(st.integers(0, q - 1)) for _ in range(draw(st.integers(1, 3)))) + (1,)
    return VerificationConfig(p=p, e=e, k_extensions=ks, theta=draw(ranks), g=g, a_list=(a,))


@settings(max_examples=40)
@given(leading_configs())
def test_leading_split_holds_with_the_closed_form_c(cfg):
    # c = prod_{i=1}^{n-1} g_r**(q**(ri-1)); with g_r outside GF(q) and
    # n >= 2 it differs from g_r**(n-1), and with q**(ri) in place of
    # q**(ri-1) it fails as well
    report = verify_leading_term(cfg)
    assert report.ok(), report.failures()


def test_budget_guard():
    tiny = VerificationConfig(p=2, theta=1, g=(1, 1), a_list=((0, 1),), budget=10)
    with pytest.raises(ConfigurationTooLarge):
        verify_pairing_properties(tiny)


@pytest.mark.parametrize("budget, tuples", [(1, 1), (100, 100), (256, 256)])
def test_compatibility_sampling_respects_budget(monkeypatch, budget, tuples):
    # phi[T^2] has 16 points, so 256 tuples; past the budget the suite
    # used to sample 10,000 tuples whatever the budget.  Within the budget
    # W_ab and W_a are one sweep each and nothing is called; past it W_ab
    # is one call per sampled tuple
    calls, swept = {}, {}  # degree of the evaluator's a -> the tuples it gave values on
    real_call, real_values = pairing.PairingEvaluator.__call__, pairing.PairingEvaluator.values

    def counted(self, betas):
        calls.setdefault(self.a.degree, []).append(tuple(betas))
        return real_call(self, betas)

    def counted_sweep(self, points):
        tuples = itertools.product(points, repeat=self.poly.nvars)
        for tup, val in zip(tuples, real_values(self, points)):
            swept.setdefault(self.a.degree, []).append(tup)
            yield val

    monkeypatch.setattr(pairing.PairingEvaluator, "__call__", counted)
    monkeypatch.setattr(pairing.PairingEvaluator, "values", counted_sweep)
    cfg = VerificationConfig(p=2, theta=1, g=(1, 1), ab_pairs=(((0, 1), (0, 1)),),
                             budget=budget)
    assert verify_compatibility(cfg).ok()
    # W_ab (a*b = T^2) once per tuple; W_a (a = T) at each tuple's phi_b
    # images, with the images recomputed here
    phi_b = cfg.module().phi(UniPoly.from_ranks(cfg.K_ctx(), [0, 1]))
    if budget >= 256:
        assert not calls
        ab_tuples = swept[2]
        assert len(set(ab_tuples)) == len(ab_tuples)
        assert swept[1] == [tuple(phi_b(x) for x in tup) for tup in ab_tuples]
    else:
        # sampled, W_a is called once per distinct phi_b image tuple
        assert not swept
        ab_tuples, a_tuples = calls[2], calls[1]
        images = {tuple(phi_b(x) for x in tup) for tup in ab_tuples}
        assert len(a_tuples) == len(set(a_tuples)) == len(images)
        assert set(a_tuples) == images
    assert len(ab_tuples) == tuples


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


def _break_fab(monkeypatch, cfg):
    """The pairing for ab is built from f_a * f_b instead of f_ab."""
    base = cfg.base_ctx()
    ((a_ranks, b_ranks),) = cfg.ab_pairs
    a, b = UniPoly.from_ranks(base, a_ranks), UniPoly.from_ranks(base, b_ranks)
    real = pairing.f_rootfree

    def broken(c, r):
        if c != a * b:
            return real(c, r)
        return FaPoly(real(a, r).poly * real(b, r).poly, c, r, "rootfree", ())

    monkeypatch.setattr(pairing, "f_rootfree", broken)


def test_mutation_fab_product_detected(monkeypatch):
    _break_fab(monkeypatch, PAIR_I)
    report = verify_compatibility(PAIR_I)
    fails = report.failures()
    assert fails and fails[0].counterexample["identity"] == "compatibility"
    assert reevaluate(fails[0].counterexample)


def test_mutation_fab_product_detected_by_sampling(monkeypatch):
    # 16 points of phi[T^2] in rank 2: 256 tuples exceed the budget, so
    # the check samples 50 of them
    cfg = replace(PAIR_I, budget=50)
    _break_fab(monkeypatch, cfg)
    (check,) = verify_compatibility(cfg).checks
    assert check.status == "fail" and check.counterexample["identity"] == "compatibility"
    inputs = check.counterexample["inputs"]
    assert (inputs["a"], inputs["b"]) == ([0, 1], [0, 1]) and len(inputs["points"]) == 2
    assert reevaluate(check.counterexample)


def test_mutation_degree_bound_detected(monkeypatch):
    # x_1**10 added to every chain sum: above the bound n - 1 in slot 1 alone
    def with_x1_high(f):
        exps = (10,) + (0,) * (f.nvars - 1)
        return f + MultiPoly(f.ctx, f.nvars, {exps: f.ctx.one_element})

    _break_chain_sum(monkeypatch, with_x1_high)
    fails = [c for c in verify_f_identities(SMALL_F).failures()
             if c.name.startswith("f.degree_bound")]
    assert len(fails) == 18  # the six monic a of degree 1 or 2, in ranks 1-3
    for check in fails:
        counterexample = check.counterexample
        assert counterexample["identity"] == "f_degree_bound"
        assert counterexample["inputs"]["var"] == 1 and counterexample["lhs"] == 10
        assert counterexample["rhs"] == len(counterexample["inputs"]["a"]) - 2


def test_mutation_irrational_chain_sum_fails_both_congruences(monkeypatch):
    # the chain sum of a = T^2 + T + 1 in rank 2 reports a coefficient
    # outside GF(2); its two congruence checks fail, and nothing else does
    real = verify.f_chain_sum

    def irrational(a, r):
        if [c.rank() for c in a.coeffs] == [1, 1, 1] and r == 2:
            raise RationalityFailure("coefficient outside GF(2)")
        return real(a, r)

    monkeypatch.setattr(verify, "f_chain_sum", irrational)
    fails = verify_congruences(SMALL_F).failures()
    assert sorted(c.name for c in fails) == [
        "congruence.exchange[q=2,r=2,a=T^2 + T + 1]",
        "congruence.root_peel[q=2,r=2,a=T^2 + T + 1]",
    ]
    for check in fails:
        assert check.counterexample == {
            "identity": "f_rationality",
            "inputs": {"p": 2, "e": 1, "a": [1, 1, 1], "r": 2},
            "lhs": "coefficient outside GF(2)",
            "rhs": "every coefficient in GF(q)",
        }


LEADING_R2 = VerificationConfig(p=2, theta=1, g=(1, 1), a_list=((1, 1),))


def _break_weil_polynomial(monkeypatch, alter):
    """The verifier's full-arity W_a becomes alter(W_a, r * deg a)."""
    real = verify.weil_polynomial

    def broken(phi, a, arity=None):
        w = real(phi, a, arity)
        return w if arity is not None else alter(w, phi.rank * a.degree)

    monkeypatch.setattr(verify, "weil_polynomial", broken)


def test_mutation_leading_degree_bound_detected(monkeypatch):
    # a term x_1**(q**(rn)) joins W_a, one above the bound rn - 1
    def with_high_term(w, rn):
        terms = dict(w.terms)
        terms[(rn,) + (0,) * (w.nvars - 1)] = w.ctx.one_element
        return QPowerPoly(w.ctx, w.nvars, terms)

    _break_weil_polynomial(monkeypatch, with_high_term)
    report = verify_leading_term(LEADING_R2)
    assert [c.name for c in report.failures()] == ["leading.degree_bound[a=T + 1]"]
    assert report.failures()[0].counterexample == {
        "identity": "w_degree_bound", "inputs": {"a": [1, 1], "var": 1}, "lhs": 2, "rhs": 1}


def test_mutation_leading_split_detected(monkeypatch):
    # W_a loses one term of top degree rn - 1 in the last slot
    def without_a_top_term(w, rn):
        terms = dict(w.terms)
        del terms[min(key for key in terms if key[-1] == rn - 1)]
        return QPowerPoly(w.ctx, w.nvars, terms)

    _break_weil_polynomial(monkeypatch, without_a_top_term)
    report = verify_leading_term(LEADING_R2)
    (check,) = report.failures()
    assert check.name == "leading.split[a=T + 1]"
    counterexample = check.counterexample
    assert counterexample["identity"] == "leading_split"
    assert counterexample["inputs"] == {"a": [1, 1]}
    assert counterexample["lhs"] != counterexample["rhs"]


def test_mutation_psi_sign_detected_by_the_det_suite(monkeypatch):
    _drop_psi_sign(monkeypatch)
    (check,) = verify_det_representation(DET_Q3).checks
    assert check.status == "fail" and check.name == "det.scalar_match[a=T]"
    counterexample = check.counterexample
    assert counterexample["identity"] == "det_representation"
    assert counterexample["inputs"]["a"] == [0, 1] and counterexample["inputs"]["k"] >= 0
    assert counterexample["lhs"] != counterexample["rhs"]


def test_mutation_psi_sign_makes_galois_det_exit_1(monkeypatch, tmp_path, capsys):
    from drinfeld.cli import main

    monkeypatch.setattr(DrinfeldModule, "det_module",
                        lambda phi: DrinfeldModule(phi.K, phi.theta, (phi.g[-1],)))
    path = tmp_path / "det-q3-r2.json"
    path.write_text(json.dumps({"p": 3, "theta": 2, "g": [1, 1], "a_list": [[0, 1]]}))
    assert main(["galois-det", "--config", str(path)]) == 1
    assert " != psi-scalar = " in capsys.readouterr().out
    assert main(["galois-det", "--config", str(path), "--json"]) == 1
    (table,) = [json.loads(capsys.readouterr().out)]
    assert table["a"] == [0, 1] and not all(row["equal"] for row in table["powers"])


# hand mutants of f_a's site expansion: (function, its text, the mutated text)
SITE_MUTANTS = {
    # R starts from T^n, not T^(n-1): every residue row is T^(e+1) mod a
    "R row off by one": ("_site_rows", "[ctx.zero_element] * (n - 1)", "[ctx.zero_element] * n"),
    # D[k][l] = a_(k+l) instead of a_(k+l+1)
    "D shifted by one": ("_site_rows", "coeffs[k + 1 : n + 1]", "coeffs[k : n]"),
    # only chains whose last bond is 0 give a term; the others are dropped
    "last bond not closed": ("f_rootfree", "enumerate(v)}", "enumerate(v[:1])}"),
    # the site memo forgets a's coefficients: the rows of the first a of a
    # degree are served for every a of that degree
    "memo key drops a": ("_site_rows", "key = (a.ctx, a.coeffs)", "key = (a.ctx, a.degree)"),
}


@pytest.mark.parametrize("mutant", sorted(SITE_MUTANTS))
def test_mutation_site_expansion_detected(monkeypatch, tmp_path, capsys, mutant):
    from drinfeld.cli import main

    name, text, mutated = SITE_MUTANTS[mutant]
    source = inspect.getsource(getattr(pairing, name))
    assert source.count(text) == 1
    # from an empty memo, so that no correct rows cached earlier hide the
    # mutant; emptied before the copy, so that the mutant writes to it too
    monkeypatch.setattr(pairing, "_SITE_CACHE", {})
    namespace = dict(vars(pairing))
    exec(compile(source.replace(text, mutated), pairing.__file__, "exec"), namespace)
    monkeypatch.setattr(pairing, name, namespace[name])
    # verify imported f_rootfree by name; a mutated _site_rows is looked up in pairing
    monkeypatch.setattr(verify, "f_rootfree", pairing.f_rootfree)
    path = tmp_path / "f-grid-q2.json"
    path.write_text(json.dumps({"p": 2}))
    code = main(["verify", "--config", str(path), "--suite", "f", "--json"])
    reports = json.loads(capsys.readouterr().out)["reports"]
    failed = {check["name"].split("[")[0] for report in reports
              for check in report["checks"] if check["status"] == "fail"}
    assert code == 1 and "f.rootfree_eq_chain" in failed


# hand mutants of the root oracles' linear-factor kernels: (module, function,
# its text, the mutated text, the suite to run, check families one of which
# must fail)
ORACLE_MUTANTS = {
    # a segment step takes the factor of root hi, inside the segment, not of root
    # hi + 1; on an a with roots outside GF(q) a coefficient of the chain sum is
    # not rational, and that (a, r)'s rationality check fails
    "segment step by the wrong root": (
        pairing, "chain_sum_over_roots", "linear[hi])", "linear[hi - 1])", "f",
        {"f.rationality"}),
    # a term is kept as it stands when only its first exponent is below n
    "normal_form reads the first exponent": (
        polynomials, "normal_form", "max(exps) < n", "exps[0] < n", "congruence",
        {"congruence.exchange", "congruence.root_peel"}),
    # the start polynomial is dropped: the product starts from 1
    "linear_factors ignores start": (
        pairing, "linear_factors", " if start is None else start._payloads(level)", "",
        "congruence", {"congruence.root_peel"}),
}


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("mutant", sorted(ORACLE_MUTANTS))
def test_mutation_root_oracle_kernels_detected(monkeypatch, tmp_path, capsys, mutant, q):
    from drinfeld.cli import main

    module, name, text, mutated, suite, families = ORACLE_MUTANTS[mutant]
    source = inspect.getsource(getattr(module, name))
    assert source.count(text) == 1
    namespace = dict(vars(module))
    exec(compile(source.replace(text, mutated), module.__file__, "exec"), namespace)
    # the mutant replaces every name it is called by; no oracle result is memoized
    for home in (module, pairing, verify):
        if hasattr(home, name):
            monkeypatch.setattr(home, name, namespace[name])
    monkeypatch.setattr(pairing, "_F_CACHE", {})
    path = tmp_path / f"f-grid-q{q}.json"
    path.write_text(json.dumps({"p": q}))
    code = main(["verify", "--config", str(path), "--suite", suite, "--json"])
    out = capsys.readouterr().out
    failed = {check["name"].split("[")[0] for report in json.loads(out)["reports"]
              for check in report["checks"] if check["status"] == "fail"}
    assert code == 1 and failed & families, failed


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


def test_grid_counts_its_checks_against_the_budget():
    # the stock q = 3 grid: 3 ranks times 3 + 9 + 27 monic a, 117 in all
    assert len(VerificationConfig(p=3, budget=117).grid_polys()) == 39
    with pytest.raises(ConfigurationTooLarge, match="exceed the budget of 116"):
        VerificationConfig(p=3, budget=116).grid_polys()
    assert len(VerificationConfig(p=2, budget=42).grid_polys()) == 14
    with pytest.raises(ConfigurationTooLarge):
        VerificationConfig(p=2, budget=41).grid_polys()


def test_run_suites_rejects_unknown():
    with pytest.raises(ValueError):
        run_suites(SMALL_F, ("nonsense",))


def test_reevaluate_fallback_compares_sides():
    assert reevaluate({"identity": "det_representation", "lhs": [1], "rhs": [2]})
    assert not reevaluate({"identity": "det_representation", "lhs": [1], "rhs": [1]})


@pytest.mark.parametrize("identity", ["anything", None, ["det_representation"], "f_closed_"])
def test_reevaluate_rejects_an_identity_no_suite_reports(identity):
    with pytest.raises(MalformedInput, match="no suite reports"):
        reevaluate({"identity": identity, "lhs": [1], "rhs": [2]})


def test_reevaluate_knows_every_identity_the_suites_report():
    # each literal name passed to _mismatch or _constructions_agree, and each f_closed_ label
    source = inspect.getsource(verify)
    names = set(re.findall(r'_mismatch\(\s*"(\w+)"', source))
    names |= set(re.findall(r'_constructions_agree\(\s*"(\w+)"', source))
    names |= {f"f_closed_{label}" for label in re.findall(r'closed\.append\(\("(\w+)"', source)}
    assert len(names) == 24 and names == set(verify._IDENTITIES)


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


# a multilinear counterexample's inputs, well formed apart from its points
# (not torsion, which only the recomputation finds)
MULTILINEAR_INPUTS = {
    "module": {"K": {"p": 2, "e": 1, "tower": []}, "theta": 1, "g": [1, 1]},
    "level": {"p": 2, "e": 1, "tower": [{"degree": 2, "modulus": [1, 1, 1]}]},
    "points": [[0, 1], [1, 1]], "a": [0, 1], "b": [0, 1], "slot": 0,
}


@pytest.mark.parametrize("counterexample", [
    {"identity": "multilinear"},
    {"identity": "f_chain_eq_recursive", "inputs": []},
    {"identity": "f_chain_eq_recursive", "inputs": {"p": 2, "r": 2, "a": 5}},
    {"identity": "multilinear", "inputs": {**MULTILINEAR_INPUTS, "points": 5}},
    {"identity": "multilinear", "inputs": {**MULTILINEAR_INPUTS, "slot": 7}},
    ["multilinear"],
], ids=["no inputs", "inputs a list", "a an int", "points an int", "slot 7", "not an object"])
def test_reevaluate_rejects_malformed_counterexamples(counterexample):
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
        "95a7ea54b340701ad65c2725290de2878f55824872faae03c1cea9f7b3a6debc"
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
