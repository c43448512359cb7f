"""The verification oracles do each piece of work once.

The root-order check sums each distinct root sequence once and skips the
rank-ordered one, which `f_chain_sum` has summed; `weil_values` builds
each image's Moore row once per point.  Calls are counted by
monkeypatch, and a hand mutant of the Moore rows shows that the
pairing suite still compares them against the evaluator, and fails
`pairing.poly_agreement` where a direct value leaves psi[a]."""

import inspect
import json
import math

import pytest

from drinfeld import pairing, verify
from drinfeld.core import torsion
from drinfeld.pairing import f_chain_sum
from drinfeld.polynomials import UniPoly


def stripped(checks):
    out = []
    for check in checks:
        obj = check.to_json()
        del obj["millis"]
        out.append(obj)
    return out


@pytest.mark.parametrize("label", ["f-grid-q2", "f-grid-q3"])
def test_root_order_sums_each_new_root_sequence_once(monkeypatch, bundle, bundle_reports, label):
    real = verify.f_root_order_variant
    sequences = {}

    def counted(a, r, order):
        variant = real(a, r, order)
        sequences.setdefault((a, r), []).append(variant.roots)
        return variant

    monkeypatch.setattr(verify, "f_root_order_variant", counted)
    cfg = bundle[label].config
    report = verify.verify_f_identities(cfg)

    single_root = 0
    for a in cfg.grid_polys():
        roots = f_chain_sum(a, 1).roots
        for r in cfg.ranks:
            seen = sequences.get((a, r), [])
            assert len(seen) == len(set(seen)) <= math.factorial(a.degree) - 1
            assert roots not in seen
            if len(set(roots)) == 1:
                single_root += 1
                assert not seen, a.render()
    assert single_root and sum(map(len, sequences.values()))
    # the stock reports, whose digest test_verify.py pins, ran without the counter
    expected = [c for c in bundle_reports[label].checks if c.name.startswith("f.")]
    assert stripped(report.checks) == stripped(expected)


@pytest.mark.parametrize("label, fails", [("det-q3-r2", True), ("pairing-q2-r2", False)])
def test_moore_row_step_mutant(monkeypatch, bundle, label, fails):
    # the Moore rows weil_values builds step by q**2, not q: x, x**(q**2).  In
    # rank 2, tau**2 = (phi_T - theta - g_1 tau) / g_2, and the phi_T part
    # cancels over f_a's terms by the exchange congruence, so the stepped
    # contraction is -(g_1 / g_2) times the true value: -1 at q = 3, g = (1, 1),
    # where poly_agreement and multilinear (whose base values are the direct
    # contraction's) must fail, and 1 at q = 2, g = (1, 1), where the mutant
    # is equivalent and every check passes
    text, mutated = "powers[-1].frobenius(1)", "powers[-1].frobenius(2)"
    source = inspect.getsource(pairing._frobenius_row)
    assert source.count(text) == 1
    namespace = dict(vars(pairing))
    exec(compile(source.replace(text, mutated), pairing.__file__, "exec"), namespace)
    # weil_values alone takes its rows from the mutant; the evaluator keeps its own
    exec(compile(inspect.getsource(pairing.weil_values), pairing.__file__, "exec"), namespace)
    for home in (pairing, verify):
        monkeypatch.setattr(home, "weil_values", namespace["weil_values"])
    report = verify.verify_pairing_properties(bundle[label].config)
    failed = {check.name.split("[")[0] for check in report.failures()}
    assert failed == ({"pairing.multilinear", "pairing.poly_agreement"} if fails else set())
    for check in report.failures():
        assert check.counterexample["identity"] in ("multilinear", "additive", "poly_agreement")


def test_moore_row_value_outside_the_torsion_fails_agreement(monkeypatch, tmp_path, capsys,
                                                             bundle):
    # the same Moore-row mutant on pairing-q2-K4-r2, where a direct value
    # leaves psi[a]: agreement fails with that tuple and value (multilinear,
    # on the direct base values, fails as well), the report is written and
    # verify exits 1; weil_evaluate still trips on the tuple
    from drinfeld.cli import main

    text, mutated = "powers[-1].frobenius(1)", "powers[-1].frobenius(2)"
    source = inspect.getsource(pairing._frobenius_row)
    namespace = dict(vars(pairing))
    exec(compile(source.replace(text, mutated), pairing.__file__, "exec"), namespace)
    for name in ("weil_values", "weil_evaluate"):
        exec(compile(inspect.getsource(getattr(pairing, name)), pairing.__file__, "exec"),
             namespace)
    for home in (pairing, verify):
        monkeypatch.setattr(home, "weil_values", namespace["weil_values"])
    cfg = bundle["pairing-q2-K4-r2"].config
    path = tmp_path / "pairing-q2-K4-r2.json"
    path.write_text(json.dumps(cfg.to_json()))
    code = main(["verify", "--config", str(path), "--suite", "pairing", "--json"])
    (report,) = json.loads(capsys.readouterr().out)["reports"]
    failed = [check for check in report["checks"] if check["status"] == "fail"]
    assert code == 1 and [check["name"].split("[")[0] for check in failed] == [
        "pairing.multilinear", "pairing.poly_agreement"]
    counterexample = failed[1]["counterexample"]
    assert counterexample["identity"] == "poly_agreement"
    assert set(counterexample["inputs"]) == {"a", "points"}
    phi = cfg.module()
    a = UniPoly.from_ranks(phi.base, counterexample["inputs"]["a"])
    level = torsion(phi, a, cap=cfg.extension_cap).level
    points = [level.element_from_json(p) for p in counterexample["inputs"]["points"]]
    (direct,) = namespace["weil_values"](phi, a, points, [points])
    assert counterexample["lhs"] == direct.to_json()
    assert not phi.det_module().phi(a)(direct).is_zero()
    with pytest.raises(AssertionError, match="escaped the determinant torsion"):
        namespace["weil_evaluate"](phi, a, points)
