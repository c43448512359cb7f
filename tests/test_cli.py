import copy
import json
import os
import subprocess
import sys
import time

import pytest

import drinfeld
from drinfeld.cli import build_parser, main
from drinfeld.fields import make_field
from drinfeld.pairing import f_rootfree
from drinfeld.polynomials import UniPoly

MODULE_I = json.dumps({"K": {"p": 2, "e": 1, "tower": []}, "theta": 1, "g": [1, 1]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fa_examples(capsys):
    code, out, _ = run_cli(capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "2")
    assert code == 0 and out.strip() == "T1 + T2 + 1"
    code, out, _ = run_cli(capsys, "fa", "--q", "2", "--a", "0,0,1", "--r", "2")
    assert code == 0 and out.strip() == "T1 + T2"
    code, out, _ = run_cli(capsys, "fa", "--q", "2", "--a", "1,1", "--r", "5")
    assert code == 0 and out.strip() == "1"


def test_fa_route_both(capsys):
    code, out, _ = run_cli(
        capsys, "fa", "--q", "3", "--a", "1,2,1,1", "--r", "3", "--route", "both"
    )
    assert code == 0
    assert out.strip().endswith("match")


def test_fa_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "2", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["provenance"]["route"] == "rootfree"
    assert [tuple(t["exps"]) for t in obj["terms"]] == [(1, 0), (0, 1), (0, 0)]
    code, out, _ = run_cli(
        capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "2", "--json",
        "--route", "chain",
    )
    assert code == 0
    assert json.loads(out)["provenance"]["route"] == "chain"


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    fa = ("fa", "--q", "3", "--a", "1,2,1", "--r", "3", "--json")
    code, out, _ = run_cli(capsys, *fa, "--route", "chain")
    assert code == 0 and json.loads(out)["provenance"]["route"] == "chain"
    code, first, _ = run_cli(capsys, *fa)
    assert code == 0 and json.loads(first)["provenance"]["route"] == "rootfree"
    with pytest.raises(SystemExit) as exc:
        main(["fa", "--q", "3", "--r", "3", "--route", "nope"])
    assert exc.value.code == 2 and "invalid choice" in capsys.readouterr().err
    assert run_cli(capsys, *fa) == (0, first, "")


def test_fa_out_of_range_rank_exit2(capsys):
    code, out, err = run_cli(capsys, "fa", "--q", "2", "--a", "5,1", "--r", "2")
    assert code == 2 and out == "" and "out of range" in err
    code, _, err = run_cli(capsys, "fa", "--q", "3", "--a=-1,1", "--r", "2")
    assert code == 2 and "out of range" in err


def test_weil_out_of_range_rank_exit2(capsys):
    code, out, err = run_cli(capsys, "weil", "--module", MODULE_I, "--a", "0,3")
    assert code == 2 and out == "" and "out of range" in err


def test_production_paths_never_scan_roots(capsys, monkeypatch):
    from drinfeld import pairing
    from drinfeld.core import DrinfeldModule, torsion
    from drinfeld.polynomials import UniPoly

    def forbidden(*args, **kwargs):
        raise AssertionError("root scan on a production path")

    monkeypatch.setattr(pairing, "roots_in_field", forbidden)
    monkeypatch.setattr(pairing, "splitting_level", forbidden)
    code, out, _ = run_cli(
        capsys, "fa", "--q", "1009", "--a", "11,0,1", "--r", "2", "--json"
    )
    assert code == 0 and json.loads(out)["provenance"]["route"] == "rootfree"
    phi = DrinfeldModule.from_json(json.loads(MODULE_I))
    a = UniPoly.from_ranks(phi.base, [1, 1, 1])
    assert not pairing.weil_polynomial(phi, a).is_zero()
    tm = torsion(phi, a)
    tup = list(tm.fq_basis[: phi.rank])
    ev = pairing.PairingEvaluator(phi, a, tm.level)
    assert ev(tup) == pairing.weil_evaluate(phi, a, tup)
    assert not ev(tup).is_zero()


def test_fa_nonmonic_exit3(capsys):
    code, _, err = run_cli(capsys, "fa", "--q", "3", "--a", "1,2", "--r", "2")
    assert code == 3 and "monic" in err


@pytest.mark.parametrize("route", ["rootfree", "chain", "recursive", "both"])
def test_fa_budget_bounds_the_terms_before_any_build(capsys, monkeypatch, route):
    from drinfeld import cli

    def forbidden(*args):
        raise AssertionError("f_a built past its budget")

    for name in ("f_rootfree", "f_chain_sum", "f_recursive"):
        monkeypatch.setattr(cli, name, forbidden)
    # 2**99999999999 terms: decided without forming the power (this hung)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fa", "--q", "2", "--a", "1,1,1",
                             "--r", "99999999999", "--route", route)
    assert time.perf_counter() - start < 5
    assert code == 4 and out == "" and "exceed the budget of 10000000" in err
    # at n = 1, f_a = 1 is one term of r exponents: r itself is bounded
    code, out, err = run_cli(capsys, "fa", "--q", "2", "--a", "1,1",
                             "--r", "99999999999", "--route", route)
    assert code == 4 and out == ""
    assert "99999999999 variables of f_a exceed the budget of 10000000" in err
    # the bound is n**r exactly: 2**16 = 65,536 terms at most
    code, out, err = run_cli(capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "16",
                             "--budget", "65535", "--route", route)
    assert code == 4 and out == "" and "2**16 terms" in err


def test_fa_budget_bounds_r_at_deg1_in_a_process():
    # this once died in MultiPoly.one with a MemoryError traceback, exit 1
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(drinfeld.__file__)))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "drinfeld.cli", "fa", "--q", "2", "--a", "1,1",
         "--r", "99999999999", "--json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - start < 5
    assert proc.returncode == 4 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "exceed the budget" in proc.stderr


def stdlib_fa_json(p, ranks, r):
    fa = f_rootfree(UniPoly.from_ranks(make_field(p), ranks), r)
    return json.dumps(fa.to_json(), indent=2, sort_keys=True) + "\n"


def test_fa_json_at_r16_equals_the_stdlib_on_to_json(capsys):
    # 43,691 terms, 10 MB of JSON, written from the terms
    code, out, _ = run_cli(capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "16", "--json")
    assert code == 0 and out == stdlib_fa_json(2, (1, 1, 1), 16)


def test_fa_deg1_is_linear_in_r(capsys):
    # each step once copied the growing exponent prefix (37.6 s at r = 80,000)
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "fa", "--q", "2", "--a", "1,1", "--r", "100000", "--json")
    assert time.perf_counter() - start < 5
    assert code == 0 and json.loads(out)["terms"] == [{"coeff": 1, "exps": [0] * 100_000}]
    assert out == stdlib_fa_json(2, (1, 1), 100_000)


def test_fa_budget_default_and_edges(capsys):
    code, out, _ = run_cli(capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "16")
    assert code == 0 and out.count("+") + 1 == 43_691
    code, out, _ = run_cli(capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "4",
                           "--budget", "16")
    assert code == 0 and out.strip()
    # deg a = 1: f_a = 1, a single term of r exponents, so r is the bound
    code, out, _ = run_cli(capsys, "fa", "--q", "3", "--a", "2,1", "--r", "40", "--budget", "40")
    assert code == 0 and out.strip() == "1"
    code, out, err = run_cli(capsys, "fa", "--q", "3", "--a", "2,1", "--r", "40", "--budget", "39")
    assert code == 4 and out == "" and "40 variables of f_a exceed the budget of 39" in err
    for bad in ("0", "-3"):
        code, out, err = run_cli(capsys, "fa", "--q", "2", "--a", "1,1,1", "--r", "2",
                                 "--budget", bad)
        assert code == 2 and out == "" and "budget must be an int >= 1" in err
    with pytest.raises(SystemExit) as exc:
        main(["fa", "--q", "2", "--a", "1,1,1", "--r", "2", "--budget", "1.5"])
    assert exc.value.code == 2


def test_fa_malformed_exit2(capsys):
    code, _, err = run_cli(capsys, "fa", "--q", "4", "--a", "1,1", "--r", "2")
    assert code == 2


def test_weil_polynomial_for_t_is_moore(capsys):
    code, out, _ = run_cli(capsys, "weil", "--module", MODULE_I, "--a", "0,1")
    assert code == 0
    assert out.strip() == "x1*x2^2 + x1^2*x2"


def test_weil_eval_f8_example(capsys):
    # beta = rank 2 in GF(8), beta**2 = rank 4; the pairing value is 1
    code, out, _ = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[2, 4]"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "1"
    assert "True" in lines[1]


def test_weil_eval_zero_slot(capsys):
    code, out, _ = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[0, 2]"
    )
    assert code == 0 and out.strip().splitlines()[0] == "0"


def test_weil_eval_rejects_non_torsion(capsys):
    code, _, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[1, 2]"
    )
    assert code == 3


def test_weil_inseparable_exit3_names_characteristic(capsys):
    code, _, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "1,1", "--eval", "[0, 0]"
    )
    assert code == 3 and "T + 1" in err


def _config_file(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


CFG_I = {
    "label": "pairing-q2-r2",
    "p": 2,
    "theta": 1,
    "g": [1, 1],
    "a_list": [[0, 1]],
    "suites": ["pairing", "det"],
}


def test_torsion_command(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    code, out, _ = run_cli(capsys, "torsion", "--config", path)
    assert code == 0
    assert "extension degree over K: 3" in out
    assert "point count: 4" in out


def test_torsion_json_module_roundtrips_into_weil(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    code, out, _ = run_cli(capsys, "torsion", "--config", path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["extension_degree_over_K"] == 3
    assert obj["point_count"] == 4
    # the emitted module JSON is accepted right back by --module
    code, out2, _ = run_cli(
        capsys, "weil", "--module", json.dumps(obj["module"]), "--a", "0,1"
    )
    assert code == 0 and out2.strip() == "x1*x2^2 + x1^2*x2"


def test_torsion_inseparable_config_exit3(capsys, tmp_path):
    bad = dict(CFG_I, a_list=[[1, 1]])
    path = _config_file(tmp_path, bad)
    code, _, err = run_cli(capsys, "torsion", "--config", path)
    assert code == 3 and "T + 1" in err


def test_weil_eval_and_torsion_reject_a_constant_a_exit3(capsys, tmp_path):
    # the inseparable case is test_weil_inseparable_exit3_names_characteristic
    # and test_torsion_inseparable_config_exit3
    code, out, err = run_cli(capsys, "weil", "--module", MODULE_I, "--a", "1", "--eval", "[0, 0]")
    assert code == 3 and out == "" and "need deg(a) >= 1" in err
    path = _config_file(tmp_path, dict(CFG_I, a_list=[[1]]))
    code, out, err = run_cli(capsys, "torsion", "--config", path)
    assert code == 3 and out == "" and "need deg(a) >= 1" in err


def test_galois_det_command(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    code, out, _ = run_cli(capsys, "galois-det", "--config", path)
    assert code == 0
    assert "sigma^0" in out and "==" in out and "!=" not in out


def test_galois_det_non_squarefree_a(capsys, tmp_path):
    # a = T^2 is not squarefree; its torsion is still free over A/aA
    path = _config_file(tmp_path, dict(CFG_I, a_list=[[0, 0, 1]]))
    code, out, _ = run_cli(capsys, "galois-det", "--config", path, "--json")
    assert code == 0
    rows = json.loads(out)["powers"]
    assert len(rows) > 1 and all(row["equal"] for row in rows)


def test_galois_det_seed_flag_is_gone(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    with pytest.raises(SystemExit) as exc:
        main(["galois-det", "--config", path, "--seed", "1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == "" and "--seed" in captured.err


def test_verify_config_run(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    code, out, _ = run_cli(capsys, "verify", "--config", path)
    assert code == 0
    assert "ALL SUITES PASS" in out


def test_verify_json_deterministic_modulo_timing(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys, "verify", "--config", path, "--seed", "7", "--json"
        )
        assert code == 0
        outs.append(json.loads(out))

    def strip(obj):
        cleaned = copy.deepcopy(obj)
        for rep in cleaned["reports"]:
            for check in rep["checks"]:
                check.pop("millis", None)
        return cleaned

    assert strip(outs[0]) == strip(outs[1])
    assert outs[0]["ok"] is True


def test_verify_budget_exit4(capsys, tmp_path):
    path = _config_file(tmp_path, dict(CFG_I, budget=10))
    code, _, err = run_cli(capsys, "verify", "--config", path)
    assert code == 4


def test_verify_grid_is_budgeted_before_any_polynomial_is_built(capsys, tmp_path):
    # 2 + 4 + ... + 2**40 monic polynomials: all_monic used to list them first
    path = _config_file(tmp_path, {"p": 2, "max_deg": 40, "ranks": [1]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--config", path)
    assert time.perf_counter() - start < 1
    assert code == 4 and out == "" and "exceed the budget of 10000000" in err
    # with no ranks no check reads the grid, which is then not built at all
    path = _config_file(tmp_path, {"p": 2, "max_deg": 40, "ranks": []})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--config", path)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and "produce no check" in err


def test_config_overrides_are_validated_and_applied(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    code, out, err = run_cli(capsys, "verify", "--config", path, "--budget", "0")
    assert code == 2 and out == "" and "budget" in err
    code, _, _ = run_cli(capsys, "verify", "--config", path, "--seed", "3", "--budget", "10")
    assert code == 4


@pytest.mark.parametrize("command", ["torsion", "galois-det"])
def test_config_without_module_exit2_before_output(capsys, tmp_path, command):
    # the first entry's output used to be printed before the exit 2
    module = {k: v for k, v in CFG_I.items() if k != "suites"}
    path = _config_file(tmp_path, {"configs": [module, {"p": 2}]})
    code, out, err = run_cli(capsys, command, "--config", path)
    assert code == 2 and out == "" and "declares no Drinfeld module" in err
    code, out, _ = run_cli(capsys, command, "--config", _config_file(tmp_path, module))
    assert code == 0 and out


@pytest.mark.parametrize("command", ["torsion", "galois-det"])
def test_configs_that_list_no_a_exit2(capsys, tmp_path, command):
    # each used to print nothing and exit 0
    module = {k: v for k, v in CFG_I.items() if k != "a_list"}
    for config in (module, {"configs": [module, module]}, {"configs": []}):
        code, out, err = run_cli(capsys, command, "--config", _config_file(tmp_path, config))
        assert code == 2 and out == "" and "the configs list no a" in err, config


def test_verify_suite_filter(capsys, tmp_path):
    path = _config_file(tmp_path, CFG_I)
    code, out, _ = run_cli(capsys, "verify", "--config", path, "--suite", "det")
    assert code == 0
    assert "det.scalar_match" in out and "pairing.multilinear" not in out


def test_verify_config_json_roundtrip(capsys, tmp_path):
    # a config written from the schema parses and the digest is stable
    from drinfeld.verify import VerificationConfig

    cfg = VerificationConfig.from_json(
        {k: v for k, v in CFG_I.items() if k not in ("label", "suites")}
    )
    path = _config_file(tmp_path, {**cfg.to_json(), "suites": ["det"]})
    code, out, _ = run_cli(capsys, "verify", "--config", path, "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["reports"][0]["config_digest"] == cfg.digest()


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as info:
        main(["fa", "--q", "2", "--a", "1,1", "--r", "2", "--bogus"])
    assert info.value.code == 2


def test_missing_config_exit2(capsys):
    code, _, err = run_cli(capsys, "torsion", "--config", "/nonexistent.json")
    assert code == 2


def test_weil_eval_out_of_range_rank_exit2(capsys):
    # rank 10 is no element of GF(2^3); it is never read as 10 mod 8
    code, out, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[10, 4]"
    )
    assert code == 2 and out == "" and "out of range" in err


def test_weil_eval_out_of_range_coordinate_exit2(capsys):
    code, out, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[[1, 0, 3], 4]"
    )
    assert code == 2 and out == "" and "not an element of GF(2)" in err


def test_module_out_of_range_theta_exit2(capsys):
    module = json.dumps({"K": {"p": 2, "e": 1, "tower": []}, "theta": 7, "g": [1, 1]})
    code, out, err = run_cli(capsys, "weil", "--module", module, "--a", "0,1")
    assert code == 2 and out == "" and "not an element of GF(2)" in err


def test_module_shape_errors_exit2(capsys):
    k = {"p": 2, "e": 1, "tower": []}
    bad = ([1], {"K": k, "theta": 1}, {"K": k, "theta": 1, "g": 3}, {"theta": 1, "g": [1]})
    for module in bad:
        code, out, err = run_cli(capsys, "weil", "--module", json.dumps(module), "--a", "0,1")
        assert code == 2 and out == "" and "Traceback" not in err, module


def test_verify_vacuous_config_exit2(capsys, tmp_path):
    base = {"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]], "suites": ["pairing"]}
    path = tmp_path / "config.json"
    patched = [{**base, **patch} for patch in (
        {"trials": -5}, {"budget": 0}, {"extension_cap": 0}, {"ranks": [2, 0]}, {"p": 4})]
    # configs that run no check at all used to print ALL SUITES PASS and exit 0
    checkless = [{"p": 2, "max_deg": 0}, {"p": 2, "ranks": []}, {"configs": []},
                 {"p": 2, "theta": 1, "g": [1, 1]}]
    for config in patched + checkless:
        path.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "verify", "--config", str(path))
        assert code == 2 and out == "", config
    code, out, err = run_cli(capsys, "verify", "--config", str(path), "--suite", "f")
    assert code == 2 and out == "" and "no check" in err


@pytest.mark.parametrize("command", ["torsion", "galois-det", "verify"])
@pytest.mark.parametrize(
    "config",
    [
        [{"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]]}],
        {"configs": 5},
        {"configs": [5]},
        {"configs": [{"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]], "label": 7}]},
        {"p": 2, "theta": 1, "g": 5, "a_list": [[0, 1]]},
        {"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]], "suites": "det"},
        {"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]], "suites": ["dets"]},
        {"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]], "label": ["x"]},
    ],
)
def test_config_shape_errors_exit2(capsys, tmp_path, command, config):
    # each used to end in a TypeError/AttributeError traceback (exit 1),
    # or to run: "suites": "det" was read letter by letter
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 2 and out == "" and "Traceback" not in err, err


@pytest.mark.parametrize("points", ["5", "null", '{"a": 1}', '"24"'])
def test_weil_eval_must_be_a_json_list_exit2(capsys, points):
    code, out, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", points
    )
    assert code == 2 and out == "" and "JSON list" in err


@pytest.mark.parametrize("point", ["true", "1.0", '"3"'])
def test_weil_eval_names_a_point_that_is_no_rank_or_list_exit2(capsys, point):
    # used to read "element of GF(2^3) needs 3 entries", naming no value
    code, out, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", f"[{point}, 2]"
    )
    assert code == 2 and out == ""
    assert f"{json.loads(point)!r} is neither an int rank nor a coefficient list" in err


def test_fa_ranks_are_plain_decimals(capsys):
    # int() read "1_0" as 10 and printed f_a for T + 10
    for text in ("1_0,1", "1,٣", "0x1,1", "1.0,1", "1,,1", "", "1 1,1", "--1,1"):
        code, out, err = run_cli(capsys, "fa", "--q", "13", f"--a={text}", "--r", "2")
        assert code == 2 and out == "" and "cannot parse" in err, text
    for text in (" 1, 0 ,1 ", "+1,+0,1"):
        code, out, _ = run_cli(capsys, "fa", "--q", "13", f"--a={text}", "--r", "2")
        assert code == 0 and out == run_cli(capsys, "fa", "--q", "13", "--a", "1,0,1",
                                            "--r", "2")[1], text


@pytest.mark.parametrize("command", ["torsion", "galois-det", "verify"])
def test_config_polynomials_must_be_flat_rank_lists_exit2(capsys, tmp_path, command):
    base = {"p": 2, "e": 2, "theta": 1, "g": [1, 1], "suites": ["det"]}
    path = tmp_path / "config.json"
    for patch in ({"a_list": [[[1, 0], [1, 0], [1, 0]]]}, {"a_list": [3]},
                  {"a_list": 3}, {"a_list": [[0, True]]},
                  {"a_list": [[0, 1]], "ab_pairs": [[[0, 1]]]},
                  {"a_list": [[0, 1]], "ab_pairs": [[[0, 1], [[0, 1]]]]}):
        path.write_text(json.dumps({**base, **patch}))
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2 and out == "" and "flat lists of int ranks" in err, patch


def test_module_descriptor_modulus_out_of_range_exit2(capsys):
    k = {"p": 3, "e": 2, "tower": [{"degree": 2, "modulus": [4, 0, 1]}]}
    module = json.dumps({"K": k, "theta": [0, 1], "g": [[1, 0]]})
    code, out, err = run_cli(capsys, "weil", "--module", module, "--a", "0,1")
    assert code == 2 and out == "" and "range(3)" in err


@pytest.mark.parametrize(
    "k, theta, g",
    [
        ({"p": 2.7, "e": 1, "tower": []}, 1, [1, 1]),
        ({"p": "2", "e": 1, "tower": []}, 1, [1, 1]),
        ({"p": True, "e": 1, "tower": []}, 1, [1, 1]),
        ({"p": 2, "e": 1.0, "tower": []}, 1, [1, 1]),
        ({"p": 2, "e": 0, "tower": []}, 1, [1, 1]),
        ({"p": 3, "e": 2, "tower": [{"degree": "2", "modulus": [1, 0, 1]}]}, [1, 0], [[1, 0]]),
        ({"p": 3, "e": 2, "tower": [{"degree": 2.0, "modulus": [1, 0, 1]}]}, [1, 0], [[1, 0]]),
        ({"p": 2, "e": 1, "tower": [{"degree": True, "modulus": [1, 1]}]}, [1], [[1]]),
        ({"p": 2, "e": 1, "tower": [{"degree": 2, "modulus": 7}]}, [1, 0], [[1, 0]]),
        ({"p": 2, "e": 1, "tower": {}}, 1, [1, 1]),
        ([2, 1], 1, [1, 1]),
    ],
)
def test_module_descriptor_numbers_are_never_coerced_exit2(capsys, k, theta, g):
    # {"p": 2.7, ...} used to be read as GF(2) and print a pairing with exit 0
    module = json.dumps({"K": k, "theta": theta, "g": g})
    code, out, err = run_cli(capsys, "weil", "--module", module, "--a", "0,1")
    assert code == 2 and out == "" and "Traceback" not in err, k
    assert "descriptor" in err or "degree 0" in err, err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_weil_cap_below_one_exit2(capsys, cap):
    code, out, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[2, 4]", "--cap", cap
    )
    assert code == 2 and out == "" and "cap" in err


def test_weil_cap_too_small_exit4(capsys):
    # T-torsion of MODULE_I lies in GF(2^3): cap 2 is valid but too small
    code, out, err = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[2, 4]", "--cap", "2"
    )
    assert code == 4 and out == "" and "degree <= 2" in err
    code, out, _ = run_cli(
        capsys, "weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[2, 4]", "--cap", "3"
    )
    assert code == 0 and out.splitlines()[0] == "1"


@pytest.mark.parametrize("command", ["torsion", "galois-det", "verify"])
@pytest.mark.parametrize(
    "patch",
    [
        {"p": 2.9},
        {"p": "3"},
        {"p": True},
        {"e": 1.0},
        {"max_deg": 2.0},
        {"trials": 3.7},
        {"seed": 1.5},
        {"extension_cap": 64.0},
        {"budget": 1e7},
        {"ranks": [2.5]},
        {"ranks": [True]},
        {"ranks": 2},
        {"k_extensions": [2.5]},
        {"k_extensions": ["2"]},
        {"theta": True},
    ],
)
def test_config_numbers_are_never_coerced_exit2(capsys, tmp_path, command, patch):
    # {"p": 2.9} used to run over GF(2) and exit 0; {"ranks": [2.5]} died
    # with a TypeError
    base = {"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]], "suites": ["det"]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**base, **patch}))
    code, out, err = run_cli(capsys, command, "--config", str(path))
    assert code == 2 and out == "" and "Traceback" not in err, err


def test_descriptor_degree_disagreement_exit2_without_a_type_name(capsys):
    k = {"p": 2, "e": 2, "tower": [{"degree": 3, "modulus": [1, 1, 0, 1]}]}
    module = json.dumps({"K": k, "theta": [1, 0], "g": [[1, 0]]})
    code, out, err = run_cli(capsys, "weil", "--module", module, "--a", "0,1")
    assert code == 2 and out == "" and "disagrees with its tower" in err
    assert "ValueError" not in err
