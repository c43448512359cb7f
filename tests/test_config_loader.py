"""Config files through `verify.bundle_from_json`: the one module check,
the config JSON written from the dataclass fields, the pairing suite's
budget, and a fuzz of the three config commands."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drinfeld import core
from drinfeld.cli import main
from drinfeld.errors import ConfigurationTooLarge, MalformedInput
from drinfeld.verify import (
    SUITE_NAMES,
    VerificationConfig,
    bundle_from_json,
    default_bundle,
    run_suites,
)

MODULE_SUITES = ("pairing", "compatibility", "leading", "det")
MODULE_CFG = {"p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1]], "ab_pairs": [[[0, 1], [0, 1]]]}
MODULE_I = json.dumps({"K": {"p": 2, "e": 1, "tower": []}, "theta": 1, "g": [1, 1]})


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _config_file(tmp_path, obj):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("suite", MODULE_SUITES)
def test_module_suite_without_module_exit2(capsys, tmp_path, suite):
    # used to end in an AttributeError traceback and exit 1, the FAIL code
    for obj in ({"p": 3, "suites": [suite]},
                {"configs": [dict(MODULE_CFG, suites=[suite]), {"p": 2, "suites": [suite]}]}):
        path = _config_file(tmp_path, obj)
        code, out, err = run_cli(capsys, "verify", "--config", path)
        assert code == 2 and out == "" and "declares no Drinfeld module" in err, obj
        assert "Traceback" not in err
    code, out, _ = run_cli(capsys, "verify", "--config",
                           _config_file(tmp_path, dict(MODULE_CFG, suites=[suite])))
    assert code == 0 and "ALL SUITES PASS" in out


def test_run_suites_module_suite_without_module_raises():
    with pytest.raises(MalformedInput, match="declares no Drinfeld module"):
        run_suites(VerificationConfig(p=2), ("pairing",))
    with pytest.raises(MalformedInput, match="declares no Drinfeld module"):
        VerificationConfig(p=3).module()


def test_torsion_seed_flag_is_gone(capsys, tmp_path):
    path = _config_file(tmp_path, MODULE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["torsion", "--config", path, "--seed", "3"])
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "torsion", "--config", path, "--json")
    assert code == 0 and json.loads(out)["a_basis"] is None


# sha256 of each stock config's JSON at seed 0 and the default budget
DEFAULT_DIGESTS = {
    "f-grid-q2": "63f52254cbfcef1d934db8778be0c9cbd2a06689593dfeee996b9cbe135a2102",
    "f-grid-q3": "86568bb94ec272f46dc742c659cdbe34aaff4529da367cec384487e96921b235",
    "pairing-q2-r2": "e8bef769aa5f46cd36ec1c51376bda66ebae564bb380ac49370cbe9a106b1697",
    "pairing-q2-K4-r2": "4d09f9fb0130b98ddb122320ceea73c0cad5ab8ae30c343d8dee99357160dde1",
    "pairing-q2-r3": "c712baaf40673e825254999750c4800b09c2e04067e9e027e0951456e707b752",
    "det-q3-r2": "6493701e1ff2e4bfa47ca90cf1e4d3024f7fcf5c3e1415499167d82a5d147977",
    "leading-q2-r1": "c7299797112515ea6e7349b09ae4f90040ef8ee568878481f920b07f911aa465",
    "leading-q2-r2": "ceb7f60ece449251a614e8455442afb842444ff5ef62e48da254550408d7202a",
    "leading-q2-r3": "83ed3b0787c01d71305ead5583e545ea16c7295a98c11470cadd379f20feabf7",
    "leading-q3-r1": "b53139197bd3f09dc47cba3e6b1fc1c826bcdb7625aff633892fcf0722c26d5e",
    "leading-q3-r2": "e3afe92a64378e93c640497f233b9a75a06b4df90a0151ca641c8a8806da1a05",
    "leading-q3-r3": "93978b2f1c7e261ffd88f2d3564ce0c7a5b1797665c51f522ae1be2a3126c12e",
}


def test_default_bundle_digests_are_pinned_and_configs_round_trip():
    bundle = default_bundle()
    assert {e.label: e.config.digest() for e in bundle} == DEFAULT_DIGESTS
    for entry in bundle:
        obj = entry.config.to_json()
        assert [*obj] == [*VerificationConfig.__dataclass_fields__]
        again = VerificationConfig.from_json(json.loads(json.dumps(obj)))
        assert again == entry.config and again.digest() == entry.config.digest()


def test_bundle_from_json_labels_suites_and_overrides():
    module = dict(MODULE_CFG, label="m")
    entries = bundle_from_json({"configs": [module, {"p": 3, "suites": ["f"]}, {"p": 2}]},
                               seed=5, budget=9)
    assert [(e.label, e.suites) for e in entries] == [
        ("m", MODULE_SUITES), ("config-1", ("f",)), ("config-2", ("f", "congruence"))]
    assert all((e.config.seed, e.config.budget) == (5, 9) for e in entries)
    (entry,) = bundle_from_json(dict(MODULE_CFG, suites=[]))
    assert (entry.label, entry.suites, entry.config.seed) == ("config-0", MODULE_SUITES, 0)
    with pytest.raises(MalformedInput, match="budget"):
        bundle_from_json(MODULE_CFG, budget=0)


def test_pairing_budget_is_checked_before_any_point_is_built(monkeypatch):
    def forbidden(self):
        raise AssertionError("the torsion points were built")

    monkeypatch.setattr(core.TorsionModule, "points", forbidden)
    cfg = VerificationConfig(p=2, theta=1, g=(1, 1), a_list=((0, 1),), budget=15)
    with pytest.raises(ConfigurationTooLarge, match="4\\*\\*2 tuples exceed the budget of 15"):
        run_suites(cfg, ("pairing",))


def test_weil_eval_builds_no_torsion_kernel(capsys, monkeypatch):
    argv = ("weil", "--module", MODULE_I, "--a", "0,1", "--eval", "[2, 4]")
    before = [run_cli(capsys, *argv), run_cli(capsys, *argv, "--json")]

    def forbidden(*args, **kwargs):
        raise AssertionError("weil --eval took a torsion kernel")

    monkeypatch.setattr(core, "operator_kernel", forbidden)
    assert [run_cli(capsys, *argv), run_cli(capsys, *argv, "--json")] == before
    assert before[0][0] == 0 and before[0][1].strip()
    code, out, err = run_cli(capsys, *argv, "--cap", "2")
    assert code == 4 and out == "" and "degree <= 2" in err
    code, out, _ = run_cli(capsys, "weil", "--module", MODULE_I, "--a", "0,1",
                           "--eval", "[1, 2]")
    assert code == 3 and out == ""


# ---------------------------------------------------------------------------
# fuzz: every drawn config file ends in a documented exit code
# ---------------------------------------------------------------------------

# junk is small enough that no drawn config builds more than 3**6 points
_ATOMS = st.one_of(st.integers(-1, 1), st.booleans(), st.none(), st.sampled_from(["", "x", "2"]))
_JUNK = st.one_of(_ATOMS, st.lists(_ATOMS, max_size=3),
                  st.lists(st.lists(_ATOMS, max_size=2), max_size=2))


def _monic(max_deg):
    return st.lists(st.integers(0, 2), max_size=max_deg).map(lambda ranks: ranks + [1])


# p, max_deg and budget are in every config: p is required, and the
# defaults max_deg 3 and budget 10**7 would make a drawn config slow
_REQUIRED = {"p": st.sampled_from([2, 3]), "max_deg": st.integers(0, 2),
             "budget": st.integers(1, 300)}
_OPTIONAL = {
    "e": st.just(1),
    "k_extensions": st.lists(st.integers(1, 2), max_size=1),
    "ranks": st.lists(st.integers(1, 3), max_size=3),
    "a_list": st.lists(_monic(2), max_size=2),
    "ab_pairs": st.lists(st.lists(_monic(1), min_size=2, max_size=2), max_size=1),
    "trials": st.integers(1, 3),
    "seed": st.integers(0, 3),
    "extension_cap": st.integers(1, 8),
    "label": st.text(max_size=3),
    "suites": st.lists(st.sampled_from(SUITE_NAMES), max_size=3, unique=True),
}
# theta and g as ranks 0 and 1, elements of every field; rank 1 to 3
_MODULE = {"theta": st.integers(0, 1),
           "g": st.lists(st.integers(0, 1), max_size=2).map(lambda g: g + [1]),
           "a_list": st.lists(_monic(2), min_size=1, max_size=2)}
_KEYS = sorted(_REQUIRED.keys() | _OPTIONAL.keys() | _MODULE.keys())


@st.composite
def _configs(draw):
    """A config object of well-typed values, with a module (theta and g)
    or without one, and half the time one key's value replaced by junk."""
    required = dict(_REQUIRED, **_MODULE) if draw(st.booleans()) else _REQUIRED
    optional = {k: v for k, v in _OPTIONAL.items() if k not in required}
    obj = draw(st.fixed_dictionaries(required, optional=optional))
    if draw(st.booleans()):
        obj[draw(st.sampled_from(_KEYS))] = draw(_JUNK)
    return obj


@st.composite
def _files(draw):
    """One config, a {"configs": [...]} list of them, or now and then junk."""
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return draw(_JUNK)
    if kind <= 2:
        return {"configs": draw(st.lists(_configs(), max_size=2))}
    return draw(_configs())


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=200)
@given(obj=_files(), command=st.sampled_from(["verify", "torsion", "galois-det"]))
def test_config_commands_end_in_a_documented_exit_code(fuzz_path, obj, command):
    fuzz_path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(fuzz_path)])
    assert code in (0, 1, 2, 3, 4), (code, err.getvalue())
    if code >= 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
