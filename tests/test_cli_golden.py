"""One digest over the exit codes, stdout and stderr of CLI runs that
render or serialize every polynomial container: f_a (MultiPoly) on all
four routes, the pairing polynomial (QPowerPoly), torsion points and
module JSON (the operators behind them are SkewPolys), and the
galois-det table (UniPoly residues), as text and as JSON, over GF(2),
GF(3) and GF(4)."""

import hashlib
import json

import pytest

from drinfeld.cli import main

GF4 = {"p": 2, "e": 2, "tower": [{"degree": 2, "modulus": [1, 1, 1]}]}

FA_CASES = [
    ("2", "1", "1,1,1", "2"),
    ("2", "1", "1,0,1,1", "3"),
    ("2", "1", "0,0,1", "2"),
    ("3", "1", "1,2,1,1", "3"),
    ("3", "1", "2,0,1", "2"),
    ("2", "2", "2,3,1", "2"),
    ("2", "2", "1,1", "3"),
    ("2", "2", "3,2,1", "3"),
    ("3", "1", "1,2", "2"),  # not monic: exit 3
]

MODULES = [
    ({"K": {"p": 2, "e": 1, "tower": []}, "theta": 1, "g": [1, 1]}, ["0,1", "1,1,1"]),
    ({"K": {"p": 2, "e": 1, "tower": []}, "theta": 1, "g": [0, 1, 1]}, ["0,1"]),
    ({"K": {"p": 3, "e": 1, "tower": []}, "theta": 2, "g": [1, 2]}, ["1,0,1", "0,1"]),
    ({"K": GF4, "theta": [0, 1], "g": [[1, 0], [1, 1]]}, ["1,1", "1,1,1"]),
    ({"K": GF4, "theta": [1, 1], "g": [[1, 0]]}, ["0,1"]),
]

CONFIGS = [
    {"label": "q2-r2", "p": 2, "theta": 1, "g": [1, 1], "a_list": [[0, 1], [1, 1, 1]]},
    {"label": "q3-r2", "p": 3, "theta": 2, "g": [1, 2], "a_list": [[0, 1]]},
    {"label": "q4-r1", "p": 2, "e": 2, "theta": 3, "g": [1], "a_list": [[0, 1], [1, 1]]},
    {"label": "q4-r2", "p": 2, "e": 2, "theta": 2, "g": [1, 3], "a_list": [[1, 1]]},
]


def _commands(config_path="CONFIG"):
    for q, e, a, r in FA_CASES:
        for route in ("rootfree", "chain", "recursive", "both"):
            base = ["fa", "--q", q, "--q-deg", e, "--a", a, "--r", r, "--route", route]
            yield base
            yield base + ["--json"]
    for module, a_list in MODULES:
        for a in a_list:
            base = ["weil", "--module", json.dumps(module), "--a", a]
            yield base
            yield base + ["--json"]
    for command in ("torsion", "galois-det"):
        yield [command, "--config", config_path]
        yield [command, "--config", config_path, "--json"]


def test_cli_outputs_are_golden(capsys, tmp_path):
    path = tmp_path / "configs.json"
    path.write_text(json.dumps({"configs": CONFIGS}))
    digest = hashlib.sha256()
    for argv, shown in zip(_commands(str(path)), _commands()):
        code = main(argv)
        captured = capsys.readouterr()
        digest.update(json.dumps([shown, code, captured.out, captured.err]).encode())
    assert digest.hexdigest() == (
        "a5e8eea80d384eddc1a3c801f833069afe22a716e5c14a0c1f3d769e36665053"
    )


def test_cli_json_equals_an_independent_serializer(capsys, tmp_path):
    # each --json stdout is one or more documents, each exactly
    # json.dumps(doc, indent=2, sort_keys=True) and a newline
    path = tmp_path / "configs.json"
    path.write_text(json.dumps({"configs": CONFIGS}))
    runs = [argv for argv in _commands(str(path)) if "--json" in argv]
    runs.append(["verify", "--suite", "det", "--json"])
    decoder = json.JSONDecoder()
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        if not out:
            assert code == 3, argv  # the non-monic fa case
            continue
        docs, pos = [], 0
        while pos < len(out):
            doc, pos = decoder.raw_decode(out, pos)
            docs.append(doc)
            pos += 1
        expected = "".join(json.dumps(doc, indent=2, sort_keys=True) + "\n" for doc in docs)
        assert out == expected, argv


def _all_ones(K, r):
    one = 1 if K["e"] == 1 else [1, 0]
    return {"K": K, "theta": one, "g": [one] * r}


# weil --json above the default bundle's rank 3, for theta = 1, g all ones
# and a = T^3 + T^2 + T: packed builds over GF(2) and GF(3), the dict loop
# over GF(4); the digests were taken on the dict loop alone
@pytest.mark.parametrize("module, digest", [
    (_all_ones({"p": 2, "e": 1, "tower": []}, 4),
     "c57e2a1024770698e877422d191eb0d27625b4e910fd079ea6e155aef3f32cf1"),
    (_all_ones({"p": 3, "e": 1, "tower": []}, 4),
     "553b2a58084a30827f857d3f299b50682e3b7c38fd175cee2657a2de1ee7533f"),
    (_all_ones({"p": 2, "e": 1, "tower": []}, 5),
     "d00bea6949c16412714fffaa372d574f66420abf3d7b5821592755a5c35d8e99"),
    (_all_ones(GF4, 4),
     "569ba1ab12f71c89dcc13073283b250b1010469624f6044c69b468377cd1951d"),
], ids=["GF(2) r=4", "GF(3) r=4", "GF(2) r=5", "GF(4) r=4"])
def test_high_rank_weil_json_is_golden(capsys, module, digest):
    assert main(["weil", "--module", json.dumps(module), "--a", "0,1,1,1", "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
