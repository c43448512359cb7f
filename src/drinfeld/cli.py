"""Command-line surface: coefficient-family computation, pairing
evaluation, torsion inspection, and verification runs.

`drinfeld fa --route` picks the f_a construction: `rootfree` (the
default, the root-free expansion of f_a's site matrices used everywhere
else in the package), `chain` (chain sum over the roots), `recursive`
(peel-one-root recursion) or `both` (chain and recursive side by side,
exit 1 when they differ).  `fa --json` reports the route taken in
`provenance.route` as "rootfree", "chain" or "recursive"; `both` emits
one object per oracle under "chain" and "recursive" plus "match".

Exit codes: 0 success, 1 at least one verification FAIL, 2 malformed
input or config (a module suite, `torsion` or `galois-det` on a config
that declares no Drinfeld module included), 3 domain errors (non-monic
operator, points outside torsion, operator divisible by the
characteristic), 4 a search cap or evaluation budget was exceeded.
`torsion` and `galois-det` build every result before printing any, so
an exit code of 2 or more comes with no output.

`--json` prints exactly `json.dumps(obj, indent=2, sort_keys=True)`.
Polynomials (`fa`, `weil`) are written straight from their terms, with
the same bytes as `json.dumps` of their `to_json()`.

`--config` names a config file, whose format `verify.bundle_from_json`
documents and parses.  `torsion` and `galois-det` read no seed: a
torsion module has one A/a-basis, and the Galois determinants do not
depend on it.  Only verify's suites read a config's `seed`.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _quote

from .core import DEFAULT_EXTENSION_CAP, DrinfeldModule, galois_det_table, torsion, torsion_level
from .errors import (
    ConfigurationTooLarge,
    DrinfeldError,
    InseparableTorsion,
    MalformedInput,
    NonMonic,
    NotTorsionPoint,
    SearchBudget,
    SearchCapExceeded,
)
from .fields import make_field, require_int
from .pairing import FaPoly, f_chain_sum, f_recursive, f_rootfree, weil_evaluate, weil_polynomial
from .polynomials import SparsePoly, UniPoly
from .verify import (SUITE_NAMES, VerificationConfig, bundle_from_json, default_bundle,
                     parse_element, run_suites)

_BUDGET_ERRORS = (ConfigurationTooLarge, SearchCapExceeded, SearchBudget)
_DOMAIN_ERRORS = (NonMonic, NotTorsionPoint, InseparableTorsion)


# one rank of --a: int() alone would also take "1_0" and non-ASCII digits
_RANK_TOKEN = re.compile(r" *[+-]?[0-9]+ *")


def _parse_ranks(text):
    tokens = text.split(",")
    if not all(_RANK_TOKEN.fullmatch(tok) for tok in tokens):
        raise MalformedInput(f"cannot parse coefficient list {text!r}")
    return tuple(int(tok) for tok in tokens)


def _load_json_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_json_arg(text):
    return _load_json_file(text[1:]) if text.startswith("@") else json.loads(text)


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _dumps(obj, indent="\n"):
    """`json.dumps(obj, indent=2, sort_keys=True)` for obj on a line that
    `indent` starts; a polynomial is written as its `to_json()` (see
    `_dumps_poly`), and what is not plain JSON goes to json, re-indented."""
    t = type(obj)
    if t is str:
        return _quote(obj)
    if t is int or t is float and math.isfinite(obj):
        return repr(obj)
    if obj is None or t is bool:
        return "null" if obj is None else "true" if obj else "false"
    inner = indent + "  "
    if t is list or t is tuple:
        if not obj:
            return "[]"
        if {int}.issuperset(map(type, obj)):
            return "[" + inner + ("," + inner).join(map(int.__repr__, obj)) + indent + "]"
        return "[" + inner + ("," + inner).join([_dumps(v, inner) for v in obj]) + indent + "]"
    if t is dict and all(type(k) is str for k in obj):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + _dumps(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if t is _Slot:
        obj.indent = indent
        return obj.mark
    if t is FaPoly or isinstance(obj, SparsePoly):
        return _dumps_poly(obj, indent)
    # NaN, infinities, subclasses, other keys; JSON text holds no raw newline
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", indent)


class _Slot:
    """A mark that `_dumps` writes as it stands, noting its indent."""

    __slots__ = ("mark", "indent")

    def __init__(self, mark):
        self.mark = mark


def _dumps_poly(obj, indent):
    """`_dumps(obj.to_json(), indent)` for a SparsePoly or FaPoly, written
    straight from its terms: no per-term dict or list, and one %-template
    per distinct coefficient, which fills in each term's exponents.  The
    layout is `json_head`'s and `json_term`'s, written around marks;
    `_quote` escapes every control character, so no other text holds one."""
    poly = obj.poly if type(obj) is FaPoly else obj
    terms, coeff, exp = _Slot("\0"), _Slot("\1"), _Slot("\2")
    head = _dumps(obj.json_head(terms), indent)
    inner = terms.indent + "  "
    record = _dumps(poly.json_term([exp] * poly.nvars, coeff), inner)
    template = record.replace("%", "%%").replace("\2", "%d")
    to_json, at = poly.ctx.element_to_json, coeff.indent  # element JSON holds no "%"
    by_coeff = {v: template.replace("\1", _dumps(to_json(v), at))
                for v in {c.val for c in poly.terms.values()}}
    records = [by_coeff[c.val] % e for e, c in poly.sorted_terms()]
    body = "[" + inner + ("," + inner).join(records) + terms.indent + "]" if records else "[]"
    return head.replace("\0", body)


def _emit(obj):
    """Print `_dumps(obj)`: obj as `json.dumps(obj, indent=2, sort_keys=True)` does."""
    print(_dumps(obj))


def cmd_fa(args):
    base = make_field(args.q_char, args.q_deg)
    a = UniPoly.from_ranks(base, _parse_ranks(args.a))
    budget, n, r = require_int(args.budget, "budget", low=1), a.degree, args.r
    if r > budget:  # r exponents per term, even at n = 1 where f_a = 1
        raise ConfigurationTooLarge(f"{r} variables of f_a exceed the budget of {budget}")
    if n > 1 and (r >= budget.bit_length() or n**r > budget):  # n**r >= 2**r > r
        raise ConfigurationTooLarge(f"{n}**{r} terms of f_a exceed the budget of {budget}")
    if args.route == "both":
        chain = f_chain_sum(a, r)
        rec = f_recursive(a, r)
        match = chain == rec
        if args.json:
            _emit({"chain": chain, "recursive": rec, "match": match})
        else:
            print(chain.render())
            print(rec.render())
            print("match" if match else "MISMATCH")
        return 0 if match else 1
    build = {"rootfree": f_rootfree, "chain": f_chain_sum, "recursive": f_recursive}[args.route]
    fa = build(a, r)
    if args.json:
        _emit(fa)
    else:
        print(fa.render())
    return 0


def cmd_weil(args):
    module = DrinfeldModule.from_json(_load_json_arg(args.module))
    a = UniPoly.from_ranks(module.base, _parse_ranks(args.a))
    if args.eval is None:
        poly = weil_polynomial(module, a)
        if args.json:
            _emit(poly)
        else:
            print(poly.render())
        return 0
    specs = _load_json_arg(args.eval)
    if not isinstance(specs, list):
        raise MalformedInput(f"--eval must be a JSON list of points, got {specs!r}")
    level = torsion_level(module, a, cap=args.cap)[2]
    points = [parse_element(level, s) for s in specs]
    value = weil_evaluate(module, a, points)
    in_torsion = module.det_module().phi(a)(value).is_zero()
    if args.json:
        _emit(
            {
                "value": value.to_json(),
                "rank": value.rank(),
                "level": level.descriptor(),
                "in_det_module_torsion": in_torsion,
            }
        )
    else:
        print(value.rank())
        print(f"value lies in the determinant-module torsion: {in_torsion}")
    return 0


def _overrides(args):
    """The --seed and --budget a subcommand was given, by config field name."""
    return {k: v for k in ("seed", "budget") if (v := getattr(args, k, None)) is not None}


def _config_entries(args):
    """The BundleEntry list of the --config file, --seed and --budget applied."""
    return bundle_from_json(_load_json_file(args.config), **_overrides(args))


def _config_modules(args):
    """(label, config, module) per entry of the --config file; every
    module is built before the caller computes or prints anything."""
    return [(e.label, e.config, e.config.module()) for e in _config_entries(args)]


def cmd_torsion(args):
    # every result is built before any is printed: an error prints nothing
    found = [(label, module, a, torsion(module, a, cap=cfg.extension_cap))
             for label, cfg, module in _config_modules(args) for a in cfg.a_polys()]
    for label, module, a, tm in found:
        if args.json:
            out = tm.to_json()
            out["module"] = module.to_json()
            out["point_count"] = tm.count()
            _emit(out)
        else:
            print(f"{label}: a = {a.render()}")
            print(f"  extension degree over K: {tm.m}")
            print(f"  point count: {tm.count()}")
            for b in tm.fq_basis:
                print(f"  basis: {json.dumps(b.to_json())}")
    return 0


def cmd_galois_det(args):
    # every table is built before any is printed: an error prints nothing
    tables = [(label, a, galois_det_table(module, module.det_module(), a, cfg.extension_cap))
              for label, cfg, module in _config_modules(args) for a in cfg.a_polys()]
    for label, a, table in tables:
        rows = [
            {
                "k": k,
                "det_rho_phi": det.render(),
                "rho_psi": scalar.render(),
                "equal": det == scalar,
            }
            for k, det, scalar in table
        ]
        if args.json:
            _emit({"label": label, "a": [c.rank() for c in a.coeffs], "powers": rows})
        else:
            print(f"{label}: a = {a.render()}")
            for row in rows:
                mark = "==" if row["equal"] else "!="
                print(
                    f"  sigma^{row['k']}: det = {row['det_rho_phi']} "
                    f"{mark} psi-scalar = {row['rho_psi']}"
                )
        if not all(row["equal"] for row in rows):
            return 1
    return 0


def cmd_verify(args):
    entries = _config_entries(args) if args.config else default_bundle(**_overrides(args))
    if args.suite:
        wanted = set(args.suite)
        entries = [
            dataclasses.replace(e, suites=tuple(s for s in e.suites if s in wanted))
            for e in entries
        ]
        entries = [e for e in entries if e.suites]
    results = []
    for entry in entries:
        report = run_suites(entry.config, entry.suites)
        results.append((entry.label, report))
    if not any(report.checks for _, report in results):
        return _fail(2, "the selected configs and suites produce no check")
    ok = all(report.ok() for _, report in results)
    if args.json:
        _emit(
            {
                "ok": ok,
                "reports": [
                    {"label": label, **report.to_json()} for label, report in results
                ],
            }
        )
    else:
        for label, report in results:
            print(f"== {label}")
            print(report.render())
        print("ALL SUITES PASS" if ok else "VERIFICATION FAILURES PRESENT")
    return 0 if ok else 1


@functools.cache
def build_parser():
    """The argument parser, built once per process, lazily on first call."""
    parser = argparse.ArgumentParser(
        prog="drinfeld",
        description="Exact Drinfeld-module pairing computations over finite fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fa = sub.add_parser("fa", help="compute the symmetric coefficient polynomial")
    p_fa.add_argument("--q", dest="q_char", type=int, required=True,
                      help="characteristic of the coefficient field")
    p_fa.add_argument("--q-deg", type=int, default=1,
                      help="base extension degree (field has q = p**e elements)")
    p_fa.add_argument("--a", required=True,
                      help="little-endian coefficient ranks, e.g. 1,1,1")
    p_fa.add_argument("--r", type=int, required=True, help="number of variables")
    p_fa.add_argument("--route", choices=("rootfree", "chain", "recursive", "both"),
                      default="rootfree",
                      help="rootfree (default): site-matrix expansion, no root scan; "
                      "chain / recursive: the root-based oracles; both: compare "
                      "the two oracles.  --json reports the route in "
                      "provenance.route")
    p_fa.add_argument("--budget", type=int, default=VerificationConfig.budget,
                      help="exit 4 when max(r, deg(a)**r), f_a's variable and "
                      "term bound, exceeds it")
    p_fa.add_argument("--json", action="store_true")
    p_fa.set_defaults(func=cmd_fa)

    p_weil = sub.add_parser("weil", help="pairing polynomial or pairing value")
    p_weil.add_argument("--module", required=True,
                        help="Drinfeld module JSON (inline or @file)")
    p_weil.add_argument("--a", required=True, help="little-endian coefficient ranks")
    p_weil.add_argument("--eval", default=None,
                        help="JSON list of torsion points (ranks or nested arrays)")
    p_weil.add_argument("--cap", type=int, default=DEFAULT_EXTENSION_CAP,
                        help="extension-degree search cap for torsion")
    p_weil.add_argument("--json", action="store_true")
    p_weil.set_defaults(func=cmd_weil)

    p_tor = sub.add_parser("torsion", help="inspect a torsion module")
    p_tor.add_argument("--config", required=True)
    p_tor.add_argument("--json", action="store_true")
    p_tor.set_defaults(func=cmd_torsion)

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--config", default=None,
                       help="config file; omitted = bundled default grid")
    p_ver.add_argument("--suite", action="append", choices=SUITE_NAMES,
                       help="restrict to these suites (repeatable)")
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.add_argument("--budget", type=int, default=None)
    p_ver.add_argument("--json", action="store_true")
    p_ver.set_defaults(func=cmd_verify)

    p_gd = sub.add_parser("galois-det", help="determinant of the Galois action "
                          "against the rank-1 scalar, per Frobenius power; "
                          "basis-free, so it reads no seed")
    p_gd.add_argument("--config", required=True)
    p_gd.add_argument("--json", action="store_true")
    p_gd.set_defaults(func=cmd_galois_det)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _BUDGET_ERRORS as exc:
        return _fail(4, str(exc))
    except _DOMAIN_ERRORS as exc:
        return _fail(3, str(exc))
    except DrinfeldError as exc:
        return _fail(2, str(exc))
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        return _fail(2, f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
