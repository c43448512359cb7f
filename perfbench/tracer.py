"""Timing wrappers around the public functions of each drinfeld module.

The benchmark measures the package as it is, so the spans live here and
not under ``src/``.  ``Tracer`` replaces every traced function at every
place it is bound (from-imports copy a binding into the importing
module, and ``verify._SUITE_FUNCS`` holds the suite functions in a
dict), and puts the originals back on exit.

Hot leaves such as ``FieldElement.__mul__`` run about a million times
per ``verify`` pass, so a span is not kept per call: each wrapper adds
its call count, total time and self time (total minus the time of
wrapped children) to one record per (span, parent span).
"""

from __future__ import annotations

import functools
import sys
import time

# metric group -> spans it aggregates, each "module:qualified name"
GROUPS = {
    "fields.mul": ("fields:FieldElement.__mul__",),
    "fields.addsub": (
        "fields:FieldElement.__add__",
        "fields:FieldElement.__sub__",
        "fields:FieldElement.__neg__",
    ),
    "fields.frobenius": ("fields:FieldElement.frobenius",),
    "fields.inverse": ("fields:FieldElement.inverse", "fields:FieldElement.__truediv__"),
    "fields.linalg": ("fields:kernel", "fields:solve", "fields:determinant"),
    "fields.tower": ("fields:make_field", "fields:extend", "fields:field_from_descriptor"),
    "polynomials.unipoly": (
        "polynomials:UniPoly.__mul__",
        "polynomials:UniPoly.__divmod__",
        "polynomials:UniPoly.__call__",
        "polynomials:UniPoly.__add__",
        "polynomials:UniPoly.__sub__",
    ),
    "polynomials.multipoly": (
        "polynomials:MultiPoly.__add__",
        "polynomials:MultiPoly.__sub__",
        "polynomials:MultiPoly.__neg__",
        "polynomials:MultiPoly.__mul__",
        "polynomials:MultiPoly.scale",
        "polynomials:MultiPoly.__call__",
    ),
    "polynomials.normal_form": ("polynomials:normal_form",),
    "polynomials.roots": ("polynomials:roots_in_field", "polynomials:splitting_level"),
    "core.skew": ("core:SkewPoly.__call__", "core:SkewPoly.__mul__"),
    "core.phi": ("core:DrinfeldModule.phi",),
    "core.torsion": ("core:torsion",),
    "core.points": ("core:TorsionModule.points", "core:fq_span"),
    "core.a_basis": ("core:TorsionModule.a_basis",),
    "pairing.f_a": (
        "pairing:f_chain_sum",
        "pairing:f_recursive",
        "pairing:f_root_order_variant",
        "pairing:chain_sum_over_roots",
    ),
    "pairing.weil_polynomial": ("pairing:weil_polynomial",),
    "pairing.evaluator": ("pairing:PairingEvaluator.__call__",),
    "pairing.evaluator_build": ("pairing:PairingEvaluator.__init__",),
    "pairing.weil_evaluate": ("pairing:weil_evaluate",),
    "verify.suite.f": ("verify:verify_f_identities",),
    "verify.suite.congruence": ("verify:verify_congruences",),
    "verify.suite.pairing": ("verify:verify_pairing_properties",),
    "verify.suite.compatibility": ("verify:verify_compatibility",),
    "verify.suite.leading": ("verify:verify_leading_term",),
    "verify.suite.det": ("verify:verify_det_representation",),
    "verify.run_suites": ("verify:run_suites",),
    "cli.main": ("cli:main",),
}

# the package's modules, i.e. the benchmark's layers (errors does no work)
LAYERS = ("fields", "polynomials", "core", "pairing", "verify", "cli")


def _count_roots(counters, args, result):
    counters["roots.found"] = counters.get("roots.found", 0) + len(result)


def _count_levels(counters, args, result):
    counters["torsion.levels_tried"] = counters.get("torsion.levels_tried", 0) + result.m


def _count_terms(counters, args, result):
    terms = len(args[0].poly.terms)
    counters["evaluator.terms"] = counters.get("evaluator.terms", 0) + terms


def _count_checks(counters, args, result):
    counters["verify.checks"] = counters.get("verify.checks", 0) + len(result.checks)
    timed = sum(c.millis for c in result.checks) / 1000.0
    counters["verify.timed_s"] = counters.get("verify.timed_s", 0.0) + timed


# span -> hook run on each successful return, to count what the call produced
OBSERVERS = {
    "polynomials:roots_in_field": _count_roots,
    "core:torsion": _count_levels,
    "pairing:PairingEvaluator.__init__": _count_terms,
    "verify:run_suites": _count_checks,
}

ROOT = "<root>"


class Tracer:
    """Context manager that installs the wrappers on entry and restores
    the original functions on exit.  Use a fresh tracer per run."""

    def __init__(self):
        self.records = {}  # span -> {parent span: [calls, total_s, self_s]}
        self.counters = {}
        self._stack = [[ROOT, 0.0]]
        self._undo = []

    def _wrap(self, fn, span):
        stack = self._stack
        records = self.records.setdefault(span, {})
        counters = self.counters
        observe = OBSERVERS.get(span)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                rec = records.get(parent[0])
                if rec is None:
                    rec = records[parent[0]] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
            if observe is not None:
                observe(counters, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        import drinfeld.cli  # noqa: F401  (with the package, loads every module)

        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "drinfeld" or name.startswith("drinfeld.")
        }
        functions = {}  # id(original) -> (original, wrapper)
        for spans in GROUPS.values():
            for span in spans:
                modname, qualname = span.split(":")
                owner = modules["drinfeld." + modname]
                if "." in qualname:
                    clsname, attr = qualname.split(".")
                    cls = getattr(owner, clsname)
                    original = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(original, span))
                    self._undo.append((setattr, cls, attr, original))
                else:
                    original = getattr(owner, qualname)
                    functions[id(original)] = (original, self._wrap(original, span))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._undo.append((setattr, mod, attr, value))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = functions.get(id(item))
                        if hit is not None and hit[0] is item:
                            value[key] = hit[1]
                            self._undo.append((dict.__setitem__, value, key, item))

    def uninstall(self):
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def snapshot(self):
        """JSON-ready aggregates: one [span, parent, calls, total_s,
        self_s] row per (span, parent) pair, plus the counters."""
        rows = []
        for span, by_parent in sorted(self.records.items()):
            for parent, (calls, total, own) in sorted(by_parent.items()):
                rows.append([span, parent, calls, total, own])
        return {"spans": rows, "counters": dict(self.counters)}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(snapshot):
    """Per-layer metrics (value, unit) that the span aggregates give."""
    calls, self_s, total_s = {}, {}, {}
    under_roots = 0
    for span, parent, n, total, own in snapshot["spans"]:
        calls[span] = calls.get(span, 0) + n
        self_s[span] = self_s.get(span, 0.0) + own
        total_s[span] = total_s.get(span, 0.0) + total
        if span == "polynomials:UniPoly.__call__" and parent == "polynomials:roots_in_field":
            under_roots += n
    counters = snapshot["counters"]

    def group_calls(group):
        return sum(calls.get(s, 0) for s in GROUPS[group])

    def group_self(group):
        return sum(self_s.get(s, 0.0) for s in GROUPS[group])

    out = {}
    for group in (
        "fields.mul", "fields.addsub", "fields.frobenius", "fields.linalg",
        "fields.tower", "polynomials.unipoly", "polynomials.multipoly",
        "polynomials.normal_form", "polynomials.roots", "core.skew",
        "core.torsion", "core.a_basis", "pairing.f_a", "pairing.weil_polynomial",
        "pairing.evaluator", "pairing.weil_evaluate", "cli.main",
    ):
        out[group + ".calls"] = (group_calls(group), "count")
        out[group + ".self_s"] = (group_self(group), "s")
    out["fields.inverse.calls"] = (group_calls("fields.inverse"), "count")
    out["core.phi.calls"] = (group_calls("core.phi"), "count")
    out["core.points.self_s"] = (group_self("core.points"), "s")
    out["polynomials.roots.hit_ratio"] = (
        _ratio(counters.get("roots.found", 0), under_roots), "ratio")
    levels = counters.get("torsion.levels_tried", 0)
    out["core.torsion.levels_tried"] = (levels, "count")
    out["core.torsion.useful_ratio"] = (_ratio(group_calls("core.torsion"), levels), "ratio")
    out["pairing.evaluator.terms"] = (counters.get("evaluator.terms", 0), "count")
    for suite in ("f", "congruence", "pairing", "compatibility", "leading", "det"):
        out[f"verify.suite.{suite}.self_s"] = (group_self(f"verify.suite.{suite}"), "s")
    out["verify.checks"] = (counters.get("verify.checks", 0), "count")
    run_suites_s = total_s.get("verify:run_suites", 0.0)
    out["verify.untimed_s"] = (run_suites_s - counters.get("verify.timed_s", 0.0), "s")
    return out


def layer_calls(snapshot):
    """Total wrapped calls per layer (module)."""
    out = dict.fromkeys(LAYERS, 0)
    for span, _parent, n, _total, _own in snapshot["spans"]:
        out[span.split(":")[0]] += n
    return out
