"""Self-test of the benchmark's tracer, at a tiny size, in one process.

Checks that each layer records wrapped calls on the workload it is
heavy in, that the wrappers are in place while tracing and every
binding is the original again afterwards, and that the per-layer
metric names match ``BENCHMARK.json``.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(0, HERE)

import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# layer -> the workload it is heavy in
HEAVY = {
    "fields": "verify-default",
    "polynomials": "fa-queries",
    "core": "pairing-sweep",
    "pairing": "pairing-sweep",
    "verify": "verify-default",
    "cli": "fa-queries",
}


def bindings():
    """Identity of every module attribute, module-level dict entry and
    traced class attribute of the package."""
    import drinfeld.cli  # noqa: F401

    out = {}
    for name, mod in sys.modules.items():
        if name != "drinfeld" and not name.startswith("drinfeld."):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in value.items():
                    out[(name, attr, key)] = item
    for spans in tracer.GROUPS.values():
        for span in spans:
            modname, qualname = span.split(":")
            if "." in qualname:
                clsname, attr = qualname.split(".")
                cls = getattr(sys.modules["drinfeld." + modname], clsname)
                out[(modname, clsname, attr)] = cls.__dict__[attr]
    return out


def check_restored(before, label):
    after = bindings()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed, f"{label}: not restored: {changed[:5]}"


def check_wrapped():
    from drinfeld import cli, core, verify
    from drinfeld.fields import FieldElement

    for fn in (FieldElement.__dict__["__mul__"], core.kernel, core.solve, cli.f_chain_sum,
               verify.f_chain_sum, verify._SUITE_FUNCS["f"], cli.run_suites):
        assert hasattr(fn, "__wrapped__"), f"{fn.__qualname__} is not wrapped while tracing"


def main():
    before = bindings()
    original_mul = before[("fields", "FieldElement", "__mul__")]
    calls = {}
    for name, run in workloads.PASSES.items():
        trace = tracer.Tracer()
        with trace:
            check_wrapped()
        check_restored(before, f"{name} (empty trace)")
        result = run(workloads.DEFAULT_SEED, trace, time.perf_counter(), tiny=True)
        assert result["failed"] == 0, f"{name}: {result['problems']}"
        check_restored(before, name)
        calls[name] = tracer.layer_calls(trace.snapshot())
    from drinfeld.fields import FieldElement

    assert FieldElement.__mul__ is original_mul
    for layer, workload in HEAVY.items():
        assert calls[workload][layer] > 0, f"layer {layer} records no calls on {workload}"
        print(f"layer {layer}: {calls[workload][layer]} wrapped calls on {workload}")

    names = set(tracer.layer_metrics({"spans": [], "counters": {}}))
    names |= set(micro.UNITS) | {"trace.overhead_ratio"}
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    assert names == listed, f"per-layer names differ: {sorted(names ^ listed)}"
    print("selftest ok")


if __name__ == "__main__":
    main()
