"""One benchmark pass in a fresh interpreter.

Reads a JSON request on stdin, either ``{"workload", "seed", "trace"}``
or ``{"micro": true}``, runs it against ``src/drinfeld`` of the current
directory and prints one JSON line with the result.  ``run.py`` starts
it.  Set-up time is counted from the top of this file, before
``drinfeld`` is imported, and the host-speed sampler runs from there
to the end of the pass.
"""

import time

T0 = time.perf_counter()

import hostspeed  # noqa: E402

SPEED = hostspeed.HostSpeed()
SPEED.start()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _check_package():
    import drinfeld

    expected = os.path.join(os.getcwd(), "src", "drinfeld")
    if os.path.dirname(os.path.abspath(drinfeld.__file__)) != expected:
        raise SystemExit(f"error: drinfeld was imported from {drinfeld.__file__}, not {expected}")


def _scale(result):
    """Replace a pass's raw intervals by scaled and raw durations."""
    setup, timed = result.pop("setup"), result.pop("timed")
    result["setup_s"] = SPEED.scaled(*setup)
    result["setup_raw_s"] = setup[1] - setup[0]
    result["wall_s"] = SPEED.scaled(*timed)
    result["wall_raw_s"] = timed[1] - timed[0]
    result["ops_ms"] = [SPEED.scaled(*span) * 1e3 for span in result.pop("ops")]


def main():
    request = json.load(sys.stdin)
    _check_package()
    if request.get("micro"):
        result = {"micro": micro.measure(SPEED.scaled)}
        SPEED.stop()
    else:
        trace = tracer.Tracer() if request["trace"] else contextlib.nullcontext()
        run = workloads.PASSES[request["workload"]]
        result = run(request["seed"], trace, T0)
        SPEED.stop()
        _scale(result)
        if request["trace"]:
            result["trace"] = trace.snapshot()
    result["host_factor"] = SPEED.median_factor()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
