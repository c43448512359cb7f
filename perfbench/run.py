"""Benchmark of the drinfeld package: end-to-end metrics per workload,
or, with ``--trace 1``, per-layer metrics from a traced pass.

Run from the repository root:

    python3 perfbench/run.py --workload verify-default --seed 0 --seconds 30 --trace 0

Load is a closed loop with one caller in one process that waits for
each result, and no extra threads.  Every pass starts a fresh
interpreter (``worker.py``), so every pass pays the cold caches a CLI
user pays.  With ``--trace 0`` passes repeat until ``--seconds`` is
used up (at least three); ``wall_s``, ``setup_s`` and ``peak_rss_mb``
are medians over the passes, and ``op_ms.p50``/``op_ms.p90`` are
quantiles of each operation's median latency over the passes.  With
``--trace 1`` the run makes one untraced pass, one traced pass and
three micro-case passes.  Times are scaled to a reference host speed
(see ``hostspeed.py``); the raw medians are printed beside them.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit, the error rate and the run's metadata.
The exit code is 1 when any correctness gate fails and 2 when the
directory holds no ``src/drinfeld`` to measure.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import micro  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MICRO_PASSES = 3
RUN_LIMIT_S = 170.0  # the whole run, so that it ends within 180 s


def run_worker(root, request, deadline):
    """One pass in a fresh interpreter; returns its result, or None with
    the reason printed when it failed or ran out of time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(request), capture_output=True, text=True,
            cwd=root, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"pass {request} timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"pass {request} exited {proc.returncode}:\n{proc.stderr[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, with the Beta((n+1)p, (n+1)(1-p)) weights taken
    from its normal approximation.  Far steadier than one order
    statistic where the latencies are sparse around the quantile."""
    x = sorted(values)
    n = len(x)
    dist = statistics.NormalDist(p, math.sqrt(p * (1 - p) / (n + 2)))
    weights = [dist.cdf(i / n) - dist.cdf((i - 1) / n) for i in range(1, n + 1)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def tally(passes):
    """correct, attempted, failed over a run's passes (None = crashed)."""
    attempted = failed = 0
    for res in passes:
        if res is None:
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += res["attempted"]
        failed += res["failed"]
        for problem in res["problems"][:5]:
            print(f"FAIL {problem}", file=sys.stderr)
    return failed == 0, attempted, failed


def end_to_end(root, workload, seed, seconds, deadline):
    passes = []
    start = time.perf_counter()
    while True:
        res = run_worker(root, {"workload": workload, "seed": seed, "trace": False}, deadline)
        passes.append(res)
        if res is None:
            break
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    correct, attempted, failed = tally(passes)
    if not correct:
        return correct, attempted, failed, {}, passes
    # every pass runs the same operations: take each one's median latency
    ops = [statistics.median(lat) for lat in zip(*(r["ops_ms"] for r in passes))]
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in passes), "s"),
        "setup_s": (statistics.median(r["setup_s"] for r in passes), "s"),
        "op_ms.p50": (quantile(ops, 0.5), "ms"),
        "op_ms.p90": (quantile(ops, 0.9), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }
    print(f"# {len(passes)} passes of {len(ops)} operations; "
          f"raw wall_s {statistics.median(r['wall_raw_s'] for r in passes):.4g}, "
          f"raw setup_s {statistics.median(r['setup_raw_s'] for r in passes):.4g}, "
          f"host speed factor {statistics.median(r['host_factor'] for r in passes):.3f}")
    return correct, attempted, failed, metrics, passes


def per_layer(root, workload, seed, deadline):
    plain = run_worker(root, {"workload": workload, "seed": seed, "trace": False}, deadline)
    traced = run_worker(root, {"workload": workload, "seed": seed, "trace": True}, deadline)
    micros = [run_worker(root, {"micro": True}, deadline) for _ in range(MICRO_PASSES)]
    correct, attempted, failed = tally([plain, traced])
    if not correct or None in micros:
        return False, attempted, max(failed, 1), {}, [plain, traced]
    # span times are raw; scale them by the traced pass's host-speed factor
    factor = traced["wall_s"] / traced["wall_raw_s"]
    metrics = {name: (value * factor if unit == "s" else value, unit)
               for name, (value, unit) in tracer.layer_metrics(traced["trace"]).items()}
    for name, unit in micro.UNITS.items():
        metrics[name] = (statistics.median(m["micro"][name] for m in micros), unit)
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    for layer, calls in tracer.layer_calls(traced["trace"]).items():
        print(f"# layer {layer}: {calls} wrapped calls")
    for name, ref in micro.REFERENCE.items():
        print(f"# {name}: {metrics[name][0]:.4g} {metrics[name][1]} "
              f"(ROADMAP reference {ref} {metrics[name][1]})")
    return correct, attempted, failed, metrics, [plain, traced]


def metadata(root, workload, seed, passes):
    src_lines = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        whys = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    meta = {"workload": workload, "seed": seed, "python": platform.python_version(),
            "src_lines": src_lines, "why": whys[workload]}
    shares = [p["field_reuse_share"] for p in passes if p and "field_reuse_share" in p]
    if shares:
        meta["field_reuse_share"] = shares[0]
    return meta


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PASSES))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "drinfeld", "__init__.py")):
        print("error: no src/drinfeld here; run from the repository root", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    if args.trace:
        correct, attempted, failed, metrics, passes = per_layer(
            root, args.workload, args.seed, deadline)
    else:
        correct, attempted, failed, metrics, passes = end_to_end(
            root, args.workload, args.seed, args.seconds, deadline)
    print("# meta " + json.dumps(metadata(root, args.workload, args.seed, passes)))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value if isinstance(value, int) else f'{value:.6g}'} {unit}")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
