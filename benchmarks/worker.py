"""One workload process, started by ``run.py``; not meant to be run by hand.

Protocol on standard output: the line ``READY`` once set-up is done (the
parent times process start to this line), then, unless ``--role probe``, one
JSON line with the measurements.  Set-up is import, cold ``cfl_limit`` and,
for solves, ``build_problem``.

Untraced (``--trace 0``): timed solves back to back until the next one
would end after ``--seconds``; every solve is checked outside its timed
region.  Traced (``--trace 1``): set-up runs under the tracer, then one
untraced and one traced solve (on a freshly built problem, so both start
from the same cold operator caches), then the traced two-level LFA
prediction of the same configuration; the spans are reduced to per-layer
metrics and written to disk.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import mgrit_advection
from machine import provenance
from workloads import WORKLOADS


def _timed_op(workload, state):
    inputs = workload.inputs(state)
    t0 = time.perf_counter()
    output = workload.run(state, inputs)
    return time.perf_counter() - t0, output


def _checked(workload, state, output, log):
    try:
        attempted, failed, detail = workload.check(state, output)
    except Exception as exc:  # a raising check is a failed operation
        attempted, failed, detail = 1, 1, {"error": repr(exc)}
    log.append(detail)
    return attempted, failed


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, state, seconds):
    times, iters, checks = [], [], []
    attempted = failed = 0
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        try:
            dt, output = _timed_op(workload, state)
        except Exception as exc:  # a raising operation is counted, not raised
            attempted += 1
            failed += 1
            checks.append({"error": repr(exc)})
        else:
            if peak_rss_mb is None:
                # read before any output check, whose reference solution
                # would otherwise set the peak
                peak_rss_mb = _peak_rss_mb()
            times.append(dt)
            iters.append(workload.iterations(output))
            a, f = _checked(workload, state, output, checks)
            attempted += a
            failed += f
            del output
        last = time.perf_counter() - op_start
        if time.perf_counter() - start + last > seconds:
            break
    return {"op_times_s": times, "iterations": iters, "checks": checks,
            "attempted": attempted, "failed": failed,
            "peak_rss_mb": peak_rss_mb,
            "measure_wall_s": time.perf_counter() - start}


def traced(workload, tracer, state, seed, size):
    untraced_s, output = _timed_op(workload, state)
    del output
    state = workload.setup(seed, size)
    inputs = workload.inputs(state)
    tracer.phase = "op"
    tracer.install()
    try:
        t0 = time.perf_counter()
        output = workload.run(state, inputs)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    # the lfa layer: the two-level prediction of the solved configuration
    tracer.phase = "lfa"
    tracer.install()
    try:
        prediction = workload.predict(state)
    finally:
        tracer.uninstall()
    checks = []
    attempted, failed = _checked(workload, state, output, checks)
    iters = workload.iterations(output)
    prediction["rho_measured"] = output[0].effective_rho
    layers = tracer.layer_metrics(traced_s, iters)
    layers.update({"trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
                   "trace.overhead_s": traced_s - untraced_s})
    return {"op_times_s": [traced_s], "iterations": [iters], "checks": checks,
            "attempted": attempted, "failed": failed, "layers": layers,
            "lfa_prediction": prediction, "missing_targets": tracer.missing}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--role", choices=("main", "probe"), default="main")
    ap.add_argument("--spans-out")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(mgrit_advection)
        tracer.install()
    try:
        state = workload.setup(args.seed, args.size)
    finally:
        if tracer is not None:
            tracer.uninstall()
    print("READY", flush=True)
    if args.role == "probe":
        return 0

    if tracer is None:
        result = measure(workload, state, args.seconds)
    else:
        result = traced(workload, tracer, state, args.seed, args.size)
        if args.spans_out:
            tracer.dump(args.spans_out)
    result["machine"] = provenance()
    result["state"] = {k: v for k, v in state.items()
                       if isinstance(v, (int, float, str))}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
