"""Time-to-solution benchmark for MGRIT solves.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload erk3_v_cycle --seed 0 \
        --seconds 40 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  Each run starts
fresh worker processes (``worker.py``) with the package from ``src/`` and one
BLAS thread:

- set-up probes, which stop once ready to solve; ``setup_s`` is the median of
  their process-start-to-ready times and that of the measuring worker;
- one measuring worker.  With ``--trace 0`` it reports the end-to-end
  metrics, with ``--trace 1`` the per-layer metrics of a traced run.

The last line of standard output is the result object.  A full record (seed,
machine, versions, every sample, every output check) is written to
``benchmarks/out/``; traced runs also write their spans there.  Without the
package sources next to the benchmark the run fails with exit code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh processes timed per run for ``setup_s``, the measuring one included
SETUP_SAMPLES = 9

#: every child is killed once the run has lasted this long
DEADLINE_S = 170.0


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _tail(samples):
    """Highest percentile with at least ten samples above it, if any."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


class Child:
    """A worker process whose READY line and last line are read by the parent."""

    def __init__(self, argv, env, deadline):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=ROOT, text=True,
                                     stdout=subprocess.PIPE)
        self._timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                      self.proc.kill)
        self._timer.start()
        self.ready_s = None
        self.last = None

    def wait(self):
        try:
            for line in self.proc.stdout:
                line = line.strip()
                if line == "READY":
                    self.ready_s = time.perf_counter() - self.start
                elif line:
                    self.last = line
            self.proc.stdout.close()
            code = self.proc.wait()
        finally:
            self._timer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if code != 0 or self.ready_s is None:
            raise RuntimeError(f"worker exited with code {code}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full",
                    help="'small' runs 64 x 256 grids (self-test only)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "mgrit_advection" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: the package sources ({SRC}) or BENCHMARK.json are missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT / f"spans-{tag}.json"
    worker = [sys.executable, str(BENCH / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--size", args.size]

    def probe():
        child = Child(worker + ["--role", "probe"], env, deadline)
        child.wait()
        return child.ready_s

    # half the probes run before the measuring worker and half after it, so
    # the samples span the run rather than one burst of machine load
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setup = [probe() for _ in range(probes // 2)]
        main_child = Child(worker + (["--spans-out", str(spans_path)]
                                     if args.trace else []), env, deadline)
        main_child.wait()
        setup.append(main_child.ready_s)
        setup += [probe() for _ in range(probes - probes // 2)]
        result = json.loads(main_child.last)
    except (RuntimeError, TypeError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    times = result["op_times_s"]
    if not times:
        print("error: no solve completed", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    if args.trace:
        values = result["layers"]
        wanted = spec["per_layer"]
    else:
        values = {
            "solve_s": statistics.median(times),
            "iterations": statistics.median_low(result["iterations"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_commit": _git_commit(),
        "random_input": "initial iterate from MgritConfig.rng_seed = seed",
        "machine": result["machine"],
        "solve_s": {"median": statistics.median(times), "tail": _tail(times),
                    "samples": len(times), "all": times},
        "setup_s_samples": setup,
        "warm_up": "none: the first timed solve is the first in its process",
        "first_solve_s": times[0],
        "iterations": result["iterations"],
        "failed_frac": failed / attempted,
        "checks": result["checks"],
        "measure_wall_s": result.get("measure_wall_s"),
        "state": result["state"],
        "metrics": metrics,
    }
    if args.trace:
        record["lfa_prediction"] = result["lfa_prediction"]
        record["missing_trace_targets"] = result["missing_targets"]
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
