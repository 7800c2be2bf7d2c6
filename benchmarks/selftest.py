"""Self-test of the benchmark on 64 x 256 grids (about half a minute).

    python3 benchmarks/selftest.py

Runs every workload's code path untraced and traced at the small size and
checks that the result line carries exactly the metrics of BENCHMARK.json
with their units, that every output check passed, that the run record holds
the provenance and the solve_s / failed_frac figures, and that the traced
self times account for the traced solve.  It also checks that
the benchmark fails, without printing a result, when the package sources are
missing.  It is kept out of the tier-1 test suite on purpose: it starts
subprocesses and takes tens of seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROVENANCE = ("nproc", "cpu_model", "caches", "python", "numpy", "blas",
              "mgrit_threads")


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec, workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, result
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in wanted], sorted(metrics)
    for m in wanted:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, (m["name"], got)

    record = json.loads(
        (BENCH / "out" / f"{workload}-seed0-trace{trace}.json").read_text())
    assert record["seed"] == 0 and "git_commit" in record
    assert all(key in record["machine"] for key in PROVENANCE)
    assert record["machine"]["blas"].get("version")
    op = record["solve_s"]
    assert op["samples"] >= 1 and op["median"] > 0
    assert all(check["converged"] for check in record["checks"])
    assert record["failed_frac"] == 0.0
    if trace:
        assert record["missing_trace_targets"] == []
        value = {k: v["value"] for k, v in metrics.items()}
        accounted = value["trace.self_total_s"] + value["trace.unattributed_s"]
        assert math.isclose(accounted, value["trace.traced_s"], rel_tol=1e-9), value
        assert value["mgrit.rows_per_cycle"] > 0
        assert value["lfa.samples"] > 0
        assert record["lfa_prediction"]["rho_lfa"] > 0
    print(f"ok  {workload:18s} trace={trace}  "
          f"{op['median']:.3f} s/solve  attempted={result['attempted']}")


def check_missing_sources(workload):
    """In a directory with only the benchmark, the run must fail cleanly."""
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "benchmarks").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in BENCH.glob("*.py"):
        shutil.copy(src, bare / "benchmarks")
    try:
        done = run(workload, 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout.strip() == "", done
    print("ok  fails without the package sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_missing_sources(spec["workloads"][0]["name"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
