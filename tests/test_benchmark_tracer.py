"""The benchmark's span tracer (``benchmarks/tracer.py``) wraps every entry
point it names in the package, and puts every original back."""

import importlib.util
import sys
from pathlib import Path

import mgrit_advection
from mgrit_advection import mgrit, stepping

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_finds_every_target_and_restores_them(monkeypatch):
    # load the benchmark's module without writing its bytecode cache
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    apply, f_relax = stepping.Stepper.__dict__["apply"], mgrit.f_relax
    tracer = module.Tracer(mgrit_advection)
    tracer.install()
    try:
        assert tracer.missing == []
        assert stepping.Stepper.__dict__["apply"] is not apply
        assert mgrit.f_relax is not f_relax
    finally:
        tracer.uninstall()
    assert stepping.Stepper.__dict__["apply"] is apply
    assert mgrit.f_relax is f_relax
