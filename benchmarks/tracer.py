"""Span tracer for the traced benchmark run.

The wrappers live here, in the benchmark, not in the package: ``install``
replaces the layer entry points named in ``TARGETS`` with timing wrappers and
``uninstall`` puts the originals back.  The package modules resolve these
names through their module globals (or through the class) at call time, so
every call made while the tracer is installed is seen, including calls from
inside the package.

A span records its name, start, end, parent span and a few attributes taken
from the arguments (level, rows).  Spans are kept in memory; ``dump`` writes
them out and ``layer_metrics`` reduces them to the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

#: stencils with at most this many points count as "narrow" (the rolled-sum
#: limit of the package at the time the benchmark was written)
NARROW_POINTS = 16

#: bytes computed per row element of an apply: one float64 read, one written
BYTES_PER_ELEMENT = 8 * 2


def _rows(v):
    v = np.asarray(v)
    return v.size // v.shape[-1] if v.ndim else 1


def _stepper_arg(args, kwargs):
    stepper = kwargs.get("stepper", args[2] if len(args) > 2 else None)
    return {"level": getattr(stepper, "level", 0)}


def _circulant_apply_attrs(args, kwargs):
    op, v = args[0], args[1]
    return {"narrow": len(op.offsets) <= NARROW_POINTS, "rows": _rows(v),
            "n_x": op.n_x}


def _stepper_apply_attrs(args, kwargs):
    return {"level": getattr(args[0], "level", 0), "rows": _rows(args[1])}


def _lfa_samples(result):
    return {"samples": int(np.asarray(result.omega).size)}


# (module, qualified attribute, span name, attrs at entry, attrs from result)
TARGETS = [
    ("circulant", "CirculantOperator.apply", "circulant.apply",
     _circulant_apply_attrs, None),
    ("circulant", "CirculantOperator.symbol", "circulant.symbol", None, None),
] + [
    ("circulant", f"CirculantOperator.{attr}", "circulant.build", None, None)
    for attr in ("__init__", "from_arrays", "from_eigenvalues", "identity",
                 "shift", "compose", "add", "scale", "power")
] + [
    ("stencils", name, "stencils", None, None)
    for name in ("fd_weights", "lagrange_weights", "upwind_derivative",
                 "high_derivative_operator", "f_poly")
] + [
    ("stepping", "Stepper.apply", "stepping.apply", _stepper_apply_attrs, None),
    ("stepping", "stability_function", "stepping.stability_function",
     None, None),
    ("stepping", "cfl_limit", "stepping.cfl_limit", None, None),
] + [
    ("stepping", name, "stepping.build", None, None)
    for name in ("mol_stepper", "sl_stepper", "modified_coarse_stepper",
                 "rediscretized_coarse_stepper", "ideal_coarse_stepper",
                 "plain_sl_coarse_stepper")
] + [
    ("mgrit", "f_relax", "mgrit.f_relax", _stepper_arg, None),
    ("mgrit", "c_relax", "mgrit.c_relax", _stepper_arg, None),
    ("mgrit", "restrict_residual", "mgrit.restrict", _stepper_arg, None),
    ("mgrit", "cpoint_residual_norm", "mgrit.residual_norm", None, None),
    ("lfa", "rho_two_level", "lfa.rho_two_level", None, _lfa_samples),
    ("experiments", "build_problem", "experiments.build_problem", None, None),
    ("experiments", "lfa_sweep", "experiments.lfa_sweep", None, None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "phase", "attrs")

    def __init__(self, name, start, parent, phase, attrs):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.phase = phase
        self.attrs = attrs


class Tracer:
    """Collects spans while installed; ``phase`` labels the spans it opens."""

    def __init__(self, package):
        self._package = package
        self._modules = [package] + [
            importlib.import_module(f"{package.__name__}.{name}")
            for name in ("circulant", "stencils", "stepping", "mgrit", "lfa",
                         "experiments")]
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -------------------------------------------------------------- wrapping

    def _wrap(self, fn, name, entry_attrs, result_attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = entry_attrs(args, kwargs) if entry_attrs else None
            idx = len(spans)
            span = Span(name, 0.0, stack[-1] if stack else -1, self.phase, attrs)
            spans.append(span)
            stack.append(idx)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if result_attrs:
                span.attrs = {**(span.attrs or {}), **result_attrs(result)}
            return result

        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        self.missing = []
        for module_name, qualname, name, entry, result in TARGETS:
            module = importlib.import_module(
                f"{self._package.__name__}.{module_name}")
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name, None)
                original = None if cls is None else cls.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                if isinstance(original, classmethod):
                    patched = classmethod(
                        self._wrap(original.__func__, name, entry, result))
                else:
                    patched = self._wrap(original, name, entry, result)
                setattr(cls, attr, patched)
                self._undo.append((cls, attr, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            patched = self._wrap(original, name, entry, result)
            # rebind every module global that refers to the function, so
            # ``from .x import f`` copies resolve to the wrapper too
            for mod in self._modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, patched)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- reduction

    def dump(self, path):
        """Write every span as [name, start, end, parent, phase, attrs]."""
        rows = [[s.name, s.start, s.end, s.parent, s.phase, s.attrs]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_s", "end_s", "parent",
                                   "phase", "attrs"],
                       "missing_targets": self.missing, "spans": rows}, fh)

    def layer_metrics(self, op_wall_s: float, iterations: int) -> dict:
        """Per-layer counts and times.

        Self time is a span's duration minus the durations of its child
        spans.  Counts and self times cover the traced set-up (cold
        ``cfl_limit``, ``build_problem``) and the one traced operation;
        ``trace.*`` accounts the operation alone: its wall time equals the
        summed self time of its spans plus ``trace.unattributed_s``, the time
        spent outside every wrapped call.
        """
        spans = self.spans
        n = len(spans)
        child = [0.0] * n
        root = [0] * n
        for i, s in enumerate(spans):
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
                root[i] = root[s.parent]
            else:
                root[i] = i
        out: dict = defaultdict(int)
        op_roots = 0.0
        op_self = 0.0
        cycle_rows = 0
        cfl_cold = None
        for i, s in enumerate(spans):
            dur = s.end - s.start
            self_s = dur - child[i]
            a = s.attrs or {}
            under_norm = spans[root[i]].name == "mgrit.residual_norm"
            if s.phase == "op":
                op_self += self_s
                if s.parent < 0:
                    op_roots += dur
            name = s.name
            if name == "circulant.apply":
                kind = "narrow" if a["narrow"] else "wide"
                out[f"circulant.apply.{kind}.calls"] += 1
                out[f"circulant.apply.{kind}.rows"] += a["rows"]
                out[f"circulant.apply.{kind}.self_s"] += self_s
                out["circulant.apply.bytes_computed"] += (
                    a["rows"] * a["n_x"] * BYTES_PER_ELEMENT)
            elif name == "circulant.symbol":
                out["circulant.symbol.calls"] += 1
                out["circulant.symbol.self_s"] += self_s
            elif name == "circulant.build":
                if s.parent < 0 or spans[s.parent].name != "circulant.build":
                    out["circulant.build.calls"] += 1
                out["circulant.build.self_s"] += self_s
            elif name == "stencils":
                out["stencils.self_s"] += self_s
            elif name == "stepping.apply":
                lvl = a["level"]
                out[f"stepping.apply.L{lvl}.calls"] += 1
                out[f"stepping.apply.L{lvl}.rows"] += a["rows"]
                out[f"stepping.apply.L{lvl}.self_s"] += self_s
                if s.phase == "op":
                    if not under_norm:
                        cycle_rows += a["rows"]
                    if s.parent < 0:
                        out["mgrit.coarse_solve_s"] += dur
            elif name == "stepping.build":
                out["stepping.build.self_s"] += self_s
            elif name == "stepping.stability_function":
                out["stepping.stability_function.calls"] += 1
                out["stepping.stability_function.self_s"] += self_s
            elif name == "stepping.cfl_limit":
                if cfl_cold is None:
                    cfl_cold = dur
            elif name in ("mgrit.f_relax", "mgrit.c_relax"):
                out[f"mgrit.L{a['level']}.{name[6:]}_s"] += dur
            elif name == "mgrit.restrict":
                if not under_norm:
                    out[f"mgrit.L{a['level']}.restrict_s"] += dur
            elif name == "mgrit.residual_norm":
                out["mgrit.residual_norm_s"] += dur
            elif name == "lfa.rho_two_level":
                out["lfa.rho_two_level.calls"] += 1
                out["lfa.rho_two_level.self_s"] += self_s
                out["lfa.samples"] += a["samples"]
            elif name == "experiments.build_problem":
                out["experiments.build_problem_s"] += dur
            elif name == "experiments.lfa_sweep":
                out["experiments.lfa_sweep_s"] += dur
        out["stepping.cfl_limit_cold_s"] = cfl_cold or 0.0
        out["mgrit.rows_per_cycle"] = cycle_rows / iterations if iterations else 0
        out["trace.self_total_s"] = op_self
        out["trace.unattributed_s"] = op_wall_s - op_roots
        out["trace.spans"] = n
        return dict(out)
