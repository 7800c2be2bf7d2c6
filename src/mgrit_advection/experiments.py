"""Experiment drivers: hierarchy assembly and the study suites.

These helpers glue the steppers, the MGRIT solver, and the mode analysis into
the studies the command-line tool exposes: error-constant tables, stability
limits, convergence-factor sweeps over CFL numbers, iteration-count tables,
and the discretization-order validation suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

import numpy as np

from . import lfa, mgrit, stepping
from .errors import StabilityWarning
from .stepping import (DiscretizationSpec, Stepper,
                       cfl_limit, error_constant_fd, fine_stepper,
                       ideal_coarse_stepper, modified_coarse_stepper,
                       mol_stepper, plain_sl_coarse_stepper,
                       rediscretized_coarse_stepper, rk_error_constant,
                       tableau)

COARSE_KINDS = ("modified", "rediscretized", "plain_sl", "ideal")


def coarse_stepper(kind: str, spec: DiscretizationSpec, F: int,
                   solver: str = "direct") -> Stepper:
    """Coarse stepper of ``kind`` whose one step covers F fine steps (the
    product of the coarsening factors down to its level).  The ideal and
    rediscretized kinds are two-level constructions: ``build_problem`` only
    builds them on level 1."""
    if kind == "modified":
        return modified_coarse_stepper(spec, F, solver=solver)
    if kind == "rediscretized":
        return rediscretized_coarse_stepper(spec, F)
    if kind == "plain_sl":
        return plain_sl_coarse_stepper(spec, F)
    if kind == "ideal":
        return ideal_coarse_stepper(fine_stepper(spec), F)
    raise ValueError(f"unknown coarse kind {kind!r}")


def build_problem(spec: DiscretizationSpec, m, cycle: str,
                  coarse_kind: str = "modified") -> mgrit.TimeGridProblem:
    """Assemble the level hierarchy for one MGRIT run.

    ``m`` is a single coarsening factor or a per-level sequence: a two-level
    hierarchy uses its first entry, and a v-cycle adds levels while the
    steps divide, repeating the last entry.  Coarse level l is built from
    its cumulative factor F = m_1 ... m_l, the fine steps one of its steps
    covers (``coarse_stepper``); ``mgrit.TimeGridProblem`` labels each
    stepper with its level.  A first factor that does not divide ``n_t``
    raises ValueError for either cycle.  Implicit-correction solves are direct
    except on multilevel explicit hierarchies, where every coarse level uses
    capped GMRES (``stepping.CAPPED_TOL``, ``stepping.capped_max_iters(p)``);
    in the Fourier basis of ``mgrit.solve`` that GMRES runs as spectral
    MINRES for odd p, whose correction is symmetric.

    Coarse levels are built first, with the diagonals they step by (a capped
    level builds its two itself).  Once every level is built, an explicit
    fine grid beyond its stability limit warns, once (``StabilityWarning``).
    """
    m_list = [m] if np.isscalar(m) else list(m)
    if not m_list or any(mf < 2 for mf in m_list):
        raise ValueError(f"coarsening factors must be >= 2, got {m_list}")
    if cycle == "two_level" or coarse_kind in ("ideal", "rediscretized"):
        # ideal and rediscretized operators are two-level constructions; a
        # v-cycle request degenerates to the two-level hierarchy
        factors = m_list[:1]
    else:
        # n_t >= 1 and factors >= 2: n shrinks on each pass until one fails
        factors = []
        n = spec.n_t
        while True:
            mf = m_list[min(len(factors), len(m_list) - 1)]
            if n % mf != 0:
                break
            factors.append(mf)
            n //= mf
        # a first factor that does not divide n_t: kept for TimeGridProblem
        # to reject
        factors = factors or m_list[:1]
    solver = "gmres" if (spec.family == "erk" and cycle == "v_cycle"
                         and coarse_kind == "modified") else "direct"
    coarse = []
    F = 1
    for mf in factors:
        F *= mf
        coarse.append(coarse_stepper(coarse_kind, spec, F, solver=solver))
        if solver == "direct":
            coarse[-1].basis_diagonal()
    fine = fine_stepper(spec)
    fine.basis_diagonal()
    u0 = mgrit.initial_condition(spec.n_x)
    problem = mgrit.TimeGridProblem([fine] + coarse, factors, spec.n_t, u0)
    limit = cfl_limit(spec.p) if spec.family == "erk" else np.inf
    if spec.c > limit * (1.0 + 1e-9):
        warnings.warn(f"CFL number {spec.c:.6g} exceeds the stability limit "
                      f"{limit:.6g} for {spec.tableau().name}+U{spec.p}",
                      StabilityWarning)
    return problem


# ------------------------------------------------------------------ constants

def constants_rows() -> List[dict]:
    """Error constants of the shipped discretizations plus stability limits."""
    rows = []
    for p in range(1, 6):
        rows.append({"quantity": "e_fd", "scheme": f"U{p}", "order": p,
                     "value": error_constant_fd(p)})
    for family in ("erk", "sdirk"):
        for q in range(1, 6):
            tab = tableau(family, q)
            rows.append({"quantity": "e_rk", "scheme": tab.name, "order": q,
                         "value": rk_error_constant(tab)})
    for p in range(1, 6):
        rows.append({"quantity": "c_max", "scheme": f"ERK{p}+U{p}", "order": p,
                     "value": cfl_limit(p)})
    return rows


# --------------------------------------------------------------------- sweeps

@dataclass
class SweepPoint:
    """One (c, m) point of a sweep.  ``divergent`` means rho_lfa >= 1;
    ``coarse_unstable`` means |mu| >= 1 at some sample, where rho_lfa is
    infinite, so it implies ``divergent``."""

    c: float
    m: int
    rho_lfa: float
    divergent: bool
    coarse_unstable: bool
    rho_bound: Optional[float] = None
    rho_measured: Optional[float] = None
    measured_converged: Optional[bool] = None
    measured_iters: Optional[int] = None


def lfa_sweep(family: str, p: int, coarse_kind: str, c_values: Sequence[float],
              m_values: Sequence[int], config: Optional[mgrit.MgritConfig] = None,
              n_samples: int = 2 ** 11, n_excluded: Optional[int] = None,
              measure_grid: Optional[tuple] = None,
              threads: int = 1) -> List[SweepPoint]:
    """Two-level convergence factors over a CFL sweep, one point per (c, m).

    Rediscretized coarse grids of odd order also get the characteristic
    lower bound.  ``config`` (default ``MgritConfig()``) sets the iteration
    controls: its ``nu`` for the prediction, and all of them, cycle aside,
    for the two-level MGRIT run each point gets on ``measure_grid = (n_x,
    n_t)``, which records the effective factor of the final iteration.
    With ``threads`` > 1 the points run on a thread pool, each solve
    serially, and come back in sweep order.

    Only a measured solve past the stability limit can warn
    (``build_problem``), so ``StabilityWarning`` is silenced for the whole
    sweep.  The filter is set once in the calling thread: ``catch_warnings``
    is not thread-safe, so worker threads never touch the filters.
    """
    k_excl = lfa.default_exclusion_count(p) if n_excluded is None else n_excluded
    cfg = replace(config or mgrit.MgritConfig(), cycle="two_level")

    def sweep_point(c, m):
        spec = DiscretizationSpec(family, p, float(c), 64, 64)
        fine = fine_stepper(spec)
        coarse = coarse_stepper(coarse_kind, spec, m)
        sweep = lfa.rho_two_level(fine.symbol, coarse.symbol, m, cfg.nu,
                                  n_samples, k_excl)
        point = SweepPoint(float(c), int(m), sweep.rho_e, sweep.rho_e >= 1.0,
                           sweep.divergent)
        if coarse_kind == "rediscretized" and p % 2 == 1:
            point.rho_bound = lfa.rho_check(p, float(c), m,
                                            rk_error_constant(spec.tableau()),
                                            error_constant_fd(p))
        if measure_grid is not None:
            n_x, n_t = measure_grid
            report = measured_point(family, p, coarse_kind, float(c), m,
                                    n_x, n_t, cfg)
            point.rho_measured = report.effective_rho
            point.measured_converged = report.converged
            point.measured_iters = report.iterations
        return point

    grid = [(c, m) for c in c_values for m in m_values]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        if threads <= 1 or len(grid) == 1:
            return [sweep_point(c, m) for c, m in grid]
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(threads) as pool:
            return list(pool.map(sweep_point, *zip(*grid)))


def measured_point(family: str, p: int, coarse_kind: str, c: float, m: int,
                   n_x: int, n_t: int,
                   config: Optional[mgrit.MgritConfig] = None
                   ) -> mgrit.SolveReport:
    """One MGRIT run returning the measured convergence report; its cycle
    is ``config.cycle`` (default ``MgritConfig()``: two-level)."""
    config = config or mgrit.MgritConfig()
    spec = DiscretizationSpec(family, p, c, n_x, n_t)
    problem = build_problem(spec, m, config.cycle, coarse_kind)
    return mgrit.solve(problem, config)


# ------------------------------------------------------------ iteration table

@dataclass
class IterationCell:
    n_x: int
    n_t: int
    m: int
    iters_two_level: str
    iters_v_cycle: str


def iteration_table(family: str, p: int, c: float, grid: tuple,
                    m_values: Sequence[int], coarse_kind: str = "modified",
                    config: Optional[mgrit.MgritConfig] = None,
                    threads: int = 1) -> List[IterationCell]:
    """Two-level and V-cycle iteration counts on the ``grid = (n_x, n_t)``,
    one cell per coarsening factor.  ``config`` (default
    ``MgritConfig(max_iters=40)``: a drop by ten orders within 40 cycles)
    holds the iteration controls; each column runs it under its own cycle.
    Every hierarchy is built before the first solve, the V-cycles first, so a
    hierarchy that cannot be built fails before any other has warned."""
    config = config or mgrit.MgritConfig(max_iters=40)
    spec = DiscretizationSpec(family, p, c, *grid)
    problems = {cycle: [build_problem(spec, m, cycle, coarse_kind)
                        for m in m_values]
                for cycle in ("v_cycle", "two_level")}
    cells = []
    for i, m in enumerate(m_values):
        iters = []
        for cycle in ("two_level", "v_cycle"):
            report = mgrit.solve(problems[cycle][i],
                                 replace(config, cycle=cycle), threads=threads)
            iters.append(str(report.iterations) if report.converged
                         else f">{config.max_iters}")
        cells.append(IterationCell(spec.n_x, spec.n_t, m, *iters))
    return cells


# ------------------------------------------------------------------ validation

@dataclass
class ValidationRow:
    check: str
    subject: str
    observed: float
    expected: float
    tolerance: float
    passed: bool


def _row(check, subject, observed, expected, tol, compare="abs") -> ValidationRow:
    if compare == "abs":
        ok = abs(observed - expected) <= tol
    elif compare == "rel":
        ok = abs(observed - expected) <= tol * abs(expected)
    else:  # "min": observed must be at least expected - tol
        ok = observed >= expected - tol
    return ValidationRow(check, subject, float(observed), float(expected),
                         float(tol), bool(ok))


def validation_rows() -> List[ValidationRow]:
    """Order studies, truncation-constant fits, and symbol-estimate checks.

    Covers every shipped discretization order:
    global orders on 64- to 512-point meshes for the method-of-lines and
    semi-Lagrangian steppers, fitted leading-error constants against their
    closed forms, smooth-mode eigenvalue estimates, and the
    corrected-coarse-operator consistency order.
    """
    rows: List[ValidationRow] = []
    orders = (1, 2, 3, 4, 5)
    n_x_list = (64, 128, 256, 512)

    for p in orders:
        c_erk = 0.7 * cfl_limit(p)
        # small meshes keep the p+1st-order one-step residual above rounding
        trunc_meshes = [n for n in (24, 32, 48, 64) if n > 4 * p]
        slope, _ = stepping.global_error_order("erk", p, c_erk, n_x_list)
        rows.append(_row("global_order", f"ERK{p}+U{p}", slope, p, 0.15))
        slope, _ = stepping.global_error_order("sdirk", p, 0.8, n_x_list)
        rows.append(_row("global_order", f"SDIRK{p}+U{p}", slope, p, 0.15))
        slope, _ = stepping.global_error_order("semi_lagrangian", p, 0.7,
                                               n_x_list)
        rows.append(_row("global_order", f"SL{p}", slope, p, 0.15))

        rep = stepping.truncation_residual("erk", p, c_erk, trunc_meshes)
        rows.append(_row("truncation_constant", f"ERK{p}+U{p}",
                         rep.fitted_constants[-1], rep.predicted_constant,
                         0.05, "rel"))
        rep = stepping.truncation_residual("sdirk", p, 0.8, trunc_meshes)
        rows.append(_row("truncation_constant", f"SDIRK{p}+U{p}",
                         rep.fitted_constants[-1], rep.predicted_constant,
                         0.05, "rel"))
        rep = stepping.truncation_residual("semi_lagrangian", p, 1.6,
                                           trunc_meshes)
        rows.append(_row("truncation_constant", f"SL{p} (step CFL 1.6)",
                         rep.fitted_constants[-1], rep.predicted_constant,
                         0.05, "rel"))

    # exactness of a unit-CFL first-order step
    rep = stepping.truncation_residual("erk", 1, 1.0, [64])
    rows.append(_row("unit_cfl_exactness", "ERK1+U1 at c=1",
                     rep.residual_norms[-1], 0.0, 1e-12))

    # measured leading constant of the upwind derivative alone
    for p in orders:
        rows.append(_row("fd_error_constant", f"U{p}",
                         _measured_fd_constant(p, 512), error_constant_fd(p),
                         0.02, "rel"))

    # smooth-mode eigenvalue estimates for odd orders; higher orders need
    # coarser meshes to keep the omega^(p+1) term above rounding noise
    for p in [o for o in orders if o % 2 == 1]:
        estimate_meshes = ([1024, 2048, 4096, 8192] if p < 5
                           else [256, 512, 1024, 2048])
        for family, c in (("erk", 0.5 * cfl_limit(p)), ("sdirk", 1.0)):
            tab = tableau(family, p)
            m = 4

            fine = mol_stepper(DiscretizationSpec(family, p, c, 64, 64))
            coarse = mol_stepper(DiscretizationSpec(family, p, m * c, 64, 64))
            report = lfa.validate_eigenvalue_estimates(
                p, c, m, error_constant_fd(p), rk_error_constant(tab),
                fine.symbol, coarse.symbol, n_x_list=estimate_meshes)
            label = f"{tab.name}+U{p}"
            rows.append(_row("eigenvalue_estimate_order", f"{label} fine",
                             report.fine_order, 1.0, 0.1, "min"))
            rows.append(_row("eigenvalue_estimate_order", f"{label} coarse m={m}",
                             report.coarse_order, 1.0, 0.1, "min"))

    # corrected coarse operator matches the repeated fine step at order p+2
    for p, family in [(1, "erk"), (3, "erk"), (1, "sdirk"), (3, "sdirk")]:
        for m, cfac in ((2, 0.4), (8, 0.7)):
            c = cfac * cfl_limit(p) if family == "erk" else cfac * 4.0
            spec = DiscretizationSpec(family, p, c, 64, 64)
            slope, _ = stepping.modified_ideal_consistency(
                spec, m, [512, 1024, 2048])
            rows.append(_row("modified_vs_ideal_order",
                             f"{family.upper()}{p}+U{p} m={m} c={c:.3g}",
                             slope, p + 2, 0.25, "min"))
    return rows


def _measured_fd_constant(p: int, n_x: int) -> float:
    """Least-squares fit of (v' - L_p v / h) against h^p v^(p+1) for the
    mesh mode v = sin(k x) = Im(z), z_j = exp(i k h j), k = 2 pi: with
    a = i k - L_p(k h) / h and b = h^p (i k)^(p+1), for n_x >= 5 it is
    Re(a conj b) / |b|^2 (see ``stepping.truncation_residual``)."""
    h = stepping.DOMAIN_LENGTH / n_x
    k = 2.0 * np.pi
    a = 1j * k - stepping.upwind_derivative(p, n_x).symbol(k * h) / h
    b = h ** p * (1j * k) ** (p + 1)
    return float((a * b.conjugate()).real / abs(b) ** 2)
