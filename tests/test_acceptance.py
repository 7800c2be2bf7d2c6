"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The iteration-count and measured-factor criteria run
real solves on grids up to 1024 x 4096 and take a few minutes.
"""

import math
import time

import numpy as np
import pytest

from mgrit_advection import (DiscretizationSpec, MgritConfig,
                             cfl_limit, erk_tableau, error_constant_fd,
                             ideal_coarse_stepper, mol_stepper,
                             rediscretized_coarse_stepper,
                             rho_check, rho_two_level, rk_error_constant,
                             sdirk_tableau, solve)
from mgrit_advection import experiments, lfa, mgrit, stepping


def report(criterion, passed, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    return passed


def sig4(value, reference):
    scale = 10.0 ** math.floor(math.log10(abs(reference)))
    return abs(value - reference) < 0.5e-3 * scale


# ---------------------------------------------------------------- criterion 1

TABLE_E_FD = {1: 5e-1, 2: 3.3333e-1, 3: -8.3333e-2, 4: -5e-2, 5: 1.6667e-2}
TABLE_E_RK_ERK = {1: -5e-1, 2: -1.6667e-1, 3: -4.1667e-2, 4: -8.3333e-3,
                  5: -6.0764e-4}
TABLE_E_RK_SDIRK = {1: 5e-1, 2: 4.0440e-2, 3: -2.5897e-2, 4: -8.4635e-4,
                    5: 5.3005e-4}


def test_criterion_01_error_constants():
    start = time.perf_counter()
    ok = True
    for p in range(1, 6):
        ok &= sig4(error_constant_fd(p), TABLE_E_FD[p])
        ok &= sig4(rk_error_constant(erk_tableau(p)), TABLE_E_RK_ERK[p])
        ok &= sig4(rk_error_constant(sdirk_tableau(p)), TABLE_E_RK_SDIRK[p])
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    assert report("1 (error constants, 4 significant digits)", ok,
                  f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

TABLE_CMAX = {1: 1.0, 2: 0.5, 3: 1.62589, 4: 1.04449, 5: 1.96583}


def test_criterion_02_cfl_limits():
    start = time.perf_counter()
    values = {p: cfl_limit(p) for p in range(1, 6)}
    elapsed = time.perf_counter() - start
    ok = all(sig4(values[p], TABLE_CMAX[p]) for p in range(1, 6))
    ok &= elapsed < 10.0
    assert report("2 (stability limits, 4 significant digits)", ok,
                  ", ".join(f"{v:.5f}" for v in values.values())
                  + f"; {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 3

TABLE3 = {
    ("erk", 64, 256): {2: (13, 14), 4: (12, 13), 8: (11, 11), 16: (9, 9)},
    ("erk", 256, 1024): {2: (14, 15), 4: (13, 14), 8: (12, 13), 16: (11, 12)},
    ("erk", 1024, 4096): {2: (14, 15), 4: (14, 14), 8: (12, 13), 16: (12, 12)},
    ("sdirk", 64, 256): {2: (28, 28), 4: (21, 21), 8: (15, 15), 16: (9, 9)},
    ("sdirk", 256, 1024): {2: (29, 29), 4: (25, 25), 8: (20, 20), 16: (16, 16)},
    ("sdirk", 1024, 4096): {2: (30, 30), 4: (25, 25), 8: (21, 21), 16: (18, 18)},
}


def test_criterion_03_iteration_counts():
    c_erk = 0.85 * cfl_limit(3)
    failures = []
    results = {}
    for family in ("erk", "sdirk"):
        c = c_erk if family == "erk" else 5.0
        for n_x, n_t in ((64, 256), (256, 1024), (1024, 4096)):
            cells = experiments.iteration_table(
                family, 3, c, (n_x, n_t), [2, 4, 8, 16],
                config=MgritConfig(max_iters=40))
            for cell in cells:
                want_tl, want_v = TABLE3[(family, n_x, n_t)][cell.m]
                got_tl = int(cell.iters_two_level.lstrip(">"))
                got_v = int(cell.iters_v_cycle.lstrip(">"))
                results[(family, n_x, cell.m)] = (got_tl, got_v)
                if abs(got_tl - want_tl) > 2 or abs(got_v - want_v) > 2:
                    failures.append(
                        f"{family}3 {n_x}x{n_t} m={cell.m}: "
                        f"{got_tl}({got_v}) vs {want_tl}({want_v})")
    assert report("3 (iteration counts within +/-2 on 24 cells)",
                  not failures, "; ".join(failures) or "all cells in range")


# ---------------------------------------------------------------- criterion 4

def test_criterion_04_ideal_operator_single_iteration():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    ok = True
    for trial in range(10):
        family = rng.choice(["erk", "sdirk"])
        p = int(rng.integers(1, 6))
        m = int(rng.choice([2, 4, 8]))
        n_x = int(rng.choice([16, 32]))
        n_t = m * int(rng.integers(2, 9))
        c = (float(rng.uniform(0.2, 0.9)) * cfl_limit(p)
             if family == "erk" else float(rng.uniform(0.3, 4.0)))
        nu = int(rng.integers(0, 3))
        spec = DiscretizationSpec(family, p, c, n_x, n_t)
        fine = mol_stepper(spec)
        problem = mgrit.TimeGridProblem(
            [fine, ideal_coarse_stepper(fine, m)], [m], n_t,
            mgrit.initial_condition(n_x))
        rep = solve(problem, MgritConfig(nu=nu, max_iters=4,
                                         rng_seed=int(rng.integers(1 << 16))))
        if not (rep.converged and rep.iterations == 1):
            ok = False
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert report("4 (exact coarse operator: one iteration, 10 random configs)",
                  ok, f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 5

MEASURED_POINTS = [
    # (family, p, coarse kind, c or c-fraction, m)
    ("sdirk", 1, "rediscretized", 1.0, 2),
    ("sdirk", 1, "rediscretized", 4.0, 4),
    ("sdirk", 3, "rediscretized", 0.5, 2),
    ("sdirk", 3, "rediscretized", 5.0, 16),   # divergent region
    ("erk", 1, "modified", 0.85, 4),
    ("erk", 1, "modified", 0.85, 16),
    ("erk", 3, "modified", 0.85, 4),
    ("erk", 5, "modified", 0.50, 2),
    ("sdirk", 1, "modified", 2.0, 8),
    ("sdirk", 1, "modified", 8.0, 16),
    ("sdirk", 3, "modified", 5.0, 16),
    ("sdirk", 5, "modified", 1.0, 4),
]


def test_criterion_05_lfa_matches_measured_factors():
    n_x, n_t = 1024, 4096
    failures = []
    for family, p, kind, c_raw, m in MEASURED_POINTS:
        c = c_raw * cfl_limit(p) if family == "erk" else c_raw
        spec = DiscretizationSpec(family, p, c, n_x, n_t)
        fine = experiments.fine_stepper(spec)
        coarse = experiments.coarse_stepper(kind, spec, m)
        sweep = rho_two_level(fine.symbol, coarse.symbol, m, 1,
                              n_excluded=lfa.default_exclusion_count(p))
        rep = experiments.measured_point(
            family, p, kind, c, m, n_x, n_t,
            mgrit.MgritConfig(nu=1, max_iters=30, rng_seed=0))
        label = f"{family}{p}/{kind} m={m} c={c:.3g}"
        if sweep.rho_e >= 1.0 or not math.isfinite(sweep.rho_e):
            if rep.converged and rep.effective_rho <= 1.0:
                failures.append(f"{label}: predicted divergent, measured "
                                f"converged rho={rep.effective_rho:.3f}")
        else:
            err = abs(rep.effective_rho - sweep.rho_e)
            if err > max(0.1, 0.15 * sweep.rho_e):
                failures.append(f"{label}: measured {rep.effective_rho:.3f} "
                                f"vs predicted {sweep.rho_e:.3f}")
    assert report("5 (measured factors track two-level predictions, 12 points)",
                  not failures, "; ".join(failures) or "12 points in range")


# ---------------------------------------------------------------- criterion 6

def test_criterion_06_characteristic_lower_bound():
    start = time.perf_counter()
    failures = []
    for p in (1, 3):
        tab = sdirk_tableau(p)
        e_rk = rk_error_constant(tab)
        e_fd = error_constant_fd(p)
        k_excl = lfa.default_exclusion_count(p)
        for m in (2, 16):
            c_grid = np.linspace(0.125, 8.0, 64)
            for c in c_grid:
                spec = DiscretizationSpec("sdirk", p, float(c), 64, 64)
                fine = mol_stepper(spec)
                coarse = rediscretized_coarse_stepper(spec, m)
                sweep = rho_two_level(fine.symbol, coarse.symbol, m, 1,
                                      n_excluded=k_excl)
                bound = rho_check(p, float(c), m, e_rk, e_fd)
                if sweep.rho_e < 0.95 * bound:
                    failures.append(f"p={p} m={m} c={c:.3g}: rho "
                                    f"{sweep.rho_e:.4f} < bound {bound:.4f}")
                if m * c < 1.0 and bound < 0.9 * sweep.rho_e:
                    failures.append(f"p={p} m={m} c={c:.3g}: bound not tight")
            asym = rho_check(p, 1e3 / m, m, e_rk, e_fd)
            target = abs(1.0 - m ** (-p))
            if abs(asym - target) > 0.02 * target:
                failures.append(f"p={p} m={m}: asymptote {asym:.4f} vs "
                                f"{target:.4f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report("6 (characteristic lower bound: holds, tight at small "
                  "coarse CFL, correct asymptote)", ok,
                  "; ".join(failures) or f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 7

def test_criterion_07_order_validation():
    start = time.perf_counter()
    failures = []
    meshes = [64, 128, 256, 512]
    for p in range(1, 6):
        c_erk = 0.7 * cfl_limit(p)
        for family, c in (("erk", c_erk), ("sdirk", 0.8),
                          ("semi_lagrangian", 0.7)):
            slope, _ = stepping.global_error_order(family, p, c, meshes)
            if abs(slope - p) > 0.15:
                failures.append(f"{family}{p}: order {slope:.3f}")
        trunc_meshes = [n for n in (24, 32, 48, 64) if n > 4 * p]
        for family, c in (("erk", c_erk), ("sdirk", 0.8),
                          ("semi_lagrangian", 1.6)):
            rep = stepping.truncation_residual(family, p, c, trunc_meshes)
            ratio = rep.fitted_constants[-1] / rep.predicted_constant
            if abs(ratio - 1.0) > 0.05:
                failures.append(f"{family}{p}: constant ratio {ratio:.3f}")
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    assert report("7 (orders within 0.15, leading constants within 5 percent)",
                  ok, "; ".join(failures) or f"{elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 8

def test_criterion_08_corrected_operator_consistency_order():
    failures = []
    cases = [("erk", 1), ("erk", 3), ("sdirk", 1), ("sdirk", 3)]
    for family, p in cases:
        for m, cfac in ((2, 0.4), (8, 0.7)):
            c = cfac * cfl_limit(p) if family == "erk" else cfac * 4.0
            spec = DiscretizationSpec(family, p, c, 64, 64)
            slope, diffs = stepping.modified_ideal_consistency(
                spec, m, [512, 1024, 2048])
            if slope < p + 2 - 0.25:
                failures.append(f"{family}{p} m={m}: order {slope:.2f}")
    assert report("8 (corrected coarse symbol matches repeated fine step at "
                  "order p+2)", not failures,
                  "; ".join(failures) or "8 configurations")


# ---------------------------------------------------------------- criterion 9

def test_criterion_09_dispersive_implicit_second_order():
    points = experiments.lfa_sweep("sdirk", 2, "modified",
                                   np.linspace(0.03125, 8.0, 256), [16],
                                   MgritConfig(nu=1))
    rhos = np.array([pt.rho_lfa for pt in points])
    cs = np.array([pt.c for pt in points])
    small_c_divergent = bool(np.any(rhos[cs <= 2.0] > 1.0))
    finite = np.isfinite(rhos)
    jumps = np.abs(np.diff(np.where(finite, rhos, np.nan)))
    has_jumps = bool(np.nanmax(jumps) > 0.2)
    ok = small_c_divergent and has_jumps
    assert report("9 (dispersive second-order implicit pair: divergence at "
                  "small CFL, stencil-shift discontinuities)", ok,
                  f"max adjacent jump {np.nanmax(jumps):.2f}")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_threaded_v_cycle_schedule_independence():
    spec = DiscretizationSpec("erk", 1, 0.85 * cfl_limit(1), 256, 1024)
    problem = experiments.build_problem(spec, 4, "v_cycle", "modified")
    config = MgritConfig(nu=1, cycle="v_cycle", max_iters=30, rng_seed=0)
    serial = solve(problem, config, threads=1)
    threaded = solve(problem, config, threads=4)
    ok = (serial.iterations == threaded.iterations and serial.converged
          and threaded.converged)
    assert report("10 (4-thread v-cycle run: identical iteration counts; "
                  "wall clock measured)", ok,
                  f"serial {serial.wall_time:.2f}s vs "
                  f"threaded {threaded.wall_time:.2f}s, "
                  f"{serial.iterations} iterations each")
