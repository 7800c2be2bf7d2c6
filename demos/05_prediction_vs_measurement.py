"""Mode analysis predictions against measured convergence factors.

The two-level worst-case factor computed from the stepper symbols is an
infinite-grid prediction.  This script runs the actual solver on a moderate
space-time grid for a spread of configurations and compares the effective
per-iteration residual reduction of the final iteration with the
prediction.  Agreement within a few percent (or an absolute 0.1 for tiny
factors) is typical; predicted-divergent cases fail to converge.

The finite-grid column is ``predict_history``: the same two-level iteration
worked out mode by mode from the symbols and the run's initial iterate, with
the finite number of coarse intervals.  It touches no solver code, and its
final-iteration factor matches the measured one to rounding, so where the
measured factor sits below the infinite-grid one, the difference comes from
the modes the iterate holds and the finite time grid, not from the solver.
"""

import warnings

from mgrit_advection import (DiscretizationSpec, MgritConfig, MgritSolver,
                             StabilityWarning, cfl_limit, predict_history,
                             rho_two_level)
from mgrit_advection.experiments import build_problem
from mgrit_advection.lfa import default_exclusion_count

POINTS = [
    ("sdirk", 1, "rediscretized", 1.0, 2),
    ("sdirk", 1, "rediscretized", 4.0, 4),
    ("erk", 1, "modified", 0.85 * cfl_limit(1), 4),
    ("erk", 3, "modified", 0.85 * cfl_limit(3), 4),
    ("sdirk", 3, "modified", 5.0, 16),
    ("sdirk", 3, "rediscretized", 5.0, 16),  # divergent
]

n_x, n_t = 256, 1024
config = MgritConfig(nu=1, max_iters=30, rng_seed=0)
print(f"grid {n_x} x {n_t}, one CF-relaxation sweep\n")
print(f"{'configuration':>38} {'predicted':>10} {'finite-grid':>12} "
      f"{'measured':>10} {'iters':>6}")
for family, p, kind, c, m in POINTS:
    spec = DiscretizationSpec(family, p, c, n_x, n_t)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        problem = build_problem(spec, m, "two_level", kind)
    fine, coarse = problem.steppers
    sweep = rho_two_level(fine.symbol, coarse.symbol, m, 1,
                          n_excluded=default_exclusion_count(p))
    solver = MgritSolver(problem, config)
    u = solver.initial_state()
    u_c = u[::m].copy()
    report = solver.solve(u)
    history = predict_history(fine.symbol, coarse.symbol, m, config.nu, u_c,
                              report.iterations)
    finite = history[-1] / history[-2]
    label = f"{family}{p} {kind} m={m} c={c:.3g}"
    predicted = "div" if sweep.rho_e > 1 else f"{sweep.rho_e:.4f}"
    norms = report.residual_norms
    if report.converged:
        measured = f"{report.effective_rho:.4f}"
    elif max(norms) > norms[0]:
        # the last ratio of a divergent history that the finite time grid
        # cut short reads small; say it diverged instead
        measured = "div*"
    else:
        measured = f"{report.effective_rho:.3f}*"
    print(f"{label:>38} {predicted:>10} {finite:>12.4f} {measured:>10} "
          f"{report.iterations:>6}")
print("\n(* iteration cap reached before the ten-order reduction; div*: the"
      "\n residual rose above its initial value, last ratio not shown)")
