"""The benchmark's workloads: what each one builds, runs and checks.

Every workload runs in one single-threaded process (``threads=1``, BLAS
pinned to one thread).  ``setup`` is the work between process start and
ready-to-solve after the imports: the cold ``cfl_limit`` and
``experiments.build_problem``.  ``run`` is one timed solve and returns what
``check`` needs; ``check`` runs outside the timed region and returns
(attempted, failed, detail) for that solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from mgrit_advection import experiments, mgrit, stepping

#: relative max-norm distance allowed between the MGRIT iterate and the
#: sequential time-stepping solution after a 1e-10 residual drop; measured
#: distances at 1024 x 4096 are below 1e-9
SOLVE_RTOL = 1e-7

#: (n_x, n_t) per size; "small" is the self-test size
GRIDS = {"full": (1024, 4096), "small": (64, 256)}

#: spatial and temporal order of every workload (U3 with ERK3 or SDIRK3)
ORDER = 3


@dataclass(frozen=True)
class SolveWorkload:
    """One MGRIT solve of ERK3/SDIRK3 + U3 with the modified coarse operator.

    ``c`` is the CFL number; with ``c_over_cmax`` it is that share of the
    ERK3+U3 stability limit instead.  The random initial iterate is the only
    input made from the seed (``MgritConfig.rng_seed``).
    """

    family: str
    cycle: str
    m: int
    c: Optional[float] = None
    c_over_cmax: Optional[float] = None

    def setup(self, seed: int, size: str) -> dict:
        c_max = stepping.cfl_limit(ORDER)
        c = self.c if self.c is not None else self.c_over_cmax * c_max
        n_x, n_t = GRIDS[size]
        spec = stepping.DiscretizationSpec(self.family, ORDER, c, n_x, n_t)
        problem = experiments.build_problem(spec, self.m, self.cycle,
                                            "modified")
        config = mgrit.MgritConfig(nu=1, cycle=self.cycle, tol=1e-10,
                                   max_iters=40, rng_seed=seed)
        return {"problem": problem, "config": config, "c": c,
                "levels": problem.n_levels}

    def inputs(self, state: dict) -> np.ndarray:
        return mgrit.MgritSolver(state["problem"], state["config"]).initial_state()

    def run(self, state: dict, u: np.ndarray):
        report = mgrit.solve(state["problem"], state["config"], threads=1,
                             initial_iterate=u)
        return report, u

    def iterations(self, output) -> int:
        return output[0].iterations

    def predict(self, state: dict) -> dict:
        """Two-level LFA prediction for the finest level pair of the solve."""
        point, = experiments.lfa_sweep(self.family, ORDER, "modified",
                                       [state["c"]], [self.m])
        return {"rho_lfa": point.rho_lfa, "divergent": point.divergent}

    def check(self, state: dict, output) -> tuple[int, int, dict]:
        report, u = output
        exact = mgrit.sequential_solve(state["problem"])
        rel = float(np.max(np.abs(u - exact)) / np.max(np.abs(exact)))
        ok = bool(report.converged) and rel <= SOLVE_RTOL
        return 1, 0 if ok else 1, {"converged": bool(report.converged),
                                   "iterations": report.iterations,
                                   "rel_error_vs_sequential": rel,
                                   "rel_tol": SOLVE_RTOL}


WORKLOADS = {
    "sdirk3_two_level": SolveWorkload("sdirk", "two_level", 2, c=5.0),
    "erk3_v_cycle": SolveWorkload("erk", "v_cycle", 4, c_over_cmax=0.85),
}
