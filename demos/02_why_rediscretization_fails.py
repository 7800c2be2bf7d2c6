"""Why naive coarse grids stall: characteristic components.

Rebuilding the same implicit discretization with an m-times larger step is
the standard multigrid-in-time coarse operator.  For advection it cannot be
robust: space-time modes aligned with the characteristics receive almost no
correction, and a closed-form lower bound on the two-level convergence
factor quantifies the damage.  This script sweeps the CFL number for the
first- and third-order implicit pairs and prints the predicted factor, the
lower bound, and a measured run, mirroring the ``sweep`` subcommand with
``--coarse rediscretized``.
"""

from mgrit_advection import (DiscretizationSpec, MgritConfig, error_constant_fd,
                             mol_stepper, rediscretized_coarse_stepper,
                             rho_check, rho_two_level, rk_error_constant,
                             sdirk_tableau)
from mgrit_advection.experiments import measured_point
from mgrit_advection.lfa import default_exclusion_count

for p in (1, 3):
    tab = sdirk_tableau(p)
    e_rk = rk_error_constant(tab)
    e_fd = error_constant_fd(p)
    print(f"=== order {p} implicit pair, rediscretized coarse grid, m=16 ===")
    print(f"  {'c':>6} {'rho (predicted)':>16} {'lower bound':>12}")
    m = 16
    for c in (0.125, 0.5, 1.0, 2.0, 4.0, 8.0):
        spec = DiscretizationSpec("sdirk", p, c, 64, 64)
        fine = mol_stepper(spec)
        coarse = rediscretized_coarse_stepper(spec, m)
        sweep = rho_two_level(fine.symbol, coarse.symbol, m, 1,
                              n_excluded=default_exclusion_count(p))
        bound = rho_check(p, c, m, e_rk, e_fd)
        marker = "  <-- diverges" if sweep.rho_e > 1 else ""
        print(f"  {c:>6.3f} {sweep.rho_e:>16.4f} {bound:>12.4f}{marker}")
    asym = abs(1 - m ** (-p))
    print(f"  large-step limit of the bound: |1 - m^-p| = {asym:.4f}")
    print()

print("=== a measured run in the divergent region ===")
report = measured_point("sdirk", 3, "rediscretized", 5.0, 16, 256, 4096,
                        MgritConfig(nu=1, max_iters=15, rng_seed=0))
print(f"  third-order, c=5, m=16 on a 256 x 4096 grid: "
      f"converged={report.converged}, "
      f"residual grew by {report.effective_rho:.2f} per iteration")
