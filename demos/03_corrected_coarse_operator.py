"""The corrected semi-Lagrangian coarse operator.

A stable coarse step alone is not enough: a plain semi-Lagrangian coarse
operator still corrects characteristic components poorly.  The fix applied
here matches the leading truncation error of m repeated fine steps: take a
semi-Lagrangian step at the coarse step size, then solve
(I - phi D) x = intermediate, where D is a high-order difference operator
and the scalar phi combines the accumulated one-step error constants of the
fine method with the interpolation error of the coarse step.

The script shows the correction coefficient, verifies that the corrected
symbol approaches the repeated fine step at one order higher than the
uncorrected one, and compares predicted two-level convergence factors for
the plain and corrected variants.
"""

from mgrit_advection import (DiscretizationSpec, cfl_limit, erk_tableau,
                             error_constant_fd, modified_coarse_stepper,
                             mol_stepper, phi_coefficient,
                             plain_sl_coarse_stepper, rho_two_level,
                             rk_error_constant)
from mgrit_advection.lfa import default_exclusion_count
from mgrit_advection.stepping import modified_ideal_consistency

p = 3
c = 0.85 * cfl_limit(p)
e_fd = error_constant_fd(p)
e_rk = rk_error_constant(erk_tableau(p))

print(f"=== third-order explicit pair at c = {c:.4f} ===")
print("correction coefficients by coarsening factor and level")
print("(level l steps over F = m**l fine steps, and phi depends on F alone):")
for m in (2, 4, 16):
    phis = [phi_coefficient(p, c, m ** lvl, e_fd, e_rk) for lvl in (1, 2, 3)]
    print(f"  m={m:>2}: level 1..3 -> " + ", ".join(f"{x:+.4f}" for x in phis))

print("\nsymbol distance to the repeated fine step, smallest retained mode:")
spec = DiscretizationSpec("erk", p, c, 64, 64)
slope, diffs = modified_ideal_consistency(spec, 4, [512, 1024, 2048])
print(f"  corrected operator: {[f'{d:.3e}' for d in diffs]}"
      f"  (observed order {slope:.2f}, designed to be at least p+2 = {p+2})")

print("\ntwo-level convergence factors, m=4:")
fine = mol_stepper(spec)
k = default_exclusion_count(p)
for name, coarse in (
        ("plain semi-Lagrangian", plain_sl_coarse_stepper(spec, 4)),
        ("corrected", modified_coarse_stepper(spec, 4))):
    sweep = rho_two_level(fine.symbol, coarse.symbol, 4, 1, n_excluded=k)
    value = "diverges" if sweep.rho_e > 1 else f"{sweep.rho_e:.4f}"
    print(f"  {name:>22}: rho = {value}")
