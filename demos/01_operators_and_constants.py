"""Discretization operators and their error constants.

Walks through the building blocks: upwind derivative stencils, the one-step
operators they induce under Runge-Kutta integration in time, semi-Lagrangian
interpolation steps, leading truncation-error constants, and the stability
limits of the explicit pairs.  Prints the same numbers the
``mgrit-advection constants`` subcommand emits as CSV.
"""

from mgrit_advection import (CirculantOperator, DiscretizationSpec,
                             StencilWindow, cfl_limit, erk_tableau,
                             error_constant_fd, mol_stepper,
                             rk_error_constant, sdirk_tableau, sl_stepper,
                             upwind_derivative)
from mgrit_advection.stepping import split_cfl


def stencil(stepper):
    """Weights of the physical stencil a stepper's eigenvalues give."""
    return CirculantOperator.from_eigenvalues(stepper.n_x,
                                              stepper.eigenvalues()).weights


print("=== Upwind first-derivative stencils ===")
for p in range(1, 6):
    op = upwind_derivative(p, 64)
    pairs = ", ".join(f"{int(o)}:{w:+.4g}" for o, w in zip(op.offsets, op.weights))
    print(f"  order {p}: {{{pairs}}}")

print("\n=== Leading error constants ===")
print(f"  {'p':>2} {'spatial':>12} {'explicit RK':>12} {'implicit RK':>12}")
for p in range(1, 6):
    print(f"  {p:>2} {error_constant_fd(p):>12.5g} "
          f"{rk_error_constant(erk_tableau(p)):>12.5g} "
          f"{rk_error_constant(sdirk_tableau(p)):>12.5g}")

print("\n=== Stability limits of the explicit pairs ===")
for p in range(1, 6):
    print(f"  order {p}: c_max = {cfl_limit(p):.6f}")

print("\n=== One-step operators ===")
c = 0.7
spec = DiscretizationSpec("erk", 1, c, 32, 8)
w = stencil(mol_stepper(spec))
print(f"  explicit Euler + first-order upwind at c={c}: "
      f"stencil {{-1: {w[0]:.2f}, 0: {w[1]:.2f}}}")

w = stencil(sl_stepper(1, c, 32))
print(f"  first-order semi-Lagrangian at the same step: "
      f"stencil {{-1: {w[0]:.2f}, 0: {w[1]:.2f}}}"
      f"  (identical by construction below the stability limit)")

sl3 = sl_stepper(3, 7.4, 32)
k, eps = split_cfl(7.4)
window = StencilWindow.interpolation(3, eps)
print(f"  cubic semi-Lagrangian with step CFL 7.4: departure shift {-k}, "
      f"fraction {eps:.2f}, window -{window.ell}..{window.r}")
print(f"  max amplification over all modes: {sl3.max_amplification():.12f}"
      "  (never exceeds one at any step size)")
