"""Where the corrected operator struggles: dispersive (even-order) pairs.

For odd spatial orders the dominant truncation error is dissipative and the
corrected coarse operator works well.  Even orders are dispersive: the
correction uses a first-order, left-biased difference operator (the best of
the simple choices), yet the two-level factors still exceed one at small
CFL numbers, and the factor jumps discontinuously whenever the coarse
semi-Lagrangian stencil re-centers as its step CFL crosses a half-integer.
"""

import numpy as np

from mgrit_advection.experiments import lfa_sweep

points = lfa_sweep("sdirk", 2, "modified", np.linspace(0.0625, 4.0, 64), [16])
print("second-order implicit pair, corrected coarse operator, m=16\n")
print(f"{'c':>8} {'rho':>10}")
previous = None
for pt in points:
    note = ""
    if previous is not None and np.isfinite(pt.rho_lfa) and np.isfinite(previous):
        if abs(pt.rho_lfa - previous) > 0.2:
            note = "  <-- stencil-shift discontinuity"
    if pt.rho_lfa > 1:
        note += "  (diverges)"
    print(f"{pt.c:>8.4f} {pt.rho_lfa:>10.4f}{note}")
    previous = pt.rho_lfa

n_div = sum(1 for pt in points if pt.rho_lfa > 1)
print(f"\n{n_div} of {len(points)} sampled CFL numbers predict divergence")
