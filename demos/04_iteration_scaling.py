"""Iteration counts across mesh sizes and coarsening factors.

Runs the solver to a ten-order residual reduction for the third-order
explicit and implicit pairs with the corrected coarse operator, on a
sequence of space-time grids, in both two-level and V-cycle form.  The
flat iteration counts under mesh refinement are the scalability headline;
larger coarsening factors converge faster here because the corrected
operator tracks the repeated fine step more closely at larger steps.

Equivalent CLI:  mgrit-advection iters --family erk --p 3 --c-fraction 0.85
                 --coarse modified --m 2,4,8,16 --grid 64,256
"""

from mgrit_advection import cfl_limit
from mgrit_advection.experiments import iteration_table

GRIDS = [(64, 256), (128, 512), (256, 1024)]

for family, c, label in (("erk", 0.85 * cfl_limit(3), "explicit, c=0.85 c_max"),
                         ("sdirk", 5.0, "implicit, c=5")):
    print(f"=== third-order {label}: iterations two_level (v_cycle) ===")
    header = f"  {'grid':>12}" + "".join(f"{f'm={m}':>10}" for m in (2, 4, 8, 16))
    print(header)
    for n_x, n_t in GRIDS:
        cells = iteration_table(family, 3, c, (n_x, n_t), [2, 4, 8, 16])
        row = f"  {n_x:>5}x{n_t:<6}"
        for cell in cells:
            row += f"{cell.iters_two_level + ' (' + cell.iters_v_cycle + ')':>10}"
        print(row)
    print()
