"""Multigrid reduction-in-time for 1-D periodic linear advection.

The package is organized around circulant operator algebra (``circulant``),
stencil generation (``stencils``), time-stepping operator construction
(``stepping``), the parallel-in-time solver (``mgrit``), mode-by-mode
convergence analysis (``lfa``), and experiment drivers (``experiments``,
``cli``).
"""

from .circulant import CirculantOperator
from .errors import (DimensionMismatchError, NotRealOperatorError,
                     SingularOperatorError, StabilityWarning, TableauError)
from .lfa import (LfaSweep, default_exclusion_count, predict_history,
                  rho_check, rho_mode, rho_two_level,
                  validate_eigenvalue_estimates)
from .mgrit import (MgritConfig, MgritSolver, SolveReport, TimeGridProblem,
                    c_relax, class_views, cpoint_residual_norm, f_relax,
                    initial_condition, restrict_residual, sequential_solve,
                    solve)
from .stencils import (StencilWindow, error_constant_fd, f_poly, fd_weights,
                       high_derivative_operator, lagrange_weights,
                       upwind_derivative)
from .stepping import (ButcherTableau, DiscretizationSpec, Stepper,
                       cfl_limit, erk_tableau, ideal_coarse_stepper,
                       modified_coarse_stepper, mol_stepper,
                       phi_coefficient, plain_sl_coarse_stepper,
                       rediscretized_coarse_stepper, rk_error_constant,
                       sdirk_tableau, sl_stepper, stability_function,
                       tableau, truncation_residual)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
