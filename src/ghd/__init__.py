"""Fixed-point solver for the GHD equation with rigorous-bound diagnostics."""

from .errors import (AssumptionError, ConfigError, ConvergenceError, GHDError,
                     NumericalError, SupportWindowError)
from .grid import GridFunction, MomentumGrid, build_momentum_grid, integrate
from .kernel import (KernelOperator, ScatteringKernel, Velocity, apply_T,
                     eval_kernel, hard_rods, identity_velocity, lieb_liniger,
                     operator_norm, relativistic_velocity, sign_class,
                     sinh_gordon, tabulated_kernel, zero_kernel)
from .dressing import (DressingBounds, DressingProblem, check_1dr_bounds,
                       compute_R, dress, dress_batched)
from .seed import (Scenario, SeedTables, SpatialGridSpec, build_seed,
                   constant_profile, gaussian_bump, gaussian_profile,
                   partitioning, tabulated_xy, zero_scenario)
from .fixed_point import Solver, SolverConfig, States
from .diagnostics import (AssumptionReport, ConservationSeries,
                          check_assumptions, conservation_report,
                          derivative_identity_check, weak_form_residual)
from .reference import (FieldState, convergence_order, initial_field,
                        integrate_upwind, l1_gap, step_upwind, total_mass)

__version__ = "0.1.0"
