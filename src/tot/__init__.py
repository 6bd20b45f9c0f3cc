"""tot: optimal transport on the 2-torus.

Computes the Brenier optimal transport map between smooth positive
densities by numerically continuing the Knothe-Rosenblatt rearrangement
along a degenerating quadratic cost family, with every accepted state
certified against the Monge-Ampere residual.
"""

from .continuation import (ContinuationOptions, InitResult, NewtonResult,
                           Trajectory, TrajectoryRecord, init_from_knothe,
                           newton_correct, newton_correct_split, run,
                           trajectory_summary_csv, velocity)
from .densities import (CATALOG, DensityPair, DensitySpec, density_field,
                        make_density_pair, standard_pair, spec)
from .errors import (AdmissibilityError, ConcavityError, ConfigError,
                     ConstructionError, ConvergenceError, CutLocusError,
                     GridSizeError, InitializationError, PositivityError,
                     StepCollapseError, TransportError)
from .fieldio import read_field_binary, write_field_binary, write_field_csv
from .grid import (PeriodicGrid, ScalarField, VectorField, build_grid, field,
                   project_zero_mean, zero_field)
from .knothe import (KnothePotentials, KnotheSolution, fiber_pushforward_error,
                     knothe_solution, l2_map_distance,
                     marginal_and_conditionals)
from .linearized import (apply_linearized, apply_linearized_t0, cost_rate_rhs,
                         solve_linearized, solve_linearized_small_t,
                         solve_linearized_t0, split_coefficients)
from .monge_ampere import (CostMatrix, CostSchedule, check_admissible,
                           identity_cost, pushforward_residual, t0_margins,
                           transport_map)
from .transport1d import (CircleDensity, CircleMap, circle_density,
                          monotone_circle_map, potential_1d,
                          pushforward_quantile_error, transport_cost)
from .trig import TrigPoly1D, TrigPoly2D

__version__ = "0.1.0"
