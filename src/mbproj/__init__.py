"""Random minibatch projection subgradient methods for convex problems with
many functional constraints, plus the experiment harness that measures their
convergence rates and minibatch-size effects."""

from .oracle import (ConstraintFamily, KnownOptimum, ObjectiveOracle, OracleError,
                     ProblemSpec, SimpleSet, empty_family, linear_family)
from .geometry import (DistanceOracleError, EmptyFeasibleSetError, PolyhedronSpec,
                       TOL_ASSERT, TOL_METRIC, distance_oracle, max_violation,
                       project_intersection)
from .sampling import Sampler
from .solver import (BetaPolicy, ConfigError, OracleFault, PolyhedralContext,
                     RunRecord, RunResult, SolverAbort, SolverConfig,
                     alpha_schedule, objective_step, parallel_feasibility_update,
                     run, sequential_feasibility_update)
from .problems import (BenchmarkInstance, exact_ln_linear, load_instance,
                       make_builtin, make_duplicated_benchmark, make_orthant2,
                       make_orthonormal_benchmark, make_polyhedral_benchmark,
                       make_unconstrained, predicted_gains, save_instance)

__version__ = "0.1.0"
