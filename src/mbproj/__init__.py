"""Random minibatch projection subgradient methods for convex problems with
many functional constraints, plus the experiment harness that measures their
convergence rates and minibatch-size effects."""

from .oracle import (ConstraintFamily, KnownOptimum, ObjectiveOracle, OracleError,
                     ProblemSpec, SimpleSet)
from .geometry import (DistanceOracleError, EmptyFeasibleSetError, PolyhedronSpec,
                       TOL_ASSERT, TOL_METRIC, distance_oracle, linear_family,
                       max_violation, project_intersection)
from .sampling import Sampler
from .solver import (ConfigError, OracleFault, RunRecord, RunResult, SolverAbort,
                     alpha_schedule, objective_step, parallel_feasibility_update,
                     run, sequential_feasibility_update)
from .problems import (BenchmarkInstance, exact_ln_linear, load_instance,
                       make_builtin, make_duplicated_benchmark, make_orthant2,
                       make_orthonormal_benchmark, make_polyhedral_benchmark,
                       predicted_gain, save_instance)

__version__ = "0.1.0"
