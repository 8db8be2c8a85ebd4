"""Quasi-Newton minimization that tolerates bounded measurement noise.

The classic BFGS update forces the secant equation exactly, so noisy
gradients can wreck the inverse-Hessian approximation.  Here the secant
equation is only penalized, at a per-iteration strength beta chosen by a
policy; beta = +inf recovers BFGS, beta = 0 freezes the approximation, and
anything in between trades adherence to the measured curvature against
stability.  The package ships the update algebra, a noisy-measurement
harness, a driver, analytic test problems, theory diagnostics, and a
benchmarking CLI (`spbfgs-bench`).
"""

__version__ = "0.1.0"

from .bench import (
    ExperimentSpec,
    ProblemRef,
    SummaryStats,
    delta_opt,
    run_experiment,
    summarize,
)
from .config import load_experiment
from .diagnostics import (
    noise_region_threshold,
    qlinear_envelope_holds,
    scaled_condition_number,
    trace_bound_b,
    trace_bound_h,
)
from .errors import (
    BadDimensionError,
    ConfigError,
    CurvatureViolationError,
    DegenerateInputError,
    EmptyCellError,
    EvaluationBudgetError,
    MissingMetadataError,
    NonFiniteError,
    SingularDenominatorError,
    SingularSystemError,
    SpbfgsError,
)
from .linesearch import LineSearchConfig, armijo_ok, backtrack
from .noise import NoiseSpec, NoisyOracle, sample_ball
from .optimizer import (
    RunConfig,
    RunTrace,
    minimize,
    minimize_baseline_bfgs,
)
from .oracle import make_weight_matrix, oracle_penalized_qp
from .policy import SKIP, UPDATE, PenaltyPolicy, baseline_update_ok, propose_beta, resolve_beta
from .problems import Problem, get_problem, list_problems
from .updates import (
    CurvaturePair,
    PenaltyScalars,
    bfgs_curvature_ok,
    bfgs_update,
    compute_penalty_scalars,
    is_positive_definite,
    spbfgs_curvature_ok,
    spbfgs_inverse_update,
    spbfgs_update,
)
