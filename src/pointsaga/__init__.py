"""Minibatch proximal incremental solver for smooth strongly convex finite
sums, with tools that compute and empirically certify its linear rate."""

from .analysis import (
    LyapunovWeights,
    RateReport,
    check_coercivity,
    consensus_dr_run,
    defazio_rate,
    dr_rate,
    iteration_complexity,
    lyapunov,
    optimal_stepsize,
    reference_solution,
    theoretical_rate,
    verify_one_step_contraction,
)
from .model import (
    ComponentFunction,
    FiniteSumProblem,
    TOL_STAR,
    assemble_problem,
    full_gradient,
)
from .problems import (
    Dataset,
    GeneratorSpec,
    GenericComponent,
    LogisticRidgeComponent,
    QuadraticComponent,
    RankOneRidgeComponent,
    gen_logistic_ridge,
    gen_quadratic,
    gen_ridge_regression,
    load_libsvm,
)
from .prox import (
    ProxResult,
    TOL_PROX,
    prox_generic,
    prox_logistic_ridge,
    prox_rank_one_quadratic,
)
from .sampling import SplitMix64, sample_k_subset
from .solver import (
    SolverConfig,
    SolverState,
    TraceRecord,
    apply_subset_step,
    initialize,
    run,
    step,
    table_drift,
)

__version__ = "0.1.0"
