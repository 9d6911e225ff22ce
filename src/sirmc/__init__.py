"""Low-rank matrix completion with sparsity-inducing regularizers generated
from robust loss functions, plus the benchmark harness around it."""

from .bench import (
    METHODS,
    SUCCESS_RMSE,
    SweepGrid,
    SyntheticSpec,
    TrialReport,
    config_for_method,
    gen_synthetic,
    phase_sweep,
    rmse,
    runtime_bench,
)
from .completion import (
    IterTrace,
    ObservedMatrix,
    SolverConfig,
    convergence_diagnostics,
    solve,
)
from .matio import load_observed, save_matrix
from .penalties import (
    ContinuityConstants,
    GeneratorFunction,
    Penalty,
    bias,
    cauchy_generator,
    continuity_constants,
    generic,
    gmc_generator,
    hoc,
    hog,
    how,
    implicit_regularizer,
    loss_eval,
    make_penalty,
    moreau_argmin_oracle,
    prox_eval,
    soft_threshold,
    validate,
    welsch_generator,
)
from .spectral import SvdTriplet, shrink_singular_values

__version__ = "0.1.0"
