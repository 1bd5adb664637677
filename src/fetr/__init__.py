"""Multitask regression with bounded-spectrum feature/task precision learning.

The library fits a d x m weight matrix W jointly with a feature precision
matrix Sigma1 (d x d) and a task precision matrix Sigma2 (m x m), all
eigenvalues of the precision matrices constrained to a box [l, u], by
block coordinate minimization with closed-form covariance updates.
"""

from .baselines import (
    fit_mtfrl_flipflop,
    fit_projected_gd,
    fit_ridge_stl,
    flip_flop_step,
    objective_gradients,
)
from .covariance import (
    MatchingInstance,
    brute_force_min_matching,
    clamped_spectrum,
    cov_subobjective,
    matching_weight,
    oracle_cov_minimize,
)
from .datatypes import (
    CovariancePair,
    EigenDecomp,
    FetrConfig,
    MultitaskDataset,
    Task,
    TracePoint,
    TrainReport,
    WeightMatrix,
    validate_dataset,
)
from .dataio import (
    generate_synthetic,
    kfold_split,
    load_manifest,
    random_bounded_spd,
    rff_transform,
    write_report,
)
from .exceptions import (
    CapacityError,
    CsvParseError,
    DataError,
    DataValidationError,
    DegenerateMetricError,
    DivergenceError,
    DomainError,
    FetrError,
    InternalConsistencyError,
    ManifestError,
    NumericError,
    SingularMatrixError,
    SolverError,
    SplitError,
    UnsupportedShapeError,
)
from .linalg import (
    clip_spectrum,
    project_bounded_spd,
    sylvester_solve_spd,
    sym_eig,
    symmetrize,
)
from .trainer import (
    FetrModel,
    fetr_objective,
    fit_fetr,
    metrics,
    mtfrl_objective_unconstrained,
    predict,
)
from .wsolvers import (
    GramCache,
    StepSchedule,
    grad_h,
    h_value,
    solve_w,
    solve_w_cg,
    solve_w_closed,
    solve_w_gd,
    solve_w_sylvester,
    step_schedule,
)

__version__ = "0.1.0"
