"""Competitor optimizers: flip-flop covariance updates and projected
gradient descent on the full objective, plus single-task ridge regression.

The flip-flop update is the alternating MLE of a matrix-variate normal,

    Sigma1' = W Sigma2^{-1} W^T / m + eps I_d
    Sigma2' = W^T Sigma1^{-1} W / d + eps I_m

which at eps = 0 is rank deficient whenever d != m (the single-sample MLE
does not exist), so the raw update cannot be iterated without the fudge
factor eps.
"""
from __future__ import annotations

import numpy as np

from . import wsolvers
from .datatypes import FetrConfig, WeightMatrix, as_weight_array, validate_dataset
from .exceptions import DivergenceError, DomainError, SingularMatrixError
from .linalg import project_bounded_spd, solve_spd, spd_inverse, sym_eig, symmetrize
from .trainer import FetrModel, Run

# A raw covariance update whose spectrum collapses below this relative
# floor is treated as the rank-collapse failure mode.
RANK_COLLAPSE_TOL = 1e-12


def flip_flop_step(w, sigma1, sigma2, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """One fudged flip-flop update of both precision factors.

    Both updates read the inverses of the incoming (sigma1, sigma2) from
    their factors (:func:`~fetr.linalg.spd_inverse`); a singular factor raises
    ``SingularMatrixError``, which is how an eps = 0 run dies on the step
    after rank collapse.
    """
    if epsilon < 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    w = as_weight_array(w)
    d, m = w.shape
    sigma1_new = w @ spd_inverse(sigma2, "sigma2") @ w.T / m + epsilon * np.eye(d)
    sigma2_new = w.T @ spd_inverse(sigma1, "sigma1") @ w / d + epsilon * np.eye(m)
    return symmetrize(sigma1_new), symmetrize(sigma2_new)


def fit_mtfrl_flipflop(
    data,
    eta: float,
    epsilon: float,
    l: float,
    u: float,
    max_iters: int = 100,
    tol: float = 1e-8,
    budget_seconds: float | None = None,
) -> FetrModel:
    """Alternate a W block with flip-flop covariance steps plus projection.

    The W block reuses the coordinate-minimization solvers so that the
    comparison isolates the covariance update. The objective trace is
    recorded but carries no descent guarantee. If the raw (pre-projection)
    update rank-collapses, a singularity event is recorded and the run
    stops: projection would hide that the MLE update is ill-defined.
    """
    config = FetrConfig(eta=eta, l=l, u=u, max_outer_iters=max_iters, rel_obj_tol=tol)
    run = Run(data, config, budget_seconds)
    run.record(0, "init")
    for outer in run.outer_iterations(max_iters):
        run.w_block()
        run.record(outer, "w")

        raws = [sym_eig(raw) for raw in flip_flop_step(run.w, run.sigma1, run.sigma2, epsilon)]
        if any(e.values[0] <= RANK_COLLAPSE_TOL * max(1.0, e.values[-1]) for e in raws):
            run.events.append(
                f"singular covariance: flip-flop update rank-collapsed at "
                f"iteration {outer} (epsilon={epsilon})"
            )
            run.iterations = outer
            break
        run.sigma1, run.sigma2 = (project_bounded_spd(e, l, u) for e in raws)
        run.record(outer, "cov")
        if run.end_iteration(outer):
            break
    return run.model()


def objective_gradients(w, sigma1, sigma2, data, eta: float):
    """Gradients of the full objective with respect to (W, Sigma1, Sigma2).

    grad_W matches :func:`fetr.wsolvers.grad_h`; the covariance gradients are
    eta (W Sigma2 W^T - m Sigma1^{-1}) and eta (W^T Sigma1 W - d Sigma2^{-1}),
    each inverse read from the factors by :func:`~fetr.linalg.spd_inverse`,
    which raises ``SingularMatrixError`` for a singular or indefinite precision.
    """
    w = as_weight_array(w)
    d, m = w.shape
    grad_w = wsolvers.grad_h(w, data, sigma1, sigma2, eta)
    grad_s1 = eta * (w @ sigma2 @ w.T - m * spd_inverse(sigma1, "sigma1"))
    grad_s2 = eta * (w.T @ sigma1 @ w - d * spd_inverse(sigma2, "sigma2"))
    return grad_w, grad_s1, grad_s2


def fit_projected_gd(
    data,
    config: FetrConfig,
    initial_step: float = 1e-2,
    max_halvings: int = 30,
    max_iters: int = 5000,
    budget_seconds: float | None = None,
) -> FetrModel:
    """Projected gradient descent on the full objective.

    Every iteration takes a simultaneous gradient step on (W, Sigma1,
    Sigma2), projects both precision matrices back onto the bounded SPD
    box, and backtracks the step by halving from ``initial_step`` until the
    objective decreases (giving a nonincreasing trace) or ``max_halvings``
    is hit, which ends the run as stalled. Each accepted iteration, line
    search included, is timed as the ``step`` block; an exhausted search
    ends the run in the report's tail, after the last trace point.
    """
    l, u = config.l, config.u
    run = Run(data, config, budget_seconds)
    value = run.record(0, "init")
    if not np.isfinite(value):
        raise DivergenceError("objective non-finite at the initial point")
    for outer in run.outer_iterations(max_iters):
        grad_w, grad_s1, grad_s2 = objective_gradients(
            run.w, run.sigma1, run.sigma2, run.gram, config.eta
        )
        step = initial_step
        for _ in range(max_halvings + 1):
            w_try = run.w - step * grad_w
            s1_try = project_bounded_spd(run.sigma1 - step * grad_s1, l, u)
            s2_try = project_bounded_spd(run.sigma2 - step * grad_s2, l, u)
            trial = run.objective(w_try, s1_try, s2_try)
            if not np.isfinite(trial):
                raise DivergenceError("objective became non-finite during line search")
            if trial < value:
                break
            step /= 2.0
        else:
            run.events.append(f"line search exhausted after {max_halvings} halvings")
            break
        run.w, run.sigma1, run.sigma2 = w_try, s1_try, s2_try
        value = run.record(outer, "step", trial)
        if run.end_iteration(outer):
            break
    return run.model()


def fit_ridge_stl(data, ridge_lambda: float) -> WeightMatrix:
    """Independent ridge regression per task: w_i = (X_i^T X_i + lambda I)^{-1} X_i^T y_i."""
    if ridge_lambda < 0:
        raise DomainError(f"ridge_lambda must be >= 0, got {ridge_lambda}")
    data = validate_dataset(data)
    cols = []
    for i, task in enumerate(data.tasks):
        gram = task.x.T @ task.x + ridge_lambda * np.eye(data.d)
        try:
            cols.append(solve_spd(gram, task.x.T @ task.y, context=f"task {i} normal matrix"))
        except SingularMatrixError:
            raise SingularMatrixError(
                f"task {i}: normal matrix singular at ridge_lambda={ridge_lambda}; "
                "rank-deficient design"
            ) from None
    return WeightMatrix(np.column_stack(cols))
