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

import time

import numpy as np

from . import wsolvers
from .datatypes import (
    CovariancePair,
    FetrConfig,
    TracePoint,
    TrainReport,
    WeightMatrix,
    WSolver,
    as_weight_array,
    validate_dataset,
)
from .exceptions import DivergenceError, DomainError, SingularMatrixError
from .linalg import project_bounded_spd, solve_spd, sym_eig, symmetrize
from .trainer import FetrModel, fetr_objective

# A raw covariance update whose spectrum collapses below this relative
# floor is treated as the rank-collapse failure mode.
RANK_COLLAPSE_TOL = 1e-12


def flip_flop_step(w, sigma1, sigma2, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """One fudged flip-flop update of both precision factors.

    Both updates read the incoming (sigma1, sigma2); inverting a singular
    factor raises ``SingularMatrixError``, which is how an eps = 0 run dies
    on the step after rank collapse.
    """
    if epsilon < 0:
        raise DomainError(f"epsilon must be >= 0, got {epsilon}")
    w = as_weight_array(w)
    d, m = w.shape
    sigma1_new = w @ solve_spd(sigma2, w.T, context="sigma2") / m + epsilon * np.eye(d)
    sigma2_new = w.T @ solve_spd(sigma1, w, context="sigma1") / d + epsilon * np.eye(m)
    return symmetrize(sigma1_new), symmetrize(sigma2_new)


def _rank_collapsed(s: np.ndarray) -> bool:
    eigs = sym_eig(s).values
    return eigs[0] <= RANK_COLLAPSE_TOL * max(1.0, eigs[-1])


def fit_mtfrl_flipflop(
    data,
    eta: float,
    epsilon: float,
    l: float,
    u: float,
    w_solver: WSolver = WSolver.AUTO,
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
    data = validate_dataset(data)
    gram = wsolvers.GramCache(data)
    method = wsolvers.resolve_w_solver(w_solver, gram.shared, gram.d * gram.m)
    schedule = (
        wsolvers.step_schedule(gram.xtx_eigs, eta, l, u)
        if method == WSolver.GRADIENT_DESCENT
        else None
    )
    init_scale = min(max(1.0, l), u)
    sigma1 = init_scale * np.eye(data.d)
    sigma2 = init_scale * np.eye(data.m)
    w = np.zeros((data.d, data.m))

    start = time.perf_counter()
    evals = 0
    trace: list[TracePoint] = []
    per_block = {"w": 0.0, "cov": 0.0}
    events: list[str] = []

    def record(iteration, block):
        nonlocal evals
        value = fetr_objective(w, sigma1, sigma2, gram, eta)
        evals += 1
        trace.append(TracePoint(iteration, block, time.perf_counter() - start, value, evals))
        return value

    prev = record(0, "init")
    converged = False
    iterations = 0
    for outer in range(1, max_iters + 1):
        if budget_seconds is not None and time.perf_counter() - start > budget_seconds:
            events.append("budget exhausted")
            break
        t0 = time.perf_counter()
        w = wsolvers.solve_w(
            gram, sigma1, sigma2, eta, l, u, method=method, schedule=schedule, w0=w
        ).matrix
        per_block["w"] += time.perf_counter() - t0
        record(outer, "w")

        t0 = time.perf_counter()
        raw1, raw2 = flip_flop_step(w, sigma1, sigma2, epsilon)
        if _rank_collapsed(raw1) or _rank_collapsed(raw2):
            events.append(
                f"singular covariance: flip-flop update rank-collapsed at "
                f"iteration {outer} (epsilon={epsilon})"
            )
            per_block["cov"] += time.perf_counter() - t0
            iterations = outer
            break
        sigma1 = project_bounded_spd(raw1, l, u)
        sigma2 = project_bounded_spd(raw2, l, u)
        per_block["cov"] += time.perf_counter() - t0
        value = record(outer, "cov")

        iterations = outer
        if abs(value - prev) <= tol * (1.0 + abs(prev)):
            converged = True
            break
        prev = value

    report = TrainReport(
        trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        per_block_seconds=per_block,
        objective_evals=evals,
        events=tuple(events),
    )
    config = FetrConfig(eta=eta, l=l, u=u, w_solver=w_solver, max_outer_iters=max_iters, rel_obj_tol=tol)
    return FetrModel(
        weights=WeightMatrix(w),
        covariances=CovariancePair(sigma1=sigma1, sigma2=sigma2, l=l, u=u),
        config=config,
        report=report,
    )


def objective_gradients(w, sigma1, sigma2, data, eta: float):
    """Gradients of the full objective with respect to (W, Sigma1, Sigma2).

    grad_W matches :func:`fetr.wsolvers.grad_h`; the covariance gradients are
    eta (W Sigma2 W^T - m Sigma1^{-1}) and eta (W^T Sigma1 W - d Sigma2^{-1}).
    """
    w = as_weight_array(w)
    d, m = w.shape
    grad_w = wsolvers.grad_h(w, data, sigma1, sigma2, eta)
    inv1 = solve_spd(sigma1, np.eye(d), context="sigma1")
    inv2 = solve_spd(sigma2, np.eye(m), context="sigma2")
    grad_s1 = eta * (w @ sigma2 @ w.T - m * symmetrize(inv1))
    grad_s2 = eta * (w.T @ sigma1 @ w - d * symmetrize(inv2))
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
    is hit, which ends the run as stalled.
    """
    data = validate_dataset(data)
    eta, l, u = config.eta, config.l, config.u
    gram = wsolvers.GramCache(data)
    init_scale = min(max(1.0, l), u)
    sigma1 = init_scale * np.eye(data.d)
    sigma2 = init_scale * np.eye(data.m)
    w = np.zeros((data.d, data.m))

    start = time.perf_counter()
    evals = 0
    trace: list[TracePoint] = []
    events: list[str] = []

    def objective():
        nonlocal evals
        evals += 1
        return fetr_objective(w, sigma1, sigma2, gram, eta)

    value = objective()
    if not np.isfinite(value):
        raise DivergenceError("objective non-finite at the initial point")
    trace.append(TracePoint(0, "init", time.perf_counter() - start, value, evals))

    converged = False
    iterations = 0
    for outer in range(1, max_iters + 1):
        if budget_seconds is not None and time.perf_counter() - start > budget_seconds:
            events.append("budget exhausted")
            break
        grad_w, grad_s1, grad_s2 = objective_gradients(w, sigma1, sigma2, gram, eta)
        step = initial_step
        accepted = False
        for _ in range(max_halvings + 1):
            w_try = w - step * grad_w
            s1_try = project_bounded_spd(sigma1 - step * grad_s1, l, u)
            s2_try = project_bounded_spd(sigma2 - step * grad_s2, l, u)
            trial = fetr_objective(w_try, s1_try, s2_try, gram, eta)
            evals += 1
            if not np.isfinite(trial):
                raise DivergenceError("objective became non-finite during line search")
            if trial < value:
                accepted = True
                break
            step /= 2.0
        if not accepted:
            events.append(f"line search exhausted after {max_halvings} halvings")
            break
        w, sigma1, sigma2 = w_try, s1_try, s2_try
        prev, value = value, trial
        trace.append(TracePoint(outer, "step", time.perf_counter() - start, value, evals))
        iterations = outer
        if abs(value - prev) <= config.rel_obj_tol * (1.0 + abs(prev)):
            converged = True
            break

    report = TrainReport(
        trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        per_block_seconds={"w": 0.0, "sigma1": 0.0, "sigma2": 0.0},
        objective_evals=evals,
        events=tuple(events),
    )
    return FetrModel(
        weights=WeightMatrix(w),
        covariances=CovariancePair(sigma1=sigma1, sigma2=sigma2, l=l, u=u),
        config=config,
        report=report,
    )


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
