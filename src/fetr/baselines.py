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

import math

import numpy as np

from . import wsolvers
from .datatypes import FetrConfig, WeightMatrix, as_weight_array, validate_dataset
from .exceptions import DivergenceError, DomainError, SingularMatrixError
from .linalg import clip_spectrum, project_bounded_spd, solve_spd, spd_inverse, sym_eig, symmetrize
from .trainer import FetrModel, Run

# A raw covariance update whose spectrum collapses below this relative
# floor is treated as the rank-collapse failure mode.
RANK_COLLAPSE_TOL = 1e-12
# Rounding allowance of the projected-GD trial bound, per unit of size: the
# dense form, the gradient step and the eigensolver each move an eigenvalue
# of a k x k precision by O(k eps ||Sigma||), and the trial's sums of d m terms
# from factors orthonormal to O(k eps) err by O((d + m)^2 eps) of their size.
CERT_ROUNDING = 8 * np.finfo(float).eps


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
    budget_seconds: float | None = None,
) -> FetrModel:
    """Alternate a W block with flip-flop covariance steps plus projection.

    The W block reuses the coordinate-minimization solvers so that the
    comparison isolates the covariance update. The objective trace is
    recorded but carries no descent guarantee. If the raw (pre-projection)
    update rank-collapses, a singularity event is recorded and the run
    stops: projection would hide that the MLE update is ill-defined.
    """
    config = FetrConfig(eta=eta, l=l, u=u, max_outer_iters=max_iters)
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


def trial_lower_bound(gram, config: FetrConfig, w_try, sigma1, sigma2, shift1, shift2) -> float:
    """Lower bound on :func:`~fetr.trainer.fetr_objective` at a projected-GD
    trial (W_t, P(Sigma1 - s G1), P(Sigma2 - s G2)), P the projection onto the
    box l I <= Sigma <= u I, without an eigendecomposition.

    ``sigma1`` and ``sigma2`` are the current feasible factors and
    ``shift_k`` = s ||G_k||_F. By Weyl's inequality the i-th eigenvalue of
    Sigma_k - s G_k lies within shift_k of lam_i, and clamping into [l, u] is
    monotone. So the trial's log-determinants are at most those of
    clip(lam + shift), its trace term tr(Sigma1 W_t Sigma2 W_t^T) is at least
    a1 a2 ||W_t||_F^2 with a_k = max(l, lam_min - shift_k), and its loss is
    ``gram.loss(W_t)``, the number the full evaluation gets. Each eigenvalue
    bound is widened by the rounding of the step and the eigensolver, and
    the bound is lowered by the rounding of the trial's terms, scaled by
    their absolute sizes, since the terms can cancel. Returns -inf, which
    certifies nothing, when a shift is not finite or the trial's objective
    could overflow, so that trial is evaluated in full. O(d^2 m).
    """
    l, u, eta = config.l, config.u, config.eta
    d, m = w_try.shape
    loss = gram.loss(w_try)
    w_sq = float(np.vdot(w_try, w_try))
    if not all(map(math.isfinite, (shift1, shift2, loss + 2.0 * eta * u * u * w_sq))):
        return -math.inf
    logdets, trace_term = 0.0, eta * w_sq
    for lam, shift, weight in ((sigma1.values, shift1, m), (sigma2.values, shift2, d)):
        shift += CERT_ROUNDING * lam.size * (lam[-1] + shift)
        logdets += weight * float(np.log(clip_spectrum(lam + shift, l, u)).sum())
        trace_term *= max(l, lam[0] - shift)
    log_size = 2.0 * d * m * max(abs(math.log(l)), abs(math.log(u)))
    margin = CERT_ROUNDING * (d + m) ** 2 * (abs(loss) + trace_term + eta * log_size)
    return loss + trace_term - eta * logdets - margin


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

    A trial whose :func:`trial_lower_bound` is not below the current value
    would be rejected, so it is rejected without the two projections and
    the objective; every other trial is evaluated in full. The iterates are
    those of the plain search, and ``objective_evals`` counts every
    line-search trial, certified or evaluated, plus the initial point.
    Trials run with numpy's overflow and invalid-value warnings off; a
    non-finite trial raises ``DivergenceError``.
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
        norm1, norm2 = np.linalg.norm(grad_s1), np.linalg.norm(grad_s2)
        step = initial_step
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(max_halvings + 1):
                w_try = run.w - step * grad_w
                bound = trial_lower_bound(
                    run.gram, config, w_try, run.sigma1, run.sigma2, step * norm1, step * norm2
                )
                if bound >= value:
                    run.evals += 1  # counted like the evaluation it replaces
                else:
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
