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
from .datatypes import FetrConfig, WeightMatrix, as_weight_array, check_at_least, validate_dataset
from .exceptions import DivergenceError, SingularMatrixError
from .linalg import (
    above_roundoff, clip_spectrum, project_bounded_spd, solve_spd, spd_inverse, sym_eig, symmetrize,
)
from .trainer import FetrModel, Run, term_sizes

# fit_projected_gd's iteration cap, and its line search's first step and halvings
PGD_MAX_ITERS = 5000
PGD_INITIAL_STEP = 1e-2
PGD_MAX_HALVINGS = 30
# Rounding allowance of the projected-GD line-search bounds, per unit of size:
# the dense form, the gradient step and the eigensolver each move an eigenvalue
# of a k x k precision by O(k eps ||Sigma||), and the trial's sums of d m terms
# from factors orthonormal to O(k eps) err by O((d + m)^2 eps) of their size.
# The loss at W_s, evaluated there or summed from its three coefficients along
# the ray, sums d m products of d-term dot products (plus the rounding of W_s
# itself), so either form errs by O((d + m)^2 eps) of the sizes of its terms,
# Y^T Y + ||X^T X||_F r^2 + 2 ||X^T Y||_F r with r >= ||W_s||_F by
# Cauchy-Schwarz, not of the loss, which cancels towards 0 on noiseless targets.
CERT_ROUNDING = 8 * np.finfo(float).eps


def flip_flop_step(w, sigma1, sigma2, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """One fudged flip-flop update of both precision factors.

    Both updates read the inverses of the incoming (sigma1, sigma2) from
    their factors (:func:`~fetr.linalg.spd_inverse`); a singular factor raises
    ``SingularMatrixError``, which is how an eps = 0 run dies on the step
    after rank collapse. An ``epsilon`` not a finite number >= 0 raises ``DomainError``.
    """
    check_at_least("epsilon", epsilon, 0)
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
    max_iters: int = FetrConfig.max_outer_iters,
    budget_seconds: float | None = None,
) -> FetrModel:
    """Alternate a W block with flip-flop covariance steps plus projection.

    The W block reuses the coordinate-minimization solvers so that the
    comparison isolates the covariance update. The objective trace is
    recorded but carries no descent guarantee. If the raw (pre-projection)
    update rank-collapses, a singularity event is recorded and the run
    stops: projection would hide that the MLE update is ill-defined. An
    ``epsilon`` that is not a finite number >= 0, or a value that
    ``FetrConfig`` rejects, raises ``DomainError`` before any work.
    """
    check_at_least("epsilon", epsilon, 0)
    config = FetrConfig(eta=eta, l=l, u=u, max_outer_iters=max_iters)
    run = Run(data, config, budget_seconds)
    for outer in run.sweeps(max_iters):
        run.w_block(outer)
        run.record(outer, "w")

        raws = [sym_eig(raw) for raw in flip_flop_step(run.w, run.sigma1, run.sigma2, epsilon)]
        if not all(above_roundoff(e.values[0], e.values[-1], e.values.size) for e in raws):
            run.events.append(
                f"singular covariance: flip-flop update rank-collapsed at "
                f"iteration {outer} (epsilon={epsilon})"
            )
            break
        run.sigma1, run.sigma2 = (project_bounded_spd(e, l, u) for e in raws)
        run.record(outer, "cov")
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


def line_search_lower_bounds(
    data, config: FetrConfig, w, grad_w, sigma1, sigma2, norm1: float, norm2: float, steps
) -> np.ndarray:
    """Lower bounds on :func:`~fetr.trainer.fetr_objective` at the projected-GD
    trial (W_s, P(Sigma1 - s G1), P(Sigma2 - s G2)) of every step s in ``steps``,
    W_s = W - s G and P the projection onto the box l I <= Sigma <= u I, with no
    eigendecomposition and two X^T X products for the whole line search.

    ``data`` is a validated dataset, ``sigma1`` and ``sigma2`` the current
    feasible factors, ``grad_w`` is G and ``norm_k`` = ||G_k||_F. The loss
    along the ray is the quadratic loss(W) - 2 s <G, X^T X W - X^T Y> + s^2 <G,
    X^T X G>, and ||W_s||_F^2 is one too. By Weyl's inequality the i-th
    eigenvalue of Sigma_k - s G_k lies within s norm_k of lam_i, and clamping
    into [l, u] is monotone. So the trial's log-determinants are at most those
    of clip(lam + s norm_k), and its trace term is at least a1 a2 ||W_s||_F^2
    with a_k = max(l, lam_min - s norm_k). Each eigenvalue bound is widened by
    the rounding of the step and the eigensolver, and the bound is lowered by
    the rounding of the trial's terms, scaled by their absolute sizes
    (``CERT_ROUNDING``), since the terms can cancel. A step whose shift is not
    finite, or whose objective could overflow, gets -inf: it certifies nothing,
    so its trial is evaluated.
    """
    l, u, eta = config.l, config.u, config.eta
    d, m = w.shape
    gram = data.gram
    half_grad = gram.loss_grad_half(w)

    def along_ray(c0, c1, c2):  # c0 - 2 c1 s + c2 s^2 at every step
        return float(c0) - steps * (2.0 * float(c1) - steps * float(c2))

    loss = along_ray(
        gram.yty + np.sum(w * (half_grad - gram.xty)),
        np.sum(grad_w * half_grad),
        np.sum(grad_w * gram.gram_product(grad_w)),
    )
    w_sq = along_ray(np.vdot(w, w), np.vdot(grad_w, w), np.vdot(grad_w, grad_w))
    r = np.linalg.norm(w) + steps * np.linalg.norm(grad_w)
    loss_size, log_size = term_sizes(data, config, r)
    shift1, shift2 = steps * norm1, steps * norm2
    logdets, trace_coef = 0.0, eta
    for lam, shift, weight in ((sigma1.spectrum, shift1, m), (sigma2.spectrum, shift2, d)):
        shift = shift + CERT_ROUNDING * lam.size * (lam[-1] + shift)
        logdets = logdets + weight * np.log(clip_spectrum(lam + shift[:, None], l, u)).sum(axis=1)
        trace_coef = trace_coef * np.maximum(l, lam[0] - shift)
    margin = CERT_ROUNDING * (d + m) ** 2 * (loss_size + trace_coef * r * r + eta * log_size)
    bound = loss + trace_coef * np.maximum(w_sq, 0.0) - eta * logdets - margin
    finite = np.isfinite(shift1 + shift2 + loss_size + 2.0 * eta * u * u * r * r)
    return np.where(finite, bound, -np.inf)


def fit_projected_gd(
    data,
    config: FetrConfig,
    max_iters: int = PGD_MAX_ITERS,
    budget_seconds: float | None = None,
) -> FetrModel:
    """Projected gradient descent on the full objective.

    Every iteration takes a simultaneous gradient step on (W, Sigma1,
    Sigma2), projects both precision matrices back onto the bounded SPD
    box, and backtracks the step by halving from ``PGD_INITIAL_STEP`` until the
    objective decreases (giving a nonincreasing trace) or ``PGD_MAX_HALVINGS``
    is hit, which ends the run as stalled. Each accepted iteration, line
    search included, is timed as the ``step`` block; an exhausted search
    ends the run in the report's tail, after the last trace point.

    Before the search, :func:`line_search_lower_bounds` bounds the objective
    at every step of that ladder, ``PGD_INITIAL_STEP * 0.5**k`` for k up to
    ``PGD_MAX_HALVINGS``, in one call. A trial whose bound is not below
    the current value would be rejected, so it is rejected without the two
    projections and the objective; every other trial is evaluated in full.
    The iterates are those of the plain search, and ``objective_evals``
    counts every line-search trial, certified or evaluated, plus the initial
    point. Trials run with numpy's overflow and invalid-value warnings off; a
    non-finite trial raises ``DivergenceError``. A ``max_iters`` that is not
    an integer >= 0, a bool included, raises ``DomainError`` before any work.
    """
    check_at_least("max_iters", max_iters, 0, integral=True)
    l, u = config.l, config.u
    run = Run(data, config, budget_seconds)
    value = run.trace[0].objective
    if not np.isfinite(value):
        raise DivergenceError("objective non-finite at the initial point")
    steps = PGD_INITIAL_STEP * 0.5 ** np.arange(PGD_MAX_HALVINGS + 1)
    for outer in run.sweeps(max_iters):
        grad_w, grad_s1, grad_s2 = objective_gradients(
            run.w, run.sigma1, run.sigma2, run.data, config.eta
        )
        with np.errstate(over="ignore", invalid="ignore"):
            bounds = line_search_lower_bounds(
                run.data, config, run.w, grad_w, run.sigma1, run.sigma2,
                np.linalg.norm(grad_s1), np.linalg.norm(grad_s2), steps,
            )
            for step, bound in zip(steps, bounds):
                if bound >= value:
                    run.evals += 1  # counted like the evaluation it replaces
                else:
                    w_try = run.w - step * grad_w
                    s1_try = project_bounded_spd(run.sigma1 - step * grad_s1, l, u)
                    s2_try = project_bounded_spd(run.sigma2 - step * grad_s2, l, u)
                    trial = run.objective(w_try, s1_try, s2_try)
                    if not np.isfinite(trial):
                        raise DivergenceError("objective became non-finite during line search")
                    if trial < value:
                        break
            else:
                run.events.append(f"line search exhausted after {PGD_MAX_HALVINGS} halvings")
                break
        run.w, run.sigma1, run.sigma2 = w_try, s1_try, s2_try
        value = run.record(outer, "step", trial)
    return run.model()


def fit_ridge_stl(data, ridge_lambda: float) -> WeightMatrix:
    """Independent ridge regression per task: w_i = (X_i^T X_i + lambda I)^{-1} X_i^T y_i.
    A ``ridge_lambda`` that is not a finite number >= 0 raises ``DomainError``."""
    check_at_least("ridge_lambda", ridge_lambda, 0)
    gram = validate_dataset(data).gram
    cols = []
    for i, (xtx, xty) in enumerate(zip(gram.task_xtx(), gram.xty.T)):
        normal = xtx + ridge_lambda * np.eye(len(xty))
        try:
            cols.append(solve_spd(normal, xty, context=f"task {i} normal matrix"))
        except SingularMatrixError:
            raise SingularMatrixError(
                f"task {i}: normal matrix singular at ridge_lambda={ridge_lambda}; "
                "rank-deficient design"
            ) from None
    return WeightMatrix(np.column_stack(cols))
