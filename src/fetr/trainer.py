"""Block coordinate minimization of the bounded-spectrum multitask objective.

The full objective over (W, Sigma1, Sigma2) is

    sum_i ||y_i - X_i w_i||^2 + eta tr(Sigma1 W Sigma2 W^T)
        - eta (m log|Sigma1| + d log|Sigma2|)

subject to l I <= Sigma1, Sigma2 <= u I. Each outer iteration exactly
minimizes the W block (choice of solver), then the Sigma1 block, then the
Sigma2 block. The Sigma1 block also moves W by one safeguarded Newton-CG
step on F(W) = min over Sigma1 of the objective before it sets Sigma1 to
the exact minimizer at the new W. Without that step, block minimization
crawls when d > m: the null space of W Sigma2 W^T, where Sigma1 is clamped
to u, co-rotates with W. With Sigma1 held fixed the penalty charges a
rotation of W into it a curvature of eta u, but once Sigma1 follows only
about eta lambda_i, lambda_i the Sigma1 eigenvalue the rotation leaves.
The step is kept only if it does not raise the objective, so the trace is
nonincreasing; a violation beyond floating-point slack raises, loudly.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import covariance, wsolvers
from .datatypes import (
    CovariancePair,
    FetrConfig,
    MultitaskDataset,
    TracePoint,
    TrainReport,
    WeightMatrix,
    WSolver,
    as_weight_array,
    validate_dataset,
)
from .exceptions import (
    DataValidationError,
    DegenerateMetricError,
    DomainError,
    InternalConsistencyError,
    NumericError,
)
from .linalg import symmetrize

# Tolerated objective increase between consecutive trace points, relative.
MONOTONE_SLACK = 1e-10
# Truncated Newton-CG on the Sigma1-eliminated objective: CG steps per
# direction, relative CG residual at which a direction is final, Armijo
# constant and step halvings before the step is dropped.
NEWTON_CG_MAX_ITERS = 50
NEWTON_CG_RTOL = 1e-2
ARMIJO_C1 = 1e-4
ARMIJO_HALVINGS = 10


@dataclass(frozen=True)
class FetrModel:
    """A fitted model: weights, precision matrices, config and run report."""

    weights: WeightMatrix
    covariances: CovariancePair
    config: FetrConfig
    report: TrainReport

    def with_metrics(self, metrics: dict[str, float]) -> "FetrModel":
        return replace(self, report=replace(self.report, metrics=dict(metrics)))


def _logdet_pd(s, name: str) -> float:
    """Sum of log-eigenvalues; raises unless s is symmetric positive definite."""
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise NumericError(f"{name} has non-finite entries")
    eigs = np.linalg.eigvalsh(symmetrize(s))
    if eigs[0] <= 0.0:
        raise DomainError(f"{name} is not positive definite (min eigenvalue {eigs[0]:.3e})")
    return float(np.sum(np.log(eigs)))


def fetr_objective(w, sigma1, sigma2, data, eta: float) -> float:
    """Objective value at (W, Sigma1, Sigma2).

    ``data`` is a dataset or a prebuilt :class:`~fetr.wsolvers.GramCache`.
    The loss comes from the Gram statistics, ``GramCache.loss(w)`` =
    ||Y||^2 + <W, X^T X W - 2 X^T Y>, in O(d^2 m) rather than the O(ndm)
    of the residual; :func:`fetr.wsolvers.h_value` keeps the direct
    residual evaluation. The regularizer is computed in trace form,
    eta tr(Sigma1 W Sigma2 W^T) - eta (m log|Sigma1| + d log|Sigma2|),
    which equals eta ||Sigma1^{1/2} W Sigma2^{1/2}||_F^2 minus the
    log-determinant terms but avoids matrix square roots. Log-determinants
    are sums of log-eigenvalues; non-PD input raises ``DomainError``.
    """
    w = as_weight_array(w)
    gram = wsolvers.as_gram(data)
    d, m = w.shape
    if (d, m) != (gram.d, gram.m):
        raise DomainError(f"weight shape {w.shape} does not match data ({gram.d}, {gram.m})")
    logdets = m * _logdet_pd(sigma1, "sigma1") + d * _logdet_pd(sigma2, "sigma2")
    trace_term = float(np.sum((np.asarray(sigma1) @ w @ np.asarray(sigma2)) * w))
    return gram.loss(w) + eta * trace_term - eta * logdets


def mtfrl_objective_unconstrained(w, sigma1, sigma2, data: MultitaskDataset, eta: float) -> float:
    """Objective of the original unconstrained formulation.

    Identical formula to :func:`fetr_objective`; without spectrum bounds it
    is unbounded below (send Sigma = sigma I with sigma to infinity), which
    is why the bounded variant exists. Kept as an evaluation function to
    make that failure observable.
    """
    return fetr_objective(w, sigma1, sigma2, data, eta)


class Sigma1Profile:
    """F(W) = min over Sigma1 of the objective, Sigma2 fixed, at one W.

    With W Sigma2 W^T = V diag(nu) V^T the minimizer is Sigma1(W) =
    V diag(g(nu)) V^T, g(nu) = clamp(m / nu, l, u), so F is the Gram-form
    loss plus eta sum_i (g_i nu_i - m log g_i) - eta d log|Sigma2|. By the
    envelope theorem its gradient is 2 (X^T X W - X^T Y) + 2 eta Sigma1(W)
    W Sigma2; its Hessian acts through the Daleckii-Krein divided
    differences of g on nu (Lewis, "Derivatives of spectral functions",
    1996).
    """

    def __init__(self, gram: wsolvers.GramCache, w, sigma2, eta: float, l: float, u: float):
        m = w.shape[1]
        w_sigma2 = w @ sigma2
        self.vecs, nu, ratio, lam = covariance.clamped_spectrum(w_sigma2 @ w.T, m, l, u)
        self.gram, self.w, self.eta = gram, w, eta
        self.sigma2, self.w_sigma2 = sigma2, w_sigma2
        self.sigma1 = symmetrize((self.vecs * lam) @ self.vecs.T)
        self.value = (
            gram.loss(w)
            + eta * float(np.sum(lam * nu - m * np.log(lam)))
            - eta * w.shape[0] * _logdet_pd(sigma2, "sigma2")
        )
        self._spectrum = (m, nu, lam, (ratio > l) & (ratio < u))

    @cached_property
    def _divided(self) -> np.ndarray:
        # (g_i - g_j) / (nu_i - nu_j); g' = -m / nu^2 strictly inside the box
        # and 0 on it, averaged where nu_i ~ nu_j
        m, nu, lam, inside = self._spectrum
        inv = np.where(inside, 1.0 / np.where(inside, nu, 1.0), 0.0)
        slope = -m * inv * inv
        gap = nu[:, None] - nu[None, :]
        close = np.abs(gap) <= 1e-12 * (1.0 + nu[-1])
        divided = np.where(
            close,
            0.5 * (slope[:, None] + slope[None, :]),
            (lam[:, None] - lam[None, :]) / np.where(close, 1.0, gap),
        )
        both = np.outer(inside, inside)
        divided[both] = -m * np.outer(inv, inv)[both]
        return divided

    def grad(self) -> np.ndarray:
        return wsolvers.grad_h(self.w, self.gram, self.sigma1, self.sigma2, self.eta)

    def hess_vec(self, direction: np.ndarray) -> np.ndarray:
        d_s = direction @ self.w_sigma2.T
        d_s = self.vecs.T @ (d_s + d_s.T) @ self.vecs
        d_sigma1 = self.vecs @ (self._divided * d_s) @ self.vecs.T
        return 2.0 * self.gram.gram_product(direction) + 2.0 * self.eta * (
            d_sigma1 @ self.w_sigma2 + self.sigma1 @ direction @ self.sigma2
        )


def _newton_cg_direction(profile: Sigma1Profile, grad: np.ndarray) -> np.ndarray:
    """Truncated CG on H p = -g, stopped once the residual is below
    NEWTON_CG_RTOL |g| or at nonpositive curvature (Nocedal & Wright,
    ch. 7); CG iterates started from zero are descent directions."""
    p = np.zeros_like(grad)
    resid = -grad
    direction = resid
    rr = float(np.sum(resid * resid))
    tol = NEWTON_CG_RTOL * rr**0.5
    for _ in range(NEWTON_CG_MAX_ITERS):
        h_dir = profile.hess_vec(direction)
        curvature = float(np.sum(direction * h_dir))
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        p = p + alpha * direction
        resid = resid - alpha * h_dir
        rr_next = float(np.sum(resid * resid))
        if rr_next**0.5 <= tol:
            break
        direction = resid + (rr_next / rr) * direction
        rr = rr_next
    return p


def _sigma1_newton_step(gram, w, sigma2, eta: float, l: float, u: float):
    """One Armijo-safeguarded Newton-CG step on F(W) = min_Sigma1 obj.

    Returns the new W (``w`` itself when no step decreases F) and the
    number of F evaluations made.
    """
    base = Sigma1Profile(gram, w, sigma2, eta, l, u)
    grad = base.grad()
    p = _newton_cg_direction(base, grad)
    slope = float(np.sum(grad * p))
    evals = 1
    if not slope < 0.0:
        return w, evals
    step = 1.0
    for _ in range(ARMIJO_HALVINGS + 1):
        candidate = w + step * p
        evals += 1
        value = Sigma1Profile(gram, candidate, sigma2, eta, l, u).value
        if value <= base.value + ARMIJO_C1 * step * slope:
            return candidate, evals
        step /= 2.0
    return w, evals


def fit_fetr(data, config: FetrConfig, budget_seconds: float | None = None) -> FetrModel:
    """Run block coordinate minimization until the objective stalls.

    Starts from Sigma1 = Sigma2 = clamp(1) I and W = 0, cycles
    W -> Sigma1 -> Sigma2 recording the objective after every block, and
    stops when |obj_t - obj_{t-1}| <= rel_obj_tol * (1 + |obj_{t-1}|)
    across one outer iteration, when ``max_outer_iters`` is reached, or
    when the optional wall-clock budget runs out.

    The Sigma1 block first takes one Armijo-safeguarded Newton-CG step on
    F(W) = min over Sigma1 of the objective (see :class:`Sigma1Profile`),
    then sets Sigma1 = minimize_sigma1 at the new W. The step is kept only
    if the objective there, which becomes the ``sigma1`` trace point, is
    not above the ``w`` point; otherwise W stays and Sigma1 is the plain
    block minimizer. Its time counts towards ``per_block_seconds["sigma1"]``
    and each Gram-form evaluation of F towards ``objective_evals``.
    """
    data = validate_dataset(data)
    eta, l, u = config.eta, config.l, config.u
    gram = wsolvers.GramCache(data)
    method = wsolvers.resolve_w_solver(config.w_solver, gram.shared, gram.d * gram.m)
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
    per_block = {"w": 0.0, "sigma1": 0.0, "sigma2": 0.0}
    events: list[str] = []

    def objective(w, sigma1) -> float:
        nonlocal evals
        evals += 1
        return fetr_objective(w, sigma1, sigma2, gram, eta)

    def record(iteration: int, block: str, value: float | None = None) -> float:
        if value is None:
            value = objective(w, sigma1)
        if trace:
            prev = trace[-1].objective
            if value > prev + MONOTONE_SLACK * (1.0 + abs(prev)):
                raise InternalConsistencyError(
                    f"objective increased from {prev!r} to {value!r} after "
                    f"{block} block of iteration {iteration}"
                )
        trace.append(
            TracePoint(iteration, block, time.perf_counter() - start, value, evals)
        )
        return value

    prev_outer = record(0, "init")
    converged = False
    iterations = 0
    for outer in range(1, config.max_outer_iters + 1):
        if budget_seconds is not None and time.perf_counter() - start > budget_seconds:
            events.append("budget exhausted")
            break
        t0 = time.perf_counter()
        w = wsolvers.solve_w(
            gram,
            sigma1,
            sigma2,
            eta,
            l,
            u,
            method=method,
            schedule=schedule,
            w0=w,  # warm start matters only for gradient descent
            gd_max_iters=config.gd_max_iters,
            gd_rel_tol=config.gd_rel_tol,
        ).matrix
        per_block["w"] += time.perf_counter() - t0
        record(outer, "w")

        t0 = time.perf_counter()
        w_new, profile_evals = _sigma1_newton_step(gram, w, sigma2, eta, l, u)
        evals += profile_evals
        sigma1_new = covariance.minimize_sigma1(w_new, sigma2, l, u)
        per_block["sigma1"] += time.perf_counter() - t0
        value = objective(w_new, sigma1_new)
        if w_new is w or value <= trace[-1].objective:
            w, sigma1 = w_new, sigma1_new
        else:
            t0 = time.perf_counter()
            sigma1 = covariance.minimize_sigma1(w, sigma2, l, u)
            per_block["sigma1"] += time.perf_counter() - t0
            value = None
        record(outer, "sigma1", value)

        t0 = time.perf_counter()
        sigma2 = covariance.minimize_sigma2(w, sigma1, l, u)
        per_block["sigma2"] += time.perf_counter() - t0
        value = record(outer, "sigma2")

        iterations = outer
        if abs(value - prev_outer) <= config.rel_obj_tol * (1.0 + abs(prev_outer)):
            converged = True
            break
        prev_outer = value

    report = TrainReport(
        trace=tuple(trace),
        converged=converged,
        iterations=iterations,
        per_block_seconds=per_block,
        objective_evals=evals,
        events=tuple(events),
    )
    return FetrModel(
        weights=WeightMatrix(w),
        covariances=CovariancePair(sigma1=sigma1, sigma2=sigma2, l=l, u=u),
        config=config,
        report=report,
    )


def predict(w, x_new) -> np.ndarray:
    """Predictions X_new W; a single feature vector yields one row of tasks."""
    w = as_weight_array(w)
    x = np.asarray(x_new, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != w.shape[0]:
        raise DataValidationError(
            f"feature dimension mismatch: inputs have {x.shape[1]}, weights expect {w.shape[0]}"
        )
    out = x @ w
    return out[0] if single else out


def _per_task_pairs(y_true, y_pred):
    # 2-D arrays carry tasks in columns; any other sequence is treated as
    # one entry per task (lengths may differ across tasks)
    if isinstance(y_true, np.ndarray) and y_true.ndim == 2:
        yt = np.asarray(y_true, dtype=float)
        yp = np.asarray(y_pred, dtype=float)
        if yp.shape != yt.shape:
            raise DataValidationError(f"shape mismatch: {yt.shape} vs {yp.shape}")
        return [(yt[:, i], yp[:, i]) for i in range(yt.shape[1])]
    pairs = []
    for t, p in zip(y_true, y_pred, strict=True):
        t = np.asarray(t, dtype=float).reshape(-1)
        p = np.asarray(p, dtype=float).reshape(-1)
        if t.shape != p.shape:
            raise DataValidationError(f"length mismatch: {t.shape} vs {p.shape}")
        pairs.append((t, p))
    return pairs


def metrics(y_true, y_pred, kind: str = "mse") -> tuple[np.ndarray, float]:
    """Per-task error metric and its mean over tasks.

    ``kind`` is "mse" (mean squared residual) or "nmse" (MSE divided by the
    population variance of the task's targets). Targets may be given as an
    n x m matrix or as per-task sequences of unequal lengths. NMSE with a
    zero-variance task raises ``DegenerateMetricError``.
    """
    kind = kind.lower()
    if kind not in ("mse", "nmse"):
        raise ValueError(f"unknown metric kind {kind!r}")
    values = []
    for i, (t, p) in enumerate(_per_task_pairs(y_true, y_pred)):
        mse = float(np.mean((t - p) ** 2))
        if kind == "nmse":
            var = float(np.var(t))
            if var == 0.0:
                raise DegenerateMetricError(f"task {i} has zero target variance")
            mse /= var
        values.append(mse)
    per_task = np.asarray(values)
    return per_task, float(per_task.mean())
