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
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import covariance, wsolvers
from .datatypes import (
    CovariancePair,
    FetrConfig,
    TracePoint,
    TrainReport,
    WeightMatrix,
    as_weight_array,
    validate_dataset,
)
from .exceptions import (
    DataValidationError,
    DegenerateMetricError,
    DomainError,
    InternalConsistencyError,
)
from .linalg import logdet_spd, symmetrize

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
    come from Cholesky factors (:func:`fetr.linalg.logdet_spd`); non-PD
    input raises ``DomainError``.
    """
    w = as_weight_array(w)
    gram = wsolvers.as_gram(data)
    d, m = w.shape
    if (d, m) != (gram.d, gram.m):
        raise DomainError(f"weight shape {w.shape} does not match data ({gram.d}, {gram.m})")
    logdets = m * logdet_spd(sigma1, "sigma1") + d * logdet_spd(sigma2, "sigma2")
    trace_term = float(np.sum((np.asarray(sigma1) @ w @ np.asarray(sigma2)) * w))
    return gram.loss(w) + eta * trace_term - eta * logdets


# The original unconstrained formulation has the same formula; without the
# spectrum bounds it is unbounded below (send Sigma = sigma I with sigma to
# infinity), which is why the bounded variant exists. The name is kept as an
# evaluation function to make that failure observable.
mtfrl_objective_unconstrained = fetr_objective


class Sigma1Profile:
    """F(W) = min over Sigma1 of the objective, Sigma2 fixed, at one W.

    With W Sigma2 W^T = V diag(nu) V^T the minimizer is Sigma1(W) =
    V diag(g(nu)) V^T, g(nu) = clamp(m / nu, l, u), and F is
    :func:`fetr_objective` at (W, Sigma1(W), Sigma2). By the envelope
    theorem its gradient is 2 (X^T X W - X^T Y) + 2 eta Sigma1(W) W Sigma2;
    its Hessian acts through the Daleckii-Krein divided
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
        self.value = fetr_objective(w, self.sigma1, sigma2, gram, eta)
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


def _sigma1_newton_step(run: "Run"):
    """One Armijo-safeguarded Newton-CG step on F(W) = min_Sigma1 obj from
    the run's W, each evaluation of F counted. Returns the profile at the new
    W (the base itself when no step decreases F) and the base profile.
    """
    cfg = run.config

    def profile(w) -> Sigma1Profile:
        run.evals += 1
        return Sigma1Profile(run.gram, w, run.sigma2, cfg.eta, cfg.l, cfg.u)

    base = profile(run.w)
    grad = base.grad()
    p = _newton_cg_direction(base, grad)
    slope = float(np.sum(grad * p))
    if not slope < 0.0:
        return base, base
    step = 1.0
    for _ in range(ARMIJO_HALVINGS + 1):
        trial = profile(run.w + step * p)
        if trial.value <= base.value + ARMIJO_C1 * step * slope:
            return trial, base
        step /= 2.0
    return base, base


class Run:
    """Run state shared by :func:`fit_fetr` and the two baselines (internal).

    Starts from W = 0 and Sigma1 = Sigma2 = clamp(1) I and keeps the clock,
    the objective-evaluation count, the trace, the ``blocks`` timings and
    the events that :meth:`model` reports. ``monotone`` turns on the guard
    against a trace point above its predecessor by more than MONOTONE_SLACK;
    only block coordinate minimization promises descent.
    """

    def __init__(self, data, config: FetrConfig, blocks, budget_seconds=None, monotone=False):
        data = validate_dataset(data)
        self.gram = wsolvers.GramCache(data)
        self.config = config
        init_scale = min(max(1.0, config.l), config.u)
        self.w = np.zeros((data.d, data.m))
        self.sigma1 = init_scale * np.eye(data.d)
        self.sigma2 = init_scale * np.eye(data.m)
        self.budget_seconds = np.inf if budget_seconds is None else budget_seconds
        self.monotone = monotone
        self.evals = 0
        self.trace: list[TracePoint] = []
        self.per_block = dict.fromkeys(blocks, 0.0)
        self.events: list[str] = []
        self.iterations = 0
        self.converged = False
        self.start = time.perf_counter()

    def outer_iterations(self, max_iters: int):
        """Yield 1..max_iters while the wall-clock budget lasts."""
        for outer in range(1, max_iters + 1):
            if time.perf_counter() - self.start > self.budget_seconds:
                self.events.append("budget exhausted")
                return
            yield outer

    def objective(self, w, sigma1, sigma2) -> float:
        """Counted objective evaluation at (W, Sigma1, Sigma2)."""
        self.evals += 1
        return fetr_objective(w, sigma1, sigma2, self.gram, self.config.eta)

    def record(self, iteration: int, block: str, value: float | None = None) -> float:
        """Append a trace point, evaluating the current point unless given."""
        if value is None:
            value = self.objective(self.w, self.sigma1, self.sigma2)
        if self.monotone and self.trace:
            prev = self.trace[-1].objective
            if value > prev + MONOTONE_SLACK * (1.0 + abs(prev)):
                raise InternalConsistencyError(
                    f"objective increased from {prev!r} to {value!r} after "
                    f"{block} block of iteration {iteration}"
                )
        self.trace.append(
            TracePoint(iteration, block, time.perf_counter() - self.start, value, self.evals)
        )
        return value

    @contextmanager
    def timed(self, block: str):
        t0 = time.perf_counter()
        yield
        self.per_block[block] += time.perf_counter() - t0

    def w_block(self) -> None:
        """Minimize over W at the current precisions, warm-started from W."""
        cfg = self.config
        with self.timed("w"):
            self.w = wsolvers.solve_w(
                self.gram,
                self.sigma1,
                self.sigma2,
                cfg.eta,
                cfg.l,
                cfg.u,
                method=cfg.w_solver,
                w0=self.w,  # warm start matters only for gradient descent
                gd_max_iters=cfg.gd_max_iters,
                gd_rel_tol=cfg.gd_rel_tol,
            ).matrix

    def end_iteration(self, outer: int) -> bool:
        """Count iteration ``outer`` as done; True once the objective moved by
        at most rel_obj_tol * (1 + |prev|) across it, prev being the last
        trace point before it."""
        self.iterations = outer
        prev = next(p.objective for p in reversed(self.trace) if p.iteration < outer)
        moved = abs(self.trace[-1].objective - prev)
        self.converged = moved <= self.config.rel_obj_tol * (1.0 + abs(prev))
        return self.converged

    def model(self) -> FetrModel:
        report = TrainReport(
            trace=tuple(self.trace),
            converged=self.converged,
            iterations=self.iterations,
            per_block_seconds=self.per_block,
            objective_evals=self.evals,
            events=tuple(self.events),
        )
        return FetrModel(
            weights=WeightMatrix(self.w),
            covariances=CovariancePair(
                sigma1=self.sigma1, sigma2=self.sigma2, l=self.config.l, u=self.config.u
            ),
            config=self.config,
            report=report,
        )


def fit_fetr(data, config: FetrConfig, budget_seconds: float | None = None) -> FetrModel:
    """Run block coordinate minimization until the objective stalls.

    Starts from Sigma1 = Sigma2 = clamp(1) I and W = 0, cycles
    W -> Sigma1 -> Sigma2 recording the objective after every block, and
    stops when |obj_t - obj_{t-1}| <= rel_obj_tol * (1 + |obj_{t-1}|)
    across one outer iteration, when ``max_outer_iters`` is reached, or
    when the optional wall-clock budget runs out.

    The Sigma1 block first takes one Armijo-safeguarded Newton-CG step on
    F(W) = min over Sigma1 of the objective (see :class:`Sigma1Profile`),
    then sets Sigma1 to the exact minimizer at the new W. The step is kept
    only if F there is not above the ``w`` point; otherwise W stays and
    Sigma1 is the plain block minimizer. The ``sigma1`` trace point records
    F of the profile kept, so no point is evaluated twice. Its time counts
    towards ``per_block_seconds["sigma1"]`` and each evaluation of F
    towards ``objective_evals``.
    """
    run = Run(data, config, ("w", "sigma1", "sigma2"), budget_seconds, monotone=True)
    run.record(0, "init")
    for outer in run.outer_iterations(config.max_outer_iters):
        run.w_block()
        run.record(outer, "w")

        with run.timed("sigma1"):
            new, base = _sigma1_newton_step(run)
        if new.value > run.trace[-1].objective:
            new = base
        run.w, run.sigma1 = new.w, new.sigma1
        run.record(outer, "sigma1", new.value)

        with run.timed("sigma2"):
            run.sigma2 = covariance.minimize_sigma2(run.w, run.sigma1, config.l, config.u)
        run.record(outer, "sigma2")
        if run.end_iteration(outer):
            break
    return run.model()


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
