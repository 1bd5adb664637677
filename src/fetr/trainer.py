"""Block coordinate minimization of the bounded-spectrum multitask objective.

The full objective over (W, Sigma1, Sigma2) is

    sum_i ||y_i - X_i w_i||^2 + eta tr(Sigma1 W Sigma2 W^T)
        - eta (m log|Sigma1| + d log|Sigma2|)

subject to l I <= Sigma1, Sigma2 <= u I. Each outer iteration exactly
minimizes the W block (solver by data layout), then the Sigma1 block, then the
Sigma2 block; both precision blocks read the :class:`Profile` that eliminates
their precision. The Sigma1 block also moves W by one safeguarded Newton-CG
step on F(W) = min over Sigma1 of the objective before it sets Sigma1 to
the exact minimizer at the new W. Without that step, block minimization
crawls when d > m: the null space of W Sigma2 W^T, where Sigma1 is clamped
to u, co-rotates with W. With Sigma1 held fixed the penalty charges a
rotation of W into it a curvature of eta u, but once Sigma1 follows only
about eta lambda_i, lambda_i the Sigma1 eigenvalue the rotation leaves.
The step is kept only if it does not raise the objective, so the trace is
nonincreasing; a violation beyond floating-point slack raises, loudly.

The Sigma2 block ends with one move to the box edge along the objective's
scale ray at fixed W (:func:`fetr.covariance.scale_to_box`), a ray that
block minimization would otherwise walk one box-limited step per sweep.
The move is closed-form, lowering the objective by eta m (d - rank W) log c,
so it is taken whenever c > 1 and the guard checks the point it leaves.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import covariance, wsolvers
from .datatypes import (
    CovariancePair,
    EigenDecomp,
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
from .linalg import as_decomp, conjugate_gradient

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

    The loss comes from the dataset's Gram statistics, ``data.gram.loss(w)`` =
    ||Y||^2 + <W, X^T X W - 2 X^T Y>, in O(d^2 m) rather than the O(ndm)
    of the residual; :func:`fetr.wsolvers.h_value` keeps the direct
    residual evaluation. The regularizer
    eta tr(Sigma1 W Sigma2 W^T) - eta (m log|Sigma1| + d log|Sigma2|) is
    read from the factors Sigma = V diag(lam) V^T (:func:`fetr.linalg.as_decomp`)
    as sum_ij lam1_i lam2_j (V1^T W V2)_ij^2 and sum(log lam): the matrices
    the Sigma blocks minimized, which a dense form rounds at u/l near 1e12.
    Non-PD input raises ``DomainError``.
    """
    data = validate_dataset(data)
    w = as_weight_array(w, data)
    d, m = w.shape
    e1, e2 = as_decomp(sigma1), as_decomp(sigma2)
    if not min(e1.values[0], e2.values[0]) > 0.0:
        raise DomainError("sigma1 and sigma2 must be positive definite")
    logdets = m * np.sum(np.log(e1.values)) + d * np.sum(np.log(e2.values))
    trace_term = np.sum(e1.values[:, None] * (e1.vectors.T @ w @ e2.vectors) ** 2 * e2.values)
    return float(data.gram.loss(w) + eta * trace_term - eta * logdets)


# The original unconstrained formulation has the same formula; without the
# spectrum bounds it is unbounded below (send Sigma = sigma I with sigma to
# infinity), which is why the bounded variant exists. The name is kept as an
# evaluation function to make that failure observable.
mtfrl_objective_unconstrained = fetr_objective


class Profile:
    """F(W) = min over one precision of the objective, the other fixed, at one W.

    The penalty is unchanged by swapping (W, Sigma1, Sigma2, d, m) for
    (W^T, Sigma2, Sigma1, m, d), so this eliminates Sigma1 on A = W, or
    Sigma2 on A = W^T when ``tasks`` is true. With A Other A^T = V diag(nu) V^T,
    A of k columns, the minimizer is ``sigma`` = V diag(g(nu)) V^T, g(nu) =
    clamp(k / nu, l, u), and F, evaluated on first read of ``value``, is
    :func:`fetr_objective` at W and ``pair`` = (Sigma1, Sigma2). By the
    envelope theorem its gradient is 2 (X^T X W - X^T Y) + 2 eta Sigma1 W
    Sigma2; its Hessian acts through the Daleckii-Krein divided differences
    of g on nu (Lewis, "Derivatives of spectral functions", 1996).
    """

    def __init__(self, data, w, other, eta: float, l: float, u: float, tasks: bool = False):
        a = w.T if tasks else w
        k, a_other = a.shape[1], a @ other
        nu, ratio, self.sigma = covariance.clamped_spectrum(a_other @ a.T, k, l, u)
        self.data, self.w, self.eta, self.tasks = data, w, eta, tasks
        self.other, self.a_other = other, a_other
        self.pair = (other, self.sigma) if tasks else (self.sigma, other)
        self.nu = nu  # descending, in the order of the sigma factors
        self._spectrum = (k, nu, self.sigma.values, (ratio > l) & (ratio < u))

    @cached_property
    def value(self) -> float:
        return fetr_objective(self.w, *self.pair, self.data, self.eta)

    @cached_property
    def _divided(self) -> np.ndarray:
        # (g_i - g_j) / (nu_i - nu_j); g' = -k / nu^2 strictly inside the box
        # and 0 on it, averaged where nu_i ~ nu_j
        k, nu, lam, inside = self._spectrum
        inv = np.where(inside, 1.0 / np.where(inside, nu, 1.0), 0.0)
        slope = -k * inv * inv
        gap = nu[:, None] - nu[None, :]
        close = np.abs(gap) <= 1e-12 * (1.0 + nu[0])
        divided = np.where(
            close,
            0.5 * (slope[:, None] + slope[None, :]),
            (lam[:, None] - lam[None, :]) / np.where(close, 1.0, gap),
        )
        both = np.outer(inside, inside)
        divided[both] = -k * np.outer(inv, inv)[both]
        return divided

    def grad(self) -> np.ndarray:
        return wsolvers.grad_h(self.w, self.data, *self.pair, self.eta)

    def hess_vec(self, direction: np.ndarray) -> np.ndarray:
        # on the task side the direction enters as dA = D^T; the penalty term leaves transposed
        d_a = direction.T if self.tasks else direction
        vecs, d_s = self.sigma.vectors, d_a @ self.a_other.T
        d_s = vecs.T @ (d_s + d_s.T) @ vecs
        d_sigma = vecs @ (self._divided * d_s) @ vecs.T
        penalty = 2.0 * self.eta * (d_sigma @ self.a_other + self.sigma @ d_a @ self.other)
        return 2.0 * self.data.gram.gram_product(direction) + (penalty.T if self.tasks else penalty)


def _sigma1_newton_step(run: "Run") -> Profile:
    """One Armijo-safeguarded Newton-CG step on F(W) = min_Sigma1 obj from
    the run's W, each evaluation of F counted. The direction is truncated CG
    on H p = -g from p = 0, stopped once the residual is below
    NEWTON_CG_RTOL |g| or at nonpositive curvature (Nocedal & Wright, ch. 7);
    every nonzero CG iterate started from zero is a descent direction, but
    when -g itself has nonpositive curvature CG returns p = 0, the slope is
    0 and W stays. Returns the profile at the new W, or the base profile
    when no step passes the Armijo test; an accepted trial is never above
    the base, since the slope is negative.
    """
    cfg = run.config

    def profile(w) -> Profile:
        new = Profile(run.data, w, run.sigma2, cfg.eta, cfg.l, cfg.u)
        new.value  # evaluated where it is counted
        run.evals += 1
        return new

    base = profile(run.w)
    grad = base.grad()
    tol = NEWTON_CG_RTOL * float(np.sum(grad * grad)) ** 0.5
    p = conjugate_gradient(base.hess_vec, -grad, None, tol, NEWTON_CG_MAX_ITERS)[0]
    slope = float(np.sum(grad * p))
    if not slope < 0.0:
        return base
    step = 1.0
    for _ in range(ARMIJO_HALVINGS + 1):
        trial = profile(run.w + step * p)
        if trial.value <= base.value + ARMIJO_C1 * step * slope:
            return trial
        step /= 2.0
    return base


class Run:
    """Run state shared by :func:`fit_fetr` and the two baselines (internal).

    Holds the validated dataset, whose Gram a dataset's first fit builds in
    set-up. Starts from W = 0 and Sigma1 = Sigma2 = clamp(1) I, precisions held
    as :class:`~fetr.datatypes.EigenDecomp`, and keeps the clock, read once on
    entry, the objective-evaluation count, the trace, the inner iterations of
    each W block and the events that :meth:`model` reports. Projected GD counts
    each line-search trial as one evaluation, also a trial that its lower bound
    rejects unevaluated (:func:`fetr.baselines.fit_projected_gd`). ``monotone``
    turns on the guard against a trace point above its predecessor by more than
    MONOTONE_SLACK; only block coordinate minimization promises descent.
    """

    def __init__(self, data, config: FetrConfig, budget_seconds=None, monotone=False):
        self.start = time.perf_counter()
        self.data = validate_dataset(data)
        self.data.gram  # built here on the dataset's first fit, so set-up counts it
        self.config = config
        init_scale = min(max(1.0, config.l), config.u)
        d, m = self.data.d, self.data.m
        self.w = np.zeros((d, m))
        self.sigma1 = EigenDecomp(np.eye(d), np.full(d, init_scale))
        self.sigma2 = EigenDecomp(np.eye(m), np.full(m, init_scale))
        self.budget_seconds = np.inf if budget_seconds is None else budget_seconds
        self.monotone = monotone
        self.evals = 0
        self.trace: list[TracePoint] = []
        self.w_iterations: list[int] = []
        self.events: list[str] = []
        self.iterations = 0
        self.converged = False
        self.setup_seconds = self.seconds()

    def seconds(self) -> float:
        """Seconds since the fitter was entered."""
        return time.perf_counter() - self.start

    def outer_iterations(self, max_iters: int):
        """Yield 1..max_iters while the wall-clock budget lasts."""
        for outer in range(1, max_iters + 1):
            if self.seconds() > self.budget_seconds:
                self.events.append("budget exhausted")
                return
            yield outer

    def objective(self, w, sigma1, sigma2) -> float:
        """Counted objective evaluation at (W, Sigma1, Sigma2)."""
        self.evals += 1
        return fetr_objective(w, sigma1, sigma2, self.data, self.config.eta)

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
        self.trace.append(TracePoint(iteration, block, self.seconds(), value, self.evals))
        return value

    def w_block(self) -> None:
        """Minimize over W at the current precisions, warm-started from W,
        and record the solver's inner iterations."""
        cfg = self.config
        w, iters = wsolvers.solve_w(
            self.data, self.sigma1, self.sigma2, cfg.eta,
            w0=self.w,  # warm start matters only for conjugate gradients
            max_iters=cfg.gd_max_iters,
        )
        self.w = w.matrix
        self.w_iterations.append(iters)

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
        per_block: dict[str, float] = {}
        for prev, point in zip(self.trace, self.trace[1:]):
            gap = point.seconds - prev.seconds
            per_block[point.block] = per_block.get(point.block, 0.0) + gap
        report = TrainReport(
            trace=tuple(self.trace),
            converged=self.converged,
            iterations=self.iterations,
            per_block_seconds=per_block,
            objective_evals=self.evals,
            setup_seconds=self.setup_seconds,
            wall_seconds=self.seconds(),
            w_iterations=tuple(self.w_iterations),
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
    F(W) = min over Sigma1 of the objective (the feature side of
    :class:`Profile`), then sets Sigma1 to the exact minimizer at the new
    W. When no step passes the Armijo test, W stays and Sigma1 is the plain
    block minimizer. The ``sigma1`` trace point records F of the profile
    kept, so no point is evaluated twice. Its time counts towards
    ``per_block_seconds["sigma1"]`` and each evaluation of F towards
    ``objective_evals``.

    The Sigma2 block sets Sigma2 to the minimizer of the task side of
    :class:`Profile`, whose value it never reads. When rank W < d, it ends
    with the scale move of :func:`fetr.covariance.scale_to_box`, taken
    whenever its c > 1, since it then lowers the objective in closed form.
    The ``sigma2`` trace point evaluates the point after the move once, and
    the monotone guard checks it. Every ``w`` and ``sigma2`` point thus
    costs one evaluation; only the Sigma1 block evaluates points it does not
    record, its base and Armijo trials of F.
    """
    run = Run(data, config, budget_seconds, monotone=True)
    run.record(0, "init")
    for outer in run.outer_iterations(config.max_outer_iters):
        run.w_block()
        run.record(outer, "w")

        new = _sigma1_newton_step(run)
        run.w, run.sigma1 = new.w, new.sigma
        run.record(outer, "sigma1", new.value)

        tasks = Profile(run.data, run.w, run.sigma1, config.eta, config.l, config.u, tasks=True)
        run.sigma1, run.sigma2, _ = covariance.scale_to_box(
            run.sigma1, new.nu, tasks.sigma, config.l, config.u
        )
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
