"""Block coordinate minimization of the bounded-spectrum multitask objective.

The full objective over (W, Sigma1, Sigma2) is

    sum_i ||y_i - X_i w_i||^2 + eta tr(Sigma1 W Sigma2 W^T)
        - eta (m log|Sigma1| + d log|Sigma2|)

subject to l I <= Sigma1, Sigma2 <= u I. Each outer iteration exactly
minimizes the W block (solver by structure), then the Sigma1 block, then the
Sigma2 block; both read the :class:`Profile` of their precision, built from
the :class:`Run`, whose :meth:`Run.objective` counts each evaluation. The
Sigma1 block also moves W by a safeguarded Newton-CG step on F(W) = min over
Sigma1 (:meth:`Profile.newton_step`), then sets Sigma1 at the new W.
Without that step, block minimization crawls when d > m: the null space of
W Sigma2 W^T, where Sigma1 is clamped to u, co-rotates with W. With Sigma1
held fixed the penalty charges a rotation of W into it a curvature of
eta u, but once Sigma1 follows only about eta lambda_i, lambda_i the
Sigma1 eigenvalue the rotation leaves. The step is kept only if it does
not raise the objective, so the trace is nonincreasing; a violation beyond
floating-point slack raises, loudly.

The Sigma2 block ends with one move to the box edge along the objective's
scale ray at fixed W (:meth:`Profile.scale_to_box`), a ray that
block minimization would otherwise walk one box-limited step per sweep.
The move is closed-form, lowering the objective by eta m (d - rank W) log c,
so it is taken whenever c > 1 and the guard checks the point it leaves.
"""
from __future__ import annotations

import math
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
    check_at_least,
    validate_dataset,
)
from .exceptions import (
    DataValidationError,
    DegenerateMetricError,
    DomainError,
    InternalConsistencyError,
)
from .linalg import above_roundoff, as_decomp, clip_spectrum, conjugate_gradient, factor_eig

# Tolerated objective increase between consecutive trace points, relative.
MONOTONE_SLACK = 1e-10
# Profile.newton_step, on either profile: CG steps per direction, relative
# CG residual at which a direction is final, Armijo constant and step
# halvings before the step is dropped.
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
    read from the factors Sigma = V diag(lam) V^T + lam_c (I - V V^T)
    (:func:`fetr.linalg.as_decomp`), the matrices the Sigma blocks minimized,
    which a dense form rounds at u/l near 1e12: the log-determinants as
    :meth:`~fetr.datatypes.EigenDecomp.logdet`, the trace as ||R1^T W R2||_F^2,
    R R^T = Sigma, the sum of squares of the blocks of (W R2)^T R1 that
    :meth:`~fetr.datatypes.EigenDecomp.root_blocks` gives, each nonnegative and a
    complement's read through W projected off the vectors (:func:`_trace_term`).
    Non-PD input raises ``DomainError``.
    """
    data = validate_dataset(data)
    w = as_weight_array(w, data)
    d, m = w.shape
    e1, e2 = as_decomp(sigma1), as_decomp(sigma2)
    if not min(e1.lowest, e2.lowest) > 0.0:
        raise DomainError("sigma1 and sigma2 must be positive definite")
    logdets = m * e1.logdet() + d * e2.logdet()
    return float(data.gram.loss(w) + eta * _trace_term(e1, w, e2) - eta * logdets)


def _trace_term(e1: EigenDecomp, w: np.ndarray, e2: EigenDecomp) -> float:
    # tr(Sigma1 W Sigma2 W^T) = ||R1^T W R2||^2 for R R^T = Sigma: a sum of squares,
    # never c I minus a rank-q correction
    return sum(float(np.vdot(b, b)) for z in e2.root_blocks(w) for b in e1.root_blocks(z.T))


def term_sizes(data, config: FetrConfig, r):
    """Bounds on the sizes of the objective's terms at a W with ||W||_F <= r, r a
    number or an array: Y^T Y + ||X^T X||_F r^2 + 2 ||X^T Y||_F r on the loss's
    three, by Cauchy-Schwarz (per task, the largest ||X_i^T X_i||_F bounds
    sum_i <w_i, X_i^T X_i w_i>), and 2 d m max(|log l|, |log u|) on the
    log-determinants' m |log|Sigma1|| + d |log|Sigma2|| in the box."""
    gram = data.gram
    loss = gram.yty + gram.xtx_norm * r * r + 2.0 * gram.xty_norm * r
    return loss, 2.0 * data.d * data.m * max(abs(math.log(config.l)), abs(math.log(config.u)))


# The original unconstrained formulation has the same formula; without the
# spectrum bounds it is unbounded below (send Sigma = sigma I with sigma to
# infinity), which is why the bounded variant exists. The name is kept as an
# evaluation function to make that failure observable.
mtfrl_objective_unconstrained = fetr_objective


class Profile:
    """F(W) = min over one precision of the objective, the other fixed, at one W.

    The penalty is unchanged by swapping (W, Sigma1, Sigma2, d, m) for
    (W^T, Sigma2, Sigma1, m, d), so this eliminates Sigma1 on A = W, or
    Sigma2 on A = W^T when ``tasks`` is true, at the data, eta and box (l, u) of
    ``run``, never its W or precisions. With A Other A^T = V diag(nu) V^T, A of
    r rows and k columns, the minimizer is ``sigma`` = V diag(g(nu)) V^T,
    g(nu) = clamp(k / nu, l, u), and F, evaluated on first read of ``value``,
    is ``run.objective`` at W and ``pair`` = (Sigma1, Sigma2). Both come from
    :func:`fetr.covariance.clamped_spectrum` of the product, the sum of the
    Grams of Other's :meth:`~fetr.datatypes.EigenDecomp.root_blocks` of A, or
    when r > k, the product having rank at most k, of :func:`fetr.linalg.factor_eig`
    of the r x k factor A R, R the symmetric Other^{1/2} from ``dense``, which reads
    range(A)'s k eigenpairs from its thin SVD A R = V diag(sqrt nu) U^T. ``sigma``
    then holds those k columns and u on their complement; no r x r matrix is formed.
    ``nu`` lists all r eigenvalues, descending, the complement's zeros last.
    A lies in range(V), so by the envelope theorem the gradient of F is
    2 (X^T X W - X^T Y) + 2 eta V diag(g) P, transposed on the task side, with
    P = V^T A Other, on the tall side diag(sqrt nu) (R U)^T; its Hessian acts
    through the Daleckii-Krein divided differences of g on nu (Lewis,
    "Derivatives of spectral functions", 1996), in O(r q k + r k^2) for q
    columns of ``sigma``. It reads A only through P and, on the tall side,
    R and U, and the direction through V^T and projected off V. On the
    tall side the divided differences and g Other are each of size
    u ||Other|| and nearly cancel, so they are combined in closed form, U
    being square: through the divided differences of nu g(nu) on range(A),
    and off it through the PSD R U diag(g) U^T R^T.
    """

    def __init__(self, run: Run, w, other, tasks: bool = False):
        a = w.T if tasks else w
        r, k = a.shape
        o, l, u = as_decomp(other), run.config.l, run.config.u
        if r > k:
            root = o.dense(np.sqrt)  # Other's k x k symmetric square root R
            s, right = factor_eig(a @ root)
            self._factor = root, right[:, ::-1]  # R and U, in sigma's order
        else:
            self._factor = None
            s = sum(b @ b.T for b in o.root_blocks(a))  # PSD parts, whatever u/l
        nu, ratio, self.sigma = covariance.clamped_spectrum(s, k, l, u)
        self.run, self.w, self.other, self.tasks = run, w, other, tasks
        self.pair = (other, self.sigma) if tasks else (self.sigma, other)
        self.nu = np.concatenate((nu, np.zeros(self.sigma.codim)))  # descending, sigma's order
        self._spectrum = (k, nu, self.sigma.values, (ratio > l) & (ratio < u))

    @cached_property
    def value(self) -> float:
        return self.run.objective(self.w, *self.pair)

    @cached_property
    def _divided(self) -> np.ndarray:
        # (g_i - g_j) / (nu_i - nu_j); g' = -k / nu^2 strictly inside the box
        # and 0 on it, averaged where nu_i ~ nu_j, exact where both are inside
        k, nu, lam, inside = self._spectrum
        inv = np.where(inside, 1.0 / np.where(inside, nu, 1.0), 0.0)
        divided = self._differences(lam, -k * inv * inv)
        both = np.outer(inside, inside)
        divided[both] = -k * np.outer(inv, inv)[both]
        return divided

    @cached_property
    def _divided_h(self) -> np.ndarray:
        # the same for h(nu) = nu g(nu), read only on the tall side: h = k
        # strictly inside the box, so h' = 0 there, and h' = g on it
        _, nu, lam, inside = self._spectrum
        divided = self._differences(lam * nu, np.where(inside, 0.0, lam))
        divided[np.outer(inside, inside)] = 0.0
        return divided

    def _differences(self, f: np.ndarray, slope: np.ndarray) -> np.ndarray:
        # (f_i - f_j) / (nu_i - nu_j), the mean slope where nu_i ~ nu_j
        nu = self._spectrum[1]
        gap = nu[:, None] - nu[None, :]
        close = np.abs(gap) <= 1e-12 * (1.0 + nu[0])
        return np.where(
            close,
            0.5 * (slope[:, None] + slope[None, :]),
            (f[:, None] - f[None, :]) / np.where(close, 1.0, gap),
        )

    @cached_property
    def _tall_terms(self) -> tuple[np.ndarray, ...]:
        # with A R = V S U^T, U square: R U, the divided differences of h and of
        # g times S_i S_j, and the curvature off V, R U diag(g) U^T R^T
        root, right = self._factor
        ru, s, lam = root @ right, np.sqrt(self._spectrum[1]), self.sigma.values
        return ru, self._divided_h, self._divided * np.outer(s, s), (ru * lam) @ ru.T

    @cached_property
    def _vt_a_other(self) -> np.ndarray:
        # P = V^T A Other, A Other in the eigenbasis of sigma; on the tall side
        # V^T A R = S U^T, so P = S (R U)^T
        if self._factor is None:
            return self.sigma.vectors.T @ ((self.w.T if self.tasks else self.w) @ self.other)
        return np.sqrt(self._spectrum[1])[:, None] * self._tall_terms[0].T

    def grad(self) -> np.ndarray:
        # A lies in range(V), so Sigma A Other = V diag(g) P
        penalty = (self.sigma.vectors * self.sigma.values) @ self._vt_a_other
        penalty = 2.0 * self.run.config.eta * (penalty.T if self.tasks else penalty)
        return 2.0 * self.run.data.gram.loss_grad_half(self.w) + penalty

    def hess_vec(self, direction: np.ndarray) -> np.ndarray:
        # on the task side the direction enters as dA = D^T; the penalty term leaves transposed.
        # With B = V^T dA and P = V^T A Other, V^T dSigma V = divided * (B P^T + P B^T),
        # and the penalty is 2 eta (dSigma A Other + Sigma dA Other).
        sigma = self.sigma
        d_a = direction.T if self.tasks else direction
        b = sigma.vectors.T @ d_a
        if self._factor is None:
            p = self._vt_a_other
            d_s = b @ p.T
            inner = (self._divided * (d_s + d_s.T)) @ p + (sigma.values[:, None] * b) @ self.other
            penalty = sigma.vectors @ inner
        else:
            # P = S U^T R^T, S = diag(sqrt nu), U square, Other = R U U^T R^T, and
            # C = B R U: on V the terms combine to (C * divided_h + C^T * divided S S)
            # (R U)^T, so the divided differences never cancel against g Other;
            # off V, A Other vanishes and dA meets R U diag(g) U^T R^T
            ru, divided_h, divided_s, curvature = self._tall_terms
            c = b @ ru
            inner = (c * divided_h + c.T * divided_s) @ ru.T
            penalty = sigma.vectors @ inner + (d_a - sigma.vectors @ b) @ curvature
        penalty = 2.0 * self.run.config.eta * (penalty.T if self.tasks else penalty)
        return 2.0 * self.run.data.gram.gram_product(direction) + penalty

    def newton_step(self) -> Profile:
        """One Armijo-safeguarded Newton-CG step on F from this profile's W.
        The direction is truncated CG on H p = -g from p = 0, stopped once the
        residual is below NEWTON_CG_RTOL |g| or at nonpositive curvature
        (Nocedal & Wright, ch. 7); every nonzero CG iterate started from zero
        is a descent direction, but when -g itself has nonpositive curvature
        CG returns p = 0, the slope is 0 and W stays. A decrease -slope not
        above the objective's rounding, eps times the sizes of its terms, is
        not searched for, since the Armijo test would compare values that
        differ by rounding: W stays. Returns the profile at the new W, or this
        one when no step passes the Armijo test; an accepted trial is never
        above this one, since the slope is negative. The run counts each
        evaluation of F as it is made, this one's included.
        """
        self.value  # counted whichever way the step ends
        grad = self.grad()
        tol = NEWTON_CG_RTOL * float(np.sum(grad * grad)) ** 0.5
        p = conjugate_gradient(self.hess_vec, -grad, None, tol, NEWTON_CG_MAX_ITERS)[0]
        slope = float(np.sum(grad * p))
        if not -slope > self._rounding():
            return self
        step = 1.0
        for _ in range(ARMIJO_HALVINGS + 1):
            trial = Profile(self.run, self.w + step * p, self.other, self.tasks)
            if trial.value <= self.value + ARMIJO_C1 * step * slope:
                return trial
            step /= 2.0
        return self

    def _rounding(self) -> float:
        # eps times the sizes of the objective's terms at W, below which their sum
        # cannot resolve a change: the loss and log-determinants as term_sizes bounds
        # them, the trace term as it is, tr(sigma A Other A^T) = sum g(nu) nu
        loss, logs = term_sizes(self.run.data, self.run.config, math.sqrt(np.vdot(self.w, self.w)))
        trace = float(np.dot(self.sigma.values, self.nu[: self.sigma.values.size]))
        return np.finfo(float).eps * (loss + self.run.config.eta * (trace + logs))

    def scale_to_box(self, other: EigenDecomp) -> tuple[EigenDecomp, EigenDecomp]:
        """Move along the objective's scale ray at fixed W as far as the box allows.

        ``other`` is the other precision as the next block left it, the new
        Sigma2 on the feature side. With P the projection onto range(A),
        spanned by the eigenvectors of ``sigma`` whose ``nu`` are
        :func:`~fetr.linalg.above_roundoff`, of rank q, sigma -> D sigma D with
        D = P / sqrt(c) + (I - P) and other -> c other keep the trace term,
        since D A = A / sqrt(c), and lower the objective by eta k (r - q) log c.
        Returns the moved pair (sigma, other) at the largest
        feasible c = min(u / max eig other, min eig of sigma on range(A) / l),
        or the two unmoved when q = r or that c is not above 1. Sigma's
        complement lies off range(A) and keeps its value.
        """
        cfg, own, nu = self.run.config, self.sigma, self.nu
        in_range = above_roundoff(nu, nu[0], nu.size)
        if in_range.all():
            return own, other
        in_range = in_range[: own.values.size]
        c = min(cfg.u / other.spectrum[-1], np.min(own.values[in_range], initial=np.inf) / cfg.l)
        if not c > 1.0:
            return own, other
        # the range comes first and only shrinks, so the values stay ascending
        lam = np.where(in_range, own.values / c, own.values)
        moved = own.with_values(clip_spectrum(lam, cfg.l, cfg.u))
        return moved, other.map(lambda values: clip_spectrum(c * values, cfg.l, cfg.u))


class Run:
    """Run state shared by :func:`fit_fetr` and the two baselines (internal).

    Holds the validated dataset, whose Gram a dataset's first fit builds in
    set-up. Starts from W = 0 and Sigma1 = Sigma2 = clamp(1) I, precisions held
    as :class:`~fetr.datatypes.EigenDecomp`, the start's with no vectors and
    clamp(1) as the complement value, and keeps the clock, read once on
    entry, the evaluation count that only :meth:`objective` advances, the trace,
    the inner iterations of each W block and the events that :meth:`model`
    reports. Set-up ends by recording the start point; :meth:`sweeps` owns the
    budget, None or seconds >= 0, and stop rule. Projected GD also counts a
    line-search trial that its lower bound rejects unevaluated. ``monotone``
    turns on the guard against a trace point above its predecessor by more
    than MONOTONE_SLACK; only block coordinate minimization promises descent.
    """

    def __init__(self, data, config: FetrConfig, budget_seconds=None, monotone=False):
        if budget_seconds is not None:
            check_at_least("budget_seconds", budget_seconds, 0)
        self.start = time.perf_counter()
        self.data = validate_dataset(data)
        self.data.gram  # built here on the dataset's first fit, so set-up counts it
        self.config = config
        init_scale = min(max(1.0, config.l), config.u)
        d, m = self.data.d, self.data.m
        self.w = np.zeros((d, m))
        self.sigma1 = EigenDecomp(np.zeros((d, 0)), np.zeros(0), init_scale)
        self.sigma2 = EigenDecomp(np.zeros((m, 0)), np.zeros(0), init_scale)
        self.budget_seconds = np.inf if budget_seconds is None else budget_seconds
        self.monotone = monotone
        self.evals = 0
        self.trace: list[TracePoint] = []
        self.w_iterations: list[int] = []
        self.events: list[str] = []
        self.converged = False
        self.setup_seconds = self.seconds()
        self.record(0, "init")

    def seconds(self) -> float:
        """Seconds since the fitter was entered."""
        return time.perf_counter() - self.start

    def sweeps(self, max_iters: int):
        """Yield sweeps 1..max_iters while the wall-clock budget lasts; stop,
        ``converged``, once a sweep moved the objective by at most rel_obj_tol
        * (1 + |prev|), prev the last point of an earlier sweep. A fitter that
        stops inside a sweep breaks."""
        for sweep in range(1, max_iters + 1):
            if self.seconds() > self.budget_seconds:
                self.events.append("budget exhausted")
                return
            yield sweep
            prev = next(p.objective for p in reversed(self.trace) if p.iteration < sweep)
            moved = abs(self.trace[-1].objective - prev)
            self.converged = moved <= self.config.rel_obj_tol * (1.0 + abs(prev))
            if self.converged:
                return

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

    def w_block(self, sweep: int) -> None:
        """Minimize over W at the current precisions, warm-started from W,
        and record the solver's inner iterations. Conjugate gradients stop on
        a recursively updated residual, so after a block that took CG steps
        one more operator application gives the true one; above the stop
        tolerance, an event names the sweep and their ratio."""
        cfg = self.config
        w, iters = wsolvers.solve_w(
            self.data, self.sigma1, self.sigma2, cfg.eta,
            w0=self.w,  # warm start matters only for conjugate gradients
            max_iters=cfg.gd_max_iters,
        )
        self.w = w.matrix
        self.w_iterations.append(iters)
        if iters > 0:
            ratio = wsolvers.cg_residual_ratio(self.data, self.sigma1, self.sigma2, cfg.eta, self.w)
            if ratio > 1.0:
                self.events.append(
                    f"W block of sweep {sweep}: true residual {ratio:.3g} times the CG tolerance"
                )

    def model(self) -> FetrModel:
        report = TrainReport(
            trace=tuple(self.trace),
            converged=self.converged,
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

    The Sigma1 block first takes one Armijo-safeguarded Newton-CG step,
    :meth:`Profile.newton_step`, on F(W) = min over Sigma1 of the objective
    (the feature side of :class:`Profile`), then sets Sigma1 to the exact
    minimizer at the new W. When no step passes the Armijo test, W stays
    and Sigma1 is the plain block minimizer. The ``sigma1`` trace point
    records F of the profile kept, so no point is evaluated twice. Its time
    counts towards ``per_block_seconds["sigma1"]``, and each evaluation of F
    towards ``objective_evals``, as the profiles' shared run makes it.

    The Sigma2 block sets Sigma2 to the minimizer of the task side of
    :class:`Profile`, whose value it never reads. When rank W < d, it ends
    with the scale move of the feature side's :meth:`Profile.scale_to_box`,
    taken whenever its c > 1, since it then lowers the objective in closed form.
    The ``sigma2`` trace point evaluates the point after the move once, and
    the monotone guard checks it. Every ``w`` and ``sigma2`` point thus
    costs one evaluation; only the Sigma1 block evaluates points it does not
    record, its base and Armijo trials of F.
    """
    run = Run(data, config, budget_seconds, monotone=True)
    for outer in run.sweeps(config.max_outer_iters):
        run.w_block(outer)
        run.record(outer, "w")

        features = Profile(run, run.w, run.sigma2).newton_step()
        run.w, run.sigma1 = features.w, features.sigma
        run.record(outer, "sigma1", features.value)

        tasks = Profile(run, run.w, run.sigma1, tasks=True)
        run.sigma1, run.sigma2 = features.scale_to_box(tasks.sigma)
        run.record(outer, "sigma2")
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
