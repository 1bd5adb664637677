"""Solvers for the weight-matrix subproblem.

The subproblem is the unconstrained convex minimization of

    h(W) = ||Y - X W||_F^2 + eta * ||Sigma1^{1/2} W Sigma2^{1/2}||_F^2

with the precision matrices held fixed (summed per task when instances are
not shared). Four solvers are provided:

* a closed form that solves the md x md normal equations via the
  vectorization identity vec(W*) = (I_m (x) X^T X + eta Sigma2 (x) Sigma1)^{-1} vec(X^T Y),
  shared instances only, the reference the others are tested against,
* a Sylvester-equation solve of the first-order optimality condition
  X^T X W + eta Sigma1 W Sigma2 = X^T Y (shared instances only),
* matrix-free conjugate gradients on that condition, for either layout,
  applying W -> X^T X W + eta Sigma1 W Sigma2 through the Gram matrices, and
* fixed-step gradient descent with a linear convergence guarantee, kept
  as the solver that the step-size analysis certifies.

A fit's W block, :func:`solve_w`, picks by the structure of the system: the
Sylvester solve for shared instances; for per-task data with an exactly
diagonal Sigma2, where the tasks decouple, batched SPD solves of the m
d x d systems; conjugate gradients otherwise.

The gradient is grad h(W) = 2 (X^T X W - X^T Y) + 2 eta Sigma1 W Sigma2;
the step size of :func:`step_schedule` applies to the half-gradient, whose
Hessian I_m (x) X^T X + eta Sigma2 (x) Sigma1 has spectrum inside
[lambda_l, lambda_u].
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .datatypes import (
    FetrConfig,
    MultitaskDataset,
    WeightMatrix,
    as_weight_array,
    check_at_least,
    validate_dataset,
)
from .exceptions import (
    CapacityError,
    DivergenceError,
    DomainError,
    SingularMatrixError,
    UnsupportedShapeError,
)
from .linalg import (
    as_decomp,
    conjugate_gradient,
    solve_spd,
    sylvester_solve_spd,
    symmetrize,
)

CLOSED_FORM_GUARD = 4000
# Entries per stack of the direct per-task W solve, which takes the tasks in
# batches: a stack and its Cholesky factor of 256 KB each stay below a fit's
# peak memory, while one stack of all 139 school-shaped tasks raised it by 1 MB.
DIRECT_BATCH_DOUBLES = 2**15
# Default stop tolerance of solve_w_cg and solve_w_gd on ||grad h||_F, relative to
# 1 + ||X^T Y||_F; a fit's W block takes it, and cg_residual_ratio measures against it.
CG_REL_TOL = 1e-8


class GramCache:
    """X^T X, X^T Y and Y^T Y, built once per dataset as its ``gram``. Only this
    module reads their layout: ``xtx`` is the d x d X^T X for shared instances,
    else the m x d x d stack of the X_i^T X_i."""

    def __init__(self, data: MultitaskDataset):
        if data.shared_instances:
            x, y = data.design(), data.targets()
            self.xtx = symmetrize(x.T @ x)
            # one GEMM streams X once; m matrix-vector products stream it m times
            self.xty = x.T @ y
            self.yty = float(np.vdot(y, y))
        else:
            self.xtx = np.stack([symmetrize(t.x.T @ t.x) for t in data.tasks])
            self.xty = np.column_stack([t.x.T @ t.y for t in data.tasks])
            self.yty = float(sum(t.y @ t.y for t in data.tasks))
        self.xty_norm = float(np.linalg.norm(self.xty))

    @cached_property
    def xtx_eigs(self) -> np.ndarray:
        """Sorted eigenvalues of X^T X, or of every X_i^T X_i; only gradient
        descent's step schedule needs them, so a fit never computes them."""
        return np.sort(np.linalg.eigvalsh(self.xtx), axis=None)

    @cached_property
    def xtx_norm(self) -> float:
        """||X^T X||_F, or the largest ||X_i^T X_i||_F over the tasks."""
        return float(np.linalg.norm(self.xtx, axis=(-2, -1)).max())

    def task_xtx(self) -> np.ndarray:
        """The m x d x d stack of the X_i^T X_i, a read-only view for shared instances."""
        d, m = self.xty.shape
        return np.broadcast_to(self.xtx, (m, d, d))

    def gram_product(self, w: np.ndarray) -> np.ndarray:
        """X^T X W, columnwise per task when instances differ."""
        if self.xtx.ndim == 2:
            return self.xtx @ w
        # batched matmul: about twice as fast as the equivalent einsum
        return np.matmul(self.xtx, w.T[:, :, None])[:, :, 0].T

    def loss_grad_half(self, w: np.ndarray) -> np.ndarray:
        """X^T X W - X^T Y, half the gradient of the squared loss."""
        return self.gram_product(w) - self.xty

    def loss(self, w: np.ndarray) -> float:
        """||Y - X W||_F^2 = Y^T Y + <W, X^T X W - 2 X^T Y>, from the Grams."""
        return self.yty + float(np.sum(w * (self.gram_product(w) - 2.0 * self.xty)))


@dataclass(frozen=True)
class StepSchedule:
    """Fixed-step gradient descent constants derived from the problem data.

    lambda_l and lambda_u bound the spectrum of the quadratic-form Hessian
    I_m (x) X^T X + eta Sigma2 (x) Sigma1 for any feasible precision pair.
    The rest follows from them: ``step`` = 2 / (lambda_u + lambda_l), the
    largest step the linear-rate analysis allows, ``kappa`` their ratio and
    ``gamma`` = ((lambda_u - lambda_l) / (lambda_u + lambda_l))^2, the
    per-step squared-error contraction factor at that step.
    """

    lambda_l: float
    lambda_u: float
    step: float = field(init=False)
    kappa: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        lam_l, lam_u = self.lambda_l, self.lambda_u
        if not (0.0 < lam_l <= lam_u):
            raise DomainError(f"need 0 < lambda_l <= lambda_u, got {lam_l}, {lam_u}")
        object.__setattr__(self, "step", 2.0 / (lam_u + lam_l))
        object.__setattr__(self, "kappa", lam_u / lam_l)
        object.__setattr__(self, "gamma", ((lam_u - lam_l) / (lam_u + lam_l)) ** 2)
        # no rate is promised where gamma rounds to 1 (kappa beyond about 1e16) or is
        # NaN (an infinite lambda_u)
        if not self.gamma < 1.0:
            raise DomainError(f"gamma {self.gamma} outside [0, 1)")


def step_schedule(xtx_eigs, eta: float, l: float, u: float) -> StepSchedule:
    """The schedule of lambda_l = min eig(X^T X) + eta l^2 and
    lambda_u = max eig(X^T X) + eta u^2."""
    if not (eta > 0 and 0.0 < l < u):
        raise DomainError(f"need eta > 0 and 0 < l < u, got eta={eta}, l={l}, u={u}")
    eigs = np.maximum(np.asarray(xtx_eigs, dtype=float), 0.0)
    return StepSchedule(float(eigs.min()) + eta * l * l, float(eigs.max()) + eta * u * u)


def grad_h(w, data, sigma1, sigma2, eta: float) -> np.ndarray:
    """Gradient 2 (X^T X W - X^T Y) + 2 eta Sigma1 W Sigma2.

    In the per-task case the loss part of column i is 2 X_i^T (X_i w_i - y_i).
    """
    data = validate_dataset(data)
    w = as_weight_array(w, data)
    return 2.0 * data.gram.loss_grad_half(w) + 2.0 * eta * (sigma1 @ w @ sigma2)


def h_value(w, data, sigma1, sigma2, eta: float) -> float:
    """Subproblem objective ||Y - X W||_F^2 + eta tr(Sigma1 W Sigma2 W^T)."""
    data = validate_dataset(data)
    w = as_weight_array(w, data)
    residuals = (t.y - t.x @ w[:, i] for i, t in enumerate(data.tasks))
    loss = sum(float(r @ r) for r in residuals)
    return loss + eta * float(np.sum((sigma1 @ w @ sigma2) * w))


def solve_w_closed(data, sigma1, sigma2, eta: float) -> WeightMatrix:
    """Exact minimizer via the md x md Kronecker normal equations.

    Requires shared instances; guarded by ``CLOSED_FORM_GUARD`` on md, read
    at each call, because the assembled system is dense.
    """
    data = validate_dataset(data)
    if not data.shared_instances:
        raise UnsupportedShapeError("closed-form solver requires shared instances")
    md = data.d * data.m
    if md > CLOSED_FORM_GUARD:
        raise CapacityError(f"closed-form system size md={md} exceeds guard {CLOSED_FORM_GUARD}")
    system = np.kron(np.eye(data.m), data.gram.xtx) + eta * np.kron(sigma2, sigma1)
    vec_w = solve_spd(system, data.gram.xty.flatten(order="F"), context="normal equations")
    return WeightMatrix(vec_w.reshape((data.d, data.m), order="F"))


def solve_w_gd(
    data,
    sigma1,
    sigma2,
    eta: float,
    schedule: StepSchedule,
    w0=None,
    max_iters: int = FetrConfig.gd_max_iters,
    rel_tol: float = CG_REL_TOL,
    callback=None,
) -> tuple[WeightMatrix, int]:
    """Fixed-step gradient descent on h; works for shared and per-task data.

    Stops when ||grad h||_F <= rel_tol * (1 + ||X^T Y||_F) or after
    ``max_iters`` steps. Returns the iterate and the number of steps taken;
    starting at the optimum returns after zero steps. A ``max_iters`` that is
    not an integer >= 0, a bool included, raises ``DomainError``.
    """
    check_at_least("max_iters", max_iters, 0, integral=True)
    data = validate_dataset(data)
    sigma1, sigma2 = np.asarray(sigma1), np.asarray(sigma2)  # dense once, not per step
    w = np.zeros((data.d, data.m)) if w0 is None else as_weight_array(w0).copy()
    if not np.isfinite(w).all():
        raise DivergenceError("initial iterate has non-finite entries")
    tol = rel_tol * (1.0 + data.gram.xty_norm)
    half_step = schedule.step / 2.0
    # divergence surfaces as an explicit error, not a runtime warning
    with np.errstate(over="ignore", invalid="ignore"):
        for iters in range(max_iters + 1):
            grad = grad_h(w, data, sigma1, sigma2, eta)
            if not np.isfinite(grad).all():
                raise DivergenceError(
                    "gradient became non-finite; step size contract violated"
                )
            if iters == max_iters or np.linalg.norm(grad) <= tol:
                break
            w = w - half_step * grad
            if callback is not None:
                callback(w)
    return WeightMatrix(w), iters


def solve_w_sylvester(data, sigma1, sigma2, eta: float) -> WeightMatrix:
    """Solve the optimality system X^T X W + eta Sigma1 W Sigma2 = X^T Y.

    The raw left coefficient Sigma1^{-1} X^T X is not symmetric. With the
    symmetric T = Sigma1^{-1/2}, read from Sigma1's decomposition by
    :meth:`~fetr.datatypes.EigenDecomp.dense` (its complement included), and
    W = T W' it becomes

        (T^T X^T X T) W' + W' (eta Sigma2) = T^T X^T Y,

    solved by joint symmetric diagonalization. eta Sigma2 is Sigma2's
    decomposition with its values and complement scaled
    (:meth:`~fetr.datatypes.EigenDecomp.map`), read by
    :func:`sylvester_solve_spd`, so only T^T X^T X T is decomposed. Shared only.
    """
    data = validate_dataset(data)
    if not data.shared_instances:
        raise UnsupportedShapeError("Sylvester solver requires shared instances")
    gram = data.gram
    e1, e2 = as_decomp(sigma1), as_decomp(sigma2)
    if e1.lowest <= 0:
        raise DomainError("sigma1 must be positive definite")
    t = e1.dense(lambda lam: 1.0 / np.sqrt(lam))
    b = e2.map(lambda values: eta * values)
    return WeightMatrix(t @ sylvester_solve_spd(symmetrize(t.T @ gram.xtx @ t), b, t.T @ gram.xty))


def solve_w_cg(
    data, sigma1, sigma2, eta: float, w0=None,
    max_iters: int = FetrConfig.gd_max_iters, rel_tol: float = CG_REL_TOL,
) -> tuple[WeightMatrix, int]:
    """Conjugate gradients on X^T X W + eta Sigma1 W Sigma2 = X^T Y, warm-started.

    The operator is applied matrix-free through :meth:`GramCache.gram_product`
    and the dense precisions, formed once per call. The stop rule is
    gradient descent's: ||grad h||_F <= rel_tol * (1 + ||X^T Y||_F), tested
    on the CG residual, which is -grad h / 2, before every step, so a start
    at the optimum returns after zero steps; at most ``max_iters`` steps are
    taken. Returns the iterate and the number of steps. A non-finite
    residual raises ``DivergenceError``, and a ``max_iters`` that is not an
    integer >= 0, a bool included, ``DomainError``.
    """
    check_at_least("max_iters", max_iters, 0, integral=True)
    data = validate_dataset(data)
    w = None if w0 is None else as_weight_array(w0, data)  # None: CG's own zero start
    gram, sigma1, sigma2 = data.gram, np.asarray(sigma1), np.asarray(sigma2)
    tol = rel_tol * (1.0 + gram.xty_norm) / 2.0  # on the CG residual, -grad h / 2

    def apply(v):  # W -> X^T X W + eta Sigma1 W Sigma2
        return gram.gram_product(v) + eta * (sigma1 @ v @ sigma2)

    # divergence surfaces as an explicit error, not a runtime warning
    with np.errstate(over="ignore", invalid="ignore"):
        w, iters = conjugate_gradient(apply, gram.xty, w, tol, max_iters)
    return WeightMatrix(w), iters


def cg_residual_ratio(data, sigma1, sigma2, eta: float, w) -> float:
    """||grad h(W)||_F over the W block's stop tolerance, ``CG_REL_TOL`` (1 +
    ||X^T Y||_F): above 1 when a CG stop rests on a recursively updated
    residual that the true one does not meet."""
    data = validate_dataset(data)
    grad = grad_h(w, data, sigma1, sigma2, eta)
    return float(np.linalg.norm(grad)) / (CG_REL_TOL * (1.0 + data.gram.xty_norm))


def solve_w(
    data, sigma1, sigma2, eta: float, w0=None, max_iters: int = FetrConfig.gd_max_iters
) -> tuple[WeightMatrix, int]:
    """Minimize h by the structure of the system. Shared instances take the
    Sylvester solve. On per-task data an exactly diagonal Sigma2, as at the
    start point, decouples the tasks into (X_i^T X_i + eta (Sigma2)_ii Sigma1)
    w_i = X_i^T y_i, taken by :func:`solve_spd` on stacks of these systems;
    otherwise, or when a stack fails its pivot test, at most ``max_iters``
    conjugate-gradient steps from ``w0``. Returns the minimizer and the CG
    step count, 0 for a direct solve."""
    check_at_least("max_iters", max_iters, 0, integral=True)
    data = validate_dataset(data)
    if data.shared_instances:
        return solve_w_sylvester(data, sigma1, sigma2, eta), 0
    s2 = np.asarray(sigma2)
    if np.array_equal(s2, np.diag(np.diagonal(s2))):
        gram, s1, scales = data.gram, np.asarray(sigma1), eta * np.diagonal(s2)
        w = np.empty_like(gram.xty)
        batch = max(1, DIRECT_BATCH_DOUBLES // data.d**2)
        try:
            for lo in range(0, data.m, batch):
                part = slice(lo, lo + batch)
                w[:, part] = solve_spd(
                    np.multiply.outer(scales[part], s1) + gram.xtx[part],
                    gram.xty.T[part, :, None],
                    context="per-task normal equations",
                )[:, :, 0].T
            return WeightMatrix(w), 0
        except SingularMatrixError:
            pass  # singular to roundoff, at a tiny eta with n_i < d: CG still descends
    return solve_w_cg(data, sigma1, sigma2, eta, w0=w0, max_iters=max_iters)
