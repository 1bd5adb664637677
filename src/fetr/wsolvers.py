"""Solvers for the weight-matrix subproblem.

The subproblem is the unconstrained convex minimization of

    h(W) = ||Y - X W||_F^2 + eta * ||Sigma1^{1/2} W Sigma2^{1/2}||_F^2

with the precision matrices held fixed (summed per task when instances are
not shared). Three interchangeable strategies are provided:

* a closed form that solves the md x md normal equations via the
  vectorization identity vec(W*) = (I_m (x) X^T X + eta Sigma2 (x) Sigma1)^{-1} vec(X^T Y),
* fixed-step gradient descent with a linear convergence guarantee, and
* a Sylvester-equation solve of the first-order optimality condition
  X^T X W + eta Sigma1 W Sigma2 = X^T Y (shared instances only).

The gradient is grad h(W) = 2 (X^T X W - X^T Y) + 2 eta Sigma1 W Sigma2;
the step size of :func:`step_schedule` applies to the half-gradient, whose
Hessian I_m (x) X^T X + eta Sigma2 (x) Sigma1 has spectrum inside
[lambda_l, lambda_u].
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .datatypes import MultitaskDataset, WeightMatrix, WSolver, as_weight_array
from .exceptions import (
    CapacityError,
    DivergenceError,
    DomainError,
    SingularMatrixError,
    UnsupportedShapeError,
)
from .linalg import sym_eig, sylvester_solve_spd, symmetrize

# Below this md the closed form is cheap enough to be the automatic choice.
AUTO_CLOSED_FORM_MAX = 256
CLOSED_FORM_GUARD = 4000


class GramCache:
    """Cross-products X^T X, X^T Y and Y^T Y computed once and reused per fit."""

    def __init__(self, data: MultitaskDataset):
        self.shared = data.shared_instances
        self.d = data.d
        self.m = data.m
        if self.shared:
            x, y = data.design(), data.targets()
            self.xtx = symmetrize(x.T @ x)
            self.xtx_stack = None
            # one GEMM streams X once; m matrix-vector products stream it m times
            self.xty = x.T @ y
            self.yty = float(np.vdot(y, y))
        else:
            self.xtx = None
            self.xtx_stack = np.stack([symmetrize(t.x.T @ t.x) for t in data.tasks])
            self.xty = np.column_stack([t.x.T @ t.y for t in data.tasks])
            self.yty = float(sum(t.y @ t.y for t in data.tasks))
        self.xty_norm = float(np.linalg.norm(self.xty))

    @cached_property
    def xtx_eigs(self) -> np.ndarray:
        """Sorted eigenvalues of X^T X, or of every X_i^T X_i; only gradient
        descent's step schedule needs them."""
        if self.shared:
            return np.linalg.eigvalsh(self.xtx)
        return np.sort(np.concatenate([np.linalg.eigvalsh(k) for k in self.xtx_stack]))

    def gram_product(self, w: np.ndarray) -> np.ndarray:
        """X^T X W, columnwise per task when instances differ."""
        if self.shared:
            return self.xtx @ w
        # batched matmul: about twice as fast as the equivalent einsum
        return np.matmul(self.xtx_stack, w.T[:, :, None])[:, :, 0].T

    def loss_grad_half(self, w: np.ndarray) -> np.ndarray:
        """X^T X W - X^T Y, half the gradient of the squared loss."""
        return self.gram_product(w) - self.xty

    def loss(self, w: np.ndarray) -> float:
        """||Y - X W||_F^2 = Y^T Y + <W, X^T X W - 2 X^T Y>, from the Grams."""
        return self.yty + float(np.sum(w * (self.gram_product(w) - 2.0 * self.xty)))


def as_gram(data) -> GramCache:
    """``data`` itself if it is a GramCache, else the cache built from the dataset."""
    if isinstance(data, GramCache):
        return data
    return GramCache(data)


@dataclass(frozen=True)
class StepSchedule:
    """Fixed-step gradient descent constants derived from the problem data.

    lambda_l and lambda_u bound the spectrum of the quadratic-form Hessian
    I_m (x) X^T X + eta Sigma2 (x) Sigma1 for any feasible precision pair,
    kappa is their ratio and gamma the per-step squared-error contraction
    factor at the maximal step 2 / (lambda_u + lambda_l).
    """

    lambda_l: float
    lambda_u: float
    step: float
    kappa: float
    gamma: float

    def __post_init__(self):
        if not (0.0 < self.lambda_l <= self.lambda_u):
            raise DomainError(
                f"need 0 < lambda_l <= lambda_u, got {self.lambda_l}, {self.lambda_u}"
            )
        if not (0.0 < self.step <= 2.0 / (self.lambda_u + self.lambda_l) * (1 + 1e-12)):
            raise DomainError(f"step {self.step} outside (0, 2/(lambda_u+lambda_l)]")
        if not (0.0 <= self.gamma < 1.0):
            raise DomainError(f"gamma {self.gamma} outside [0, 1)")


def step_schedule(xtx_eigs, eta: float, l: float, u: float) -> StepSchedule:
    """Compute lambda_l = min eig(X^T X) + eta l^2, lambda_u = max eig + eta u^2.

    The returned step is exactly 2 / (lambda_u + lambda_l), the largest
    step the linear-rate analysis allows, for which
    gamma = ((lambda_u - lambda_l) / (lambda_u + lambda_l))^2.
    """
    if not (eta > 0 and 0.0 < l < u):
        raise DomainError(f"need eta > 0 and 0 < l < u, got eta={eta}, l={l}, u={u}")
    eigs = np.maximum(np.asarray(xtx_eigs, dtype=float), 0.0)
    lam_l = float(eigs.min()) + eta * l * l
    lam_u = float(eigs.max()) + eta * u * u
    step = 2.0 / (lam_u + lam_l)
    gamma = ((lam_u - lam_l) / (lam_u + lam_l)) ** 2
    return StepSchedule(
        lambda_l=lam_l, lambda_u=lam_u, step=step, kappa=lam_u / lam_l, gamma=gamma
    )


def grad_h(w, data, sigma1, sigma2, eta: float) -> np.ndarray:
    """Gradient 2 (X^T X W - X^T Y) + 2 eta Sigma1 W Sigma2.

    ``data`` may be a dataset or a prebuilt :class:`GramCache`; in the
    per-task case the loss part of column i is 2 X_i^T (X_i w_i - y_i).
    """
    w = as_weight_array(w)
    gram = as_gram(data)
    if w.shape != (gram.d, gram.m):
        raise DomainError(f"weight shape {w.shape} does not match data ({gram.d}, {gram.m})")
    return 2.0 * gram.loss_grad_half(w) + 2.0 * eta * (sigma1 @ w @ sigma2)


def h_value(w, data, sigma1, sigma2, eta: float) -> float:
    """Subproblem objective ||Y - X W||_F^2 + eta tr(Sigma1 W Sigma2 W^T)."""
    w = as_weight_array(w)
    if isinstance(data, GramCache):
        raise TypeError("h_value needs the dataset itself, not a GramCache")
    loss = 0.0
    for i, task in enumerate(data.tasks):
        r = task.y - task.x @ w[:, i]
        loss += float(r @ r)
    return loss + eta * float(np.sum((sigma1 @ w @ sigma2) * w))


def solve_w_closed(data, sigma1, sigma2, eta: float, max_system: int = CLOSED_FORM_GUARD) -> WeightMatrix:
    """Exact minimizer via the md x md Kronecker normal equations.

    Requires shared instances; guarded by ``max_system`` on md because the
    assembled system is dense.
    """
    gram = as_gram(data)
    if not gram.shared:
        raise UnsupportedShapeError("closed-form solver requires shared instances")
    md = gram.d * gram.m
    if md > max_system:
        raise CapacityError(f"closed-form system size md={md} exceeds guard {max_system}")
    system = np.kron(np.eye(gram.m), gram.xtx) + eta * np.kron(sigma2, sigma1)
    try:
        vec_w = scipy.linalg.solve(system, gram.xty.flatten(order="F"), assume_a="pos")
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"normal equations not positive definite: {exc}") from exc
    return WeightMatrix(vec_w.reshape((gram.d, gram.m), order="F"))


def solve_w_gd(
    data,
    sigma1,
    sigma2,
    eta: float,
    schedule: StepSchedule,
    w0=None,
    max_iters: int = 200_000,
    rel_tol: float = 1e-8,
    callback=None,
) -> tuple[WeightMatrix, int]:
    """Fixed-step gradient descent on h; works for shared and per-task data.

    Stops when ||grad h||_F <= rel_tol * (1 + ||X^T Y||_F) or after
    ``max_iters`` steps. Returns the iterate and the number of steps taken;
    starting at the optimum returns after zero steps.
    """
    if max_iters < 0:
        raise DomainError(f"max_iters must be >= 0, got {max_iters}")
    gram = as_gram(data)
    w = np.zeros((gram.d, gram.m)) if w0 is None else as_weight_array(w0).copy()
    if not np.isfinite(w).all():
        raise DivergenceError("initial iterate has non-finite entries")
    tol = rel_tol * (1.0 + gram.xty_norm)
    half_step = schedule.step / 2.0
    # divergence surfaces as an explicit error, not a runtime warning
    with np.errstate(over="ignore", invalid="ignore"):
        for iters in range(max_iters + 1):
            grad = grad_h(w, gram, sigma1, sigma2, eta)
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

    The raw left coefficient Sigma1^{-1} X^T X is not symmetric, so the
    system is rewritten with W' = Sigma1^{1/2} W as

        (Sigma1^{-1/2} X^T X Sigma1^{-1/2}) W' + W' (eta Sigma2) = Sigma1^{-1/2} X^T Y

    and solved by joint symmetric diagonalization. Shared instances only.
    """
    gram = as_gram(data)
    if not gram.shared:
        raise UnsupportedShapeError("Sylvester solver requires shared instances")
    decomp = sym_eig(sigma1)
    if decomp.values[0] <= 0:
        raise DomainError("sigma1 must be positive definite")
    inv_sqrt = (decomp.vectors / np.sqrt(decomp.values)) @ decomp.vectors.T
    a = symmetrize(inv_sqrt @ gram.xtx @ inv_sqrt)
    b = eta * symmetrize(np.asarray(sigma2, dtype=float))
    c = inv_sqrt @ gram.xty
    w_prime = sylvester_solve_spd(a, b, c)
    return WeightMatrix(inv_sqrt @ w_prime)


def resolve_w_solver(method: WSolver, shared: bool, md: int) -> WSolver:
    """Resolve AUTO: closed form for small shared systems (md <= 256), the
    Sylvester solve for larger shared ones, gradient descent otherwise."""
    method = WSolver(method)
    if method != WSolver.AUTO:
        return method
    if shared:
        return WSolver.CLOSED_FORM if md <= AUTO_CLOSED_FORM_MAX else WSolver.SYLVESTER
    return WSolver.GRADIENT_DESCENT


def solve_w(
    data,
    sigma1,
    sigma2,
    eta: float,
    l: float,
    u: float,
    method: WSolver = WSolver.AUTO,
    w0=None,
    gd_max_iters: int = 200_000,
    gd_rel_tol: float = 1e-8,
) -> WeightMatrix:
    """Dispatch to a weight solver; ``l``/``u`` size the gradient step."""
    gram = as_gram(data)
    method = resolve_w_solver(method, gram.shared, gram.d * gram.m)
    if method == WSolver.CLOSED_FORM:
        return solve_w_closed(gram, sigma1, sigma2, eta)
    if method == WSolver.SYLVESTER:
        return solve_w_sylvester(gram, sigma1, sigma2, eta)
    w, _ = solve_w_gd(
        gram,
        sigma1,
        sigma2,
        eta,
        schedule=step_schedule(gram.xtx_eigs, eta, l, u),
        w0=w0,
        max_iters=gd_max_iters,
        rel_tol=gd_rel_tol,
    )
    return w
