"""Dense symmetric linear-algebra kernels used by the solvers.

Everything here is a pure function over float64 arrays or their
:class:`~fetr.datatypes.EigenDecomp`. Dense symmetric inputs are
symmetrized as (S + S^T)/2 before any eigendecomposition or Cholesky
factorization, since floating-point drift otherwise breaks the solver
assumptions.
"""
from __future__ import annotations

import numpy as np

from .datatypes import EigenDecomp
from .exceptions import DivergenceError, NumericError, SingularMatrixError

# Eigenvalues this close to a spectrum bound are snapped onto the bound.
SNAP_TOL = 1e-12


def symmetrize(s: np.ndarray) -> np.ndarray:
    """Return (S + S^T)/2."""
    s = np.asarray(s, dtype=float)
    return (s + s.T) / 2.0


def sym_eig(s: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    The input is symmetrized first. Raises ``NumericError`` for non-finite
    input or if the reconstruction V diag(w) V^T drifts from the input by
    more than 1e-9 relative Frobenius norm.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NumericError(f"expected a square matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise NumericError("matrix has non-finite entries")
    ssym = symmetrize(s)
    values, vectors = np.linalg.eigh(ssym)
    decomp = EigenDecomp(vectors=vectors, values=values)
    resid = np.linalg.norm(np.asarray(decomp) - ssym)
    if resid > 1e-9 * (1.0 + np.linalg.norm(ssym)):
        raise NumericError(f"eigendecomposition residual {resid:.3e} too large")
    return decomp


def as_decomp(s) -> EigenDecomp:
    """``s`` itself if it is an :class:`EigenDecomp`, else ``sym_eig(s)``."""
    return s if isinstance(s, EigenDecomp) else sym_eig(s)


def spd_inverse(sigma, context: str = "matrix") -> np.ndarray:
    """V diag(1/lam) V^T from :func:`as_decomp`. Raises ``SingularMatrixError``
    naming ``context`` unless lam_min > k eps lam_max for a k x k ``sigma``: the
    zero eigenvalues of a rank-deficient matrix come back as roundoff up to that size.
    """
    e = as_decomp(sigma)
    if not e.values[0] > e.values.size * np.finfo(float).eps * e.values[-1]:
        raise SingularMatrixError(f"{context} is singular or not positive definite")
    return symmetrize((e.vectors / e.values) @ e.vectors.T)


def clip_spectrum(values: np.ndarray, l: float, u: float) -> np.ndarray:
    """Clamp eigenvalues into [l, u], snapping near-bound values exactly.

    +inf maps to u; raises ``ValueError`` unless 0 < l < u.
    """
    if not (0.0 < l < u):
        raise ValueError(f"need 0 < l < u, got l={l}, u={u}")
    out = np.minimum(np.maximum(np.asarray(values, dtype=float), l), u)
    out[np.abs(out - l) <= SNAP_TOL * max(1.0, abs(l))] = l
    out[np.abs(out - u) <= SNAP_TOL * max(1.0, abs(u))] = u
    return out


def project_bounded_spd(s, l: float, u: float) -> EigenDecomp:
    """Frobenius-nearest matrix to S within {l I <= Sigma <= u I}.

    Clamps each eigenvalue of S (dense or an :class:`EigenDecomp`) into
    [l, u] and keeps the eigenvectors.
    """
    decomp = as_decomp(s)
    return decomp.with_values(clip_spectrum(decomp.values, l, u))


def sylvester_solve_spd(a, b, c: np.ndarray) -> np.ndarray:
    """Solve A W + W B = C for symmetric PSD A and symmetric PD B.

    With A = Qa diag(alpha) Qa^T and B = Qb diag(beta) Qb^T the transformed
    system is diagonal: W'' = C'' / (alpha_i + beta_j). The PSD/PD split
    keeps every denominator positive, which guarantees a unique solution.

    Parameters
    ----------
    a : (d, d) symmetric positive semidefinite, dense or an EigenDecomp
    b : (m, m) symmetric positive definite, dense or an EigenDecomp
    c : (d, m)

    Returns
    -------
    (d, m) solution matrix.
    """
    c = np.asarray(c, dtype=float)
    ea, eb = as_decomp(a), as_decomp(b)
    if c.shape != (ea.values.shape[0], eb.values.shape[0]):
        raise NumericError(
            f"right-hand side shape {c.shape} does not match "
            f"({ea.values.shape[0]}, {eb.values.shape[0]})"
        )
    denom = ea.values[:, None] + eb.values[None, :]
    if np.any(denom <= 0.0):
        raise SingularMatrixError(
            "spectra of A and -B overlap; the Sylvester system is singular"
        )
    ct = ea.vectors.T @ c @ eb.vectors
    return ea.vectors @ (ct / denom) @ eb.vectors.T


def solve_spd(a: np.ndarray, rhs: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Solve A x = rhs for symmetric positive definite A.

    A is symmetrized, and its Cholesky factor L is the positive definiteness
    test, with :func:`spd_inverse`'s rule on the pivots, since an exactly
    singular A can pass by roundoff: a failed factorization or solve, or
    min L_ii^2 <= k eps max L_jj^2 for a k x k A, raises ``SingularMatrixError``
    naming ``context``. A non-finite A raises ``NumericError`` naming
    ``context``: Cholesky returns a NaN factor for it rather than failing.
    """
    a = symmetrize(a)
    if not np.isfinite(a).all():
        raise NumericError(f"{context} has non-finite entries")
    singular = SingularMatrixError(f"{context} is singular or not positive definite")
    try:
        pivots = np.diagonal(np.linalg.cholesky(a)) ** 2
        if pivots.min() > pivots.size * np.finfo(float).eps * pivots.max():
            return np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise singular from exc
    raise singular


def conjugate_gradient(apply, rhs: np.ndarray, x0, tol: float, max_iters: int):
    """Conjugate gradients on ``apply(x) = rhs`` for a symmetric operator.

    Starts at ``x0``, or at zero without applying the operator when ``x0``
    is None, and stops before a step once the residual norm is at most
    ``tol``, after ``max_iters`` steps, or at a direction of nonpositive
    curvature, where the operator is not positive definite (Nocedal &
    Wright, ch. 5 and 7). Returns the iterate and the number of steps; a
    non-finite residual raises ``DivergenceError``.
    """
    if x0 is None:
        x, resid = np.zeros_like(rhs), rhs
    else:
        x = x0
        resid = rhs - apply(x0)
    direction = resid
    rr = float(np.sum(resid * resid))
    iters = 0
    while True:
        if not np.isfinite(rr):
            raise DivergenceError("conjugate-gradient residual became non-finite")
        if rr**0.5 <= tol or iters == max_iters:
            break
        a_dir = apply(direction)
        curvature = float(np.sum(direction * a_dir))
        if curvature <= 0.0:
            break
        alpha = rr / curvature
        x = x + alpha * direction
        resid = resid - alpha * a_dir
        rr_next = float(np.sum(resid * resid))
        direction = resid + (rr_next / rr) * direction
        rr = rr_next
        iters += 1
    return x, iters
