"""Dense symmetric linear-algebra kernels used by the solvers.

Everything here is a pure function over float64 arrays or their
:class:`~fetr.datatypes.EigenDecomp`. Dense symmetric inputs are
symmetrized as (S + S^T)/2 before any eigendecomposition or Cholesky
factorization, since floating-point drift otherwise breaks the solver
assumptions.
"""
from __future__ import annotations

import math

import numpy as np

from .datatypes import EigenDecomp
from .exceptions import DivergenceError, NumericError, SingularMatrixError

# Eigenvalues this close to a spectrum bound are snapped onto the bound.
SNAP_TOL = 1e-12


def symmetrize(s: np.ndarray) -> np.ndarray:
    """Return (S + S^T)/2, transposing the last two axes of a stack."""
    s = np.asarray(s, dtype=float)
    return (s + np.swapaxes(s, -1, -2)) / 2.0


def _frobenius(a: np.ndarray) -> float:
    """||A||_F as sqrt(<A, A>), one pass over A."""
    return math.sqrt(np.vdot(a, a))


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
    resid = _frobenius((vectors * values) @ vectors.T - ssym)
    if resid > 1e-9 * (1.0 + _frobenius(ssym)):
        raise NumericError(f"eigendecomposition residual {resid:.3e} too large")
    return decomp


def factor_eig(f: np.ndarray) -> tuple[EigenDecomp, np.ndarray]:
    """Eigendecomposition of F F^T for a k x n factor F, read from the thin SVD
    F = U diag(s) V^T without forming the product: the min(k, n) columns of U
    with eigenvalues s^2, ascending, and complement value 0, the eigenvalue of
    F F^T off range(U) when k > n; and V, the right singular vectors in the
    same order. Forming F F^T squares the condition number,
    so its small eigenvalues carry an absolute error of about eps ||F||^2
    (Higham, "Accuracy and Stability of Numerical Algorithms", 2002); s^2 keeps
    their digits, and no k x k basis is formed.

    Raises ``NumericError`` for non-finite input or if U diag(s) V^T drifts
    from F by more than 1e-9 relative Frobenius norm.
    """
    f = np.asarray(f, dtype=float)
    if not np.isfinite(f).all():
        raise NumericError("factor has non-finite entries")
    u, s, vt = np.linalg.svd(f, full_matrices=False)
    resid = _frobenius((u * s) @ vt - f)
    if resid > 1e-9 * (1.0 + _frobenius(f)):
        raise NumericError(f"singular value decomposition residual {resid:.3e} too large")
    return EigenDecomp(vectors=u[:, ::-1], values=(s * s)[::-1], complement=0.0), vt[::-1].T


def as_decomp(s) -> EigenDecomp:
    """``s`` itself if it is an :class:`EigenDecomp`, else ``sym_eig(s)``."""
    return s if isinstance(s, EigenDecomp) else sym_eig(s)


def above_roundoff(values, largest, k: int):
    """values > k eps largest: which ``values`` are not the roundoff of a zero
    next to ``largest`` in a k x k matrix, whose rank deficiency eigensolvers and
    pivots return as roundoff up to that size. A NaN is never above it."""
    return values > k * np.finfo(float).eps * largest


def spd_inverse(sigma, context: str = "matrix") -> np.ndarray:
    """V diag(1/lam) V^T + (I - V V^T) / complement from :func:`as_decomp`.
    Raises ``SingularMatrixError`` naming ``context`` unless lam_min is
    :func:`above_roundoff` next to lam_max for a k x k ``sigma``.
    """
    e = as_decomp(sigma)
    lam = e.spectrum
    if not above_roundoff(lam[0], lam[-1], lam.size):
        raise SingularMatrixError(f"{context} is singular or not positive definite")
    return symmetrize(e.dense(np.reciprocal))


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

    Clamps each eigenvalue of S (dense or an :class:`EigenDecomp`, its
    complement value too) into [l, u] and keeps the eigenvectors.
    """
    return as_decomp(s).map(lambda values: clip_spectrum(values, l, u))


def sylvester_solve_spd(a, b, c: np.ndarray) -> np.ndarray:
    """Solve A W + W B = C for symmetric PSD A and symmetric PD B.

    With A = Qa diag(alpha) Qa^T and B = Qb diag(beta) Qb^T the transformed
    system is diagonal: W'' = C'' / (alpha_i + beta_j). The PSD/PD split
    keeps every denominator positive, which guarantees a unique solution.
    A decomposition with a complement adds, for each complement, the block
    of C projected onto it by :meth:`~fetr.datatypes.EigenDecomp.perp`,
    divided by its own sums, so no basis of a complement is formed.

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
    if c.shape != (ea.vectors.shape[0], eb.vectors.shape[0]):
        raise NumericError(
            f"right-hand side shape {c.shape} does not match "
            f"({ea.vectors.shape[0]}, {eb.vectors.shape[0]})"
        )
    if not ea.lowest + eb.lowest > 0.0:
        raise SingularMatrixError(
            "spectra of A and -B overlap; the Sylvester system is singular"
        )
    alpha, beta = ea.values[:, None], eb.values[None, :]
    left = ea.vectors.T @ c
    w = ea.vectors @ ((left @ eb.vectors) / (alpha + beta)) @ eb.vectors.T
    if eb.codim:
        w = w + ea.vectors @ (eb.perp(left.T).T / (alpha + eb.complement))
    if ea.codim:
        off_a = ea.perp(c)
        w = w + ((off_a @ eb.vectors) / (ea.complement + beta)) @ eb.vectors.T
        if eb.codim:
            w = w + eb.perp(off_a.T).T / (ea.complement + eb.complement)
    return w


def solve_spd(a: np.ndarray, rhs: np.ndarray, context: str = "matrix") -> np.ndarray:
    """Solve A x = rhs for symmetric positive definite A, or for every member
    of a (..., k, k) stack A, with ``rhs`` as :func:`numpy.linalg.solve` takes it.

    A is symmetrized, and its Cholesky factor L is the positive definiteness
    test, with :func:`above_roundoff` on the pivots, since an exactly singular
    A can pass by roundoff: a failed factorization or solve, or a min L_ii^2
    not above roundoff next to max L_jj^2 for a k x k A or any member of a
    stack, raises ``SingularMatrixError`` naming ``context``. A non-finite A raises
    ``NumericError`` naming ``context``: Cholesky returns a NaN factor for it
    rather than failing.
    """
    a = symmetrize(a)
    if not np.isfinite(a).all():
        raise NumericError(f"{context} has non-finite entries")
    singular = SingularMatrixError(f"{context} is singular or not positive definite")
    try:
        pivots = np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1) ** 2
        if np.all(above_roundoff(pivots.min(axis=-1), pivots.max(axis=-1), pivots.shape[-1])):
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
