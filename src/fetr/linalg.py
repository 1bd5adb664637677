"""Dense symmetric linear-algebra kernels used by the solvers.

Everything here is a pure function over float64 arrays. Symmetric inputs
are symmetrized as (S + S^T)/2 before any eigendecomposition or Cholesky
factorization, since floating-point drift otherwise breaks the solver
assumptions.
"""
from __future__ import annotations

import numpy as np

from .datatypes import EigenDecomp
from .exceptions import DomainError, NumericError, SingularMatrixError

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
    resid = np.linalg.norm(decomp.reconstruct() - ssym)
    if resid > 1e-9 * (1.0 + np.linalg.norm(ssym)):
        raise NumericError(f"eigendecomposition residual {resid:.3e} too large")
    return decomp


def logdet_spd(s: np.ndarray, name: str) -> float:
    """log|S| from the Cholesky factor L of (S + S^T)/2, 2 sum_i log L_ii.

    Backward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 10) and cheaper than an eigenvalue solve. Raises ``NumericError`` for non-finite input and ``DomainError``
    unless S is numerically positive definite; ``name`` labels the message.
    """
    s = np.asarray(s, dtype=float)
    if not np.isfinite(s).all():
        raise NumericError(f"{name} has non-finite entries")
    try:
        factor = np.linalg.cholesky(symmetrize(s))
    except np.linalg.LinAlgError:
        raise DomainError(f"{name} is not positive definite") from None
    return 2.0 * float(np.sum(np.log(np.diagonal(factor))))


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


def project_bounded_spd(s: np.ndarray, l: float, u: float) -> np.ndarray:
    """Frobenius-nearest matrix to S within {l I <= Sigma <= u I}.

    Eigendecomposes S, clamps each eigenvalue into [l, u] and reconstructs.
    """
    decomp = sym_eig(s)
    clamped = clip_spectrum(decomp.values, l, u)
    return symmetrize((decomp.vectors * clamped) @ decomp.vectors.T)


def sylvester_solve_spd(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve A W + W B = C for symmetric PSD A and symmetric PD B.

    With A = Qa diag(alpha) Qa^T and B = Qb diag(beta) Qb^T the transformed
    system is diagonal: W'' = C'' / (alpha_i + beta_j). The PSD/PD split
    keeps every denominator positive, which guarantees a unique solution.

    Parameters
    ----------
    a : (d, d) symmetric positive semidefinite
    b : (m, m) symmetric positive definite
    c : (d, m)

    Returns
    -------
    (d, m) solution matrix.
    """
    c = np.asarray(c, dtype=float)
    ea = sym_eig(a)
    eb = sym_eig(b)
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
    """Solve A x = rhs for symmetric positive definite A via Cholesky.

    Raises ``SingularMatrixError`` when A is not (numerically) positive
    definite.
    """
    from scipy.linalg import cho_factor, cho_solve

    try:
        factor = cho_factor(symmetrize(a), check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{context} is singular or not positive definite") from exc
    return cho_solve(factor, rhs, check_finite=False)
