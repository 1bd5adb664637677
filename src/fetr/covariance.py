"""Closed-form minimization of the precision-matrix subproblems.

Each subproblem has the form

    minimize    tr(Sigma S) - c log|Sigma|
    subject to  l I <= Sigma <= u I

with S symmetric PSD (S = W Sigma2 W^T with c = m for the feature block,
S = W^T Sigma1 W with c = d for the task block). Diagonalizing S = V N V^T
reduces the matrix problem to independent scalar problems whose solution
is the clamp lambda_i = T_[l,u](c / nu_i) of :func:`clamped_spectrum`,
with nu_i = 0 sent to u. The reduction rests on the fact that the minimum
of lambda^T P nu over doubly stochastic P is attained at a permutation,
and for sorted inputs at the identity pairing;
:func:`brute_force_min_matching` enumerates permutations to certify that
combinatorial step at small sizes, and :func:`oracle_cov_minimize` is an
independent projected-gradient check of the whole minimizer.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .datatypes import EigenDecomp
from .exceptions import CapacityError, DomainError
from .linalg import as_decomp, clip_spectrum, sym_eig, symmetrize


def cov_subobjective(sigma: np.ndarray, s: np.ndarray, c: float) -> float:
    """tr(Sigma S) - c log|Sigma|, read from the factors Sigma = V diag(lam) V^T
    of :func:`~fetr.linalg.as_decomp` as sum_i lam_i (V^T S V)_ii and
    sum(log lam), as in the fit objective.

    Raises ``DomainError`` when sigma is not positive definite.
    """
    e = as_decomp(sigma)
    if not e.values[0] > 0.0:
        raise DomainError("sigma is not positive definite")
    diag = np.sum(e.vectors * (np.asarray(s, dtype=float) @ e.vectors), axis=0)  # (V^T S V)_ii
    return float(e.values @ diag) - c * float(np.sum(np.log(e.values)))


def clamped_spectrum(s: np.ndarray, c: float, l: float, u: float):
    """Eigenvalues nu of S, the ratios c / nu (infinite at nu = 0) and the
    exact minimizer V diag(T_[l,u](c / nu)) V^T of tr(Sigma S) - c log|Sigma|
    over the box, an :class:`EigenDecomp`, all in the minimizer's ascending
    order (nu descends). nu = 0 maps to u, where the scalar objective falls."""
    decomp = sym_eig(s)
    nu = np.maximum(decomp.values[::-1], 0.0)  # PSD up to eigensolver roundoff
    ratio = np.divide(c, nu, out=np.full_like(nu, np.inf), where=nu > 0)
    return nu, ratio, decomp.with_values(clip_spectrum(ratio, l, u), reverse=True)


def scale_to_box(sigma1: EigenDecomp, nu: np.ndarray, sigma2: EigenDecomp, l: float, u: float):
    """Move along the objective's scale ray at fixed W as far as the box allows.

    ``sigma1`` holds the eigenvectors of W S W^T (S positive definite, so its
    range is range(W)) in the order of their eigenvalues ``nu``, descending,
    as :func:`clamped_spectrum` leaves them; eigenvalues below d eps max(nu)
    count as the null space. With P the projection onto range(W), of rank r,
    Sigma1 -> D Sigma1 D with D = P / sqrt(c) + (I - P) and Sigma2 -> c Sigma2
    keep tr(Sigma1 W Sigma2 W^T), since D W = W / sqrt(c), and lower the
    objective by eta m (d - r) log c. Returns the moved pair and the largest
    feasible c = min(u / max eig Sigma2, min eig of Sigma1 on range(W) / l),
    or the inputs and 1.0 when r = d or that c is not above 1.
    """
    in_range = nu > nu.size * np.finfo(float).eps * nu[0]
    if in_range.all():
        return sigma1, sigma2, 1.0
    c = min(u / sigma2.values[-1], np.min(sigma1.values[in_range], initial=np.inf) / l)
    if not c > 1.0:
        return sigma1, sigma2, 1.0
    # the range comes first and only shrinks, so the values stay ascending
    lam1 = np.where(in_range, sigma1.values / c, sigma1.values)
    return (
        sigma1.with_values(clip_spectrum(lam1, l, u)),
        sigma2.with_values(clip_spectrum(c * sigma2.values, l, u)),
        c,
    )


def matching_weight(lam, nu, permutation) -> float:
    """Weight sum_i lam_i * nu_{pi(i)} of a perfect matching."""
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)
    return float(np.sum(lam * nu[np.asarray(permutation, dtype=int)]))


@dataclass(frozen=True)
class MatchingInstance:
    """A perfect matching between sorted weight vectors.

    ``lam`` is positive and sorted descending, ``nu`` nonnegative sorted
    ascending; ``permutation`` maps lam-index to nu-index and ``weight`` is
    the resulting sum, recomputable from the fields.
    """

    lam: tuple[float, ...]
    nu: tuple[float, ...]
    permutation: tuple[int, ...]
    weight: float

    def __post_init__(self):
        k = len(self.lam)
        if sorted(self.permutation) != list(range(k)):
            raise DomainError(f"permutation {self.permutation} is not a bijection on [{k}]")
        recomputed = matching_weight(self.lam, self.nu, self.permutation)
        if abs(recomputed - self.weight) > 1e-12 * (1.0 + abs(recomputed)):
            raise DomainError(
                f"stored weight {self.weight!r} does not match recomputed {recomputed!r}"
            )


def brute_force_min_matching(lam, nu) -> MatchingInstance:
    """Minimum-weight perfect matching by enumerating all k! permutations.

    ``lam`` must be positive sorted descending and ``nu`` nonnegative
    sorted ascending, both of length k <= 8. Ties are broken by the
    lexicographically smallest permutation.
    """
    lam = np.asarray(lam, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if lam.shape != nu.shape or lam.ndim != 1:
        raise DomainError(f"expected equal-length vectors, got {lam.shape} and {nu.shape}")
    k = lam.shape[0]
    if k > 8:
        raise CapacityError(f"brute-force matching limited to k <= 8, got k={k}")
    if np.any(lam <= 0) or np.any(np.diff(lam) > 0):
        raise DomainError("lam must be positive and sorted descending")
    if np.any(nu < 0) or np.any(np.diff(nu) < 0):
        raise DomainError("nu must be nonnegative and sorted ascending")

    best_perm = None
    best_weight = np.inf
    for perm in itertools.permutations(range(k)):
        weight = matching_weight(lam, nu, perm)
        if weight < best_weight:
            best_weight = weight
            best_perm = perm
    return MatchingInstance(
        lam=tuple(lam), nu=tuple(nu), permutation=best_perm, weight=best_weight
    )


def oracle_cov_minimize(
    s: np.ndarray,
    c: float,
    l: float,
    u: float,
    iters: int = 20_000,
    step: float | None = None,
) -> np.ndarray:
    """Projected gradient descent on tr(Sigma S) - c log|Sigma|.

    A slow independent check of the closed-form minimizers: starting from
    ((l+u)/2) I, repeatedly step along -(S - c Sigma^{-1}) and project back
    onto {l I <= Sigma <= u I}. Intended as a test fixture for k <= 6.
    """
    s = symmetrize(np.asarray(s, dtype=float))
    k = s.shape[0]
    if k > 6:
        raise CapacityError(f"oracle limited to k <= 6, got k={k}")
    if step is None:
        # c/u floors the denominator so that S = 0 still converges to u I.
        step = 1e-3 * c / max(float(np.linalg.norm(s, 2)), c / u)
    # every iterate is V clip(w) V^T from its own projection, so its inverse
    # reuses that decomposition and each iteration costs a single eigh
    vals = np.full(k, (l + u) / 2.0)
    vecs = np.eye(k)
    for _ in range(iters):
        clipped = clip_spectrum(vals, l, u)
        sigma = (vecs * clipped) @ vecs.T
        inv = (vecs / clipped) @ vecs.T
        vals, vecs = np.linalg.eigh(symmetrize(sigma - step * (s - c * inv)))
    return symmetrize((vecs * clip_spectrum(vals, l, u)) @ vecs.T)
