"""Closed-form minimization of the precision-matrix subproblems.

Each subproblem has the form

    minimize    tr(Sigma S) - c log|Sigma|
    subject to  l I <= Sigma <= u I

with S symmetric PSD (S = W Sigma2 W^T with c = m for the feature block,
S = W^T Sigma1 W with c = d for the task block). Diagonalizing S = V N V^T
reduces the matrix problem to independent scalar problems whose solution
is the clamp lambda_i = T_[l,u](c / nu_i) of :func:`clamped_spectrum`,
with nu_i = 0 sent to u. It takes S dense or as its decomposition, such as
:func:`~fetr.linalg.factor_eig` of a tall factor of S = F F^T, which reads
range(F)'s V and nu from the thin SVD of F and gives the complement nu = 0;
the minimizer then holds the same q columns, and u on the complement.
The reduction rests on the fact that
the minimum of lambda^T P nu over doubly stochastic P is attained at a
permutation, and for sorted inputs at the identity pairing;
:func:`brute_force_min_matching` enumerates permutations to certify that
combinatorial step at small sizes, and :func:`oracle_cov_minimize` is an
independent projected-gradient check of the whole minimizer.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .exceptions import CapacityError, DomainError
from .linalg import as_decomp, clip_spectrum, symmetrize


def cov_subobjective(sigma: np.ndarray, s: np.ndarray, c: float) -> float:
    """tr(Sigma S) - c log|Sigma|, read from the factors of
    :func:`~fetr.linalg.as_decomp`, Sigma = V diag(lam) V^T + lam_c (I - V V^T),
    as sum_i lam_i (V^T S V)_ii + lam_c tr((I - V V^T) S (I - V V^T)) and
    its log-determinant, as in the fit objective.

    Raises ``DomainError`` when sigma is not positive definite.
    """
    e = as_decomp(sigma)
    if not e.lowest > 0.0:
        raise DomainError("sigma is not positive definite")
    s = np.asarray(s, dtype=float)
    diag = np.sum(e.vectors * (s @ e.vectors), axis=0)  # (V^T S V)_ii
    trace = float(e.values @ diag)
    if e.codim:
        trace += e.complement * float(np.trace(e.perp(e.perp(s).T)))
    return trace - c * float(e.logdet())


def clamped_spectrum(s, c: float, l: float, u: float):
    """Eigenvalues nu of S, the ratios c / nu (infinite at nu = 0) and the
    exact minimizer V diag(T_[l,u](c / nu)) V^T of tr(Sigma S) - c log|Sigma|
    over the box, an :class:`~fetr.datatypes.EigenDecomp`, all in the
    minimizer's ascending order (nu descends). nu = 0 maps to u, where the
    scalar objective falls. S is read through :func:`~fetr.linalg.as_decomp`:
    dense, or already decomposed, such as :func:`~fetr.linalg.factor_eig` of a
    factor. nu and the ratios are those of the decomposition's q vectors; its
    complement value is mapped the same way, like any zero to u, into the
    minimizer's complement."""
    decomp = as_decomp(s)
    # PSD up to eigensolver roundoff; the complement's nu comes last
    nu = np.maximum(np.concatenate((decomp.values[::-1], (decomp.complement,))), 0.0)
    ratio = np.divide(c, nu, out=np.full_like(nu, np.inf), where=nu > 0)
    lam = clip_spectrum(ratio, l, u)
    return nu[:-1], ratio[:-1], decomp.with_values(lam[:-1], reverse=True, complement=lam[-1])


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
    c,
    l: float,
    u: float,
    iters: int = 20_000,
) -> np.ndarray:
    """Projected gradient descent on tr(Sigma S) - c log|Sigma|.

    A slow independent check of the closed-form minimizers: from ((l+u)/2) I,
    step by 1e-3 c / max(||S||_2, c / u) along -(S - c Sigma^{-1}) and project
    onto {l I <= Sigma <= u I}, ``iters`` times. A test fixture for k <= 6.
    ``s`` may be an (n, k, k) stack, with ``c`` a scalar or one per
    instance; the stack is iterated together, one batched eigh per
    iteration, and each instance's iterates are those of its own call.
    """
    s = symmetrize(np.asarray(s, dtype=float))
    k = s.shape[-1]
    if k > 6:
        raise CapacityError(f"oracle limited to k <= 6, got k={k}")
    c = np.asarray(c, dtype=float)[..., None, None]
    # c/u floors the denominator so that S = 0 still converges to u I.
    step = 1e-3 * c / np.maximum(np.linalg.norm(s, 2, axis=(-2, -1))[..., None, None], c / u)
    # every iterate is V clip(w) V^T from its own projection, so its inverse
    # reuses that decomposition and each iteration costs a single eigh
    vals = np.full(s.shape[:-1], (l + u) / 2.0)
    vecs = np.broadcast_to(np.eye(k), s.shape)
    for _ in range(iters):
        clipped = clip_spectrum(vals, l, u)[..., None, :]
        vecs_t = np.swapaxes(vecs, -1, -2)
        sigma = (vecs * clipped) @ vecs_t
        inv = (vecs / clipped) @ vecs_t
        vals, vecs = np.linalg.eigh(symmetrize(sigma - step * (s - c * inv)))
    return symmetrize((vecs * clip_spectrum(vals, l, u)[..., None, :]) @ np.swapaxes(vecs, -1, -2))
