"""Domain types shared by all modules, with validated invariants.

All types are immutable after construction and safe to share across
threads; wrapped numpy arrays are copies with the writeable flag cleared.
A dataset holds one frozen copy per distinct input array, so tasks given
the same design matrix share one stored X.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import DataValidationError, DomainError, NumericError


def _frozen_array(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


class Task(NamedTuple):
    """One regression task: design matrix x of shape (n_i, d), targets y of shape (n_i,)."""

    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class MultitaskDataset:
    """Per-task design matrices and targets, with a shared-instances flag.

    ``shared_instances`` is true iff all tasks reference one common design
    matrix, in which case :meth:`design` and :meth:`targets` expose the
    stacked n x d and n x m views.
    """

    tasks: tuple[Task, ...]
    d: int
    shared_instances: bool

    @property
    def m(self) -> int:
        return len(self.tasks)

    @property
    def n_per_task(self) -> tuple[int, ...]:
        return tuple(t.x.shape[0] for t in self.tasks)

    def design(self) -> np.ndarray:
        """Shared design matrix X of shape (n, d). Requires shared instances."""
        if not self.shared_instances:
            from .exceptions import UnsupportedShapeError

            raise UnsupportedShapeError("dataset does not share instances across tasks")
        return self.tasks[0].x

    def targets(self) -> np.ndarray:
        """Shared target matrix Y of shape (n, m). Requires shared instances."""
        if not self.shared_instances:
            from .exceptions import UnsupportedShapeError

            raise UnsupportedShapeError("dataset does not share instances across tasks")
        return np.column_stack([t.y for t in self.tasks])


def validate_dataset(raw) -> MultitaskDataset:
    """Validate a task list and build a :class:`MultitaskDataset`.

    Parameters
    ----------
    raw : sequence of (x, y) pairs, or an existing MultitaskDataset
        Each x must be a 2-D array with a common number of columns d and
        at least one row; y must be 1-D with matching length.

    A dataset is returned as is: it is frozen and was built here, so
    validation is idempotent by identity. Each distinct input array is
    finite-checked and copied into a frozen array once; tasks that passed
    the same x object hold that one copy, so later writes to the caller's
    arrays do not reach the dataset. The shared-instances flag is set iff
    all design matrices are the same object or equal in shape and value;
    the tasks of a shared dataset then all hold the first task's X.
    """
    if isinstance(raw, MultitaskDataset):
        return raw
    pairs = list(raw)
    if len(pairs) == 0:
        raise DataValidationError("at least one task is required")

    frozen_x: dict[int, np.ndarray] = {}  # id of an input x -> its frozen copy
    tasks = []
    d = None
    for i, (x_in, y) in enumerate(pairs):
        y = np.asarray(y, dtype=float).reshape(-1)
        x = frozen_x.get(id(x_in))
        if x is None:
            x = np.asarray(x_in, dtype=float)
            if x.ndim != 2:
                raise DataValidationError(
                    f"task {i}: design matrix must be 2-D, got ndim={x.ndim}"
                )
            if x.shape[0] < 1:
                raise DataValidationError(f"task {i}: empty task (no data instances)")
            if d is None:
                d = x.shape[1]
            elif x.shape[1] != d:
                raise DataValidationError(
                    f"task {i}: inconsistent feature dimension {x.shape[1]}, expected {d}"
                )
            if not np.isfinite(x).all():
                raise DataValidationError(f"task {i}: non-finite values in data")
            x = frozen_x[id(x_in)] = _frozen_array(x)
        if y.shape[0] != x.shape[0]:
            raise DataValidationError(
                f"task {i}: {y.shape[0]} targets for {x.shape[0]} instances"
            )
        if not np.isfinite(y).all():
            raise DataValidationError(f"task {i}: non-finite values in data")
        tasks.append(Task(x=x, y=_frozen_array(y)))

    x0 = tasks[0].x
    shared = all(
        t.x is x0 or (t.x.shape == x0.shape and np.array_equal(t.x, x0)) for t in tasks[1:]
    )
    if shared:
        tasks = [Task(x=x0, y=t.y) for t in tasks]
    return MultitaskDataset(tasks=tuple(tasks), d=int(d), shared_instances=shared)


@dataclass(frozen=True)
class WeightMatrix:
    """The d x m parameter matrix; column i is the weight vector of task i."""

    matrix: np.ndarray

    def __post_init__(self):
        w = _frozen_array(self.matrix)
        if w.ndim != 2:
            raise DataValidationError(f"weight matrix must be 2-D, got ndim={w.ndim}")
        if not np.isfinite(w).all():
            raise NumericError("weight matrix has non-finite entries")
        object.__setattr__(self, "matrix", w)

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]


def as_weight_array(w) -> np.ndarray:
    """Accept a WeightMatrix or a plain 2-D array, return the ndarray view."""
    if isinstance(w, WeightMatrix):
        return w.matrix
    return np.asarray(w, dtype=float)


@dataclass(frozen=True)
class CovariancePair:
    """Feature precision sigma1 (d x d) and task precision sigma2 (m x m).

    Construction rejects matrices that are not symmetric to within 1e-12
    relative Frobenius tolerance or whose spectrum leaves [l, u] by more
    than 1e-9.
    """

    sigma1: np.ndarray
    sigma2: np.ndarray
    l: float
    u: float

    def __post_init__(self):
        if not (0.0 < self.l < self.u):
            raise DomainError(f"spectrum bounds must satisfy 0 < l < u, got l={self.l}, u={self.u}")
        for name in ("sigma1", "sigma2"):
            s = _frozen_array(getattr(self, name))
            if s.ndim != 2 or s.shape[0] != s.shape[1]:
                raise DomainError(f"{name} must be square, got shape {s.shape}")
            if not np.isfinite(s).all():
                raise NumericError(f"{name} has non-finite entries")
            asym = np.linalg.norm(s - s.T)
            if asym > 1e-12 * (1.0 + np.linalg.norm(s)):
                raise DomainError(f"{name} is not symmetric (asymmetry {asym:.3e})")
            eigs = np.linalg.eigvalsh((s + s.T) / 2.0)
            if eigs[0] < self.l - 1e-9 or eigs[-1] > self.u + 1e-9:
                raise DomainError(
                    f"{name} spectrum [{eigs[0]:.6g}, {eigs[-1]:.6g}] leaves "
                    f"bounds [{self.l:.6g}, {self.u:.6g}]"
                )
            object.__setattr__(self, name, s)


@dataclass(frozen=True)
class EigenDecomp:
    """Orthonormal eigenvectors (columns) with eigenvalues sorted ascending."""

    vectors: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        v = _frozen_array(self.vectors)
        w = _frozen_array(self.values)
        k = v.shape[0]
        if v.shape != (k, k) or w.shape != (k,):
            raise NumericError(f"inconsistent decomposition shapes {v.shape}, {w.shape}")
        if np.any(np.diff(w) < 0):
            raise NumericError("eigenvalues must be sorted ascending")
        ortho = np.linalg.norm(v.T @ v - np.eye(k))
        if ortho > 1e-9:
            raise NumericError(f"eigenvectors not orthonormal (defect {ortho:.3e})")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "values", w)

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.T


class WSolver(str, enum.Enum):
    """Strategy for the weight-matrix subproblem."""

    CLOSED_FORM = "closed"
    GRADIENT_DESCENT = "gd"
    SYLVESTER = "sylvester"
    AUTO = "auto"


@dataclass(frozen=True)
class FetrConfig:
    """Hyperparameters and stopping rules for the trainer."""

    eta: float
    l: float = 1e-3
    u: float = 1e3
    w_solver: WSolver = WSolver.AUTO
    max_outer_iters: int = 100
    rel_obj_tol: float = 1e-8
    gd_max_iters: int = 200_000
    gd_rel_tol: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "w_solver", WSolver(self.w_solver))
        if not (self.eta > 0):
            raise DomainError(f"eta must be > 0, got {self.eta}")
        if not (0.0 < self.l < self.u):
            raise DomainError(f"need 0 < l < u, got l={self.l}, u={self.u}")
        if not (self.rel_obj_tol > 0 and self.gd_rel_tol > 0):
            raise DomainError("tolerances must be > 0")
        if self.max_outer_iters < 1 or self.gd_max_iters < 1:
            raise DomainError("iteration limits must be >= 1")


class TracePoint(NamedTuple):
    """One objective recording: after `block` of outer `iteration`."""

    iteration: int
    block: str
    seconds: float
    objective: float
    evals: int


@dataclass(frozen=True)
class TrainReport:
    """Objective trace, per-block timings, iteration count and final metrics."""

    trace: tuple[TracePoint, ...]
    converged: bool
    iterations: int
    per_block_seconds: dict[str, float]
    objective_evals: int
    events: tuple[str, ...] = ()
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        times = [p.seconds for p in self.trace]
        if any(not math.isfinite(p.objective) for p in self.trace):
            raise NumericError("objective trace contains non-finite values")
        if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
            raise NumericError("trace timestamps must be nondecreasing")

    @property
    def final_objective(self) -> float:
        return self.trace[-1].objective if self.trace else math.nan
