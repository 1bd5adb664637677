"""Domain types shared by all modules, with validated invariants.

All types check their invariants when built, are immutable after it and
safe to share across threads; wrapped numpy arrays, every dataset's
included, are copies with the writeable flag cleared. A dataset holds one
frozen copy per distinct input array, so tasks given the same design
matrix share one stored X. Two values are cached on first use, an
:class:`EigenDecomp`'s dense matrix and :attr:`MultitaskDataset.gram`;
both are pure functions of frozen arrays, so from Python 3.12 on, where
``cached_property`` takes no lock, a race can only compute one twice.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import DataValidationError, DomainError, NumericError, UnsupportedShapeError


def is_number(value, integral: bool = False) -> bool:
    """Whether ``value`` is a real number, integral if asked, numpy's included,
    and not a bool, which Python counts as an integer."""
    kind = numbers.Integral if integral else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool)


def check_at_least(name: str, value, least, integral: bool = False) -> None:
    """Raise ``DomainError`` unless ``value`` is a finite :func:`is_number` >= ``least``."""
    if not (is_number(value, integral) and (integral or math.isfinite(value)) and value >= least):
        what = f"an integer >= {least}" if integral else f">= {least} and finite"
        raise DomainError(f"{name} must be {what}, got {value!r}")


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
    """Per-task design matrices and targets, valid because it exists.

    Built from any sequence of (x, y) pairs, :class:`Task` values included: each x
    must be a 2-D array with a common number of columns d and at least one
    row, and each y holds one finite target per row. Each distinct input array
    is finite-checked and copied into a frozen array once; tasks that passed
    the same x object hold that one copy, so later writes to the caller's
    arrays do not reach the dataset. When all design matrices are the same
    object or equal in shape and value, every task holds the first task's X,
    which is what :attr:`shared_instances` reads; :meth:`design` and
    :meth:`targets` then expose the stacked n x d and n x m views.
    """

    tasks: tuple[Task, ...]

    def __post_init__(self):
        pairs = list(self.tasks)
        if len(pairs) == 0:
            raise DataValidationError("at least one task is required")
        frozen_x: dict[int, np.ndarray] = {}  # id of an input x -> its frozen copy
        tasks = []
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
                if tasks and x.shape[1] != tasks[0].x.shape[1]:
                    raise DataValidationError(
                        f"task {i}: inconsistent feature dimension {x.shape[1]}, "
                        f"expected {tasks[0].x.shape[1]}"
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
        if all(t.x is x0 or (t.x.shape == x0.shape and np.array_equal(t.x, x0)) for t in tasks[1:]):
            tasks = [Task(x=x0, y=t.y) for t in tasks]
        object.__setattr__(self, "tasks", tuple(tasks))

    @property
    def d(self) -> int:
        return self.tasks[0].x.shape[1]

    @property
    def shared_instances(self) -> bool:
        """Whether every task holds the first task's X object."""
        x0 = self.tasks[0].x
        return all(t.x is x0 for t in self.tasks)

    @property
    def m(self) -> int:
        return len(self.tasks)

    @property
    def n_per_task(self) -> tuple[int, ...]:
        return tuple(t.x.shape[0] for t in self.tasks)

    def design(self) -> np.ndarray:
        """Shared design matrix X of shape (n, d). Requires shared instances."""
        if not self.shared_instances:
            raise UnsupportedShapeError("dataset does not share instances across tasks")
        return self.tasks[0].x

    def targets(self) -> np.ndarray:
        """Shared target matrix Y of shape (n, m). Requires shared instances."""
        if not self.shared_instances:
            raise UnsupportedShapeError("dataset does not share instances across tasks")
        return np.column_stack([t.y for t in self.tasks])

    @cached_property
    def gram(self):
        """This dataset's :class:`~fetr.wsolvers.GramCache`, built on first use."""
        from .wsolvers import GramCache  # wsolvers imports this module
        return GramCache(self)


def validate_dataset(raw) -> MultitaskDataset:
    """``raw`` if it is a :class:`MultitaskDataset`, which is frozen and valid
    since it exists, else the dataset built from ``raw``'s (x, y) pairs."""
    return raw if isinstance(raw, MultitaskDataset) else MultitaskDataset(raw)


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


def as_weight_array(w, data: MultitaskDataset | None = None) -> np.ndarray:
    """Accept a WeightMatrix or a plain 2-D array, return the ndarray view;
    given ``data``, a shape other than its (d, m) raises ``DomainError``."""
    w = w.matrix if isinstance(w, WeightMatrix) else np.asarray(w, dtype=float)
    if data is not None and w.shape != (data.d, data.m):
        raise DomainError(f"weight shape {w.shape} does not match data ({data.d}, {data.m})")
    return w


@dataclass(frozen=True)
class CovariancePair:
    """Feature precision sigma1 (d x d) and task precision sigma2 (m x m).

    Construction rejects matrices that are not symmetric to within 1e-12
    relative Frobenius tolerance or whose spectrum (the eigenvalues of an
    :class:`EigenDecomp` argument) leaves [l, u] by more than 1e-9.
    """

    sigma1: np.ndarray
    sigma2: np.ndarray
    l: float
    u: float

    def __post_init__(self):
        from .linalg import as_decomp  # linalg imports this module
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
            eigs = as_decomp(getattr(self, name)).spectrum
            if eigs[0] < self.l - 1e-9 or eigs[-1] > self.u + 1e-9:
                raise DomainError(
                    f"{name} spectrum [{eigs[0]:.6g}, {eigs[-1]:.6g}] leaves "
                    f"bounds [{self.l:.6g}, {self.u:.6g}]"
                )
            object.__setattr__(self, name, s)


@dataclass(frozen=True)
class EigenDecomp:
    """A symmetric r x r matrix as the fitters hold a precision: q <= r
    orthonormal eigenvectors (the columns of ``vectors``, r x q), their
    eigenvalues sorted ascending, and ``complement``, the one eigenvalue of the
    (r - q)-dimensional orthogonal complement of their span, which takes its
    sorted place in :attr:`spectrum`; ``codim`` is r - q. A full
    decomposition is q = r, where ``complement`` is unused. ``np.asarray`` gives the dense
    V diag(values) V^T + complement (I - V V^T), symmetrized, in O(r^2 q),
    built once and read-only. No reader forms a basis of the complement: each
    reaches it by projecting off the vectors (:meth:`perp`, :meth:`root_blocks`)
    or as the projector I - V V^T in :meth:`dense`, which gives every f(Sigma).
    Building one, :meth:`with_values` and :meth:`map` raise ``NumericError``
    unless the values are sorted and they and the complement finite.
    """

    vectors: np.ndarray
    values: np.ndarray
    complement: float = 0.0
    codim: int = field(init=False, repr=False, compare=False)  # r - q

    def __post_init__(self):
        self._assign(_frozen_array(self.vectors), self.values, self.complement)
        v = self.vectors
        defect = v.T @ v
        defect.reshape(-1)[:: v.shape[1] + 1] -= 1.0  # V^T V - I, 1 off its diagonal in place
        ortho = math.sqrt(np.vdot(defect, defect))
        if not ortho <= 1e-9:  # a NaN or infinite entry makes the defect NaN or infinite
            raise NumericError(f"eigenvectors not orthonormal (defect {ortho:.3e})")

    def with_values(self, values, reverse: bool = False, complement=None) -> EigenDecomp:
        """These eigenvectors (the same array), or their column reversal, with new
        ``values`` and ``complement``, this one's when None; the vectors were
        validated when this decomposition was built, so only the values and the
        complement are checked."""
        out = object.__new__(EigenDecomp)
        vectors = _frozen_array(self.vectors[:, ::-1]) if reverse else self.vectors
        out._assign(vectors, values, self.complement if complement is None else complement)
        return out

    def map(self, f) -> EigenDecomp:
        """These eigenvectors with ``f``, elementwise and nondecreasing, applied to
        the values and the complement, which a full decomposition does not use."""
        if not self.codim:
            return self.with_values(f(self.values))
        out = f(np.concatenate((self.values, (self.complement,))))
        return self.with_values(out[:-1], complement=out[-1])

    def _assign(self, v: np.ndarray, values, complement) -> None:
        w, c = _frozen_array(values), float(complement)
        if v.ndim != 2 or w.ndim != 1 or w.shape[0] != v.shape[1] or w.shape[0] > v.shape[0]:
            raise NumericError(f"inconsistent decomposition shapes {v.shape}, {w.shape}")
        # a NaN fails a comparison, and a sorted array is finite if its ends are
        if not ((w[1:] >= w[:-1]).all() and math.isfinite(c)
                and (not w.size or math.isfinite(w[0]) and math.isfinite(w[-1]))):
            raise NumericError("eigenvalues must be finite and sorted ascending")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "values", w)
        object.__setattr__(self, "complement", c)
        object.__setattr__(self, "codim", v.shape[0] - v.shape[-1])

    @property
    def lowest(self) -> float:
        """The smallest eigenvalue, ``spectrum[0]``, read without building the spectrum."""
        if not self.codim:
            return self.values[0]
        return min(self.values[0], self.complement) if self.values.size else self.complement

    @property
    def spectrum(self) -> np.ndarray:
        """All r eigenvalues ascending: the values, with the complement repeated
        r - q times in its sorted place."""
        if not self.codim:
            return self.values
        v, at = self.values, np.searchsorted(self.values, self.complement)
        return _frozen_array(np.concatenate((v[:at], np.full(self.codim, self.complement), v[at:])))

    def logdet(self) -> float:
        """log|Sigma|, sum(log values) plus (r - q) log complement."""
        out = np.sum(np.log(self.values))
        return out + self.codim * math.log(self.complement) if self.codim else out

    def perp(self, x: np.ndarray) -> np.ndarray:
        """(I - V V^T) x, x's columns projected off the vectors, in O(r q) per column."""
        return x - self.vectors @ (self.vectors.T @ x)

    def root_blocks(self, x: np.ndarray) -> list[np.ndarray]:
        """The blocks of x R, R = [V diag(sqrt values), sqrt(complement) (I - V V^T)]:
        R R^T = Sigma, so x Sigma x^T is the sum of the blocks' Grams, each PSD."""
        xv = x @ self.vectors
        blocks = [xv * np.sqrt(self.values)]
        if self.codim:
            blocks.append(math.sqrt(self.complement) * (x - xv @ self.vectors.T))
        return blocks

    def dense(self, f) -> np.ndarray:
        """The r x r matrix f(Sigma) = V diag(f(values)) V^T + f(complement) (I - V V^T)
        for an elementwise f, in O(r^2 q)."""
        v = self.vectors
        s = (v * f(self.values)) @ v.T
        if self.codim:
            s = s + f(self.complement) * (np.eye(v.shape[0]) - v @ v.T)
        return s

    @cached_property
    def _dense(self) -> np.ndarray:
        s = self.dense(lambda values: values)
        return _frozen_array((s + s.T) / 2.0)

    def __array__(self, dtype=None, copy=None):
        return self._dense.astype(dtype or float, copy=bool(copy))


@dataclass(frozen=True)
class FetrConfig:
    """Hyperparameters and stopping rules for the trainer.

    ``gd_max_iters`` caps the conjugate-gradient steps of each W block on
    per-task data; it keeps the name it had when gradient descent ran there.
    The CLI and the solvers read their defaults here. A field that is not a
    number of its kind, or is a bool, raises ``DomainError``.
    """

    eta: float
    l: float = 1e-3
    u: float = 1e3
    max_outer_iters: int = 100
    rel_obj_tol: float = 1e-8
    gd_max_iters: int = 200_000

    def __post_init__(self):
        for name in ("eta", "l", "u", "rel_obj_tol"):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value)):
                raise DomainError(f"{name} must be finite and real (not a bool), got {value!r}")
        if not (self.eta > 0):
            raise DomainError(f"eta must be > 0, got {self.eta}")
        if not (0.0 < self.l < self.u):
            raise DomainError(f"need 0 < l < u, got l={self.l}, u={self.u}")
        if not (self.rel_obj_tol > 0):
            raise DomainError(f"rel_obj_tol must be > 0, got {self.rel_obj_tol}")
        for name in ("max_outer_iters", "gd_max_iters"):
            check_at_least(name, getattr(self, name), 1, integral=True)


class TracePoint(NamedTuple):
    """One objective recording: after `block` of outer `iteration`."""

    iteration: int
    block: str
    seconds: float
    objective: float
    evals: int


@dataclass(frozen=True)
class TrainReport:
    """Objective trace, timings, iteration count and final metrics.

    Times are seconds from the call. Three values are read from the trace:
    ``per_block_seconds[b]`` sums the gaps between consecutive trace points
    that end at a ``b`` point, so set-up, the time to the first point, the
    blocks and the tail after the last point add up to ``wall_seconds``;
    ``iterations`` is the sweep of the last point, whatever stopped the run;
    ``final_objective`` is its objective. ``w_iterations`` has one entry per
    W block: its conjugate-gradient steps, 0 for a direct solve.
    """

    trace: tuple[TracePoint, ...]
    converged: bool
    objective_evals: int
    setup_seconds: float = 0.0
    wall_seconds: float = 0.0
    w_iterations: tuple[int, ...] = ()
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

    @property
    def iterations(self) -> int:
        return self.trace[-1].iteration if self.trace else 0

    @property
    def per_block_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for prev, point in zip(self.trace, self.trace[1:]):
            out[point.block] = out.get(point.block, 0.0) + (point.seconds - prev.seconds)
        return out
