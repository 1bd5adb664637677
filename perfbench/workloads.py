"""The four benchmark workloads: inputs from a seed, one operation, and its check.

Inputs are generated here, by the benchmark's own code, and the program
receives only the resulting arrays (or, for ``large_shared``, CSV files and
a manifest). The correctness check recomputes the objective directly from
those arrays, so a change to the program's objective code cannot move the
reference it is judged against.
"""
from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Every fit uses the same spectrum box and regularization.
ETA, L, U = 1.0, 1e-2, 1e2
# Reference objectives exist for input seeds 0..REF_SEEDS-1; a run seed s
# uses input set s mod REF_SEEDS.
REF_SEEDS = 64
# Input set k of crit5_shared starts at generator seed k * CRIT5_STRIDE, and
# a run fits CRIT5_POOL consecutive seeds, wrapping round after the last
# input set. Sweep counts range 45-83 between single problems, so one
# problem per seed would make fit_s swing by a quarter from seed to seed;
# the median sweep count over 32 problems swings by 5% between input sets
# (first to third quartile), over 64 by 3%.
CRIT5_STRIDE = 32
CRIT5_POOL = 64
# The baselines do a fixed number of iterations, so their cost varies
# little between problems and a short pool suffices.
BASELINES_POOL = 4
# One school-shaped fit to convergence takes minutes, and the first W block
# alone needs about 40k gradient steps, so a fit is capped at 3 sweeps of at
# most 2000 steps each: about a second of fixed work, nearly all of it in
# gradient descent, and enough operations per run for a steady median.
SCHOOL_SWEEPS = 3
SCHOOL_GD_STEPS = 2000
# A large_shared fit converges after 13, 14 or 15 sweeps depending on the
# seed, a 7% step in work between seeds; capped at 12, every seed does the
# same number of sweeps.
LARGE_SWEEPS = 12
PGD_ITERS = 40
FLIPFLOP_EPS = 1e-3
# An operation fails when its final objective exceeds the seed commit's by
# more than this, relative: (final - ref) / (1 + |ref|).
EXCESS_TOL = 1e-8
# ... or when a precision eigenvalue leaves [L, U] by more than this.
BOX_SLACK = 1e-9
# Datasets of large_shared kept on disk; older seeds are deleted.
LARGE_CACHE_KEEP = 3

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
DATA_DIR = BENCH_DIR / "data"


def input_seed(seed: int) -> int:
    return seed % REF_SEEDS


def shared_synthetic(n: int, d: int, m: int, seed: int):
    """X uniform on [0,1]^d, Y = X W0 + 0.01 noise.

    Same draw order as ``fetr.generate_synthetic``, so a seed gives the
    same arrays bitwise, but independent of that function's future.
    """
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    w0 = rng.standard_normal((d, m))
    y = x @ w0 + 0.01 * rng.standard_normal((n, m))
    return x, y


def school_like(seed: int):
    """139 tasks, d=27, n_i uniform in 22..251; some tasks have n_i < d."""
    rng = np.random.default_rng(seed)
    w0 = rng.standard_normal((27, 139))
    sizes = rng.integers(22, 252, size=139)
    tasks = []
    for i, n in enumerate(sizes):
        x = rng.standard_normal((n, 27))
        tasks.append((x, x @ w0[:, i] + 0.5 * rng.standard_normal(n)))
    return tasks


@dataclass
class Problem:
    """One input of a workload: the benchmark's own arrays and the program's dataset."""

    key: str  # the input seed; with the workload it names the reference objective
    data: object  # what the program built from the inputs
    tasks: list | None = None  # [(x_i, y_i)], the benchmark's copy used by the check


def _shared_tasks(x, y):
    return [(x, y[:, i]) for i in range(y.shape[1])]


def _crit5_seeds(seed: int, pool: int):
    base = input_seed(seed) * CRIT5_STRIDE
    return [(base + j) % (REF_SEEDS * CRIT5_STRIDE) for j in range(pool)]


def large_manifest_path(seed: int) -> Path:
    return DATA_DIR / "large_shared" / f"seed{input_seed(seed)}" / "manifest.json"


def prepare_large(seed: int) -> Path:
    """Write the large_shared CSVs and manifest for ``seed`` once."""
    manifest = large_manifest_path(seed)
    if manifest.exists():
        os.utime(manifest.parent)
        return manifest
    root = manifest.parent.parent
    root.mkdir(parents=True, exist_ok=True)
    for stale in root.glob(".tmp-*"):  # left by a run that was killed while writing
        shutil.rmtree(stale, ignore_errors=True)
    tmp = root / f".tmp-{os.getpid()}"
    tmp.mkdir()
    x, y = shared_synthetic(20000, 100, 40, input_seed(seed))
    for name, array in (("x.csv", x), ("y.csv", y)):
        with open(tmp / name, "w") as fh:
            np.savetxt(fh, array, fmt="%.17g", delimiter=",")
            fh.flush()
            # written back now, not by the kernel while the run measures
            os.fsync(fh.fileno())
    (tmp / "manifest.json").write_text(json.dumps({
        "format_version": 1,
        "d": 100,
        "shared_features_csv_path": "x.csv",
        "shared_targets_csv_path": "y.csv",
    }))
    tmp.rename(manifest.parent)
    kept = sorted(
        (p for p in root.iterdir() if p.name.startswith("seed")),
        key=lambda p: p.stat().st_mtime,
        reverse=True,
    )
    for old in kept[LARGE_CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return manifest


class Workload:
    name: str
    # The calibration kernel (speed.KERNELS) to whose reference speed
    # fit_s is scaled.
    kernel = "compute"

    def problems(self, fetr, seed: int) -> list[Problem]:
        """The inputs of one run, built by the program from generated arrays."""
        raise NotImplementedError

    def operation(self, fetr, problem: Problem):
        """One closed-loop operation; returns [(reference key, model)]."""
        raise NotImplementedError

    def check_tasks(self, problem: Problem) -> list:
        return problem.tasks

    def config(self, fetr, **kw):
        return fetr.FetrConfig(eta=ETA, l=L, u=U, rel_obj_tol=1e-8, **kw)


class Crit5Shared(Workload):
    name = "crit5_shared"

    def _pool(self, fetr, seed, size):
        out = []
        for s in _crit5_seeds(seed, size):
            x, y = shared_synthetic(2000, 30, 10, s)
            tasks = _shared_tasks(x, y)
            out.append(Problem(key=str(s), data=fetr.validate_dataset(tasks), tasks=tasks))
        return out

    def problems(self, fetr, seed):
        return self._pool(fetr, seed, CRIT5_POOL)

    def operation(self, fetr, problem):
        return [(f"{self.name}/{problem.key}", fetr.fit_fetr(problem.data, self.config(fetr)))]


class LargeShared(Workload):
    name = "large_shared"
    # Its fits allocate and fill 640 MB of task copies, which the host
    # slows by other amounts than cache-resident arithmetic.
    kernel = "memory"

    def problems(self, fetr, seed):
        data = fetr.load_manifest(large_manifest_path(seed))
        return [Problem(key=str(input_seed(seed)), data=data)]

    def check_tasks(self, problem):
        # regenerated rather than kept from set-up, which only loads the CSVs
        if problem.tasks is None:
            x, y = shared_synthetic(20000, 100, 40, int(problem.key))
            problem.tasks = _shared_tasks(x, y)
        return problem.tasks

    def operation(self, fetr, problem):
        cfg = self.config(fetr, max_outer_iters=LARGE_SWEEPS)
        return [(f"{self.name}/{problem.key}", fetr.fit_fetr(problem.data, cfg))]


class SchoolPertask(Workload):
    name = "school_pertask"

    def problems(self, fetr, seed):
        tasks = school_like(input_seed(seed))
        return [Problem(key=str(input_seed(seed)), data=fetr.validate_dataset(tasks), tasks=tasks)]

    def operation(self, fetr, problem):
        cfg = self.config(fetr, max_outer_iters=SCHOOL_SWEEPS, gd_max_iters=SCHOOL_GD_STEPS)
        return [(f"{self.name}/{problem.key}", fetr.fit_fetr(problem.data, cfg))]


class BaselinesRace(Crit5Shared):
    name = "baselines_race"

    def problems(self, fetr, seed):
        return self._pool(fetr, seed, BASELINES_POOL)

    def operation(self, fetr, problem):
        pgd = fetr.fit_projected_gd(problem.data, self.config(fetr), max_iters=PGD_ITERS)
        flipflop = fetr.fit_mtfrl_flipflop(problem.data, ETA, FLIPFLOP_EPS, L, U)
        return [
            (f"{self.name}.pgd/{problem.key}", pgd),
            (f"{self.name}.flipflop/{problem.key}", flipflop),
        ]


WORKLOADS = {w.name: w for w in (Crit5Shared(), LargeShared(), SchoolPertask(), BaselinesRace())}


def direct_objective(tasks, w, sigma1, sigma2) -> float:
    """sum_i ||y_i - X_i w_i||^2 + eta tr(S1 W S2 W^T) - eta (m log|S1| + d log|S2|)."""
    d, m = w.shape
    shared = all(x is tasks[0][0] for x, _ in tasks)
    if shared:
        y = np.column_stack([t[1] for t in tasks])
        loss = float(np.sum((y - tasks[0][0] @ w) ** 2))
    else:
        loss = sum(float(np.sum((y - x @ w[:, i]) ** 2)) for i, (x, y) in enumerate(tasks))
    sign1, logdet1 = np.linalg.slogdet(sigma1)
    sign2, logdet2 = np.linalg.slogdet(sigma2)
    if sign1 <= 0 or sign2 <= 0:
        raise ValueError("precision matrix is not positive definite")
    trace = float(np.sum((sigma1 @ w @ sigma2) * w))
    return float(loss + ETA * trace - ETA * (m * logdet1 + d * logdet2))


def load_references() -> dict:
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())["objectives"]


def check(tasks, key: str, model, references: dict) -> tuple[float, list[str]]:
    """Objective excess over the reference, from the benchmark's own formula,
    and a message for every failed check."""
    w = np.asarray(model.weights.matrix, dtype=float)
    s1 = np.asarray(model.covariances.sigma1, dtype=float)
    s2 = np.asarray(model.covariances.sigma2, dtype=float)
    failures = []
    for name, a in (("W", w), ("Sigma1", s1), ("Sigma2", s2)):
        if not np.isfinite(a).all():
            failures.append(f"{key}: {name} has non-finite entries")
    if failures:
        return math.nan, failures
    for name, s in (("Sigma1", s1), ("Sigma2", s2)):
        eigs = np.linalg.eigvalsh((s + s.T) / 2.0)
        if eigs[0] < L - BOX_SLACK or eigs[-1] > U + BOX_SLACK:
            failures.append(f"{key}: {name} spectrum [{eigs[0]:.6g}, {eigs[-1]:.6g}] leaves [{L}, {U}]")
    final = direct_objective(tasks, w, s1, s2)
    ref = references.get(key)
    if ref is None:
        failures.append(f"{key}: no reference objective")
        return math.nan, failures
    excess = (final - ref) / (1.0 + abs(ref))
    if not excess <= EXCESS_TOL:
        failures.append(f"{key}: objective {final!r} exceeds reference {ref!r} (excess {excess:.3e})")
    return excess, failures
