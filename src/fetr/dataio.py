"""Dataset ingestion, synthetic generation, splitting, random Fourier
features and result serialization.

Manifest format (JSON, ``format_version`` 1). Shared-instance layout:

    {"format_version": 1, "d": 3,
     "shared_features_csv_path": "x.csv",
     "shared_targets_csv_path": "y.csv",      # n x m, one column per task
     "task_names": ["a", "b"],                 # optional
     "has_header": false}

Per-task layout:

    {"format_version": 1, "d": 27,
     "tasks": [{"name": "t0", "features_csv_path": "x0.csv",
                "targets_csv_path": "y0.csv"}, ...]}

A shared layout may alternatively list per-task target files (each a single
column) instead of one shared target matrix. Matrix CSVs are comma
separated, UTF-8, LF line endings, ``.`` decimal separator, one instance
per row, no header unless ``has_header`` is set. All randomness flows
through one seeded generator per operation.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .datatypes import MultitaskDataset, TrainReport, validate_dataset
from .exceptions import CsvParseError, DataError, ManifestError, SplitError

FLOAT_FORMAT = "{:.17g}"  # exact round trip for finite doubles


def generate_synthetic(n: int, d: int, m: int, seed: int) -> MultitaskDataset:
    """Shared-instance benchmark data: X uniform on [0,1]^d, linear targets.

    Draw order is fixed (X, then the ground-truth weights, then noise) so a
    seed pins the dataset bitwise: Y = X W0 + 0.01 * noise with W0 and
    noise standard normal.
    """
    if min(n, d, m) < 1:
        raise ValueError(f"n, d, m must be >= 1, got {n}, {d}, {m}")
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, d))
    w0 = rng.standard_normal((d, m))
    y = x @ w0 + 0.01 * rng.standard_normal((n, m))
    return validate_dataset([(x, y[:, i]) for i in range(m)])


def random_bounded_spd(k: int, l: float, u: float, rng) -> np.ndarray:
    """Random symmetric matrix with spectrum uniform in [l, u] (Haar basis)."""
    rng = np.random.default_rng(rng)
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    q = q * np.sign(np.diag(r))
    vals = rng.uniform(l, u, size=k)
    return (q * vals) @ q.T


@dataclass(frozen=True)
class TaskFiles:
    name: str
    features_csv_path: str | None
    targets_csv_path: str


@dataclass(frozen=True)
class DatasetManifest:
    """Parsed manifest; exactly one of the two feature layouts is populated."""

    format_version: int
    d: int
    tasks: tuple[TaskFiles, ...]
    shared_features_csv_path: str | None
    shared_targets_csv_path: str | None
    has_header: bool
    base_dir: Path

    def __post_init__(self):
        if self.format_version != 1:
            raise ManifestError(f"unsupported format_version {self.format_version}")
        per_task_features = [t.features_csv_path for t in self.tasks]
        if self.shared_features_csv_path is None:
            if not self.tasks or any(p is None for p in per_task_features):
                raise ManifestError(
                    "manifest must provide either shared_features_csv_path or "
                    "a features_csv_path for every task"
                )
            if self.shared_targets_csv_path is not None:
                raise ManifestError("shared_targets_csv_path requires shared features")
        else:
            if any(p is not None for p in per_task_features):
                raise ManifestError("cannot mix shared and per-task feature paths")
            if self.shared_targets_csv_path is None and not self.tasks:
                raise ManifestError("shared layout needs shared targets or task target files")
            if self.shared_targets_csv_path is not None and self.tasks:
                raise ManifestError("give shared targets or per-task targets, not both")


def read_manifest(path) -> DatasetManifest:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")
    try:
        tasks = tuple(
            TaskFiles(
                name=str(t.get("name", f"task{i}")),
                features_csv_path=t.get("features_csv_path"),
                targets_csv_path=t["targets_csv_path"],
            )
            for i, t in enumerate(raw.get("tasks", []))
        )
        manifest = DatasetManifest(
            format_version=int(raw["format_version"]),
            d=int(raw["d"]),
            tasks=tasks,
            shared_features_csv_path=raw.get("shared_features_csv_path"),
            shared_targets_csv_path=raw.get("shared_targets_csv_path"),
            has_header=bool(raw.get("has_header", False)),
            base_dir=path.parent,
        )
    except KeyError as exc:
        raise ManifestError(f"{path}: missing manifest key {exc}") from exc
    return manifest


def read_csv_matrix(path, has_header: bool = False) -> np.ndarray:
    """Read a numeric CSV as a 2-D array; errors carry file/line context."""
    path = Path(path)
    rows = []
    width = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for lineno, row in enumerate(csv.reader(fh), start=1):
                if lineno == 1 and has_header:
                    continue
                if not row:
                    continue
                try:
                    values = [float(cell) for cell in row]
                except ValueError:
                    raise CsvParseError(f"{path}:{lineno}: non-numeric cell") from None
                if width is None:
                    width = len(values)
                elif len(values) != width:
                    raise CsvParseError(
                        f"{path}:{lineno}: ragged row, expected {width} columns, "
                        f"got {len(values)}"
                    )
                rows.append(values)
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CsvParseError(f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def write_text(path, text: str) -> Path:
    """Write ``text`` as UTF-8 with LF line endings, creating the parent
    directory; any OS failure raises ``DataError``."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    return path


def write_csv_matrix(matrix, path) -> None:
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    rows = (",".join(FLOAT_FORMAT.format(v) for v in row) + "\n" for row in matrix)
    write_text(path, "".join(rows))


def load_manifest(path) -> MultitaskDataset:
    """Load the dataset a manifest describes and validate it."""
    manifest = read_manifest(path)

    def read(p):
        return read_csv_matrix(manifest.base_dir / p, manifest.has_header)

    def targets(p, x, one_column=True):
        # one target row per feature row; a task's target file has one column
        y, where = read(p), manifest.base_dir / p
        if one_column and y.shape[1] != 1:
            raise CsvParseError(f"{where}: task target file must have one column")
        if y.shape[0] != x.shape[0]:
            raise CsvParseError(f"{where}: {y.shape[0]} target rows for {x.shape[0]} feature rows")
        return y

    if manifest.shared_features_csv_path is None:
        pairs = []
        for t in manifest.tasks:
            x = read(t.features_csv_path)
            pairs.append((x, targets(t.targets_csv_path, x)[:, 0]))
    elif manifest.shared_targets_csv_path is None:
        x = read(manifest.shared_features_csv_path)
        pairs = [(x, targets(t.targets_csv_path, x)[:, 0]) for t in manifest.tasks]
    else:
        x = read(manifest.shared_features_csv_path)
        y = targets(manifest.shared_targets_csv_path, x, one_column=False)
        pairs = [(x, y[:, i]) for i in range(y.shape[1])]

    data = validate_dataset(pairs)
    if data.d != manifest.d:
        raise ManifestError(
            f"manifest declares d={manifest.d} but CSV data has d={data.d}"
        )
    return data


def kfold_split(data: MultitaskDataset, k: int, seed: int):
    """Seeded k-fold row split per task; fold j's test set is partition j.

    Shared-instance datasets are shuffled with a single permutation and X
    is indexed once per fold, so every fold dataset holds one X and stays
    shared; otherwise each task is permuted independently.
    """
    data = validate_dataset(data)
    if k < 2:
        raise SplitError(f"need at least 2 folds, got {k}")
    if min(data.n_per_task) < k:
        raise SplitError(
            f"smallest task has {min(data.n_per_task)} rows, cannot make {k} folds"
        )
    rng = np.random.default_rng(seed)
    if data.shared_instances:
        folds_per_task = [np.array_split(rng.permutation(data.n_per_task[0]), k)] * data.m
    else:
        folds_per_task = [np.array_split(rng.permutation(n), k) for n in data.n_per_task]

    splits = []
    for j in range(k):
        train_pairs, test_pairs = [], []
        rows = {}  # (x, folds) identities -> row indices and selected X, made once
        for task, folds in zip(data.tasks, folds_per_task):
            key = (id(task.x), id(folds))
            if key not in rows:
                test_idx = np.sort(folds[j])
                train_idx = np.sort(np.concatenate([f for i, f in enumerate(folds) if i != j]))
                rows[key] = (train_idx, test_idx, task.x[train_idx], task.x[test_idx])
            train_idx, test_idx, x_train, x_test = rows[key]
            train_pairs.append((x_train, task.y[train_idx]))
            test_pairs.append((x_test, task.y[test_idx]))
        splits.append((validate_dataset(train_pairs), validate_dataset(test_pairs)))
    return splits


def rff_features(x, omega, bias) -> np.ndarray:
    """z(x) = sqrt(2/p) cos(x omega + bias) for frozen frequencies."""
    omega = np.asarray(omega, dtype=float)
    p = omega.shape[1]
    return math.sqrt(2.0 / p) * np.cos(np.asarray(x, dtype=float) @ omega + bias)


def draw_rff_frequencies(d: int, p: int, bandwidth: float, seed: int, orthogonal: bool = False):
    """Sample frequencies omega (d x p) ~ N(0, bandwidth^-2 I) and phases b.

    With ``orthogonal`` the frequencies are orthogonalized in blocks of d
    columns, keeping chi-distributed column norms so the marginal law is
    unchanged.
    """
    if p < 1 or p % 2 != 0:
        raise ValueError(f"p must be a positive even integer, got {p}")
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be > 0, got {bandwidth}")
    rng = np.random.default_rng(seed)
    if not orthogonal:
        omega = rng.standard_normal((d, p)) / bandwidth
    else:
        blocks = []
        remaining = p
        while remaining > 0:
            q, r = np.linalg.qr(rng.standard_normal((d, d)))
            q = q * np.sign(np.diag(r))
            norms = np.linalg.norm(rng.standard_normal((d, d)), axis=1)
            blocks.append((q * norms)[:, : min(remaining, d)])
            remaining -= min(remaining, d)
        omega = np.concatenate(blocks, axis=1) / bandwidth
    bias = rng.uniform(0.0, 2.0 * math.pi, size=p)
    return omega, bias


def rff_transform(
    data: MultitaskDataset, p: int, bandwidth: float, seed: int, orthogonal: bool = False
) -> MultitaskDataset:
    """Replace features with a random Fourier map approximating an RBF kernel.

    In expectation z(x)^T z(y) = exp(-||x - y||^2 / (2 bandwidth^2)); the
    feature dimension becomes p.
    """
    data = validate_dataset(data)
    omega, bias = draw_rff_frequencies(data.d, p, bandwidth, seed, orthogonal)
    if data.shared_instances:
        z = rff_features(data.design(), omega, bias)
        pairs = [(z, t.y) for t in data.tasks]
    else:
        pairs = [(rff_features(t.x, omega, bias), t.y) for t in data.tasks]
    return validate_dataset(pairs)


def _config_echo(config) -> dict:
    out = asdict(config)
    out["w_solver"] = str(out["w_solver"].value)
    return out


def write_report(report: TrainReport, model, path_prefix) -> list[Path]:
    """Write the report bundle next to ``path_prefix``.

    Emits ``<prefix>.report.json`` (config echo, iterations, metrics,
    convergence flag), ``<prefix>.trace.csv`` and the three matrices as
    plain CSV at 17 significant digits.
    """
    prefix = Path(path_prefix)
    payload = {
        "config": _config_echo(model.config),
        "iterations": report.iterations,
        "converged": report.converged,
        "metrics": dict(report.metrics),
        "objective_evals": report.objective_evals,
        "final_objective": report.final_objective,
        "events": list(report.events),
        "per_block_seconds": dict(report.per_block_seconds),
    }
    paths = [
        write_text(
            prefix.with_name(prefix.name + ".report.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        ),
        write_text(
            prefix.with_name(prefix.name + ".trace.csv"),
            "iteration,block,seconds,objective\n"
            + "".join(
                f"{p.iteration},{p.block},{p.seconds:.6f},{FLOAT_FORMAT.format(p.objective)}\n"
                for p in report.trace
            ),
        ),
    ]
    for name, matrix in (
        ("sigma1", model.covariances.sigma1),
        ("sigma2", model.covariances.sigma2),
        ("weights", model.weights.matrix),
    ):
        out = prefix.with_name(f"{prefix.name}.{name}.csv")
        write_csv_matrix(matrix, out)
        paths.append(out)
    return paths
