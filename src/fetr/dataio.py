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
column) instead of one shared target matrix. ``format_version`` and ``d``
are integers, paths strings and ``has_header`` a boolean; the ``name`` and
``task_names`` labels are ignored. Matrix CSVs are comma separated, UTF-8,
LF line endings, ``.`` decimal separator, one instance per row, no header
unless ``has_header`` is set. All randomness flows through one seeded
generator per operation.
"""
from __future__ import annotations

import copy
import csv
import json
import math
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .datatypes import MultitaskDataset, TracePoint, TrainReport, is_number, validate_dataset
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


def read_csv_matrix(path, has_header: bool = False) -> np.ndarray:
    """Read a numeric CSV as a 2-D array; errors carry file/line context.

    numpy parses the file; only when it fails or finds no rows does
    :func:`_locate_csv_error` read it again, line by line, to name the line.
    """
    path = Path(path)
    try:
        with warnings.catch_warnings():  # no rows is reported below, not warned
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            out = np.loadtxt(
                path, delimiter=",", quotechar='"', comments=None,
                skiprows=int(has_header), ndmin=2, encoding="utf-8",
            )
        if out.shape[0]:
            return out
        reason = "no data rows"
    except OSError as exc:
        raise CsvParseError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        reason = str(exc)
    _locate_csv_error(path, has_header)
    raise CsvParseError(f"{path}: {reason}")


def _decoded_lines(fh, path: Path):
    """Lines of the binary file ``fh`` as UTF-8 text; a line that does not
    decode raises ``CsvParseError`` naming ``path`` and the line."""
    for lineno, line in enumerate(fh, start=1):
        try:
            yield line.decode("utf-8")
        except UnicodeDecodeError:
            raise CsvParseError(f"{path}:{lineno}: not UTF-8 text") from None


def _locate_csv_error(path: Path, has_header: bool) -> None:
    """Raise ``CsvParseError`` naming the first undecodable line, non-numeric
    cell or ragged row of ``path``; return if every line parses."""
    width = None
    with open(path, "rb") as fh:
        for lineno, row in enumerate(csv.reader(_decoded_lines(fh, path)), start=1):
            if (lineno == 1 and has_header) or not row:
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


_JSON_KINDS = {int: "an integer", str: "a string", bool: "true or false", list: "a list of objects"}


def load_manifest(path) -> MultitaskDataset:
    """Load the dataset a manifest describes and validate it. The types of
    the values and then the layout are checked before any CSV is opened."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    except ValueError as exc:  # malformed JSON or not UTF-8
        raise ManifestError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ManifestError(f"{path}: manifest must be a JSON object")

    def value(obj, key, kind, required=False):
        # obj[key] if its JSON type is kind; None for an absent or null optional key
        if obj.get(key) is None and not required:
            return None
        if key not in obj:
            raise ManifestError(f"{path}: missing manifest key {key!r}")
        v = obj[key]
        # exact types: a JSON true is not the integer 1; the one list holds tasks
        if type(v) is not kind or kind is list and any(type(t) is not dict for t in v):
            raise ManifestError(f"{path}: {key} must be {_JSON_KINDS[kind]}, got {json.dumps(v)}")
        return v

    version = value(raw, "format_version", int, required=True)
    if version != 1:
        raise ManifestError(f"unsupported format_version {version}")
    d = value(raw, "d", int, required=True)
    shared_x = value(raw, "shared_features_csv_path", str)
    shared_y = value(raw, "shared_targets_csv_path", str)
    has_header = value(raw, "has_header", bool) is True
    tasks = value(raw, "tasks", list) or []
    task_x = [value(t, "features_csv_path", str) for t in tasks]
    task_y = [value(t, "targets_csv_path", str, required=True) for t in tasks]

    if shared_x is None:
        if not tasks or None in task_x:
            raise ManifestError(
                "manifest must provide either shared_features_csv_path or "
                "a features_csv_path for every task"
            )
        if shared_y is not None:
            raise ManifestError("shared_targets_csv_path requires shared features")
    elif any(p is not None for p in task_x):
        raise ManifestError("cannot mix shared and per-task feature paths")
    elif shared_y is None and not tasks:
        raise ManifestError("shared layout needs shared targets or task target files")
    elif shared_y is not None and tasks:
        raise ManifestError("give shared targets or per-task targets, not both")

    def read(p):
        return read_csv_matrix(path.parent / p, has_header)

    def targets(p, x, one_column=True):
        # one target row per feature row; a task's target file has one column
        y, where = read(p), path.parent / p
        if one_column and y.shape[1] != 1:
            raise CsvParseError(f"{where}: task target file must have one column")
        if y.shape[0] != x.shape[0]:
            raise CsvParseError(f"{where}: {y.shape[0]} target rows for {x.shape[0]} feature rows")
        return y

    shared = None if shared_x is None else read(shared_x)
    if shared_y is not None:
        y = targets(shared_y, shared, one_column=False)
        pairs = [(shared, y[:, i]) for i in range(y.shape[1])]
    else:  # one single-column target file per task
        xs = [shared if px is None else read(px) for px in task_x]
        pairs = [(x, targets(py, x)[:, 0]) for x, py in zip(xs, task_y)]

    data = validate_dataset(pairs)
    if data.d != d:
        raise ManifestError(f"manifest declares d={d} but CSV data has d={data.d}")
    return data


def kfold_split(data: MultitaskDataset, k: int, seed: int):
    """Seeded k-fold row split per task: yields fold j's ``(train, test)``
    datasets one fold at a time, its test set being partition j.

    The arguments are checked on the call, before any fold is built: a ``k``
    that is not an integer >= 2 raises ``SplitError``.
    Shared-instance datasets are shuffled with a single permutation and X
    is indexed once per fold, so every fold dataset holds one X and stays
    shared; otherwise each task is permuted independently.
    """
    data = validate_dataset(data)
    if not (is_number(k, integral=True) and k >= 2):
        raise SplitError(f"need an integer number of folds >= 2, got {k!r}")
    if min(data.n_per_task) < k:
        raise SplitError(
            f"smallest task has {min(data.n_per_task)} rows, cannot make {k} folds"
        )
    rng = np.random.default_rng(seed)
    labels = []  # the fold of every row: one array for a shared X, else one per task
    for n in data.n_per_task[:1] if data.shared_instances else data.n_per_task:
        labels.append(np.empty(n, dtype=int))
        for j, rows in enumerate(np.array_split(rng.permutation(n), k)):
            labels[-1][rows] = j

    def subset(masks):  # masks keep rows in their order
        if data.shared_instances:
            x = data.tasks[0].x[masks[0]]
            return validate_dataset([(x, t.y[masks[0]]) for t in data.tasks])
        return validate_dataset([(t.x[r], t.y[r]) for t, r in zip(data.tasks, masks)])

    return (
        (subset([f != j for f in labels]), subset([f == j for f in labels])) for j in range(k)
    )


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


def report_fields(report: TrainReport) -> dict:
    """The JSON fields of a run report, shared by ``train`` and ``compare``: a copy
    of every :class:`TrainReport` field but the trace, plus the three it derives."""
    names = [f.name for f in fields(report) if f.name != "trace"]
    names += ["final_objective", "iterations", "per_block_seconds"]
    return copy.deepcopy({name: getattr(report, name) for name in names})


def write_trace(trace, path) -> Path:
    """Write an objective trace as CSV with one column per TracePoint field."""
    rows = "".join(
        f"{p.iteration},{p.block},{p.seconds:.6f},{FLOAT_FORMAT.format(p.objective)},{p.evals}\n"
        for p in trace
    )
    return write_text(path, ",".join(TracePoint._fields) + "\n" + rows)


def write_report(model, path_prefix) -> list[Path]:
    """Write the report bundle of a fitted model next to ``path_prefix``.

    Emits ``<prefix>.report.json`` (config echo and :func:`report_fields`),
    ``<prefix>.trace.csv`` (:func:`write_trace`) and the three matrices as
    plain CSV at 17 significant digits.
    """
    prefix = Path(path_prefix)
    payload = {"config": asdict(model.config)} | report_fields(model.report)
    paths = [
        write_text(
            prefix.with_name(prefix.name + ".report.json"),
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        ),
        write_trace(model.report.trace, prefix.with_name(prefix.name + ".trace.csv")),
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
