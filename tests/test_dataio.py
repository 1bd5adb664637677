import json
from pathlib import Path

import numpy as np
import pytest

from fetr import (
    CsvParseError,
    FetrConfig,
    ManifestError,
    SplitError,
    fit_fetr,
    generate_synthetic,
    kfold_split,
    load_manifest,
    read_manifest,
    rff_transform,
    validate_dataset,
    write_report,
)
from fetr.dataio import draw_rff_frequencies, read_csv_matrix, rff_features, write_csv_matrix

FIXTURES = Path(__file__).parent / "data"


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(50, 4, 3, seed=9)
        b = generate_synthetic(50, 4, 3, seed=9)
        for t1, t2 in zip(a.tasks, b.tasks):
            assert np.array_equal(t1.x, t2.x)
            assert np.array_equal(t1.y, t2.y)

    def test_features_in_unit_box(self):
        data = generate_synthetic(100, 5, 2, seed=0)
        x = data.design()
        assert x.min() >= 0.0 and x.max() <= 1.0

    def test_shapes(self):
        data = generate_synthetic(10_000, 10, 5, seed=1)
        assert data.design().shape == (10_000, 10)
        assert data.targets().shape == (10_000, 5)
        assert data.shared_instances


class TestManifests:
    def test_load_shared(self):
        data = load_manifest(FIXTURES / "shared_small/manifest.json")
        assert data.shared_instances
        assert data.d == 3
        assert data.m == 2
        assert data.n_per_task == (20, 20)

    def test_load_pertask(self):
        data = load_manifest(FIXTURES / "pertask_small/manifest.json")
        assert not data.shared_instances
        assert data.n_per_task == (18, 25)

    def test_missing_file(self, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "d": 2,
                    "shared_features_csv_path": "nope.csv",
                    "shared_targets_csv_path": "nope_y.csv",
                }
            )
        )
        with pytest.raises(CsvParseError):
            load_manifest(manifest)

    def test_row_count_mismatch(self, tmp_path):
        write_csv_matrix(np.ones((4, 2)), tmp_path / "x.csv")
        write_csv_matrix(np.ones((3, 1)), tmp_path / "y.csv")
        (tmp_path / "m.json").write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "d": 2,
                    "shared_features_csv_path": "x.csv",
                    "shared_targets_csv_path": "y.csv",
                }
            )
        )
        with pytest.raises(CsvParseError):
            load_manifest(tmp_path / "m.json")

    def test_ragged_csv(self, tmp_path):
        (tmp_path / "x.csv").write_text("1,2\n3\n")
        with pytest.raises(CsvParseError) as err:
            read_csv_matrix(tmp_path / "x.csv")
        assert "x.csv:2" in str(err.value)

    def test_non_numeric_cell(self, tmp_path):
        (tmp_path / "x.csv").write_text("1,2\n3,oops\n")
        with pytest.raises(CsvParseError) as err:
            read_csv_matrix(tmp_path / "x.csv")
        assert ":2" in str(err.value)

    def test_header_flag(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b\n1,2\n")
        out = read_csv_matrix(tmp_path / "x.csv", has_header=True)
        assert np.allclose(out, [[1.0, 2.0]])

    def test_bad_version(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"format_version": 2, "d": 1, "tasks": []}))
        with pytest.raises(ManifestError):
            read_manifest(tmp_path / "m.json")

    def test_mixed_layouts_rejected(self, tmp_path):
        (tmp_path / "m.json").write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "d": 1,
                    "shared_features_csv_path": "x.csv",
                    "tasks": [
                        {"name": "t", "features_csv_path": "x0.csv", "targets_csv_path": "y.csv"}
                    ],
                }
            )
        )
        with pytest.raises(ManifestError):
            read_manifest(tmp_path / "m.json")

    def test_declared_dimension_checked(self, tmp_path):
        write_csv_matrix(np.ones((4, 2)), tmp_path / "x.csv")
        write_csv_matrix(np.ones((4, 1)), tmp_path / "y.csv")
        (tmp_path / "m.json").write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "d": 3,
                    "shared_features_csv_path": "x.csv",
                    "shared_targets_csv_path": "y.csv",
                }
            )
        )
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "m.json")


class TestSharedFeaturesTaskTargets:
    """Shared features with one single-column target file per task."""

    def _manifest(self, tmp_path, x, targets):
        write_csv_matrix(x, tmp_path / "x.csv")
        for i, y in enumerate(targets):
            write_csv_matrix(y, tmp_path / f"y{i}.csv")
        tasks = [{"name": f"t{i}", "targets_csv_path": f"y{i}.csv"} for i in range(len(targets))]
        (tmp_path / "m.json").write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "d": x.shape[1],
                    "shared_features_csv_path": "x.csv",
                    "tasks": tasks,
                }
            )
        )
        return tmp_path / "m.json"

    def test_loads_as_shared(self, tmp_path, rng):
        x = rng.uniform(size=(6, 2))
        targets = [rng.standard_normal((6, 1)) for _ in range(3)]
        data = load_manifest(self._manifest(tmp_path, x, targets))
        assert data.shared_instances
        assert (data.d, data.m, data.n_per_task) == (2, 3, (6, 6, 6))
        assert all(task.x is data.tasks[0].x for task in data.tasks)
        assert np.array_equal(data.tasks[0].x, x)
        for task, y in zip(data.tasks, targets):
            assert np.array_equal(task.y, y[:, 0])

    def test_two_column_target_rejected(self, tmp_path):
        path = self._manifest(tmp_path, np.ones((4, 2)), [np.ones((4, 1)), np.ones((4, 2))])
        with pytest.raises(CsvParseError, match="y1.csv: task target file must have one column"):
            load_manifest(path)

    def test_row_count_mismatch(self, tmp_path):
        path = self._manifest(tmp_path, np.ones((4, 2)), [np.ones((4, 1)), np.ones((3, 1))])
        with pytest.raises(CsvParseError, match="y1.csv: 3 target rows for 4 feature rows"):
            load_manifest(path)


class TestKfoldSplit:
    def test_partition_property(self):
        data = generate_synthetic(23, 3, 2, seed=5)
        splits = kfold_split(data, 4, seed=1)
        all_test = np.concatenate(
            [s[1].tasks[0].x[:, 0] for s in splits]
        )  # first column identifies rows uniquely w.h.p.
        assert len(all_test) == 23
        assert np.unique(all_test).size == 23
        for train, test in splits:
            assert train.n_per_task[0] + test.n_per_task[0] == 23

    def test_deterministic(self):
        data = generate_synthetic(30, 3, 2, seed=5)
        s1 = kfold_split(data, 3, seed=9)
        s2 = kfold_split(data, 3, seed=9)
        for (tr1, te1), (tr2, te2) in zip(s1, s2):
            assert np.array_equal(tr1.tasks[0].x, tr2.tasks[0].x)
            assert np.array_equal(te1.tasks[1].y, te2.tasks[1].y)

    def test_shared_preserved(self):
        data = generate_synthetic(30, 3, 2, seed=5)
        for train, test in kfold_split(data, 3, seed=0):
            assert train.shared_instances
            assert test.shared_instances

    def test_shared_folds_hold_x_once(self):
        data = generate_synthetic(30, 3, 4, seed=5)
        for train, test in kfold_split(data, 3, seed=0):
            for fold in (train, test):
                assert all(t.x is fold.tasks[0].x for t in fold.tasks)

    def test_per_task_split_ignores_array_identity(self, rng):
        # two per-task tasks pass the same x object; each is still permuted
        # by its own draw, exactly as if it had passed a copy
        x = rng.standard_normal((12, 2))
        other = rng.standard_normal((9, 2))
        splits = [
            kfold_split(
                validate_dataset([(x, x[:, 0]), (x2, x[:, 0] + 1.0), (other, other[:, 0])]),
                3,
                seed=4,
            )
            for x2 in (x, x.copy())
        ]
        for same, copied in zip(*splits):
            for fold_same, fold_copied in zip(same, copied):
                for t1, t2 in zip(fold_same.tasks, fold_copied.tasks):
                    assert np.array_equal(t1.x, t2.x)
                    assert np.array_equal(t1.y, t2.y)

    def test_k_below_two_rejected(self):
        data = generate_synthetic(30, 3, 2, seed=5)
        with pytest.raises(SplitError):
            kfold_split(data, 1, seed=0)

    def test_small_task_rejected(self):
        data = generate_synthetic(4, 2, 2, seed=5)
        with pytest.raises(SplitError):
            kfold_split(data, 5, seed=0)


class TestRff:
    def test_frozen_frequencies(self):
        # omega = bias = 0 collapses every feature to sqrt(2/p) * cos(0)
        z = rff_features(np.ones((3, 2)), np.zeros((2, 2)), np.zeros(2))
        assert np.allclose(z, 1.0)

    def test_deterministic(self):
        data = generate_synthetic(20, 3, 2, seed=4)
        a = rff_transform(data, 8, 1.0, seed=3)
        b = rff_transform(data, 8, 1.0, seed=3)
        assert np.array_equal(a.design(), b.design())
        assert a.d == 8

    def test_orthogonal_blocks(self):
        omega, _ = draw_rff_frequencies(5, 20, 2.0, seed=8, orthogonal=True)
        for start in range(0, 20, 5):
            block = omega[:, start : start + 5]
            gram = block.T @ block
            off_diag = gram - np.diag(np.diag(gram))
            assert np.abs(off_diag).max() < 1e-10

    def test_odd_p_rejected(self):
        data = generate_synthetic(10, 3, 2, seed=4)
        with pytest.raises(ValueError):
            rff_transform(data, 7, 1.0, seed=0)

    def test_kernel_monte_carlo(self, rng):
        # averaging over seeds approximates the RBF kernel value
        d, p, bw = 4, 256, 1.0
        x, y = rng.uniform(size=d), rng.uniform(size=d)
        target = np.exp(-np.sum((x - y) ** 2) / (2 * bw * bw))
        estimates = []
        for seed in range(40):
            omega, bias = draw_rff_frequencies(d, p, bw, seed=seed)
            zx = rff_features(x[None, :], omega, bias)[0]
            zy = rff_features(y[None, :], omega, bias)[0]
            estimates.append(zx @ zy)
        assert abs(np.mean(estimates) - target) <= 0.02


class TestWriteReport:
    def test_round_trip_and_contents(self, tmp_path):
        data = generate_synthetic(60, 3, 2, seed=2)
        config = FetrConfig(eta=0.5, l=0.01, u=100.0, seed=2)
        model = fit_fetr(data, config).with_metrics({"train_mse_mean": 0.25})
        paths = write_report(model.report, model, tmp_path / "run")

        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["config"]["eta"] == 0.5
        assert report["config"]["l"] == 0.01
        assert report["config"]["u"] == 100.0
        assert report["converged"] == model.report.converged
        assert report["metrics"]["train_mse_mean"] == 0.25

        weights = read_csv_matrix(tmp_path / "run.weights.csv")
        assert np.array_equal(weights, model.weights.matrix)  # bitwise round trip
        sigma1 = read_csv_matrix(tmp_path / "run.sigma1.csv")
        assert np.array_equal(sigma1, model.covariances.sigma1)

        trace_lines = (tmp_path / "run.trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "iteration,block,seconds,objective"
        assert len(trace_lines) - 1 == 1 + 3 * model.report.iterations
        assert len(paths) == 5

    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-200, 200, size=(7, 3))
        write_csv_matrix(mat, tmp_path / "m.csv")
        back = read_csv_matrix(tmp_path / "m.csv")
        assert np.array_equal(mat, back)
