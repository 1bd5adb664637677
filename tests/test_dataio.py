import json
import weakref
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
    rff_transform,
    validate_dataset,
    write_report,
)
from fetr.cli import main
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

    def test_not_utf8_names_line(self, tmp_path):
        (tmp_path / "x.csv").write_bytes(b"1,2\n3,\xe94\n")
        with pytest.raises(CsvParseError, match=r"x\.csv:2: not UTF-8 text"):
            read_csv_matrix(tmp_path / "x.csv")

    def test_header_flag(self, tmp_path):
        (tmp_path / "x.csv").write_text("a,b\n1,2\n")
        out = read_csv_matrix(tmp_path / "x.csv", has_header=True)
        assert np.allclose(out, [[1.0, 2.0]])

    @pytest.mark.parametrize(
        "text",
        [
            b"1,2\n\n3.5,-4e-3\n\n",
            b"1,2\r\n3.5,-4e-3\r\n",
            b'"1",2\n3.5,"-4e-3"\n',
            b" 1 ,2\n3.5 , -4e-3\n",
        ],
        ids=["blank_lines", "crlf", "quoted", "spaces"],
    )
    def test_accepted_spellings(self, tmp_path, text):
        (tmp_path / "x.csv").write_bytes(text)
        out = read_csv_matrix(tmp_path / "x.csv")
        assert np.array_equal(out, [[1.0, 2.0], [3.5, -4e-3]])

    def test_non_numeric_cell_after_blank_line(self, tmp_path):
        (tmp_path / "x.csv").write_text("1,2\n\n3,oops\n")
        with pytest.raises(CsvParseError, match=r"x\.csv:3: non-numeric cell"):
            read_csv_matrix(tmp_path / "x.csv")

    @pytest.mark.parametrize("text, header", [("", False), ("a,b\n", True)], ids=["empty", "header_only"])
    def test_no_data_rows(self, tmp_path, text, header):
        (tmp_path / "x.csv").write_text(text)
        with pytest.raises(CsvParseError, match="no data rows"):
            read_csv_matrix(tmp_path / "x.csv", has_header=header)

    def test_manifest_not_utf8(self, tmp_path):
        (tmp_path / "m.json").write_bytes(b'{"format_version": 1, "d": \xe9}')
        with pytest.raises(ManifestError, match="m.json: invalid JSON"):
            load_manifest(tmp_path / "m.json")

    def test_bad_version(self, tmp_path):
        (tmp_path / "m.json").write_text(json.dumps({"format_version": 2, "d": 1, "tasks": []}))
        with pytest.raises(ManifestError):
            load_manifest(tmp_path / "m.json")

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
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "change",
        [
            {"format_version": "one"},
            {"d": None},
            {"tasks": 5},
            {"shared_targets_csv_path": None, "tasks": ["y.csv"]},
            {"shared_features_csv_path": 5},
            {"has_header": "false"},
        ],
        ids=["version_string", "d_null", "tasks_number", "task_string", "path_number",
             "header_string"],
    )
    def test_malformed_value_is_manifest_error(self, tmp_path, capsys, change):
        # the CSVs are valid, so only the malformed value can be at fault
        (tmp_path / "x.csv").write_text("1,2\n3,4\n5,6\n")
        (tmp_path / "y.csv").write_text("1\n2\n3\n")
        manifest = {
            "format_version": 1,
            "d": 2,
            "shared_features_csv_path": "x.csv",
            "shared_targets_csv_path": "y.csv",
        }
        (tmp_path / "m.json").write_text(json.dumps(manifest | change))
        with pytest.raises(ManifestError, match="must be"):
            load_manifest(tmp_path / "m.json")
        assert main(["train", "--manifest", str(tmp_path / "m.json")]) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "manifest, message",
        [
            ([{"format_version": 1, "d": 2}], "manifest must be a JSON object"),
            ({"format_version": 1, "shared_features_csv_path": "x.csv",
              "shared_targets_csv_path": "y.csv"}, "missing manifest key 'd'"),
            ({"format_version": 1, "d": 2, "shared_features_csv_path": "x.csv",
              "tasks": [{"name": "t"}]}, "missing manifest key 'targets_csv_path'"),
        ],
        ids=["top_level_list", "no_d", "task_without_targets"],
    )
    def test_missing_structure_is_manifest_error(self, tmp_path, manifest, message):
        (tmp_path / "m.json").write_text(json.dumps(manifest))
        with pytest.raises(ManifestError, match=message):
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "layout, message",
        [
            ({"tasks": [{"targets_csv_path": "y0.csv"}]}, "either shared_features_csv_path"),
            (
                {"tasks": [{"features_csv_path": "x0.csv", "targets_csv_path": "y0.csv"}],
                 "shared_targets_csv_path": "y.csv"},
                "requires shared features",
            ),
            ({"shared_features_csv_path": "x.csv"}, "needs shared targets or task target files"),
            (
                {"shared_features_csv_path": "x.csv", "shared_targets_csv_path": "y.csv",
                 "tasks": [{"targets_csv_path": "y0.csv"}]},
                "not both",
            ),
        ],
        ids=["pertask_without_features", "pertask_with_shared_targets",
             "shared_without_targets", "shared_targets_twice"],
    )
    def test_layout_error_before_any_csv(self, tmp_path, layout, message):
        # none of the named CSVs exists: a CsvParseError would mean one was opened
        # (test_mixed_layouts_rejected covers the fifth layout error)
        (tmp_path / "m.json").write_text(json.dumps({"format_version": 1, "d": 2} | layout))
        with pytest.raises(ManifestError, match=message):
            load_manifest(tmp_path / "m.json")

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
        splits = list(kfold_split(data, 4, seed=1))
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

    def test_folds_built_lazily(self):
        # a fold's datasets are freed once the caller drops them; the next
        # fold is built only when asked for
        splits = kfold_split(generate_synthetic(30, 3, 2, seed=5), 3, seed=0)
        train, test = next(splits)
        ref = weakref.ref(train)
        del train, test
        next(splits)
        assert ref() is None

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

    @pytest.mark.parametrize("k", [2.5, 3.0, True, "3", None])
    def test_k_not_an_integer_rejected(self, k):
        # a float k used to raise numpy's bare TypeError in array_split
        data = generate_synthetic(30, 3, 2, seed=5)
        with pytest.raises(SplitError, match="integer number of folds"):
            kfold_split(data, k, seed=0)

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

    def test_pertask_features_per_task(self):
        data = load_manifest(FIXTURES / "pertask_small/manifest.json")
        p, bw, seed = 8, 1.0, 3
        out = rff_transform(data, p, bw, seed)
        assert not out.shared_instances and (out.d, out.m) == (p, data.m)
        omega, bias = draw_rff_frequencies(data.d, p, bw, seed)
        for task, new in zip(data.tasks, out.tasks):
            assert np.array_equal(new.x, rff_features(task.x, omega, bias))
            assert np.array_equal(new.y, task.y)

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
        config = FetrConfig(eta=0.5, l=0.01, u=100.0)
        model = fit_fetr(data, config).with_metrics({"train_mse_mean": 0.25})
        paths = write_report(model, tmp_path / "run")

        report = json.loads((tmp_path / "run.report.json").read_text())
        assert report["config"]["eta"] == 0.5
        assert report["config"]["l"] == 0.01
        assert report["config"]["u"] == 100.0
        assert report["converged"] == model.report.converged
        assert report["metrics"]["train_mse_mean"] == 0.25
        assert report["w_iterations"] == [0] * model.report.iterations  # shared: direct W blocks

        weights = read_csv_matrix(tmp_path / "run.weights.csv")
        assert np.array_equal(weights, model.weights.matrix)  # bitwise round trip
        sigma1 = read_csv_matrix(tmp_path / "run.sigma1.csv")
        assert np.array_equal(sigma1, model.covariances.sigma1)

        trace_lines = (tmp_path / "run.trace.csv").read_text().strip().splitlines()
        assert trace_lines[0] == "iteration,block,seconds,objective,evals"
        assert len(trace_lines) - 1 == 1 + 3 * model.report.iterations
        assert len(paths) == 5

    def test_seventeen_digit_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((7, 3)) * 10.0 ** rng.integers(-200, 200, size=(7, 3))
        write_csv_matrix(mat, tmp_path / "m.csv")
        back = read_csv_matrix(tmp_path / "m.csv")
        assert np.array_equal(mat, back)
