import numpy as np
import pytest

from fetr import (
    CovariancePair,
    DataValidationError,
    DomainError,
    EigenDecomp,
    FetrConfig,
    NumericError,
    TracePoint,
    TrainReport,
    WeightMatrix,
    WSolver,
    validate_dataset,
)


class TestValidateDataset:
    def test_shared_detection(self, rng):
        x = rng.uniform(size=(4, 3))
        data = validate_dataset([(x, rng.standard_normal(4)), (x.copy(), rng.standard_normal(4))])
        assert data.shared_instances
        assert data.d == 3
        assert data.m == 2

    def test_unequal_sizes_not_shared(self, rng):
        data = validate_dataset(
            [
                (rng.uniform(size=(5, 3)), rng.standard_normal(5)),
                (rng.uniform(size=(7, 3)), rng.standard_normal(7)),
            ]
        )
        assert not data.shared_instances
        assert data.n_per_task == (5, 7)

    def test_mixed_dimension_rejected(self, rng):
        with pytest.raises(DataValidationError):
            validate_dataset(
                [
                    (rng.uniform(size=(4, 3)), rng.standard_normal(4)),
                    (rng.uniform(size=(4, 4)), rng.standard_normal(4)),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            validate_dataset([])
        with pytest.raises(DataValidationError):
            validate_dataset([(np.zeros((0, 3)), np.zeros(0))])

    def test_target_length_mismatch(self, rng):
        with pytest.raises(DataValidationError):
            validate_dataset([(rng.uniform(size=(4, 2)), rng.standard_normal(5))])

    def test_nonfinite_rejected(self):
        x = np.ones((3, 2))
        y = np.array([1.0, np.inf, 0.0])
        with pytest.raises(DataValidationError):
            validate_dataset([(x, y)])

    def test_idempotent(self, rng):
        x = rng.uniform(size=(6, 2))
        data = validate_dataset([(x, rng.standard_normal(6))])
        again = validate_dataset(data)
        assert again.d == data.d
        assert again.shared_instances == data.shared_instances
        for t1, t2 in zip(data.tasks, again.tasks):
            assert np.array_equal(t1.x, t2.x)
            assert np.array_equal(t1.y, t2.y)

    def test_validating_a_dataset_returns_it(self, rng):
        data = validate_dataset([(rng.uniform(size=(5, 2)), rng.standard_normal(5))])
        assert validate_dataset(data) is data

    def test_shared_tasks_hold_one_x(self, rng):
        x = rng.uniform(size=(6, 3))
        data = validate_dataset([(x, rng.standard_normal(6)) for _ in range(4)])
        assert data.shared_instances
        assert all(t.x is data.tasks[0].x for t in data.tasks)
        assert data.design() is data.tasks[0].x

    def test_per_task_tasks_passing_one_x_hold_one_copy(self, rng):
        x = rng.uniform(size=(5, 3))
        other = rng.uniform(size=(4, 3))
        pairs = [(x, rng.standard_normal(5)), (x, rng.standard_normal(5))]
        data = validate_dataset(pairs + [(other, rng.standard_normal(4))])
        assert not data.shared_instances
        assert data.tasks[0].x is data.tasks[1].x

    def test_caller_writes_do_not_reach_dataset(self, rng):
        x = rng.uniform(size=(5, 2))
        y = rng.standard_normal(5)
        data = validate_dataset([(x, y), (x, y)])
        x_before, y_before = x.copy(), y.copy()
        x[:] = 7.0
        y[:] = 7.0
        for task in data.tasks:
            assert np.array_equal(task.x, x_before)
            assert np.array_equal(task.y, y_before)

    def test_equal_distinct_arrays_detected_as_shared(self, rng):
        x = rng.uniform(size=(5, 3))
        data = validate_dataset([(x, rng.standard_normal(5)), (x.copy(), rng.standard_normal(5))])
        assert data.shared_instances
        assert data.tasks[0].x is data.tasks[1].x

    def test_same_shape_different_values_not_shared(self, rng):
        data = validate_dataset(
            [(rng.uniform(size=(5, 3)), rng.standard_normal(5)) for _ in range(2)]
        )
        assert not data.shared_instances
        assert data.tasks[0].x is not data.tasks[1].x

    def test_arrays_frozen(self, rng):
        data = validate_dataset([(rng.uniform(size=(4, 2)), rng.standard_normal(4))])
        with pytest.raises(ValueError):
            data.tasks[0].x[0, 0] = 7.0


class TestCovariancePair:
    def test_accepts_feasible(self, rng):
        from conftest import random_spd

        pair = CovariancePair(random_spd(rng, 3, 0.5, 2.0), random_spd(rng, 2, 0.5, 2.0), 0.1, 3.0)
        assert pair.sigma1.shape == (3, 3)

    def test_rejects_out_of_bounds_spectrum(self):
        with pytest.raises(DomainError):
            CovariancePair(np.diag([0.5, 2.0]), np.eye(2), 1.0, 3.0)
        with pytest.raises(DomainError):
            CovariancePair(np.eye(2), np.diag([1.0, 5.0]), 0.5, 3.0)

    def test_tolerates_tiny_spectrum_slack(self):
        # 1e-9 slack on each side of the box
        CovariancePair(np.eye(2) * (1.0 - 5e-10), np.eye(2), 1.0, 3.0)

    def test_rejects_asymmetric(self):
        s = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(DomainError):
            CovariancePair(s, np.eye(2), 0.5, 2.0)

    def test_rejects_bad_bounds(self):
        with pytest.raises(DomainError):
            CovariancePair(np.eye(2), np.eye(2), 2.0, 1.0)


class TestEigenDecomp:
    def test_orthonormality_enforced(self):
        with pytest.raises(NumericError):
            EigenDecomp(vectors=np.array([[1.0, 1.0], [0.0, 1.0]]), values=np.array([1.0, 2.0]))

    def test_ascending_enforced(self):
        with pytest.raises(NumericError):
            EigenDecomp(vectors=np.eye(2), values=np.array([2.0, 1.0]))


class TestFetrConfig:
    def test_string_solver_coerced(self):
        cfg = FetrConfig(eta=1.0, w_solver="sylvester")
        assert cfg.w_solver is WSolver.SYLVESTER

    def test_invalid_eta(self):
        with pytest.raises(DomainError):
            FetrConfig(eta=0.0)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            FetrConfig(eta=1.0, l=2.0, u=1.0)

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            FetrConfig(eta=1.0, w_solver="newton")


class TestWeightMatrix:
    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            WeightMatrix(np.array([[1.0, np.nan]]))

    def test_shape_properties(self):
        w = WeightMatrix(np.zeros((3, 2)))
        assert (w.d, w.m) == (3, 2)


class TestTrainReport:
    def test_nondecreasing_timestamps_enforced(self):
        points = (
            TracePoint(0, "init", 1.0, 0.0, 1),
            TracePoint(1, "w", 0.5, -1.0, 2),
        )
        with pytest.raises(NumericError):
            TrainReport(points, True, 1, {"w": 0.1}, 2)

    def test_finite_objectives_enforced(self):
        points = (TracePoint(0, "init", 0.0, np.nan, 1),)
        with pytest.raises(NumericError):
            TrainReport(points, True, 0, {}, 1)
