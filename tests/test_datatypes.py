import dataclasses

import numpy as np
import pytest

from fetr import (
    CovariancePair,
    DataValidationError,
    DivergenceError,
    DomainError,
    EigenDecomp,
    FetrConfig,
    MultitaskDataset,
    NumericError,
    Task,
    TracePoint,
    TrainReport,
    UnsupportedShapeError,
    WeightMatrix,
    fit_fetr,
    generate_synthetic,
    solve_w_cg,
    solve_w_gd,
    solve_w_sylvester,
    step_schedule,
    sym_eig,
    validate_dataset,
)


class TestValidateDataset:
    """Each case builds its dataset through ``build``; the subclass below runs them
    all again through the constructor."""

    build = staticmethod(validate_dataset)

    def test_shared_detection(self, rng):
        x = rng.uniform(size=(4, 3))
        data = self.build([(x, rng.standard_normal(4)), (x.copy(), rng.standard_normal(4))])
        assert data.shared_instances
        assert data.d == 3
        assert data.m == 2

    def test_unequal_sizes_not_shared(self, rng):
        data = self.build(
            [
                (rng.uniform(size=(5, 3)), rng.standard_normal(5)),
                (rng.uniform(size=(7, 3)), rng.standard_normal(7)),
            ]
        )
        assert not data.shared_instances
        assert data.n_per_task == (5, 7)

    def test_mixed_dimension_rejected(self, rng):
        with pytest.raises(DataValidationError):
            self.build(
                [
                    (rng.uniform(size=(4, 3)), rng.standard_normal(4)),
                    (rng.uniform(size=(4, 4)), rng.standard_normal(4)),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(DataValidationError):
            self.build([])
        with pytest.raises(DataValidationError):
            self.build([(np.zeros((0, 3)), np.zeros(0))])

    def test_target_length_mismatch(self, rng):
        with pytest.raises(DataValidationError):
            self.build([(rng.uniform(size=(4, 2)), rng.standard_normal(5))])

    def test_nonfinite_rejected(self):
        x = np.ones((3, 2))
        y = np.array([1.0, np.inf, 0.0])
        with pytest.raises(DataValidationError):
            self.build([(x, y)])

    def test_idempotent(self, rng):
        x = rng.uniform(size=(6, 2))
        data = self.build([(x, rng.standard_normal(6))])
        again = validate_dataset(data)
        assert again.d == data.d
        assert again.shared_instances == data.shared_instances
        for t1, t2 in zip(data.tasks, again.tasks):
            assert np.array_equal(t1.x, t2.x)
            assert np.array_equal(t1.y, t2.y)

    def test_validating_a_dataset_returns_it(self, rng):
        data = self.build([(rng.uniform(size=(5, 2)), rng.standard_normal(5))])
        assert validate_dataset(data) is data

    def test_shared_tasks_hold_one_x(self, rng):
        x = rng.uniform(size=(6, 3))
        data = self.build([(x, rng.standard_normal(6)) for _ in range(4)])
        assert data.shared_instances
        assert all(t.x is data.tasks[0].x for t in data.tasks)
        assert data.design() is data.tasks[0].x

    def test_per_task_tasks_passing_one_x_hold_one_copy(self, rng):
        x = rng.uniform(size=(5, 3))
        other = rng.uniform(size=(4, 3))
        pairs = [(x, rng.standard_normal(5)), (x, rng.standard_normal(5))]
        data = self.build(pairs + [(other, rng.standard_normal(4))])
        assert not data.shared_instances
        assert data.tasks[0].x is data.tasks[1].x

    def test_caller_writes_do_not_reach_dataset(self, rng):
        x = rng.uniform(size=(5, 2))
        y = rng.standard_normal(5)
        data = self.build([(x, y), (x, y)])
        x_before, y_before = x.copy(), y.copy()
        x[:] = 7.0
        y[:] = 7.0
        for task in data.tasks:
            assert np.array_equal(task.x, x_before)
            assert np.array_equal(task.y, y_before)

    def test_equal_distinct_arrays_detected_as_shared(self, rng):
        x = rng.uniform(size=(5, 3))
        data = self.build([(x, rng.standard_normal(5)), (x.copy(), rng.standard_normal(5))])
        assert data.shared_instances
        assert data.tasks[0].x is data.tasks[1].x

    def test_same_shape_different_values_not_shared(self, rng):
        data = self.build(
            [(rng.uniform(size=(5, 3)), rng.standard_normal(5)) for _ in range(2)]
        )
        assert not data.shared_instances
        assert data.tasks[0].x is not data.tasks[1].x

    def test_arrays_frozen(self, rng):
        data = self.build([(rng.uniform(size=(4, 2)), rng.standard_normal(4))])
        with pytest.raises(ValueError):
            data.tasks[0].x[0, 0] = 7.0

    def test_nonfinite_design_rejected(self, rng):
        x = rng.uniform(size=(4, 2))
        x[1, 0] = np.nan
        with pytest.raises(DataValidationError, match="task 1: non-finite"):
            self.build([(rng.uniform(size=(4, 2)), np.zeros(4)), (x, np.zeros(4))])


class TestMultitaskDataset(TestValidateDataset):
    build = staticmethod(MultitaskDataset)

    def test_tasks_are_its_one_field(self, rng):
        data = self.build([Task(rng.uniform(size=(4, 3)), rng.standard_normal(4))])
        assert [f.name for f in dataclasses.fields(MultitaskDataset)] == ["tasks"]
        for name, value in (("d", 5), ("shared_instances", True)):
            with pytest.raises(AttributeError):
                setattr(data, name, value)

    @pytest.mark.parametrize("keyword", [{"d": 3}, {"shared_instances": True}])
    def test_derived_values_cannot_be_passed(self, rng, keyword):
        with pytest.raises(TypeError):
            MultitaskDataset(tasks=[(rng.uniform(size=(4, 3)), np.zeros(4))], **keyword)

    def test_distinct_designs_fit_as_validated(self, rng):
        pairs = [Task(rng.uniform(size=(6, 3)), rng.standard_normal(6)) for _ in range(2)]
        data = MultitaskDataset(tasks=tuple(pairs))
        assert not data.shared_instances and data.d == 3
        config = FetrConfig(eta=1e-6, l=1e-2, u=1e2)
        got, want = fit_fetr(data, config), fit_fetr(validate_dataset(pairs), config)
        assert np.array_equal(got.weights.matrix, want.weights.matrix)
        assert got.report.trace[-1].objective == want.report.trace[-1].objective
        for name in ("sigma1", "sigma2"):
            a, b = getattr(got.covariances, name), getattr(want.covariances, name)
            assert np.array_equal(np.asarray(a), np.asarray(b))


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

    def test_checks_factor_eigenvalues(self):
        # at u/l = 1e12 rounding the dense form moves eigenvalues by about
        # eps * u, up to the 1e-9 slack; the factors sit in the box exactly
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((20, 20)))
        decomp = EigenDecomp(q, np.repeat([1e-6, 1e6], 10))
        pair = CovariancePair(decomp, np.eye(2), 1e-6, 1e6)
        assert np.array_equal(pair.sigma1, np.asarray(decomp))
        with pytest.raises(DomainError):
            CovariancePair(EigenDecomp(q, np.repeat([1e-6, 1.001e6], 10)), np.eye(2), 1e-6, 1e6)

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

    def test_with_values_keeps_or_reverses_vectors(self):
        q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((3, 3)))
        e = EigenDecomp(q, np.array([1.0, 2.0, 3.0]))
        same = e.with_values([4.0, 5.0, 6.0])
        assert same.vectors is e.vectors and np.array_equal(same.values, [4.0, 5.0, 6.0])
        assert not same.values.flags.writeable
        assert np.allclose(same, (q * [4.0, 5.0, 6.0]) @ q.T)
        reversed_ = e.with_values([1.0, 1.0, 2.0], reverse=True)
        assert np.array_equal(reversed_.vectors, q[:, ::-1])
        assert not reversed_.vectors.flags.writeable

    def test_with_values_checks_values(self):
        e = EigenDecomp(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(NumericError, match="ascending"):
            e.with_values([2.0, 1.0])
        with pytest.raises(NumericError, match="shapes"):
            e.with_values([1.0, 2.0, 3.0])


def _nan_off_diagonal(q):
    """The first q columns of I_3 with a NaN in the first row of the second."""
    v = np.eye(3)[:, :q]
    v[0, 1] = np.nan
    return v


class TestEigenDecompChecks:
    """The orthonormality and order checks at their thresholds, from q = 0 to q = r."""

    @pytest.mark.parametrize("q", [0, 2, 4])
    def test_orthonormal_vectors_accepted_for_every_q(self, q):
        # q = 0 is the start point, q = r a full decomposition
        v = np.linalg.qr(np.random.default_rng(q).standard_normal((4, 4)))[0][:, :q]
        e = EigenDecomp(v, np.arange(q, dtype=float), 5.0)
        assert e.codim == 4 - q and e.spectrum.shape == (4,)

    @pytest.mark.parametrize("q", [1, 3])
    def test_defect_threshold(self, q):
        # one column scaled by 1 + delta: V^T V - I is 2 delta + delta^2 on one diagonal entry
        for delta, raises in ((2.5e-10, False), (1e-9, True)):
            v = np.eye(3)[:, :q]
            v[0, 0] += delta
            if raises:
                with pytest.raises(NumericError, match="eigenvectors not orthonormal"):
                    EigenDecomp(v, np.ones(q), 2.0)
            else:
                EigenDecomp(v, np.ones(q), 2.0)

    @pytest.mark.parametrize(
        "vectors, values, complement, message",
        [
            # a NaN fails every comparison, so it fails the order test wherever it sits
            (np.eye(3), [1.0, np.nan, 2.0], 1.0, "sorted ascending"),
            (np.eye(3), [3.0, np.nan, 1.0], 1.0, "sorted ascending"),
            (np.eye(3), [np.nan] * 3, 1.0, "sorted ascending"),
            (np.eye(3), [2.0, 1.0, np.nan], 1.0, "sorted ascending"),
            (np.eye(3), [np.nan, 2.0, 1.0], 1.0, "sorted ascending"),
            (np.eye(3)[:, :2], [np.nan, 2.0], 1.0, "sorted ascending"),
            (np.eye(3)[:, :1], [np.nan], 1.0, "finite"),
            (np.eye(3), [1.0, 2.0, np.inf], 1.0, "finite"),
            (np.eye(3)[:, :2], [1.0, 2.0], np.nan, "finite"),
            # and a NaN defect fails the orthonormality test
            (_nan_off_diagonal(3), [1.0, 2.0, 3.0], 1.0, "not orthonormal"),
            (_nan_off_diagonal(2), [1.0, 2.0], 1.0, "not orthonormal"),
        ],
        ids=["nan-middle", "nan-middle-descending", "all-nan", "nan-last", "nan-first",
             "thin-nan", "one-nan", "inf-value", "nan-complement", "nan-vector", "thin-nan-vector"],
    )
    def test_nan_outcomes(self, vectors, values, complement, message):
        with pytest.raises(NumericError, match=message):
            EigenDecomp(vectors, np.array(values), complement)

    def test_rewrapping_checks_the_new_values(self):
        e = EigenDecomp(np.eye(3)[:, :2], np.array([1.0, 2.0]), 3.0)
        for rewrap in (
            lambda: e.with_values([np.nan, 2.0]),
            lambda: e.with_values([1.0, 2.0], complement=np.inf),
            lambda: e.map(lambda values: values * np.inf),
        ):
            with pytest.raises(NumericError, match="finite and sorted ascending"):
                rewrap()


class TestThinEigenDecomp:
    """q < r vectors and one complement value: the form a tall side's precision takes."""

    def _thin(self, complement=5.0):
        v = np.linalg.qr(np.random.default_rng(0).standard_normal((5, 2)))[0]
        return v, EigenDecomp(v, np.array([1.0, 9.0]), complement)

    def test_complement_takes_its_sorted_place(self):
        v, e = self._thin()
        assert e.codim == 3 and np.array_equal(e.spectrum, [1.0, 5.0, 5.0, 5.0, 9.0])
        assert e.logdet() == pytest.approx(np.log(9.0) + 3.0 * np.log(5.0), rel=1e-15)
        dense = (v * [1.0, 9.0]) @ v.T + 5.0 * (np.eye(5) - v @ v.T)
        assert np.allclose(e, dense, rtol=0, atol=1e-13)
        assert np.array_equal(self._thin(0.5)[1].spectrum, [0.5, 0.5, 0.5, 1.0, 9.0])

    def test_only_the_q_vectors_are_checked(self):
        # orthonormal columns pass; a skewed pair or more columns than rows does not
        with pytest.raises(NumericError, match="orthonormal"):
            EigenDecomp(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]), np.array([1.0, 2.0]), 3.0)
        with pytest.raises(NumericError, match="shapes"):
            EigenDecomp(np.ones((2, 3)) / 2.0, np.array([1.0, 2.0, 3.0]))

    def test_map_and_with_values_carry_the_complement(self):
        v, e = self._thin()
        doubled = e.map(lambda values: 2.0 * values)
        assert doubled.vectors is e.vectors and doubled.complement == 10.0
        assert np.array_equal(doubled.values, [2.0, 18.0])
        assert e.with_values([2.0, 3.0]).complement == 5.0
        assert e.with_values([2.0, 3.0], complement=7.0).complement == 7.0

    def test_start_point_is_the_complement_alone(self):
        e = EigenDecomp(np.zeros((4, 0)), np.zeros(0), 2.0)
        assert np.array_equal(np.asarray(e), 2.0 * np.eye(4))
        assert np.array_equal(e.spectrum, np.full(4, 2.0))


class TestFetrConfig:
    def test_invalid_eta(self):
        with pytest.raises(DomainError):
            FetrConfig(eta=0.0)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            FetrConfig(eta=1.0, l=2.0, u=1.0)

    def test_invalid_rel_obj_tol(self):
        with pytest.raises(DomainError):
            FetrConfig(eta=1.0, rel_obj_tol=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["eta", "l", "u", "rel_obj_tol"])
    def test_nonfinite_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            FetrConfig(**{"eta": 1.0, name: value})

    @pytest.mark.parametrize("value", [True, False, np.True_, "1", None, 1j])
    @pytest.mark.parametrize("name", ["eta", "l", "u", "rel_obj_tol"])
    def test_non_number_rejected(self, name, value):
        # a bool used to pass as 0 or 1, and a string or None raised a bare TypeError
        with pytest.raises(DomainError, match=f"{name} must be finite and real"):
            FetrConfig(**{"eta": 1.0, "u": 10.0, name: value})

    @pytest.mark.parametrize("value", [1e3, 5.0, np.float64(3.0), "10", 0, -2, True, np.True_, None])
    @pytest.mark.parametrize("name", ["max_outer_iters", "gd_max_iters"])
    def test_iteration_limit_must_be_a_positive_integer(self, name, value):
        # a float limit used to pass here and then fail inside the fit, in range(),
        # and max_outer_iters=True ran one sweep
        with pytest.raises(DomainError, match=f"{name} must be an integer >= 1"):
            FetrConfig(eta=1.0, **{name: value})

    def test_numpy_integer_iteration_limits_accepted(self):
        cfg = FetrConfig(eta=1.0, max_outer_iters=np.int64(3), gd_max_iters=np.int32(7))
        assert (cfg.max_outer_iters, cfg.gd_max_iters) == (3, 7)

    def test_numpy_numbers_accepted(self):
        cfg = FetrConfig(eta=np.float32(0.5), l=np.int64(1), u=np.float64(10.0))
        assert (cfg.eta, cfg.l, cfg.u) == (0.5, 1, 10.0)


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
            TrainReport(points, True, 2)

    def test_finite_objectives_enforced(self):
        points = (TracePoint(0, "init", 0.0, np.nan, 1),)
        with pytest.raises(NumericError):
            TrainReport(points, True, 1)


_SHARED = generate_synthetic(10, 3, 2, seed=0)
_PERTASK = validate_dataset([(np.eye(3), np.ones(3)), (2.0 * np.eye(3), np.ones(3))])
_SCHEDULE = step_schedule(_SHARED.gram.xtx_eigs, 1.0, 0.5, 2.0)
# each input guard of the fit core, called with the input it rejects
INPUT_GUARDS = {
    "design_of_pertask": (UnsupportedShapeError, lambda: _PERTASK.design()),
    "targets_of_pertask": (UnsupportedShapeError, lambda: _PERTASK.targets()),
    "weight_matrix_1d": (DataValidationError, lambda: WeightMatrix(np.zeros(3))),
    "covariance_not_square": (
        DomainError, lambda: CovariancePair(np.ones((2, 3)), np.eye(2), 0.5, 2.0)
    ),
    "covariance_nonfinite": (
        NumericError, lambda: CovariancePair(np.diag([np.nan, 1.0]), np.eye(2), 0.5, 2.0)
    ),
    "eigendecomp_shapes": (NumericError, lambda: EigenDecomp(np.eye(3), np.ones(2))),
    "gd_nan_start": (
        DivergenceError,
        lambda: solve_w_gd(
            _SHARED, np.eye(3), np.eye(2), 1.0, _SCHEDULE, w0=np.full((3, 2), np.nan)
        ),
    ),
    "cg_start_shape": (
        DomainError, lambda: solve_w_cg(_SHARED, np.eye(3), np.eye(2), 1.0, w0=np.zeros((2, 3)))
    ),
    "sylvester_indefinite_sigma1": (
        DomainError, lambda: solve_w_sylvester(_SHARED, np.diag([-1.0, 1.0, 1.0]), np.eye(2), 1.0)
    ),
    "sym_eig_not_square": (NumericError, lambda: sym_eig(np.ones((2, 3)))),
}


@pytest.mark.parametrize("error, call", INPUT_GUARDS.values(), ids=INPUT_GUARDS.keys())
def test_input_guard_raises_documented_type(error, call):
    with pytest.raises(error):
        call()
