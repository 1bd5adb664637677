import numpy as np
import pytest

from fetr import (
    DataValidationError,
    DegenerateMetricError,
    DomainError,
    FetrConfig,
    WSolver,
    fetr_objective,
    fit_fetr,
    fit_mtfrl_flipflop,
    fit_projected_gd,
    generate_synthetic,
    metrics,
    mtfrl_objective_unconstrained,
    predict,
    validate_dataset,
)

from fetr.covariance import minimize_sigma1
from fetr.trainer import MONOTONE_SLACK, Sigma1Profile
from fetr.wsolvers import GramCache, h_value, solve_w_sylvester

from conftest import random_pertask_problem, random_shared_problem


def _zero_target_data(rng, n=20, d=3, m=2):
    x = rng.uniform(size=(n, d))
    return validate_dataset([(x, np.zeros(n)) for _ in range(m)])


class TestObjective:
    def test_all_terms_vanish(self, rng):
        data = _zero_target_data(rng, d=3, m=2)
        val = fetr_objective(np.zeros((3, 2)), np.eye(3), np.eye(2), data, eta=1.0)
        assert val == 0.0

    def test_logdet_arithmetic(self, rng):
        # sigma = e * I with d = 2, m = 3 gives -(3*2 + 2*3) = -12
        data = _zero_target_data(rng, d=2, m=3)
        sigma = np.e * np.eye(2)
        val = fetr_objective(np.zeros((2, 3)), sigma, np.e * np.eye(3), data, eta=1.0)
        assert np.isclose(val, -12.0)

    def test_trace_form_matches_sqrt_form(self, rng):
        for _ in range(10):
            data, sigma1, sigma2 = random_shared_problem(rng, 15, 3, 4, 0.5, 2.0)
            w = rng.standard_normal((3, 4))
            eta = 1.7
            val = fetr_objective(w, sigma1, sigma2, data, eta)

            def sqrtm(s):
                vals, vecs = np.linalg.eigh(s)
                return (vecs * np.sqrt(vals)) @ vecs.T

            resid = data.targets() - data.design() @ w
            penalty = np.linalg.norm(sqrtm(sigma1) @ w @ sqrtm(sigma2)) ** 2
            logdets = 4 * np.linalg.slogdet(sigma1)[1] + 3 * np.linalg.slogdet(sigma2)[1]
            expected = np.sum(resid**2) + eta * penalty - eta * logdets
            assert np.isclose(val, expected, rtol=1e-9)

    def test_non_pd_rejected(self, rng):
        data = _zero_target_data(rng)
        with pytest.raises(DomainError):
            fetr_objective(np.zeros((3, 2)), np.diag([1.0, 1.0, 0.0]), np.eye(2), data, 1.0)

    def test_per_task_loss_sum(self, rng):
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 2, 0.5, 2.0)
        w = rng.standard_normal((3, 2))
        val = fetr_objective(w, np.eye(3), np.eye(2), data, eta=0.0 + 1e-300)
        loss = sum(
            np.sum((t.y - t.x @ w[:, i]) ** 2) for i, t in enumerate(data.tasks)
        )
        assert np.isclose(val, loss)


    def test_weight_shape_mismatch_rejected(self, rng):
        data = _zero_target_data(rng, d=3, m=2)
        with pytest.raises(DomainError):
            fetr_objective(np.zeros((2, 3)), np.eye(3), np.eye(2), data, 1.0)


class TestGramFormObjective:
    """fetr_objective takes its loss from GramCache; wsolvers.h_value is the
    direct residual evaluation it is checked against.

    The two must agree within a tenth of the monotone guard's slack,
    MONOTONE_SLACK * (1 + |obj|): the evaluation path must never be what
    decides whether the guard fires.
    """

    @staticmethod
    def _assert_agree(w, sigma1, sigma2, data, eta):
        d, m = w.shape
        logdets = m * np.linalg.slogdet(sigma1)[1] + d * np.linalg.slogdet(sigma2)[1]
        direct = h_value(w, data, sigma1, sigma2, eta) - eta * logdets
        margin = 0.1 * MONOTONE_SLACK * (1.0 + abs(direct))
        for source in (data, GramCache(data)):
            assert abs(fetr_objective(w, sigma1, sigma2, source, eta) - direct) <= margin

    @pytest.mark.parametrize("shared", [True, False])
    def test_matches_direct_residual(self, rng, shared):
        for _ in range(5):
            if shared:
                data, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
            else:
                data, sigma1, sigma2 = random_pertask_problem(rng, 4, 3, 0.5, 2.0)
            self._assert_agree(rng.standard_normal((4, 3)), sigma1, sigma2, data, 1.3)

    def test_high_snr_shared(self):
        # 20000x100x40 with noise 1e-4, at the W block's minimizer: the loss
        # (2.4) is a tiny part of ||Y||^2 (3.4e7), so the Gram form loses
        # the most digits to cancellation here. Measured error 1.7e-8
        # against the 4.1e-8 margin.
        rng = np.random.default_rng(0)
        n, d, m = 20000, 100, 40
        x = rng.uniform(size=(n, d))
        y = x @ rng.standard_normal((d, m)) + 1e-4 * rng.standard_normal((n, m))
        data = validate_dataset([(x, y[:, i]) for i in range(m)])
        sigma1, sigma2 = np.eye(d), np.eye(m)
        w = solve_w_sylvester(data, sigma1, sigma2, 1.0).matrix
        self._assert_agree(w, sigma1, sigma2, data, 1.0)


class TestUnconstrainedObjective:
    def test_equals_bounded_on_feasible_points(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 15, 3, 2, 0.5, 2.0)
        w = rng.standard_normal((3, 2))
        assert mtfrl_objective_unconstrained(w, sigma1, sigma2, data, 1.0) == fetr_objective(
            w, sigma1, sigma2, data, 1.0
        )

    def test_unbounded_below_along_scaled_identity(self, rng):
        data = _zero_target_data(rng, d=3, m=2)
        w = np.zeros((3, 2))
        values = [
            mtfrl_objective_unconstrained(w, sigma * np.eye(3), sigma * np.eye(2), data, 1.0)
            for sigma in (10.0**k for k in range(9))
        ]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestFitFetr:
    def test_zero_targets(self, rng):
        data = _zero_target_data(rng)
        model = fit_fetr(data, FetrConfig(eta=1.0, l=0.1, u=10.0))
        assert np.allclose(model.weights.matrix, 0.0)
        assert np.allclose(model.covariances.sigma1, 10.0 * np.eye(3))
        assert np.allclose(model.covariances.sigma2, 10.0 * np.eye(2))
        assert model.report.converged

    def test_monotone_trace_and_structure(self):
        data = generate_synthetic(300, 6, 4, seed=3)
        model = fit_fetr(data, FetrConfig(eta=1.0, l=0.01, u=100.0))
        objs = [p.objective for p in model.report.trace]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-10 * (1 + abs(prev))
        # the trace holds the initial point plus three entries per iteration
        assert len(objs) == 1 + 3 * model.report.iterations
        blocks = [p.block for p in model.report.trace]
        assert blocks[0] == "init"
        assert blocks[1:4] == ["w", "sigma1", "sigma2"]

    def test_deterministic(self):
        cfg = FetrConfig(eta=1.0, l=0.01, u=100.0, seed=7)
        runs = []
        for _ in range(2):
            data = generate_synthetic(200, 5, 3, seed=7)
            model = fit_fetr(data, cfg)
            runs.append([p.objective for p in model.report.trace])
        assert runs[0] == runs[1]

    def test_covariance_iterates_feasible(self):
        data = generate_synthetic(150, 4, 3, seed=5)
        model = fit_fetr(data, FetrConfig(eta=1.0, l=0.5, u=2.0))
        eigs1 = np.linalg.eigvalsh(model.covariances.sigma1)
        eigs2 = np.linalg.eigvalsh(model.covariances.sigma2)
        assert eigs1[0] >= 0.5 - 1e-9 and eigs1[-1] <= 2.0 + 1e-9
        assert eigs2[0] >= 0.5 - 1e-9 and eigs2[-1] <= 2.0 + 1e-9

    def test_solver_choice_changes_little(self):
        data = generate_synthetic(200, 4, 3, seed=11)
        finals = []
        for solver in (WSolver.CLOSED_FORM, WSolver.SYLVESTER, WSolver.GRADIENT_DESCENT):
            cfg = FetrConfig(
                eta=1.0, l=0.01, u=100.0, w_solver=solver, gd_rel_tol=1e-12,
                max_outer_iters=200,
            )
            finals.append(fit_fetr(data, cfg).report.final_objective)
        spread = (max(finals) - min(finals)) / (1 + abs(min(finals)))
        assert spread <= 1e-5

    def test_per_task_data_uses_gd(self, rng):
        data, _, _ = random_pertask_problem(rng, 2, 4, 0.5, 2.0)
        model = fit_fetr(data, FetrConfig(eta=1.0, l=0.1, u=10.0, max_outer_iters=500))
        assert model.report.converged
        objs = [p.objective for p in model.report.trace]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-10 * (1 + abs(prev))


class TestWideBox:
    """u/l = 1e8 fits: the log-determinants' roundoff must not be what moves
    the trace past the monotone guard."""

    L, U = 1e-4, 1e4

    @pytest.mark.parametrize("seed", range(8))
    def test_fits_with_nonincreasing_trace(self, seed):
        data = generate_synthetic(500, 20, 6, seed)
        model = fit_fetr(data, FetrConfig(eta=1.0, l=self.L, u=self.U))
        assert model.report.iterations > 0
        objs = [p.objective for p in model.report.trace]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + MONOTONE_SLACK * (1.0 + abs(prev))
        for sigma in (model.covariances.sigma1, model.covariances.sigma2):
            # eigvalsh is accurate to about eps * U absolutely
            eigs = np.linalg.eigvalsh(sigma)
            assert eigs[0] >= self.L - 1e-9 and eigs[-1] <= self.U + 1e-9


FITTERS = {
    "fetr": lambda data, cfg, budget: fit_fetr(data, cfg, budget_seconds=budget),
    "projected_gd": lambda data, cfg, budget: fit_projected_gd(
        data, cfg, max_iters=40, budget_seconds=budget
    ),
    "flipflop": lambda data, cfg, budget: fit_mtfrl_flipflop(
        data, cfg.eta, 1e-3, cfg.l, cfg.u, budget_seconds=budget
    ),
}


@pytest.mark.parametrize("fitter", FITTERS.values(), ids=FITTERS.keys())
class TestRun:
    """What BCM and the two baselines share: budget, timing and report."""

    CFG = FetrConfig(eta=1.0, l=0.01, u=100.0)

    def test_budget_stops_early(self, fitter):
        data = generate_synthetic(500, 30, 10, seed=1)
        report = fitter(data, self.CFG, 0.0).report
        assert "budget exhausted" in report.events
        assert [p.block for p in report.trace] == ["init"]
        assert report.iterations == 0
        assert not report.converged

    def test_per_block_seconds_cover_trace_blocks(self, fitter):
        report = fitter(generate_synthetic(200, 6, 3, seed=2), self.CFG, None).report
        assert report.iterations > 0
        blocks = {p.block for p in report.trace} - {"init"}
        assert set(report.per_block_seconds) == blocks
        assert sum(report.per_block_seconds.values()) <= report.trace[-1].seconds


class TestSigma1Profile:
    """F(W) = min over Sigma1 of the objective: value, gradient and Hessian."""

    D, M, L, U, ETA = 6, 4, 0.5, 4.0, 1.3
    # eigenvalues nu of W Sigma2 W^T; g(nu) = clamp(m / nu, l, u) is u on
    # the null space and at 0.5, inside (l, u) at 2 and 5, and l at 12
    NU = (0.0, 0.0, 0.5, 2.0, 5.0, 12.0)
    SIGMA1_EIGS = (L, 0.8, 2.0, U, U, U)

    def _point(self, rng, shared):
        d, m = self.D, self.M
        if shared:
            data, _, sigma2 = random_shared_problem(rng, 20, d, m, self.L, self.U)
        else:
            data, _, sigma2 = random_pertask_problem(rng, d, m, self.L, self.U, 3, 12)
        # W = Q diag(sqrt(nu)) R^T Sigma2^{-1/2} gives W Sigma2 W^T = Q diag(nu) Q^T
        q, _ = np.linalg.qr(rng.standard_normal((d, m)))
        r, _ = np.linalg.qr(rng.standard_normal((m, m)))
        vals, vecs = np.linalg.eigh(sigma2)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        w = (q * np.sqrt(self.NU[d - m:])) @ r.T @ inv_sqrt
        assert np.allclose(np.linalg.eigvalsh(w @ sigma2 @ w.T), self.NU, atol=1e-9)
        return GramCache(data), data, w, sigma2

    def _profile(self, gram, w, sigma2):
        return Sigma1Profile(gram, w, sigma2, self.ETA, self.L, self.U)

    @pytest.mark.parametrize("shared", [True, False])
    def test_value_is_objective_at_sigma1_minimizer(self, rng, shared):
        gram, data, w, sigma2 = self._point(rng, shared)
        profile = self._profile(gram, w, sigma2)
        sigma1 = minimize_sigma1(w, sigma2, self.L, self.U)
        assert np.allclose(profile.sigma1, sigma1, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(sigma1) == pytest.approx(self.SIGMA1_EIGS)
        direct = fetr_objective(w, sigma1, sigma2, data, self.ETA)
        assert profile.value == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("shared", [True, False])
    def test_gradient_matches_central_differences(self, rng, shared):
        gram, _, w, sigma2 = self._point(rng, shared)
        grad = self._profile(gram, w, sigma2).grad()
        h = 1e-5
        numeric = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            step = np.zeros_like(w)
            step[idx] = h
            numeric[idx] = (
                self._profile(gram, w + step, sigma2).value
                - self._profile(gram, w - step, sigma2).value
            ) / (2 * h)
        assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("shared", [True, False])
    def test_hessian_vector_product_matches_gradient_differences(self, rng, shared):
        gram, _, w, sigma2 = self._point(rng, shared)
        profile = self._profile(gram, w, sigma2)
        h = 1e-6
        for _ in range(5):
            direction = rng.standard_normal(w.shape)
            numeric = (
                self._profile(gram, w + h * direction, sigma2).grad()
                - self._profile(gram, w - h * direction, sigma2).grad()
            ) / (2 * h)
            exact = profile.hess_vec(direction)
            assert np.linalg.norm(exact - numeric) <= 1e-6 * np.linalg.norm(exact)


class TestPredict:
    def test_zero_weights(self, rng):
        assert np.allclose(predict(np.zeros((3, 2)), rng.uniform(size=(5, 3))), 0.0)

    def test_identity_design(self, rng):
        w = rng.standard_normal((4, 2))
        assert np.allclose(predict(w, np.eye(4)), w)

    def test_single_vector(self, rng):
        w = rng.standard_normal((3, 1))
        x = rng.standard_normal(3)
        assert np.isclose(predict(w, x)[0], w[:, 0] @ x)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DataValidationError):
            predict(np.zeros((3, 2)), rng.uniform(size=(5, 4)))


class TestMetrics:
    def test_perfect_predictions(self, rng):
        y = rng.standard_normal((10, 3))
        per_task, agg = metrics(y, y, kind="mse")
        assert np.allclose(per_task, 0.0) and agg == 0.0
        per_task, agg = metrics(y, y, kind="nmse")
        assert np.allclose(per_task, 0.0)

    def test_constant_prediction_nmse_one(self, rng):
        y = rng.standard_normal((50, 2))
        pred = np.tile(y.mean(axis=0), (50, 1))
        per_task, agg = metrics(y, pred, kind="nmse")
        assert np.allclose(per_task, 1.0)

    def test_hand_example(self):
        per_task, agg = metrics(np.array([[0.0], [2.0]]), np.zeros((2, 1)), kind="nmse")
        assert np.isclose(per_task[0], 2.0)
        per_task, agg = metrics(np.array([[0.0], [2.0]]), np.zeros((2, 1)), kind="mse")
        assert np.isclose(per_task[0], 2.0)

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateMetricError):
            metrics(np.ones((5, 1)), np.zeros((5, 1)), kind="nmse")

    def test_per_task_sequences(self, rng):
        y_true = [rng.standard_normal(5), rng.standard_normal(8)]
        y_pred = [y_true[0] + 1.0, y_true[1]]
        per_task, agg = metrics(y_true, y_pred, kind="mse")
        assert np.isclose(per_task[0], 1.0) and per_task[1] == 0.0
        assert np.isclose(agg, 0.5)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            metrics(np.ones((2, 1)), np.ones((2, 1)), kind="mae")
