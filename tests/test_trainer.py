from dataclasses import replace

import numpy as np
import pytest

import fetr.covariance
import fetr.trainer
from fetr import (
    DataValidationError,
    DegenerateMetricError,
    DomainError,
    EigenDecomp,
    FetrConfig,
    InternalConsistencyError,
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

from fetr import wsolvers
from fetr.covariance import clamped_spectrum, scale_to_box
from fetr.trainer import MONOTONE_SLACK, Profile
from fetr.wsolvers import h_value, solve_w_sylvester

from conftest import random_pertask_problem, random_shared_problem


def _zero_target_data(rng, n=20, d=3, m=2):
    x = rng.uniform(size=(n, d))
    return validate_dataset([(x, np.zeros(n)) for _ in range(m)])


class TestObjective:
    def test_all_terms_vanish(self, rng):
        data = _zero_target_data(rng, d=3, m=2)
        val = fetr_objective(np.zeros((3, 2)), np.eye(3), np.eye(2), data, eta=1.0)
        assert val == 0.0

    def test_returns_python_float(self, rng):
        # an np.float64 would make the report's `converged` an np.bool_,
        # which json cannot serialize
        data = _zero_target_data(rng, d=3, m=2)
        assert type(fetr_objective(np.ones((3, 2)), np.eye(3), np.eye(2), data, 1.0)) is float

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
        # (3, 3) has d rows: a loop over the m = 2 tasks would read two of its columns
        data = _zero_target_data(rng, d=3, m=2)
        for shape in ((2, 3), (3, 3)):
            w = np.zeros(shape)
            with pytest.raises(DomainError):
                fetr_objective(w, np.eye(3), np.eye(2), data, 1.0)
            with pytest.raises(DomainError):
                h_value(w, data, np.eye(3), np.eye(2), 1.0)


class TestGramFormObjective:
    """fetr_objective takes its loss from the dataset's Gram; wsolvers.h_value is the
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
        assert abs(fetr_objective(w, sigma1, sigma2, data, eta) - direct) <= margin

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

    def test_solver_choice_changes_little(self, monkeypatch):
        # the W block of a fit is wsolvers.solve_w; each stand-in below
        # answers it with one solver, the iterative ones warm-started at
        # rel_tol=1e-12
        data = generate_synthetic(200, 4, 3, seed=11)
        cfg = FetrConfig(eta=1.0, l=0.01, u=100.0, max_outer_iters=200)
        used = []

        def closed(data, sigma1, sigma2, eta, w0=None, max_iters=None):
            used.append("closed")
            return wsolvers.solve_w_closed(data, sigma1, sigma2, eta), 0

        def sylvester(data, sigma1, sigma2, eta, w0=None, max_iters=None):
            used.append("sylvester")
            return wsolvers.solve_w_sylvester(data, sigma1, sigma2, eta), 0

        def cg(data, sigma1, sigma2, eta, w0=None, max_iters=None):
            used.append("cg")
            return wsolvers.solve_w_cg(
                data, sigma1, sigma2, eta, w0=w0, max_iters=max_iters, rel_tol=1e-12
            )

        def gd(data, sigma1, sigma2, eta, w0=None, max_iters=None):
            used.append("gd")
            schedule = wsolvers.step_schedule(data.gram.xtx_eigs, eta, cfg.l, cfg.u)
            return wsolvers.solve_w_gd(
                data, sigma1, sigma2, eta, schedule, w0=w0, max_iters=max_iters,
                rel_tol=1e-12,
            )

        finals = []
        for solver in (closed, sylvester, cg, gd):
            monkeypatch.setattr(wsolvers, "solve_w", solver)
            finals.append(fit_fetr(data, cfg).report.final_objective)
        assert set(used) == {"closed", "sylvester", "cg", "gd"}
        spread = (max(finals) - min(finals)) / (1 + abs(min(finals)))
        assert spread <= 1e-5

    def test_per_task_data_uses_cg(self, rng):
        data, _, _ = random_pertask_problem(rng, 2, 4, 0.5, 2.0)
        model = fit_fetr(data, FetrConfig(eta=1.0, l=0.1, u=10.0, max_outer_iters=500))
        assert model.report.converged
        objs = [p.objective for p in model.report.trace]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-10 * (1 + abs(prev))
        # one entry per W block; the first block starts at W = 0, away from
        # the optimum, so conjugate gradients take steps there
        iters = model.report.w_iterations
        assert len(iters) == model.report.iterations and iters[0] > 0

    def test_shared_data_reports_direct_w_blocks(self):
        model = fit_fetr(generate_synthetic(200, 4, 3, seed=11), FetrConfig(eta=1.0))
        assert model.report.w_iterations == (0,) * model.report.iterations


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


class TestWiderBox:
    """u/l = 1e9 and 1e12 fit. The objective reads the clamped eigenvalues the
    Sigma blocks hold; the dense matrices round those at l by about eps * u,
    so their spectrum is not checked here (CovariancePair checks the factors)."""

    RATIOS = pytest.mark.parametrize("l", [10**-4.5, 1e-6], ids=["ratio1e9", "ratio1e12"])

    @RATIOS
    @pytest.mark.parametrize("seed", range(8))
    def test_fits_with_nonincreasing_trace(self, seed, l):
        model = fit_fetr(generate_synthetic(200, 8, 3, seed), FetrConfig(eta=1.0, l=l, u=1.0 / l))
        _assert_nonincreasing(model)

    @RATIOS
    def test_pertask_task_shorter_than_features(self, rng, l):
        # a task with n_i < d makes X_i^T X_i singular; the gradient-descent
        # step schedule then had kappa ~ (u/l)^2 and could not be built
        tasks = [(rng.standard_normal((n, 4)), rng.standard_normal(n)) for n in (2, 8, 8)]
        model = fit_fetr(tasks, FetrConfig(eta=1.0, l=l, u=1.0 / l, max_outer_iters=20))
        assert np.isfinite(model.weights.matrix).all()
        _assert_nonincreasing(model)


def _assert_nonincreasing(model):
    assert model.report.iterations > 0
    objs = [p.objective for p in model.report.trace]
    assert np.isfinite(objs).all()
    for prev, cur in zip(objs, objs[1:]):
        assert cur <= prev + MONOTONE_SLACK * (1.0 + abs(prev))


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
        _assert_times_add_up(report)

    def test_per_block_seconds_cover_trace_blocks(self, fitter):
        report = fitter(generate_synthetic(200, 6, 3, seed=2), self.CFG, None).report
        assert report.iterations > 0
        _assert_times_add_up(report)


# runs that stop inside a block, after their last trace point
EARLY_STOPS = {
    "flipflop_rank_collapse": lambda data, cfg: fit_mtfrl_flipflop(
        data, cfg.eta, 0.0, cfg.l, cfg.u
    ),
    "pgd_search_exhausted": lambda data, cfg: fit_projected_gd(
        data, cfg, initial_step=1e3, max_halvings=0
    ),
}


@pytest.mark.parametrize("fit", EARLY_STOPS.values(), ids=EARLY_STOPS.keys())
def test_times_add_up_on_early_stop(fit):
    report = fit(generate_synthetic(200, 6, 3, seed=2), TestRun.CFG).report
    assert report.events and not report.converged
    _assert_times_add_up(report)


def _assert_times_add_up(report):
    """One clock: set-up, the init point, the blocks and the tail after the
    last trace point add up to the wall time."""
    trace = report.trace
    assert set(report.per_block_seconds) == {p.block for p in trace} - {"init"}
    blocks = sum(report.per_block_seconds.values())
    assert trace[0].seconds + blocks == pytest.approx(trace[-1].seconds, rel=0, abs=1e-9)
    assert 0.0 <= report.setup_seconds <= trace[0].seconds <= trace[-1].seconds <= report.wall_seconds


class TestGuardedBranches:
    """Branches of fit_fetr that a fit on well-posed data does not take."""

    DATA = generate_synthetic(200, 6, 3, seed=2)
    CFG = FetrConfig(eta=1.0, l=1e-2, u=1e2)

    def test_monotone_guard_names_the_block(self, monkeypatch):
        # a Sigma2 block that returns l I raises the objective (-30.1 -> 43.9);
        # its m x m call is the only one of that size here, with d = 6 and m = 3
        clamped_spectrum = fetr.covariance.clamped_spectrum

        def lower_bound(s, c, l, u):
            nu, ratio, sigma = clamped_spectrum(s, c, l, u)
            m = self.DATA.m
            return nu, ratio, EigenDecomp(np.eye(m), np.full(m, l)) if len(s) == m else sigma

        monkeypatch.setattr(fetr.covariance, "clamped_spectrum", lower_bound)
        with pytest.raises(InternalConsistencyError, match="after sigma2 block"):
            fit_fetr(self.DATA, self.CFG)

    def test_armijo_exhausted_keeps_the_base_profile(self, monkeypatch):
        # no trial passes an Armijo constant of 1e12: each sigma1 point costs the
        # base profile and ARMIJO_HALVINGS + 1 rejected trials
        monkeypatch.setattr(fetr.trainer, "ARMIJO_C1", 1e12)
        trace = fit_fetr(self.DATA, replace(self.CFG, max_outer_iters=3)).report.trace
        costs = [b.evals - a.evals for a, b in zip(trace, trace[1:]) if b.block == "sigma1"]
        assert costs == [fetr.trainer.ARMIJO_HALVINGS + 2] * 3 == [12] * 3
        objs = [p.objective for p in trace]
        assert all(b <= a + MONOTONE_SLACK * (1.0 + abs(a)) for a, b in zip(objs, objs[1:]))


class _ProfileChecks:
    """F(W) = min over one precision of the objective: value, gradient and
    Hessian, on shared and per-task data. A subclass picks the side."""

    L, U, ETA = 0.5, 4.0, 1.3
    # eigenvalues nu of A Other A^T, A with k = 4 columns; g(nu) = clamp(k / nu,
    # l, u) is u on the null space and at 0.5, inside (l, u) at 2 and 5, and l at 12
    NU = (0.0, 0.0, 0.5, 2.0, 5.0, 12.0)
    SIGMA_EIGS = (L, 0.8, 2.0, U, U, U)

    def _point(self, rng, shared):
        d, m = self.D, self.M
        if shared:
            data, sigma1, sigma2 = random_shared_problem(rng, 20, d, m, self.L, self.U)
        else:
            data, sigma1, sigma2 = random_pertask_problem(rng, d, m, self.L, self.U, 3, 12)
        other, (k, j) = (sigma1, (m, d)) if self.TASKS else (sigma2, (d, m))
        # A = Q diag(sqrt(nu)) R^T Other^{-1/2} gives A Other A^T = Q diag(nu) Q^T
        q, _ = np.linalg.qr(rng.standard_normal((k, j)))
        r, _ = np.linalg.qr(rng.standard_normal((j, j)))
        vals, vecs = np.linalg.eigh(other)
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        a = (q * np.sqrt(self.NU[k - j:])) @ r.T @ inv_sqrt
        assert np.allclose(np.linalg.eigvalsh(a @ other @ a.T), self.NU, atol=1e-9)
        return data, (a.T if self.TASKS else a), other

    def _profile(self, data, w, other):
        return Profile(data, w, other, self.ETA, self.L, self.U, tasks=self.TASKS)

    def _check_value(self, rng, shared):
        data, w, other = self._point(rng, shared)
        profile = self._profile(data, w, other)
        a = w.T if self.TASKS else w
        sigma = clamped_spectrum(a @ other @ a.T, a.shape[1], self.L, self.U)[2]
        assert np.allclose(profile.sigma, sigma, rtol=0, atol=1e-12)
        assert np.linalg.eigvalsh(sigma) == pytest.approx(self.SIGMA_EIGS)
        pair = (other, sigma) if self.TASKS else (sigma, other)
        direct = fetr_objective(w, *pair, data, self.ETA)
        assert profile.value == pytest.approx(direct, rel=1e-12)

    def test_value_is_evaluated_on_first_read(self, rng, monkeypatch):
        # a fit builds the Sigma2 block's profile without reading its value
        calls = []
        objective = fetr.trainer.fetr_objective
        monkeypatch.setattr(
            fetr.trainer, "fetr_objective", lambda *args: calls.append(args) or objective(*args)
        )
        profile = self._profile(*self._point(rng, True))
        assert calls == []
        value = profile.value
        assert profile.value == value and len(calls) == 1

    @pytest.mark.parametrize("shared", [True, False])
    def test_gradient_matches_central_differences(self, rng, shared):
        data, w, other = self._point(rng, shared)
        grad = self._profile(data, w, other).grad()
        h = 1e-5
        numeric = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            step = np.zeros_like(w)
            step[idx] = h
            numeric[idx] = (
                self._profile(data, w + step, other).value
                - self._profile(data, w - step, other).value
            ) / (2 * h)
        assert np.linalg.norm(grad - numeric) <= 1e-6 * np.linalg.norm(grad)

    @pytest.mark.parametrize("shared", [True, False])
    def test_hessian_vector_product_matches_gradient_differences(self, rng, shared):
        data, w, other = self._point(rng, shared)
        profile = self._profile(data, w, other)
        h = 1e-6
        for _ in range(5):
            direction = rng.standard_normal(w.shape)
            numeric = (
                self._profile(data, w + h * direction, other).grad()
                - self._profile(data, w - h * direction, other).grad()
            ) / (2 * h)
            exact = profile.hess_vec(direction)
            assert np.linalg.norm(exact - numeric) <= 1e-6 * np.linalg.norm(exact)


class TestSigma1Profile(_ProfileChecks):
    """The feature side: A = W, Other = Sigma2, k = m = 4 < d."""

    D, M, TASKS = 6, 4, False

    @pytest.mark.parametrize("shared", [True, False])
    def test_value_is_objective_at_sigma1_minimizer(self, rng, shared):
        self._check_value(rng, shared)


class TestSigma2Profile(_ProfileChecks):
    """The task side: A = W^T, Other = Sigma1, k = d = 4 < m, so the null
    space of W^T Sigma1 W is clamped to u, the geometry of school-shaped data."""

    D, M, TASKS = 4, 6, True

    @pytest.mark.parametrize("shared", [True, False])
    def test_value_is_objective_at_sigma2_minimizer(self, rng, shared):
        self._check_value(rng, shared)


class TestScaleToBox:
    """The scale ray at fixed W: Sigma1 -> D Sigma1 D with D = P / sqrt(c) +
    (I - P), P the projection onto range(W), and Sigma2 -> c Sigma2."""

    L, U, ETA = 1e-2, 1e2, 1.3

    def _block_minimizers(self, w):
        # Sigma1 minimizes at Sigma2 = I, then Sigma2 at that Sigma1
        nu, _, sigma1 = clamped_spectrum(w @ w.T, w.shape[1], self.L, self.U)
        return nu, sigma1, clamped_spectrum(w.T @ sigma1 @ w, w.shape[0], self.L, self.U)[2]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("d, m", [(8, 3), (6, 4)])
    def test_objective_falls_by_the_log_determinant_gain(self, seed, d, m):
        rng = np.random.default_rng(seed)
        data, _, _ = random_shared_problem(rng, 30, d, m, self.L, self.U)
        w = rng.standard_normal((d, m))  # rank m < d
        nu, sigma1, sigma2 = self._block_minimizers(w)
        moved1, moved2, c = scale_to_box(sigma1, nu, sigma2, self.L, self.U)
        assert c > 1.0
        before = fetr_objective(w, sigma1, sigma2, data, self.ETA)
        after = fetr_objective(w, moved1, moved2, data, self.ETA)
        assert after == pytest.approx(before - self.ETA * m * (d - m) * np.log(c), rel=1e-10)
        for e in (moved1, moved2):
            assert self.L <= e.values[0] and e.values[-1] <= self.U
        # Sigma1's smallest eigenvalue lies on range(W)
        assert moved1.values[0] == self.L or moved2.values[-1] == self.U

    def test_no_move_when_w_has_full_row_rank(self, rng):
        w = rng.standard_normal((3, 5))
        nu, sigma1, sigma2 = self._block_minimizers(w)
        moved1, moved2, c = scale_to_box(sigma1, nu, sigma2, self.L, self.U)
        assert c == 1.0 and moved1 is sigma1 and moved2 is sigma2


class TestScaleMoveInFit:
    """Criterion-5 data, which without the move took 7 sweeps each."""

    # final objectives of the same fits before the move was added
    BEFORE = {
        0: -1553.0380569310196,
        1: -1554.1513815537885,
        2: -1555.7385735364408,
        3: -1542.6628775091544,
    }

    @pytest.mark.parametrize("seed", sorted(BEFORE))
    def test_converges_in_at_most_five_sweeps(self, seed):
        model = fit_fetr(generate_synthetic(2000, 30, 10, seed), FetrConfig(eta=1.0, l=0.01, u=100.0))
        report = model.report
        assert report.converged and report.iterations <= 5
        assert len(report.trace) == 1 + 3 * report.iterations
        _assert_nonincreasing(model)
        before = self.BEFORE[seed]
        assert abs(report.final_objective - before) <= 1e-8 * abs(before)
        # the move is closed-form, so a sigma2 point, like a w point, is one evaluation
        trace = report.trace
        costs = [(p.block, p.evals - q.evals) for q, p in zip(trace, trace[1:])]
        assert all(cost == 1 for block, cost in costs if block in ("w", "sigma2")), costs
        assert report.objective_evals == trace[-1].evals


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
