import warnings
from fractions import Fraction

import numpy as np
import pytest

from fetr import (
    DivergenceError,
    DomainError,
    EigenDecomp,
    FetrConfig,
    SingularMatrixError,
    fetr_objective,
    fit_fetr,
    fit_mtfrl_flipflop,
    fit_projected_gd,
    fit_ridge_stl,
    flip_flop_step,
    generate_synthetic,
    objective_gradients,
    solve_w_closed,
    validate_dataset,
)
from fetr import baselines, trainer
from fetr.linalg import project_bounded_spd

from conftest import random_pertask_problem, random_shared_problem, random_spd, rel_gap


class TestFlipFlopStep:
    def test_rank_collapse_without_fudge(self, rng):
        w = rng.standard_normal((3, 2))
        s1, s2 = flip_flop_step(w, np.eye(3), np.eye(2), epsilon=0.0)
        assert np.linalg.eigvalsh(s1)[0] <= 1e-10
        # d = 3 > m = 2: the feature factor has rank at most 2
        assert np.linalg.matrix_rank(s1, tol=1e-10) <= 2

    def test_fudge_floors_spectrum(self, rng):
        w = rng.standard_normal((3, 2))
        s1, s2 = flip_flop_step(w, np.eye(3), np.eye(2), epsilon=1e-3)
        assert np.linalg.eigvalsh(s1)[0] >= 1e-3 - 1e-12
        assert np.linalg.eigvalsh(s2)[0] >= 1e-3 - 1e-12

    def test_zero_weight(self):
        s1, s2 = flip_flop_step(np.zeros((4, 2)), np.eye(4), np.eye(2), epsilon=1e-3)
        assert np.allclose(s1, 1e-3 * np.eye(4))
        assert np.allclose(s2, 1e-3 * np.eye(2))

    def test_update_formula(self, rng):
        w = rng.standard_normal((3, 2))
        sigma1 = random_spd(rng, 3, 0.5, 2.0)
        sigma2 = random_spd(rng, 2, 0.5, 2.0)
        s1, s2 = flip_flop_step(w, sigma1, sigma2, epsilon=0.5)
        assert np.allclose(s1, w @ np.linalg.solve(sigma2, w.T) / 2 + 0.5 * np.eye(3))
        assert np.allclose(s2, w.T @ np.linalg.solve(sigma1, w) / 3 + 0.5 * np.eye(2))

    def test_singular_on_next_step(self, rng):
        w = rng.standard_normal((3, 2))
        s1, s2 = flip_flop_step(w, np.eye(3), np.eye(2), epsilon=0.0)
        with pytest.raises(SingularMatrixError):
            flip_flop_step(w, s1, s2, epsilon=0.0)

    def test_task_update_inverse_exact_at_wide_spectrum(self):
        # Sigma1 = (H/2) diag(lam) (H/2)^T with H the 4x4 Hadamard matrix: H/2 is
        # orthogonal and exact in binary, so W^T Sigma1^{-1} W / d is known exactly
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        lam = [1e-6, 1e-2, 1e2, 1e6]
        w = np.eye(4)[:, :2]
        _, s2 = flip_flop_step(w, EigenDecomp(h, np.array(lam)), np.eye(2), epsilon=0.0)
        exact = np.array([
            [float(sum(
                Fraction(h[i, k]) * Fraction(h[j, k]) / Fraction(lam[k]) for k in range(4)
            ) / 4) for j in range(2)]
            for i in range(2)
        ])
        assert np.max(np.abs(s2 - exact) / np.abs(exact)) <= 1e-12

    def test_negative_epsilon_rejected(self, rng):
        with pytest.raises(DomainError):
            flip_flop_step(np.zeros((2, 2)), np.eye(2), np.eye(2), epsilon=-1.0)


class TestFlipFlopFit:
    def test_zero_targets(self, rng):
        x = rng.uniform(size=(20, 3))
        data = validate_dataset([(x, np.zeros(20)) for _ in range(2)])
        result = fit_mtfrl_flipflop(data, eta=1.0, epsilon=1e-3, l=0.1, u=10.0)
        assert np.allclose(result.weights.matrix, 0.0)

    def test_trace_finite_but_not_necessarily_monotone(self):
        data = generate_synthetic(300, 6, 4, seed=2)
        result = fit_mtfrl_flipflop(data, eta=1.0, epsilon=1e-3, l=0.01, u=100.0)
        assert all(np.isfinite(p.objective) for p in result.report.trace)

    def test_never_beats_coordinate_minimization(self):
        data = generate_synthetic(500, 10, 4, seed=4)
        cfg = FetrConfig(eta=1.0, l=0.01, u=100.0, max_outer_iters=300)
        fetr_final = fit_fetr(data, cfg).report.final_objective
        ff_final = fit_mtfrl_flipflop(
            data, eta=1.0, epsilon=1e-3, l=0.01, u=100.0, max_iters=300
        ).report.final_objective
        assert fetr_final <= ff_final + 1e-6

    def test_rank_collapse_event_without_fudge(self):
        data = generate_synthetic(100, 3, 2, seed=6)
        result = fit_mtfrl_flipflop(data, eta=1.0, epsilon=0.0, l=0.01, u=100.0)
        assert any("singular" in e for e in result.report.events)
        assert result.report.iterations == 1

    def test_nonintegral_max_iters_rejected_by_the_config(self):
        data = generate_synthetic(100, 3, 2, seed=6)
        with pytest.raises(DomainError, match="max_outer_iters must be an integer"):
            fit_mtfrl_flipflop(data, eta=1.0, epsilon=1e-3, l=0.01, u=100.0, max_iters=5.0)

    @pytest.mark.parametrize(
        "epsilon", [-1e-3, float("nan"), float("inf"), True, np.True_, "1e-3", None],
        ids=["neg", "nan", "inf", "bool", "npbool", "str", "none"],
    )
    def test_bad_epsilon_rejected_before_any_work(self, epsilon, monkeypatch):
        def no_run(*args, **kw):
            raise AssertionError("a run was started")

        monkeypatch.setattr(baselines, "Run", no_run)
        with pytest.raises(DomainError, match="epsilon must be >= 0 and finite"):
            fit_mtfrl_flipflop(generate_synthetic(100, 3, 2, seed=6), 1.0, epsilon, 0.01, 100.0)

    def test_numpy_epsilon_fits_like_a_float(self):
        data = generate_synthetic(100, 3, 2, seed=6)
        plain, numpy = (
            fit_mtfrl_flipflop(data, 1.0, eps, 0.01, 100.0, max_iters=3)
            for eps in (1e-3, np.float64(1e-3))
        )
        assert np.array_equal(plain.weights.matrix, numpy.weights.matrix)
        assert [p.objective for p in plain.report.trace] == [p.objective for p in numpy.report.trace]


class TestProjectedGd:
    def test_covariance_gradients_match_finite_differences(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 20, 3, 2, 0.5, 2.0)
        w = rng.standard_normal((3, 2))
        eta = 1.3
        _, g1, g2 = objective_gradients(w, sigma1, sigma2, data, eta)

        def fd(matrix, which, step=1e-6):
            g = np.zeros_like(matrix)
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    args_p = [w, sigma1.copy(), sigma2.copy()]
                    args_m = [w, sigma1.copy(), sigma2.copy()]
                    args_p[which][i, j] += step
                    args_m[which][i, j] -= step
                    g[i, j] = (
                        fetr_objective(*args_p, data, eta) - fetr_objective(*args_m, data, eta)
                    ) / (2 * step)
            return g

        assert rel_gap(g1, fd(sigma1, 1)) <= 1e-5
        assert rel_gap(g2, fd(sigma2, 2)) <= 1e-5

    def test_sigma1_gradient_inverse_exact_at_wide_spectrum(self):
        # Sigma1 = (H/2) diag(lam) (H/2)^T with H the 4x4 Hadamard matrix: H/2 is
        # orthogonal and exact in binary, so Sigma1^{-1} is known exactly
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        lam = [1e-6, 1e-2, 1e2, 1e6]
        data = generate_synthetic(10, 4, 3, seed=0)
        eta, m = 1.3, 3
        _, g1, _ = objective_gradients(
            np.zeros((4, m)), EigenDecomp(h, np.array(lam)), np.eye(m), data, eta
        )
        exact = np.array([
            [float(-Fraction(eta) * m * sum(
                Fraction(h[i, k]) * Fraction(h[j, k]) / Fraction(lam[k]) for k in range(4)
            )) for j in range(4)]
            for i in range(4)
        ])
        assert np.max(np.abs(g1 - exact) / np.abs(exact)) <= 1e-12

    def test_gradients_reject_indefinite_precision(self):
        data = generate_synthetic(10, 3, 2, seed=0)
        with pytest.raises(SingularMatrixError, match="sigma1"):
            objective_gradients(np.zeros((3, 2)), np.diag([1.0, -1.0, 2.0]), np.eye(2), data, 1.0)

    def test_monotone_trace(self):
        data = generate_synthetic(200, 4, 3, seed=9)
        cfg = FetrConfig(eta=1.0, l=0.01, u=100.0)
        result = fit_projected_gd(data, cfg, max_iters=300)
        objs = [p.objective for p in result.report.trace]
        assert all(b < a for a, b in zip(objs, objs[1:]))

    def test_iterates_feasible(self):
        data = generate_synthetic(150, 3, 2, seed=10)
        cfg = FetrConfig(eta=1.0, l=0.5, u=2.0)
        result = fit_projected_gd(data, cfg, max_iters=50)
        for s in (result.covariances.sigma1, result.covariances.sigma2):
            eigs = np.linalg.eigvalsh(s)
            assert eigs[0] >= 0.5 - 1e-9 and eigs[-1] <= 2.0 + 1e-9

    def test_stationary_at_coordinate_minimum(self):
        # a fully converged coordinate-minimization point leaves projected
        # GD almost nothing to gain in one sweep
        data = generate_synthetic(200, 3, 5, seed=12)
        cfg = FetrConfig(eta=1.0, l=0.01, u=100.0, rel_obj_tol=1e-12, max_outer_iters=400)
        model = fit_fetr(data, cfg)
        w = model.weights.matrix
        s1 = model.covariances.sigma1
        s2 = model.covariances.sigma2
        base = fetr_objective(w, s1, s2, data, 1.0)
        from fetr.linalg import project_bounded_spd

        gw, g1, g2 = objective_gradients(w, s1, s2, data, 1.0)
        best = base
        step = 1e-2
        for _ in range(31):
            trial = fetr_objective(
                w - step * gw,
                project_bounded_spd(s1 - step * g1, 0.01, 100.0),
                project_bounded_spd(s2 - step * g2, 0.01, 100.0),
                data,
                1.0,
            )
            best = min(best, trial)
            step /= 2
        assert best >= base - 1e-8 * (1 + abs(base))

    def test_overflowing_trial_raises_without_warning(self, monkeypatch):
        data = generate_synthetic(200, 6, 3, seed=2)
        cfg = FetrConfig(eta=1.0, l=0.01, u=100.0)
        monkeypatch.setattr(baselines, "PGD_INITIAL_STEP", 1e150)
        monkeypatch.setattr(baselines, "PGD_MAX_HALVINGS", 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="line search"):
                fit_projected_gd(data, cfg)

    @pytest.mark.parametrize(
        "kwargs",
        [{"max_iters": -3}, {"max_iters": 5.0}, {"max_iters": np.True_}, {"max_iters": None}],
        ids=["iters-neg", "iters-float", "iters-npbool", "iters-none"],
    )
    def test_bad_arguments_rejected_before_any_work(self, kwargs, monkeypatch):
        def no_run(*args, **kw):
            raise AssertionError("a run was started")

        monkeypatch.setattr(baselines, "Run", no_run)
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            fit_projected_gd(generate_synthetic(200, 6, 3, seed=2), FetrConfig(eta=1.0), **kwargs)


def _trial_case(rng, kind):
    """A feasible point, gradient scales and box for one certificate draw.

    "general" draws spread the factor eigenvalues over the box. "edge" draws
    put them on both ends of a box of u/l >= 1e9 with W and the step tiny,
    so the eigensolver's error at l decides. "flat" draws put them all at l
    with W large, so the rounding of the trace term decides.
    """
    d, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
    l = 10.0 ** rng.uniform(-9, 1)
    u = l * 10.0 ** rng.uniform(9 if kind == "edge" else 0.5, 12)
    factors = []
    for k in (d, m):
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        values = {
            "general": np.exp(rng.uniform(np.log(l), np.log(u), size=k)),
            "edge": rng.choice([l, u], size=k),
            "flat": np.full(k, l),
        }[kind]
        factors.append(EigenDecomp(q, np.sort(values)))
    w_size = {
        "general": 10.0 ** rng.uniform(-3, 2),
        "edge": 10.0 ** rng.uniform(-12, -8) / u,
        "flat": 10.0 ** rng.uniform(0, 3),
    }[kind]
    if kind == "general":
        grad_size = 10.0 ** rng.uniform(-12, 2)
    else:
        grad_size = u * 10.0 ** rng.uniform(-26, -14)
    return d, m, l, u, factors, w_size, grad_size


def _symmetric(rng, k):
    g = rng.standard_normal((k, k))
    return g + g.T


def _assert_same_fit(a, b):
    # the model, its precisions as the dense matrices built from the fit's
    # factors, and every report field but the clock readings
    for x, y in ((a.weights.matrix, b.weights.matrix),
                 (a.covariances.sigma1, b.covariances.sigma1),
                 (a.covariances.sigma2, b.covariances.sigma2)):
        assert np.array_equal(x, y)
    ra, rb = a.report, b.report
    assert [(p.iteration, p.block, p.objective, p.evals) for p in ra.trace] == [
        (p.iteration, p.block, p.objective, p.evals) for p in rb.trace
    ]
    for field in ("objective_evals", "iterations", "converged", "events"):
        assert getattr(ra, field) == getattr(rb, field), field


def _bounds_and_trials(data, cfg, point, grads, steps):
    """The certificate of every step and the objective evaluated at its
    projected trial, as the line search would evaluate it."""
    (w, sigma1, sigma2), (grad_w, grad_s1, grad_s2) = point, grads
    bounds = baselines.line_search_lower_bounds(
        data, cfg, w, grad_w, sigma1, sigma2,
        np.linalg.norm(grad_s1), np.linalg.norm(grad_s2), steps,
    )
    trials = [
        fetr_objective(
            w - step * grad_w,
            project_bounded_spd(sigma1 - step * grad_s1, cfg.l, cfg.u),
            project_bounded_spd(sigma2 - step * grad_s2, cfg.l, cfg.u),
            data,
            cfg.eta,
        )
        for step in steps
    ]
    return bounds, np.array(trials)


class TestTrialBound:
    """The projected-GD line-search certificate (``baselines.line_search_lower_bounds``)."""

    def test_never_above_projected_trial(self):
        # every step of a 31-step ladder, as one default line search bounds them
        rng = np.random.default_rng(6)
        for draw in range(450):
            kind = ("general", "edge", "flat")[draw % 3]
            d, m, l, u, (sigma1, sigma2), w_size, grad_size = _trial_case(rng, kind)
            if draw % 2:
                data = random_pertask_problem(rng, d, m, 0.5, 2.0)[0]
            else:
                data = random_shared_problem(rng, 30, d, m, 0.5, 2.0)[0]
            eta = 10.0 ** rng.uniform(-2, 2)
            w, grad_w = w_size * rng.standard_normal((2, d, m))
            grad_s1, grad_s2 = grad_size * _symmetric(rng, d), grad_size * _symmetric(rng, m)
            step = 10.0 ** rng.uniform(-8, 3)
            bounds, trials = _bounds_and_trials(
                data, FetrConfig(eta=eta, l=l, u=u), (w, sigma1, sigma2),
                (grad_w, grad_s1, grad_s2), step * 0.5 ** np.arange(31),
            )
            assert np.all(bounds <= trials), (draw, kind, np.flatnonzero(bounds > trials))

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "per-task"])
    def test_cancelling_loss_on_noiseless_targets(self, shared):
        # Y = X W0 exactly and W within 1e-12 of W0: the loss cancels to almost 0
        # from terms of size Y^T Y, so the closed-form loss along the ray and the
        # evaluated one differ by their rounding, far more than |loss|, so a margin
        # scaled by |loss| alone fails here. The flat precisions in a narrow box
        # make the rest of the bound nearly exact.
        l, u, eta = 1e-6, 1e-5, 1e-3
        cfg = FetrConfig(eta=eta, l=l, u=u)
        for seed in range(40):
            rng = np.random.default_rng(seed)
            d, m = int(rng.integers(2, 7)), int(rng.integers(2, 5))
            w0 = 100.0 * rng.standard_normal((d, m))
            if shared:
                x = 100.0 * rng.standard_normal((30, d))
                tasks = [(x, x @ w0[:, i]) for i in range(m)]
            else:
                xs = [100.0 * rng.standard_normal((int(rng.integers(2, 30)), d)) for _ in range(m)]
                tasks = [(x, x @ w0[:, i]) for i, x in enumerate(xs)]
            data = validate_dataset(tasks)
            w = w0 + 1e-12 * rng.standard_normal((d, m))
            sigma1, sigma2 = (
                EigenDecomp(np.linalg.qr(rng.standard_normal((k, k)))[0], np.full(k, l))
                for k in (d, m)
            )
            grads = objective_gradients(w, sigma1, sigma2, data, eta)
            bounds, trials = _bounds_and_trials(
                data, cfg, (w, sigma1, sigma2), grads, 1e-2 * 0.5 ** np.arange(31)
            )
            assert np.all(bounds <= trials), (seed, np.flatnonzero(bounds > trials))

    @pytest.mark.parametrize("shift", [np.inf, np.nan])
    def test_non_finite_input_certifies_nothing(self, shift):
        data = generate_synthetic(50, 3, 2, seed=1)
        cfg = FetrConfig(eta=1.0, l=0.01, u=100.0)
        sigma1 = EigenDecomp(np.eye(3), np.ones(3))
        sigma2 = EigenDecomp(np.eye(2), np.ones(2))
        w = np.ones((3, 2))

        def bound(w, norm1, norm2):
            # one unit step from w with a zero W gradient: the trial W is w
            args = (data, cfg, w, np.zeros_like(w), sigma1, sigma2, norm1, norm2, np.ones(1))
            return baselines.line_search_lower_bounds(*args)[0]

        assert np.isfinite(bound(w, 1.0, 1.0))
        for shifts in ((shift, 1.0), (1.0, shift)):
            assert bound(w, *shifts) == -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            assert bound(1e200 * w, 1.0, 1.0) == -np.inf

    @pytest.mark.parametrize(
        "make_data, l, u, iters",
        [
            *[(lambda s=s: generate_synthetic(2000, 30, 10, seed=s), 1e-2, 1e2, 40)
              for s in range(4)],
            (lambda: generate_synthetic(200, 8, 3, seed=5), 1e-6, 1e6, 200),
            # school-shaped: 139 tasks, d=27, n_i in 22..251, some n_i < d
            (lambda: random_pertask_problem(np.random.default_rng(7), 27, 139, 1, 2, 22, 252)[0],
             1e-2, 1e2, 20),
        ],
        ids=["crit5-0", "crit5-1", "crit5-2", "crit5-3", "wide-box", "school-shaped"],
    )
    def test_fit_identical_without_certificate(self, monkeypatch, make_data, l, u, iters):
        data = validate_dataset(make_data())
        cfg = FetrConfig(eta=1.0, l=l, u=u)
        full_evaluations = 0
        objective = trainer.fetr_objective

        def counted(*args):
            nonlocal full_evaluations
            full_evaluations += 1
            return objective(*args)

        monkeypatch.setattr(trainer, "fetr_objective", counted)
        fast = fit_projected_gd(data, cfg, max_iters=iters)
        report = fast.report
        certified = report.objective_evals - full_evaluations
        rejected = report.objective_evals - 1 - report.iterations
        monkeypatch.setattr(
            baselines, "line_search_lower_bounds", lambda *args: np.full(len(args[-1]), -np.inf)
        )
        plain = fit_projected_gd(data, cfg, max_iters=iters)
        _assert_same_fit(fast, plain)
        assert report.iterations == iters and not report.events
        if data.d == 30:
            # the fast path: most rejected trials skip both projections
            assert certified >= 0.8 * rejected, (certified, rejected)


class TestRidgeStl:
    def test_interpolates_square_system(self, rng):
        x = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        y = rng.standard_normal(4)
        data = validate_dataset([(x, y)])
        w = fit_ridge_stl(data, 0.0)
        assert np.allclose(x @ w.matrix[:, 0], y)

    def test_large_lambda_shrinks_to_zero(self, rng):
        x = rng.uniform(size=(20, 3))
        data = validate_dataset([(x, rng.standard_normal(20))])
        assert np.linalg.norm(fit_ridge_stl(data, 1e12).matrix) < 1e-6

    def test_matches_first_w_block(self, rng):
        # with identity precisions and eta = lambda the first W block of the
        # coordinate loop is exactly ridge regression
        data, _, _ = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        lam = 0.7
        w_ridge = fit_ridge_stl(data, lam).matrix
        w_block = solve_w_closed(data, np.eye(4), np.eye(3), lam).matrix
        assert rel_gap(w_ridge, w_block) <= 1e-10

    def test_per_task_unequal_n_matches_normal_equations(self, rng):
        tasks = [(rng.standard_normal((n, 4)), rng.standard_normal(n)) for n in (5, 11, 30)]
        lam = 0.3
        w = fit_ridge_stl(validate_dataset(tasks), lam).matrix
        for i, (x, y) in enumerate(tasks):
            expected = np.linalg.solve(x.T @ x + lam * np.eye(4), x.T @ y)
            assert rel_gap(w[:, i], expected) <= 1e-12

    def test_negative_lambda_rejected(self, rng):
        data = validate_dataset([(rng.standard_normal((5, 2)), rng.standard_normal(5))])
        with pytest.raises(DomainError, match="ridge_lambda must be >= 0"):
            fit_ridge_stl(data, -1.0)

    @pytest.mark.parametrize(
        "lam", [float("inf"), float("nan"), True, "1.0", None], ids=["inf", "nan", "bool", "str", "none"]
    )
    def test_bad_lambda_rejected_without_warning_before_any_work(self, rng, lam, monkeypatch):
        data = validate_dataset([(rng.standard_normal((5, 2)), rng.standard_normal(5))])
        monkeypatch.setattr(baselines, "validate_dataset", None)  # any use would raise TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="ridge_lambda must be >= 0 and finite"):
                fit_ridge_stl(data, lam)

    def test_numpy_lambda_fits_like_a_float(self, rng):
        data = validate_dataset([(rng.standard_normal((5, 2)), rng.standard_normal(5))])
        numpy, plain = fit_ridge_stl(data, np.float64(0.7)), fit_ridge_stl(data, 0.7)
        assert np.array_equal(numpy.matrix, plain.matrix)

    def test_singular_rejected(self):
        x = np.ones((3, 2))  # rank 1
        data = validate_dataset([(x, np.ones(3))])
        with pytest.raises(SingularMatrixError):
            fit_ridge_stl(data, 0.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_equal_columns_rejected(self, seed):
        # X^T X is exactly singular, yet for seeds 0, 3, 6, 8 and 9 its Cholesky
        # factorization passes by roundoff, with a smallest pivot below 4 eps
        x = np.random.default_rng(seed).standard_normal((11, 4))
        x[:, 0] = x[:, 1]
        data = validate_dataset([(x, x[:, 2])])
        with pytest.raises(SingularMatrixError, match="task 0: normal matrix singular at ridge_lambda=0.0"):
            fit_ridge_stl(data, 0.0)
