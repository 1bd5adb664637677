import numpy as np
import pytest

from fetr import (
    CapacityError,
    DomainError,
    GramCache,
    UnsupportedShapeError,
    WSolver,
    grad_h,
    h_value,
    solve_w,
    solve_w_closed,
    solve_w_gd,
    solve_w_sylvester,
    step_schedule,
)

from conftest import random_pertask_problem, random_shared_problem, rel_gap


def finite_diff_grad(w, data, sigma1, sigma2, eta, step=1e-6):
    """Central finite differences of h, the independent gradient oracle."""
    g = np.zeros_like(w)
    for i in range(w.shape[0]):
        for j in range(w.shape[1]):
            wp = w.copy()
            wm = w.copy()
            wp[i, j] += step
            wm[i, j] -= step
            g[i, j] = (
                h_value(wp, data, sigma1, sigma2, eta) - h_value(wm, data, sigma1, sigma2, eta)
            ) / (2 * step)
    return g


class TestStepSchedule:
    def test_identity_gram(self):
        sched = step_schedule(np.ones(4), eta=1.0, l=0.1, u=10.0)
        assert np.isclose(sched.lambda_l, 1.01)
        assert np.isclose(sched.lambda_u, 101.0)
        assert np.isclose(sched.step, 2.0 / (101.0 + 1.01))
        assert np.isclose(sched.kappa, 101.0 / 1.01)

    def test_direct_substitution(self):
        sched = step_schedule(np.array([0.0, 4.0]), eta=1.0, l=1.0, u=2.0)
        assert np.isclose(sched.lambda_l, 1.0)
        assert np.isclose(sched.lambda_u, 8.0)
        assert np.isclose(sched.gamma, (7.0 / 9.0) ** 2)

    def test_eta_must_be_positive(self):
        with pytest.raises(DomainError):
            step_schedule(np.ones(2), eta=0.0, l=0.1, u=1.0)

    def test_hessian_spectrum_bounds(self, rng):
        # Kronecker-assembled Hessian of the half-objective must sit inside
        # [lambda_l, lambda_u] for any feasible precision pair
        l, u = 0.2, 4.0
        for _ in range(8):
            d, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            if d * m > 64:
                continue
            eta = float(rng.choice([0.1, 1.0, 10.0]))
            data, sigma1, sigma2 = random_shared_problem(rng, 30, d, m, l, u)
            gram = GramCache(data)
            sched = step_schedule(gram.xtx_eigs, eta, l, u)
            hess = np.kron(np.eye(m), gram.xtx) + eta * np.kron(sigma2, sigma1)
            eigs = np.linalg.eigvalsh(hess)
            assert eigs[0] >= sched.lambda_l - 1e-8 * sched.lambda_l
            assert eigs[-1] <= sched.lambda_u + 1e-8 * sched.lambda_u


class TestGradH:
    def test_zero_weight(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 25, 4, 3, 0.5, 2.0)
        gram = GramCache(data)
        g = grad_h(np.zeros((4, 3)), gram, sigma1, sigma2, 1.0)
        assert np.allclose(g, -2.0 * gram.xty)

    def test_zero_at_optimum(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        gram = GramCache(data)
        w_star = solve_w_closed(data, sigma1, sigma2, 1.3)
        g = grad_h(w_star, gram, sigma1, sigma2, 1.3)
        assert np.linalg.norm(g) <= 1e-6 * (1 + gram.xty_norm)

    def test_matches_finite_differences_shared(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 20, 3, 4, 0.5, 2.0)
        w = rng.standard_normal((3, 4))
        g = grad_h(w, data, sigma1, sigma2, 2.0)
        g_fd = finite_diff_grad(w, data, sigma1, sigma2, 2.0)
        assert rel_gap(g, g_fd) <= 1e-5

    def test_matches_finite_differences_pertask(self, rng):
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 4, 0.5, 2.0)
        w = rng.standard_normal((3, 4))
        g = grad_h(w, data, sigma1, sigma2, 0.7)
        g_fd = finite_diff_grad(w, data, sigma1, sigma2, 0.7)
        assert rel_gap(g, g_fd) <= 1e-5

    def test_dimension_mismatch(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 20, 3, 4, 0.5, 2.0)
        with pytest.raises(DomainError):
            grad_h(np.zeros((4, 3)), data, sigma1, sigma2, 1.0)


class TestClosedForm:
    def test_identity_reduction(self, rng):
        # X = I makes the normal equations (1 + eta) W = Y
        from fetr import validate_dataset

        y = rng.standard_normal((4, 2))
        data = validate_dataset([(np.eye(4), y[:, i]) for i in range(2)])
        w = solve_w_closed(data, np.eye(4), np.eye(2), 1.0)
        assert np.allclose(w.matrix, y / 2.0)

    def test_ridge_limit(self, rng):
        from fetr import validate_dataset

        y = rng.standard_normal((3, 2))
        data = validate_dataset([(np.eye(3), y[:, i]) for i in range(2)])
        for eta in (10.0, 1e4):
            w = solve_w_closed(data, np.eye(3), np.eye(2), eta)
            assert np.allclose(w.matrix, y / (1.0 + eta))
        assert np.linalg.norm(solve_w_closed(data, np.eye(3), np.eye(2), 1e8).matrix) < 1e-6

    def test_local_optimality(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 20, 3, 2, 0.5, 2.0)
        w_star = solve_w_closed(data, sigma1, sigma2, 1.0).matrix
        h_star = h_value(w_star, data, sigma1, sigma2, 1.0)
        for _ in range(100):
            delta = rng.standard_normal(w_star.shape) * 10.0 ** rng.uniform(-4, 0)
            assert h_star <= h_value(w_star + delta, data, sigma1, sigma2, 1.0) + 1e-10

    def test_capacity_guard(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 20, 4, 3, 0.5, 2.0)
        with pytest.raises(CapacityError):
            solve_w_closed(data, sigma1, sigma2, 1.0, max_system=11)

    def test_pertask_rejected(self, rng):
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 2, 0.5, 2.0)
        with pytest.raises(UnsupportedShapeError):
            solve_w_closed(data, sigma1, sigma2, 1.0)


class TestGradientDescent:
    def test_fixed_point(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        gram = GramCache(data)
        sched = step_schedule(gram.xtx_eigs, 1.0, 0.5, 2.0)
        w_star = solve_w_closed(data, sigma1, sigma2, 1.0)
        w, iters = solve_w_gd(data, sigma1, sigma2, 1.0, sched, w0=w_star, rel_tol=1e-8)
        assert iters <= 1

    def test_agrees_with_closed_form(self, rng):
        for _ in range(5):
            d, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            eta = float(rng.choice([0.1, 1.0, 10.0]))
            data, sigma1, sigma2 = random_shared_problem(rng, 60, d, m, 0.1, 10.0)
            gram = GramCache(data)
            sched = step_schedule(gram.xtx_eigs, eta, 0.1, 10.0)
            w_star = solve_w_closed(gram, sigma1, sigma2, eta).matrix
            w, _ = solve_w_gd(gram, sigma1, sigma2, eta, sched, rel_tol=1e-10)
            assert rel_gap(w.matrix, w_star) <= 1e-6

    def test_contraction_bound(self, rng):
        # per-step squared error must stay under gamma^T * initial error
        data, sigma1, sigma2 = random_shared_problem(rng, 50, 5, 4, 0.1, 10.0)
        gram = GramCache(data)
        eta = 1.0
        sched = step_schedule(gram.xtx_eigs, eta, 0.1, 10.0)
        w_star = solve_w_closed(gram, sigma1, sigma2, eta).matrix
        err0_sq = np.linalg.norm(w_star) ** 2  # start at W = 0
        errors = []
        solve_w_gd(
            gram,
            sigma1,
            sigma2,
            eta,
            sched,
            rel_tol=1e-10,
            callback=lambda w: errors.append(np.linalg.norm(w - w_star) ** 2),
        )
        assert errors, "gradient descent should take at least one step here"
        log_gamma = np.log(sched.gamma)
        for t, err_sq in enumerate(errors, start=1):
            assert np.log(err_sq) <= np.log(err0_sq) + t * log_gamma + 1e-9

    def test_monotone_descent_at_max_step(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 40, 4, 3, 0.1, 10.0)
        gram = GramCache(data)
        sched = step_schedule(gram.xtx_eigs, 1.0, 0.1, 10.0)
        values = [h_value(np.zeros((4, 3)), data, sigma1, sigma2, 1.0)]
        solve_w_gd(
            gram,
            sigma1,
            sigma2,
            1.0,
            sched,
            rel_tol=1e-9,
            callback=lambda w: values.append(h_value(w, data, sigma1, sigma2, 1.0)),
        )
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10 * (1 + np.abs(values[:-1])))

    def test_divergence_detected(self, rng):
        from fetr import DivergenceError
        from fetr.wsolvers import StepSchedule

        data, sigma1, sigma2 = random_shared_problem(rng, 40, 4, 3, 0.1, 10.0)
        # a schedule computed from understated curvature violates the step
        # contract and must fail loudly instead of returning garbage
        bogus = StepSchedule(lambda_l=1e-9, lambda_u=2e-9, step=2.0 / 3e-9, kappa=2.0, gamma=1.0 / 9.0)
        with pytest.raises(DivergenceError):
            solve_w_gd(data, sigma1, sigma2, 10.0, bogus, max_iters=5000)

    def test_step_cap(self, rng):
        # the tolerance is never met, so exactly max_iters steps are taken,
        # each reported once; the count is what the caller sees
        data, sigma1, sigma2 = random_shared_problem(rng, 40, 4, 3, 0.1, 10.0)
        gram = GramCache(data)
        sched = step_schedule(gram.xtx_eigs, 1.0, 0.1, 10.0)
        w0 = rng.standard_normal((4, 3))
        for cap in (0, 1, 3):
            seen = []
            w, iters = solve_w_gd(
                gram, sigma1, sigma2, 1.0, sched, w0=w0, max_iters=cap, rel_tol=1e-300,
                callback=seen.append,
            )
            assert iters == len(seen) == cap
            assert np.array_equal(w.matrix, seen[-1] if seen else w0)
        with pytest.raises(DomainError):
            solve_w_gd(gram, sigma1, sigma2, 1.0, sched, max_iters=-1)

    def test_pertask_matches_blockwise_oracle(self, rng):
        # stacked normal equations, assembled explicitly, as the oracle for
        # data without shared instances
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 4, 0.5, 2.0)
        gram = GramCache(data)
        eta = 0.8
        blocks = [gram.xtx_stack[i] for i in range(data.m)]
        system = np.zeros((12, 12))
        for i, b in enumerate(blocks):
            system[i * 3 : (i + 1) * 3, i * 3 : (i + 1) * 3] = b
        system += eta * np.kron(sigma2, sigma1)
        w_oracle = np.linalg.solve(system, gram.xty.flatten(order="F")).reshape((3, 4), order="F")
        sched = step_schedule(gram.xtx_eigs, eta, 0.5, 2.0)
        w, _ = solve_w_gd(gram, sigma1, sigma2, eta, sched, rel_tol=1e-11)
        assert rel_gap(w.matrix, w_oracle) <= 1e-6


class TestSylvesterSolver:
    def test_identity_reduction(self, rng):
        from fetr import validate_dataset

        y = rng.standard_normal((3, 2))
        data = validate_dataset([(np.eye(3), y[:, i]) for i in range(2)])
        w = solve_w_sylvester(data, np.eye(3), np.eye(2), 1.0)
        assert np.allclose(w.matrix, y / 2.0)

    def test_scaled_identity_sigma2(self, rng):
        # Sigma2 = c I collapses the optimality system to an ordinary
        # linear solve (X^T X + eta c Sigma1) W = X^T Y
        data, sigma1, _ = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        gram = GramCache(data)
        c, eta = 1.7, 0.9
        w = solve_w_sylvester(gram, sigma1, c * np.eye(3), eta)
        w_direct = np.linalg.solve(gram.xtx + eta * c * sigma1, gram.xty)
        assert rel_gap(w.matrix, w_direct) <= 1e-10

    def test_agrees_with_closed_form(self, rng):
        for _ in range(5):
            d, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            eta = float(rng.choice([0.1, 1.0, 10.0]))
            data, sigma1, sigma2 = random_shared_problem(rng, 50, d, m, 0.01, 100.0)
            w_syl = solve_w_sylvester(data, sigma1, sigma2, eta).matrix
            w_cls = solve_w_closed(data, sigma1, sigma2, eta).matrix
            assert rel_gap(w_syl, w_cls) <= 1e-8

    def test_residual_contract(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 40, 5, 4, 0.01, 100.0)
        gram = GramCache(data)
        eta = 1.0
        w = solve_w_sylvester(gram, sigma1, sigma2, eta).matrix
        resid = gram.xtx @ w + eta * sigma1 @ w @ sigma2 - gram.xty
        assert np.linalg.norm(resid) <= 1e-8 * (1 + gram.xty_norm)

    def test_pertask_rejected(self, rng):
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 2, 0.5, 2.0)
        with pytest.raises(UnsupportedShapeError):
            solve_w_sylvester(data, sigma1, sigma2, 1.0)


class TestSolverEquivalence:
    def test_pairwise_agreement(self, rng):
        for _ in range(6):
            d, m = int(rng.integers(2, 13)), int(rng.integers(2, 13))
            eta = float(rng.choice([0.1, 1.0, 10.0]))
            data, sigma1, sigma2 = random_shared_problem(rng, 80, d, m, 0.1, 10.0)
            gram = GramCache(data)
            sched = step_schedule(gram.xtx_eigs, eta, 0.1, 10.0)
            w_cls = solve_w_closed(gram, sigma1, sigma2, eta).matrix
            w_syl = solve_w_sylvester(gram, sigma1, sigma2, eta).matrix
            w_gd, _ = solve_w_gd(gram, sigma1, sigma2, eta, sched, rel_tol=1e-10)
            assert rel_gap(w_cls, w_syl) <= 1e-6
            assert rel_gap(w_cls, w_gd.matrix) <= 1e-6
            assert rel_gap(w_syl, w_gd.matrix) <= 1e-6

    def test_beats_zero_and_random(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 40, 4, 3, 0.1, 10.0)
        for solver in (solve_w_closed, solve_w_sylvester):
            w = solver(data, sigma1, sigma2, 1.0).matrix
            h_opt = h_value(w, data, sigma1, sigma2, 1.0)
            assert h_opt <= h_value(np.zeros_like(w), data, sigma1, sigma2, 1.0)
            for _ in range(20):
                w_rand = rng.standard_normal(w.shape)
                assert h_opt <= h_value(w_rand, data, sigma1, sigma2, 1.0)

    def test_auto_dispatch(self, rng):
        shared, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        pertask, p1, p2 = random_pertask_problem(rng, 4, 3, 0.5, 2.0)
        w_shared = solve_w(shared, sigma1, sigma2, 1.0, 0.5, 2.0, method=WSolver.AUTO)
        w_direct = solve_w_closed(shared, sigma1, sigma2, 1.0)
        assert rel_gap(w_shared.matrix, w_direct.matrix) <= 1e-12
        w_pertask = solve_w(pertask, p1, p2, 1.0, 0.5, 2.0, method=WSolver.AUTO)
        assert w_pertask.matrix.shape == (4, 3)
