import numpy as np
import pytest

from fetr import (
    CapacityError,
    DataValidationError,
    DivergenceError,
    DomainError,
    EigenDecomp,
    SingularMatrixError,
    UnsupportedShapeError,
    fetr_objective,
    grad_h,
    h_value,
    solve_w,
    solve_w_cg,
    solve_w_closed,
    solve_w_gd,
    solve_w_sylvester,
    step_schedule,
)

from fetr import wsolvers

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

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"lambda_l": 3.0}, "lambda_l <= lambda_u"),
            # consistent, but gamma rounds to 1 or is NaN: the analysis promises no rate
            ({"lambda_l": 1e-20}, "gamma 1.0 outside"),
            ({"lambda_u": np.inf}, "gamma nan outside"),
        ],
        ids=["bounds_reversed", "no_contraction", "upper_infinite"],
    )
    def test_schedule_contract_checked(self, change, message):
        # lambda_l = 1, lambda_u = 2 give the step 2/3, kappa 2 and the contraction 1/9
        valid = dict(lambda_l=1.0, lambda_u=2.0)
        sched = wsolvers.StepSchedule(**valid)
        assert (sched.step, sched.kappa, sched.gamma) == (2.0 / 3.0, 2.0, 1.0 / 9.0)
        with pytest.raises(DomainError, match=message):
            wsolvers.StepSchedule(**(valid | change))

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
            gram = data.gram
            sched = step_schedule(gram.xtx_eigs, eta, l, u)
            hess = np.kron(np.eye(m), gram.xtx) + eta * np.kron(sigma2, sigma1)
            eigs = np.linalg.eigvalsh(hess)
            assert eigs[0] >= sched.lambda_l - 1e-8 * sched.lambda_l
            assert eigs[-1] <= sched.lambda_u + 1e-8 * sched.lambda_u


class TestGradH:
    def test_zero_weight(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 25, 4, 3, 0.5, 2.0)
        g = grad_h(np.zeros((4, 3)), data, sigma1, sigma2, 1.0)
        assert np.allclose(g, -2.0 * data.gram.xty)

    def test_zero_at_optimum(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        w_star = solve_w_closed(data, sigma1, sigma2, 1.3)
        g = grad_h(w_star, data, sigma1, sigma2, 1.3)
        assert np.linalg.norm(g) <= 1e-6 * (1 + data.gram.xty_norm)

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

    def test_capacity_guard(self, rng, monkeypatch):
        monkeypatch.setattr(wsolvers, "CLOSED_FORM_GUARD", 11)
        data, sigma1, sigma2 = random_shared_problem(rng, 20, 4, 3, 0.5, 2.0)
        with pytest.raises(CapacityError):
            solve_w_closed(data, sigma1, sigma2, 1.0)

    def test_pertask_rejected(self, rng):
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 2, 0.5, 2.0)
        with pytest.raises(UnsupportedShapeError):
            solve_w_closed(data, sigma1, sigma2, 1.0)

    def test_indefinite_system_is_singular_error(self, rng):
        # X = I and Sigma2 = I: the block for Sigma1's -10 eigenvalue is 1 - 10 < 0
        from fetr import validate_dataset

        y = rng.standard_normal((4, 2))
        data = validate_dataset([(np.eye(4), y[:, i]) for i in range(2)])
        with pytest.raises(SingularMatrixError, match="normal equations"):
            solve_w_closed(data, np.diag([-10.0, 1.0, 1.0, 1.0]), np.eye(2), 1.0)


class TestGradientDescent:
    def test_fixed_point(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        sched = step_schedule(data.gram.xtx_eigs, 1.0, 0.5, 2.0)
        w_star = solve_w_closed(data, sigma1, sigma2, 1.0)
        w, iters = solve_w_gd(data, sigma1, sigma2, 1.0, sched, w0=w_star, rel_tol=1e-8)
        assert iters <= 1

    def test_agrees_with_closed_form(self, rng):
        for _ in range(5):
            d, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            eta = float(rng.choice([0.1, 1.0, 10.0]))
            data, sigma1, sigma2 = random_shared_problem(rng, 60, d, m, 0.1, 10.0)
            sched = step_schedule(data.gram.xtx_eigs, eta, 0.1, 10.0)
            w_star = solve_w_closed(data, sigma1, sigma2, eta).matrix
            w, _ = solve_w_gd(data, sigma1, sigma2, eta, sched, rel_tol=1e-10)
            assert rel_gap(w.matrix, w_star) <= 1e-6

    def test_contraction_bound(self, rng):
        # per-step squared error must stay under gamma^T * initial error
        data, sigma1, sigma2 = random_shared_problem(rng, 50, 5, 4, 0.1, 10.0)
        eta = 1.0
        sched = step_schedule(data.gram.xtx_eigs, eta, 0.1, 10.0)
        w_star = solve_w_closed(data, sigma1, sigma2, eta).matrix
        err0_sq = np.linalg.norm(w_star) ** 2  # start at W = 0
        errors = []
        solve_w_gd(
            data,
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
        sched = step_schedule(data.gram.xtx_eigs, 1.0, 0.1, 10.0)
        values = [h_value(np.zeros((4, 3)), data, sigma1, sigma2, 1.0)]
        solve_w_gd(
            data,
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
        bogus = StepSchedule(lambda_l=1e-9, lambda_u=2e-9)
        with pytest.raises(DivergenceError):
            solve_w_gd(data, sigma1, sigma2, 10.0, bogus, max_iters=5000)

    def test_step_cap(self, rng):
        # the tolerance is never met, so exactly max_iters steps are taken,
        # each reported once; the count is what the caller sees
        data, sigma1, sigma2 = random_shared_problem(rng, 40, 4, 3, 0.1, 10.0)
        sched = step_schedule(data.gram.xtx_eigs, 1.0, 0.1, 10.0)
        w0 = rng.standard_normal((4, 3))
        for cap in (0, 1, 3):
            seen = []
            w, iters = solve_w_gd(
                data, sigma1, sigma2, 1.0, sched, w0=w0, max_iters=cap, rel_tol=1e-300,
                callback=seen.append,
            )
            assert iters == len(seen) == cap
            assert np.array_equal(w.matrix, seen[-1] if seen else w0)
        with pytest.raises(DomainError):
            solve_w_gd(data, sigma1, sigma2, 1.0, sched, max_iters=-1)

    def test_pertask_matches_blockwise_oracle(self, rng):
        # stacked normal equations, assembled explicitly, as the oracle for
        # data without shared instances
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 4, 0.5, 2.0)
        gram = data.gram
        eta = 0.8
        blocks = [gram.xtx[i] for i in range(data.m)]
        system = np.zeros((12, 12))
        for i, b in enumerate(blocks):
            system[i * 3 : (i + 1) * 3, i * 3 : (i + 1) * 3] = b
        system += eta * np.kron(sigma2, sigma1)
        w_oracle = np.linalg.solve(system, gram.xty.flatten(order="F")).reshape((3, 4), order="F")
        sched = step_schedule(gram.xtx_eigs, eta, 0.5, 2.0)
        w, _ = solve_w_gd(data, sigma1, sigma2, eta, sched, rel_tol=1e-11)
        assert rel_gap(w.matrix, w_oracle) <= 1e-6


class TestConjugateGradient:
    def test_matches_closed_form_on_shared_data(self, rng):
        for _ in range(5):
            d, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            eta = float(rng.choice([0.1, 1.0, 10.0]))
            data, sigma1, sigma2 = random_shared_problem(rng, 50, d, m, 0.01, 100.0)
            w_cg, _ = solve_w_cg(data, sigma1, sigma2, eta, rel_tol=1e-12)
            w_cls = solve_w_closed(data, sigma1, sigma2, eta).matrix
            assert rel_gap(w_cg.matrix, w_cls) <= 1e-8

    def test_matches_tight_gradient_descent_on_pertask_data(self, rng):
        data, sigma1, sigma2 = random_pertask_problem(rng, 4, 5, 0.5, 2.0)
        gram = data.gram
        sched = step_schedule(gram.xtx_eigs, 0.8, 0.5, 2.0)
        w_gd, _ = solve_w_gd(data, sigma1, sigma2, 0.8, sched, rel_tol=1e-12)
        w_cg, iters = solve_w_cg(data, sigma1, sigma2, 0.8, rel_tol=1e-12)
        assert 0 < iters <= 200
        assert rel_gap(w_cg.matrix, w_gd.matrix) <= 1e-9
        # the stop rule holds for the true gradient, not only the CG residual
        grad = grad_h(w_cg, data, sigma1, sigma2, 0.8)
        assert np.linalg.norm(grad) <= 1e-12 * (1 + gram.xty_norm)

    def test_start_at_optimum_takes_no_step(self, rng):
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 4, 0.5, 2.0)
        w_star, _ = solve_w_cg(data, sigma1, sigma2, 1.0, rel_tol=1e-12)
        w, iters = solve_w_cg(data, sigma1, sigma2, 1.0, w0=w_star, rel_tol=1e-8)
        assert iters == 0
        assert np.array_equal(w.matrix, w_star.matrix)

    def test_step_cap_and_descent(self, rng):
        # the tolerance is never met, so exactly max_iters steps are taken;
        # CG iterates are deterministic, so cap k returns iterate k, and h
        # does not increase from one to the next
        data, sigma1, sigma2 = random_pertask_problem(rng, 4, 5, 0.1, 10.0)
        w0 = rng.standard_normal((4, 5))
        values = []
        for cap in range(12):
            w, iters = solve_w_cg(
                data, sigma1, sigma2, 1.0, w0=w0, max_iters=cap, rel_tol=0.0
            )
            assert iters == cap
            values.append(h_value(w, data, sigma1, sigma2, 1.0))
        assert values[0] == h_value(w0, data, sigma1, sigma2, 1.0)
        for prev, cur in zip(values, values[1:]):
            assert cur <= prev + 1e-12 * (1 + abs(prev))
        with pytest.raises(DomainError):
            solve_w_cg(data, sigma1, sigma2, 1.0, max_iters=-1)

    @pytest.mark.parametrize("bad", ["w0", "sigma1"])
    def test_non_finite_input_diverges(self, rng, bad):
        data, sigma1, sigma2 = random_pertask_problem(rng, 3, 4, 0.5, 2.0)
        w0 = np.zeros((3, 4))
        if bad == "w0":
            w0[1, 2] = np.inf
        else:
            sigma1 = sigma1.copy()
            sigma1[0, 0] = np.nan
        with pytest.raises(DivergenceError):
            solve_w_cg(data, sigma1, sigma2, 1.0, w0=w0)


def _iterative_solver(name, data, sigma1, sigma2):
    """solve_w_gd or solve_w_cg on one problem, as a function of max_iters."""
    if name == "cg":
        return lambda cap: solve_w_cg(data, sigma1, sigma2, 1.0, max_iters=cap, rel_tol=0.0)
    sched = step_schedule(data.gram.xtx_eigs, 1.0, 0.5, 2.0)
    return lambda cap: solve_w_gd(data, sigma1, sigma2, 1.0, sched, max_iters=cap, rel_tol=0.0)


class TestIterationCap:
    @pytest.mark.parametrize("solver", ["gd", "cg"])
    @pytest.mark.parametrize(
        "cap", [True, np.True_, 2.5, np.float64(3.0), None, "3"],
        ids=["bool", "npbool", "float", "npfloat", "none", "str"],
    )
    def test_non_integer_cap_rejected_before_any_work(self, rng, monkeypatch, solver, cap):
        solve = _iterative_solver(solver, *random_pertask_problem(rng, 3, 4, 0.5, 2.0))
        monkeypatch.setattr(wsolvers, "validate_dataset", None)  # any use would raise TypeError
        with pytest.raises(DomainError, match="max_iters must be an integer >= 0"):
            solve(cap)

    @pytest.mark.parametrize("shared", [True, False], ids=["shared", "diagonal_pertask"])
    @pytest.mark.parametrize(
        "cap", [True, "x", None, 2.5, -3], ids=["bool", "str", "none", "float", "negative"]
    )
    def test_solve_w_checks_cap_on_every_path(self, rng, monkeypatch, shared, cap):
        # the Sylvester solve and the per-task direct solve take no steps, yet the
        # cap is checked before either is chosen
        if shared:
            data, sigma1, _ = random_shared_problem(rng, 20, 3, 4, 0.5, 2.0)
        else:
            data, sigma1, _ = random_pertask_problem(rng, 3, 4, 0.5, 2.0)
        sigma2 = np.diag(rng.uniform(0.5, 2.0, 4))
        assert solve_w(data, sigma1, sigma2, 1.0, max_iters=3)[1] == 0
        monkeypatch.setattr(wsolvers, "validate_dataset", None)  # any use would raise TypeError
        with pytest.raises(DomainError, match="max_iters must be an integer >= 0"):
            solve_w(data, sigma1, sigma2, 1.0, max_iters=cap)

    @pytest.mark.parametrize("solver", ["gd", "cg"])
    def test_numpy_integer_cap_counts_like_an_int(self, rng, solver):
        solve = _iterative_solver(solver, *random_pertask_problem(rng, 3, 4, 0.5, 2.0))
        (w, iters), (w_np, iters_np) = solve(3), solve(np.int64(3))
        assert iters == iters_np == 3
        assert np.array_equal(w.matrix, w_np.matrix)


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
        c, eta = 1.7, 0.9
        w = solve_w_sylvester(data, sigma1, c * np.eye(3), eta)
        w_direct = np.linalg.solve(data.gram.xtx + eta * c * sigma1, data.gram.xty)
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
        gram = data.gram
        eta = 1.0
        w = solve_w_sylvester(data, sigma1, sigma2, eta).matrix
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
            sched = step_schedule(data.gram.xtx_eigs, eta, 0.1, 10.0)
            w_cls = solve_w_closed(data, sigma1, sigma2, eta).matrix
            w_syl = solve_w_sylvester(data, sigma1, sigma2, eta).matrix
            w_gd, _ = solve_w_gd(data, sigma1, sigma2, eta, sched, rel_tol=1e-10)
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
        w_shared, iters = solve_w(shared, sigma1, sigma2, 1.0)
        w_direct = solve_w_sylvester(shared, sigma1, sigma2, 1.0)  # at every md
        assert np.array_equal(w_shared.matrix, w_direct.matrix) and iters == 0
        w0 = rng.standard_normal((4, 3))
        w_pertask, iters = solve_w(pertask, p1, p2, 1.0, w0=w0, max_iters=7)
        w_cg, cg_iters = solve_w_cg(pertask, p1, p2, 1.0, w0=w0, max_iters=7)
        assert np.array_equal(w_pertask.matrix, w_cg.matrix) and iters == cg_iters > 0
        # a diagonal Sigma2 decouples the tasks: one direct solve, whatever w0 and the cap
        p2_diag = np.diag(np.diag(p2))
        w_diag, iters = solve_w(pertask, p1, p2_diag, 1.0, w0=w0, max_iters=7)
        w_cg, _ = solve_w_cg(pertask, p1, p2_diag, 1.0, rel_tol=1e-12)
        assert iters == 0 and rel_gap(w_diag.matrix, w_cg.matrix) <= 1e-9

    @pytest.mark.parametrize("form", ["dense", "decomp", "batches"])
    def test_diagonal_task_precision_solves_per_task(self, rng, monkeypatch, form):
        if form == "batches":  # two tasks per stack, the last stack one task
            monkeypatch.setattr(wsolvers, "DIRECT_BATCH_DOUBLES", 2 * 4 * 4)
        data, sigma1, _ = random_pertask_problem(rng, 4, 5, 0.5, 2.0)
        values = np.sort(rng.uniform(0.5, 2.0, size=5))
        sigma2 = EigenDecomp(np.eye(5), values) if form == "decomp" else np.diag(values)
        w, iters = solve_w(data, sigma1, sigma2, 0.8, w0=rng.standard_normal((4, 5)))
        assert iters == 0
        w_cg, _ = solve_w_cg(data, sigma1, sigma2, 0.8, rel_tol=1e-12)
        assert rel_gap(w.matrix, w_cg.matrix) <= 1e-9
        oracle = [
            np.linalg.solve(t.x.T @ t.x + 0.8 * values[i] * sigma1, t.x.T @ t.y)
            for i, t in enumerate(data.tasks)
        ]
        assert rel_gap(w.matrix, np.column_stack(oracle)) <= 1e-9

    def test_singular_task_stack_falls_back_to_cg(self, rng):
        # n_i < d and a roundoff-sized eta fail solve_spd's pivot test
        data, sigma1, _ = random_pertask_problem(rng, 6, 3, 0.5, 2.0, n_lo=3, n_hi=5)
        sigma2, w0 = np.eye(3), rng.standard_normal((6, 3))
        w, iters = solve_w(data, sigma1, sigma2, 1e-18, w0=w0, max_iters=9)
        w_cg, cg_iters = solve_w_cg(data, sigma1, sigma2, 1e-18, w0=w0, max_iters=9)
        assert np.array_equal(w.matrix, w_cg.matrix) and iters == cg_iters > 0


class TestRawTaskList:
    """Every entry point that builds a GramCache takes a raw (x, y) task list
    as well as a dataset, validating it on the way in."""

    @staticmethod
    def _pairs(data):
        return [(t.x, t.y) for t in data.tasks]

    @pytest.mark.parametrize("layout", ["shared", "pertask"])
    def test_same_values_as_dataset(self, rng, layout):
        if layout == "shared":
            data, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        else:
            data, sigma1, sigma2 = random_pertask_problem(rng, 4, 3, 0.5, 2.0)
        raw = self._pairs(data)
        w = rng.standard_normal((4, 3))
        calls = [
            lambda d: fetr_objective(w, sigma1, sigma2, d, 1.0),
            lambda d: h_value(w, d, sigma1, sigma2, 1.0),
            lambda d: grad_h(w, d, sigma1, sigma2, 1.0),
            lambda d: solve_w(d, sigma1, sigma2, 1.0, max_iters=50)[0].matrix,
        ]
        if layout == "shared":
            calls += [
                lambda d: solve_w_closed(d, sigma1, sigma2, 1.0).matrix,
                lambda d: solve_w_sylvester(d, sigma1, sigma2, 1.0).matrix,
            ]
        for call in calls:
            assert np.array_equal(call(raw), call(data))

    def test_malformed_list_is_data_error(self, rng):
        data, sigma1, sigma2 = random_shared_problem(rng, 30, 4, 3, 0.5, 2.0)
        raw = self._pairs(data)
        raw[1] = (raw[1][0], raw[1][1][:-1])  # targets one row short
        for call in (
            lambda: fetr_objective(np.zeros((4, 3)), sigma1, sigma2, raw, 1.0),
            lambda: solve_w(raw, sigma1, sigma2, 1.0),
            lambda: grad_h(np.zeros((4, 3)), raw, sigma1, sigma2, 1.0),
        ):
            with pytest.raises(DataValidationError):
                call()
