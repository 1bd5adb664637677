from fractions import Fraction

import numpy as np
import pytest

from fetr import (
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

from conftest import random_shared_problem, random_spd, rel_gap


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

    def test_singular_rejected(self):
        x = np.ones((3, 2))  # rank 1
        data = validate_dataset([(x, np.ones(3))])
        with pytest.raises(SingularMatrixError):
            fit_ridge_stl(data, 0.0)
