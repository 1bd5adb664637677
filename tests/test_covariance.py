import itertools

import numpy as np
import pytest

from fetr import (
    CapacityError,
    CovariancePair,
    DomainError,
    EigenDecomp,
    MatchingInstance,
    brute_force_min_matching,
    clamped_spectrum,
    cov_subobjective,
    matching_weight,
    oracle_cov_minimize,
)

from fetr.linalg import factor_eig

from conftest import random_spd


class TestCovSubobjective:
    def test_identity(self):
        assert np.isclose(cov_subobjective(np.eye(2), np.diag([1.0, 2.0]), 2.0), 3.0)

    def test_zero_trace_term(self):
        val = cov_subobjective(np.diag([2.0, 2.0]), np.zeros((2, 2)), 2.0)
        assert np.isclose(val, -4.0 * np.log(2.0))

    def test_cancelling_logs(self):
        val = cov_subobjective(np.diag([2.0, 0.5]), np.diag([1.0, 4.0]), 2.0)
        assert np.isclose(val, 4.0)

    def test_non_pd_rejected(self):
        with pytest.raises(DomainError):
            cov_subobjective(np.diag([1.0, 0.0]), np.eye(2), 1.0)

    def test_trace_from_factors_at_wide_spectrum(self):
        # Sigma = (H/2) diag(lam) (H/2)^T with H the 4x4 Hadamard matrix, exact in
        # binary; S = v v^T for the eigenvector v of lam = 1e-6, so tr(Sigma S) = 1e-6
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]) / 2.0
        sigma = EigenDecomp(h, np.array([1e-6, 1e-2, 1e2, 1e6]))
        s = np.outer(h[:, 0], h[:, 0])
        assert abs(cov_subobjective(sigma, s, 0.0) - 1e-6) <= 1e-15 * 1e-6


class TestMinimizeSigma:
    def test_unclamped_diagonal(self):
        # W Sigma2 W^T = diag(1, 4) with m = 2: lambda_i = 2 / nu_i
        w = np.array([[1.0, 0.0], [0.0, 2.0]])
        out = clamped_spectrum(w @ w.T, 2, 0.1, 10.0)[2]
        assert np.allclose(out, np.diag([2.0, 0.5]))

    def test_zero_weight_upper_bound(self):
        assert np.allclose(clamped_spectrum(np.zeros((3, 3)), 2, 0.1, 10.0)[2], 10.0 * np.eye(3))
        assert np.allclose(clamped_spectrum(np.zeros((2, 2)), 3, 0.1, 10.0)[2], 10.0 * np.eye(2))

    def test_sigma2_unclamped_diagonal(self):
        # W^T Sigma1 W = diag(1, 3) with d = 3: lambda_i = 3 / nu_i
        w = np.zeros((3, 2))
        w[0, 0] = 1.0
        w[1, 1] = np.sqrt(3.0)
        out = clamped_spectrum(w.T @ w, 3, 0.1, 10.0)[2]
        assert np.allclose(out, np.diag([3.0, 1.0]))

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (4, 4)], ids=["tall", "wide", "square"])
    def test_factor_decomposition_equals_product(self, rng, shape):
        # S = F F^T given as factor_eig(F), whose decomposition passes through,
        # clamps as the dense product does; a tall F's nu are range(F)'s, and
        # the rest, its complement's, are zero
        f = rng.standard_normal(shape)
        nu, _, sigma = clamped_spectrum(factor_eig(f)[0], 3, 0.1, 10.0)
        product_nu, _, product_sigma = clamped_spectrum(f @ f.T, 3, 0.1, 10.0)
        nu = np.append(nu, np.zeros(product_nu.size - nu.size))
        assert np.allclose(nu, product_nu, rtol=0, atol=1e-12 * (1.0 + product_nu[0]))
        gap = np.linalg.norm(np.asarray(sigma) - np.asarray(product_sigma))
        assert gap <= 1e-12 * np.linalg.norm(product_sigma)

    def test_beats_random_feasible(self, rng):
        l, u = 0.1, 10.0
        for _ in range(5):
            d, m = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            w = rng.standard_normal((d, m))
            sigma2 = random_spd(rng, m, l, u)
            s = w @ sigma2 @ w.T
            out = clamped_spectrum(s, m, l, u)[2]
            best = cov_subobjective(out, s, float(m))
            for _ in range(200):
                candidate = random_spd(rng, d, l, u)
                assert best <= cov_subobjective(candidate, s, float(m)) + 1e-9

    def test_beats_projected_gradient_oracle(self, rng):
        l, u = 0.1, 10.0
        for _ in range(3):
            d, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            w = rng.standard_normal((d, m))
            sigma2 = random_spd(rng, m, l, u)
            s = w @ sigma2 @ w.T
            closed = clamped_spectrum(s, m, l, u)[2]
            via_oracle = oracle_cov_minimize(s, float(m), l, u)
            assert (
                cov_subobjective(closed, s, float(m))
                <= cov_subobjective(via_oracle, s, float(m)) + 1e-6
            )
            sigma1 = random_spd(rng, d, l, u)
            s2 = w.T @ sigma1 @ w
            closed2 = clamped_spectrum(s2, d, l, u)[2]
            via_oracle2 = oracle_cov_minimize(s2, float(d), l, u)
            assert (
                cov_subobjective(closed2, s2, float(d))
                <= cov_subobjective(via_oracle2, s2, float(d)) + 1e-6
            )

    def test_stationarity_when_unclamped(self, rng):
        # all m / nu_i interior implies Sigma1 (W Sigma2 W^T) = m I
        m = 3
        w = rng.standard_normal((3, m))
        sigma2 = random_spd(rng, m, 0.5, 2.0)
        s = w @ sigma2 @ w.T
        nu = np.linalg.eigvalsh(s)
        l, u = m / nu[-1] / 10.0, m / nu[0] * 10.0
        out = clamped_spectrum(s, m, l, u)[2]
        assert np.linalg.norm(out @ s - m * np.eye(3)) <= 1e-8 * m

    def test_commutes_with_input(self, rng):
        for _ in range(5):
            w = rng.standard_normal((4, 3))
            sigma2 = random_spd(rng, 3, 0.5, 2.0)
            s = w @ sigma2 @ w.T
            out = clamped_spectrum(s, 3, 0.1, 10.0)[2]
            assert np.linalg.norm(out @ s - s @ out) <= 1e-8 * (1 + np.linalg.norm(s))

    def test_outputs_feasible(self, rng):
        l, u = 0.01, 100.0
        for _ in range(10):
            d, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            w = rng.standard_normal((d, m)) * 10.0 ** rng.uniform(-3, 2)
            sigma2 = random_spd(rng, m, l, u)
            sigma1 = clamped_spectrum(w @ sigma2 @ w.T, m, l, u)[2]
            sigma2_new = clamped_spectrum(w.T @ sigma1 @ w, d, l, u)[2]
            CovariancePair(sigma1=sigma1, sigma2=sigma2_new, l=l, u=u)


class TestBruteForceMatching:
    def test_sorted_opposite_optimal(self):
        inst = brute_force_min_matching([3.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        assert inst.permutation == (0, 1, 2)
        assert np.isclose(inst.weight, 3.0 + 4.0 + 3.0)

    def test_constant_lam_ties_to_identity(self):
        inst = brute_force_min_matching([2.0, 2.0, 2.0], [1.0, 5.0, 9.0])
        assert inst.permutation == (0, 1, 2)

    def test_single_edge(self):
        inst = brute_force_min_matching([4.0], [0.25])
        assert np.isclose(inst.weight, 1.0)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_force_min_matching(np.arange(9.0, 0.0, -1.0), np.arange(9.0))

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            brute_force_min_matching([1.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize(
        "lam, nu, message",
        [
            ([2.0, 1.0], [1.0, 2.0, 3.0], "equal-length"),
            ([2.0, 1.0], [2.0, 1.0], "nu must be"),
        ],
        ids=["unequal_lengths", "nu_unsorted"],
    )
    def test_bad_weights_rejected(self, lam, nu, message):
        with pytest.raises(DomainError, match=message):
            brute_force_min_matching(lam, nu)

    @pytest.mark.parametrize(
        "permutation, weight, message",
        [((0, 0), 4.0, "not a bijection"), ((0, 1), 5.0, "does not match")],
        ids=["not_bijective", "wrong_weight"],
    )
    def test_instance_checks_its_fields(self, permutation, weight, message):
        # lam . nu = 2*1 + 1*2 = 4 for the identity matching
        with pytest.raises(DomainError, match=message):
            MatchingInstance(lam=(2.0, 1.0), nu=(1.0, 2.0), permutation=permutation, weight=weight)

    def test_matches_sorted_pairing_randomly(self, rng):
        for _ in range(50):
            k = int(rng.integers(1, 7))
            lam = np.sort(rng.uniform(0.1, 5.0, size=k))[::-1]
            nu = np.sort(rng.uniform(0.0, 5.0, size=k))
            inst = brute_force_min_matching(lam, nu)
            assert inst.weight <= float(lam @ nu) + 1e-12
            assert np.isclose(inst.weight, float(lam @ nu))

    def test_inverse_pair_rematch_never_increases(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 7))
            lam = np.sort(rng.uniform(0.1, 5.0, size=k))[::-1]
            nu = np.sort(rng.uniform(0.0, 5.0, size=k))
            perm = list(rng.permutation(k))
            inversions = [
                (i, j)
                for i, j in itertools.combinations(range(k), 2)
                if perm[i] > perm[j]
            ]
            if not inversions:
                continue
            i, j = inversions[int(rng.integers(len(inversions)))]
            swapped = perm.copy()
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert matching_weight(lam, nu, swapped) <= matching_weight(lam, nu, perm) + 1e-12


class TestOracle:
    def test_zero_s_converges_to_upper(self):
        out = oracle_cov_minimize(np.zeros((2, 2)), 2.0, 0.1, 10.0)
        assert np.allclose(out, 10.0 * np.eye(2), atol=1e-4)

    def test_matches_closed_form_diagonal(self):
        # the default budget leaves ~0.1 in the flattest direction here, so
        # give the fixture enough iterations for the tight comparison
        out = oracle_cov_minimize(np.diag([1.0, 4.0]), 2.0, 0.1, 10.0, iters=60_000)
        assert np.allclose(out, np.diag([2.0, 0.5]), atol=1e-4)

    def test_iterates_stay_feasible(self):
        s = np.diag([1.0, 4.0])
        for iters in (1, 5, 50, 500):
            out = oracle_cov_minimize(s, 2.0, 0.1, 10.0, iters=iters)
            eigs = np.linalg.eigvalsh(out)
            assert eigs[0] >= 0.1 - 1e-9
            assert eigs[-1] <= 10.0 + 1e-9

    def test_capacity(self):
        with pytest.raises(CapacityError):
            oracle_cov_minimize(np.eye(7), 1.0, 0.1, 10.0)

    def test_stack_iterates_each_instance_as_its_own_call(self, rng):
        stack = np.stack([random_spd(rng, 3, 0.0, 4.0) for _ in range(4)])
        c = [1.0, 2.0, 3.0, 0.5]
        out = oracle_cov_minimize(stack, c, 0.1, 10.0, iters=300)
        for s, ci, o in zip(stack, c, out):
            assert np.array_equal(o, oracle_cov_minimize(s, ci, 0.1, 10.0, iters=300))
