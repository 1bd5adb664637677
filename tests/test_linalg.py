import numpy as np
import pytest

from fetr import (
    DomainError,
    NumericError,
    clip_spectrum,
    project_bounded_spd,
    sylvester_solve_spd,
    sym_eig,
    symmetrize,
)
from fetr.linalg import logdet_spd

from conftest import random_spd, rel_gap


class TestSymEig:
    def test_diagonal_input(self):
        decomp = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(decomp.values, [1.0, 3.0])
        # eigenvectors are the coordinate axes, in swapped order, up to sign
        assert np.allclose(np.abs(decomp.vectors), [[0.0, 1.0], [1.0, 0.0]])

    def test_identity(self):
        decomp = sym_eig(np.eye(4))
        assert np.allclose(decomp.values, 1.0)

    def test_reconstruction_random(self, rng):
        for _ in range(20):
            s = symmetrize(rng.standard_normal((5, 5)))
            decomp = sym_eig(s)
            assert np.linalg.norm(decomp.reconstruct() - s) <= 1e-9 * (1 + np.linalg.norm(s))
            assert np.all(np.diff(decomp.values) >= 0)

    def test_nonfinite_rejected(self):
        s = np.eye(3)
        s[0, 0] = np.nan
        with pytest.raises(NumericError):
            sym_eig(s)


class TestHardThreshold:
    """clip_spectrum is the hard-threshold operator T_[l,u] on a spectrum."""

    def test_in_range_identity(self):
        assert clip_spectrum(np.array([50.0]), 0.01, 100.0)[0] == 50.0

    def test_lower_clamp(self):
        assert clip_spectrum(np.array([0.001]), 0.01, 100.0)[0] == 0.01

    def test_infinity_maps_to_upper(self):
        assert clip_spectrum(np.array([np.inf]), 0.01, 100.0)[0] == 100.0

    def test_vectorized(self):
        out = clip_spectrum(np.array([0.0, 1.0, np.inf]), 0.5, 2.0)
        assert np.allclose(out, [0.5, 1.0, 2.0])

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            clip_spectrum(np.array([1.0]), 2.0, 1.0)


class TestProjectBoundedSpd:
    def test_diagonal_clamp(self):
        out = project_bounded_spd(np.diag([0.5, 2.0]), 1.0, 3.0)
        assert np.allclose(out, np.diag([1.0, 2.0]))

    def test_idempotent_on_feasible(self, rng):
        for _ in range(10):
            s = random_spd(rng, 4, 1.0, 3.0)
            out = project_bounded_spd(s, 1.0, 3.0)
            assert rel_gap(out, s) <= 1e-9

    def test_both_bounds_active(self):
        out = project_bounded_spd(np.diag([-1.0, 10.0]), 1.0, 3.0)
        assert np.allclose(out, np.diag([1.0, 3.0]))

    def test_nearest_point(self, rng):
        # projection is the Frobenius-nearest feasible matrix: no random
        # feasible candidate may be closer to the input
        for _ in range(10):
            s = symmetrize(rng.standard_normal((3, 3))) * 3.0
            proj = project_bounded_spd(s, 0.5, 2.0)
            d_proj = np.linalg.norm(s - proj)
            for _ in range(50):
                candidate = random_spd(rng, 3, 0.5, 2.0)
                assert d_proj <= np.linalg.norm(s - candidate) + 1e-12


class TestSylvesterSolve:
    def test_identity_case(self):
        w = sylvester_solve_spd(np.eye(2), np.eye(2), 2.0 * np.eye(2))
        assert np.allclose(w, np.eye(2))

    def test_scalar_elementwise(self):
        # diagonal A, B make the transformed system literally elementwise
        a = np.diag([1.0, 2.0])
        b = np.array([[3.0]])
        c = np.array([[4.0], [5.0]])
        w = sylvester_solve_spd(a, b, c)
        assert np.allclose(w, [[1.0], [1.0]])

    def test_round_trip(self, rng):
        for _ in range(10):
            d, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            a = random_spd(rng, d, 0.0, 2.0)
            b = random_spd(rng, m, 0.5, 2.0)
            w_true = rng.standard_normal((d, m))
            c = a @ w_true + w_true @ b
            w = sylvester_solve_spd(a, b, c)
            assert np.linalg.norm(a @ w + w @ b - c) <= 1e-8 * (1 + np.linalg.norm(c))
            assert rel_gap(w, w_true) <= 1e-8

    def test_matches_kronecker_solve(self, rng):
        # independent oracle: vectorize the equation with the identity
        # vec(AWB) = (B^T kron A) vec(W) and solve the dm x dm system
        for _ in range(8):
            d, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            a = random_spd(rng, d, 0.0, 3.0)
            b = random_spd(rng, m, 0.2, 3.0)
            c = rng.standard_normal((d, m))
            system = np.kron(np.eye(m), a) + np.kron(b.T, np.eye(d))
            w_oracle = np.linalg.solve(system, c.flatten(order="F")).reshape((d, m), order="F")
            w = sylvester_solve_spd(a, b, c)
            assert rel_gap(w, w_oracle) <= 1e-8


class TestTensorFacts:
    def test_frobenius_equals_vec_norm(self, rng):
        for _ in range(10):
            a = rng.standard_normal((int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            assert np.isclose(np.linalg.norm(a), np.linalg.norm(a.flatten(order="F")))

    def test_vec_of_triple_product(self, rng):
        for _ in range(10):
            m1, n1, n2, m2 = rng.integers(1, 6, size=4)
            a = rng.standard_normal((m1, n1))
            b = rng.standard_normal((n1, n2))
            c = rng.standard_normal((n2, m2))
            left = (a @ b @ c).flatten(order="F")
            right = np.kron(c.T, a) @ b.flatten(order="F")
            assert np.linalg.norm(left - right) <= 1e-10 * (1 + np.linalg.norm(left))

    def test_kronecker_spectrum(self, rng):
        for _ in range(10):
            a = symmetrize(rng.standard_normal((3, 3)))
            b = symmetrize(rng.standard_normal((4, 4)))
            ea = np.linalg.eigvalsh(a)
            eb = np.linalg.eigvalsh(b)
            kron_eigs = np.sort(np.linalg.eigvalsh(np.kron(a, b)))
            products = np.sort(np.outer(ea, eb).ravel())
            assert np.allclose(kron_eigs, products, atol=1e-9)


class TestLogdetSpd:
    """log|S| from the Cholesky factor, checked against LU-based slogdet.

    Spectra lie in [1e-6, 1e6]. Agreement to 1e-12 needs a moderate
    condition number: any backward-stable method moves log|S| by up to
    about eps * cond(S), so the scale sweep keeps cond <= 10 while the
    entries range over twelve decades, and the diagonal case, exact for
    Cholesky, spans the whole range in one matrix.
    """

    @staticmethod
    def _rotated(rng, spectrum):
        q, r = np.linalg.qr(rng.standard_normal((spectrum.size, spectrum.size)))
        q = q * np.sign(np.diag(r))
        return (q * spectrum) @ q.T

    @staticmethod
    def _assert_matches_slogdet(s):
        sign, expected = np.linalg.slogdet(s)
        assert sign == 1.0
        assert abs(logdet_spd(s, "s") - expected) <= 1e-12 * max(1.0, abs(expected))

    @pytest.mark.parametrize("k", [1, 2, 7, 30, 100])
    def test_matches_slogdet_across_scales(self, rng, k):
        for scale in 10.0 ** np.linspace(-6.0, 5.0, 6):
            self._assert_matches_slogdet(self._rotated(rng, scale * rng.uniform(1, 10, size=k)))

    @pytest.mark.parametrize("k", [1, 2, 7, 30, 100])
    def test_matches_slogdet_uniform_spectrum(self, rng, k):
        for _ in range(3):
            self._assert_matches_slogdet(self._rotated(rng, rng.uniform(1e-6, 1e6, size=k)))

    def test_diagonal_spanning_the_range(self):
        spectrum = 10.0 ** np.arange(-6.0, 7.0)
        expected = float(np.sum(np.log(spectrum)))
        assert logdet_spd(np.diag(spectrum), "s") == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_symmetrizes_input(self, rng):
        s = self._rotated(rng, rng.uniform(1.0, 2.0, size=5))
        skewed = s + np.triu(np.ones((5, 5)), 1) * 1e-3 - np.tril(np.ones((5, 5)), -1) * 1e-3
        assert logdet_spd(skewed, "s") == pytest.approx(np.linalg.slogdet(s)[1], rel=1e-12)

    @pytest.mark.parametrize(
        "s",
        [
            np.diag([1.0, 0.0, 2.0]),
            np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]),  # rank one, exact pivots
            np.diag([1.0, -1e-9, 2.0]),
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3 and -1
        ],
        ids=["singular_diagonal", "singular_rank_one", "indefinite_diagonal", "indefinite"],
    )
    def test_not_positive_definite_rejected(self, s):
        with pytest.raises(DomainError, match="sigma1 is not positive definite"):
            logdet_spd(s, "sigma1")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        s = np.eye(3)
        s[1, 2] = bad
        with pytest.raises(NumericError, match="sigma2 has non-finite entries"):
            logdet_spd(s, "sigma2")
