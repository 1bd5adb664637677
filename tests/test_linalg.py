import numpy as np
import pytest

import fetr.linalg
from fetr import (
    DivergenceError,
    DomainError,
    NumericError,
    SingularMatrixError,
    clip_spectrum,
    cov_subobjective,
    project_bounded_spd,
    sylvester_solve_spd,
    sym_eig,
    symmetrize,
)
from fetr.linalg import as_decomp, conjugate_gradient, factor_eig, solve_spd

from conftest import random_spd, rel_gap


def _turned(vectors, angle):
    """The first two columns turned by ``angle`` in their plane, so still orthonormal."""
    c, s = np.cos(angle), np.sin(angle)
    out = np.array(vectors)
    out[:, 0], out[:, 1] = c * vectors[:, 0] - s * vectors[:, 1], s * vectors[:, 0] + c * vectors[:, 1]
    return out


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
            assert np.linalg.norm(np.asarray(decomp) - s) <= 1e-9 * (1 + np.linalg.norm(s))
            assert np.all(np.diff(decomp.values) >= 0)

    def test_nonfinite_rejected(self):
        s = np.eye(3)
        s[0, 0] = np.nan
        with pytest.raises(NumericError):
            sym_eig(s)

    def test_residual_check_fires_at_its_threshold(self, rng, monkeypatch):
        # eigh's first two vectors, of eigenvalues 0 and 1, turned by theta in their
        # plane: V diag(w) V^T moves by sqrt(2) sin(theta) from S, against the
        # threshold 1e-9 (1 + ||S||_F); a turn by 1e-6 is far above it
        q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        s = symmetrize((q * [0.0, 1.0, 2.0, 3.0]) @ q.T)
        limit = 1e-9 * (1.0 + np.linalg.norm(s))
        eigh = np.linalg.eigh

        def turned_eigh(a):
            values, vectors = eigh(a)
            return values, _turned(vectors, angle)

        monkeypatch.setattr(fetr.linalg.np.linalg, "eigh", turned_eigh)
        for resid, raises in ((0.5 * limit, False), (2.0 * limit, True), (np.sqrt(2.0) * 1e-6, True)):
            angle = np.arcsin(resid / np.sqrt(2.0))
            if raises:
                with pytest.raises(NumericError, match=r"eigendecomposition residual .* too large"):
                    sym_eig(s)
            else:
                assert np.array_equal(sym_eig(s).values, eigh(s)[0])


class TestFactorEig:
    """F F^T's eigendecomposition read from the SVD of the factor F."""

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (4, 4)])
    def test_matches_product(self, rng, shape):
        # the thin SVD: min(k, n) vectors, and the spectrum of all k eigenvalues
        f = rng.standard_normal(shape)
        decomp, right = factor_eig(f)
        assert decomp.vectors.shape == (shape[0], min(shape))
        # F = V diag(sqrt nu) U^T, U the right singular vectors in the same order
        assert np.allclose((decomp.vectors * np.sqrt(decomp.values)) @ right.T, f, rtol=0, atol=1e-12)
        assert decomp.spectrum.shape == (shape[0],) and np.all(np.diff(decomp.spectrum) >= 0)
        assert np.linalg.norm(np.asarray(decomp) - f @ f.T) <= 1e-12 * np.linalg.norm(f @ f.T)
        assert np.allclose(decomp.spectrum, np.linalg.eigvalsh(f @ f.T), rtol=0, atol=1e-12)

    def test_tall_factor_has_exact_zeros(self, rng):
        # k - n eigenvalues of F F^T are exactly zero, the complement value, and come first
        decomp = factor_eig(rng.standard_normal((6, 2)))[0]
        assert decomp.codim == 4 and decomp.complement == 0.0 and np.all(decomp.values > 0.0)
        assert np.all(decomp.spectrum[:4] == 0.0) and np.all(decomp.spectrum[4:] > 0.0)

    def test_residual_check_fires_at_its_threshold(self, rng, monkeypatch):
        # the SVD's first two left vectors, of singular values 3 and 2, turned by
        # theta: U diag(s) V^T moves by 2 sin(theta / 2) sqrt(13) from F, against
        # the threshold 1e-9 (1 + ||F||_F); a turn by about 1e-6 is far above it
        left = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        right = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        f = (left * [3.0, 2.0, 1.0]) @ right.T
        limit = 1e-9 * (1.0 + np.linalg.norm(f))
        svd = np.linalg.svd

        def turned_svd(a, **kw):
            u, s, vt = svd(a, **kw)
            return _turned(u, angle), s, vt

        monkeypatch.setattr(fetr.linalg.np.linalg, "svd", turned_svd)
        for resid, raises in ((0.5 * limit, False), (2.0 * limit, True), (np.sqrt(13.0) * 1e-6, True)):
            angle = 2.0 * np.arcsin(resid / (2.0 * np.sqrt(13.0)))
            if raises:
                with pytest.raises(NumericError, match=r"singular value decomposition residual .* too large"):
                    factor_eig(f)
            else:
                assert np.array_equal(factor_eig(f)[0].values, (svd(f, full_matrices=False)[1] ** 2)[::-1])

    def test_nonfinite_rejected(self):
        f = np.ones((4, 2))
        f[1, 0] = np.inf
        with pytest.raises(NumericError, match="non-finite"):
            factor_eig(f)


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


class TestAsDecomp:
    def test_decomp_passes_through(self):
        decomp = sym_eig(np.diag([3.0, 1.0]))
        assert as_decomp(decomp) is decomp

    def test_dense_is_factored(self, rng):
        s = random_spd(rng, 4, 0.5, 2.0)
        decomp = as_decomp(s)
        assert rel_gap(np.asarray(decomp), s) <= 1e-12
        assert np.asarray(decomp) is np.asarray(decomp)  # built once


class TestProjectBoundedSpd:
    def test_diagonal_clamp(self):
        out = project_bounded_spd(np.diag([0.5, 2.0]), 1.0, 3.0)
        assert np.allclose(out, np.diag([1.0, 2.0]))

    def test_idempotent_on_feasible(self, rng):
        for _ in range(10):
            s = random_spd(rng, 4, 1.0, 3.0)
            out = project_bounded_spd(s, 1.0, 3.0)
            assert rel_gap(out, s) <= 1e-9

    def test_keeps_the_eigenvectors_of_a_decomposition(self, rng):
        e = as_decomp(random_spd(rng, 4, 0.1, 10.0))
        out = project_bounded_spd(e, 1.0, 3.0)
        assert out.vectors is e.vectors
        assert np.array_equal(out.values, np.clip(e.values, 1.0, 3.0))

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

    def test_shape_mismatch_rejected(self):
        with pytest.raises(NumericError, match="does not match"):
            sylvester_solve_spd(np.eye(2), np.eye(3), np.zeros((2, 2)))

    def test_zero_denominator_rejected(self):
        # alpha_i + beta_j = 0: A W + W B = C has no unique solution
        zero = np.zeros((2, 2))
        with pytest.raises(SingularMatrixError):
            sylvester_solve_spd(zero, zero, zero)

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


def logdet_spd(s):
    """log|S| as the objectives read it, sum(log lam) over the eigenvalues
    of ``as_decomp(S)``: -cov_subobjective(S, 0, 1)."""
    return -cov_subobjective(s, np.zeros_like(s), 1.0)


class TestLogdetSpd:
    """log|S| from the eigenvalues of as_decomp, checked against LU-based slogdet.

    Spectra lie in [1e-6, 1e6]. Agreement to 1e-12 needs a moderate
    condition number: any backward-stable method moves log|S| by up to
    about eps * cond(S), so the scale sweep keeps cond <= 10 while the
    entries range over twelve decades, and the diagonal case, exact for
    the eigensolver, spans the whole range in one matrix.
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
        assert abs(logdet_spd(s) - expected) <= 1e-12 * max(1.0, abs(expected))

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
        assert logdet_spd(np.diag(spectrum)) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_symmetrizes_input(self, rng):
        s = self._rotated(rng, rng.uniform(1.0, 2.0, size=5))
        skewed = s + np.triu(np.ones((5, 5)), 1) * 1e-3 - np.tril(np.ones((5, 5)), -1) * 1e-3
        assert logdet_spd(skewed) == pytest.approx(np.linalg.slogdet(s)[1], rel=1e-12)

    @pytest.mark.parametrize(
        "s",
        [
            np.diag([1.0, 0.0, 2.0]),
            np.diag([1.0, -1e-9, 2.0]),
            np.array([[1.0, 2.0], [2.0, 1.0]]),  # eigenvalues 3 and -1
        ],
        ids=["singular_diagonal", "indefinite_diagonal", "indefinite"],
    )
    def test_not_positive_definite_rejected(self, s):
        with pytest.raises(DomainError, match="sigma is not positive definite"):
            logdet_spd(s)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        s = np.eye(3)
        s[1, 2] = bad
        with pytest.raises(NumericError, match="non-finite entries"):
            logdet_spd(s)


class TestSolveSpd:
    @pytest.mark.parametrize("rhs_shape", [(6,), (6, 3)], ids=["vector", "matrix"])
    def test_matches_numpy_solve(self, rng, rhs_shape):
        a = random_spd(rng, 6, 0.1, 10.0)
        rhs = rng.standard_normal(rhs_shape)
        x = solve_spd(a, rhs)
        assert x.shape == rhs_shape
        assert rel_gap(x, np.linalg.solve(a, rhs)) <= 1e-12

    def test_symmetrizes_input(self, rng):
        a = random_spd(rng, 4, 1.0, 2.0)
        skew = np.triu(np.ones((4, 4)), 1) * 1e-3
        rhs = rng.standard_normal(4)
        assert rel_gap(solve_spd(a + skew - skew.T, rhs), np.linalg.solve(a, rhs)) <= 1e-12

    @pytest.mark.parametrize(
        "a",
        [
            np.diag([1.0, 0.0, 2.0]),
            np.diag([1.0, -1e-9, 2.0]),
            np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),  # eigenvalue -1
        ],
        ids=["singular", "indefinite_diagonal", "indefinite"],
    )
    def test_not_positive_definite_names_context(self, a):
        with pytest.raises(SingularMatrixError, match="task 3 normal matrix is singular"):
            solve_spd(a, np.ones(3), context="task 3 normal matrix")

    def test_non_finite_names_context(self):
        # Cholesky returns a NaN factor here instead of failing
        with pytest.raises(NumericError, match="task 3 normal matrix has non-finite"):
            solve_spd(np.diag([np.nan, 1.0, 1.0]), np.ones(3), context="task 3 normal matrix")

    def test_stack_matches_member_solves(self, rng):
        stack = np.stack([random_spd(rng, 5, 0.1, 10.0) for _ in range(4)])
        rhs = rng.standard_normal((4, 5, 1))
        x = solve_spd(stack, rhs)
        assert x.shape == rhs.shape
        for member, b, got in zip(stack, rhs, x):
            assert rel_gap(got, solve_spd(member, b)) <= 1e-12

    def test_stack_symmetrizes_each_member(self, rng):
        stack = rng.standard_normal((3, 4, 4))
        expected = [(s + s.T) / 2.0 for s in stack]
        assert np.array_equal(symmetrize(stack), np.stack(expected))

    @pytest.mark.parametrize(
        "bad, error",
        [(np.diag([1.0, 0.0, 2.0]), SingularMatrixError), (np.diag([1.0, np.inf, 2.0]), NumericError)],
        ids=["singular", "non_finite"],
    )
    def test_stack_with_one_bad_member_raises(self, rng, bad, error):
        stack = np.stack([random_spd(rng, 3, 0.5, 2.0), bad, random_spd(rng, 3, 0.5, 2.0)])
        with pytest.raises(error, match="task stack"):
            solve_spd(stack, np.ones((3, 3, 1)), context="task stack")


class TestConjugateGradient:
    def test_solves_spd_system(self, rng):
        a = random_spd(rng, 8, 0.1, 10.0)
        rhs = rng.standard_normal((8, 2))
        x, iters = conjugate_gradient(lambda v: a @ v, rhs, None, 1e-12, 100)
        assert 0 < iters <= 100
        assert np.linalg.norm(a @ x - rhs) <= 1e-10
        assert rel_gap(x, np.linalg.solve(a, rhs)) <= 1e-9

    def test_zero_start_skips_the_operator(self, rng):
        # x0=None starts at zero without applying the operator; a start that
        # meets the tolerance takes no step
        a = random_spd(rng, 4, 1.0, 2.0)
        rhs = rng.standard_normal(4)
        applied = []

        def apply(v):
            applied.append(v)
            return a @ v

        x, iters = conjugate_gradient(apply, rhs, None, np.inf, 10)
        assert iters == 0 and not applied and np.array_equal(x, np.zeros(4))
        x_star = np.linalg.solve(a, rhs)
        x, iters = conjugate_gradient(apply, rhs, x_star, 1e-8, 10)
        assert iters == 0 and len(applied) == 1 and x is x_star

    def test_stops_at_nonpositive_curvature(self):
        # the first direction, rhs itself, has curvature -1: no step is taken
        x, iters = conjugate_gradient(
            lambda v: np.diag([1.0, -1.0]) @ v, np.array([0.0, 1.0]), None, 0.0, 10
        )
        assert iters == 0 and np.array_equal(x, [0.0, 0.0])

    def test_non_finite_residual_raises(self):
        with pytest.raises(DivergenceError):
            conjugate_gradient(lambda v: v, np.array([np.nan, 1.0]), None, 1e-8, 10)
