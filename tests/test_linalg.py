"""Tests for the matrix kernels against independent reference routes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad, quad_vec
from scipy.linalg import fractional_matrix_power

from matlife.exceptions import DomainError, InvalidInputError
from matlife.linalg import expm_and_conv, matrix_function, mexp

from helpers import random_sub_intensity, simpson_conv, taylor_expm


class TestMexp:
    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(42)
        for p in (1, 2, 3, 5, 6):
            for _ in range(4):
                a = rng.normal(scale=1.5, size=(p, p))
                expected = taylor_expm(a)
                assert_allclose(mexp(a), expected, rtol=1e-12, atol=1e-14)

    def test_nilpotent_exact(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(mexp(a), np.array([[1.0, 1.0], [0.0, 1.0]]), rtol=0, atol=0)

    def test_diagonal(self):
        d = np.array([-3.0, -1.0, 2.0])
        assert_allclose(mexp(np.diag(d)), np.diag(np.exp(d)), rtol=1e-14)

    def test_zero_matrix(self):
        assert_allclose(mexp(np.zeros((3, 3))), np.eye(3), rtol=0, atol=0)

    def test_stacked_matches_loop(self):
        rng = np.random.default_rng(0)
        stack = rng.normal(size=(7, 4, 4))
        looped = np.stack([mexp(stack[i]) for i in range(7)])
        assert_allclose(mexp(stack), looped, rtol=1e-13)

    @pytest.mark.parametrize("bad", [np.ones((2, 3)), np.array([[np.nan, 0], [0, 0]])])
    def test_invalid_input(self, bad):
        with pytest.raises(InvalidInputError):
            mexp(bad)


def conv_at(t, b, z):
    """Convolution block of :func:`expm_and_conv` at one upper limit."""
    return expm_and_conv(t, b, np.asarray([z], dtype=float))[1][0]


class TestConvIntegral:
    def test_matches_simpson_oracle(self):
        rng = np.random.default_rng(7)
        t = random_sub_intensity(rng, 3)
        b = rng.uniform(0.0, 1.0, (3, 3))
        for z in (0.3, 1.0, 2.5):
            expected = simpson_conv(t, b, z)
            assert_allclose(conv_at(t, b, z), expected, rtol=0, atol=1e-8)

    def test_commuting_closed_form(self):
        # with b = identity the integrand collapses to expm(t z), so the
        # integral is z * expm(t z)
        rng = np.random.default_rng(3)
        t = random_sub_intensity(rng, 4)
        z = 1.7
        assert_allclose(conv_at(t, np.eye(4), z), z * mexp(t * z), rtol=1e-12)

    def test_zero_upper_limit(self):
        t = np.array([[-1.0]])
        assert_allclose(conv_at(t, np.eye(1), 0.0), np.zeros((1, 1)), atol=0)

    def test_stacked_matches_scalar_calls(self):
        rng = np.random.default_rng(11)
        t = random_sub_intensity(rng, 2)
        b = rng.uniform(0.0, 1.0, (2, 2))
        zs = np.array([0.1, 0.9, 3.0])
        ez, conv = expm_and_conv(t, b, zs)
        for i, z in enumerate(zs):
            assert_allclose(conv[i], conv_at(t, b, z), rtol=1e-13)
            assert_allclose(ez[i], mexp(t * z), rtol=1e-13)

    def test_negative_limit_rejected(self):
        with pytest.raises(InvalidInputError):
            conv_at(np.array([[-1.0]]), np.eye(1), -0.5)


class TestMatrixFunction:
    def test_inverse_matches_solver(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4)) + 5.0 * np.eye(4)
        assert_allclose(matrix_function(a, "power", alpha=-1.0),
                        np.linalg.inv(a), rtol=1e-9)

    def test_square_root_squares_back(self):
        rng = np.random.default_rng(9)
        t = random_sub_intensity(rng, 4)
        root = matrix_function(-t, "power", alpha=0.5)
        assert_allclose(root @ root, -t, rtol=1e-9)

    def test_exp1_matches_mexp_quadrature(self):
        # E1(A) = integral_1^inf expm(-A u) / u du for a spectrum in the
        # right half-plane
        rng = np.random.default_rng(13)
        a = -random_sub_intensity(rng, 3)
        expected, err = quad_vec(lambda u: mexp(-a * u) / u, 1.0, np.inf,
                                 epsabs=1e-14, epsrel=1e-12)
        assert err < 1e-10
        assert_allclose(matrix_function(a, "exp1"), expected, rtol=1e-9, atol=1e-12)

    def test_exponential_integral_scalar_value(self):
        # reference: direct quadrature of integral_1^inf exp(-u)/u du
        expected, err = quad(lambda u: np.exp(-u) / u, 1.0, np.inf)
        assert err < 1e-8
        got = matrix_function(np.array([[1.0]]), "exp1")
        assert_allclose(got[0, 0], expected, rtol=1e-8)
        assert_allclose(expected, 0.2193839, rtol=1e-6)

    def test_complex_pair_real_result(self):
        # rotation-like spectrum: the square root must come out real
        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        root = matrix_function(a, "power", alpha=0.5)
        assert not np.iscomplexobj(root)
        assert_allclose(root @ root, a, rtol=1e-9, atol=1e-12)

    def test_near_defective_falls_back_to_contour(self):
        # Jordan-like block has an ill-conditioned eigenbasis; the contour
        # route should still deliver a usable square root
        a = -np.array([[-1.0, 1.0], [0.0, -1.0 + 1e-12]])
        assert np.linalg.cond(np.linalg.eig(a)[1]) > 1e8
        assert_allclose(matrix_function(a, "power", alpha=0.5),
                        fractional_matrix_power(a, 0.5), rtol=1e-6, atol=1e-9)

    def test_singular_inverse_raises(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(DomainError):
            matrix_function(singular, "power", alpha=-1.0)
        with pytest.raises(DomainError):
            matrix_function(singular, "exp1")

    def test_unknown_id_rejected(self):
        for f in ("not-a-function", "inverse", "exp", "laplace_g"):
            with pytest.raises(InvalidInputError):
                matrix_function(np.eye(2), f)
