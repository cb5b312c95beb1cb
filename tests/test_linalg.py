"""Tests for the matrix kernels against independent reference routes."""

import numpy as np
from numpy.testing import assert_allclose
from scipy.integrate import quad_vec
from scipy.linalg import expm

from matlife.em import _van_loan
from matlife.inhomogeneity import GompertzTransform
from matlife.phasetype import IPHModel, PHRepresentation, _expm

from helpers import (random_sub_intensity, simpson_conv, taylor_expm,
                     taylor_expm_stack, without_spectrum)


def metzler(rng, p, scale=1.5):
    """A matrix with nonnegative off-diagonal entries and a signed diagonal."""
    a = rng.uniform(0.0, scale, (p, p))
    np.fill_diagonal(a, rng.normal(scale=scale, size=p))
    return a


class TestMexp:
    """The nonnegative-series exponential :func:`matlife.phasetype._expm`."""

    def test_matches_taylor_oracle(self):
        rng = np.random.default_rng(42)
        for p in (1, 2, 3, 5, 6):
            for _ in range(4):
                a = metzler(rng, p)
                got = _expm(a[None])[0]
                assert_allclose(got, taylor_expm(a), rtol=1e-12, atol=1e-14)
                assert_allclose(got, expm(a), rtol=1e-12, atol=1e-14)

    def test_nilpotent_exact(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert_allclose(_expm(a[None])[0], np.array([[1.0, 1.0], [0.0, 1.0]]),
                        rtol=0, atol=0)

    def test_diagonal(self):
        d = np.array([-3.0, -1.0, 2.0])
        assert_allclose(_expm(np.diag(d)[None])[0], np.diag(np.exp(d)), rtol=1e-14)

    def test_zero_matrix(self):
        assert_allclose(_expm(np.zeros((1, 3, 3)))[0], np.eye(3), rtol=0, atol=0)

    def test_stacked_matches_loop(self):
        rng = np.random.default_rng(0)
        stack = np.stack([metzler(rng, 4, 1.0) for _ in range(7)])
        looped = np.stack([_expm(m[None])[0] for m in stack])
        assert_allclose(_expm(stack), looped, rtol=1e-13)
        assert_allclose(_expm(stack), expm(stack), rtol=1e-13)

    def test_chain_corner_is_relatively_accurate(self):
        # the exit corner of an Erlang-10 chain at a small time, about
        # (rz)^9 / 9!, first appears in the ninth Taylor term; every entry
        # matches the 50-digit exponential to a few roundings
        import mpmath

        t = 2.0 * (np.eye(10, k=1) - np.eye(10))
        for z in (1e-4, 1e-3, 1e-2, 3.0):
            with mpmath.workdps(50):
                want = np.array(mpmath.expm(mpmath.matrix((t * z).tolist())).tolist(),
                                dtype=float)
            got = _expm((t * z)[None])[0]
            nonzero = want != 0
            assert np.array_equal(got != 0, nonzero)
            assert np.all(np.abs(got - want)[nonzero] <= 1e-14 * want[nonzero])


def conv_at(t, b, z):
    """Convolution block of the E-step's :func:`~matlife.em._van_loan` at
    one upper limit."""
    return _van_loan(t, b, np.asarray([z], dtype=float))[1][0]


class TestConvIntegral:
    def test_matches_simpson_oracle(self):
        rng = np.random.default_rng(7)
        t = random_sub_intensity(rng, 3)
        b = rng.uniform(0.0, 1.0, (3, 3))
        for z in (0.3, 1.0, 2.5):
            expected = simpson_conv(t, b, z)
            assert_allclose(conv_at(t, b, z), expected, rtol=0, atol=1e-8)

    def test_batched_taylor_matches_per_matrix(self):
        # the Simpson oracle batches its Taylor series; each node must get
        # exactly the matrix the one-matrix route gives, down to the bit
        rng = np.random.default_rng(5)
        t = random_sub_intensity(rng, 3)
        scales = np.r_[0.0, np.geomspace(1e-3, 40.0, 60)]
        stack = t * scales[:, None, None]
        looped = np.stack([taylor_expm(m) for m in stack])
        assert np.array_equal(taylor_expm_stack(stack), looped)

    def test_commuting_closed_form(self):
        # with b = identity the integrand collapses to expm(t z), so the
        # integral is z * expm(t z)
        rng = np.random.default_rng(3)
        t = random_sub_intensity(rng, 4)
        z = 1.7
        assert_allclose(conv_at(t, np.eye(4), z), z * expm(t * z), rtol=1e-12)

    def test_zero_upper_limit(self):
        t = np.array([[-1.0]])
        assert_allclose(conv_at(t, np.eye(1), 0.0), np.zeros((1, 1)), atol=0)

    def test_stacked_matches_scalar_calls(self):
        rng = np.random.default_rng(11)
        t = random_sub_intensity(rng, 2)
        b = rng.uniform(0.0, 1.0, (2, 2))
        zs = np.array([0.1, 0.9, 3.0])
        ez, conv = _van_loan(t, b, zs)
        for i, z in enumerate(zs):
            assert_allclose(conv[i], conv_at(t, b, z), rtol=1e-13)
            assert_allclose(ez[i], expm(t * z), rtol=1e-13)


class TestMatrixFunction:
    def test_exp1_matches_mexp_quadrature(self):
        # E1(A) = integral_1^inf expm(-A u) / u du for A = -T, whose spectrum
        # lies in the right half-plane; the Green matrix of the Gompertz
        # clock with beta = 1, integral_0^inf expm(T u) / (1 + u) du, is
        # exp(A) E1(A)
        rng = np.random.default_rng(13)
        t = random_sub_intensity(rng, 3)
        expected, err = quad_vec(lambda u: expm(t * u) / u, 1.0, np.inf,
                                 epsabs=1e-14, epsrel=1e-12)
        assert err < 1e-10
        rep = PHRepresentation(np.eye(3)[0], t)
        for route in (rep, without_spectrum(rep)):
            got = expm(t) @ IPHModel(route, GompertzTransform(1.0)).green_matrix()
            assert_allclose(got, expected, rtol=1e-9, atol=1e-12)
