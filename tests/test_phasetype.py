"""Tests for the lifetime distribution layer: transforms, evaluation,
sampling, moments, conditioning, closed forms and tail behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.stats import kstest

from matlife.exceptions import DomainError, InvalidInputError
from matlife.inhomogeneity import (
    GompertzTransform,
    IdentityTransform,
    ScaledTransform,
    ShiftedTransform,
    WeibullTransform,
    make_transform,
)
from matlife.linalg import PRODUCTS_COND_LIMIT, mexp
from matlife.phasetype import (
    CoxianSpec,
    IPHModel,
    PHRepresentation,
    _conjugate_pairs,
    _products,
    coxian_density,
    ph_products,
    tail_hazard_constant,
    tail_params,
    validate_sub_intensity,
)

from helpers import (
    random_representation,
    random_sub_intensity,
    rotating_representation,
    taylor_expm,
    unfolded_products,
)


def transforms_under_test():
    return [GompertzTransform(0.8), GompertzTransform(5.0), WeibullTransform(0.7),
            WeibullTransform(2.5), IdentityTransform(),
            ShiftedTransform(GompertzTransform(1.2), 0.6),
            ScaledTransform(WeibullTransform(1.5), 2.0)]


class TestTransforms:
    @pytest.mark.parametrize("tr", transforms_under_test())
    def test_round_trip(self, tr):
        y = np.array([0.05, 0.3, 1.0, 2.7])
        assert_allclose(tr.inverse_cumulative(tr.cumulative(y)), y, rtol=1e-12)

    @pytest.mark.parametrize("tr", transforms_under_test())
    def test_cumulative_anchored_and_monotone(self, tr):
        assert_allclose(float(tr.cumulative(0.0)), 0.0, atol=1e-15)
        y = np.linspace(0.01, 4.0, 50)
        assert np.all(np.diff(tr.cumulative(y)) > 0)

    @pytest.mark.parametrize("tr", transforms_under_test())
    def test_intensity_is_cumulative_derivative(self, tr):
        y = np.array([0.2, 0.9, 1.7])
        h = 1e-6
        numeric = (tr.cumulative(y + h) - tr.cumulative(y - h)) / (2 * h)
        assert_allclose(tr.intensity(y), numeric, rtol=1e-6)

    @pytest.mark.parametrize("tr", transforms_under_test())
    def test_log_intensity_consistent(self, tr):
        y = np.array([0.4, 1.3])
        assert_allclose(tr.log_intensity(y), np.log(tr.intensity(y)), rtol=1e-12)

    @given(beta=st.floats(0.05, 20.0), y=st.floats(1e-3, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_gompertz_round_trip_property(self, beta, y):
        tr = GompertzTransform(beta)
        assert np.isclose(tr.inverse_cumulative(tr.cumulative(y)), y, rtol=1e-9)

    @given(theta=st.floats(0.2, 6.0), y=st.floats(1e-3, 5.0))
    @settings(max_examples=60, deadline=None)
    def test_weibull_round_trip_property(self, theta, y):
        tr = WeibullTransform(theta)
        assert np.isclose(tr.inverse_cumulative(tr.cumulative(y)), y, rtol=1e-9)

    def test_make_transform(self):
        assert make_transform("gompertz", 2.0).beta == 2.0
        assert make_transform("weibull", 1.5).theta == 1.5
        assert make_transform("identity").family == "identity"
        with pytest.raises(InvalidInputError):
            make_transform("identity", 1.0)
        with pytest.raises(InvalidInputError):
            make_transform("gompertz")
        with pytest.raises(InvalidInputError):
            make_transform("cauchy", 1.0)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, np.nan, np.inf,
                                     [1.0, 0.0], [2.0, np.nan]])
    def test_invalid_parameters(self, bad):
        with pytest.raises(InvalidInputError):
            GompertzTransform(bad)
        with pytest.raises(InvalidInputError):
            WeibullTransform(bad)

    @pytest.mark.parametrize("family", ["gompertz", "weibull"])
    def test_array_parameter_matches_scalars(self, family):
        params = np.array([0.7, 1.0, 2.5])
        y = np.array([0.3, 1.1, 2.0])
        tr = make_transform(family, params)
        for k in range(3):
            one = make_transform(family, params[k])
            assert isinstance(next(iter(one.params.values())), float)
            assert tr.cumulative(y)[k] == one.cumulative(y[k])
            assert tr.log_intensity(y)[k] == one.log_intensity(y[k])


class TestValidation:
    def test_accepts_valid(self):
        t = validate_sub_intensity([[-2.0, 1.0], [0.5, -1.0]])
        assert t.shape == (2, 2)

    @pytest.mark.parametrize("bad", [
        [[1.0]],                             # positive diagonal
        [[-1.0, -0.5], [0.0, -1.0]],         # negative off-diagonal
        [[-1.0, 2.0], [0.0, -1.0]],          # row sum above zero
        [[-1.0, 1.0], [1.0, -1.0]],          # absorption unreachable
        [[-1.0, 0.0, 0.0]],                  # not square
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(InvalidInputError):
            validate_sub_intensity(bad)

    def test_representation_checks_pi(self):
        t = [[-1.0]]
        with pytest.raises(InvalidInputError):
            PHRepresentation([0.9], t)
        with pytest.raises(InvalidInputError):
            PHRepresentation([-0.2, 1.2], [[-1.0, 0.0], [0.0, -1.0]])
        rep = PHRepresentation([1.0], t)
        assert rep.p == 1
        assert_allclose(rep.exit_rates, [1.0])


class TestEvaluate:
    def test_exponential_closed_form(self):
        model = IPHModel(PHRepresentation([1.0], [[-2.0]]))
        y = np.array([0.1, 0.5, 2.0])
        ev = model.evaluate(y)
        assert_allclose(ev.survival, np.exp(-2 * y), rtol=1e-13)
        assert_allclose(ev.density, 2 * np.exp(-2 * y), rtol=1e-13)
        assert_allclose(ev.hazard, np.full(3, 2.0), rtol=1e-13)
        assert_allclose(ev.cum_hazard, 2 * y, rtol=1e-13)

    def test_mixture_closed_form_with_power_transform(self):
        # diagonal sub-intensity: survival is a mixture of exponentials in
        # the transformed time
        pi = np.array([0.25, 0.5, 0.25])
        lam = np.array([10.0, 1.0, 0.1])
        model = IPHModel(PHRepresentation(pi, np.diag(-lam)), WeibullTransform(1.5))
        y = np.array([0.2, 0.7, 1.9, 4.0])
        z = y**1.5
        expected_surv = (pi[None, :] * np.exp(-np.outer(z, lam))).sum(axis=1)
        expected_dens = 1.5 * y**0.5 * (pi[None, :] * lam[None, :]
                                        * np.exp(-np.outer(z, lam))).sum(axis=1)
        ev = model.evaluate(y)
        assert_allclose(ev.survival, expected_surv, rtol=1e-12)
        assert_allclose(ev.density, expected_dens, rtol=1e-12)

    def test_survival_at_zero_is_one(self):
        rng = np.random.default_rng(1)
        model = IPHModel(random_representation(rng, 3), GompertzTransform(1.0))
        assert_allclose(model.survival(0.0), 1.0, rtol=1e-14)

    def test_hazard_times_survival_is_density(self):
        rng = np.random.default_rng(2)
        model = IPHModel(random_representation(rng, 4), WeibullTransform(1.3))
        y = np.linspace(0.05, 3.0, 20)
        ev = model.evaluate(y)
        assert_allclose(ev.hazard * ev.survival, ev.density, rtol=1e-12)
        assert_allclose(ev.cum_hazard, -np.log(ev.survival), rtol=1e-12)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(3)
        model = IPHModel(random_representation(rng, 3), GompertzTransform(2.0))
        total, err = quad(lambda s: float(model.density(s)), 0.0, np.inf, limit=200)
        assert err < 1e-8
        assert_allclose(total, 1.0, rtol=1e-8)

    def test_scalar_input_scalar_output(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]))
        ev = model.evaluate(1.0)
        assert np.ndim(ev.survival) == 0
        assert isinstance(ev.extrapolated, bool)

    def test_negative_input_rejected(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]))
        with pytest.raises(InvalidInputError):
            model.evaluate(-0.1)

    def test_hazard_extrapolation_flagged(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]))
        ev = model.evaluate(800.0)
        assert ev.extrapolated
        # for one state the hazard is the exit rate regardless of age
        assert_allclose(ev.hazard, 1.0, rtol=1e-9)
        ev_ok = model.evaluate(500.0)
        assert not ev_ok.extrapolated


class TestSampling:
    def test_seeded_reproducibility(self):
        model = IPHModel(PHRepresentation([0.3, 0.7], [[-2.0, 1.0], [0.2, -1.0]]))
        a = model.sample(50, rng=np.random.default_rng(5))
        b = model.sample(50, rng=np.random.default_rng(5))
        assert_allclose(a, b, rtol=0, atol=0)

    def test_empirical_survival_matches_evaluate(self):
        # distribution identity between the simulation route and the
        # analytic survival, via a KS test at the 1% level
        rng = np.random.default_rng(11)
        pi = np.array([0.25, 0.5, 0.25])
        model = IPHModel(PHRepresentation(pi, np.diag([-10.0, -1.0, -0.1])),
                         WeibullTransform(1.5))
        draws = model.sample(100_000, rng=rng)
        stat = kstest(draws, lambda y: 1.0 - model.evaluate(y).survival)
        assert stat.pvalue > 0.01

    def test_sample_size_zero(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]))
        assert model.sample(0, rng=np.random.default_rng(0)).size == 0


class TestMoments:
    def test_identity_mean_hyperexponential(self):
        pi = np.array([0.4, 0.6])
        lam = np.array([2.0, 0.5])
        model = IPHModel(PHRepresentation(pi, np.diag(-lam)))
        assert_allclose(model.mean(), np.sum(pi / lam), rtol=1e-13)

    def test_weibull_mean_scalar_case(self):
        from scipy.special import gamma
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]), WeibullTransform(2.0))
        assert_allclose(model.mean(), gamma(1.5), rtol=1e-12)

    def test_gompertz_scalar_green_value(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]), GompertzTransform(1.0))
        expected, _ = quad(lambda s: np.exp(-np.expm1(min(s, 700.0))), 0.0, np.inf)
        assert_allclose(model.green_matrix()[0, 0], expected, rtol=1e-10)
        assert_allclose(model.mean(), expected, rtol=1e-10)

    @pytest.mark.parametrize("p,seed", [(2, 0), (3, 1), (5, 2)])
    def test_mean_matches_survival_quadrature(self, p, seed):
        rng = np.random.default_rng(seed)
        model = IPHModel(random_representation(rng, p), GompertzTransform(rng.uniform(0.5, 3.0)))
        expected, err = quad(lambda s: float(model.survival(s)), 0.0, np.inf, limit=200)
        assert err < 1e-7
        assert_allclose(model.mean(), expected, rtol=1e-6)

    def test_identity_green_is_inverse(self):
        rng = np.random.default_rng(8)
        t = random_sub_intensity(rng, 4)
        model = IPHModel(random_representation(rng, 4))
        model = IPHModel(PHRepresentation(model.rep.pi, t))
        assert_allclose(model.green_matrix(), np.linalg.inv(-t), rtol=1e-11)

    def test_gompertz_green_entrywise_quadrature(self):
        rng = np.random.default_rng(21)
        rep = random_representation(rng, 2)
        beta = 1.4
        model = IPHModel(rep, GompertzTransform(beta))
        u = model.green_matrix()
        ginv = lambda s: min(np.expm1(beta * min(s, 500.0)) / beta, 1e12)
        for i in range(2):
            for j in range(2):
                val, err = quad(lambda s: mexp(rep.T * ginv(s))[i, j], 0.0, np.inf,
                                limit=400)
                assert_allclose(u[i, j], val, rtol=1e-7, atol=1e-9)

    def test_unsupported_family_raises(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]), WeibullTransform(2.0))
        with pytest.raises(NotImplementedError):
            model.green_matrix()


class TestResidualLifetime:
    def test_survival_ratio_identity(self):
        rng = np.random.default_rng(4)
        model = IPHModel(random_representation(rng, 3), GompertzTransform(1.1))
        x = 0.8
        cond = model.residual_lifetime(x)
        u = np.array([0.1, 0.5, 1.4])
        assert_allclose(cond.survival(u),
                        model.survival(x + u) / model.survival(x), rtol=1e-11)

    def test_survival_ratio_identity_without_eigen_factors(self):
        t = np.array([[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -2.0]])
        model = IPHModel(PHRepresentation([0.6, 0.4, 0.0], t),
                         GompertzTransform(1.1))
        assert model.rep._spectrum is None
        x = 0.8
        cond = model.residual_lifetime(x)
        u = np.array([0.1, 0.5, 1.4])
        assert_allclose(cond.survival(u),
                        model.survival(x + u) / model.survival(x), rtol=1e-11)

    def test_hazard_shift_identity(self):
        rng = np.random.default_rng(6)
        model = IPHModel(random_representation(rng, 3), WeibullTransform(1.8))
        x = 1.2
        cond = model.residual_lifetime(x)
        u = np.array([0.05, 0.3, 0.9])
        assert_allclose(cond.hazard(u), model.hazard(x + u), rtol=1e-10)

    @pytest.mark.parametrize("p,pairs", [(5, 1), (8, 2)])
    def test_start_on_complex_spectrum_matches_taylor(self, p, pairs):
        rep = rotating_representation(p, pairs)
        model = IPHModel(rep, GompertzTransform(1.1))
        x = 0.8
        w = rep.pi @ taylor_expm(rep.T * float(model.transform.cumulative(x)))
        assert_allclose(model.residual_lifetime(x).rep.pi, w / w.sum(),
                        rtol=1e-12)

    def test_zero_age_is_unchanged(self):
        model = IPHModel(PHRepresentation([0.5, 0.5], np.diag([-1.0, -2.0])))
        cond = model.residual_lifetime(0.0)
        assert_allclose(cond.rep.pi, model.rep.pi, atol=0)
        assert cond.transform is model.transform

    def test_plain_clock_stays_plain(self):
        # shifting a memoryless clock is a no-op, so the residual model
        # keeps the identity family and its closed-form mean
        rng = np.random.default_rng(11)
        rep = random_representation(rng, 3)
        model = IPHModel(rep)
        cond = model.residual_lifetime(0.7)
        assert cond.transform.family == "identity"
        w = rep.pi @ mexp(rep.T * 0.7)
        w = w / w.sum()
        assert_allclose(cond.mean(),
                        float(w @ np.linalg.inv(-rep.T) @ np.ones(3)),
                        rtol=1e-12)

    def test_far_tail_conditioning_rejected(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]))
        with pytest.raises(DomainError):
            model.residual_lifetime(800.0)


class TestTail:
    def test_distinct_diagonal(self):
        got = tail_params(np.diag([-3.0, -1.0]))
        assert_allclose(got.decay_rate, 1.0)
        assert got.power_order == 1

    def test_repeated_dominant_eigenvalue(self):
        got = tail_params(np.diag([-1.0, -1.0, -4.0]))
        assert got.power_order == 2

    def test_jordan_block(self):
        got = tail_params(np.array([[-1.0, 1.0], [0.0, -1.0]]))
        assert_allclose(got.decay_rate, 1.0)
        assert got.power_order == 2

    def test_hazard_approaches_intensity_multiple(self):
        # the hazard divided by the clock intensity stabilizes at the tail
        # constant of the underlying representation
        rng = np.random.default_rng(17)
        rep = random_representation(rng, 3)
        model = IPHModel(rep, GompertzTransform(2.0))
        c = tail_hazard_constant(rep)
        eta = tail_params(rep.T).decay_rate
        z_far = 400.0 / eta
        y_far = model.transform.inverse_cumulative(z_far)
        ratio = model.hazard(y_far) / model.transform.intensity(y_far)
        assert_allclose(ratio, c, rtol=1e-6)


class TestCoxian:
    def test_single_state_density(self):
        spec = CoxianSpec([2.0], [])
        x = np.array([0.0, 0.4, 1.1])
        assert_allclose(coxian_density(spec, x), 2.0 * np.exp(-2.0 * x), rtol=1e-14)

    def test_matches_matrix_route(self):
        rng = np.random.default_rng(23)
        for p in (2, 3, 4):
            for _ in range(5):
                rates = rng.uniform(0.2, 3.0, p)
                while np.min(np.abs(np.subtract.outer(rates, rates)
                                    + np.eye(p))) < 0.05:
                    rates = rng.uniform(0.2, 3.0, p)
                cont = rng.uniform(0.1, 0.95, p - 1)
                spec = CoxianSpec(rates, cont)
                model = IPHModel(spec.to_representation())
                x = np.linspace(0.01, 6.0, 40)
                assert_allclose(coxian_density(spec, x), model.density(x),
                                rtol=0, atol=1e-9)

    def test_generalized_start_matches_matrix_route(self):
        spec = CoxianSpec([3.0, 1.0, 0.4], [0.7, 0.5], pi=[0.2, 0.5, 0.3],
                          generalized=True)
        model = IPHModel(spec.to_representation())
        x = np.linspace(0.05, 5.0, 25)
        assert_allclose(coxian_density(spec, x), model.density(x), rtol=0, atol=1e-10)

    def test_duplicate_rates_rejected(self):
        with pytest.raises(DomainError):
            coxian_density(CoxianSpec([1.0, 1.0], [0.5]), 0.3)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            CoxianSpec([1.0, -1.0], [0.5])
        with pytest.raises(InvalidInputError):
            CoxianSpec([1.0, 2.0], [1.5])
        with pytest.raises(InvalidInputError):
            CoxianSpec([1.0, 2.0], [0.5], pi=[0.5, 0.5])  # strict with custom start
        with pytest.raises(InvalidInputError):
            CoxianSpec([1.0, 2.0], [0.5], pi=[0.7, 0.7], generalized=True)

    def test_representation_shape(self):
        spec = CoxianSpec([2.0, 1.0], [0.25])
        rep = spec.to_representation()
        assert_allclose(rep.T, [[-2.0, 0.5], [0.0, -1.0]])
        assert_allclose(rep.pi, [1.0, 0.0])
        assert_allclose(rep.exit_rates, [1.5, 1.0])


#: rate gaps of the near-equal Coxian sweep; cond(V) grows like 1/gap**2 and
#: crosses PRODUCTS_COND_LIMIT between 10**-2.5 and 10**-3
NEAR_EQUAL_GAPS = np.logspace(-2, -8, 13)


class TestProducts:
    def test_products_match_evaluate(self):
        rng = np.random.default_rng(31)
        rep = random_representation(rng, 3)
        z = np.array([0.2, 1.0, 2.5])
        dens, surv = ph_products(rep, z)
        model = IPHModel(rep)
        assert_allclose(surv, model.survival(z), rtol=1e-13)
        assert_allclose(dens, model.density(z), rtol=1e-13)

    @staticmethod
    def assert_matches_taylor(rep, z):
        dens, surv = ph_products(rep, z)
        rows = np.array([rep.pi @ taylor_expm(rep.T * zi) for zi in z])
        assert np.all(dens >= 0) and np.all(surv >= 0)
        assert_allclose(dens, rows @ rep.exit_rates, rtol=1e-9, atol=0)
        assert_allclose(surv, rows.sum(axis=1), rtol=1e-9, atol=0)
        # the slope pi T expm(Tz) t changes sign, so it is held to the scale
        # S(z) max|T t| that bounds it
        with_slope = _products(rep, z, slope=True)
        assert all(np.array_equal(a, b) for a, b in zip(with_slope, (dens, surv)))
        tt = rep.T @ rep.exit_rates
        assert np.all(np.abs(with_slope[2] - rows @ tt)
                      <= 1e-9 * rows.sum(axis=1) * np.abs(tt).max())

    @staticmethod
    def tail_grid(rep, n=25):
        """From zero to where survival is about exp(-150)."""
        return np.linspace(0.0, 150.0 / tail_params(rep.T).decay_rate, n)

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    @pytest.mark.parametrize("kind", ["general", "coxian"])
    def test_spectral_branch_matches_taylor(self, p, kind):
        rep = random_representation(np.random.default_rng(100 + p), p, kind)
        assert rep._spectrum is not None
        self.assert_matches_taylor(rep, self.tail_grid(rep))

    @staticmethod
    def near_equal_coxian(gap):
        return CoxianSpec(1.0 + gap * np.arange(3), [0.9, 0.9]).to_representation()

    @pytest.mark.parametrize("gap", NEAR_EQUAL_GAPS)
    def test_near_equal_coxian_rates_across_the_limit(self, gap):
        rep = self.near_equal_coxian(gap)
        spectral = np.linalg.cond(np.linalg.eig(rep.T)[1]) < PRODUCTS_COND_LIMIT
        assert (rep._spectrum is not None) == spectral
        self.assert_matches_taylor(rep, np.linspace(0.0, 200.0, 41))

    def test_limit_is_crossed_by_the_sweep(self):
        stacked = {self.near_equal_coxian(gap)._spectrum is None
                   for gap in NEAR_EQUAL_GAPS}
        assert stacked == {True, False}

    def test_defective_erlang_takes_stacked_branch(self):
        t = np.array([[-2.0, 2.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -2.0]])
        rep = PHRepresentation([1.0, 0.0, 0.0], t)
        assert rep._spectrum is None
        self.assert_matches_taylor(rep, self.tail_grid(rep))

    def test_spectral_factors_are_cached_and_read_only(self):
        rep = random_representation(np.random.default_rng(5), 4)
        ph_products(rep, [1.0])
        spectrum = rep._spectrum
        ph_products(rep, [2.0])
        assert rep._spectrum is spectrum
        for arr in spectrum:
            assert not arr.flags.writeable

    def test_input_checks(self):
        rep = random_representation(np.random.default_rng(6), 2)
        dens, surv = ph_products(rep, [])
        assert dens.shape == surv.shape == (0,)
        for bad in ([1.0, -0.5], [np.nan]):
            with pytest.raises(InvalidInputError):
                ph_products(rep, bad)


#: (order, complex pairs) of the rotating generators
ROTATING = [(3, 1), (4, 1), (5, 1), (8, 1), (6, 2), (7, 2), (8, 2)]


class TestFoldedProducts:
    """The conjugate-pair folding of the spectral products kernel against
    the unfolded sum and the Taylor oracle."""

    @staticmethod
    def grid(rep):
        return np.r_[TestProducts.tail_grid(rep), [1e-3, 0.37, 7.9]]

    @pytest.mark.parametrize("p,pairs", ROTATING)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_rotating_chains(self, p, pairs, seed):
        rep = rotating_representation(p, pairs, seed)
        spectrum = rep._spectrum
        assert spectrum.pairs.size == pairs
        assert np.linalg.cond(spectrum.vecs) < 1e3
        TestProducts.assert_matches_taylor(rep, self.grid(rep))
        z = self.grid(rep)
        for got, want in zip(_products(rep, z, slope=True),
                             unfolded_products(spectrum, z)):
            assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_general_chains(self, seed):
        # about half of these draws have a complex pair
        rep = random_representation(np.random.default_rng(400 + seed), 6)
        z = self.grid(rep)
        got = _products(rep, z, slope=True)
        want = unfolded_products(rep._spectrum, z)
        if rep._spectrum.pairs.size:
            for g, w in zip(got, want):
                assert_allclose(g, w, rtol=1e-13, atol=1e-13 * np.abs(w).max())
        else:
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("kind", ["general", "coxian"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_real_spectra_are_bitwise_unchanged(self, p, kind):
        for seed in range(6):
            rep = random_representation(np.random.default_rng(seed), p, kind)
            if rep._spectrum.pairs.size:
                continue
            assert not np.iscomplexobj(rep._spectrum.eigvals)
            z = self.grid(rep)
            got = _products(rep, z, slope=True)
            assert all(np.array_equal(g, w)
                       for g, w in zip(got, unfolded_products(rep._spectrum, z)))

    @pytest.mark.parametrize("rep", [
        rotating_representation(3, 1),
        random_representation(np.random.default_rng(2), 3),
        CoxianSpec([1.0, 1.0, 1.0], [0.5, 0.5]).to_representation(),
    ], ids=["complex", "real", "stacked"])
    def test_absorbed_at_infinity(self, rep):
        # exact zeros without a floating-point warning (warnings are errors)
        z = np.array([0.5, np.inf, 2.0])
        got = _products(rep, z, slope=True)
        finite = _products(rep, z[[0, 2]], slope=True)
        for g, f in zip(got, finite):
            assert g[1] == 0.0
            assert np.array_equal(g[[0, 2]], f)
        assert ph_products(rep, [np.inf]) == (0.0, 0.0)

    def test_real_spectrum_has_no_pairs(self):
        spectrum = CoxianSpec([1.0, 2.0, 3.0], [0.5, 0.5]).to_representation()._spectrum
        assert not np.iscomplexobj(spectrum.eigvals)
        assert np.array_equal(spectrum.real, np.arange(3))
        assert spectrum.pairs.size == 0

    def test_pair_layout_is_recorded(self):
        rep = rotating_representation(7, 2)
        spectrum = rep._spectrum
        lam = spectrum.eigvals
        assert np.all(lam[spectrum.pairs].imag > 0)
        assert np.array_equal(lam[spectrum.pairs + 1], lam[spectrum.pairs].conj())
        assert np.all(lam[spectrum.real].imag == 0)
        assert np.array_equal(np.sort(np.r_[spectrum.real, spectrum.pairs,
                                            spectrum.pairs + 1]), np.arange(7))

    def test_pair_layout_is_validated(self):
        lam, vecs = np.linalg.eig(rotating_representation(5, 1).T)
        k = int(np.flatnonzero(lam.imag > 0)[0])
        swapped = np.r_[np.arange(k), [k + 1, k], np.arange(k + 2, 5)]
        with pytest.raises(DomainError):
            _conjugate_pairs(lam[swapped], vecs[:, swapped])
        apart = np.r_[[k], np.delete(np.arange(5), k)]
        with pytest.raises(DomainError):
            _conjugate_pairs(lam[apart], vecs[:, apart])
        bent = vecs.copy()
        bent[0, k + 1] += 1e-3
        with pytest.raises(DomainError):
            _conjugate_pairs(lam, bent)
        real, pairs = _conjugate_pairs(lam, vecs)
        assert pairs.tolist() == [k]
