"""Tests for the lifetime distribution layer: transforms, evaluation,
sampling, moments, conditioning, closed forms and tail behaviour."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.stats import kstest

from matlife.exceptions import DomainError, InvalidInputError
from matlife.inhomogeneity import (
    FAMILIES,
    GompertzTransform,
    IdentityTransform,
    ScaledTransform,
    ShiftedTransform,
    WeibullTransform,
    make_transform,
)
from matlife.phasetype import (
    PRODUCTS_COND_LIMIT,
    CoxianSpec,
    IPHModel,
    PHRepresentation,
    _conjugate_pairs,
    _folded_exp,
    _products,
    _unfolded,
    coxian_density,
    ph_products,
    tail_hazard_constant,
    tail_params,
    validate_sub_intensity,
)

from helpers import (
    erlang,
    evaluate_by_fresh_eig,
    mp_mean,
    mp_products,
    mp_survival_integral,
    random_representation,
    random_sub_intensity,
    rotating_representation,
    spectrum_by_fresh_eig,
    stacked_route_sweep,
    taylor_expm,
    unfolded_products,
    without_spectrum,
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
        with pytest.raises(InvalidInputError):
            make_transform("weibull")
        with pytest.raises(InvalidInputError):
            make_transform("scaled", 1.0)  # a wrapper, not a family
        with pytest.raises(InvalidInputError):
            make_transform(["gompertz"], 1.0)

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

    #: ages from near zero to where every shaped clock below overflows:
    #: Gompertz exp(beta y) at 1e4 and past, Weibull y**theta at 1e130
    CLOCK_AGES = np.array([1e-3, 0.4, 1.0, 2.5, 30.0, 300.0, 1e4, 1e130])

    @pytest.mark.parametrize("family,param", [
        ("identity", None), ("gompertz", 1.0), ("gompertz", 2.0), ("weibull", 2.5),
        ("gompertz", np.linspace(0.5, 3.0, CLOCK_AGES.size)),
        ("weibull", np.linspace(0.5, 3.0, CLOCK_AGES.size))])
    def test_clock_terms(self, family, param):
        # called outside any errstate: the suite turns a warning into a failure
        y = self.CLOCK_AGES
        cum, log_lam, dcum, dlog_lam = FAMILIES[family].clock_terms(param, y, np.log(y))
        clock = make_transform(family, param)
        assert cum.tobytes() == clock.cumulative(y).tobytes()
        assert log_lam.tobytes() == clock.log_intensity(y).tobytes()
        if param is None:
            assert not dcum.any() and not dlog_lam.any()
            return
        assert np.isinf(cum).any()
        h = 1e-6
        up, down = (make_transform(family, param * np.exp(s * h)) for s in (1, -1))
        with np.errstate(over="ignore", invalid="ignore"):
            for got, term in ((dcum, "cumulative"), (dlog_lam, "log_intensity")):
                central = (getattr(up, term)(y) - getattr(down, term)(y)) / (2 * h)
                finite = np.isfinite(central)
                assert_allclose(got[finite], central[finite], rtol=1e-6)
                # past the overflow on both sides the difference is nan, and
                # the derivative is no finite number either
                assert not np.isfinite(got[~finite]).any()
        # where the clock overflows, it grows without bound in its parameter
        assert (dcum[np.isinf(cum)] == np.inf).all()
        # at age zero the clock is zero for every parameter
        zero = np.zeros(1)
        with np.errstate(divide="ignore"):
            log_zero = np.log(zero)
        assert FAMILIES[family].clock_terms(np.mean(param), zero, log_zero)[2] == 0.0


#: invalid sub-intensity matrices and the message each is rejected with
BAD_SUB_INTENSITIES = [
    ([[1.0]], "diagonal entries must be strictly negative"),
    ([[-1.0, -0.5], [0.0, -1.0]], "off-diagonal rates must be nonnegative"),
    ([[-1.0, 2.0], [0.0, -1.0]], "row sums must not exceed zero"),
    ([[-1.0, 1.0], [1.0, -1.0]], "absorption must be reachable from every state"),
    ([[-1.0, 0.0, 0.0]], "sub-intensity must be square, got (1, 3)"),
    ([[-1.0, np.nan], [0.0, -1.0]], "sub-intensity contains non-finite entries"),
]


class TestValidation:
    def test_accepts_valid(self):
        t = validate_sub_intensity([[-2.0, 1.0], [0.5, -1.0]])
        assert t.shape == (2, 2)

    @pytest.mark.parametrize("bad", BAD_SUB_INTENSITIES)
    def test_rejects_invalid(self, bad):
        t, message = bad
        with pytest.raises(InvalidInputError) as caught:
            validate_sub_intensity(t)
        assert str(caught.value) == message

    @pytest.mark.parametrize("bad", BAD_SUB_INTENSITIES)
    def test_representation_rejects_alike(self, bad):
        t, message = bad
        with pytest.raises(InvalidInputError) as caught:
            PHRepresentation(np.full(len(t), 1.0 / len(t)), t)
        assert type(caught.value) is InvalidInputError
        assert str(caught.value) == message

    def test_representation_checks_pi(self):
        t = [[-1.0]]
        with pytest.raises(InvalidInputError):
            PHRepresentation([0.9], t)
        with pytest.raises(InvalidInputError):
            PHRepresentation([-0.2, 1.2], [[-1.0, 0.0], [0.0, -1.0]])
        rep = PHRepresentation([1.0], t)
        assert rep.p == 1
        assert_allclose(rep.exit_rates, [1.0])


    @pytest.mark.parametrize("pi", [[np.nan, 1.0], [np.inf, 0.0], [-0.2, 1.2],
                                    [0.9, 0.0], [1.0]])
    def test_constructors_share_one_start_vector_check(self, pi):
        with pytest.raises(InvalidInputError):
            PHRepresentation(pi, [[-1.0, 0.5], [0.0, -2.0]])
        with pytest.raises(InvalidInputError):
            CoxianSpec([1.0, 2.0], [0.5], pi=pi, generalized=True)

    def test_constructors_zero_the_same_dust(self):
        pi = [1.0 + 5e-13, -5e-13]
        rep = PHRepresentation(pi, [[-1.0, 0.5], [0.0, -2.0]])
        spec = CoxianSpec([1.0, 2.0], [0.5], pi=pi, generalized=True)
        assert rep.pi.tolist() == spec.pi.tolist() == [1.0, 0.0]

    def test_empty_sub_intensity_rejected(self):
        with pytest.raises(InvalidInputError, match="at least one state"):
            PHRepresentation(np.zeros(0), np.zeros((0, 0)))

    @given(rates=st.tuples(*[st.floats(0.05, 20.0)] * 3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_closed_class_is_refused(self, rates):
        # state 0 exits; states 1 and 2 swap and never exit, which rounding
        # can hide from the eigenvalues (their zero eigenvalue came out as
        # -8.9e-16 for some such rates)
        a, b, c = rates
        t = [[-c, 0.0, 0.0], [0.0, -a, a], [0.0, b, -b]]
        message = "absorption must be reachable from every state"
        with pytest.raises(InvalidInputError, match=message):
            validate_sub_intensity(t)
        with pytest.raises(InvalidInputError, match=message):
            PHRepresentation([1.0, 0.0, 0.0], t)

    def test_absorption_through_a_chain_of_rates(self):
        # only the last state exits; every other one reaches it through
        # positive rates, and the order of the rows does not matter
        t = np.array([[-1.0, 0.0, 1.0, 0.0], [0.5, -0.5, 0.0, 0.0],
                      [0.0, 0.0, -2.0, 2.0], [0.0, 0.0, 0.0, -3.0]])
        assert np.array_equal(validate_sub_intensity(t), t)
        t[3, 3], t[3, 1] = -1.0, 1.0        # 1 -> 0 -> 2 -> 3 -> 1, no exit
        with pytest.raises(InvalidInputError, match="reachable"):
            validate_sub_intensity(t)


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
                val, err = quad(lambda s: expm(rep.T * ginv(s))[i, j], 0.0, np.inf,
                                limit=400)
                assert_allclose(u[i, j], val, rtol=1e-7, atol=1e-9)

    def test_unsupported_family_raises(self):
        # the Weibull Green matrix is Gamma(1 + 1/theta) (-T)^(-1/theta)
        import mpmath

        t = random_sub_intensity(np.random.default_rng(3), 3)
        model = IPHModel(PHRepresentation(np.eye(3)[0], t), WeibullTransform(2.0))
        with mpmath.workdps(30):
            want = mpmath.gamma(1.5) * mpmath.powm(-mpmath.matrix(t.tolist()), -0.5)
            want = np.array(want.apply(mpmath.re).tolist(), dtype=float)
        assert_allclose(model.green_matrix(), want, rtol=1e-13)


@st.composite
def mean_cases(draw):
    """``(pi, T)`` of order 1-5, general or Coxian, whose rows are scaled
    apart by up to four decades and whose largest rate is one."""
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = random_sub_intensity(rng, p, draw(st.sampled_from(["general", "coxian"])))
    t *= 10.0 ** rng.uniform(-4.0, 0.0, (p, 1))
    return rng.dirichlet(np.ones(p)).tolist(), (t / -t.diagonal().min()).tolist()


#: the Gompertz means that evaluating exp and E1 apart got wrong (-6.6e69
#: and -9.8e169): 31.406089804968 and 23.526142504419
GOMPERTZ_REPRODUCTIONS = [
    ([0.5, 0.5], [[-1.0, 0.5], [0.0, -0.02]], 0.005),
    ([0.5798, 0.4202], [[-0.0240, 0.0240], [0.0105, -1.0105]], 0.0023),
]


class TestMatrixFunctions:
    """The Weibull and Gompertz means and Green matrices, by the quadrature
    of :meth:`IPHModel.green_matrix` with or without eigen-factors, against
    30-digit mpmath."""

    def test_weibull_unit_shape_is_the_plain_mean(self):
        rep = random_representation(np.random.default_rng(5), 4)
        assert_allclose(IPHModel(rep, WeibullTransform(1.0)).mean(),
                        IPHModel(rep).mean(), rtol=1e-12)

    @pytest.mark.parametrize("pi,t,beta", GOMPERTZ_REPRODUCTIONS, ids=["first", "second"])
    def test_gompertz_reproductions(self, pi, t, beta):
        model = IPHModel(PHRepresentation(pi, t), GompertzTransform(beta))
        assert_allclose(model.mean(), mp_mean(model), rtol=1e-12)

    @pytest.mark.parametrize("p,pairs", [(3, 1), (5, 1), (6, 2)])
    @pytest.mark.parametrize("transform", [GompertzTransform(0.05),
                                           WeibullTransform(0.6),
                                           WeibullTransform(2.5),
                                           WeibullTransform(12.0)], ids=repr)
    def test_complex_pairs_against_mpmath(self, p, pairs, transform):
        model = IPHModel(rotating_representation(p, pairs), transform)
        assert model.rep._spectrum.pairs.size == pairs
        assert_allclose(model.mean(), mp_mean(model), rtol=1e-12)

    @pytest.mark.parametrize("p,rate,transform", [
        (3, 2.0, GompertzTransform(1.0)),
        (4, 3.0, GompertzTransform(1.0)),
        (4, 3.0, WeibullTransform(0.7)),
        (4, 3.0, WeibullTransform(2.0)),
        (8, 3.0, GompertzTransform(1.0)),
        (10, 3.0, WeibullTransform(0.7)),
        (4, 3.0, WeibullTransform(12.0)),
    ], ids=repr)
    def test_defective_erlang_on_the_contour(self, p, rate, transform):
        # coinciding eigenvalues leave no eigen-factors: the quadrature
        # sums one stack of exponentials
        model = IPHModel(erlang(p, rate), transform)
        assert model.rep._spectrum is None
        assert_allclose(model.mean(), mp_mean(model), rtol=1e-12)

    def test_near_jordan_pair_on_the_contour(self):
        model = IPHModel(PHRepresentation([0.5, 0.5], [[-1.0, 1.0], [0.0, -1.0 - 1e-9]]),
                         GompertzTransform(0.5))
        assert model.rep._spectrum is None
        assert_allclose(model.mean(), mp_mean(model, dps=50), rtol=1e-12)

    @pytest.mark.parametrize("transform", [GompertzTransform(0.05), WeibullTransform(1.5)],
                             ids=repr)
    def test_ill_conditioned_spread_spectrum_raises(self, transform):
        # cond(V) = 2.4e7 leaves the eigen-factors, and the eigenvalues 1, 1
        # and 0.01 spread over two decades: a circle about them would nearly
        # meet the branch cut (-inf, 0] of E1 and of the Weibull power
        t = [[-1.0, 1.0, 0.0], [0.0, -1.0 - 1e-7, 0.5], [0.0, 0.0, -0.01]]
        model = IPHModel(PHRepresentation([0.5, 0.3, 0.2], t), transform)
        assert model.rep._spectrum is None
        assert_allclose(model.mean(), mp_mean(model, dps=50), rtol=1e-14)

    @pytest.mark.parametrize("slow,near_cut", [(0.11, False), (0.06, True)])
    def test_contour_resolves_or_raises(self, slow, near_cut):
        # a Jordan pair at 1 and a rate ``slow``: the spread about their
        # mean is 0.84 and 0.91 of the mean's distance to the cut (-inf, 0]
        t = np.diag([-1.0, -1.0 - 1e-9, -slow]) + np.diag([1.0, 0.5], 1)
        rates = -np.diag(t)
        assert (np.abs(rates - rates.mean()).max() > 0.9 * rates.mean()) == near_cut
        model = IPHModel(PHRepresentation([0.5, 0.3, 0.2], t), WeibullTransform(1.5))
        assert model.rep._spectrum is None
        assert_allclose(model.mean(), mp_mean(model, dps=50), rtol=1e-14)

    def test_contour_meeting_the_cut_raises(self):
        # eigenvalues 0.02 (an exact Jordan pair) and 3 lie farther from
        # their mean than the mean from zero; mpmath.eig cannot split the
        # pair, so the reference integrates the survival function
        t = [[-0.02, 0.02, 0.0], [0.0, -0.02, 0.01], [0.0, 0.0, -3.0]]
        model = IPHModel(PHRepresentation([0.5, 0.3, 0.2], t), GompertzTransform(0.5))
        assert model.rep._spectrum is None
        with pytest.raises(ValueError, match="repeated eigenvalue"):
            mp_mean(model)
        assert_allclose(model.mean(), mp_survival_integral(model), rtol=1e-14)

    def test_rates_too_far_apart_raise(self):
        # rates 2^53 apart give the mean to 4e-12 on the eigen-factors; one
        # more binary order puts the slower below the rounding of the
        # faster.  A Weibull shape of one is the identity clock taken by the
        # quadrature; the identity clock's own (-T)^-1 holds at any span
        rates = np.array([2.0**-26, 2.0**27])
        wider = rates * [1.0, 2.0]
        for r in (rates, wider):
            plain = IPHModel(PHRepresentation([0.5, 0.5], np.diag(-r)))
            assert_allclose(plain.mean(), np.sum(0.5 / r), rtol=1e-15)
        model = IPHModel(PHRepresentation([0.5, 0.5], np.diag(-rates)), WeibullTransform(1.0))
        assert_allclose(model.mean(), np.sum(0.5 / rates), rtol=4e-12)
        model = IPHModel(PHRepresentation([0.5, 0.5], np.diag(-wider)), WeibullTransform(1.0))
        with pytest.raises(DomainError, match="2\\^53"):
            model.mean()

    @pytest.mark.parametrize("route", [lambda rep: rep, without_spectrum],
                             ids=["eigen-factors", "contour"])
    def test_overflowing_scale_raises(self, route):
        # -T / beta overflows, and beta * u underflows: the clock is the
        # identity on every node, and the suite's warning filter turns any
        # numpy warning into a failure
        rep = route(PHRepresentation([1.0], [[-1e300]]))
        assert_allclose(IPHModel(rep, GompertzTransform(1e-300)).mean(), 1e-300,
                        rtol=1e-15)

    @given(case=mean_cases(), k=st.integers(-12, 12),
           beta=st.integers(-600, 0).map(lambda k: 10.0 ** (k / 100)),
           theta=st.floats(0.5, 3.0))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_time_unit_scales_mean_and_green(self, case, k, beta, theta):
        # lifetimes in a unit c times smaller: T / 2^k with c = 2^k under the
        # identity and under a Gompertz clock with beta / c, and with
        # c = 2^(k / theta) under a Weibull clock; without eigen-factors the
        # nodes, the weights and T u scale exactly for the first two
        pi, t = case[0], np.array(case[1])
        for transform, transform_c, c in [
                (GompertzTransform(beta), GompertzTransform(beta / 2.0**k), 2.0**k),
                (WeibullTransform(theta), WeibullTransform(theta), 2.0 ** (k / theta)),
                (IdentityTransform(), IdentityTransform(), 2.0**k)]:
            for route in (lambda rep: rep, without_spectrum):
                model = IPHModel(route(PHRepresentation(pi, t)), transform)
                scaled = IPHModel(route(PHRepresentation(pi, t / 2.0**k)), transform_c)
                spectrum = model.rep._spectrum
                if spectrum is not None:
                    # T and T / 2^k need not decompose to the same digits
                    tol = 1e-14 * np.linalg.cond(spectrum.vecs)
                else:
                    tol = 1e-14 if transform.family == "weibull" else 0.0
                green, mean = c * model.green_matrix(), c * model.mean()
                assert np.abs(scaled.green_matrix() - green).max() <= tol * np.abs(green).max()
                assert abs(scaled.mean() - mean) <= tol * mean

    @pytest.mark.parametrize("route", [lambda rep: rep, without_spectrum],
                             ids=["eigen-factors", "stacked"])
    def test_stiff_spectrum(self, route):
        # rates twelve decades apart: the rule centred on their geometric
        # mean reaches both ends on the eigen-factors.  Without them the
        # exponential's shift by the fast rate would bury the slow one 2e-4
        # deep, so any clock but the identity, whose (-T)^-1 is exact, is
        # refused
        rates = np.array([1e-6, 1.0, 1e6])
        rep = route(PHRepresentation(np.full(3, 1 / 3), np.diag(-rates)))
        assert_allclose(IPHModel(rep).green_matrix(), np.diag(1 / rates), rtol=1e-14, atol=0)
        model = IPHModel(rep, WeibullTransform(1.0))
        if rep._spectrum is None:
            with pytest.raises(DomainError, match="2\\^16"):
                model.green_matrix()
        else:
            assert_allclose(model.green_matrix(), np.diag(1 / rates), rtol=1e-14, atol=0)

    def test_stiff_jordan_pair_without_eigen_factors(self):
        # a Jordan pair at 1e6 beside a rate of 1e-6 has no eigen-factors:
        # the identity clock gets (-T)^-1 and any other clock a typed error
        import mpmath

        t = [[-1e6, 1e6, 0.0], [0.0, -1e6, 5e5], [0.0, 0.0, -1e-6]]
        rep = PHRepresentation([0.5, 0.3, 0.2], t)
        assert rep._spectrum is None
        with mpmath.workdps(30):
            want = np.array(mpmath.inverse(-mpmath.matrix(t)).tolist(), dtype=float)
        assert_allclose(IPHModel(rep).green_matrix(), want, rtol=1e-14, atol=0)
        for transform in (GompertzTransform(0.5), WeibullTransform(1.5)):
            with pytest.raises(DomainError, match="2\\^16"):
                IPHModel(rep, transform).mean()

    @pytest.mark.parametrize("route", [lambda rep: rep, without_spectrum],
                             ids=["eigen-factors", "stacked"])
    def test_steep_weibull_clock(self, route):
        # the rule's first node lies at u = e^-522 and the ages before it,
        # about u^(1 / theta), are left out: 7e-16 of the mean at theta = 15,
        # 3e-5 at theta = 50, which is refused
        model = IPHModel(route(random_representation(np.random.default_rng(2), 3)),
                         WeibullTransform(15.0))
        assert_allclose(model.mean(), mp_mean(model), rtol=1e-14)
        with pytest.raises(DomainError, match="first ages"):
            IPHModel(model.rep, WeibullTransform(50.0)).mean()

    @given(case=mean_cases(), beta=st.integers(-600, 0).map(lambda k: 10.0 ** (k / 100)),
           theta=st.floats(0.5, 3.0))
    @example(case=GOMPERTZ_REPRODUCTIONS[0][:2], beta=GOMPERTZ_REPRODUCTIONS[0][2], theta=1.5)
    @example(case=GOMPERTZ_REPRODUCTIONS[1][:2], beta=GOMPERTZ_REPRODUCTIONS[1][2], theta=0.5)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_means_against_mpmath(self, case, beta, theta):
        # rates from 1e-4 to 1 against beta from 1e-6 to 1: rate / beta up to 1e6
        rep = PHRepresentation(*case)
        for transform in (GompertzTransform(beta), WeibullTransform(theta)):
            model = IPHModel(rep, transform)
            assert_allclose(model.mean(), mp_mean(model), rtol=1e-10)


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

    @pytest.mark.parametrize("route", [lambda rep: rep, without_spectrum],
                             ids=["eigen-factors", "stacked"])
    @pytest.mark.parametrize("transform", [GompertzTransform(1.3), WeibullTransform(1.7)],
                             ids=repr)
    def test_life_expectancy_against_mpmath(self, route, transform):
        rep = random_representation(np.random.default_rng(2), 3)
        model = IPHModel(route(rep), transform)
        for x in (0.5, 2.0):
            cond = model.residual_lifetime(x)
            cond = IPHModel(route(cond.rep), cond.transform)
            assert_allclose(cond.mean(), mp_survival_integral(model, x), rtol=1e-12)

    def test_zero_age_is_unchanged(self):
        model = IPHModel(PHRepresentation([0.5, 0.5], np.diag([-1.0, -2.0])))
        cond = model.residual_lifetime(0.0)
        assert_allclose(cond.rep.pi, model.rep.pi, atol=0)
        assert cond.transform is model.transform

    def test_plain_clock_stays_plain(self):
        # shifting a memoryless clock is a no-op, so the residual model
        # keeps the identity family and stays a plain model that saves to a
        # file
        rng = np.random.default_rng(11)
        rep = random_representation(rng, 3)
        model = IPHModel(rep)
        cond = model.residual_lifetime(0.7)
        assert cond.transform.family == "identity"
        w = rep.pi @ expm(rep.T * 0.7)
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


class TestOneDecomposition:
    """Each representation decomposes ``T`` once, at construction, and the
    validation, the spectrum and the tail all read that decomposition."""

    def test_one_eig_per_representation(self, monkeypatch):
        calls = {"eig": 0, "eigvals": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(np.linalg, name)):
                calls[_name] += 1
                return _original(*args)
            monkeypatch.setattr(np.linalg, name, counted)
        rep = rotating_representation(5, 1)
        calls.update(eig=0, eigvals=0)
        rep = PHRepresentation(rep.pi, rep.T)
        assert calls == {"eig": 1, "eigvals": 0}
        assert rep._spectrum is not None
        ph_products(rep, [0.0, 1.5, np.inf])
        ev = IPHModel(rep, GompertzTransform(1.0)).evaluate([0.0, 2.0, 30.0])
        assert ev.extrapolated.tolist() == [False, False, True]
        tail_hazard_constant(rep)
        assert calls == {"eig": 1, "eigvals": 0}

    @staticmethod
    def drawn_representation(kind, p, seed):
        rng = np.random.default_rng(seed)
        if kind == "rotating":
            return rotating_representation(3 * p, 1 + (p > 1), seed)
        if kind == "near-equal":
            # rate gaps on both sides of the cond(V) limit
            gap = 10.0 ** -rng.uniform(2.0, 9.0)
            return CoxianSpec(1.0 + gap * np.arange(p + 1),
                              np.full(p, 0.9)).to_representation()
        return random_representation(rng, p, kind)

    @given(kind=st.sampled_from(["general", "coxian", "rotating", "near-equal"]),
           p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_spectrum_matches_fresh_eig(self, kind, p, seed):
        rep = self.drawn_representation(kind, p, seed)
        want = spectrum_by_fresh_eig(rep)
        got = rep._spectrum
        assert (got is None) == (want is None)
        if got is not None:
            for name, g, w in zip(want._fields, got, want):
                assert g.dtype == w.dtype and np.array_equal(g, w), name

    @given(kind=st.sampled_from(["general", "coxian", "rotating", "near-equal"]),
           p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
           clock=st.sampled_from([IdentityTransform(), GompertzTransform(0.3),
                                  WeibullTransform(2.5)]))
    @settings(max_examples=60, deadline=None)
    def test_evaluate_matches_fresh_eig(self, kind, p, seed, clock):
        model = IPHModel(self.drawn_representation(kind, p, seed), clock)
        # y = 0, ordinary ages and ages past survival underflow
        for y in (0.0, 1.3, [0.0, 0.5, 2.0, 9.0, 400.0, 2000.0, 1e5]):
            got, want = model.evaluate(y), evaluate_by_fresh_eig(model, y)
            for name, g, w in zip(want._fields, got, want):
                assert type(g) is type(w), name
                assert np.array_equal(g, w), name
        assert got.extrapolated[-1]

    @pytest.mark.parametrize("p", [2, 3, 21])
    def test_ill_conditioned_or_singular_basis_takes_route_b(self, p):
        rep = erlang(p)
        singular_values = np.linalg.svd(np.linalg.eig(rep.T)[1], compute_uv=False)
        if p == 21:
            assert singular_values[-1] == 0.0
        else:
            assert singular_values[0] >= PRODUCTS_COND_LIMIT * singular_values[-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rep._spectrum is None
            dens, surv = ph_products(rep, [0.0, 1.0, 5.0])
        assert surv[0] == 1.0 and np.all(surv > 0) and np.all(dens >= 0)


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

    #: largest relative error of either product against the 50-digit
    #: reference over the sweep below, rounded up: 8.96e-12 on the spectral
    #: route (order 2, gap 1e-5) and 5.32e-15 on the stacked one (order 3,
    #: gap 1e-9)
    MP_BOUND = {True: 9.0e-12, False: 5.4e-15}

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_near_equal_coxian_rates_against_mpmath(self, p):
        z = np.array([0.5, 5.0, 30.0])
        for gap in np.logspace(-2, -10, 9):
            rep = CoxianSpec(1.0 + gap * np.arange(p), np.full(p - 1, 0.7)
                             ).to_representation()
            bound = self.MP_BOUND[rep._spectrum is not None]
            for got, want in zip(ph_products(rep, z), mp_products(rep.pi, rep.T, z)):
                assert np.all(np.abs(got - want) <= bound * want)

    #: points of the stacked-route sweep, from near the origin, where an
    #: Erlang-10 density is about z^9 / 9!, into the far tail
    SWEEP_Z = np.array([1e-4, 1e-2, 0.5, 5.0, 30.0, 200.0])

    def test_stacked_route_against_mpmath(self):
        for rep in stacked_route_sweep(10):
            got = ph_products(rep, self.SWEEP_Z)
            for g, want in zip(got, mp_products(rep.pi, rep.T, self.SWEEP_Z)):
                assert np.all(np.abs(g - want) <= 1e-12 * want)

    def test_stacked_route_mixes_far_apart_times(self):
        # a Jordan pair at 1 leaves no eigen-factors, and the slow last state
        # keeps every product positive at z = 1e8; each exponential of the
        # stack takes its own scaling, so the far points leave the near
        # one's digits alone
        t = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1e-7]]
        rep = PHRepresentation([0.6, 0.3, 0.1], t)
        assert rep._spectrum is None
        z = [0.5, 1e4, 1e8]
        got = ph_products(rep, z)
        for k, zk in enumerate(z):
            assert all(np.array_equal(g[k], one[0]) for g, one in zip(got, ph_products(rep, [zk])))
        for g, want in zip(got, mp_products(rep.pi, rep.T, z[:1])):
            assert abs(g[0] - want[0]) <= 1e-12 * want[0]

    @pytest.mark.parametrize("z", [1e-4, 1e-3, 1e-2])
    def test_stacked_route_erlang_density_at_one_small_point(self, z):
        # the density is about z^9 / 9!, from the exponential's exit corner,
        # which first appears in the ninth Taylor term: a series with terms
        # of both signs loses it to cancellation
        rep = without_spectrum(erlang(10))
        for got, want in zip(ph_products(rep, [z]), mp_products(rep.pi, rep.T, [z])):
            assert abs(got[0] - want[0]) <= 1e-12 * want[0]

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

    @pytest.mark.parametrize("rep", [
        *(rotating_representation(p, pairs, seed) for p, pairs in ROTATING
          for seed in (0, 1)),
        *(random_representation(np.random.default_rng(400 + seed), 6)
          for seed in range(12)),
        CoxianSpec([1.0, 2.0, 3.0], [0.5, 0.5]).to_representation(),
    ])
    def test_unfolded_columns_are_the_exponentials(self, rep):
        # both members of a pair take the bits of the complex exp; a real
        # column is real exp, which differs from complex exp by up to 1 ulp
        spectrum = rep._spectrum
        z = self.grid(rep)
        er, ec = _folded_exp(spectrum, z)[:2]
        got = _unfolded(spectrum, er, ec)
        want = np.exp(np.multiply.outer(z, spectrum.eigvals))
        assert got.dtype == want.dtype
        real = spectrum.eigvals.imag == 0
        assert np.array_equal(got[:, ~real], want[:, ~real])
        np.testing.assert_array_max_ulp(got[:, real].real, want[:, real].real, maxulp=1)
        assert not got[:, real].imag.any()

    @pytest.mark.parametrize("seed", range(8))
    def test_real_spectrum_takes_the_general_fold_bits(self, seed):
        # a real spectrum takes every column as it is; the general fold picks
        # the real ones by index and their real parts, to the same bits
        rep = random_representation(np.random.default_rng(seed), 4, "coxian")
        spectrum = rep._spectrum
        assert not spectrum.pairs.size
        z = self.grid(rep)
        coefs = (spectrum.exit_coef, spectrum.ones_coef,
                 spectrum.start[:, None] * spectrum.vecs_inv)
        er, ec, sums = _folded_exp(spectrum, z, *coefs)
        real = spectrum.real
        want = np.exp(np.multiply.outer(z, spectrum.eigvals[real].real))
        assert ec is None and er.tobytes() == want.tobytes()
        for got, coef in zip(sums, coefs):
            assert got.tobytes() == (want @ coef[real].real).tobytes()

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
