"""Tests for the covariate regression layer: the operational-time transform,
conditional likelihood, the coefficient search and the alternating fit."""

import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import kstest

from matlife import regression
from matlife.diagnostics import simulate_study
from matlife.em import EMConfig, StructureSpec, fit_ph, loglik as ph_loglik, CensoredSample
from matlife.exceptions import (
    DegenerateObservationError,
    InvalidInputError,
    ScoreOverflowError,
)
from matlife.inhomogeneity import make_transform
from matlife.mortality import implied_sample, load_table
from matlife.phasetype import CoxianSpec, IPHModel, PHRepresentation
from matlife.regression import (
    PIFitConfig,
    PIModel,
    RegressionSample,
    _fast_objective,
    fit_pi,
    maximize_regression,
    pi_loglik,
    transform,
)

from helpers import mp_survival_integral, random_representation

DATA = pathlib.Path(__file__).parent / "data"


def two_group_sample(n_per_group, rng, beta=np.log(2.0), theta1=1.5, theta2=1.0):
    """Weibull-clock lifetimes in two covariate groups with light censoring."""
    pi = np.array([0.25, 0.5, 0.25])
    t = np.diag([-10.0, -1.0, -0.1])
    rows = []
    for group, thet in ((0.0, theta1), (1.0, theta2)):
        factor = np.exp(group * beta)
        model = PIModel(PHRepresentation(pi, t), "weibull",
                        [beta], [np.log(theta1), np.log(theta2 / theta1)])
        cond = model.conditional_model([group])
        y = cond.sample(n_per_group, rng=rng)
        c = rng.exponential(10.0, size=n_per_group)
        rows.append((np.minimum(y, c), (y <= c).astype(int),
                     np.full(n_per_group, group)))
    y = np.concatenate([r[0] for r in rows])
    delta = np.concatenate([r[1] for r in rows])
    x = np.concatenate([r[2] for r in rows])[:, None]
    return RegressionSample(y, delta, x, np.ones(y.size))


def life_table_sample():
    """Implied lifetimes of the synthetic 2000-2005 period table (no
    covariates)."""
    return implied_sample(load_table(DATA / "synthetic_Mx_1x1.txt"),
                          2000, 2005).as_regression_sample()


def count_evaluations(monkeypatch):
    """Objective evaluations of each coefficient step, one list entry per
    objective :func:`_fast_objective` builds, counted from here on."""
    counts = []

    def counted(*args):
        objective = _fast_objective(*args)
        counts.append(0)

        def wrapped(vec):
            counts[-1] += 1
            return objective(vec)

        return wrapped

    monkeypatch.setattr(regression, "_fast_objective", counted)
    return counts


class TestSample:
    def test_coerce_rows(self):
        s = RegressionSample.coerce([(1.0, 1, (0.5, 2.0)), (2.0, 0, (1.0, 0.0), 2.0)])
        assert s.n == 2 and s.d == 2
        assert_allclose(s.weight, [1.0, 2.0])

    def test_zero_covariates_allowed(self):
        s = RegressionSample([1.0, 2.0], [1, 1], np.empty((2, 0)), [1.0, 1.0])
        assert s.d == 0

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            RegressionSample([0.0], [1], [[1.0]], [1.0])
        with pytest.raises(InvalidInputError):
            RegressionSample([1.0], [3], [[1.0]], [1.0])
        with pytest.raises(InvalidInputError):
            RegressionSample([1.0], [1], [[np.nan]], [1.0])
        with pytest.raises(InvalidInputError):
            RegressionSample([1.0, 2.0], [1, 1], [[1.0]], [1.0, 1.0])

    @pytest.mark.parametrize("column", ["y", "delta", "x", "weight"])
    def test_complex_columns_refused_before_a_cast(self, column):
        # a cast to real would warn, and the suite turns a warning into a failure
        columns = {"y": [1.0, 2.0], "delta": [1, 0], "x": [[0.5], [1.5]],
                   "weight": [1.0, 1.0]}
        columns[column] = np.asarray(columns[column]) + 0j
        with pytest.raises(InvalidInputError, match="must be real"):
            RegressionSample(**columns)

    def test_canonical_sorts(self):
        s = RegressionSample([2.0, 1.0, 2.0], [1, 1, 0], [[1.0], [0.0], [2.0]],
                             [1.0, 1.0, 1.0])
        c = s.canonical()
        assert_allclose(c.y, [1.0, 2.0, 2.0])
        assert_allclose(c.delta, [1, 0, 1])


@pytest.mark.parametrize("build", [
    lambda delta: CensoredSample(np.ones(delta.size), delta, np.ones(delta.size)),
    lambda delta: RegressionSample(np.ones(delta.size), delta,
                                   np.zeros((delta.size, 1)), np.ones(delta.size))],
    ids=["CensoredSample", "RegressionSample"])
@pytest.mark.parametrize("delta,accepted", [
    (np.array([0, 1]), True),
    (np.array([True, False]), True),
    (np.array([0.0, 1.0]), True),
    (np.array([1, 0], dtype=object), True),
    (np.array([0, 2]), False),
    (np.array([-1, 1]), False),
    (np.array([0.5, 1.0]), False),
    (np.array([0.0, np.nan]), False),
    (np.array(["0", "1"]), False),
    (np.array([0, "1"], dtype=object), False),
    (np.array([None, 1], dtype=object), False)])
def test_censoring_indicators(build, delta, accepted):
    # either sample takes exactly the values equal to 0 or 1, of any dtype
    if accepted:
        kept = build(delta).delta
        assert kept.dtype == np.int8 and kept.tolist() == [int(d) for d in delta]
    else:
        with pytest.raises(InvalidInputError, match="censoring indicators"):
            build(delta)


class TestModel:
    def test_identity_family_has_no_gamma(self):
        rep = PHRepresentation([1.0], [[-1.0]])
        with pytest.raises(InvalidInputError):
            PIModel(rep, "identity", [0.5], [0.1])
        with pytest.raises(InvalidInputError):
            PIModel(rep, "weibull", [0.5], None)
        with pytest.raises(InvalidInputError):
            PIModel(rep, "weibull", [0.5], [0.1, 0.2, 0.3])
        with pytest.raises(InvalidInputError):
            PIModel(rep, "exotic", [0.5], [0.1])

    def test_conditional_survival_closed_form(self):
        # one latent state: S(y | x) = exp(-lam * e^{x beta} * y^theta(x))
        lam, beta = 0.7, 0.4
        gamma = np.array([0.2, -0.3])
        model = PIModel(PHRepresentation([1.0], [[-lam]]), "weibull", [beta], gamma)
        for x in (0.0, 1.0, 2.5):
            theta = np.exp(gamma[0] + gamma[1] * x)
            y = np.array([0.3, 1.0, 2.2])
            want = np.exp(-lam * np.exp(beta * x) * y**theta)
            got = np.array([model.predict([x], yi).survival for yi in y])
            assert_allclose(got, want, rtol=1e-12)

    def test_shared_shape_when_gamma_is_intercept_only(self):
        rep = PHRepresentation([1.0], [[-1.0]])
        model = PIModel(rep, "weibull", [0.5, -0.2], [np.log(2.0)])
        theta = model.shape_param(np.array([[1.0, 3.0], [0.0, 0.0]]))
        assert_allclose(theta, [2.0, 2.0], rtol=1e-12)

    def test_score_overflow(self):
        rep = PHRepresentation([1.0], [[-1.0]])
        model = PIModel(rep, "weibull", [400.0], [0.0])
        with pytest.raises(ScoreOverflowError) as info:
            model.rate_factor(np.array([[1.0], [2.0]]))
        assert info.value.index == 1

    def test_transform_maps_to_common_distribution(self):
        # transformed draws from every covariate row follow the base
        # phase-type law, checked with a KS test at the 1% level
        rng = np.random.default_rng(19)
        rep = PHRepresentation([0.25, 0.5, 0.25], np.diag([-10.0, -1.0, -0.1]))
        model = PIModel(rep, "weibull", [np.log(2.0)], [np.log(1.5), -np.log(1.5)])
        base = IPHModel(rep)
        draws, xs = [], []
        for x in (0.0, 1.0):
            cond = model.conditional_model([x])
            y = cond.sample(50_000, rng=rng)
            draws.append(y)
            xs.append(np.full(y.size, x))
        z = transform(model, np.concatenate(draws), np.concatenate(xs)[:, None])
        stat = kstest(z, lambda v: 1.0 - base.evaluate(v).survival)
        assert stat.pvalue > 0.01


    def test_conditional_mean_against_mpmath(self):
        rep = random_representation(np.random.default_rng(2), 3)
        model = PIModel(rep, "gompertz", [0.3, -0.5], [0.1, 0.2, -0.1])
        cond = model.conditional_model([0.4, 1.2])
        assert_allclose(cond.mean(), mp_survival_integral(cond), rtol=1e-12)


class TestLoglik:
    def test_matches_per_row_evaluation(self):
        rng = np.random.default_rng(2)
        rep = random_representation(rng, 3)
        model = PIModel(rep, "gompertz", [0.3, -0.5], [0.1, 0.2, -0.1])
        n = 40
        x = rng.normal(size=(n, 2))
        y = rng.uniform(0.05, 2.0, n)
        delta = rng.integers(0, 2, n)
        w = rng.uniform(0.5, 2.0, n)
        sample = RegressionSample(y, delta, x, w)
        slow = 0.0
        for i in range(n):
            ev = model.predict(x[i], y[i])
            slow += w[i] * (np.log(ev.density) if delta[i] else np.log(ev.survival))
        assert_allclose(pi_loglik(model, sample), slow, rtol=1e-10)

    def test_identity_no_covariates_reduces_to_ph(self):
        rng = np.random.default_rng(3)
        rep = random_representation(rng, 2)
        y = rng.uniform(0.1, 3.0, 25)
        delta = rng.integers(0, 2, 25)
        sample = RegressionSample(y, delta, np.empty((25, 0)), np.ones(25))
        model = PIModel(rep, "identity", [])
        assert_allclose(pi_loglik(model, sample),
                        ph_loglik(rep, CensoredSample(y, delta, np.ones(25))),
                        rtol=1e-13)


class TestOneLikelihood:
    """The four log-likelihood routes share one kernel and agree."""

    @given(family=st.sampled_from(["identity", "weibull", "gompertz"]),
           spectral=st.booleans(), seed=st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_routes_agree(self, family, spectral, seed):
        rng = np.random.default_rng(seed)
        if spectral:
            rep = random_representation(rng, 3)
        else:
            # rate gaps of 1e-5 put cond(V) far past the spectral limit
            rep = CoxianSpec(1.0 + 1e-5 * np.arange(3),
                             [0.9, 0.9]).to_representation()
        assert (rep._spectrum is not None) == spectral
        n = 30
        # two-decimal ages tie, so em.loglik merges rows before summing
        y = np.round(rng.uniform(0.05, 1.5, n), 2)
        delta = rng.integers(0, 2, n)
        w = rng.uniform(0.5, 2.0, n)
        sample = RegressionSample(y, delta, np.empty((n, 0)), w)
        gamma = None if family == "identity" else np.log(rng.uniform(0.5, 2.0, 1))
        clock = make_transform(family, None if gamma is None else np.exp(gamma[0]))
        obs = delta == 1
        want = IPHModel(rep, clock).loglik(y, delta, w)
        got = [ph_loglik(rep, CensoredSample(clock.cumulative(y), delta, w))
               + np.sum(w[obs] * clock.log_intensity(y[obs])),
               pi_loglik(PIModel(rep, family, [], gamma), sample),
               -_fast_objective(rep, family, sample, 0 if gamma is None else 1)(
                   np.zeros(0) if gamma is None else gamma)[0]]
        assert np.isfinite(want)
        assert_allclose(got, want, rtol=1e-12)

    @pytest.mark.parametrize("family, theta, y, want", [
        # z = 0.01**200 underflows to zero, where f(0) = 0.5 is positive;
        # closed form of two observed rows under f(z) = 0.5 exp(-z / 2)
        ("weibull", 200.0, [0.01, 1.0],
         2 * np.log(0.5) - 0.5 + 2 * np.log(200.0) + 199 * np.log(0.01)),
        # the clock overflows at age 80: zero likelihood, not an error
        ("gompertz", 10.0, [0.1, 80.0], -np.inf),
    ], ids=["weibull-underflow", "gompertz-overflow"])
    def test_clock_underflow_and_overflow(self, family, theta, y, want):
        rep = PHRepresentation([1.0], [[-0.5]])
        y = np.asarray(y)
        sample = RegressionSample(y, np.ones(y.size, dtype=int),
                                  np.empty((y.size, 0)), np.ones(y.size))
        got = [IPHModel(rep, make_transform(family, theta)).loglik(y),
               pi_loglik(PIModel(rep, family, [], [np.log(theta)]), sample),
               -_fast_objective(rep, family, sample, 1)(np.log([theta]))[0]]
        assert_allclose(got, want, rtol=1e-12)

    def test_weibull_clock_overflow_is_silent(self):
        # 10**400 overflows the clock: an infinite operational time and a
        # zero likelihood, with no floating-point warning on the way
        rep = PHRepresentation([0.6, 0.4], [[-2.0, 1.0], [0.0, -3.0]])
        y = np.array([0.5, 10.0])
        sample = RegressionSample(y, np.ones(2, dtype=int), np.empty((2, 0)),
                                  np.ones(2))
        model = PIModel(rep, "weibull", [], [np.log(400.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert pi_loglik(model, sample) == -np.inf
            iph = IPHModel(rep, make_transform("weibull", 400.0))
            assert iph.loglik(y) == -np.inf
            assert transform(model, y, sample.x)[1] == np.inf


class TestGradient:
    @given(family=st.sampled_from(["weibull", "gompertz", "identity"]),
           per_covariate=st.booleans(), spectral=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=60, deadline=None)
    def test_matches_central_differences(self, family, per_covariate,
                                         spectral, seed):
        rng = np.random.default_rng(seed)
        if spectral:
            rep = random_representation(rng, 3)
        else:
            # rate gaps of 1e-5 put cond(V) far past the spectral limit
            rep = CoxianSpec(1.0 + 1e-5 * np.arange(3),
                             [0.9, 0.9]).to_representation()
        assert (rep._spectrum is not None) == spectral
        n, d = 30, 2
        sample = RegressionSample(rng.uniform(0.05, 1.5, n), rng.integers(0, 2, n),
                                  rng.normal(size=(n, d)), rng.uniform(0.5, 2.0, n))
        gamma_len = 0 if family == "identity" else (d + 1 if per_covariate else 1)
        vec = rng.uniform(-0.3, 0.3, d + gamma_len)
        objective = _fast_objective(rep, family, sample, gamma_len)
        value, grad = objective(vec)
        model = PIModel(rep, family, vec[:d], vec[d:] if gamma_len else None)
        assert_allclose(-value, pi_loglik(model, sample), rtol=1e-12)
        h = 1e-6
        central = np.array([(objective(vec + h * e)[0] - objective(vec - h * e)[0])
                            / (2 * h) for e in np.eye(vec.size)])
        # worst of 1800 draws: 1.0e-8 spectral, 1.4e-6 on the stacked route
        tol = 1e-7 if spectral else 1e-5
        assert np.abs(grad - central).max() <= tol * np.abs(grad).max()


class TestMaximize:
    def test_never_worse_than_start(self):
        rng = np.random.default_rng(8)
        sample = two_group_sample(150, rng)
        rep = PHRepresentation([0.25, 0.5, 0.25], np.diag([-10.0, -1.0, -0.1]))
        start_beta, start_gamma = np.array([0.0]), np.array([0.0, 0.0])
        start_ll = pi_loglik(PIModel(rep, "weibull", start_beta, start_gamma), sample)
        beta, gamma, end_ll = maximize_regression(rep, "weibull", sample,
                                                  start_beta, start_gamma)
        assert_allclose(end_ll, pi_loglik(PIModel(rep, "weibull", beta, gamma),
                                          sample), rtol=1e-12)
        assert end_ll >= start_ll - 1e-6 * abs(start_ll)
        assert end_ll > start_ll + 1.0  # the data carry real signal

    def test_bad_start_raises(self):
        rng = np.random.default_rng(12)
        sample = two_group_sample(50, rng)
        rep = PHRepresentation([1.0], [[-1.0]])
        with pytest.raises(InvalidInputError):
            maximize_regression(rep, "weibull", sample, [900.0], [0.0])

    def test_step_survives_a_zero_likelihood_trial_point(self, monkeypatch):
        # on the life-table sample the fifth step starts at gamma = 1.303
        # with slope -0.666: the unit first trial, gamma + 1, has zero
        # likelihood, and a step with no carried curvature must back off
        # from it and still gain; the fit's own step starts from the
        # curvature of the fourth and need not try that point
        sample = life_table_sample()
        steps = []

        def recording(rep, family, data, beta, gamma, budget, **kwargs):
            objective = _fast_objective(rep, family, data, gamma.size)
            first_trial = objective(np.concatenate([beta, gamma + 1.0]))[0]
            fresh = maximize_regression(rep, family, data, beta, gamma,
                                        budget=budget)
            out = maximize_regression(rep, family, data, beta, gamma,
                                      budget=budget, **kwargs)
            steps.append([-pi_loglik(PIModel(rep, family, b, g), data)
                          for b, g in ((beta, gamma), out[:2], fresh[:2])]
                         + [first_trial])
            return out

        monkeypatch.setattr(regression, "maximize_regression", recording)
        res = fit_pi(sample, StructureSpec("generalized_coxian", 2),
                     family="gompertz",
                     config=PIFitConfig(max_outer=6, tol=0.0, nm_budget=30),
                     rng=np.random.default_rng(0))
        start, end, fresh_end, first_trial = steps[4]
        assert first_trial == np.inf
        assert fresh_end <= start - 0.03
        assert end <= start - 0.03
        # reference: the gradient-free (Nelder-Mead) step at the same budget;
        # its first step stopped short and the EM path after it differs by
        # 6e-6 at step 2, hence the absolute floor
        assert_allclose(res.loglik_trace,
                        [-0.2213849, -0.01282616, 0.13062802, 0.23556634,
                         0.31579526, 0.37922872], rtol=1e-4, atol=1e-5)

    def test_empty_coefficients_pass_through(self):
        rng = np.random.default_rng(13)
        rep = random_representation(rng, 2)
        y = rng.uniform(0.1, 2.0, 20)
        sample = RegressionSample(y, np.ones(20, dtype=int), np.empty((20, 0)),
                                  np.ones(20))
        beta, gamma, ll = maximize_regression(rep, "identity", sample, [], None)
        assert beta.size == 0 and gamma is None
        assert_allclose(ll, pi_loglik(PIModel(rep, "identity", beta), sample),
                        rtol=1e-12)


class TestCarriedCurvature:
    """``fit_pi`` hands each coefficient step the inverse Hessian the one
    before it ended with."""

    def test_late_warm_starts_take_few_evaluations(self, monkeypatch):
        # restarting every step from a max-norm-1 trial took 830 evaluations
        # here, 8 to 10 in each of steps 50-99, where the coefficients sit
        # near the optimum after a small M-step move
        counts = count_evaluations(monkeypatch)
        res = fit_pi(life_table_sample(), StructureSpec("generalized_coxian", 2),
                     family="gompertz", config=PIFitConfig(max_outer=100, tol=0.0),
                     rng=np.random.default_rng(0))
        assert res.iterations == len(counts) == 100
        assert sum(counts) <= 450
        assert max(counts[50:]) <= 4

    def test_every_step_goes_through_the_module_binding(self, monkeypatch):
        # a tracer that wraps regression.maximize_regression sees every
        # coefficient step of the fit
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return maximize_regression(*args, **kwargs)

        monkeypatch.setattr(regression, "maximize_regression", counted)
        res = fit_pi(two_group_sample(40, np.random.default_rng(16)),
                     StructureSpec("coxian", 2),
                     config=PIFitConfig(max_outer=30, tol=1e-3, patience=2),
                     rng=np.random.default_rng(0))
        assert 2 <= res.iterations < 30
        assert len(calls) == res.iterations

    @given(scale=st.sampled_from([1e6, 1e-6]), per_covariate=st.booleans(),
           seed=st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=30, deadline=None)
    def test_wrong_curvature_never_loses(self, scale, per_covariate, seed):
        rng = np.random.default_rng(seed)
        sample = two_group_sample(60, rng)
        rep = random_representation(rng, 2)
        gamma_len = 2 if per_covariate else 1
        start = rng.uniform(-0.3, 0.3, 1 + gamma_len)
        start_ll = -_fast_objective(rep, "weibull", sample, gamma_len)(start)[0]
        holder = [scale * np.eye(start.size)]
        beta, gamma, ll = maximize_regression(rep, "weibull", sample, start[:1],
                                              start[1:], _curvature=holder)
        assert ll >= start_ll
        assert_allclose(ll, pi_loglik(PIModel(rep, "weibull", beta, gamma), sample),
                        rtol=1e-12)
        assert holder[0].shape == (start.size, start.size)
        assert np.all(np.isfinite(holder[0]))

    @given(scale=st.sampled_from([1e6, 1e-6]), seed=st.integers(0, 2**16))
    @settings(derandomize=True, max_examples=10, deadline=None)
    def test_fit_misled_every_step_stays_monotone_and_deterministic(self, scale,
                                                                    seed):
        sample = two_group_sample(40, np.random.default_rng(seed))

        def misled(rep, family, data, beta, gamma, budget, *, _curvature):
            _curvature[0] = scale * np.eye(beta.size + gamma.size)
            return maximize_regression(rep, family, data, beta, gamma, budget,
                                       _curvature=_curvature)

        def fit():
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(regression, "maximize_regression", misled)
                return fit_pi(sample, StructureSpec("general", 2),
                              config=PIFitConfig(max_outer=8, tol=0.0,
                                                 nm_budget=50,
                                                 shape_covariates=True),
                              rng=np.random.default_rng(seed))

        a, b = fit(), fit()
        trace = a.loglik_trace
        assert np.all(np.diff(trace) >= -1e-9 * max(1.0, abs(trace[-1])))
        np.testing.assert_array_equal(a.loglik_trace, b.loglik_trace)
        np.testing.assert_array_equal(a.model.beta, b.model.beta)
        np.testing.assert_array_equal(a.model.gamma, b.model.gamma)
        np.testing.assert_array_equal(a.model.rep.T, b.model.rep.T)


class TestFit:
    def test_trace_monotone_within_slack(self):
        rng = np.random.default_rng(5)
        sample = two_group_sample(120, rng)
        res = fit_pi(sample, StructureSpec("general", 2), family="weibull",
                     config=PIFitConfig(max_outer=25, tol=1e-9, patience=3,
                                        nm_budget=150),
                     rng=np.random.default_rng(0))
        diffs = np.diff(res.loglik_trace)
        scale = abs(res.loglik_trace[-1])
        assert np.all(diffs >= -1e-6 * max(1.0, scale))

    @pytest.mark.parametrize("patience", [0, -3])
    def test_patience_below_one_rejected(self, patience):
        # a patience below one would count as met at the second outer step
        sample = two_group_sample(20, np.random.default_rng(6))
        with pytest.raises(InvalidInputError, match="patience"):
            fit_pi(sample, StructureSpec("general", 2),
                   config=PIFitConfig(patience=patience))

    def test_row_order_invariance_is_exact(self):
        rng = np.random.default_rng(6)
        sample = two_group_sample(60, rng)
        perm = np.random.default_rng(1).permutation(sample.n)
        shuffled = RegressionSample(sample.y[perm], sample.delta[perm],
                                    sample.x[perm], sample.weight[perm])
        init = PHRepresentation([0.6, 0.4], [[-2.0, 0.5], [0.3, -1.0]])
        cfg = PIFitConfig(max_outer=8, nm_budget=100)
        a = fit_pi(sample, StructureSpec("general", 2), config=cfg, init=init)
        b = fit_pi(shuffled, StructureSpec("general", 2), config=cfg, init=init)
        assert_allclose(a.loglik_trace, b.loglik_trace, atol=0)
        assert_allclose(a.model.beta, b.model.beta, atol=0)
        assert_allclose(a.model.rep.T, b.model.rep.T, atol=0)

    def test_reported_model_scores_original_data(self):
        # coefficients come back on the raw covariate scale; the reported
        # model must reproduce the final internal log-likelihood
        rng = np.random.default_rng(7)
        sample = two_group_sample(80, rng)
        shifted = RegressionSample(sample.y, sample.delta,
                                   5.0 + 3.0 * sample.x, sample.weight)
        res = fit_pi(shifted, StructureSpec("general", 2),
                     config=PIFitConfig(max_outer=10, nm_budget=100),
                     rng=np.random.default_rng(2))
        assert res.model.standardization is not None
        assert_allclose(pi_loglik(res.model, shifted.canonical()),
                        res.loglik_trace[-1], rtol=1e-8)

    def test_shape_covariate_switch_controls_gamma_length(self):
        rng = np.random.default_rng(9)
        sample = two_group_sample(40, rng)
        cfg_shared = PIFitConfig(max_outer=3, nm_budget=50)
        cfg_full = PIFitConfig(max_outer=3, nm_budget=50, shape_covariates=True)
        shared = fit_pi(sample, StructureSpec("coxian", 1), config=cfg_shared,
                        rng=np.random.default_rng(0))
        full = fit_pi(sample, StructureSpec("coxian", 1), config=cfg_full,
                      rng=np.random.default_rng(0))
        assert shared.model.gamma.size == 1
        assert full.model.gamma.size == 2
        assert shared.n_parameters == 1 + 1 + 1
        assert full.n_parameters == 1 + 1 + 2

    def test_identity_family_rejects_shape_covariates(self):
        rng = np.random.default_rng(10)
        sample = two_group_sample(20, rng)
        with pytest.raises(InvalidInputError):
            fit_pi(sample, StructureSpec("coxian", 1), family="identity",
                   config=PIFitConfig(shape_covariates=True))

    def test_no_covariate_weibull_recovery(self):
        # with no covariates the fit reduces to a parametric estimate of the
        # shared clock shape; truth is theta = 1.5, rate 1
        rng = np.random.default_rng(14)
        z = rng.exponential(1.0, size=3000)
        y = z ** (1.0 / 1.5)
        sample = RegressionSample(y, np.ones(y.size, dtype=int),
                                  np.empty((y.size, 0)), np.ones(y.size))
        res = fit_pi(sample, StructureSpec("coxian", 1),
                     config=PIFitConfig(max_outer=60, tol=1e-8),
                     rng=np.random.default_rng(3))
        theta_hat = float(np.exp(res.model.gamma[0]))
        rate_hat = -float(res.model.rep.T[0, 0])
        assert abs(theta_hat - 1.5) < 0.1
        assert abs(rate_hat - 1.0) < 0.1

    @pytest.mark.parametrize("setting", [{"max_outer": 0}, {"nm_budget": 0},
                                         {"nm_budget": -5}])
    def test_settings_below_one_rejected(self, setting):
        sample = two_group_sample(10, np.random.default_rng(17))
        with pytest.raises(InvalidInputError, match=next(iter(setting))):
            fit_pi(sample, StructureSpec("coxian", 1),
                   config=PIFitConfig(**setting))

    def test_init_order_mismatch(self):
        rng = np.random.default_rng(15)
        sample = two_group_sample(10, rng)
        with pytest.raises(InvalidInputError):
            fit_pi(sample, StructureSpec("general", 3),
                   init=PHRepresentation([1.0], [[-1.0]]))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        sample = two_group_sample(10, np.random.default_rng(17))
        with pytest.raises(InvalidInputError, match="tol"):
            fit_pi(sample, StructureSpec("coxian", 1), config=PIFitConfig(tol=tol))

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_identity_fit_without_covariates_is_fit_ph(self, k):
        # one EM loop: with no coefficients to step, fit_pi is fit_ph
        rng = np.random.default_rng(8)
        y = rng.gamma(2.0, 1.0, size=150)
        delta = (rng.uniform(size=150) < 0.8).astype(int)
        assert np.unique(y).size == y.size
        spec = StructureSpec("general", 3)
        ph = fit_ph(CensoredSample(y, delta, np.ones(150)), spec,
                    EMConfig(max_iterations=k, tol=0.0), rng=np.random.default_rng(4))
        pi = fit_pi(RegressionSample(y, delta, np.empty((150, 0)), None), spec,
                    "identity", PIFitConfig(max_outer=k, tol=0.0),
                    rng=np.random.default_rng(4))
        assert pi.iterations == ph.iterations == k
        assert pi.model.rep.pi.tobytes() == ph.rep.pi.tobytes()
        assert pi.model.rep.T.tobytes() == ph.rep.T.tobytes()
        assert pi.loglik == ph.loglik

    def test_init_outside_the_structure_is_refused(self):
        y = np.random.default_rng(0).exponential(1.0, 200)
        sample = RegressionSample(y, np.ones(200, int), np.empty((200, 0)), None)
        init = PHRepresentation([0.5, 0.5], [[-2.0, 1.0], [0.5, -1.5]])
        with pytest.raises(InvalidInputError, match="coxian"):
            fit_pi(sample, StructureSpec("coxian", 2), family="weibull", init=init)

    def test_failed_e_step_names_its_outer_iteration(self):
        sample = simulate_study(3, n_per_group=200).sample
        init = PHRepresentation([1, 0, 0], [[-2, 1, 0], [0, -1, .5], [0, 0, -.2]])
        with pytest.raises(DegenerateObservationError) as caught:
            fit_pi(sample, StructureSpec("coxian", 3), family="gompertz", init=init)
        assert caught.value.index == 395
        assert str(caught.value) == ("outer iteration 0: observation 395 has "
                                     "zero likelihood")
