"""Tests for the non-parametric estimators, residual diagnostics,
information criteria and the simulation study harness."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import norm

from matlife.diagnostics import (
    Z95,
    CoxSnellResiduals,
    StepFunction,
    band_coverage,
    cox_snell_residuals,
    information_criteria,
    kaplan_meier,
    na_slope,
    nelson_aalen,
    replication_rngs,
    residual_diagnostics,
    simulate_study,
    study_models,
)
from matlife.em import CensoredSample
from matlife.exceptions import DomainError, InvalidInputError
from matlife.phasetype import IPHModel, PHRepresentation
from matlife.regression import PIModel, RegressionSample

# hand-computed product-limit fixture: times 1..6, alternating death and
# censoring; survival jumps at 1, 3, 5
HAND_TIMES = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
HAND_DELTA = [1, 0, 1, 0, 1, 0]
HAND_KM = [5.0 / 6.0, 5.0 / 8.0, 5.0 / 16.0]
HAND_VARLOG = [1.0 / 30.0, 1.0 / 30.0 + 1.0 / 12.0, 37.0 / 60.0]
HAND_NA = [1.0 / 6.0, 5.0 / 12.0, 11.0 / 12.0]


class TestStepFunction:
    def test_lookup(self):
        f = StepFunction([1.0, 3.0], [0.5, 0.2], initial=1.0)
        assert f(0.5) == 1.0
        assert f(1.0) == 0.5
        assert f(2.9) == 0.5
        assert f(3.0) == 0.2
        assert f(10.0) == 0.2
        assert_allclose(f(np.array([0.0, 1.5, 4.0])), [1.0, 0.5, 0.2])

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            StepFunction([2.0, 1.0], [0.5, 0.2])
        with pytest.raises(InvalidInputError):
            StepFunction([1.0], [0.5, 0.2])
        with pytest.raises(InvalidInputError):
            StepFunction([1.0], [0.5], lower=[0.1, 0.2])


class TestKaplanMeier:
    def test_hand_fixture(self):
        km = kaplan_meier(CensoredSample(HAND_TIMES, HAND_DELTA, np.ones(6)))
        assert_allclose(km.times, [1.0, 3.0, 5.0])
        assert_allclose(km.values, HAND_KM, rtol=1e-15)
        varlog = km.variance / km.values**2
        assert_allclose(varlog, HAND_VARLOG, rtol=1e-13)
        assert km.note is None

    def test_no_censoring_is_empirical(self):
        y = np.array([3.0, 1.0, 2.0, 4.0])
        km = kaplan_meier(CensoredSample(y, np.ones(4, dtype=int), np.ones(4)))
        assert_allclose(km.times, [1.0, 2.0, 3.0, 4.0])
        assert_allclose(km.values, [0.75, 0.5, 0.25, 0.0], atol=1e-15)

    def test_single_observed_time(self):
        km = kaplan_meier(CensoredSample([2.0], [1], [1.0]))
        assert km(1.9) == 1.0
        assert km(2.0) == 0.0
        # variance and bounds collapse with the estimate
        assert_allclose(km.lower, [0.0])
        assert_allclose(km.upper, [0.0])

    def test_all_censored_flagged(self):
        km = kaplan_meier(CensoredSample([1.0, 2.0], [0, 0], [1.0, 1.0]))
        assert km.n_jumps == 0
        assert km.note is not None
        assert km(5.0) == 1.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        y = rng.exponential(1.0, 200)
        delta = rng.integers(0, 2, 200)
        delta[0] = 1
        km = kaplan_meier(CensoredSample(y, delta, np.ones(200)))
        assert np.all(np.diff(km.values) <= 0)
        assert np.all((km.values >= 0) & (km.values <= 1))
        assert np.all(km.variance >= 0)
        assert np.all(km.lower <= km.values + 1e-15)
        assert np.all(km.values <= km.upper + 1e-15)

    def test_death_and_censoring_at_one_time(self):
        # both rows share one jump time and both count as at risk there
        km = kaplan_meier(CensoredSample([2.0, 1.0, 1.0], [1, 1, 0], np.ones(3)))
        assert_allclose(km.times, [1.0, 2.0])
        assert_allclose(km.values, [2.0 / 3.0, 0.0], rtol=1e-15)

    def test_weights_equal_replication(self):
        tied = CensoredSample([1.0, 1.0, 2.0, 3.0], [1, 1, 0, 1], np.ones(4))
        weighted = CensoredSample([1.0, 2.0, 3.0], [1, 0, 1], [2.0, 1.0, 1.0])
        a = kaplan_meier(tied)
        b = kaplan_meier(weighted)
        assert_allclose(a.values, b.values, rtol=1e-14)
        assert_allclose(a.variance, b.variance, rtol=1e-14)


class TestNelsonAalen:
    def test_hand_fixture(self):
        na = nelson_aalen(CensoredSample(HAND_TIMES, HAND_DELTA, np.ones(6)))
        assert_allclose(na.times, [1.0, 3.0, 5.0])
        assert_allclose(na.values, HAND_NA, rtol=1e-15)
        assert_allclose(na.variance, [1.0 / 36.0, 1.0 / 36.0 + 1.0 / 16.0,
                                      1.0 / 36.0 + 1.0 / 16.0 + 1.0 / 4.0],
                        rtol=1e-13)

    def test_single_death_jump(self):
        na = nelson_aalen(CensoredSample([1.0, 2.0, 3.0, 4.0], [0, 1, 0, 0],
                                         np.ones(4)))
        assert_allclose(na.times, [2.0])
        assert_allclose(na.values, [1.0 / 3.0])

    def test_all_censored_identically_zero(self):
        na = nelson_aalen(CensoredSample([1.0, 2.0], [0, 0], [1.0, 1.0]))
        assert na.n_jumps == 0
        assert na(3.0) == 0.0

    def test_close_to_log_km_on_large_samples(self):
        rng = np.random.default_rng(1)
        y = rng.exponential(1.0, 10_000)
        data = CensoredSample(y, np.ones(y.size, dtype=int), np.ones(y.size))
        km = kaplan_meier(data)
        na = nelson_aalen(data)
        keep = km.values > 0.05
        assert np.max(np.abs(-np.log(km.values[keep]) - na.values[keep])) < 0.01

    def test_lower_bound_clipped(self):
        na = nelson_aalen(CensoredSample([1.0, 2.0], [1, 1], [1.0, 1.0]))
        assert np.all(na.lower >= 0.0)


class TestCoxSnell:
    def test_exponential_model_exact(self):
        model = IPHModel(PHRepresentation([1.0], [[-2.0]]))
        y = np.array([0.5, 1.0, 3.0])
        res = cox_snell_residuals(model, CensoredSample(y, [1, 0, 1], np.ones(3)))
        assert_allclose(res.residual, 2.0 * y, rtol=1e-13)
        assert_allclose(res.delta, [1, 0, 1])

    def test_regression_model_matches_cum_hazard(self):
        rep = PHRepresentation([0.5, 0.5], [[-2.0, 1.0], [0.0, -1.0]])
        model = PIModel(rep, "weibull", [0.4], [0.1, -0.2])
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0.3, 0.8, 1.5])
        sample = RegressionSample(y, [1, 1, 0], x, np.ones(3))
        res = cox_snell_residuals(model, sample)
        want = [model.predict(x[i], y[i]).cum_hazard for i in range(3)]
        assert_allclose(res.residual, want, rtol=1e-12)

    def test_adjusted_replaces_censored(self):
        res = CoxSnellResiduals([0.5, 1.2], [1, 0], [1.0, 1.0])
        assert_allclose(res.adjusted(), [0.5, 2.2])

    def test_true_model_residual_mean_is_one(self):
        # mean of uncensored-adjusted residuals across 50 replications
        group1, _ = study_models()
        means = []
        for rng in replication_rngs(2024, 50):
            z = group1.sample(200, rng=rng)
            c = rng.exponential(10.0, 200)
            data = CensoredSample(np.minimum(z, c), (z <= c).astype(int),
                                  np.ones(200))
            res = cox_snell_residuals(group1, data)
            means.append(np.average(res.adjusted(), weights=res.weight))
        assert abs(np.mean(means) - 1.0) < 0.1

    def test_zero_survival_raises(self):
        model = IPHModel(PHRepresentation([1.0], [[-1.0]]))
        with pytest.raises(DomainError):
            cox_snell_residuals(model, CensoredSample([800.0], [1], [1.0]))

    @pytest.mark.parametrize("t", [
        [[-1.0]],
        # fitted survival at 1e-20 is 1.0000000000000002 here
        [[-3.7, 2.0, 0.7], [2.8, -3.7, 0.4], [1.9, 2.8, -5.2]],
    ])
    def test_survival_of_one_gives_a_zero_residual(self, t):
        p = len(t)
        model = IPHModel(PHRepresentation(np.full(p, 1.0 / p), t))
        res = cox_snell_residuals(
            model, CensoredSample([1e-20, 0.5, 2.0], [1, 0, 1], np.ones(3)))
        assert res.residual[0] == 0.0 and not np.signbit(res.residual[0])
        for step in (kaplan_meier(res), nelson_aalen(res)):
            assert list(step.times[:1]) == [0.0]
        assert_allclose(kaplan_meier(res).values[0], 2.0 / 3.0, rtol=1e-15)

    @pytest.mark.parametrize("r", [-0.1, np.nan, np.inf])
    def test_estimators_refuse_bad_residuals(self, r):
        res = CoxSnellResiduals([r, 1.0], [1, 1], [1.0, 1.0])
        for estimator in (kaplan_meier, nelson_aalen):
            with pytest.raises(InvalidInputError):
                estimator(res)


class TestInformationCriteria:
    def test_exact_arithmetic(self):
        a = information_criteria(-136.21, 5, 137)
        assert_allclose(a.aic, 282.42, atol=1e-12)
        assert round(a.bic, 2) == 297.02
        b = information_criteria(-127.74, 7, 137)
        assert_allclose(b.aic, 269.48, atol=1e-12)
        assert round(b.bic, 2) == 289.92

    def test_zero_case(self):
        r = information_criteria(0.0, 0, 10)
        assert r.aic == 0.0 and r.bic == 0.0
        assert "degrees of freedom" in r.note

    def test_invalid_n(self):
        with pytest.raises(InvalidInputError):
            information_criteria(-1.0, 2, 0)


class TestBandTools:
    def test_coverage_counts_inside_fraction(self):
        step = StepFunction([1.0, 2.0, 3.0, 4.0], [0.9, 0.5, 0.4, 0.2],
                            lower=[0.8, 0.45, 0.1, 0.1],
                            upper=[1.0, 0.55, 0.2, 0.3])
        ref = lambda t: np.full(np.shape(t), 0.47)
        # inside at t=2 (0.45..0.55) and t=3 (0.1..0.2 -> outside) ...
        assert band_coverage(step, ref) == 0.25

    def test_slope_of_exact_identity(self):
        t = np.linspace(0.1, 3.0, 20)
        step = StepFunction(t, t, initial=0.0)
        assert_allclose(na_slope(step), 1.0, rtol=1e-14)

    def test_coverage_needs_bounds(self):
        with pytest.raises(InvalidInputError):
            band_coverage(StepFunction([1.0], [0.5]), lambda t: t)

    def test_band_quantile_is_the_normal_quantile(self):
        # every confidence band scales by this constant; it must not drift
        assert Z95 == float(norm.ppf(0.975))


class TestStudy:
    def test_simulation_design(self):
        data = simulate_study(7)
        s = data.sample
        assert s.n == 1000
        assert_allclose(np.sum(s.x == 0.0), 500)
        assert_allclose(np.sum(s.x == 1.0), 500)
        assert 0.05 <= data.censored_fraction <= 0.15
        again = simulate_study(7)
        assert_allclose(s.y, again.sample.y, atol=0)
        assert_allclose(s.delta, again.sample.delta, atol=0)

    def test_group_models(self):
        g1, g2 = study_models()
        assert g1.transform.family == "weibull"
        assert g1.transform.theta == 1.5
        assert g2.transform.family == "identity"
        assert_allclose(g2.rep.T, 2.0 * np.asarray(g1.rep.T), atol=0)

    def test_true_model_diagnostics_pass(self):
        # with the generating model itself, both residual diagnostics land
        # in their target regions
        data = simulate_study(3)
        truth = PIModel(study_models()[0].rep, "weibull", [np.log(2.0)],
                        [np.log(1.5), -np.log(1.5)])
        diag = residual_diagnostics(truth, data.sample)
        assert diag["coverage"] >= 0.95
        assert 0.9 <= diag["slope"] <= 1.1

    def test_replication_rngs_are_stable_and_distinct(self):
        a = replication_rngs(5, 3)
        b = replication_rngs(5, 3)
        draws_a = [r.random() for r in a]
        draws_b = [r.random() for r in b]
        assert_allclose(draws_a, draws_b, atol=0)
        assert len(set(draws_a)) == 3
