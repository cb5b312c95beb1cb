"""Tests for EM estimation: the expectation step against quadrature and
conditioned-simulation oracles, the closed-form maximization step, and the
full fitting loop."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

import matlife.em as em
from matlife.em import (
    CensoredSample,
    EMConfig,
    StructureSpec,
    SufficientStats,
    e_step,
    fit_ph,
    init_structure,
    loglik,
    m_step,
    n_free_parameters,
)
from matlife.exceptions import (
    DeadStateError,
    DegenerateObservationError,
    InvalidInputError,
)
from matlife.linalg import PRODUCTS_COND_LIMIT, mexp
from matlife.phasetype import IPHModel, PHRepresentation

from helpers import (
    aggregate_by_unique,
    mc_conditional_stats,
    random_representation,
    rotating_representation,
    unfolded_divided_differences,
)


def quad_conditional_stats(rep, z, observed):
    """Per-entry quadrature oracle for the single-observation E-step."""
    p = rep.p
    vec = rep.exit_rates if observed else np.ones(p)
    ez = mexp(rep.T * z)
    denom = rep.pi @ ez @ vec
    b = rep.pi * (ez @ vec) / denom
    front = lambda u: rep.pi @ mexp(rep.T * u)
    back = lambda u: mexp(rep.T * (z - u)) @ vec
    v = np.empty(p)
    njump = np.zeros((p, p))
    for k in range(p):
        v[k] = quad(lambda u: front(u)[k] * back(u)[k], 0.0, z, limit=200)[0] / denom
        for l in range(p):
            if l == k:
                continue
            integral = quad(lambda u: front(u)[k] * back(u)[l], 0.0, z, limit=200)[0]
            njump[k, l] = rep.T[k, l] * integral / denom
    nabs = rep.exit_rates * (rep.pi @ ez) / denom if observed else np.zeros(p)
    return SufficientStats(b, v, njump, nabs)


class TestSample:
    def test_coerce_tuples(self):
        s = CensoredSample.coerce([(1.0, 1), (2.0, 0, 3.0)])
        assert s.n == 2
        assert_allclose(s.weight, [1.0, 3.0])

    @pytest.mark.parametrize("z,delta,w", [
        ([0.0], [1], [1.0]),
        ([-1.0], [1], [1.0]),
        ([np.inf], [1], [1.0]),
        ([1.0], [2], [1.0]),
        ([1.0], [1], [0.0]),
        ([1.0], [1], [-2.0]),
        ([1.0, 2.0], [1], [1.0, 1.0]),
        ([], [], []),
    ])
    def test_validation(self, z, delta, w):
        with pytest.raises(InvalidInputError):
            CensoredSample(z, delta, w)

    def test_aggregate_merges_ties(self):
        s = CensoredSample([2.0, 1.0, 2.0, 2.0], [1, 0, 1, 0], [1.0, 2.0, 3.0, 4.0])
        agg = s.aggregate()
        assert agg.n == 3
        assert_allclose(agg.z, [1.0, 2.0, 2.0])
        assert_allclose(agg.delta, [0, 0, 1])
        assert_allclose(agg.weight, [2.0, 4.0, 4.0])
        assert_allclose(agg.total_weight, s.total_weight)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_aggregated_sample_is_returned_as_is(self, data):
        n = data.draw(st.integers(1, 30))
        z = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.25, 3.0]),
                               min_size=n, max_size=n))
        delta = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        w = data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
        agg = CensoredSample(z, delta, w).aggregate()
        assert agg.aggregate() is agg
        # merging the same rows in reverse order gives the identical arrays
        merged = CensoredSample(agg.z[::-1], agg.delta[::-1],
                                agg.weight[::-1]).aggregate()
        for name in ("z", "delta", "weight"):
            got, want = getattr(merged, name), getattr(agg, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name

    @given(data=st.data())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_aggregate_matches_unique_oracle(self, data):
        # ties in both censoring groups, in any input order
        n = data.draw(st.integers(1, 40))
        z = data.draw(st.lists(st.sampled_from([0.5, 1.0, 1.5, 2.25, 3.0, 1e-3]),
                               min_size=n, max_size=n))
        delta = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        w = data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n))
        s = CensoredSample(z, delta, w)
        agg = s.aggregate()
        for name, want in zip(("z", "delta", "weight"), aggregate_by_unique(s)):
            got = getattr(agg, name)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("z,delta", [
        ([1.0, 1.0], [1, 0]),
        ([1.0, 1.0], [1, 1]),
        ([2.0, 1.0], [0, 0]),
    ])
    def test_unordered_or_tied_rows_are_merged(self, z, delta):
        s = CensoredSample(z, delta, [1.0, 2.0])
        agg = s.aggregate()
        assert agg is not s
        assert np.all(np.diff(agg.z) >= 0)


class TestEStep:
    def test_single_state_observed(self):
        rep = PHRepresentation([1.0], [[-1.7]])
        stats = e_step(rep, CensoredSample([2.3], [1], [1.0]))
        assert_allclose(stats.b, [1.0], rtol=1e-12)
        assert_allclose(stats.v, [2.3], rtol=1e-12)
        assert_allclose(stats.nabs, [1.0], rtol=1e-12)
        assert_allclose(stats.njump, [[0.0]])

    def test_single_state_censored(self):
        # alive at z means the full interval was spent in the only state
        rep = PHRepresentation([1.0], [[-0.4]])
        stats = e_step(rep, CensoredSample([5.0], [0], [1.0]))
        assert_allclose(stats.b, [1.0], rtol=1e-12)
        assert_allclose(stats.v, [5.0], rtol=1e-12)
        assert_allclose(stats.nabs, [0.0])

    @pytest.mark.parametrize("observed", [True, False])
    @pytest.mark.parametrize("seed,z", [(0, 0.7), (1, 2.1)])
    def test_matches_quadrature(self, observed, seed, z):
        rng = np.random.default_rng(seed)
        rep = random_representation(rng, 3)
        got = e_step(rep, CensoredSample([z], [1 if observed else 0], [1.0]))
        want = quad_conditional_stats(rep, z, observed)
        assert_allclose(got.b, want.b, rtol=1e-9, atol=1e-12)
        assert_allclose(got.v, want.v, rtol=1e-9, atol=1e-12)
        assert_allclose(got.njump, want.njump, rtol=1e-9, atol=1e-12)
        assert_allclose(got.nabs, want.nabs, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("observed", [True, False])
    def test_matches_conditioned_simulation(self, observed):
        rng = np.random.default_rng(42)
        rep = PHRepresentation([0.6, 0.4], [[-2.0, 1.2], [0.3, -0.9]])
        z = 1.1
        got = e_step(rep, CensoredSample([z], [1 if observed else 0], [1.0]))
        mean, se, m = mc_conditional_stats(rep, z, observed, 2_000_000, rng)
        assert m > 2000
        for name in ("b", "v", "njump", "nabs"):
            g = np.asarray(getattr(got, name))
            mu = np.asarray(getattr(mean, name))
            s = np.asarray(getattr(se, name))
            assert np.all(np.abs(g - mu) <= 3.0 * s + 1e-3), name

    def test_weights_scale_linearly(self):
        rng = np.random.default_rng(3)
        rep = random_representation(rng, 3)
        base = e_step(rep, CensoredSample([0.8], [1], [1.0]))
        scaled = e_step(rep, CensoredSample([0.8], [1], [2.5]))
        for a, b in zip(scaled, base):
            assert_allclose(a, 2.5 * np.asarray(b), rtol=1e-12)

    def test_tie_aggregation_equivalence(self):
        rng = np.random.default_rng(7)
        rep = random_representation(rng, 3)
        tied = CensoredSample([0.5, 0.5, 1.2, 0.5], [1, 1, 0, 0],
                              [1.0, 2.0, 1.5, 0.5])
        merged = tied.aggregate()
        a = e_step(rep, tied)
        b = e_step(rep, merged)
        for x, y in zip(a, b):
            assert_allclose(x, y, rtol=1e-12)

    def test_initiations_sum_to_total_weight(self):
        rng = np.random.default_rng(9)
        rep = random_representation(rng, 4)
        data = CensoredSample(rng.uniform(0.1, 3.0, 30),
                              rng.integers(0, 2, 30), rng.uniform(0.5, 2.0, 30))
        stats = e_step(rep, data)
        assert_allclose(stats.b.sum(), data.total_weight, rtol=1e-10)
        # absorptions account for exactly the observed deaths
        assert_allclose(stats.nabs.sum(), data.weight[data.delta == 1].sum(),
                        rtol=1e-10)

    def test_degenerate_observation_raises(self):
        # start mass only in a state that cannot reach absorption by itself
        rep = PHRepresentation([1.0, 0.0], [[-1.0, 1.0], [0.0, -1.0]])
        probe = IPHModel(rep)
        huge = 800.0
        with pytest.raises(DegenerateObservationError):
            e_step(rep, CensoredSample([huge], [1], [1.0]))


def stacked_twin(rep):
    """Copy of ``rep`` whose E-step takes the Van Loan route."""
    twin = PHRepresentation(rep.pi, rep.T)
    twin.__dict__["_spectrum"] = None  # fills the cached eigen-factors
    return twin


def assert_routes_agree(rep, data, rtol=1e-9):
    """The spectral E-step matches the Van Loan one normwise, per statistic."""
    assert rep._spectrum is not None
    got = e_step(rep, data)
    want = e_step(stacked_twin(rep), data)
    for name, g, w in zip(SufficientStats._fields, got, want):
        assert np.linalg.norm(g - w) <= rtol * np.linalg.norm(w), name


def near_equal_chain(gap):
    t = np.array([[-1.0, 0.7, 0.0],
                  [0.0, -(1.0 + gap), 0.5],
                  [0.0, 0.0, -(1.0 + 2.0 * gap)]])
    return PHRepresentation([1.0, 0.0, 0.0], t)


#: a sample with ties, both groups and unequal weights
ROUTE_SAMPLE = CensoredSample(
    np.r_[np.linspace(0.05, 30.0, 40), [0.05, 2.0, 2.0, 7.5]],
    np.r_[np.tile([1, 0], 20), [1, 1, 0, 1]],
    np.linspace(0.5, 2.0, 44))


class TestSpectralEStep:
    """The closed-form eigenbasis E-step against the Van Loan route.

    Over these cases the routes differed by at most 7.3e-11 normwise (a
    10-state Coxian chain with cond(V) 9.2e5), 13 times inside the tolerance.
    """

    @pytest.mark.parametrize("p", [1, 2, 5, 10])
    @pytest.mark.parametrize("kind", ["general", "coxian"])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_matches_van_loan(self, p, kind, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        n = data.draw(st.integers(1, 40))
        rng = np.random.default_rng(seed)
        rep = random_representation(rng, p, kind)
        # times on a coarse grid so that rows tie
        z = np.round(rng.exponential(2.0, n), 1) + 0.1
        delta = rng.integers(0, 2, n)
        w = rng.uniform(0.2, 3.0, n)
        # hypothesis mixes literals from the package source into its draws,
        # so an edit anywhere in matlife can change the seeds drawn here; a
        # seed whose chain is too ill-conditioned for the spectral route has
        # nothing to compare (the near-equal chain tests cover the fallback)
        assume(rep._spectrum is not None)
        assert_routes_agree(rep, CensoredSample(z, delta, w))

    def test_complex_eigenvalue_pair(self):
        t = np.array([[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.5, 0.0, -2.0]])
        rep = PHRepresentation([0.5, 0.3, 0.2], t)
        assert np.iscomplexobj(rep._spectrum.eigvals)
        assert_routes_agree(rep, ROUTE_SAMPLE)

    @pytest.mark.parametrize("p,pairs", [(3, 1), (4, 1), (5, 1), (8, 1),
                                         (6, 2), (7, 2), (8, 2)])
    def test_folded_pairs_match_van_loan(self, p, pairs):
        for seed in range(2):
            rep = rotating_representation(p, pairs, seed)
            assert rep._spectrum.pairs.size == pairs
            assert_routes_agree(rep, ROUTE_SAMPLE)

    @pytest.mark.parametrize("rep", [
        rotating_representation(3, 1), rotating_representation(5, 1, seed=1),
        rotating_representation(6, 2), rotating_representation(8, 2, seed=1),
        random_representation(np.random.default_rng(2), 6),
        random_representation(np.random.default_rng(3), 6),
    ])
    def test_folded_sums_match_unfolded(self, rep):
        spectrum = rep._spectrum
        assert spectrum.pairs.size
        z, w = ROUTE_SAMPLE.z, ROUTE_SAMPLE.weight
        for coef in (spectrum.exit_coef, spectrum.ones_coef):
            denom, se, dd = em._folded_sums(spectrum, coef, z, w, ROUTE_SAMPLE)
            e = np.exp(np.multiply.outer(z, spectrum.eigvals))
            assert_allclose(denom, (e @ coef).real, rtol=1e-13, atol=0)
            scale = w / denom
            want = unfolded_divided_differences(spectrum.eigvals, z, scale)
            assert_allclose(se, scale @ e, rtol=1e-13,
                            atol=1e-13 * np.abs(scale @ e).max())
            assert_allclose(dd, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("kind", ["general", "coxian"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_real_spectra_fold_to_the_unfolded_sums_bitwise(self, p, kind):
        # with no conjugate pair the folded sums run in real arithmetic and
        # divide by each gap after the dot product, as the reference does
        z, w = ROUTE_SAMPLE.z, ROUTE_SAMPLE.weight
        checked = 0
        for seed in range(6):
            spectrum = random_representation(np.random.default_rng(seed), p,
                                             kind)._spectrum
            if spectrum.pairs.size:
                continue
            e = np.exp(np.multiply.outer(z, spectrum.eigvals))
            for coef in (spectrum.exit_coef, spectrum.ones_coef):
                denom, se, dd = em._folded_sums(spectrum, coef, z, w, ROUTE_SAMPLE)
                scale = w / denom
                assert not np.iscomplexobj(se) and not np.iscomplexobj(dd)
                assert np.array_equal(denom, np.maximum(e @ coef, 0.0))
                assert np.array_equal(se, scale @ e)
                assert np.array_equal(
                    dd, unfolded_divided_differences(spectrum.eigvals, z, scale))
            checked += 1
        assert checked

    def test_exactly_repeated_complex_pairs(self):
        # two identical rotations: each pair's eigenvalue repeats exactly
        cycle = 0.8 * np.roll(np.eye(3), 1, axis=1) - 1.2 * np.eye(3)
        t = np.block([[cycle, np.zeros((3, 3))], [np.zeros((3, 3)), cycle]])
        rep = PHRepresentation(np.full(6, 1 / 6), t)
        lam = rep._spectrum.eigvals
        assert rep._spectrum.pairs.size == 2
        assert lam[rep._spectrum.pairs[0]] == lam[rep._spectrum.pairs[1]]
        assert_routes_agree(rep, ROUTE_SAMPLE)

    def test_exactly_repeated_rates(self):
        rep = PHRepresentation([0.3, 0.3, 0.4], np.diag([-1.0, -1.0, -2.0]))
        assert np.linalg.cond(rep._spectrum.vecs) == 1.0
        assert_routes_agree(rep, ROUTE_SAMPLE)

    @pytest.mark.parametrize("gap", np.logspace(-2, -8, 13))
    def test_near_equal_coxian_rates_across_the_limit(self, gap):
        rep = near_equal_chain(gap)
        spectral = np.linalg.cond(np.linalg.eig(rep.T)[1]) < PRODUCTS_COND_LIMIT
        assert (rep._spectrum is not None) == spectral
        if spectral:
            assert_routes_agree(rep, ROUTE_SAMPLE)
        else:
            stats = e_step(rep, ROUTE_SAMPLE)
            assert_allclose(stats.b.sum(), ROUTE_SAMPLE.total_weight, rtol=1e-10)

    @pytest.mark.parametrize("gap,spectral", [(1e-2, True), (1e-4, False)])
    def test_route_on_each_side_of_the_limit(self, gap, spectral):
        assert (near_equal_chain(gap)._spectrum is not None) == spectral

    def test_peak_memory_does_not_grow_with_pair_count(self):
        # the divided differences over all p(p+1)/2 eigenvalue pairs must not
        # be materialized per row: the peak stays a few (m, p) complex arrays
        # (about 2.4 of them; summing all pairs at once took about 17.7)
        rep = random_representation(np.random.default_rng(3), 10, "general")
        assert np.iscomplexobj(rep._spectrum.eigvals)
        m = 20000
        data = CensoredSample(np.linspace(0.01, 20.0, m), np.ones(m, int),
                              np.ones(m))
        tracemalloc.start()
        try:
            e_step(rep, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * m * rep.p * np.dtype(complex).itemsize

    def test_zero_denominator_raises_at_original_index(self):
        rep = PHRepresentation([0.5, 0.5], np.diag([-1.0, -2.0]))
        assert rep._spectrum is not None
        data = CensoredSample([1.5, 0.5, 900.0, 2.0], [1, 0, 1, 0],
                              [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateObservationError) as info:
            e_step(rep, data)
        assert info.value.index == 2


class TestMStep:
    def test_hand_computed_general(self):
        stats = SufficientStats(
            b=np.array([3.0, 1.0]),
            v=np.array([2.0, 1.0]),
            njump=np.array([[0.0, 1.0], [0.0, 0.0]]),
            nabs=np.array([1.0, 2.0]),
        )
        rep = m_step(stats, 4.0, StructureSpec("general", 2))
        assert_allclose(rep.pi, [0.75, 0.25])
        assert_allclose(rep.T, [[-1.0, 0.5], [0.0, -2.0]])
        assert_allclose(rep.exit_rates, [0.5, 2.0])

    def test_fixed_start_structure(self):
        stats = SufficientStats(
            b=np.array([3.0, 1.0]),
            v=np.array([2.0, 1.0]),
            njump=np.array([[0.0, 1.0], [0.0, 0.0]]),
            nabs=np.array([1.0, 2.0]),
        )
        rep = m_step(stats, 4.0, StructureSpec("coxian", 2))
        assert_allclose(rep.pi, [1.0, 0.0])

    def test_dead_state_without_fallback(self):
        stats = SufficientStats(
            b=np.array([4.0, 0.0]),
            v=np.array([2.0, 0.0]),
            njump=np.zeros((2, 2)),
            nabs=np.array([4.0, 0.0]),
        )
        with pytest.raises(DeadStateError):
            m_step(stats, 4.0, StructureSpec("general", 2))

    def test_dead_state_keeps_previous_row(self):
        stats = SufficientStats(
            b=np.array([4.0, 1e-30]),
            v=np.array([2.0, 0.0]),
            njump=np.zeros((2, 2)),
            nabs=np.array([4.0, 0.0]),
        )
        prev = PHRepresentation([0.5, 0.5], [[-2.0, 1.0], [0.4, -1.0]])
        rep = m_step(stats, 4.0, StructureSpec("general", 2), previous=prev)
        assert_allclose(rep.T[1], prev.T[1])
        assert_allclose(rep.T[0], [-2.0, 0.0])


class TestLoglik:
    def test_matches_pointwise_evaluation(self):
        rng = np.random.default_rng(13)
        rep = random_representation(rng, 3)
        model = IPHModel(rep)
        data = CensoredSample([0.3, 1.1, 2.0], [1, 0, 1], [1.0, 2.0, 1.5])
        want = (1.0 * np.log(model.density(0.3))
                + 2.0 * np.log(model.survival(1.1))
                + 1.5 * np.log(model.density(2.0)))
        assert_allclose(loglik(rep, data), want, rtol=1e-12)

    def test_zero_density_gives_minus_inf(self):
        rep = PHRepresentation([1.0], [[-1.0]])
        assert loglik(rep, CensoredSample([800.0], [1], [1.0])) == -np.inf

    @pytest.mark.parametrize("rep,route", [
        (random_representation(np.random.default_rng(13), 3), "real"),
        (rotating_representation(5, 1), "folded"),
        (near_equal_chain(1e-4), "van_loan"),
    ])
    def test_e_step_carries_the_loglik(self, rep, route):
        spectrum = rep._spectrum
        assert route == ("van_loan" if spectrum is None
                         else "folded" if spectrum.pairs.size else "real")
        assert_allclose(e_step(rep, ROUTE_SAMPLE).loglik, loglik(rep, ROUTE_SAMPLE),
                        rtol=1e-12, atol=0)


class TestInit:
    @pytest.mark.parametrize("kind", StructureSpec.KINDS)
    def test_structure_pattern(self, kind):
        spec = StructureSpec(kind, 4)
        rep = init_structure(spec, rng=np.random.default_rng(0))
        if spec.ordered:
            above = np.triu(rep.T, 2)
            below = np.tril(rep.T, -1)
            assert_allclose(above, 0.0)
            assert_allclose(below, 0.0)
        if not spec.free_start:
            assert_allclose(rep.pi, [1.0, 0.0, 0.0, 0.0])

    def test_deterministic_under_seed(self):
        spec = StructureSpec("general", 3)
        a = init_structure(spec, rng=np.random.default_rng(5))
        b = init_structure(spec, rng=np.random.default_rng(5))
        assert_allclose(a.T, b.T, atol=0)
        assert_allclose(a.pi, b.pi, atol=0)

    def test_parameter_counts(self):
        assert n_free_parameters(StructureSpec("general", 3)) == 11
        assert n_free_parameters(StructureSpec("coxian", 3)) == 5
        assert n_free_parameters(StructureSpec("generalized_coxian", 3)) == 7
        assert n_free_parameters(StructureSpec("coxian", 1)) == 1


class TestFit:
    @pytest.mark.parametrize("seed,p,censor", [(0, 2, False), (1, 3, True),
                                               (2, 5, True)])
    def test_trace_monotone(self, seed, p, censor):
        rng = np.random.default_rng(seed)
        true = IPHModel(random_representation(rng, 3))
        y = true.sample(300, rng=rng)
        if censor:
            c = rng.exponential(np.mean(y) * 3.0, size=y.size)
            delta = (y <= c).astype(int)
            z = np.minimum(y, c)
        else:
            z, delta = y, np.ones(y.size, dtype=int)
        data = CensoredSample(z, delta, np.ones(y.size))
        res = fit_ph(data, StructureSpec("general", p),
                     EMConfig(max_iterations=60, tol=1e-12), rng=rng)
        diffs = np.diff(res.loglik_trace)
        scale = np.abs(res.loglik_trace[-1])
        assert np.all(diffs >= -1e-9 * max(1.0, scale))

    def test_recovers_exponential_rate(self):
        rng = np.random.default_rng(11)
        y = rng.exponential(1.0 / 3.0, size=4000)
        res = fit_ph(CensoredSample(y, np.ones(y.size, dtype=int), np.ones(y.size)),
                     StructureSpec("coxian", 1), EMConfig(tol=1e-10), rng=rng)
        # single state MLE is the reciprocal mean
        assert_allclose(-res.rep.T[0, 0], 1.0 / np.mean(y), rtol=1e-6)
        assert res.converged

    def test_init_order_mismatch(self):
        rep = PHRepresentation([1.0], [[-1.0]])
        with pytest.raises(InvalidInputError):
            fit_ph(CensoredSample([1.0], [1], [1.0]), StructureSpec("general", 2),
                   init=rep)

    def test_negative_iteration_budget_rejected(self):
        with pytest.raises(InvalidInputError, match="max_iterations"):
            fit_ph(CensoredSample([1.0], [1], [1.0]), StructureSpec("general", 1),
                   EMConfig(max_iterations=-3), rng=np.random.default_rng(0))

    @staticmethod
    def censored_sample(seed, n=200):
        rng = np.random.default_rng(seed)
        y = IPHModel(rotating_representation(4, 1, seed)).sample(n, rng=rng)
        c = rng.exponential(2.0 * np.mean(y), n)
        return CensoredSample(np.minimum(y, c), (y <= c).astype(int), np.ones(n))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_trace_is_the_loglik_of_each_iterate(self, seed):
        data = self.censored_sample(seed)
        spec = StructureSpec("general", 4)
        start = rotating_representation(4, 1, seed + 10)
        res = fit_ph(data, spec, EMConfig(max_iterations=8, tol=0.0), init=start)
        iterates = [fit_ph(data, spec, EMConfig(max_iterations=k, tol=0.0),
                           init=start).rep for k in range(9)]
        assert all(rep._spectrum is not None for rep in iterates)
        assert any(rep._spectrum.pairs.size for rep in iterates)
        assert_allclose(res.loglik_trace, [loglik(rep, data) for rep in iterates],
                        rtol=1e-12, atol=0)
        assert res.loglik_trace[-1] == loglik(res.rep, data)

    @pytest.mark.parametrize("max_iterations,tol", [(0, 0.0), (6, 0.0), (500, 1e-6)])
    def test_one_loglik_pass_per_fit(self, monkeypatch, max_iterations, tol):
        data = self.censored_sample(2)
        calls = []
        original = em.loglik
        monkeypatch.setattr(em, "loglik", lambda rep, d: calls.append(rep) or original(rep, d))
        res = fit_ph(data, StructureSpec("general", 3),
                     EMConfig(max_iterations=max_iterations, tol=tol),
                     rng=np.random.default_rng(5))
        assert len(calls) == 1 and calls[0] is res.rep
        assert res.loglik_trace.size == res.iterations + 1
        assert res.loglik_trace[-1] == original(res.rep, data)
        assert res.converged == (0 < res.iterations < max_iterations)

    def test_seeded_runs_identical(self):
        rng = np.random.default_rng(4)
        y = rng.exponential(1.0, size=50)
        data = CensoredSample(y, np.ones(50, dtype=int), np.ones(50))
        a = fit_ph(data, StructureSpec("general", 2),
                   EMConfig(max_iterations=20), rng=np.random.default_rng(9))
        b = fit_ph(data, StructureSpec("general", 2),
                   EMConfig(max_iterations=20), rng=np.random.default_rng(9))
        assert_allclose(a.rep.T, b.rep.T, atol=0)
        assert_allclose(a.loglik_trace, b.loglik_trace, atol=0)
