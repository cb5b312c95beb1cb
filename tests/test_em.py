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
from scipy.linalg import expm

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
from matlife.mortality import free_parameter_count
from matlife.phasetype import PRODUCTS_COND_LIMIT, IPHModel, PHRepresentation

from helpers import (
    aggregate_by_unique,
    init_structure_by_draws,
    mc_conditional_stats,
    mp_e_step,
    random_representation,
    rotating_representation,
    stacked_route_sweep,
    unfolded_divided_differences,
    without_spectrum,
)


def quad_conditional_stats(rep, z, observed):
    """Per-entry quadrature oracle for the single-observation E-step."""
    p = rep.p
    vec = rep.exit_rates if observed else np.ones(p)
    ez = expm(rep.T * z)
    denom = rep.pi @ ez @ vec
    b = rep.pi * (ez @ vec) / denom
    front = lambda u: rep.pi @ expm(rep.T * u)
    back = lambda u: expm(rep.T * (z - u)) @ vec
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

    @pytest.mark.parametrize("column", ["z", "delta", "weight"])
    def test_complex_columns_refused_before_a_cast(self, column):
        # a cast to real would warn, and the suite turns a warning into a failure
        columns = {"z": [1.0, 2.0], "delta": [1, 0], "weight": [1.0, 1.0]}
        columns[column] = np.asarray(columns[column]) + 0j
        with pytest.raises(InvalidInputError, match="must be real"):
            CensoredSample(**columns)

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


#: copy of a representation whose E-step takes the Van Loan route
stacked_twin = without_spectrum


#: runs a test on the representation it builds and on its Van Loan twin
ON_BOTH_ROUTES = pytest.mark.parametrize("route", [lambda rep: rep, stacked_twin],
                                         ids=["spectral", "van_loan"])


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


def assert_eigen_sums_match_unfolded(rep, data):
    """The spectral E-step's sums over each group of ``data``, as
    :func:`em.e_step` forms them, match the unfolded sums over every
    eigenvalue: denominators, ``se`` and the divided-difference sums."""
    spectrum = rep._spectrum
    agg = data.aggregate()
    z, w, groups = em._by_group(spectrum, agg, rep.exit_rates)
    sums = em._eigen_sums(spectrum, z, w, groups, agg)
    e = np.exp(np.multiply.outer(z, spectrum.eigvals))
    for group, se, dd in zip(groups, sums.se, sums.dd):
        rows = group.rows
        denom = sums.denom[rows]
        assert_allclose(denom, (e[rows] @ (spectrum.start * group.c)).real,
                        rtol=1e-13, atol=0)
        scale = w[rows] / denom
        want_se = scale @ e[rows]
        want = unfolded_divided_differences(spectrum.eigvals, z[rows], scale)
        assert_allclose(se, want_se, rtol=1e-13, atol=1e-13 * np.abs(want_se).max())
        assert_allclose(dd, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())
    return sums, z, e, groups


#: a sample with ties, both groups and unequal weights
ROUTE_SAMPLE = CensoredSample(
    np.r_[np.linspace(0.05, 30.0, 40), [0.05, 2.0, 2.0, 7.5]],
    np.r_[np.tile([1, 0], 20), [1, 1, 0, 1]],
    np.linspace(0.5, 2.0, 44))


class TestSpectralEStep:
    """The closed-form eigenbasis E-step against the Van Loan route.

    Over these cases the routes differed by at most 1.4e-10 normwise (a
    10-state Coxian chain with cond(V) 9.8e5), 7 times inside the tolerance.
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
        assert rep._spectrum.pairs.size
        assert_eigen_sums_match_unfolded(rep, ROUTE_SAMPLE)

    @pytest.mark.parametrize("kind", ["general", "coxian"])
    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_real_spectra_fold_to_the_unfolded_sums_bitwise(self, p, kind):
        # with no conjugate pair the sums run in real arithmetic, and the
        # denominators are the unfolded products' bits
        checked = 0
        for seed in range(6):
            rep = random_representation(np.random.default_rng(seed), p, kind)
            if rep._spectrum.pairs.size:
                continue
            sums, z, e, groups = assert_eigen_sums_match_unfolded(rep, ROUTE_SAMPLE)
            assert not np.iscomplexobj(sums.se) and not np.iscomplexobj(sums.dd)
            for group in groups:
                coef = rep._spectrum.start * group.c
                assert np.array_equal(sums.denom[group.rows],
                                      np.maximum(e @ coef, 0.0)[group.rows])
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

    def test_near_repeated_complex_pairs_sum_by_row(self):
        # two rotations whose rates differ by 1e-4: the sums between their
        # pairs cancel, and those of the second members are the conjugates
        cycle = np.roll(np.eye(3), 1, axis=1)
        t = np.zeros((6, 6))
        t[:3, :3], t[3:, 3:] = 0.8 * cycle, (0.8 + 1e-4) * cycle
        np.fill_diagonal(t, -(t.sum(axis=1) + np.repeat([0.3, 0.3 + 1e-4], 3)))
        rep = PHRepresentation(np.full(6, 1 / 6), t)
        first, second = rep._spectrum.pairs
        sums = assert_eigen_sums_match_unfolded(rep, ROUTE_SAMPLE)[0]
        assert sums.by_row[first, second] and sums.by_row[first + 1, second + 1]
        assert_routes_agree(rep, ROUTE_SAMPLE)

    def test_near_repeated_pairs_sum_conjugate_couples(self):
        # the two rotations of the test above: each entry summed row by row
        # between members of the two pairs has its conjugate at the entry of
        # the other members, bit for bit
        cycle = np.roll(np.eye(3), 1, axis=1)
        t = np.zeros((6, 6))
        t[:3, :3], t[3:, 3:] = 0.8 * cycle, (0.8 + 1e-4) * cycle
        np.fill_diagonal(t, -(t.sum(axis=1) + np.repeat([0.3, 0.3 + 1e-4], 3)))
        rep = PHRepresentation(np.full(6, 1 / 6), t)
        first, second = rep._spectrum.pairs
        partner = {first: first + 1, first + 1: first,
                   second: second + 1, second + 1: second}
        sums = assert_eigen_sums_match_unfolded(rep, ROUTE_SAMPLE)[0]
        couples = [(i, j) for i, j in zip(*np.nonzero(sums.by_row))
                   if i in partner and j in partner]
        assert couples
        for i, j in couples:
            assert sums.by_row[partner[i], partner[j]]
            assert np.array_equal(sums.dd[:, partner[i], partner[j]],
                                  sums.dd[:, i, j].conj())

    def test_nearly_real_pair_keeps_its_quotient(self):
        # a 3-state cycle of rate 2e-9/sqrt(3) has a pair 1e-9 off the real
        # axis: the difference of the pair's sums is tiny against their size,
        # yet its quotient Im(se) / Im(lam) is exact, so it is not summed by row
        b = 2e-9 / np.sqrt(3)
        t = b * np.roll(np.eye(3), 1, axis=1) - (b + 0.7) * np.eye(3)
        rep = PHRepresentation([0.5, 0.3, 0.2], t)
        (k,) = rep._spectrum.pairs
        lam = rep._spectrum.eigvals
        assert 0.99e-9 < lam[k].imag < 1.01e-9
        sums, z, e, groups = assert_eigen_sums_match_unfolded(rep, ROUTE_SAMPLE)
        assert not sums.by_row[k, k + 1] and not sums.by_row[k + 1, k]
        w = em._by_group(rep._spectrum, ROUTE_SAMPLE.aggregate(), rep.exit_rates)[1]
        for group, dd in zip(groups, sums.dd):
            rows = group.rows
            want = unfolded_divided_differences(lam, z[rows], w[rows] / sums.denom[rows])
            assert_allclose(dd[k, k + 1], want[k, k + 1], rtol=1e-13, atol=0)
            assert_allclose(dd[k + 1, k], want[k + 1, k], rtol=1e-13, atol=0)

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

    @ON_BOTH_ROUTES
    def test_zero_denominator_raises_at_original_index(self, route):
        rep = PHRepresentation([0.5, 0.5], np.diag([-1.0, -2.0]))
        assert rep._spectrum is not None
        data = CensoredSample([1.5, 0.5, 900.0, 2.0], [1, 0, 1, 0],
                              [1.0, 1.0, 1.0, 1.0])
        with pytest.raises(DegenerateObservationError) as info:
            e_step(route(rep), data)
        assert info.value.index == 2

    @ON_BOTH_ROUTES
    def test_zero_density_raises_at_the_row_with_that_status(self, route):
        # row 0 is censored, with survival 1; row 2 has the same z, the
        # smallest positive double, at which the jump rate times z underflows,
        # so on either route its density 0.2 (exp(-0.1 z) - exp(-2 z)) / 1.9
        # is zero
        rep = PHRepresentation([1.0, 0.0], [[-0.1, 0.1], [0.0, -2.0]])
        assert rep._spectrum is not None
        tiny = np.nextafter(0.0, 1.0)
        data = CensoredSample([tiny, 0.5, tiny], [0, 1, 1], [1.0, 1.0, 1.0])
        with pytest.raises(DegenerateObservationError) as info:
            e_step(route(rep), data)
        assert info.value.index == 2

    @ON_BOTH_ROUTES
    @pytest.mark.parametrize("z,delta,index", [
        ([900.0, 900.0], [0, 1], 0),
        ([1.5, 900.0, 0.5, 900.0], [1, 0, 0, 1], 1),
    ])
    def test_first_zero_likelihood_row_raises_whatever_its_status(
            self, route, z, delta, index):
        # both statuses of z = 900 have zero likelihood; the first such row
        # of the data is named, observed or censored
        rep = PHRepresentation([0.5, 0.5], np.diag([-1.0, -2.0]))
        assert rep._spectrum is not None
        with pytest.raises(DegenerateObservationError) as info:
            e_step(route(rep), CensoredSample(z, delta, np.ones(len(z))))
        assert info.value.index == index

    @ON_BOTH_ROUTES
    @pytest.mark.parametrize("pi,t,z,index", [
        # density e^-725 (1 - e^-725) / 2: subnormal, with a finite log
        ([0.5, 0.5], [[-2.0, 1.0], [0.0, -1.0]], [1.0, 725.0], 1),
        # density about 2e-323 at the smallest z: subnormal on the Van
        # Loan route, rounded to zero on the spectral one
        ([1.0, 0.0], [[-1.0, 1.0], [0.0, -2.0]], [1e-323, 0.5], 0),
    ])
    def test_subnormal_factor_raises_instead_of_nan_statistics(
            self, route, pi, t, z, index):
        # weight over factor overflows, which made the statistics NaN
        data = CensoredSample(z, [1, 1], [1.0, 1.0])
        rep = route(PHRepresentation(pi, t))
        with pytest.raises(DegenerateObservationError) as info:
            e_step(rep, data)
        assert info.value.index == index
        with pytest.raises(DegenerateObservationError):
            fit_ph(data, StructureSpec("general", 2), EMConfig(max_iterations=2),
                   init=rep)


#: a sample small enough for the 50-digit oracle: both groups, a time tied
#: within a group and one tied across them, unequal weights
ORACLE_SAMPLE = CensoredSample([0.05, 0.4, 0.4, 1.3, 2.0, 3.7, 6.0, 11.0, 11.0],
                               [1, 0, 1, 1, 0, 1, 0, 1, 0], np.linspace(0.5, 2.0, 9))


def oracle_error(rep):
    """Largest relative error of the E-step against the 50-digit oracle,
    normwise per statistic and of the log-likelihood."""
    got, want = e_step(rep, ORACLE_SAMPLE), mp_e_step(rep, ORACLE_SAMPLE)
    errors = [np.linalg.norm(g - w) / np.linalg.norm(w)
              for g, w in zip(got[:4], want[:4])]
    return max(errors + [abs(got.loglik - want.loglik) / abs(want.loglik)])


class TestEStepOracle:
    """The E-step of either route against :func:`helpers.mp_e_step`."""

    def test_complex_pair(self):
        t = np.array([[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.5, 0.0, -2.0]])
        rep = PHRepresentation([0.5, 0.3, 0.2], t)
        assert rep._spectrum.pairs.size == 1
        assert oracle_error(rep) < 1e-12

    def test_well_separated_real_rates(self):
        t = np.array([[-1.0, 0.5, 0.1], [0.0, -3.0, 1.0], [0.2, 0.0, -7.0]])
        rep = PHRepresentation([0.3, 0.3, 0.4], t)
        lam = np.sort(rep._spectrum.eigvals)
        assert not np.iscomplexobj(lam) and np.diff(lam).min() > 1.0
        assert oracle_error(rep) < 1e-12

    # ``before``: the error, rounded up, when every divided difference was
    # summed row by row; the rounding amplified by cond(V) dominates it
    @pytest.mark.parametrize("gap,before", [(1e-2, 9.3e-13), (10 ** -2.5, 1.2e-11),
                                            (1e-3, 6.0e-11)])
    def test_near_equal_rates_sum_by_row(self, gap, before):
        rep = near_equal_chain(gap)
        assert rep._spectrum is not None
        agg = ORACLE_SAMPLE.aggregate()
        z, w, groups = em._by_group(rep._spectrum, agg, rep.exit_rates)
        assert em._eigen_sums(rep._spectrum, z, w, groups, agg).by_row.any()
        assert oracle_error(rep) <= before

    def test_van_loan_route_against_mpmath(self):
        # both groups, times from 1e-4 to 200, on near-equal, equal and
        # general rates; the Van Loan blocks of a representation without
        # eigen-factors have nonnegative off-diagonal entries, so no digit
        # cancels
        sample = CensoredSample([1e-4, 1e-2, 0.5, 0.5, 5.0, 30.0, 200.0],
                                [1, 0, 1, 0, 1, 0, 1], np.linspace(0.5, 2.0, 7))
        for rep in stacked_route_sweep(4):
            got, want = e_step(rep, sample), mp_e_step(rep, sample)
            for g, w in zip(got[:4], want[:4]):
                assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)
            assert abs(got.loglik - want.loglik) <= 1e-13 * abs(want.loglik)

    def test_van_loan_route_mixes_far_apart_times(self):
        # z = 0.5 beside 1e4 and 1e8 in one stack of Van Loan blocks, each
        # scaled by its own power of two: the statistics are the sums of the
        # rows' one-row calls and stay within the bound of the sweep above
        t = [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, -1e-7]]
        rep = PHRepresentation([0.6, 0.3, 0.1], t)
        assert rep._spectrum is None
        z, delta, w = [0.5, 1e4, 1e8], [1, 0, 1], [1.0, 2.0, 0.5]
        mixed = e_step(rep, CensoredSample(z, delta, w))
        rows = [e_step(rep, CensoredSample([r], [d], [v])) for r, d, v in zip(z, delta, w)]
        for k in range(5):
            assert_allclose(mixed[k], sum(row[k] for row in rows), rtol=1e-14, atol=0)
        for g, want in zip(mixed[:4], mp_e_step(rep, CensoredSample(z, delta, w))[:4]):
            assert np.linalg.norm(g - want) <= 1e-13 * np.linalg.norm(want)

    def test_oracle_size_is_bounded(self):
        with pytest.raises(ValueError):
            mp_e_step(random_representation(np.random.default_rng(0), 5),
                      ORACLE_SAMPLE)


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


    def test_dead_middle_state(self):
        stats = SufficientStats(
            b=np.array([2.0, 0.0, 2.0]),
            v=np.array([2.0, 0.0, 1.0]),
            njump=np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
            nabs=np.array([1.0, 0.0, 3.0]),
        )
        spec = StructureSpec("general", 3)
        with pytest.raises(DeadStateError) as info:
            m_step(stats, 4.0, spec)
        assert info.value.state == 1
        prev = PHRepresentation([0.2, 0.3, 0.5], [[-2.0, 1.0, 0.5], [0.4, -1.0, 0.1],
                                                  [0.0, 0.3, -0.9]])
        rep = m_step(stats, 4.0, spec, previous=prev)
        assert np.array_equal(rep.T[1], prev.T[1])
        assert_allclose(rep.T[[0, 2]], [[-1.0, 0.0, 0.5], [0.5, 0.0, -3.5]])
        with pytest.raises(DeadStateError) as info:
            m_step(stats._replace(v=np.array([2.0, 0.0, 0.0])), 4.0, spec)
        assert info.value.state == 1

    def test_rows_are_the_per_state_formula(self):
        # bit for bit: rates njump[k] / v[k], the diagonal from their sum
        # without the own entry plus the exit rate nabs[k] / v[k]
        rng = np.random.default_rng(5)
        p = 6
        njump = rng.uniform(0.0, 3.0, (p, p))
        np.fill_diagonal(njump, 0.0)
        stats = SufficientStats(rng.uniform(0.1, 1.0, p), rng.uniform(0.5, 4.0, p),
                                njump, rng.uniform(0.1, 2.0, p))
        rep = m_step(stats, 3.0, StructureSpec("general", p))
        for k in range(p):
            rates = stats.njump[k] / stats.v[k]
            want = rates.copy()
            want[k] = -(rates.sum() - rates[k] + stats.nabs[k] / stats.v[k])
            assert np.array_equal(rep.T[k], want)


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

    @pytest.mark.parametrize("p", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("kind", StructureSpec.KINDS)
    def test_bitwise_equal_to_the_draw_by_draw_start(self, kind, p):
        spec = StructureSpec(kind, p)
        for seed in range(10):
            got, want = init_structure(spec, seed), init_structure_by_draws(spec, seed)
            assert got.pi.tobytes() == want.pi.tobytes()
            assert got.T.tobytes() == want.T.tobytes()

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("kind", StructureSpec.KINDS)
    def test_fitted_count_equals_structure_count(self, kind, p):
        spec = StructureSpec(kind, p)
        model = IPHModel(init_structure(spec, rng=np.random.default_rng(p)))
        assert free_parameter_count(model) == n_free_parameters(spec)


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

    #: an exponential sample and a start with a backward rate and two
    #: start weights
    OFF_STRUCTURE = (CensoredSample(np.random.default_rng(0).exponential(1.0, 200),
                                    np.ones(200, int), np.ones(200)),
                     PHRepresentation([0.5, 0.5], [[-2.0, 1.0], [0.5, -1.5]]))

    @pytest.mark.parametrize("kind", ["coxian", "generalized_coxian"])
    def test_init_outside_the_structure_is_refused(self, kind):
        data, init = self.OFF_STRUCTURE
        with pytest.raises(InvalidInputError, match=kind):
            fit_ph(data, StructureSpec(kind, 2), EMConfig(max_iterations=20), init=init)

    def test_init_inside_a_wider_structure_fits(self):
        data = self.OFF_STRUCTURE[0]
        init = PHRepresentation([1.0, 0.0], [[-2.0, 1.0], [0.0, -1.5]])
        res = fit_ph(data, StructureSpec("general", 2), EMConfig(max_iterations=20),
                     init=init)
        assert res.iterations > 0

    def test_negative_iteration_budget_rejected(self):
        with pytest.raises(InvalidInputError, match="max_iterations"):
            fit_ph(CensoredSample([1.0], [1], [1.0]), StructureSpec("general", 1),
                   EMConfig(max_iterations=-3), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        with pytest.raises(InvalidInputError, match="tol"):
            fit_ph(CensoredSample([1.0], [1], [1.0]), StructureSpec("general", 1),
                   EMConfig(max_iterations=0, tol=tol), rng=np.random.default_rng(0))

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
