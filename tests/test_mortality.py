import io
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matlife.exceptions import DomainError, InvalidInputError, TableParseError
from matlife.inhomogeneity import ScaledTransform, make_transform
from matlife.mortality import (
    DirectFitConfig,
    LifeTable,
    MortalityCurve,
    _aggregate_rates,
    combine_tables,
    curve_from_table,
    direct_fit,
    implied_sample,
    lee_carter_fit,
    load_table,
    log_rate_grid,
    model_log_mortality,
    select_order,
)
from matlife.phasetype import IPHModel, PHRepresentation
from matlife.regression import PIModel

from helpers import (
    aggregate_rates_by_age,
    combine_tables_by_dicts,
    load_table_by_lines,
    log_rate_grid_by_dicts,
)

DATA = pathlib.Path(__file__).parent / "data"


def table_text(rows, header="Year       Age    Female     Male      Total"):
    title = "Death rates (period 1x1), synthetic unit-test table"
    return "\n".join([title, "", header, *rows]) + "\n"


def small_table(**kwargs):
    rows = [
        "2000   0     0.005   0.006   0.0055",
        "2000   1     0.001   0.002   0.0015",
        "2001   0     0.004   0.005   0.0045",
        "2001   1     0.002   0.001   0.0015",
    ]
    return load_table(io.StringIO(table_text(rows)), **kwargs)


class TestParser:
    def test_reads_year_age_and_named_column(self):
        t = small_table()
        assert t.n == 4
        assert list(t.year) == [2000, 2000, 2001, 2001]
        assert list(t.age) == [0, 1, 0, 1]
        np.testing.assert_allclose(t.mx, [0.005, 0.001, 0.004, 0.002])
        assert np.all(np.isnan(t.deaths)) and np.all(np.isnan(t.exposure))

    def test_column_selection(self):
        t = small_table(column="Male")
        np.testing.assert_allclose(t.mx, [0.006, 0.002, 0.005, 0.001])

    def test_kind_routes_values(self):
        t = small_table(kind="deaths")
        np.testing.assert_allclose(t.deaths, [0.005, 0.001, 0.004, 0.002])
        assert np.all(np.isnan(t.mx))
        t = small_table(kind="exposures")
        np.testing.assert_allclose(t.exposure, [0.005, 0.001, 0.004, 0.002])

    def test_open_age_group_maps_to_110(self):
        rows = ["2000   110+   0.7   0.8   0.75"]
        t = load_table(io.StringIO(table_text(rows)))
        assert t.age[0] == 110

    def test_missing_value_drops_row_and_counts(self):
        rows = [
            "2000   0     .       .       .",
            "2000   1     0.001   0.002   0.0015",
        ]
        t = load_table(io.StringIO(table_text(rows)))
        assert t.n == 1 and t.dropped == 1
        assert t.age[0] == 1

    def test_missing_header_reports_line_one(self):
        with pytest.raises(TableParseError) as err:
            load_table(io.StringIO("just a title\n1 2 3\n"))
        assert err.value.line == 1

    def test_unknown_column_points_at_header(self):
        with pytest.raises(TableParseError) as err:
            load_table(io.StringIO(table_text([])), column="Unisex")
        assert err.value.line == 3

    def test_wrong_field_count_reports_data_line(self):
        rows = ["2000   0   0.005   0.006"]
        with pytest.raises(TableParseError) as err:
            load_table(io.StringIO(table_text(rows)))
        assert err.value.line == 4

    def test_bad_year_and_bad_value(self):
        with pytest.raises(TableParseError):
            load_table(io.StringIO(table_text(["abcd 0 0.1 0.1 0.1"])))
        with pytest.raises(TableParseError):
            load_table(io.StringIO(table_text(["2000 0 oops 0.1 0.1"])))

    def test_no_data_rows(self):
        with pytest.raises(TableParseError):
            load_table(io.StringIO(table_text([])))

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            small_table(kind="hazards")

    def test_blank_lines_are_skipped(self):
        rows = ["2000   0     0.005   0.006   0.0055", "",
                "2000   1     0.001   0.002   0.0015"]
        assert load_table(io.StringIO(table_text(rows))).n == 2

    def test_fixture_file_round_trip(self):
        t = load_table(DATA / "synthetic_Mx_1x1.txt")
        assert t.n == 6210 and t.dropped == 6
        assert t.years[0] == 1950 and t.years[-1] == 2005
        assert np.all(t.mx > 0)


# cells the parity test draws from; Year leaves out digit underscores and
# non-ASCII digits, which Python's int reads and numpy's does not (pinned in
# TestParserParity.test_year_tokens_numpy_refuses)
_YEARS = ["2000", "1999", "+2001", "-5", "0", "2000.0", "2000+", ".", "nan",
          "abc", "1e3", "0x10"]
_AGES = ["0", "1", "7", "109", "110+", "5+", "+3", "110++", "+", ".", "1.0",
         "x", "1_0", "٣", "-1"]
_VALUES = ["0.005", "1e-3", ".", "nan", "inf", ".5", "5.", "2", "NaN", "-nan",
           "-inf", "Infinity", "oops", "110+", "1_0.5", "٣", "0x1p-3", "1e999",
           "-0.0"]
_TITLES = ["Death rates (period 1x1)", "synthetic, not from any real population"]
_BLANKS = ["", "  ", "\t", " \t "]
_SEPARATORS = [" ", "   ", "\t", " \t ", "\xa0"]
_PADS = ["", " ", "\t"]


@st.composite
def _table_texts(draw):
    """A 1x1 table text with title, header and rows, good or bad."""
    def pick(pool):
        return draw(st.sampled_from(pool))

    def cell(pool, good):
        # mostly one of the first ``good`` entries, so that most rows parse
        return pick(pool[:good] if draw(st.integers(0, 5)) else pool)

    def join(tokens):
        return (pick(_PADS) + "".join(t + pick(_SEPARATORS) for t in tokens[:-1])
                + tokens[-1] + pick(_PADS))

    lines = draw(st.lists(st.sampled_from(_TITLES + _BLANKS), max_size=3))
    lines.append(join(["Year", "Age", "Female", "Male", "Total"]))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(pick(_BLANKS))
            continue
        cells = [cell(_YEARS, 2), cell(_AGES, 5),
                 *(cell(_VALUES, 5) for _ in range(3))]
        if draw(st.integers(0, 9)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else [*cells, "0.1"]
        lines.append(join(cells))
    newline = pick(["\n", "\r\n"])
    return newline.join(lines) + pick(["", newline])


def _assert_same_table(got, want):
    """Equal rows, value columns bitwise (NaN signs included), equal drops."""
    for field in ("year", "age", "deaths", "exposure", "mx"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.dropped == want.dropped


def _outcome(load, text, **kwargs):
    try:
        return load(io.StringIO(text), **kwargs)
    except TableParseError as err:
        return err.line


class TestParserParity:
    """The columnar ``load_table`` against the line-by-line reference."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_table_texts(), st.sampled_from(["Female", "Male", "Total", "Year", "Age"]),
           st.sampled_from(["rates", "deaths", "exposures"]))
    def test_matches_line_by_line_parser(self, text, column, kind):
        got = _outcome(load_table, text, column=column, kind=kind)
        want = _outcome(load_table_by_lines, text, column=column, kind=kind)
        if isinstance(want, int):
            assert got == want
            return
        assert isinstance(got, LifeTable)
        _assert_same_table(got, want)

    @pytest.mark.parametrize("name", ["Mx", "Deaths", "Exposures"])
    def test_fixtures_load_bitwise(self, name):
        kind = {"Mx": "rates", "Deaths": "deaths", "Exposures": "exposures"}[name]
        path = DATA / f"synthetic_{name}_1x1.txt"
        for column in ("Female", "Male", "Total"):
            _assert_same_table(load_table(path, kind=kind, column=column),
                               load_table_by_lines(path, kind=kind, column=column))

    def test_field_count_error_names_the_counts(self):
        rows = ["2000 0 0.1 0.1 0.1", "", "2000 1 0.2 0.2"]
        with pytest.raises(TableParseError, match="expected 5 fields, got 4") as err:
            load_table(io.StringIO(table_text(rows)))
        assert err.value.line == 6

    @pytest.mark.parametrize("year", ["2_000", "٢٠٠٠", "２０００"])
    def test_year_tokens_numpy_refuses(self, year):
        # Python's int reads these; the one numpy reader refuses them at
        # their line, as read_survival_csv does
        text = table_text(["2000 0 0.1 0.1 0.1", f"{year} 1 0.2 0.2 0.2"])
        assert load_table_by_lines(io.StringIO(text)).n == 2
        with pytest.raises(TableParseError) as err:
            load_table(io.StringIO(text))
        assert err.value.line == 5


class TestLifeTable:
    def test_ragged_columns_rejected(self):
        with pytest.raises(InvalidInputError):
            LifeTable([2000], [0, 1], [1.0, 2.0], [10.0, 10.0], [0.1, 0.2])

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            LifeTable([], [], [], [], [])

    def test_inconsistent_rates_rejected(self):
        with pytest.raises(InvalidInputError):
            LifeTable([2000], [0], [5.0], [10.0], [0.7])

    def test_select_year_range(self):
        t = small_table()
        sub = t.select(2001, 2001)
        assert sub.n == 2 and set(sub.year) == {2001}
        with pytest.raises(InvalidInputError):
            t.select(1990, 1995)


class TestCombine:
    def test_rates_are_deaths_over_exposure(self):
        d = LifeTable([2000, 2000], [0, 1], [5.0, 2.0],
                      [np.nan, np.nan], [np.nan, np.nan])
        e = LifeTable([2000, 2000], [0, 1], [np.nan, np.nan],
                      [100.0, 50.0], [np.nan, np.nan])
        c = combine_tables(d, e)
        np.testing.assert_allclose(c.mx, [0.05, 0.04])
        assert c.dropped == 0

    def test_unmatched_keys_are_dropped_and_counted(self):
        d = LifeTable([2000, 2000], [0, 1], [5.0, 2.0],
                      [np.nan] * 2, [np.nan] * 2)
        e = LifeTable([2000, 2001], [0, 0], [np.nan] * 2,
                      [100.0, 80.0], [np.nan] * 2)
        c = combine_tables(d, e)
        assert c.n == 1 and c.dropped == 2
        assert c.year[0] == 2000 and c.age[0] == 0

    def test_zero_exposure_dropped(self):
        d = LifeTable([2000, 2000], [0, 1], [5.0, 2.0],
                      [np.nan] * 2, [np.nan] * 2)
        e = LifeTable([2000, 2000], [0, 1], [np.nan] * 2,
                      [100.0, 0.0], [np.nan] * 2)
        c = combine_tables(d, e)
        assert c.n == 1 and c.dropped == 1

    def test_requires_counts_on_each_side(self):
        d = LifeTable([2000], [0], [5.0], [np.nan], [np.nan])
        with pytest.raises(InvalidInputError):
            combine_tables(d, d)

    def test_fixture_combination_matches_published_rates(self):
        # the rates file carries D/E rounded to 8 decimals
        deaths = load_table(DATA / "synthetic_Deaths_1x1.txt", kind="deaths")
        expo = load_table(DATA / "synthetic_Exposures_1x1.txt", kind="exposures")
        c = combine_tables(deaths, expo)
        mx = load_table(DATA / "synthetic_Mx_1x1.txt")
        direct = {(y, a): v for y, a, v in zip(mx.year, mx.age, mx.mx)}
        worst = max(abs(direct[(y, a)] - v)
                    for y, a, v in zip(c.year, c.age, c.mx))
        assert worst < 1e-8
        assert c.n == 6210 and c.dropped == 12


_CELLS = [np.nan, np.inf, -1.0, -0.0, 0.0, 1e-3, 0.5, 2.0, 40.0]


@st.composite
def _keyed_tables(draw, column):
    """A life table with ``column`` drawn and the other value columns NaN:
    few years and ages, so pairs repeat and overlap between tables."""
    n = draw(st.integers(1, 40))
    year = draw(st.lists(st.integers(2000, 2002), min_size=n, max_size=n))
    age = draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    cols = dict.fromkeys(("deaths", "exposure", "mx"), np.full(n, np.nan))
    cols[column] = draw(st.lists(st.sampled_from(_CELLS), min_size=n, max_size=n))
    return LifeTable(year, age, **cols, dropped=draw(st.integers(0, 3)))


def _result_or_error(fn, *args):
    try:
        return fn(*args)
    except (InvalidInputError, DomainError) as err:
        return type(err), str(err)


def _assert_same_grid(got, want):
    """Equal ages and years, the grid bitwise, equal skipped-age counts."""
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    assert got[3] == want[3]


class TestKeyedParity:
    """``combine_tables`` and ``log_rate_grid`` against the dict routes."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_keyed_tables("deaths"), _keyed_tables("exposure"))
    def test_combine_matches_dicts(self, deaths, exposures):
        got = _result_or_error(combine_tables, deaths, exposures)
        want = _result_or_error(combine_tables_by_dicts, deaths, exposures)
        if isinstance(want, tuple):
            assert got == want
        else:
            _assert_same_table(got, want)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_keyed_tables("mx"), st.sampled_from([None, 2001]),
           st.sampled_from([None, 2001, 1999]))
    def test_grid_matches_dicts(self, table, year_from, year_to):
        got = _result_or_error(log_rate_grid, table, year_from, year_to)
        want = _result_or_error(log_rate_grid_by_dicts, table, year_from, year_to)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want
        else:
            _assert_same_grid(got, want)

    def test_fixtures_match_dicts(self):
        deaths = load_table(DATA / "synthetic_Deaths_1x1.txt", kind="deaths",
                            column="Male")
        expo = load_table(DATA / "synthetic_Exposures_1x1.txt",
                          kind="exposures", column="Male")
        combined = combine_tables(deaths, expo)
        _assert_same_table(combined, combine_tables_by_dicts(deaths, expo))
        rates = load_table(DATA / "synthetic_Mx_1x1.txt")
        for table, years in ((rates, (None, None)), (rates, (1990, 1995)),
                             (combined, (None, None))):
            _assert_same_grid(log_rate_grid(table, *years),
                              log_rate_grid_by_dicts(table, *years))


class TestCurve:
    def test_exposure_weighted_aggregation(self):
        t = LifeTable([2000, 2001, 2000, 2001], [60, 60, 61, 61],
                      [3.0, 1.0, 4.0, 4.0], [100.0, 50.0, 80.0, 20.0],
                      [0.03, 0.02, 0.05, 0.2])
        c = curve_from_table(t)
        np.testing.assert_allclose(
            c.log_mortality, np.log([4.0 / 150.0, 8.0 / 100.0]))
        assert list(c.ages) == [60, 61]

    def test_rates_only_aggregation_is_mean(self):
        t = LifeTable([2000, 2001], [60, 60], [np.nan] * 2, [np.nan] * 2,
                      [0.03, 0.05])
        c = curve_from_table(t)
        np.testing.assert_allclose(c.log_mortality, [np.log(0.04)])

    def test_zero_rate_ages_dropped_with_count(self):
        t = LifeTable([2000, 2000], [60, 61], [np.nan] * 2, [np.nan] * 2,
                      [0.0, 0.05])
        c = curve_from_table(t)
        assert c.dropped == 1 and list(c.ages) == [61]

    def test_all_zero_raises(self):
        t = LifeTable([2000], [60], [np.nan], [np.nan], [0.0])
        with pytest.raises(DomainError):
            curve_from_table(t)

    @pytest.mark.parametrize("counts", [False, True])
    @pytest.mark.parametrize("years,rtol", [((2000, 2005), 0.0),
                                            ((1950, 2005), 56 * np.finfo(float).eps)])
    def test_grouped_aggregation_matches_per_age_loop(self, counts, years, rtol):
        # bitwise while each age sums fewer than 8 years, where numpy's
        # pairwise summation is still a plain loop; past that the two orders
        # of summation differ by at most about one rounding per summed year
        if counts:
            t = combine_tables(
                load_table(DATA / "synthetic_Deaths_1x1.txt", kind="deaths"),
                load_table(DATA / "synthetic_Exposures_1x1.txt", kind="exposures"))
        else:
            t = load_table(DATA / "synthetic_Mx_1x1.txt")
        ages, m = _aggregate_rates(t, *years)
        want_ages, want = aggregate_rates_by_age(t, *years)
        assert np.array_equal(ages, want_ages)
        if rtol == 0.0:
            assert np.array_equal(m, want)
        else:
            np.testing.assert_allclose(m, want, rtol=rtol, atol=0)

    def test_age_without_rates_is_dropped_with_count(self):
        t = LifeTable([2000, 2001, 2000, 2001], [60, 60, 61, 61],
                      [np.nan] * 4, [np.nan] * 4, [0.03, 0.05, np.nan, np.nan])
        c = curve_from_table(t)
        assert c.dropped == 1 and list(c.ages) == [60]
        np.testing.assert_allclose(c.log_mortality, [np.log(0.04)])
        s = implied_sample(t)
        assert s.dropped == 1 and list(s.age) == [60]

    def test_year_range_restriction(self):
        t = small_table()
        c = curve_from_table(t, 2001, 2001)
        np.testing.assert_allclose(c.log_mortality, np.log([0.004, 0.002]))

    def test_curve_validation(self):
        with pytest.raises(InvalidInputError):
            MortalityCurve([60, 60], [0.1, 0.2])
        with pytest.raises(InvalidInputError):
            MortalityCurve([60], [np.inf])
        with pytest.raises(InvalidInputError):
            MortalityCurve([], [])


class TestImpliedSample:
    def test_constant_rate_matches_discretized_exponential(self):
        # constant rate c gives mass exp(-c a)(1 - exp(-c)) at age a
        c = 0.3
        ages = np.arange(5)
        t = LifeTable(np.full(5, 2000), ages, [np.nan] * 5, [np.nan] * 5,
                      np.full(5, c))
        s = implied_sample(t)
        expect = np.exp(-c * ages) * (-np.expm1(-c))
        np.testing.assert_allclose(s.weight, expect / expect.sum(), rtol=1e-12)
        np.testing.assert_allclose(s.y, (ages + 0.5) / 100.0)

    def test_weights_sum_to_one(self):
        t = small_table()
        s = implied_sample(t)
        assert abs(s.weight.sum() - 1.0) < 1e-12

    def test_zero_rate_age_gets_no_mass(self):
        t = LifeTable([2000, 2000, 2000], [0, 1, 2], [np.nan] * 3,
                      [np.nan] * 3, [0.1, 0.0, 0.2])
        s = implied_sample(t)
        assert s.n == 2 and s.dropped == 1
        assert 1 not in set(s.age)

    def test_all_zero_mass_raises(self):
        t = LifeTable([2000], [0], [np.nan], [np.nan], [0.0])
        with pytest.raises(DomainError):
            implied_sample(t)

    def test_fixture_selection_has_all_ages(self):
        mx = load_table(DATA / "synthetic_Mx_1x1.txt")
        s = implied_sample(mx, 2000, 2005)
        assert s.n == 111
        assert s.y[0] == 0.005 and s.y[-1] == 1.105

    def test_sample_conversions(self):
        t = small_table()
        s = implied_sample(t)
        cs = s.as_censored_sample()
        assert np.all(cs.delta == 1)
        np.testing.assert_array_equal(cs.z, s.y)
        rs = s.as_regression_sample()
        assert rs.d == 0 and rs.n == s.n


class TestModelLogMortality:
    def test_exponential_hazard_is_flat(self):
        m = IPHModel(PHRepresentation([1.0], [[-2.0]]))
        ages = np.array([0.0, 30.0, 80.0])
        out = model_log_mortality(m, ages)
        # rate 2 per century is 0.02 per year
        np.testing.assert_allclose(out, np.log(0.02), rtol=1e-12)

    def test_model_scale_skips_conversion(self):
        m = IPHModel(PHRepresentation([1.0], [[-2.0]]))
        out = model_log_mortality(m, [0.3, 0.8], age_scale="model")
        np.testing.assert_allclose(out, np.log(2.0), rtol=1e-12)

    def test_years_scale_equals_shifted_model_scale(self):
        m = IPHModel(PHRepresentation([0.5, 0.5], [[-3.0, 1.0], [0.0, -6.0]]),
                     make_transform("gompertz", 7.0))
        ages = np.array([10.0, 50.0, 90.0])
        a = model_log_mortality(m, ages)
        b = model_log_mortality(m, ages / 100.0, age_scale="model") - np.log(100.0)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_regression_model_uses_covariate_row(self):
        rep = PHRepresentation([1.0], [[-1.0]])
        pm = PIModel(rep, "gompertz", beta=[0.5], gamma=[np.log(6.0), 0.0])
        x = np.array([0.8])
        out = model_log_mortality(pm, [40.0], x_row=x)
        cond = pm.conditional_model(x)
        expect = np.log(cond.evaluate(np.array([0.4])).hazard) - np.log(100.0)
        np.testing.assert_allclose(out, expect, rtol=1e-12)

    def test_regression_model_without_row_raises(self):
        rep = PHRepresentation([1.0], [[-1.0]])
        pm = PIModel(rep, "gompertz", beta=[0.5], gamma=[0.0, 0.0])
        with pytest.raises(InvalidInputError):
            model_log_mortality(pm, [40.0])

    def test_unknown_scale_rejected(self):
        m = IPHModel(PHRepresentation([1.0], [[-2.0]]))
        with pytest.raises(InvalidInputError):
            model_log_mortality(m, [40.0], age_scale="days")


def two_state_gompertz():
    return IPHModel(PHRepresentation([0.7, 0.3], [[-3.0, 1.5], [0.0, -5.0]]),
                    make_transform("gompertz", 6.0))


class TestDirectFit:
    def test_exact_start_is_a_fixed_point(self):
        true = two_state_gompertz()
        ages = np.arange(0, 101, 2)
        curve = MortalityCurve(ages, model_log_mortality(true, ages))
        res = direct_fit(true, curve, DirectFitConfig(max_evals=200, restarts=0))
        assert res.loss < 1e-12

    @pytest.mark.parametrize("config,name", [
        (DirectFitConfig(max_evals=0), "max_evals"),
        (DirectFitConfig(max_evals=-5), "max_evals"),
        (DirectFitConfig(restarts=-2), "restarts"),
    ])
    def test_empty_budgets_rejected(self, config, name):
        true = two_state_gompertz()
        curve = MortalityCurve([0, 50], model_log_mortality(true, [0, 50]))
        with pytest.raises(InvalidInputError, match=name):
            direct_fit(true, curve, config)

    def test_perturbed_start_recovers_representable_curve(self):
        true = two_state_gompertz()
        ages = np.arange(0, 101, 2)
        curve = MortalityCurve(ages, model_log_mortality(true, ages))
        start = IPHModel(
            PHRepresentation([0.6, 0.4], [[-3.6, 1.1], [0.0, -4.2]]),
            make_transform("gompertz", 5.0))
        res = direct_fit(start, curve,
                         DirectFitConfig(max_evals=4000, restarts=3))
        assert res.loss < 1e-6

    def test_trace_monotone_and_never_worse(self):
        true = two_state_gompertz()
        ages = np.arange(0, 101, 5)
        noisy = MortalityCurve(
            ages, model_log_mortality(true, ages)
            + 0.05 * np.sin(np.arange(ages.size)))
        start = IPHModel(
            PHRepresentation([0.5, 0.5], [[-2.0, 1.0], [0.0, -4.0]]),
            make_transform("gompertz", 5.5))
        res = direct_fit(start, noisy, DirectFitConfig(max_evals=300, restarts=1))
        assert np.all(np.diff(res.loss_trace) <= 0)
        assert res.loss <= res.loss_trace[0]

    def test_sparsity_pattern_is_frozen(self):
        start = two_state_gompertz()
        ages = np.arange(0, 101, 5)
        curve = MortalityCurve(ages, model_log_mortality(start, ages) + 0.1)
        res = direct_fit(start, curve, DirectFitConfig(max_evals=200, restarts=0))
        t = res.model.rep.T
        assert t[1, 0] == 0.0
        assert t[0, 1] > 0
        assert res.model.rep.pi[1] > 0

    def test_zero_start_weight_stays_zero(self):
        start = IPHModel(
            PHRepresentation([1.0, 0.0], [[-3.0, 1.5], [0.0, -5.0]]),
            make_transform("gompertz", 6.0))
        ages = np.arange(20, 90, 5)
        curve = MortalityCurve(ages, model_log_mortality(start, ages) + 0.05)
        res = direct_fit(start, curve, DirectFitConfig(max_evals=200, restarts=0))
        assert res.model.rep.pi[1] == 0.0 and res.model.rep.pi[0] == 1.0

    def test_identity_family_fits_constant_hazard(self):
        target = MortalityCurve(np.arange(40, 60), np.full(20, np.log(0.03)))
        start = IPHModel(PHRepresentation([1.0], [[-1.0]]))
        res = direct_fit(start, target, DirectFitConfig(max_evals=500, restarts=1))
        # a single exponential state can match a flat curve exactly
        assert res.loss < 1e-12
        np.testing.assert_allclose(-res.model.rep.T[0, 0], 3.0, rtol=1e-4)

    def test_regression_model_with_covariate_curves(self):
        rep = PHRepresentation([1.0], [[-2.0]])
        true = PIModel(rep, "gompertz", beta=[0.4], gamma=[np.log(6.0)])
        ages = np.arange(30, 100, 5)
        curves = []
        for xval in (0.0, 1.0):
            lm = model_log_mortality(true, ages, x_row=[xval])
            curves.append(([xval], MortalityCurve(ages, lm)))
        start = PIModel(rep, "gompertz", beta=[0.1], gamma=[np.log(4.0)])
        res = direct_fit(start, curves,
                         DirectFitConfig(max_evals=2000, restarts=2))
        assert res.loss < 1e-8
        np.testing.assert_allclose(res.model.beta, [0.4], atol=1e-3)

    def test_regression_curves_need_rows(self):
        rep = PHRepresentation([1.0], [[-2.0]])
        pm = PIModel(rep, "gompertz", beta=[0.4], gamma=[np.log(6.0)])
        curve = MortalityCurve([50], [np.log(0.01)])
        with pytest.raises(InvalidInputError):
            direct_fit(pm, [curve])

    def test_wrapped_transform_rejected(self):
        base = two_state_gompertz()
        wrapped = IPHModel(base.rep, ScaledTransform(base.transform, 2.0))
        curve = MortalityCurve([50], [np.log(0.01)])
        with pytest.raises(InvalidInputError):
            direct_fit(wrapped, curve)


class TestSelectOrder:
    def test_stops_at_small_relative_improvement(self):
        assert select_order([10.0, 5.0, 4.999, 1.0]) == 2

    def test_all_substantial_returns_last(self):
        assert select_order([10.0, 5.0, 2.0, 1.0]) == 4

    def test_single_loss(self):
        assert select_order([3.0]) == 1

    def test_custom_orders_and_threshold(self):
        assert select_order([10.0, 9.999], orders=[2, 4]) == 2
        assert select_order([10.0, 9.0], threshold=0.5) == 1

    def test_worsening_stops_immediately(self):
        assert select_order([5.0, 6.0, 1.0]) == 1

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            select_order([])
        with pytest.raises(InvalidInputError):
            select_order([1.0, 2.0], orders=[1])


class TestLeeCarter:
    def test_exact_rank_one_reconstruction(self):
        ages, years = 8, 12
        rng = np.random.default_rng(5)
        a = rng.normal(size=ages)
        b = rng.dirichlet(np.ones(ages))
        k = rng.normal(size=years) * 3
        k -= k.mean()
        m = a[:, None] + np.outer(b, k)
        fit = lee_carter_fit(m)
        np.testing.assert_allclose(fit.a, a, atol=1e-10)
        np.testing.assert_allclose(fit.b, b, atol=1e-10)
        np.testing.assert_allclose(fit.k, k, atol=1e-9)
        np.testing.assert_allclose(fit.reconstruct(), m, atol=1e-10)

    def test_identification_constraints_exact(self):
        rng = np.random.default_rng(11)
        m = rng.normal(size=(15, 9))
        fit = lee_carter_fit(m)
        assert fit.b.sum() == pytest.approx(1.0, abs=1e-14)
        assert abs(fit.k.sum()) < 1e-10 * max(1.0, np.abs(fit.k).max())

    def test_matches_best_rank_one_approximation(self):
        # the reconstruction equals the leading SVD truncation, which is the
        # rank-one minimizer of squared error for the centered matrix
        rng = np.random.default_rng(3)
        m = rng.normal(size=(10, 20))
        fit = lee_carter_fit(m)
        centered = m - m.mean(axis=1, keepdims=True)
        u, s, vt = np.linalg.svd(centered, full_matrices=False)
        best = s[0] * np.outer(u[:, 0], vt[0])
        np.testing.assert_allclose(
            fit.reconstruct() - m.mean(axis=1, keepdims=True), best, atol=1e-10)

    def test_residual_never_beats_other_rank_one_candidates(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(6, 7))
        fit = lee_carter_fit(m)
        resid = np.sum((m - fit.reconstruct()) ** 2)
        centered = m - m.mean(axis=1, keepdims=True)
        for _ in range(25):
            bb = rng.normal(size=6)
            kk = centered.T @ bb / (bb @ bb)
            trial = np.sum((centered - np.outer(bb, kk)) ** 2)
            assert resid <= trial + 1e-10

    def test_constant_matrix_gives_uniform_loading(self):
        m = np.full((4, 6), -3.5)
        fit = lee_carter_fit(m)
        np.testing.assert_allclose(fit.a, np.full(4, -3.5))
        np.testing.assert_allclose(fit.b, np.full(4, 0.25))
        np.testing.assert_allclose(fit.k, np.zeros(6))

    def test_fixture_trend_declines(self):
        mx = load_table(DATA / "synthetic_Mx_1x1.txt")
        years = mx.years
        ages = np.arange(0, 109)  # ages with full year coverage
        grid = np.empty((ages.size, years.size))
        lookup = {(y, a): v for y, a, v in zip(mx.year, mx.age, mx.mx)}
        for i, a in enumerate(ages):
            for j, y in enumerate(years):
                grid[i, j] = np.log(lookup[(y, a)])
        fit = lee_carter_fit(grid)
        # mortality improves over time in the fixture
        assert fit.k[0] > 0 > fit.k[-1]
        slope = np.polyfit(np.arange(years.size), fit.k, 1)[0]
        assert slope < 0
        # rank-one structure captures nearly all variation
        resid = grid - fit.reconstruct()
        assert resid.var() < 0.01 * grid.var()

    def test_grid_is_the_transposed_curve_stack(self):
        table = load_table(DATA / "synthetic_Mx_1x1.txt")
        ages, years, grid, skipped = log_rate_grid(table, 2000, 2005)
        stack = np.array([curve_from_table(table, y, y).log_mortality
                          for y in range(2000, 2006)])
        assert list(years) == list(range(2000, 2006)) and skipped == 0
        assert grid.tobytes() == np.ascontiguousarray(stack.T).tobytes()
        assert np.array_equal(ages, curve_from_table(table, 2000, 2005).ages)
        fit = lee_carter_fit(grid)
        assert fit.k.shape == (6,) and fit.a.shape == fit.b.shape == (ages.size,)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            lee_carter_fit(np.ones(5))
        with pytest.raises(InvalidInputError):
            lee_carter_fit([[np.nan, 1.0], [0.0, 2.0]])
