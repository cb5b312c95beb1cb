import io
import pathlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from matlife import mortality
from matlife.em import StructureSpec, _pattern
from matlife.exceptions import (DomainError, InvalidInputError, ScoreOverflowError,
                               TableParseError)
from matlife.inhomogeneity import FAMILIES, ScaledTransform, make_transform
from matlife.mortality import (
    HAZARD_FLOOR,
    SIMPLEX_STEP,
    DirectFitConfig,
    LifeTable,
    MortalityCurve,
    _aggregate_rates,
    _nelder_mead,
    combine_tables,
    curve_from_table,
    direct_fit,
    free_parameter_count,
    implied_sample,
    lee_carter_fit,
    load_table,
    log_rate_grid,
    model_log_mortality,
    select_order,
)
from matlife.phasetype import IPHModel, PHRepresentation
from matlife.regression import PIFitConfig, PIModel, fit_pi

from helpers import (
    aggregate_rates_by_age,
    combine_tables_by_dicts,
    load_table_by_lines,
    log_rate_grid_by_dicts,
    scipy_nelder_mead,
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

    @pytest.mark.parametrize("age", ["99999999999999999999", "99999999999999999999+",
                                     "-9223372036854775809"])
    def test_age_beyond_int64_reports_its_line(self, age):
        rows = ["2000 0 0.1 0.1 0.1", f"2000 {age} 0.2 0.2 0.2"]
        with pytest.raises(TableParseError, match="age beyond the int64 range") as err:
            load_table(io.StringIO(table_text(rows)))
        assert err.value.line == 5

    def test_non_utf8_file_is_invalid_input(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(table_text(["2000 0 0.1 0.1 0.1"]).encode() + b"2000 1 \xff 1 1\n")
        with pytest.raises(InvalidInputError, match="not UTF-8 text"):
            load_table(path)

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

    def test_overflowing_iterate_scores_inf(self):
        # the first simplex vertex puts the score at 0.1 * 8000, past the link
        ages = np.arange(30, 90)
        curve = MortalityCurve(ages, np.log(5e-4) + 0.09 * (ages - 30))
        start = PIModel(PHRepresentation([1.0], [[-2.0]]), "gompertz", beta=[0.0],
                        gamma=[np.log(6.0)])
        res = direct_fit(start, [([8000.0], curve), ([0.0], curve)],
                         DirectFitConfig(300, 0))
        assert np.isfinite(res.loss)
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
        with pytest.raises(InvalidInputError, match="expected 1 covariates, got 2"):
            direct_fit(pm, [([0.5, 1.0], curve)])

    def test_wrapped_transform_rejected(self):
        base = two_state_gompertz()
        wrapped = IPHModel(base.rep, ScaledTransform(base.transform, 2.0))
        curve = MortalityCurve([50], [np.log(0.01)])
        with pytest.raises(InvalidInputError):
            direct_fit(wrapped, curve)

    def test_array_clock_parameter_rejected(self):
        model = IPHModel(two_state_gompertz().rep, make_transform("gompertz", [1.0, 2.0]))
        curve = MortalityCurve([50], [np.log(0.01)])
        with pytest.raises(InvalidInputError, match="scalar transform parameter"):
            direct_fit(model, curve)
        with pytest.raises(InvalidInputError, match="scalar transform parameter"):
            free_parameter_count(model)


def rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def walled(x):
    """Rosenbrock, and ``inf`` on the half-space x0 + x1 > 0.45."""
    return np.inf if x[0] + x[1] > 0.45 else rosenbrock(x)


def terraced(x):
    """Rosenbrock rounded down to an integer: its ties make Nelder-Mead shrink."""
    return float(np.floor(rosenbrock(x)))


#: objective and first vertex; the walled start has two vertices at inf
_NM_CASES = {
    "rosenbrock-2": (rosenbrock, [-1.2, 1.0]),
    "rosenbrock-6": (rosenbrock, [-1.2, 1.0] * 3),
    "walled": (walled, [0.4, 0.0]),
    "terraced": (terraced, [-1.2, 1.0]),
}

#: a budget no case reaches, so each stops on the point and loss tolerances
_NM_BUDGET = 5000


def simplex_at(x0):
    """The simplex ``direct_fit`` builds around ``x0``."""
    x0 = np.asarray(x0, dtype=float)
    return np.vstack([x0, x0 + SIMPLEX_STEP * np.eye(x0.size)])


def nelder_mead_run(minimizer, fn, simplex, budget):
    """The points ``minimizer`` evaluates, then its final simplex and losses."""
    points = []

    def objective(x):
        points.append(x.copy())
        return fn(x)

    return [points, *minimizer(objective, simplex, budget)]


def assert_same_run(fn, simplex, budget) -> int:
    """``_nelder_mead`` evaluates scipy's points bitwise, in scipy's order,
    and ends on scipy's simplex; returns the evaluation count."""
    got = nelder_mead_run(_nelder_mead, fn, simplex, budget)
    want = nelder_mead_run(scipy_nelder_mead, fn, simplex, budget)
    assert len(got[0]) == len(want[0])
    assert [x.tobytes() for x in got[0]] == [x.tobytes() for x in want[0]]
    assert got[1].tobytes() == want[1].tobytes()
    assert got[2].tobytes() == want[2].tobytes()
    return len(want[0])


def nelder_mead_steps(fn, simplex):
    """``(first, end, kind)`` evaluation ranges of the initial simplex and of
    each step of scipy's run, read from its per-iteration callback."""
    values, ends = [], []

    def objective(x):
        values.append(fn(x))
        return values[-1]

    simplex = np.asarray(simplex, dtype=float)
    minimize(objective, simplex[0], method="Nelder-Mead",
             callback=lambda xk: ends.append(len(values)),
             options={"initial_simplex": simplex, "maxfev": _NM_BUDGET,
                      "xatol": mortality.NM_XATOL, "fatol": mortality.NM_FATOL})
    first = simplex.shape[0]
    steps = [(0, first, "initial")]
    for end in ends:
        if end - first == 1:
            kind = "reflection"
        elif end - first > 2:
            kind = "shrink"
        else:  # the reflected point beat the best vertex, or it did not
            kind = "expansion" if values[first] < min(values[:first]) else "contraction"
        steps.append((first, end, kind))
        first = end
    return steps


class TestNelderMeadParity:
    """The in-house Nelder-Mead against ``scipy.optimize.minimize``."""

    @pytest.mark.parametrize("case", list(_NM_CASES))
    def test_evaluates_the_points_scipy_does(self, case):
        fn, x0 = _NM_CASES[case]
        assert assert_same_run(fn, simplex_at(x0), _NM_BUDGET) < _NM_BUDGET

    @pytest.mark.parametrize("case", ["rosenbrock-2", "walled", "terraced"])
    def test_every_budget_stops_where_scipy_does(self, case):
        fn, x0 = _NM_CASES[case]
        simplex = simplex_at(x0)
        total = assert_same_run(fn, simplex, _NM_BUDGET)
        for budget in range(1, total):
            assert assert_same_run(fn, simplex, budget) == budget

    def test_budgets_stop_inside_every_kind_of_step(self):
        # the budgets above cut into the initial simplex, an expansion, a
        # contraction and a shrink, so the partial steps are pinned as well
        cut = {kind for case in ("rosenbrock-2", "walled", "terraced")
               for first, end, kind in nelder_mead_steps(
                   _NM_CASES[case][0], simplex_at(_NM_CASES[case][1]))
               if end - first > 1}
        assert cut == {"initial", "expansion", "contraction", "shrink"}

    def test_ties_among_inf_losses(self):
        fn, x0 = _NM_CASES["walled"]
        losses = [fn(x) for x in simplex_at(x0)]
        assert np.isfinite(losses[0]) and losses[1:] == [np.inf, np.inf]

    def test_stops_on_tolerances(self):
        fn, x0 = _NM_CASES["terraced"]
        steps = nelder_mead_steps(fn, simplex_at(x0))
        assert steps[-1][1] < _NM_BUDGET
        assert assert_same_run(fn, simplex_at(x0), _NM_BUDGET) == steps[-1][1]


def _criterion_08_fixture_fit():
    """Criterion 08's likelihood warm start on the life-table fixture."""
    mx = load_table(DATA / "synthetic_Mx_1x1.txt")
    samp = implied_sample(mx, 2000, 2005)
    em = fit_pi(samp.as_regression_sample(),
                StructureSpec("generalized_coxian", 2), family="gompertz",
                rng=np.random.default_rng(7),
                config=PIFitConfig(max_outer=800, tol=1e-10, patience=5,
                                   nm_budget=250))
    theta = float(em.model.shape_param(np.zeros((1, 0)))[0])
    init = IPHModel(em.model.rep, make_transform("gompertz", theta))
    return init, curve_from_table(mx, 2000, 2005), DirectFitConfig(1500, 1)


def _two_state_fit(ages, shift=0.0, start=None, config=DirectFitConfig(200, 0)):
    true = two_state_gompertz()
    curve = MortalityCurve(ages, model_log_mortality(true, ages) + shift)
    return start or true, curve, config


def _regression_fit():
    rep = PHRepresentation([1.0], [[-2.0]])
    true = PIModel(rep, "gompertz", beta=[0.4], gamma=[np.log(6.0)])
    ages = np.arange(30, 100, 5)
    curves = [([x], MortalityCurve(ages, model_log_mortality(true, ages, x_row=[x])))
              for x in (0.0, 1.0)]
    start = PIModel(rep, "gompertz", beta=[0.1], gamma=[np.log(4.0)])
    return start, curves, DirectFitConfig(2000, 2)


#: the fits of TestDirectFit and criterion 08, as (start, curves, config)
_DIRECT_FITS = {
    "exact-start": lambda: _two_state_fit(np.arange(0, 101, 2)),
    "representable": lambda: _two_state_fit(
        np.arange(0, 101, 2), config=DirectFitConfig(4000, 3),
        start=IPHModel(PHRepresentation([0.6, 0.4], [[-3.6, 1.1], [0.0, -4.2]]),
                       make_transform("gompertz", 5.0))),
    "noisy": lambda: _two_state_fit(
        np.arange(0, 101, 5), 0.05 * np.sin(np.arange(21)),
        start=IPHModel(PHRepresentation([0.5, 0.5], [[-2.0, 1.0], [0.0, -4.0]]),
                       make_transform("gompertz", 5.5)),
        config=DirectFitConfig(300, 1)),
    "shifted": lambda: _two_state_fit(np.arange(0, 101, 5), 0.1),
    "zero-start-weight": lambda: (
        IPHModel(PHRepresentation([1.0, 0.0], [[-3.0, 1.5], [0.0, -5.0]]),
                 make_transform("gompertz", 6.0)),
        MortalityCurve(np.arange(20, 90, 5), model_log_mortality(
            two_state_gompertz(), np.arange(20, 90, 5)) + 0.05),
        DirectFitConfig(200, 0)),
    "identity": lambda: (IPHModel(PHRepresentation([1.0], [[-1.0]])),
                         MortalityCurve(np.arange(40, 60), np.full(20, np.log(0.03))),
                         DirectFitConfig(500, 1)),
    "regression": _regression_fit,
    "criterion-08-fixture": _criterion_08_fixture_fit,
}


def _fit_bits(result):
    model = result.model
    arrays = [model.rep.pi, model.rep.T, result.loss_trace, np.float64(result.loss)]
    if isinstance(model, PIModel):
        arrays += [model.beta, model.gamma]
    else:
        arrays += [np.asarray(list(model.transform.params.values()), dtype=float)]
    return [np.asarray(a).tobytes() for a in arrays], result.n_evaluations


class TestDirectFitParity:
    @pytest.mark.parametrize("case", list(_DIRECT_FITS))
    def test_bitwise_equal_to_the_scipy_driven_fit(self, case, monkeypatch):
        start, curves, config = _DIRECT_FITS[case]()
        got = direct_fit(start, curves, config)
        monkeypatch.setattr(mortality, "_nelder_mead", scipy_nelder_mead)
        want = direct_fit(start, curves, config)
        assert _fit_bits(got) == _fit_bits(want)


def _scored(loss, *args):
    """``loss(*args)``, or ``+inf`` where the point is refused, as
    :func:`direct_fit`'s objective scores it."""
    try:
        return loss(*args)
    except (InvalidInputError, OverflowError, ScoreOverflowError):
        return np.inf


def _loss_by_model(vec, start, pairs, layout):
    """The direct-fit loss through the unpacked model and
    :func:`model_log_mortality`, floored at ``log HAZARD_FLOOR``."""
    model = mortality._unpack(vec, start, layout)
    total = 0.0
    for x_row, curve in pairs:
        with np.errstate(divide="ignore"):
            logmu = model_log_mortality(model, curve.ages, x_row)
        logmu = np.maximum(logmu, np.log(HAZARD_FLOOR))
        if not np.all(np.isfinite(logmu)):
            return np.inf
        total += float(np.sum((logmu - curve.log_mortality) ** 2))
    return total


def _steep_gompertz():
    # survival underflows past age 90 or so: the hazard there is the tail's
    return IPHModel(two_state_gompertz().rep, make_transform("gompertz", 40.0))


#: (start, curves) for the loss parity: the three clocks, a regression
#: model with two covariate rows, and survival that underflows
_LOSS_CASES = {
    "identity": lambda: (
        IPHModel(PHRepresentation([0.6, 0.4], [[-3.0, 1.0], [0.5, -4.0]])),
        MortalityCurve(np.arange(0, 111, 5), np.linspace(-5.0, -1.0, 23))),
    "gompertz": lambda: (
        two_state_gompertz(),
        MortalityCurve(np.arange(0, 111), np.linspace(-7.0, 0.0, 111))),
    "weibull": lambda: (
        IPHModel(PHRepresentation([1.0, 0.0], [[-2.0, 2.0], [0.0, -3.0]]),
                 make_transform("weibull", 2.5)),
        MortalityCurve(np.arange(0, 111, 2), np.linspace(-8.0, -0.5, 56))),
    "regression": lambda: (
        PIModel(PHRepresentation([0.7, 0.3], [[-3.0, 1.5], [0.0, -5.0]]), "gompertz",
                beta=[0.4, -0.2], gamma=[np.log(6.0), 0.1, -0.3]),
        [([0.0, 1.0], MortalityCurve(np.arange(20, 100, 3), np.linspace(-6, -1, 27))),
         ([1.5, -0.5], MortalityCurve(np.arange(30, 90), np.linspace(-5, -2, 60)))]),
    "survival-underflow": lambda: (
        _steep_gompertz(),
        MortalityCurve(np.arange(0, 111), np.linspace(-7.0, 2.0, 111))),
}


class TestLossParity:
    @pytest.mark.parametrize("case", list(_LOSS_CASES))
    def test_bitwise_equal_to_the_loss_by_model(self, case):
        start, curves = _LOSS_CASES[case]()
        pairs = mortality._normalize_curves(start, curves)
        layout = _pattern(start)
        loss = mortality._loss(start, pairs, layout)
        x0 = mortality._pack(start, layout)
        rng = np.random.default_rng(20201106)
        points = [x0, *(x0 + rng.normal(0.0, 0.3, (12, x0.size)))]
        # refused points: a NaN rate, a NaN last coordinate (the clock
        # parameter or a coefficient) and, for regression, a score past 700
        refused = [(0, np.nan), (-1, np.nan)]
        if isinstance(start, PIModel):
            refused.append((-1, 1000.0))
        for k, bad in refused:
            points.append(x0.copy())
            points[-1][k] = bad
        values = []
        for x in points:
            got = _scored(loss, x)
            assert np.float64(got).tobytes() == np.float64(
                _scored(_loss_by_model, x, start, pairs, layout)).tobytes()
            values.append(got)
        assert np.isfinite(values[0]) and np.isinf(values[-len(refused):]).all()
        if isinstance(start, PIModel):
            with pytest.raises(ScoreOverflowError):
                loss(points[-1])

    def test_survival_underflow_takes_the_tail_branch(self):
        start, curve = _LOSS_CASES["survival-underflow"]()
        assert start.evaluate(curve.ages / 100.0).extrapolated.sum() > 10


@pytest.mark.parametrize("case", ["representable", "regression"])
def test_known_start_loss_stands_in_for_its_evaluation(case, monkeypatch):
    # each round's first vertex is its start, whose loss direct_fit already
    # holds: evaluating that vertex anew returns exactly that loss and leaves
    # the fit as it was, with one more evaluation counted per round
    start, curves, config = _DIRECT_FITS[case]()
    got = direct_fit(start, curves, config)
    starts = []

    def evaluating(objective, simplex, max_evals, first_loss):
        losses = []

        def recorded(x):
            losses.append(objective(x))
            return losses[-1]

        result = _nelder_mead(recorded, simplex, max_evals)
        starts.append((first_loss, losses[0]))
        return result

    monkeypatch.setattr(mortality, "_nelder_mead", evaluating)
    want = direct_fit(start, curves, config)
    assert len(starts) > 1 and all(known == fresh for known, fresh in starts)
    assert _fit_bits(got)[0] == _fit_bits(want)[0]
    assert got.n_evaluations + len(starts) == want.n_evaluations


@st.composite
def fittable_models(draw):
    """A lifetime or regression model of order 1 to 4 with some rates and
    start weights zero, any clock family, and for regression models 0 to 2
    covariates with no, an intercept-only or a full ``gamma``."""
    p = draw(st.integers(1, 4), label="p")
    value = st.floats(0.05, 20.0)
    t = np.array([[draw(value) if i != j and draw(st.booleans()) else 0.0
                   for j in range(p)] for i in range(p)])
    exits = np.array([draw(value) if draw(st.booleans()) else 0.0 for _ in range(p)])
    np.fill_diagonal(t, -(t.sum(axis=1) + exits))
    weights = np.array([draw(value) if draw(st.booleans()) else 0.0 for _ in range(p)])
    weights[draw(st.integers(0, p - 1))] = draw(value)
    # absorption reachable from every state, by more than rounding
    assume(np.linalg.eigvals(t).real.max() < -1e-6)
    rep = PHRepresentation(weights / weights.sum(), t)
    family = draw(st.sampled_from(list(FAMILIES)), label="family")
    shaped = FAMILIES[family].param_name is not None
    if not draw(st.booleans(), label="regression"):
        return IPHModel(rep, make_transform(family, draw(value) if shaped else None))
    d = draw(st.integers(0, 2), label="d")
    coef = st.floats(-2.0, 2.0)
    beta = [draw(coef) for _ in range(d)]
    gamma = ([draw(coef) for _ in range(draw(st.sampled_from([1, 1 + d])))]
             if shaped else None)
    return PIModel(rep, family, beta, gamma)


@given(model=fittable_models())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_direct_fit_coordinates_round_trip(model):
    layout = _pattern(model)
    back = mortality._unpack(mortality._pack(model, layout), model, layout)
    assert type(back) is type(model)
    for got, want in ((back.rep.pi, model.rep.pi), (back.rep.T, model.rep.T)):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    if isinstance(model, PIModel):
        assert back.family == model.family
        assert np.array_equal(back.beta, model.beta)
        assert (back.gamma is None) == (model.gamma is None)
        if model.gamma is not None:
            assert np.array_equal(back.gamma, model.gamma)
    else:
        assert back.transform.family == model.transform.family
        assert back.transform.params.keys() == model.transform.params.keys()
        np.testing.assert_allclose(list(back.transform.params.values()),
                                   list(model.transform.params.values()),
                                   rtol=1e-13, atol=0)


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

    def test_step_from_zero_loss_is_no_improvement(self):
        assert select_order([1.0, 0.0, 0.0]) == 2
        assert select_order([0.0, 0.0, 0.0]) == 1

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
