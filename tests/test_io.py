import csv
import io as stringio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matlife.diagnostics import CoxSnellResiduals, StepFunction, kaplan_meier
from matlife.exceptions import InvalidInputError, TableParseError
from matlife.inhomogeneity import ScaledTransform, make_transform
from matlife.io import (
    _BLOCK_ROWS,
    load_model,
    model_from_dict,
    model_to_dict,
    read_survival_csv,
    save_model,
    write_curve_csv,
    write_lee_carter_csv,
    write_residuals_csv,
    write_step_csv,
    write_survival_csv,
    write_trace_csv,
)
from matlife.mortality import LeeCarterFit, lee_carter_fit
from matlife.phasetype import IPHModel, PHRepresentation
from matlife.regression import PIModel, RegressionSample


def models():
    rep = PHRepresentation([0.7, 0.3], [[-3.1, 1.7], [0.0, -5.3]])
    third = 1.0 / 3.0
    return [
        IPHModel(rep),
        IPHModel(rep, make_transform("gompertz", np.pi)),
        IPHModel(rep, make_transform("weibull", third)),
        PIModel(rep, "weibull", beta=[0.1, -0.2], gamma=[third]),
        PIModel(rep, "gompertz", beta=[np.e], gamma=[0.5, -0.25],
                standardization={"center": [1.5], "scale": [2.0]}),
        PIModel(rep, "identity", beta=[0.4, 0.6]),
    ]


class TestModelRoundTrip:
    @pytest.mark.parametrize("idx", range(6))
    def test_save_load_is_bitwise(self, tmp_path, idx):
        model = models()[idx]
        path = tmp_path / "model.json"
        save_model(path, model)
        back = load_model(path)
        assert type(back) is type(model)
        assert np.array_equal(back.rep.pi, model.rep.pi)
        assert np.array_equal(back.rep.T, model.rep.T)
        if isinstance(model, PIModel):
            assert back.family == model.family
            assert np.array_equal(back.beta, model.beta)
            if model.gamma is None:
                assert back.gamma is None
            else:
                assert np.array_equal(back.gamma, model.gamma)
            assert back.standardization == model.standardization
        else:
            assert back.transform.family == model.transform.family
            assert back.transform.params == model.transform.params

    def test_wrapped_transform_refuses_to_serialize(self):
        m = IPHModel(PHRepresentation([1.0], [[-1.0]]),
                     ScaledTransform(make_transform("gompertz", 2.0), 1.5))
        with pytest.raises(InvalidInputError):
            model_to_dict(m)

    @pytest.mark.parametrize("clock", [
        ScaledTransform(make_transform("gompertz", 2.0), 1.5),
        make_transform("weibull", [1.5, 2.0]),
    ], ids=["scaled", "array-parameter"])
    def test_failed_save_leaves_the_old_file(self, tmp_path, clock):
        path = tmp_path / "model.json"
        save_model(path, models()[1])
        before = path.read_bytes()
        with pytest.raises(InvalidInputError):
            save_model(path, IPHModel(PHRepresentation([1.0], [[-1.0]]), clock))
        assert path.read_bytes() == before

    def test_unknown_kind_rejected(self):
        data = model_to_dict(models()[0])
        data["kind"] = "mystery"
        with pytest.raises(InvalidInputError):
            model_from_dict(data)

    def test_missing_parameter_rejected(self):
        data = model_to_dict(models()[1])
        data["params"] = {}
        with pytest.raises(InvalidInputError):
            model_from_dict(data)

    def test_not_a_model_file(self, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text("not json at all")
        with pytest.raises(InvalidInputError):
            load_model(path)

    def test_non_model_object_rejected(self):
        with pytest.raises(InvalidInputError):
            model_to_dict({"anything": 1})


CSV_TEXT = """time,status,weight,karno,age
10.5,1,1.0,0.6,66
3.25,0,2.0,0.8,42
7.75,1,1.0,0.3,58
"""


class TestReadSurvivalCsv:
    def test_basic_parse(self):
        data = read_survival_csv(stringio.StringIO(CSV_TEXT))
        assert data.covariate_names == ["karno", "age"]
        s = data.sample
        np.testing.assert_array_equal(s.y, [10.5, 3.25, 7.75])
        np.testing.assert_array_equal(s.delta, [1, 0, 1])
        np.testing.assert_array_equal(s.weight, [1.0, 2.0, 1.0])
        np.testing.assert_array_equal(s.x[:, 1], [66, 42, 58])

    def test_weight_column_optional(self):
        text = "time,status\n1.0,1\n2.0,0\n"
        data = read_survival_csv(stringio.StringIO(text))
        np.testing.assert_array_equal(data.sample.weight, [1.0, 1.0])
        assert data.sample.d == 0

    def test_header_case_insensitive(self):
        text = "Time,Status,Karno\n1.0,1,0.5\n"
        data = read_survival_csv(stringio.StringIO(text))
        assert data.covariate_names == ["Karno"]

    def test_missing_required_column(self):
        with pytest.raises(TableParseError) as err:
            read_survival_csv(stringio.StringIO("time,karno\n1.0,2\n"))
        assert err.value.line == 1

    def test_ragged_row_reports_line(self):
        text = "time,status\n1.0,1\n2.0\n"
        with pytest.raises(TableParseError) as err:
            read_survival_csv(stringio.StringIO(text))
        assert err.value.line == 3

    def test_bad_value_reports_line(self):
        text = "time,status\nabc,1\n"
        with pytest.raises(TableParseError) as err:
            read_survival_csv(stringio.StringIO(text))
        assert err.value.line == 2

    def test_empty_and_headers_only(self):
        with pytest.raises(TableParseError):
            read_survival_csv(stringio.StringIO(""))
        with pytest.raises(TableParseError):
            read_survival_csv(stringio.StringIO("time,status\n"))

    @pytest.mark.parametrize("value", ["0.7", "inf", "-1", "2", "nan"])
    def test_status_other_than_zero_or_one_rejected(self, value):
        text = f"time,status\n1.0,1\n2.0,{value}\n3.0,0\n"
        with pytest.raises(TableParseError) as err:
            read_survival_csv(stringio.StringIO(text))
        assert err.value.line == 3

    @pytest.mark.parametrize("text,line", [
        ("time,status\n\n1.0,1\nabc,1\n", 4),
        ("\n\ntime,status\n1.0,1\n  \n,\n2.0\n", 7),
        ("time,status\n\n\n1.0,0.5\n", 4),
        ("\n \ntime,karno\n1.0,2\n", 3),
        ("\n\ntime,status\n\n", 3),
        ('time,status\n\n1.0,"1\n"\n', 3),
    ])
    def test_errors_report_physical_lines(self, text, line):
        with pytest.raises(TableParseError) as err:
            read_survival_csv(stringio.StringIO(text))
        assert err.value.line == line

    def test_crlf_line_endings(self, tmp_path):
        text = "time,status\r\n\r\n1.0,1\r\n2.5,0\r\n"
        path = tmp_path / "crlf.csv"
        path.write_bytes(text.encode())
        for source in (path, stringio.StringIO(text)):
            data = read_survival_csv(source)
            np.testing.assert_array_equal(data.sample.y, [1.0, 2.5])
            np.testing.assert_array_equal(data.sample.delta, [1, 0])
        with pytest.raises(TableParseError) as err:
            read_survival_csv(stringio.StringIO(text + "abc,1\r\n"))
        assert err.value.line == 5

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(CSV_TEXT.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + CSV_TEXT.encode())
        want, got = read_survival_csv(plain), read_survival_csv(marked)
        assert got.covariate_names == want.covariate_names == ["karno", "age"]
        for name in ("y", "delta", "weight", "x"):
            np.testing.assert_array_equal(getattr(got.sample, name),
                                          getattr(want.sample, name))

    def test_digit_underscores_rejected(self):
        # float() accepts "1_0"; the numpy parser does not
        text = "time,status\n2.0,1\n1_0,1\n"
        with pytest.raises(TableParseError) as err:
            read_survival_csv(stringio.StringIO(text))
        assert err.value.line == 3


class TestSaveModelText:
    @pytest.mark.parametrize("idx", [1, 4], ids=["lifetime", "regression"])
    def test_bytes_are_the_streamed_json(self, tmp_path, idx):
        # one write of the whole text gives the bytes json.dump streams
        model = models()[idx]
        path = tmp_path / "model.json"
        save_model(path, model)
        streamed = stringio.StringIO()
        json.dump(model_to_dict(model), streamed, indent=2, sort_keys=True)
        assert path.read_bytes() == (streamed.getvalue() + "\n").encode("utf-8")


class TestWriteReadCycle:
    def test_survival_csv_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        from matlife.regression import RegressionSample
        sample = RegressionSample(rng.exponential(3.0, 40) + 1e-3,
                                  rng.integers(0, 2, 40),
                                  rng.normal(size=(40, 2)),
                                  rng.uniform(0.5, 2.0, 40))
        path = tmp_path / "sample.csv"
        write_survival_csv(path, sample, names=["a", "b"])
        back = read_survival_csv(path)
        assert back.covariate_names == ["a", "b"]
        assert np.array_equal(back.sample.y, sample.y)
        assert np.array_equal(back.sample.delta, sample.delta)
        assert np.array_equal(back.sample.x, sample.x)
        assert np.array_equal(back.sample.weight, sample.weight)

    def test_name_count_enforced(self, tmp_path):
        from matlife.regression import RegressionSample
        sample = RegressionSample([1.0], [1], np.ones((1, 2)), [1.0])
        with pytest.raises(InvalidInputError):
            write_survival_csv(tmp_path / "s.csv", sample, names=["only_one"])

    def test_step_csv_layout(self, tmp_path):
        km = kaplan_meier([(1.0, 1), (2.0, 0), (3.0, 1)])
        path = tmp_path / "km.csv"
        write_step_csv(path, km)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "estimate", "lower", "upper"]
        assert float(rows[1][0]) == 0.0 and float(rows[1][1]) == 1.0
        assert float(rows[2][0]) == 1.0
        assert float(rows[2][1]) == km.values[0]
        assert float(rows[2][2]) == km.lower[0]
        assert float(rows[2][3]) == km.upper[0]

    def test_step_csv_missing_bounds_written_as_nan(self, tmp_path):
        from matlife.diagnostics import StepFunction
        step = StepFunction(np.array([1.0]), np.array([0.5]))
        path = tmp_path / "step.csv"
        write_step_csv(path, step)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[2][2] == "nan" and rows[2][3] == "nan"

    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(path, [-10.0, -8.5, -8.4], value_name="loglik")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "loglik"]
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3]
        assert float(rows[2][1]) == -8.5

    def test_residuals_csv(self, tmp_path):
        res = CoxSnellResiduals(np.array([0.5, 1.25]), np.array([1, 0]),
                                np.array([1.0, 2.0]))
        path = tmp_path / "resid.csv"
        write_residuals_csv(path, res)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["residual", "status", "weight"]
        assert float(rows[2][0]) == 1.25 and rows[2][1] == "0"

    def test_curve_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_curve_csv(path, [60, 61], [-4.0, -3.9], [-4.05, -3.85], "p2-gompertz")
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1] == ["60", "-4", "-4.0499999999999998", "p2-gompertz"]
        with pytest.raises(InvalidInputError):
            write_curve_csv(path, [60], [-4.0, -3.9], [-4.0, -3.9], "x")

    def test_lee_carter_csv(self, tmp_path):
        rng = np.random.default_rng(2)
        fit = lee_carter_fit(rng.normal(size=(5, 8)))
        p, ix = tmp_path / "profile.csv", tmp_path / "index.csv"
        write_lee_carter_csv(p, ix, np.arange(5), np.arange(1990, 1998), fit)
        with open(p, newline="") as fh:
            prows = list(csv.reader(fh))
        with open(ix, newline="") as fh:
            irows = list(csv.reader(fh))
        assert len(prows) == 6 and len(irows) == 9
        assert float(prows[1][2]) == fit.b[0]
        assert float(irows[1][1]) == fit.k[0]
        with pytest.raises(InvalidInputError):
            write_lee_carter_csv(p, ix, np.arange(4), np.arange(8), fit)


#: cells that stress the %.17g formatting
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1]
#: the subset a survival sample accepts as a time or weight
POSITIVE = [5e-324, 1.7976931348623157e308, 0.1]
#: header names csv.writer has to quote
AWKWARD = ["a,b", 'say "hi"', ""]


def g(value):
    return "%.17g" % float(value)


def reference_text(header, rows):
    """What csv.writer writes for these already formatted cells."""
    buf = stringio.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode()


def cells(n, pool, seed):
    """``n`` floats: every value of ``pool`` first, then random ones."""
    rng = np.random.default_rng(seed)
    out = rng.normal(scale=10.0, size=n)
    k = min(n, len(pool))
    out[:k] = pool[:k]
    return out


ROW_COUNTS = [0, 1, _BLOCK_ROWS + 1]


class TestWritersByteExact:
    """Every writer against csv.writer with ``%.17g`` on each cell."""

    @pytest.mark.parametrize("n", [1, len(POSITIVE), _BLOCK_ROWS + 1])
    def test_survival(self, tmp_path, n):
        y = np.abs(cells(n, POSITIVE, 1)) + 0.0
        w = np.abs(cells(n, POSITIVE[::-1], 2)) + 0.0
        x = np.stack([cells(n, SPECIAL[3:], 3), cells(n, [], 4)], axis=1)
        delta = np.arange(n) % 2
        sample = RegressionSample(y, delta, x, w)
        path = tmp_path / "s.csv"
        write_survival_csv(path, sample, names=AWKWARD[:2])
        want = reference_text(
            ["time", "status", "weight", *AWKWARD[:2]],
            [[g(y[i]), int(delta[i]), g(w[i]), g(x[i, 0]), g(x[i, 1])]
             for i in range(n)])
        assert path.read_bytes() == want

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("bounds", [True, False])
    def test_step(self, tmp_path, n, bounds):
        lower = cells(n, SPECIAL, 6) if bounds else None
        upper = cells(n, SPECIAL[::-1], 7) if bounds else None
        step = StepFunction(np.arange(1.0, n + 1), cells(n, SPECIAL, 5),
                            initial=0.1, lower=lower, upper=upper)
        path = tmp_path / "step.csv"
        write_step_csv(path, step)
        rows = [[g(0.0), g(0.1), g(0.1), g(0.1)]]
        for i in range(n):
            rows.append([g(step.times[i]), g(step.values[i]),
                         g(lower[i]) if bounds else "nan",
                         g(upper[i]) if bounds else "nan"])
        want = reference_text(["time", "estimate", "lower", "upper"], rows)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_trace(self, tmp_path, n):
        values = cells(n, SPECIAL, 8)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, values, value_name=AWKWARD[0])
        want = reference_text(["iteration", AWKWARD[0]],
                              [[i + 1, g(v)] for i, v in enumerate(values)])
        assert path.read_bytes() == want

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_residuals(self, tmp_path, n):
        res = CoxSnellResiduals(cells(n, SPECIAL, 9), np.arange(n) % 2,
                                cells(n, SPECIAL[::-1], 10))
        path = tmp_path / "resid.csv"
        write_residuals_csv(path, res)
        want = reference_text(
            ["residual", "status", "weight"],
            [[g(res.residual[i]), int(res.delta[i]), g(res.weight[i])]
             for i in range(n)])
        assert path.read_bytes() == want

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("model_id", ["p2-gompertz", 'a,"b"', "100%", ""])
    def test_curve(self, tmp_path, n, model_id):
        ages = np.arange(n) + 20
        observed, fitted = cells(n, SPECIAL, 11), cells(n, SPECIAL[::-1], 12)
        path = tmp_path / "curve.csv"
        write_curve_csv(path, ages, observed, fitted, model_id)
        want = reference_text(
            ["age", "observed_log_mx", "fitted_log_mx", "model_id"],
            [[int(ages[i]), g(observed[i]), g(fitted[i]), model_id]
             for i in range(n)])
        assert path.read_bytes() == want

    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_lee_carter(self, tmp_path, n):
        fit = LeeCarterFit(cells(n, SPECIAL, 13), cells(n, SPECIAL[::-1], 14),
                           cells(n + 1, SPECIAL, 15))
        ages, years = np.arange(n), np.arange(1950, 1951 + n)
        p, ix = tmp_path / "profile.csv", tmp_path / "index.csv"
        write_lee_carter_csv(p, ix, ages, years, fit)
        assert p.read_bytes() == reference_text(
            ["age", "level", "loading"],
            [[int(ages[i]), g(fit.a[i]), g(fit.b[i])] for i in range(n)])
        assert ix.read_bytes() == reference_text(
            ["year", "index"],
            [[int(years[j]), g(fit.k[j])] for j in range(n + 1)])


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
finite = st.floats(allow_nan=False, allow_infinity=False)


def decorate(cell, how):
    """One way a hand-edited file may spell ``cell``."""
    return {"plain": cell, "padded": f" {cell}\t", "quoted": f'"{cell}"',
            "quoted_padded": f'" {cell} "'}[how]


class TestReadRoundTrip:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_read_of_write_is_bitwise(self, data, tmp_path_factory):
        n = data.draw(st.integers(1, 12))
        d = data.draw(st.integers(0, 2))
        y = data.draw(st.lists(positive, min_size=n, max_size=n))
        w = data.draw(st.lists(positive, min_size=n, max_size=n))
        delta = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        x = np.array(data.draw(st.lists(finite, min_size=n * d,
                                        max_size=n * d))).reshape(n, d)
        names = ["group", "a,b", 'say "hi"'][:d]
        sample = RegressionSample(y, delta, x, w)
        path = tmp_path_factory.mktemp("rt") / "s.csv"
        write_survival_csv(path, sample, names=names)

        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        how = data.draw(st.lists(
            st.sampled_from(["plain", "padded", "quoted", "quoted_padded"]),
            min_size=len(rows[0]), max_size=len(rows[0])))
        header = ",".join('"' + c.replace('"', '""') + '"' for c in rows[0])
        body = [",".join(decorate(c, h) for c, h in zip(row, how))
                for row in rows[1:]]
        newline = data.draw(st.sampled_from(["\n", "\r\n"]))
        path.write_bytes(newline.join([header, *body, ""]).encode())

        back = read_survival_csv(path)
        assert back.covariate_names == names
        for name in ("y", "delta", "x", "weight"):
            got, want = getattr(back.sample, name), getattr(sample, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
