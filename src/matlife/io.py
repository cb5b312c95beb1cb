"""Model persistence and CSV interchange.

Models serialize to JSON with full-precision floats, so a save/load cycle
reproduces every parameter bitwise.  CSV exports use ``%.17g`` for the same
reason.  Only the plain families of :data:`~matlife.inhomogeneity.FAMILIES`
with a scalar parameter serialize; the shifted and scaled wrappers describe
derived models and are rebuilt on demand instead.

Table work is columnar.  Survival CSVs and life tables share one reader:
the body in one ``numpy.loadtxt`` pass, and only when that fails a
line-by-line scan for the line to report.  Every writer goes through one
formatter that writes the header with ``csv.writer`` and then the rows in
fixed-size blocks, one ``%``-format per row over column slices.
"""

from __future__ import annotations

import csv
import io
import json
import string
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInputError, TableParseError
from .inhomogeneity import _plain_params, make_transform, transform_family
from .phasetype import IPHModel, PHRepresentation
from .regression import PIModel, RegressionSample

__all__ = [
    "model_to_dict",
    "model_from_dict",
    "save_model",
    "load_model",
    "SurvivalData",
    "read_survival_csv",
    "write_survival_csv",
    "write_step_csv",
    "write_trace_csv",
    "write_residuals_csv",
    "write_curve_csv",
    "write_lee_carter_csv",
]


def model_to_dict(model) -> dict:
    """JSON-ready description of a lifetime or regression model."""
    if isinstance(model, PIModel):
        return {
            "kind": "regression",
            "pi": model.rep.pi.tolist(),
            "T": model.rep.T.tolist(),
            "family": model.family,
            "beta": model.beta.tolist(),
            "gamma": None if model.gamma is None else model.gamma.tolist(),
            "link": model.link,
            "standardization": model.standardization,
        }
    if isinstance(model, IPHModel):
        params = _plain_params(model.transform)
        return {
            "kind": "lifetime",
            "pi": model.rep.pi.tolist(),
            "T": model.rep.T.tolist(),
            "family": model.transform.family,
            "params": {name: float(value) for name, value in params.items()},
        }
    raise InvalidInputError("model must be a lifetime or regression model")


def model_from_dict(data: dict):
    """Rebuild a model saved by ``model_to_dict``.  A missing or damaged
    field raises :class:`InvalidInputError`."""
    try:
        kind, family = data["kind"], data["family"]
        rep = PHRepresentation(np.asarray(data["pi"], dtype=float),
                               np.asarray(data["T"], dtype=float))
        if kind == "lifetime":
            name = transform_family(family).param_name
            param = None if name is None else float(data["params"][name])
            return IPHModel(rep, make_transform(family, param))
        if kind == "regression":
            gamma = data.get("gamma")
            return PIModel(rep, family, np.asarray(data["beta"], dtype=float),
                           None if gamma is None else np.asarray(gamma, dtype=float),
                           data.get("link", "exp"), data.get("standardization"))
    except InvalidInputError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidInputError(f"malformed model description: {err}") from None
    raise InvalidInputError(f"unknown model kind {kind!r}")


def save_model(path, model) -> None:
    """Write ``model`` as JSON in one call.  The text is built before the
    file is opened, so a model that does not serialize (which raises
    :class:`InvalidInputError`) leaves any file at ``path`` as it was."""
    text = json.dumps(model_to_dict(model), indent=2, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as err:  # not JSON, or not UTF-8
            raise InvalidInputError(f"not a model file: {err}") from None
    return model_from_dict(data)


class SurvivalData(NamedTuple):
    """Sample plus the covariate column names it was read with."""

    sample: RegressionSample
    covariate_names: list


#: rows per write call and lines per life-table read; bounds text held in memory
_BLOCK_ROWS = 4096

#: characters a line may consist of and still count as blank
_BLANK = string.whitespace + ","


def _read_text(source) -> str:
    """The whole text of a path, or of an object with a ``read`` method.
    Bytes that are not UTF-8 raise :class:`InvalidInputError`; a file's
    leading byte-order mark, as spreadsheet programs write it, is dropped."""
    try:
        if hasattr(source, "read"):
            return source.read()
        with open(source, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as err:
        name = getattr(source, "name", source)
        raise InvalidInputError(f"{name} is not UTF-8 text: {err}") from None


def _read_rows(lines, numbers, width, delimiter=",", dtype=float,
               convert=lambda cells: cells):
    """The data ``lines`` of a numeric text table, read in one numpy pass.

    Rows hold ``width`` fields split at ``delimiter`` (a comma follows the
    csv quoting rules, ``None`` splits on whitespace and skips blank lines).
    A plain ``dtype`` gives a 2-D array; a record ``dtype`` gives records,
    which ``convert`` turns into the caller's columns, raising ``ValueError``
    for a row it refuses.  Only when the pass fails does a line-by-line scan
    name the first line that fails alone, by its number from ``numbers()``.
    """
    record = np.dtype(dtype).names is not None

    def read(chunk):
        if not any(map(str.strip, chunk)):  # numpy warns on empty input
            return convert(np.empty(0, dtype))
        cells = np.loadtxt(chunk, dtype=dtype, delimiter=delimiter, comments=None,
                           quotechar='"' if delimiter == "," else None,
                           ndmin=1 if record else 2)
        if not record and cells.shape != (len(chunk), width):
            raise ValueError(f"expected {width} fields, got {cells.shape[1]}")
        return convert(cells)

    try:
        return read(lines)
    except ValueError:
        pass
    numbers = numbers()
    for number, line in zip(numbers, lines):
        if delimiter == "," and line.count('"') % 2:
            # numpy would carry the quoted cell on into the next line
            raise TableParseError(number, "quoted cell runs past the line end")
        if record and (got := len(line.split(delimiter))) not in (0, width):
            raise TableParseError(number, f"expected {width} fields, got {got}")
        try:
            read([line])
        except ValueError as err:
            # numpy counts rows within the single line it was given
            raise TableParseError(number, str(err).split(" at row ")[0]) from None
    raise TableParseError(numbers[0], "rows do not parse as numbers")


def read_survival_csv(source) -> SurvivalData:
    """Read observations from CSV with columns time, status[, weight], x...

    ``time`` and ``status`` are required, ``weight`` is optional, and every
    remaining column is a covariate (kept in file order).  Header matching is
    case-insensitive.  Lines holding only whitespace and commas are skipped.
    The header follows the csv quoting rules; the body is parsed in one
    numpy pass, so every cell must be a number numpy reads (digit
    underscores are refused) and every status exactly 0 or 1.
    :class:`TableParseError` carries the physical line number of the first
    offending line.
    """
    lines = _read_text(source).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [line for line in lines if line.strip(_BLANK)]
    if not rows:
        raise TableParseError(1, "empty file")

    def numbers():
        """Physical line numbers of ``rows``."""
        return [i for i, line in enumerate(lines, start=1) if line.strip(_BLANK)]

    header = [cell.strip() for cell in next(csv.reader(rows[:1]))]
    lowered = [cell.lower() for cell in header]
    if "time" not in lowered or "status" not in lowered:
        raise TableParseError(numbers()[0],
                              "header must name time and status columns")
    pos_time = lowered.index("time")
    pos_status = lowered.index("status")
    pos_weight = lowered.index("weight") if "weight" in lowered else None
    special = {pos_time, pos_status}
    if pos_weight is not None:
        special.add(pos_weight)
    cov_pos = [i for i in range(len(header)) if i not in special]
    names = [header[i] for i in cov_pos]

    body = rows[1:]
    if not body:
        raise TableParseError(numbers()[0], "no data rows")
    table = _read_rows(body, lambda: numbers()[1:], len(header))
    status = table[:, pos_status]
    off = np.flatnonzero((status != 0.0) & (status != 1.0))
    if off.size:
        raise TableParseError(numbers()[1 + off[0]],
                              f"status must be 0 or 1, got {float(status[off[0]])!r}")
    weight = np.ones(len(body)) if pos_weight is None else table[:, pos_weight]
    sample = RegressionSample(table[:, pos_time], status.astype(int),
                              np.ascontiguousarray(table[:, cov_pos]), weight)
    return SurvivalData(sample, names)


def _csv_cell(text: str) -> str:
    """``text`` as ``csv.writer`` writes it inside a row."""
    buf = io.StringIO()
    # a trailing empty field keeps a lone empty string from being quoted
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _write_table(path, header, row_fmt: str, columns) -> None:
    """Write ``header``, then one ``row_fmt % row`` line per row of ``columns``.

    ``columns`` are equal-length 1-D arrays; rows go out in blocks of
    :data:`_BLOCK_ROWS`, so memory stays bounded for long tables.  Each
    block is one ``%`` operation over its cells in row order.
    """
    n, k = len(columns[0]), len(columns)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for lo in range(0, n, _BLOCK_ROWS):
            rows = min(_BLOCK_ROWS, n - lo)
            cells = [None] * (rows * k)
            for j, col in enumerate(columns):
                cells[j::k] = col[lo:lo + rows].tolist()
            fh.write((row_fmt * rows) % tuple(cells))


def write_survival_csv(path, sample: RegressionSample, names=None) -> None:
    """Write a sample with columns time, status, weight, covariates."""
    names = list(names) if names is not None else [
        f"x{i + 1}" for i in range(sample.d)]
    if len(names) != sample.d:
        raise InvalidInputError("one name per covariate column is required")
    _write_table(path, ["time", "status", "weight", *names],
                 "%.17g,%d,%.17g" + ",%.17g" * sample.d + "\n",
                 [sample.y, sample.delta, sample.weight, *sample.x.T])


def write_step_csv(path, step) -> None:
    """Export an estimator as rows of time, estimate, lower, upper.

    A leading row anchors the curve at time zero; missing bounds write as
    ``nan``.
    """
    def column(arr):
        if arr is None:
            arr = np.full(step.times.size, np.nan)
        return np.r_[step.initial, arr]

    _write_table(path, ["time", "estimate", "lower", "upper"],
                 "%.17g,%.17g,%.17g,%.17g\n",
                 [np.r_[0.0, step.times], column(step.values),
                  column(step.lower), column(step.upper)])


def write_trace_csv(path, values, value_name: str = "loglik") -> None:
    values = np.asarray(values, dtype=float).ravel()
    _write_table(path, ["iteration", value_name], "%d,%.17g\n",
                 [np.arange(1, values.size + 1), values])


def write_residuals_csv(path, residuals) -> None:
    """Export fitted residuals with their censoring status and weight."""
    _write_table(path, ["residual", "status", "weight"], "%.17g,%d,%.17g\n",
                 [residuals.residual, residuals.delta, residuals.weight])


def write_curve_csv(path, ages, observed, fitted, model_id: str) -> None:
    ages = np.asarray(ages)
    observed = np.asarray(observed, dtype=float)
    fitted = np.asarray(fitted, dtype=float)
    if not (ages.size == observed.size == fitted.size):
        raise InvalidInputError("curve column lengths disagree")
    row_fmt = "%d,%.17g,%.17g," + _csv_cell(model_id).replace("%", "%%") + "\n"
    _write_table(path, ["age", "observed_log_mx", "fitted_log_mx", "model_id"],
                 row_fmt, [ages.ravel(), observed.ravel(), fitted.ravel()])


def write_lee_carter_csv(profile_path, index_path, ages, years, fit) -> None:
    """Export the age profile (level, loading) and the period index."""
    ages = np.asarray(ages)
    years = np.asarray(years)
    if ages.size != fit.a.size or years.size != fit.k.size:
        raise InvalidInputError("grid sizes disagree with the fit")
    _write_table(profile_path, ["age", "level", "loading"], "%d,%.17g,%.17g\n",
                 [ages.ravel(), fit.a, fit.b])
    _write_table(index_path, ["year", "index"], "%d,%.17g\n",
                 [years.ravel(), fit.k])
