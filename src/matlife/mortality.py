"""Life-table ingestion, implied-sample preprocessing, direct log-mortality
fitting, and the Lee-Carter baseline.

All lifetime models work on ages divided by 100; the conversion to per-year
mortality rates happens at the reporting boundary (``model_log_mortality``)
so tables and curves stay in years throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .em import CensoredSample, _pack_rep, _pattern, _unpack_rep
from .exceptions import (DomainError, InvalidInputError, ScoreOverflowError,
                         TableParseError)
from .inhomogeneity import _plain_params, make_transform, transform_family
from .io import _BLOCK_ROWS, _read_rows, _read_text
from .phasetype import IPHModel, _ages, _hazard
from .regression import PIModel, RegressionSample, _row_clock, _scores
from .regression import _pack as _pack_coefficients, _unpack as _unpack_coefficients

__all__ = [
    "LifeTable",
    "MortalityCurve",
    "load_table",
    "combine_tables",
    "log_rate_grid",
    "curve_from_table",
    "ImpliedSample",
    "implied_sample",
    "model_log_mortality",
    "DirectFitConfig",
    "DirectFitResult",
    "direct_fit",
    "free_parameter_count",
    "select_order",
    "LeeCarterFit",
    "lee_carter_fit",
]

#: internal age unit is one century
AGE_SCALE = 100.0

#: hazard floor applied before taking logs inside the direct-fit loss
HAZARD_FLOOR = 1e-300

#: direct-fit Nelder-Mead: offset of each initial simplex vertex on the log
#: scale, and the point and loss tolerances of one round
SIMPLEX_STEP = 0.1
NM_XATOL = 1e-8
NM_FATOL = 1e-10


@dataclass(frozen=True)
class LifeTable:
    """Rows of (year, age, deaths, exposure, central rate).

    Tables loaded from a single file carry ``nan`` in the columns the file
    does not provide; ``combine_tables`` fills the rate as deaths/exposure.
    ``dropped`` counts source rows discarded for missing or unusable values.
    """

    year: np.ndarray
    age: np.ndarray
    deaths: np.ndarray
    exposure: np.ndarray
    mx: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        year = np.asarray(self.year, dtype=int).ravel()
        age = np.asarray(self.age, dtype=int).ravel()
        deaths = np.asarray(self.deaths, dtype=float).ravel()
        exposure = np.asarray(self.exposure, dtype=float).ravel()
        mx = np.asarray(self.mx, dtype=float).ravel()
        sizes = {year.size, age.size, deaths.size, exposure.size, mx.size}
        if len(sizes) != 1:
            raise InvalidInputError("life table columns have unequal lengths")
        if year.size == 0:
            raise InvalidInputError("life table is empty")
        full = np.isfinite(deaths) & np.isfinite(exposure) & np.isfinite(mx)
        if full.any():
            implied = deaths[full] / exposure[full]
            if np.max(np.abs(implied - mx[full])) > 1e-9 * max(1.0, np.max(mx[full])):
                raise InvalidInputError("rates disagree with deaths/exposure")
        for name, arr in (("year", year), ("age", age), ("deaths", deaths),
                          ("exposure", exposure), ("mx", mx)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.year.size

    @property
    def years(self) -> np.ndarray:
        return np.unique(self.year)

    def select(self, year_from: int | None = None,
               year_to: int | None = None) -> "LifeTable":
        """Rows with year in the inclusive range; either end may be open."""
        keep = np.ones(self.n, dtype=bool)
        if year_from is not None:
            keep &= self.year >= year_from
        if year_to is not None:
            keep &= self.year <= year_to
        if not keep.any():
            raise InvalidInputError("no rows in the selected year range")
        return LifeTable(self.year[keep], self.age[keep], self.deaths[keep],
                         self.exposure[keep], self.mx[keep], self.dropped)


@dataclass(frozen=True)
class MortalityCurve:
    """Per-age log central death rates on the yearly age grid."""

    ages: np.ndarray
    log_mortality: np.ndarray
    dropped: int = 0

    def __post_init__(self):
        ages = np.asarray(self.ages, dtype=int).ravel()
        vals = np.asarray(self.log_mortality, dtype=float).ravel()
        if ages.size != vals.size:
            raise InvalidInputError("ages and values lengths disagree")
        if ages.size == 0:
            raise InvalidInputError("curve is empty")
        if np.any(np.diff(ages) <= 0):
            raise InvalidInputError("ages must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise InvalidInputError("log mortality must be finite")
        ages.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "ages", ages)
        object.__setattr__(self, "log_mortality", vals)


_KIND_COLUMNS = {"rates": "mx", "deaths": "deaths", "exposures": "exposure"}


def load_table(source, kind: str = "rates", column: str = "Female") -> LifeTable:
    """Parse a whitespace-delimited period table in the common 1x1 layout.

    The file starts with a free-text title, then a header naming at least
    ``Year`` and ``Age`` plus value columns (typically Female, Male, Total).
    The open age group ``110+`` maps to 110; missing values written as ``.``
    drop the row and are counted in ``dropped``.  Age and value cells follow
    Python's ``int`` and ``float``, Year cells numpy's integer parser (no
    digit underscores or non-ASCII digits); other columns are only counted.

    ``kind`` declares what the value column holds: central death rates,
    death counts, or exposures.
    """
    if kind not in _KIND_COLUMNS:
        raise InvalidInputError(f"unknown table kind {kind!r}")
    lines = _read_text(source).splitlines()

    for number, line in enumerate(lines, start=1):
        names = line.split()
        if "Year" in names and "Age" in names:
            break
    else:
        raise TableParseError(1, "no header line naming Year and Age")
    if column not in names:
        raise TableParseError(number, f"column {column!r} not in header {names}")
    # Age and the value column stay text for the rules below
    year, age, value = (f"c{names.index(name)}" for name in ("Year", "Age", column))
    formats = {f"c{i}": "U1" for i in range(len(names))}
    formats[year] = "i8"
    formats[age] = formats[value] = "O"
    dtype = np.dtype(list(formats.items()))

    def rules(cells):
        tokens = cells[age].tolist()
        # each distinct token is read once; the open group "110+" reads as 110
        read = {token: int(token[:-1] if token.endswith("+") else token)
                for token in set(tokens)}
        keep = cells[value] != "."
        try:
            ages = np.fromiter(map(read.__getitem__, tokens), int, len(tokens))
        except OverflowError:  # a ValueError lets _read_rows name the line
            raise ValueError("age beyond the int64 range") from None
        return (cells[year].astype(int)[keep], ages[keep],
                cells[value][keep].astype(float), ~keep)

    # block by block, so that the text cells of one block are alive at a
    # time; an empty body is one empty block
    starts = range(number, len(lines), _BLOCK_ROWS) or [number]
    blocks = [_read_rows(lines[lo:lo + _BLOCK_ROWS],
                         lambda lo=lo: range(lo + 1, len(lines) + 1), len(names),
                         delimiter=None, dtype=dtype, convert=rules) for lo in starts]
    years, ages, values, missing = map(np.concatenate, zip(*blocks))
    if not years.size:
        raise TableParseError(len(lines), "no data rows")
    cols = dict.fromkeys(("deaths", "exposure", "mx"), np.full(years.size, np.nan))
    cols[_KIND_COLUMNS[kind]] = values
    return LifeTable(years, ages, **cols, dropped=np.count_nonzero(missing))


def _last_rows(year, age):
    """Index of the last row of each (year, age) pair, in (year, age) order."""
    order = np.lexsort((age, year))
    year, age = year[order], age[order]
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (year[1:] != year[:-1]) | (age[1:] != age[:-1])
    return order[last]


def combine_tables(deaths: LifeTable, exposures: LifeTable) -> LifeTable:
    """Match death and exposure rows on (year, age) and form central rates.

    Of a (year, age) pair repeated within one table, the last row counts.
    Pairs present in only one table, or with nonpositive exposure, are
    dropped and counted.  Rows come out in (year, age) order.
    """
    d_rows = _last_rows(deaths.year, deaths.age)
    e_rows = _last_rows(exposures.year, exposures.age)
    if not np.isfinite(deaths.deaths[d_rows]).any():
        raise InvalidInputError("first table carries no death counts")
    if not np.isfinite(exposures.exposure[e_rows]).any():
        raise InvalidInputError("second table carries no exposures")
    # both row lists run in (year, age) order without repeats, so the stable
    # merge puts a pair's death row right before its exposure row
    year = np.concatenate([deaths.year[d_rows], exposures.year[e_rows]])
    age = np.concatenate([deaths.age[d_rows], exposures.age[e_rows]])
    order = np.lexsort((age, year))
    year, age = year[order], age[order]
    pair = np.flatnonzero((year[1:] == year[:-1]) & (age[1:] == age[:-1]))
    d = deaths.deaths[d_rows[order[pair]]]
    e = exposures.exposure[e_rows[order[pair + 1] - d_rows.size]]
    usable = np.isfinite(d) & np.isfinite(e) & (e > 0) & (d >= 0)
    if not usable.any():
        raise InvalidInputError("no usable (year, age) pairs in common")
    dropped = (deaths.dropped + exposures.dropped + year.size - 2 * pair.size
               + np.count_nonzero(~usable))
    d, e, pair = d[usable], e[usable], pair[usable]
    return LifeTable(year[pair], age[pair], d, e, d / e, dropped)


def log_rate_grid(table: LifeTable, year_from: int | None = None,
                  year_to: int | None = None):
    """Ages, years, the (age by year) grid of log central rates that
    :func:`lee_carter_fit` takes, and the count of ages skipped for a gap.

    Rows whose rate is missing or not positive are left out, and of a
    repeated (year, age) pair the last remaining row counts.  Only ages with
    a rate in every selected year enter the grid; ages and years increase.
    """
    sub = table.select(year_from, year_to)
    years = sub.years
    ok = np.flatnonzero(np.isfinite(sub.mx) & (sub.mx > 0))
    rows = ok[_last_rows(sub.year[ok], sub.age[ok])]
    ages, index, count = np.unique(sub.age[rows], return_inverse=True,
                                   return_counts=True)
    complete = count == years.size
    if not complete.any():
        raise DomainError("no age has positive rates in every selected year")
    # each selected year holds every complete age once, in age order
    rates = sub.mx[rows[complete[index]]].reshape(years.size, -1)
    grid = np.ascontiguousarray(np.log(rates).T)
    return ages[complete], years, grid, ages.size - np.count_nonzero(complete)


def _aggregate_rates(table: LifeTable, year_from, year_to):
    """Per-age rate over the selected years, exposure-weighted when present.

    Without counts it is the mean of the rates that are not NaN at each age,
    and NaN where an age has none."""
    sub = table.select(year_from, year_to)
    ages, group = np.unique(sub.age, return_inverse=True)
    have_counts = np.all(np.isfinite(sub.deaths)) and np.all(np.isfinite(sub.exposure))
    if have_counts:
        num = np.bincount(group, sub.deaths, ages.size)
        den = np.bincount(group, sub.exposure, ages.size)
    else:
        present = ~np.isnan(sub.mx)
        num = np.bincount(group, np.where(present, sub.mx, 0.0), ages.size)
        den = np.bincount(group, present, ages.size)
    m = np.full(ages.size, np.nan)
    np.divide(num, den, out=m, where=den > 0)
    return ages, m


def curve_from_table(table: LifeTable, year_from: int | None = None,
                     year_to: int | None = None) -> MortalityCurve:
    """Aggregate a year range into one log-mortality curve.

    Ages whose aggregate rate is zero or undefined cannot enter the log
    loss; they are dropped and counted.
    """
    ages, m = _aggregate_rates(table, year_from, year_to)
    good = np.isfinite(m) & (m > 0)
    if not good.any():
        raise DomainError("no positive mortality rates in the selection")
    return MortalityCurve(ages[good], np.log(m[good]), int(np.sum(~good)))


@dataclass(frozen=True)
class ImpliedSample:
    """Per-age pseudo-observations implied by aggregated mortality rates.

    One observation per age at the midpoint (in century units) with the
    implied probability mass as weight; all observations count as deaths.
    """

    age: np.ndarray
    y: np.ndarray
    weight: np.ndarray
    dropped: int = 0

    @property
    def n(self) -> int:
        return self.y.size

    def as_censored_sample(self) -> CensoredSample:
        return CensoredSample(self.y, np.ones(self.n, dtype=int), self.weight)

    def as_regression_sample(self) -> RegressionSample:
        return RegressionSample(self.y, np.ones(self.n, dtype=int),
                                np.empty((self.n, 0)), self.weight)


def implied_sample(table: LifeTable, year_from: int | None = None,
                   year_to: int | None = None) -> ImpliedSample:
    """Turn aggregated rates into a weighted sample of age midpoints.

    Surviving the rates year by year gives each age a death mass
    ``S_a (1 - exp(-m_a))``; masses are normalized to sum to one and ages
    with zero mass are dropped with a count.  The observation at age ``a``
    sits at ``(a + 0.5) / 100``.
    """
    ages, m = _aggregate_rates(table, year_from, year_to)
    m = np.where(np.isfinite(m) & (m > 0), m, 0.0)
    surv = np.exp(-np.concatenate([[0.0], np.cumsum(m[:-1])]))
    mass = surv * (-np.expm1(-m))
    total = mass.sum()
    if total <= 0:
        raise DomainError("no mortality mass in the selection")
    keep = mass > 0
    return ImpliedSample(ages[keep], (ages[keep] + 0.5) / AGE_SCALE,
                         mass[keep] / total, int(np.sum(~keep)))


def model_log_mortality(model, ages, x_row=None, age_scale: str = "years"):
    """Log mortality rate of a fitted model on an age grid.

    With ``age_scale="years"`` the ages are divided by 100 before evaluation
    and the result converts to a per-year rate (subtracting log 100); with
    ``"model"`` the ages pass through unchanged and the rate stays on the
    internal scale.  Regression models require the covariate row whenever
    they carry covariates.
    """
    if age_scale not in ("years", "model"):
        raise InvalidInputError(f"unknown age scale {age_scale!r}")
    ages = np.asarray(ages, dtype=float)
    internal = ages / AGE_SCALE if age_scale == "years" else ages
    if isinstance(model, PIModel):
        if x_row is None and model.d > 0:
            raise InvalidInputError("regression model needs a covariate row")
        cond = model.conditional_model(np.zeros(0) if x_row is None else x_row)
        hazard = cond.evaluate(internal).hazard
    elif isinstance(model, IPHModel):
        hazard = model.evaluate(internal).hazard
    else:
        raise InvalidInputError("model must be a lifetime or regression model")
    with np.errstate(divide="ignore"):
        out = np.log(hazard)
    if age_scale == "years":
        out = out - np.log(AGE_SCALE)
    return out


# --- direct minimization of the squared log-mortality loss ------------------


@dataclass(frozen=True)
class DirectFitConfig:
    max_evals: int = 2000    # per optimizer round
    restarts: int = 2        # extra rounds with a refreshed simplex


@dataclass(frozen=True)
class DirectFitResult:
    model: object
    loss: float
    loss_trace: np.ndarray
    n_evaluations: int


def _clock_or_coefficients(model) -> np.ndarray:
    """The direct fit's coordinates after the representation's: the log
    clock parameter, or a regression model's coefficients."""
    if isinstance(model, PIModel):
        return _pack_coefficients(model.beta, model.gamma)
    return np.log(list(_plain_params(model.transform).values()))


def _pack(model, layout) -> np.ndarray:
    return np.concatenate([_pack_rep(model.rep, layout), _clock_or_coefficients(model)])


def _unpack(vec: np.ndarray, model, layout):
    rep, rest = _unpack_rep(vec, layout)
    if isinstance(model, PIModel):
        gamma_len = 0 if model.gamma is None else model.gamma.size
        return PIModel(rep, model.family, *_unpack_coefficients(rest, model.d, gamma_len),
                       model.link, model.standardization)
    return IPHModel(rep, make_transform(model.transform.family, *np.exp(rest)))


def _normalize_curves(model, curves):
    """Return (x_row, curve) pairs for either model flavor."""
    if isinstance(model, PIModel):
        pairs = list(curves)
        if not pairs:
            raise InvalidInputError("no curves supplied")
        out = []
        for item in pairs:
            if isinstance(item, MortalityCurve):
                if model.d > 0:
                    raise InvalidInputError(
                        "regression model curves need covariate rows")
                out.append((np.zeros(0), item))
            else:
                x_row, curve = item
                x_row = np.atleast_1d(np.asarray(x_row, dtype=float))
                if x_row.shape != (model.d,):
                    raise InvalidInputError(
                        f"expected {model.d} covariates, got {x_row.size}")
                out.append((x_row, curve))
        return out
    if isinstance(curves, MortalityCurve):
        return [(None, curves)]
    out = [(None, c) for c in curves]
    if not out:
        raise InvalidInputError("no curves supplied")
    return out


def _loss(init, pairs, layout):
    """The loss of :func:`direct_fit` as a function of the packed
    coordinates on ``layout``: over the ``(x_row, curve)`` pairs, the sum of
    ``(max(log mu, log HAZARD_FLOOR) - m)^2``, with ``log mu`` bitwise
    :func:`model_log_mortality` of the model ``vec`` unpacks to, or ``+inf``
    once the sum is not finite, as any ``log mu`` that is not finite makes
    it.  The ages are scaled and checked once; a call builds the
    representation and each curve's clock and runs the hazard of
    :meth:`IPHModel.evaluate`.  Invalid coordinates raise as the model's
    construction would."""
    log_scale, log_floor = np.log(AGE_SCALE), np.log(HAZARD_FLOOR)
    curves = [(_ages(np.asarray(curve.ages, dtype=float) / AGE_SCALE),
               curve.log_mortality) for _, curve in pairs]
    if isinstance(init, PIModel):
        family, d = init.family, init.d
        gamma_len = 0 if init.gamma is None else init.gamma.size
        rows = [x_row[None, :] for x_row, _ in pairs]

        def clocks(rest):
            beta, gamma = _unpack_coefficients(rest, d, gamma_len)
            return (_row_clock(family, _scores(beta, gamma, x)) for x in rows)
    else:
        clock_family = transform_family(init.transform.family)

        def clocks(rest):
            return repeat(clock_family(*np.exp(rest)))

    def loss(vec) -> float:
        rep, rest = _unpack_rep(vec, layout)
        total = 0.0
        with np.errstate(divide="ignore"):
            for (ages, m), clock in zip(curves, clocks(rest)):
                hazard = _hazard(rep, clock.cumulative(ages), clock.intensity(ages))[2]
                logmu = np.maximum(np.log(hazard) - log_scale, log_floor)
                total += float(((logmu - m) ** 2).sum())
                if not total < np.inf:
                    return np.inf
        return total

    return loss


class _BudgetSpent(Exception):
    """An evaluation was asked for after the budget of a round ran out."""


def _nelder_mead(objective, simplex, max_evals: int, first_loss: float | None = None):
    """Minimize ``objective`` from the rows of ``simplex`` in at most
    ``max_evals`` evaluations; return the final vertices and losses, best first.
    A known ``first_loss`` of the first vertex stands in for its evaluation,
    which still counts toward ``max_evals``.

    This is scipy 1.17's non-adaptive, unbounded Nelder-Mead step for step:
    coefficients rho = 1, chi = 2, psi = sigma = 1/2, the same stop test on
    ``NM_XATOL`` and ``NM_FATOL``, the same default-kind ``argsort``
    reorderings (ties among ``inf`` losses order alike), and an iteration or
    shrink cut off at the evaluation where scipy's budget cuts it.  So it
    evaluates the same points in the same order.  ``objective`` must not
    modify the point it is given.
    """
    evals = 0

    def f(x):
        nonlocal evals
        if evals >= max_evals:
            raise _BudgetSpent
        evals += 1
        return objective(x)

    sim = np.array(simplex, dtype=float)
    n = sim.shape[1]
    fsim = np.full(n + 1, np.inf)
    if first_loss is not None:
        evals, fsim[0] = 1, first_loss
    try:
        for k in range(evals, n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):  # scipy sorts twice here, which can reorder tied losses
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)

    while evals < max_evals:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= NM_XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= NM_FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]  # reflection
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]  # expansion
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim, fsim


def direct_fit(init, curves, config: DirectFitConfig | None = None) -> DirectFitResult:
    """Minimize the squared log-mortality loss from a valid starting model.

    The sparsity pattern of the starting model is frozen: only its strictly
    positive rates move, on a log scale, with the free start weights mapped
    through a softmax, so every iterate is a valid model.  Nelder-Mead runs
    ``restarts + 1`` rounds, each starting from the best point found so far
    with a fresh simplex.  The final loss never exceeds the initial loss.

    The optimizer is the in-house :func:`_nelder_mead`, a step-for-step port
    of scipy's non-adaptive Nelder-Mead: it evaluates the points scipy's
    ``minimize(method="Nelder-Mead")`` evaluates with the same simplex,
    ``maxfev``, ``xatol`` and ``fatol``, so models, losses, traces and
    evaluation counts are bitwise those of the scipy-driven fit.  The first
    vertex of each round is the round's start, whose loss is known, so it
    is counted but not evaluated again.
    """
    config = config or DirectFitConfig()
    if config.max_evals < 1:
        raise InvalidInputError("max_evals must be at least one")
    if config.restarts < 0:
        raise InvalidInputError("restarts must not be negative")
    pairs = _normalize_curves(init, curves)
    layout = _pattern(init)
    x0 = _pack(init, layout)

    loss = _loss(init, pairs, layout)
    evals = [0]
    trace = []

    # baseline through the pack/unpack round trip so the returned model's
    # loss is exactly the reported best, never an ulp above it
    best = {"f": loss(x0), "x": x0}
    trace.append(best["f"])
    if not np.isfinite(best["f"]):
        raise InvalidInputError("starting model has non-finite loss")

    def objective(vec):
        evals[0] += 1
        try:
            f = loss(vec)
        except (InvalidInputError, OverflowError, ScoreOverflowError):
            return np.inf
        if f < best["f"]:
            best["f"] = f
            best["x"] = vec.copy()
            trace.append(f)
        return f

    for _ in range(config.restarts + 1):
        x_start = best["x"]
        simplex = np.vstack([x_start, x_start + SIMPLEX_STEP * np.eye(x_start.size)])
        previous = best["f"]
        # the first vertex is the start, whose loss is known; it still counts
        evals[0] += 1
        _nelder_mead(objective, simplex, config.max_evals, previous)
        if previous - best["f"] <= NM_FATOL * max(1.0, abs(previous)):
            break

    fitted = _unpack(best["x"], init, layout)
    return DirectFitResult(fitted, best["f"], np.asarray(trace), evals[0])


def free_parameter_count(model) -> int:
    """Number of free parameters in a fitted model's active pattern.

    Counts the strictly positive transition and exit rates, the free start
    weights (one less than the positive entries), the transform parameter,
    and any regression coefficients.  Matches what direct fitting moves and
    what information criteria should charge for.
    """
    return _pattern(model).count() + _clock_or_coefficients(model).size


def select_order(losses, orders=None, threshold: float = 1e-3) -> int:
    """Pick the last order before loss improvement falls under ``threshold``.

    ``losses`` are final losses for increasing model orders; ``orders``
    defaults to 1, 2, ....  Scanning forward, the first relative improvement
    below the threshold stops the search and the previous order wins; if
    that never happens the largest order is returned.
    """
    losses = np.asarray(losses, dtype=float).ravel()
    if losses.size == 0:
        raise InvalidInputError("no losses supplied")
    orders = (np.arange(1, losses.size + 1) if orders is None
              else np.asarray(orders).ravel())
    if orders.size != losses.size:
        raise InvalidInputError("orders and losses lengths disagree")
    for i in range(1, losses.size):
        previous = losses[i - 1]
        if previous == 0 or (previous - losses[i]) / abs(previous) < threshold:
            return int(orders[i - 1])
    return int(orders[-1])


# --- Lee-Carter baseline -----------------------------------------------------


@dataclass(frozen=True)
class LeeCarterFit:
    """Additive age effect, age loading and period index.

    Identification: loadings sum to one, the period index sums to zero.
    """

    a: np.ndarray
    b: np.ndarray
    k: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.a[:, None] + np.outer(self.b, self.k)


def lee_carter_fit(log_m) -> LeeCarterFit:
    """Rank-one decomposition of a log-mortality matrix (age by year).

    The age effect is the row mean; the loading and index come from the
    leading singular triplet of the centered matrix.  A centered matrix of
    (numerically) zero norm yields uniform loadings and a zero index.
    """
    m = np.asarray(log_m, dtype=float)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise InvalidInputError("expected a 2-d age by year matrix")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError("matrix entries must be finite")
    a = m.mean(axis=1)
    centered = m - a[:, None]
    u, s, vt = np.linalg.svd(centered, full_matrices=False)
    scale = max(1.0, float(np.abs(m).max()))
    if s[0] <= 1e-14 * scale:
        return LeeCarterFit(a, np.full(m.shape[0], 1.0 / m.shape[0]),
                            np.zeros(m.shape[1]))
    usum = u[:, 0].sum()
    if abs(usum) < 1e-14:
        raise DomainError("leading loading has zero sum; identification fails")
    b = u[:, 0] / usum
    k = s[0] * vt[0] * usum
    shift = k.mean()
    k = k - shift
    a = a + b * shift
    return LeeCarterFit(a, b, k)
