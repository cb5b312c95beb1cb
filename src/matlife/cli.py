"""Command-line entry points.

Each subcommand reads plain files, writes its outputs under ``--out-dir``
and prints a one-line summary per result.  Exit codes: 0 on success, 2 for
argument, parsing or validation problems, 3 when the numerics fail on valid
input.  Runs are deterministic for a fixed ``--seed``.

A JSON file passed as ``--config`` supplies defaults for any long option
(keys use underscores, e.g. ``{"order": 3, "tol": 1e-6}``); explicit flags
win over the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

import numpy as np

from .diagnostics import (
    band_coverage,
    cox_snell_residuals,
    information_criteria,
    kaplan_meier,
    na_slope,
    nelson_aalen,
    simulate_study,
)
from .em import CensoredSample, EMConfig, StructureSpec, fit_ph
from .exceptions import (
    DeadStateError,
    DegenerateObservationError,
    DomainError,
    InvalidInputError,
    ScoreOverflowError,
    TableParseError,
)
from .inhomogeneity import make_transform
from .io import (
    load_model,
    read_survival_csv,
    save_model,
    write_curve_csv,
    write_lee_carter_csv,
    write_residuals_csv,
    write_step_csv,
    write_survival_csv,
    write_trace_csv,
)
from .mortality import (
    DirectFitConfig,
    combine_tables,
    curve_from_table,
    direct_fit,
    free_parameter_count,
    implied_sample,
    lee_carter_fit,
    load_table,
    log_rate_grid,
    model_log_mortality,
)
from .phasetype import IPHModel
from .regression import STEP_BUDGET, PIFitConfig, PIModel, fit_pi, pi_loglik

_PARSE_ERRORS = (TableParseError, InvalidInputError, FileNotFoundError,
                 IsADirectoryError, PermissionError)
_NUMERIC_ERRORS = (DegenerateObservationError, DeadStateError,
                   ScoreOverflowError, DomainError)

_STRUCTURES = ("general", "coxian", "generalized_coxian")
_FAMILIES = ("identity", "gompertz", "weibull")


def _add_common(sub):
    sub.add_argument("--out-dir", default=None,
                     help="directory for output files (default: current)")
    sub.add_argument("--seed", type=int, default=None,
                     help="random seed (default 0)")
    sub.add_argument("--config", default=None,
                     help="JSON file with default option values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matlife",
        description="Lifetime models built from absorbing Markov chains: "
                    "fitting, simulation, diagnostics and mortality curves.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit-ph", help="fit a homogeneous lifetime model by EM")
    p.add_argument("data", help="CSV with time,status[,weight] columns")
    p.add_argument("--order", type=int, default=None, help="number of states")
    p.add_argument("--structure", choices=_STRUCTURES, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_ph)

    p = subs.add_parser("fit-pi", help="fit a regression model with covariates")
    p.add_argument("data", help="CSV with time,status[,weight],covariates")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--structure", choices=_STRUCTURES, default=None)
    p.add_argument("--family", choices=_FAMILIES, default=None)
    p.add_argument("--shape-covariates", action="store_const", const=True,
                   default=None, help="regress the transform parameter on "
                                      "the covariates as well")
    p.add_argument("--max-outer", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--patience", type=int, default=None)
    p.add_argument("--nm-budget", type=int, default=None,
                   help="objective-and-gradient evaluations per coefficient "
                        f"step (default {STEP_BUDGET})")
    _add_common(p)
    p.set_defaults(func=_cmd_fit_pi)

    p = subs.add_parser("fit-mortality",
                        help="fit a lifetime model to a period life table")
    p.add_argument("table", help="rates table, or deaths table with --exposures")
    p.add_argument("--kind", choices=("rates", "deaths"), default=None)
    p.add_argument("--exposures", default=None,
                   help="exposures table (with --kind deaths only, which requires it)")
    p.add_argument("--column", default=None, help="value column (default Female)")
    p.add_argument("--year-from", type=int, default=None)
    p.add_argument("--year-to", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--structure", choices=_STRUCTURES, default=None)
    p.add_argument("--family", choices=_FAMILIES, default=None)
    p.add_argument("--em-iters", type=int, default=None,
                   help="outer iterations for the likelihood warm start")
    p.add_argument("--em-tol", type=float, default=None)
    p.add_argument("--nm-budget", type=int, default=None,
                   help="objective-and-gradient evaluations per coefficient "
                        f"step of the warm start (default {STEP_BUDGET})")
    p.add_argument("--max-evals", type=int, default=None,
                   help="objective evaluations per direct-fit round")
    p.add_argument("--restarts", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_mortality)

    p = subs.add_parser("simulate", help="draw a synthetic sample")
    p.add_argument("--model", default=None, help="model JSON to sample from")
    p.add_argument("--n", type=int, default=None, help="sample size")
    p.add_argument("--censor-mean", type=float, default=None,
                   help="mean of exponential censoring (default: none)")
    p.add_argument("--study", action="store_const", const=True, default=None,
                   help="generate the built-in two-group benchmark sample")
    p.add_argument("--n-per-group", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("diagnose",
                        help="residuals, estimators and fit criteria for a "
                             "fitted model on a data set")
    p.add_argument("data", help="CSV with time,status[,weight],covariates")
    p.add_argument("--model", required=True, help="model JSON")
    _add_common(p)
    p.set_defaults(func=_cmd_diagnose)

    p = subs.add_parser("lee-carter",
                        help="rank-one log-mortality decomposition of a table")
    p.add_argument("table", help="rates table, or deaths table with --exposures")
    p.add_argument("--kind", choices=("rates", "deaths"), default=None)
    p.add_argument("--exposures", default=None)
    p.add_argument("--column", default=None)
    p.add_argument("--year-from", type=int, default=None)
    p.add_argument("--year-to", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_lee_carter)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing leaves
    it unchanged and returns a fresh namespace on every call."""
    return build_parser()


def _load_config(args) -> dict:
    if args.config is None:
        return {}
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidInputError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise InvalidInputError("config must be a JSON object")
    return cfg


def _resolver(args):
    cfg = _load_config(args)

    def resolve(name, default):
        value = getattr(args, name)
        if value is not None:
            return value
        return cfg.get(name, default)

    return resolve


def _prepare(resolve) -> tuple[pathlib.Path, np.random.Generator]:
    out_dir = pathlib.Path(resolve("out_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(int(resolve("seed", 0)))
    return out_dir, rng


def _at_least(value, flag: str, low: int = 1) -> int:
    """``value`` as an int, or :class:`InvalidInputError` naming ``flag``
    when it is below ``low``."""
    value = int(value)
    if value < low:
        raise InvalidInputError(f"{flag} must be at least {low}")
    return value


def _wrote(path: pathlib.Path) -> None:
    print(f"wrote {path}")


def _cmd_fit_ph(args) -> int:
    resolve = _resolver(args)
    out_dir, rng = _prepare(resolve)
    data = read_survival_csv(args.data)
    if data.sample.d > 0:
        raise InvalidInputError(
            "data has covariate columns; use fit-pi for regression")
    sample = CensoredSample(data.sample.y, data.sample.delta, data.sample.weight)
    spec = StructureSpec(resolve("structure", "general"),
                         int(resolve("order", 2)))
    config = EMConfig(_at_least(resolve("max_iter", 2000), "--max-iter", 0),
                      float(resolve("tol", 1e-7)))
    result = fit_ph(sample, spec, config, rng=rng)
    model = IPHModel(result.rep)
    print(f"fit-ph: n={sample.n} loglik={result.loglik:.6f} "
          f"iterations={result.iterations} converged={result.converged}")
    save_model(out_dir / "model.json", model)
    _wrote(out_dir / "model.json")
    write_trace_csv(out_dir / "trace.csv", result.loglik_trace)
    _wrote(out_dir / "trace.csv")
    return 0


def _cmd_fit_pi(args) -> int:
    resolve = _resolver(args)
    out_dir, rng = _prepare(resolve)
    data = read_survival_csv(args.data)
    spec = StructureSpec(resolve("structure", "coxian"),
                         int(resolve("order", 2)))
    config = PIFitConfig(
        max_outer=_at_least(resolve("max_outer", 200), "--max-outer"),
        tol=float(resolve("tol", 1e-6)),
        patience=_at_least(resolve("patience", 5), "--patience"),
        nm_budget=_at_least(resolve("nm_budget", STEP_BUDGET), "--nm-budget"),
        shape_covariates=bool(resolve("shape_covariates", False)))
    result = fit_pi(data.sample, spec, family=resolve("family", "weibull"),
                    config=config, rng=rng)
    print(f"fit-pi: n={data.sample.n} d={data.sample.d} "
          f"loglik={result.loglik:.6f} iterations={result.iterations} "
          f"converged={result.converged} parameters={result.n_parameters}")
    save_model(out_dir / "model.json", result.model)
    _wrote(out_dir / "model.json")
    write_trace_csv(out_dir / "trace.csv", result.loglik_trace)
    _wrote(out_dir / "trace.csv")
    return 0


def _load_rates_table(args, resolve):
    kind = resolve("kind", "rates")
    column = resolve("column", "Female")
    expo_path = resolve("exposures", None)
    if kind != "deaths" and expo_path is not None:
        raise InvalidInputError("--exposures requires --kind deaths")
    if kind == "deaths":
        if expo_path is None:
            raise InvalidInputError("--kind deaths requires --exposures")
        deaths = load_table(args.table, kind="deaths", column=column)
        expo = load_table(expo_path, kind="exposures", column=column)
        return combine_tables(deaths, expo)
    return load_table(args.table, kind="rates", column=column)


def _cmd_fit_mortality(args) -> int:
    resolve = _resolver(args)
    out_dir, rng = _prepare(resolve)
    table = _load_rates_table(args, resolve)
    year_from = resolve("year_from", None)
    year_to = resolve("year_to", None)
    curve = curve_from_table(table, year_from, year_to)
    sample = implied_sample(table, year_from, year_to)

    order = int(resolve("order", 2))
    family = resolve("family", "gompertz")
    structure = resolve("structure", "generalized_coxian")
    em_config = PIFitConfig(
        max_outer=_at_least(resolve("em_iters", 200), "--em-iters"),
        tol=float(resolve("em_tol", 1e-8)),
        patience=10,
        nm_budget=_at_least(resolve("nm_budget", STEP_BUDGET), "--nm-budget"))
    em_fit = fit_pi(sample.as_regression_sample(), StructureSpec(structure, order),
                    family=family, config=em_config, rng=rng)
    pm = em_fit.model
    if family == "identity":
        init = IPHModel(pm.rep)
    else:
        theta = float(pm.shape_param(np.zeros((1, 0)))[0])
        init = IPHModel(pm.rep, make_transform(family, theta))

    fit_config = DirectFitConfig(
        max_evals=_at_least(resolve("max_evals", 2000), "--max-evals"),
        restarts=_at_least(resolve("restarts", 2), "--restarts", 0))
    result = direct_fit(init, curve, fit_config)
    model_id = f"p{order}-{family}"
    print(f"fit-mortality: ages={curve.ages.size} start_loss="
          f"{result.loss_trace[0]:.6f} loss={result.loss:.6f} "
          f"evaluations={result.n_evaluations} model={model_id}")
    save_model(out_dir / "model.json", result.model)
    _wrote(out_dir / "model.json")
    write_trace_csv(out_dir / "trace.csv", result.loss_trace, value_name="loss")
    _wrote(out_dir / "trace.csv")
    fitted = model_log_mortality(result.model, curve.ages)
    write_curve_csv(out_dir / "curve.csv", curve.ages, curve.log_mortality,
                    fitted, model_id)
    _wrote(out_dir / "curve.csv")
    return 0


def _cmd_simulate(args) -> int:
    resolve = _resolver(args)
    out_dir, rng = _prepare(resolve)
    study = bool(resolve("study", False))
    model_path = resolve("model", None)
    if study == (model_path is not None):
        raise InvalidInputError("choose exactly one of --study or --model")
    if study:
        seed = int(resolve("seed", 0))
        data = simulate_study(seed, n_per_group=int(resolve("n_per_group", 500)))
        sample = data.sample
        names = ["group"]
        print(f"simulate: study sample n={sample.n} "
              f"censored={data.censored_fraction:.3f}")
    else:
        model = load_model(model_path)
        n = int(resolve("n", 1000))
        if n < 1:
            raise InvalidInputError("sample size must be positive")
        censor_mean = resolve("censor_mean", None)
        if censor_mean is not None and not float(censor_mean) > 0:
            raise InvalidInputError("--censor-mean must be positive")
        if isinstance(model, PIModel):
            raise InvalidInputError(
                "simulate draws from lifetime models; supply covariates by "
                "building conditional models instead")
        y = model.sample(n, rng)
        delta = np.ones(n, dtype=int)
        if censor_mean is not None:
            c = rng.exponential(float(censor_mean), size=n)
            delta = (y <= c).astype(int)
            y = np.minimum(y, c)
        from .regression import RegressionSample
        sample = RegressionSample(y, delta, np.empty((n, 0)), np.ones(n))
        names = []
        print(f"simulate: n={n} censored={1.0 - delta.mean():.3f}")
    write_survival_csv(out_dir / "sample.csv", sample, names=names)
    _wrote(out_dir / "sample.csv")
    return 0


def _cmd_diagnose(args) -> int:
    resolve = _resolver(args)
    out_dir, _ = _prepare(resolve)
    model = load_model(resolve("model", None))
    data = read_survival_csv(args.data)
    sample = data.sample

    if isinstance(model, PIModel):
        if sample.d != model.d:
            raise InvalidInputError(
                f"model expects {model.d} covariates, data has {sample.d}")
        ll = pi_loglik(model, sample)
        residual_input = sample
    else:
        if sample.d > 0:
            raise InvalidInputError(
                "lifetime model diagnostics need covariate-free data")
        ll = model.loglik(sample.y, sample.delta, sample.weight)
        residual_input = CensoredSample(sample.y, sample.delta, sample.weight)

    k = free_parameter_count(model)
    ic = information_criteria(ll, k, sample.n)
    print(f"diagnose: n={sample.n} loglik={ll:.6f} parameters={k} "
          f"aic={ic.aic:.4f} bic={ic.bic:.4f}")
    print(f"note: {ic.note}")

    residuals = cox_snell_residuals(model, residual_input)
    km = kaplan_meier(residuals)
    na = nelson_aalen(residuals)
    coverage = band_coverage(km, lambda t: np.exp(-t))
    slope = na_slope(na)
    print(f"diagnose: residual_coverage={coverage:.4f} residual_slope={slope:.4f}")

    write_residuals_csv(out_dir / "residuals.csv", residuals)
    _wrote(out_dir / "residuals.csv")
    write_step_csv(out_dir / "data_km.csv", kaplan_meier(
        CensoredSample(sample.y, sample.delta, sample.weight)))
    _wrote(out_dir / "data_km.csv")
    write_step_csv(out_dir / "residual_na.csv", na)
    _wrote(out_dir / "residual_na.csv")
    return 0


def _cmd_lee_carter(args) -> int:
    resolve = _resolver(args)
    out_dir, _ = _prepare(resolve)
    table = _load_rates_table(args, resolve)
    ages, years, grid, skipped = log_rate_grid(
        table, resolve("year_from", None), resolve("year_to", None))
    fit = lee_carter_fit(grid)
    print(f"lee-carter: ages={ages.size} years={years.size} "
          f"skipped_ages={skipped}")
    write_lee_carter_csv(out_dir / "age_profile.csv",
                         out_dir / "period_index.csv", ages, years, fit)
    _wrote(out_dir / "age_profile.csv")
    _wrote(out_dir / "period_index.csv")
    return 0


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except _PARSE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
