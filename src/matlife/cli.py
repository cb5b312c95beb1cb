"""Command-line entry points.

Each subcommand reads plain files, writes its outputs under ``--out-dir``
and prints a one-line summary per result.  Exit codes: 0 on success, 2 for
argument, parsing or validation problems, 3 when the numerics fail on valid
input or memory runs out.  Runs are deterministic for a fixed ``--seed``.

Each setting's flag, default and type are declared once, in
:func:`build_parser`.  A JSON file passed as ``--config`` supplies values for
any long option (keys use underscores, e.g. ``{"order": 3, "tol": 1e-6}``):
they are parsed as ``--key=value`` tokens ahead of the explicit flags, so the
same types check them and explicit flags win over the file.
"""

from __future__ import annotations

import argparse
import functools
import json
import pathlib
import sys

import numpy as np

from .diagnostics import (
    information_criteria,
    kaplan_meier,
    residual_diagnostics,
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
from .inhomogeneity import FAMILIES, make_transform
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
from .regression import (STEP_BUDGET, PIFitConfig, PIModel, RegressionSample,
                         fit_pi, pi_loglik)

_PARSE_ERRORS = (TableParseError, InvalidInputError, FileNotFoundError,
                 IsADirectoryError, PermissionError)
_NUMERIC_ERRORS = (DegenerateObservationError, DeadStateError,
                   ScoreOverflowError, DomainError, MemoryError)


class _Parser(argparse.ArgumentParser):
    """A parser whose rejections raise :class:`InvalidInputError`, so
    :func:`main` reports them on one line with exit code 2."""

    def error(self, message):
        raise InvalidInputError(message)


def _at_least(low, kind=int, strict=False):
    """An argparse type: the text as a finite ``kind`` (``int`` or
    ``float``) at least ``low``, or above it when ``strict``."""
    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            value = np.nan
        if not (low < value if strict else low <= value) or value == np.inf:
            raise argparse.ArgumentTypeError(
                f"expected {'an integer' if kind is int else 'a finite number'} "
                f"{'above' if strict else 'at least'} {low}, got {text!r}")
        return value
    return convert


def _add_common(sub):
    sub.add_argument("--out-dir", default=".",
                     help="directory for output files (default: current)")
    sub.add_argument("--seed", type=_at_least(0), default=0,
                     help="random seed (default 0)")
    sub.add_argument("--config", default=None,
                     help="JSON file with default option values")


def _add_table(sub):
    sub.add_argument("table", help="rates table, or deaths table with --exposures")
    sub.add_argument("--kind", choices=("rates", "deaths"), default="rates")
    sub.add_argument("--exposures", default=None,
                     help="exposures table (with --kind deaths only, which requires it)")
    sub.add_argument("--column", default="Female",
                     help="value column (default Female)")
    sub.add_argument("--year-from", type=int, default=None)
    sub.add_argument("--year-to", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser: every setting's flag, default and type, declared once."""
    parser = _Parser(
        prog="matlife",
        description="Lifetime models built from absorbing Markov chains: "
                    "fitting, simulation, diagnostics and mortality curves.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("fit-ph", help="fit a homogeneous lifetime model by EM")
    p.add_argument("data", help="CSV with time,status[,weight] columns")
    p.add_argument("--order", type=_at_least(1), default=2, help="number of states")
    p.add_argument("--structure", choices=StructureSpec.KINDS, default="general")
    p.add_argument("--max-iter", type=_at_least(0), default=2000)
    p.add_argument("--tol", type=_at_least(0, float), default=1e-7)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_ph)

    p = subs.add_parser("fit-pi", help="fit a regression model with covariates")
    p.add_argument("data", help="CSV with time,status[,weight],covariates")
    p.add_argument("--order", type=_at_least(1), default=2)
    p.add_argument("--structure", choices=StructureSpec.KINDS, default="coxian")
    p.add_argument("--family", choices=tuple(FAMILIES), default="weibull")
    p.add_argument("--shape-covariates", action="store_true",
                   help="regress the transform parameter on the covariates as well")
    p.add_argument("--max-outer", type=_at_least(1), default=200)
    p.add_argument("--tol", type=_at_least(0, float), default=1e-6)
    p.add_argument("--patience", type=_at_least(1), default=5)
    p.add_argument("--nm-budget", type=_at_least(1), default=STEP_BUDGET,
                   help="objective-and-gradient evaluations per coefficient "
                        f"step (default {STEP_BUDGET})")
    _add_common(p)
    p.set_defaults(func=_cmd_fit_pi)

    p = subs.add_parser("fit-mortality",
                        help="fit a lifetime model to a period life table")
    _add_table(p)
    p.add_argument("--order", type=_at_least(1), default=2)
    p.add_argument("--structure", choices=StructureSpec.KINDS,
                   default="generalized_coxian")
    p.add_argument("--family", choices=tuple(FAMILIES), default="gompertz")
    p.add_argument("--em-iters", type=_at_least(1), default=200,
                   help="outer iterations for the likelihood warm start")
    p.add_argument("--em-tol", type=_at_least(0, float), default=1e-8)
    p.add_argument("--nm-budget", type=_at_least(1), default=STEP_BUDGET,
                   help="objective-and-gradient evaluations per coefficient "
                        f"step of the warm start (default {STEP_BUDGET})")
    p.add_argument("--max-evals", type=_at_least(1), default=2000,
                   help="objective evaluations per direct-fit round")
    p.add_argument("--restarts", type=_at_least(0), default=2)
    _add_common(p)
    p.set_defaults(func=_cmd_fit_mortality)

    p = subs.add_parser("simulate", help="draw a synthetic sample")
    p.add_argument("--model", default=None, help="model JSON to sample from")
    p.add_argument("--n", type=_at_least(1), default=1000, help="sample size")
    p.add_argument("--censor-mean", type=_at_least(0, float, strict=True),
                   default=None, help="mean of exponential censoring (default: none)")
    p.add_argument("--study", action="store_true",
                   help="generate the built-in two-group benchmark sample")
    p.add_argument("--n-per-group", type=_at_least(1), default=500)
    _add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("diagnose",
                        help="residuals, estimators and fit criteria for a "
                             "fitted model on a data set")
    p.add_argument("data", help="CSV with time,status[,weight],covariates")
    # not required=True: that would reject the run before --config is read
    p.add_argument("--model", default=None, help="model JSON (required)")
    _add_common(p)
    p.set_defaults(func=_cmd_diagnose)

    p = subs.add_parser("lee-carter",
                        help="rank-one log-mortality decomposition of a table")
    _add_table(p)
    _add_common(p)
    p.set_defaults(func=_cmd_lee_carter)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser :func:`main` uses, built once per process: parsing leaves
    it unchanged and returns a fresh namespace on every call."""
    return build_parser()


def _config_tokens(args) -> list[str]:
    """The JSON object in ``args.config`` as option tokens for ``args.command``:
    ``--key=value`` per key and a bare ``--key`` for ``true``; ``null``, and
    ``false`` for a switch, leave the setting at its default."""
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except ValueError as err:
            raise InvalidInputError(f"config is not valid JSON: {err}") from None
    if not isinstance(cfg, dict):
        raise InvalidInputError("config must be a JSON object")
    tokens = []
    for key, value in cfg.items():
        if key not in vars(args):
            raise InvalidInputError(
                f"config key {key!r} is not an option of {args.command}")
        switch = isinstance(getattr(args, key), bool)
        if value is None or (value is False and switch):
            continue
        flag = "--" + key.replace("_", "-")
        tokens.append(flag if value is True else f"{flag}={value}")
    return tokens


def _parse(argv):
    """Parse ``argv``; with ``--config``, parse once more with the file's
    options placed before the explicit ones, which therefore win."""
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    argv = list(sys.argv[1:] if argv is None else argv)
    k = argv.index(args.command) + 1
    return parser.parse_args([*argv[:k], *_config_tokens(args), *argv[k:]])


def _prepare(args) -> tuple[pathlib.Path, np.random.Generator]:
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, np.random.default_rng(args.seed)


def _wrote(path: pathlib.Path) -> None:
    print(f"wrote {path}")


def _cmd_fit_ph(args) -> int:
    out_dir, rng = _prepare(args)
    data = read_survival_csv(args.data)
    if data.sample.d > 0:
        raise InvalidInputError(
            "data has covariate columns; use fit-pi for regression")
    sample = CensoredSample(data.sample.y, data.sample.delta, data.sample.weight)
    result = fit_ph(sample, StructureSpec(args.structure, args.order),
                    EMConfig(args.max_iter, args.tol), rng=rng)
    model = IPHModel(result.rep)
    print(f"fit-ph: n={sample.n} loglik={result.loglik:.6f} "
          f"iterations={result.iterations} converged={result.converged}")
    save_model(out_dir / "model.json", model)
    _wrote(out_dir / "model.json")
    write_trace_csv(out_dir / "trace.csv", result.loglik_trace)
    _wrote(out_dir / "trace.csv")
    return 0


def _cmd_fit_pi(args) -> int:
    out_dir, rng = _prepare(args)
    data = read_survival_csv(args.data)
    config = PIFitConfig(max_outer=args.max_outer, tol=args.tol,
                         patience=args.patience, nm_budget=args.nm_budget,
                         shape_covariates=args.shape_covariates)
    result = fit_pi(data.sample, StructureSpec(args.structure, args.order),
                    family=args.family, config=config, rng=rng)
    print(f"fit-pi: n={data.sample.n} d={data.sample.d} "
          f"loglik={result.loglik:.6f} iterations={result.iterations} "
          f"converged={result.converged} parameters={result.n_parameters}")
    save_model(out_dir / "model.json", result.model)
    _wrote(out_dir / "model.json")
    write_trace_csv(out_dir / "trace.csv", result.loglik_trace)
    _wrote(out_dir / "trace.csv")
    return 0


def _load_rates_table(args):
    if args.kind != "deaths" and args.exposures is not None:
        raise InvalidInputError("--exposures requires --kind deaths")
    if args.kind == "deaths":
        if args.exposures is None:
            raise InvalidInputError("--kind deaths requires --exposures")
        deaths = load_table(args.table, kind="deaths", column=args.column)
        expo = load_table(args.exposures, kind="exposures", column=args.column)
        return combine_tables(deaths, expo)
    return load_table(args.table, kind="rates", column=args.column)


def _cmd_fit_mortality(args) -> int:
    out_dir, rng = _prepare(args)
    table = _load_rates_table(args)
    curve = curve_from_table(table, args.year_from, args.year_to)
    sample = implied_sample(table, args.year_from, args.year_to)

    em_config = PIFitConfig(max_outer=args.em_iters, tol=args.em_tol,
                            patience=10, nm_budget=args.nm_budget)
    pm = fit_pi(sample.as_regression_sample(),
                StructureSpec(args.structure, args.order),
                family=args.family, config=em_config, rng=rng).model
    theta = pm.shape_param(np.zeros((1, 0)))
    init = IPHModel(pm.rep, make_transform(
        args.family, None if theta is None else float(theta[0])))

    result = direct_fit(init, curve, DirectFitConfig(max_evals=args.max_evals,
                                                     restarts=args.restarts))
    model_id = f"p{args.order}-{args.family}"
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
    out_dir, rng = _prepare(args)
    if args.study == (args.model is not None):
        raise InvalidInputError("choose exactly one of --study or --model")
    if args.study:
        data = simulate_study(args.seed, n_per_group=args.n_per_group)
        sample = data.sample
        names = ["group"]
        print(f"simulate: study sample n={sample.n} "
              f"censored={data.censored_fraction:.3f}")
    else:
        model = load_model(args.model)
        if isinstance(model, PIModel):
            raise InvalidInputError(
                "simulate draws from lifetime models; supply covariates by "
                "building conditional models instead")
        n = args.n
        y = model.sample(n, rng)
        delta = np.ones(n, dtype=int)
        if args.censor_mean is not None:
            c = rng.exponential(args.censor_mean, size=n)
            delta = (y <= c).astype(int)
            y = np.minimum(y, c)
        sample = RegressionSample(y, delta, np.empty((n, 0)), np.ones(n))
        names = []
        print(f"simulate: n={n} censored={1.0 - delta.mean():.3f}")
    write_survival_csv(out_dir / "sample.csv", sample, names=names)
    _wrote(out_dir / "sample.csv")
    return 0


def _cmd_diagnose(args) -> int:
    if args.model is None:
        raise InvalidInputError("diagnose requires --model")
    out_dir, _ = _prepare(args)
    model = load_model(args.model)
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

    diag = residual_diagnostics(model, residual_input)
    print(f"diagnose: residual_coverage={diag['coverage']:.4f} "
          f"residual_slope={diag['slope']:.4f}")

    write_residuals_csv(out_dir / "residuals.csv", diag["residuals"])
    _wrote(out_dir / "residuals.csv")
    write_step_csv(out_dir / "data_km.csv", kaplan_meier(
        CensoredSample(sample.y, sample.delta, sample.weight)))
    _wrote(out_dir / "data_km.csv")
    write_step_csv(out_dir / "residual_na.csv", diag["nelson_aalen"])
    _wrote(out_dir / "residual_na.csv")
    return 0


def _cmd_lee_carter(args) -> int:
    out_dir, _ = _prepare(args)
    table = _load_rates_table(args)
    ages, years, grid, skipped = log_rate_grid(table, args.year_from, args.year_to)
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
        args = _parse(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else 0
    except _PARSE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
