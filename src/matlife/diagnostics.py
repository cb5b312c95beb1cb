"""Non-parametric survival estimators, residual-based goodness of fit,
information criteria, and a reproducible two-group simulation study.

The study draws one group from a matrix lifetime model with a power clock
and the other from a plain (homogeneous) one, censors both with exponential
variables, and fits three regression variants of increasing fidelity.  The
residual diagnostics then separate the correctly specified variant from the
scalar ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .em import CensoredSample, StructureSpec
from .exceptions import DomainError, InvalidInputError
from .inhomogeneity import IdentityTransform, WeibullTransform
from .phasetype import IPHModel, PHRepresentation, ph_products
from .regression import (
    PIFitConfig,
    PIFitResult,
    PIModel,
    RegressionSample,
    fit_pi,
    transform,
)

__all__ = [
    "StepFunction",
    "kaplan_meier",
    "nelson_aalen",
    "CoxSnellResiduals",
    "cox_snell_residuals",
    "ICResult",
    "information_criteria",
    "band_coverage",
    "na_slope",
    "StudyData",
    "StudyReport",
    "STUDY_VARIANTS",
    "study_models",
    "simulate_study",
    "fit_study_variant",
    "residual_diagnostics",
    "run_study",
    "replication_rngs",
]

#: two-sided 95% normal quantile used for all confidence bounds, ``ndtri(0.975)``
Z95 = 1.959963984540054


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function with optional variance and bounds.

    ``times`` are the jump points; ``values[i]`` holds on
    ``[times[i], times[i+1])`` and ``initial`` before the first jump.
    """

    times: np.ndarray
    values: np.ndarray
    initial: float = 1.0
    variance: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None
    note: str | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float).ravel()
        values = np.asarray(self.values, dtype=float).ravel()
        if times.size != values.size:
            raise InvalidInputError("times and values lengths disagree")
        if times.size and np.any(np.diff(times) <= 0):
            raise InvalidInputError("jump times must be strictly increasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        for name in ("variance", "lower", "upper"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float).ravel()
                if arr.size != times.size:
                    raise InvalidInputError(f"{name} length disagrees with times")
                object.__setattr__(self, name, arr)

    @property
    def n_jumps(self) -> int:
        return self.times.size

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.values.size == 0:
            out = np.full(t.shape, self.initial)
        else:
            idx = np.searchsorted(self.times, t, side="right")
            out = np.where(idx == 0, self.initial,
                           self.values[np.maximum(idx - 1, 0)])
        return float(out) if t.ndim == 0 else out


def _risk_table(z, delta, weight):
    """Unique times with death weight, censoring weight and at-risk weight.

    Deaths at a tied time are counted before censorings at that time.
    """
    times, pos = np.unique(z, return_inverse=True)
    dead = delta == 1
    d = np.bincount(pos, np.where(dead, weight, 0.0), times.size)
    c = np.bincount(pos, np.where(dead, 0.0, weight), times.size)
    removed = np.concatenate([[0.0], np.cumsum(d + c)[:-1]])
    n = weight.sum() - removed
    return times, d, c, n


def _survival_columns(data):
    """Times, censoring flags and weights of survival data or residuals; a
    residual may be zero, which a CensoredSample (built for EM) refuses."""
    if isinstance(data, CoxSnellResiduals):
        r = data.residual
        checked = CensoredSample(np.where(r == 0, 1.0, r), data.delta, data.weight)
        return r, checked.delta, checked.weight
    sample = CensoredSample.coerce(data)
    return sample.z, sample.delta, sample.weight


def kaplan_meier(data) -> StepFunction:
    """Product-limit survival estimator with Greenwood 95% bounds.

    Bounds are computed on the log-survival scale and exponentiated; where
    the estimate reaches zero both bounds collapse to zero.  A sample with
    no observed events yields a flagged estimator with no jumps.
    """
    return _product_limit(*_risk_table(*_survival_columns(data)))


def _product_limit(times, d, c, n) -> StepFunction:
    """:func:`kaplan_meier` of a :func:`_risk_table`."""
    event = d > 0
    if not event.any():
        return StepFunction(np.empty(0), np.empty(0), initial=1.0,
                            variance=np.empty(0), lower=np.empty(0),
                            upper=np.empty(0),
                            note="all observations censored; no jumps")
    te, de, ne = times[event], d[event], n[event]
    # all remaining die where the at-risk weight is down to the death weight,
    # or by rounding below it, so the factor is exactly zero, never negative
    surv = np.cumprod(np.where(ne > de, 1.0 - de / ne, 0.0))
    with np.errstate(divide="ignore"):
        var_log = np.cumsum(np.where(ne > de, de / (ne * (ne - de)), np.inf))
    sd = np.sqrt(var_log)
    with np.errstate(invalid="ignore"):
        lower = np.where(surv > 0, surv * np.exp(-Z95 * sd), 0.0)
        upper = np.where(surv > 0, np.minimum(surv * np.exp(Z95 * sd), 1.0), 0.0)
    with np.errstate(invalid="ignore"):
        variance = np.where(np.isfinite(var_log), surv**2 * var_log, 0.0)
    return StepFunction(te, surv, initial=1.0, variance=variance,
                        lower=lower, upper=upper)


def nelson_aalen(data) -> StepFunction:
    """Cumulative-hazard estimator ``sum d_i/n_i`` with linear 95% bounds."""
    return _cumulative_hazard(*_risk_table(*_survival_columns(data)))


def _cumulative_hazard(times, d, c, n) -> StepFunction:
    """:func:`nelson_aalen` of a :func:`_risk_table`."""
    event = d > 0
    if not event.any():
        return StepFunction(np.empty(0), np.empty(0), initial=0.0,
                            variance=np.empty(0), lower=np.empty(0),
                            upper=np.empty(0))
    te, de, ne = times[event], d[event], n[event]
    na = np.cumsum(de / ne)
    variance = np.cumsum(de / ne**2)
    sd = np.sqrt(variance)
    return StepFunction(te, na, initial=0.0, variance=variance,
                        lower=np.maximum(na - Z95 * sd, 0.0),
                        upper=na + Z95 * sd)


@dataclass(frozen=True)
class CoxSnellResiduals:
    """Fitted cumulative hazards with their censoring flags and weights."""

    residual: np.ndarray
    delta: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "residual",
                           np.asarray(self.residual, dtype=float).ravel())
        object.__setattr__(self, "delta",
                           np.asarray(self.delta).ravel().astype(np.int8))
        object.__setattr__(self, "weight",
                           np.asarray(self.weight, dtype=float).ravel())

    @property
    def n(self) -> int:
        return self.residual.size

    def adjusted(self) -> np.ndarray:
        """Residuals with the exponential mean-residual correction.

        Censored values are replaced by ``r + 1``; under a correct model the
        weighted mean of the result is one.
        """
        return np.where(self.delta == 1, self.residual, self.residual + 1.0)


def cox_snell_residuals(model, data) -> CoxSnellResiduals:
    """Cumulative hazard of each observation under the fitted model.

    Under a correctly specified model the result is a right-censored
    unit-exponential sample.  Accepts a regression model with covariate data
    or a plain lifetime model with (y, delta) data.
    """
    if isinstance(model, PIModel):
        sample = RegressionSample.coerce(data)
        z = transform(model, sample.y, sample.x)
        _, surv = ph_products(model.rep, z)
        delta, weight = sample.delta, sample.weight
    elif isinstance(model, IPHModel):
        z, delta, weight = _survival_columns(data)
        _, surv = ph_products(model.rep, model.transform.cumulative(z))
    else:
        raise InvalidInputError("model must be a lifetime or regression model")
    if np.any(surv <= 0):
        bad = int(np.flatnonzero(surv <= 0)[0])
        raise DomainError(f"observation {bad} has zero fitted survival")
    # the fitted survival of a tiny time rounds to one or just above it; its
    # residual is then 0.0 (0.0 - log 1 is 0.0, where -log 1 is -0.0)
    return CoxSnellResiduals(0.0 - np.log(np.minimum(surv, 1.0)), delta, weight)


class ICResult(NamedTuple):
    aic: float
    bic: float
    note: str


#: attached to every criteria result; the raw count overstates what the
#: matrix structure can actually identify
EFFECTIVE_DF_NOTE = ("parameter count is the raw free-parameter count; "
                     "effective degrees of freedom of matrix lifetime models "
                     "are generally unknown")


def information_criteria(loglik: float, n_params: int, n_obs: int) -> ICResult:
    """``AIC = -2 loglik + 2 k`` and ``BIC = -2 loglik + k log(n_obs)``."""
    if n_obs < 1:
        raise InvalidInputError("n_obs must be at least one")
    aic = -2.0 * loglik + 2.0 * n_params
    bic = -2.0 * loglik + n_params * np.log(n_obs)
    return ICResult(float(aic), float(bic), EFFECTIVE_DF_NOTE)


def band_coverage(step: StepFunction, reference) -> float:
    """Fraction of the jump times where ``reference`` lies inside the band."""
    if step.lower is None or step.upper is None:
        raise InvalidInputError("step function carries no bounds")
    if step.n_jumps == 0:
        raise InvalidInputError("no jumps to measure coverage over")
    ref = np.asarray(reference(step.times), dtype=float)
    inside = (step.lower <= ref) & (ref <= step.upper)
    return float(inside.mean())


def na_slope(step: StepFunction) -> float:
    """Through-origin least-squares slope of the points (t, step(t)).

    For cumulative-hazard estimates of unit-exponential data, a correctly
    specified model gives a slope near one.
    """
    if step.n_jumps == 0:
        raise InvalidInputError("no jumps to fit a slope through")
    t, v = step.times, step.values
    return float(np.sum(t * v) / np.sum(t * t))


# --- two-group simulation study ---------------------------------------------

#: study design constants: shared start vector, group sub-intensities, the
#: power-clock shape of group one, and the censoring mean
STUDY_PI = (0.25, 0.5, 0.25)
STUDY_T1 = ((-10.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -0.1))
STUDY_SHAPE = 1.5
STUDY_CENSOR_MEAN = 10.0

STUDY_VARIANTS = ("weibull_ph", "scalar", "matrix")


def study_models() -> tuple[IPHModel, IPHModel]:
    """The two generating models: power clock versus doubled homogeneous."""
    t1 = np.asarray(STUDY_T1)
    group1 = IPHModel(PHRepresentation(STUDY_PI, t1), WeibullTransform(STUDY_SHAPE))
    group2 = IPHModel(PHRepresentation(STUDY_PI, 2.0 * t1), IdentityTransform())
    return group1, group2


@dataclass(frozen=True)
class StudyData:
    sample: RegressionSample
    models: tuple
    censored_fraction: float


def simulate_study(seed, n_per_group: int = 500) -> StudyData:
    """Two equal groups, exponentially censored; group is the one covariate.

    The same seed always produces the same dataset.  The realized censoring
    fraction is checked against the designed 5% to 15% range.
    """
    rng = np.random.default_rng(seed)
    models = study_models()
    parts = []
    for group, model in enumerate(models):
        z = model.sample(n_per_group, rng=rng)
        e = rng.exponential(STUDY_CENSOR_MEAN, size=n_per_group)
        parts.append((np.minimum(z, e), (z <= e).astype(int),
                      np.full(n_per_group, float(group))))
    y = np.concatenate([p[0] for p in parts])
    delta = np.concatenate([p[1] for p in parts])
    x = np.concatenate([p[2] for p in parts])[:, None]
    sample = RegressionSample(y, delta, x, np.ones(y.size))
    frac = 1.0 - float(delta.mean())
    if not 0.05 <= frac <= 0.15:
        raise DomainError(f"censoring fraction {frac:.3f} outside [0.05, 0.15]")
    return StudyData(sample, models, frac)


def _variant_settings(variant: str):
    if variant == "weibull_ph":
        return StructureSpec("coxian", 1), False
    if variant == "scalar":
        return StructureSpec("coxian", 1), True
    if variant == "matrix":
        return StructureSpec("general", 3), True
    raise InvalidInputError(f"unknown study variant {variant!r}")


def fit_study_variant(sample, variant: str, rng=None,
                      config: PIFitConfig | None = None) -> PIFitResult:
    """Fit one of the study's three model variants to a dataset."""
    base = config or PIFitConfig(max_outer=500, tol=1e-7, patience=5)
    spec, shape_cov = _variant_settings(variant)
    cfg = PIFitConfig(max_outer=base.max_outer, tol=base.tol,
                      patience=base.patience, nm_budget=base.nm_budget,
                      shape_covariates=shape_cov)
    return fit_pi(sample, spec, family="weibull", config=cfg, rng=rng)


def residual_diagnostics(model, data) -> dict:
    """Band coverage and identity slope of the model's Cox-Snell residuals,
    with the ``residuals`` and their ``nelson_aalen`` estimate.  One risk
    table of the residuals serves both estimators."""
    res = cox_snell_residuals(model, data)
    table = _risk_table(*_survival_columns(res))
    na = _cumulative_hazard(*table)
    return {
        "coverage": band_coverage(_product_limit(*table), lambda t: np.exp(-t)),
        "slope": na_slope(na),
        "residuals": res,
        "nelson_aalen": na,
    }


@dataclass(frozen=True)
class StudyReport:
    seed: object
    data: StudyData
    fits: dict
    diagnostics: dict


def run_study(seed, config: PIFitConfig | None = None,
              variants=STUDY_VARIANTS) -> StudyReport:
    """Simulate the two-group data, fit the requested variants, diagnose.

    Fit starting points derive from the study seed, so the whole report is
    reproducible from ``seed`` alone.
    """
    data = simulate_study(seed)
    fit_seeds = np.random.SeedSequence(seed).spawn(len(variants))
    fits = {}
    diags = {}
    for variant, ss in zip(variants, fit_seeds):
        result = fit_study_variant(data.sample, variant,
                                   rng=np.random.default_rng(ss), config=config)
        fits[variant] = result
        diags[variant] = residual_diagnostics(result.model,
                                              data.sample.canonical())
        diags[variant]["loglik"] = result.loglik
    return StudyReport(seed, data, fits, diags)


def replication_rngs(root_seed, n: int) -> list:
    """Independent generators for n replications, split from one root seed."""
    return [np.random.default_rng(ss)
            for ss in np.random.SeedSequence(root_seed).spawn(n)]
