"""Survival regression where covariates scale the latent clock.

The conditional hazard is ``lam(t; theta(x @ gamma)) * m(x @ beta)`` times the
underlying matrix hazard: covariates accelerate the intensity through the
link ``m`` (exponential by default) and may also move the transform's shape
parameter.  Transforming each lifetime by its own cumulative intensity maps
every subject to one common phase-type distribution, which is what the
estimation loop alternates against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .em import (CensoredSample, StructureSpec, _real, _run_em, e_step,
                 n_free_parameters)
from .exceptions import (
    DegenerateObservationError,
    InvalidInputError,
    ScoreOverflowError,
)
from .inhomogeneity import ScaledTransform, make_transform, transform_family
from .phasetype import Evaluation, IPHModel, PHRepresentation, _censored_loglik

__all__ = [
    "RegObservation",
    "RegressionSample",
    "PIModel",
    "PIFitConfig",
    "PIFitResult",
    "transform",
    "pi_loglik",
    "maximize_regression",
    "fit_pi",
]

#: linear predictors beyond this overflow the exponential link
SCORE_LIMIT = 700.0

#: default cap on objective-and-gradient evaluations per coefficient step
STEP_BUDGET = 100


class RegObservation(NamedTuple):
    y: float
    delta: int
    x: tuple
    weight: float = 1.0


@dataclass(frozen=True)
class RegressionSample:
    """Lifetimes with censoring indicators, covariate rows and weights."""

    y: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        y = np.asarray(_real(self.y, "lifetimes"), dtype=float).ravel()
        delta = _real(self.delta, "censoring indicators").ravel()
        x = np.asarray(_real(self.x, "covariates"), dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        if x.size == 0:
            x = x.reshape(y.size, 0)
        weight = (np.ones_like(y) if self.weight is None
                  else np.asarray(_real(self.weight, "weights"), dtype=float).ravel())
        if not (y.size == delta.size == weight.size == x.shape[0]):
            raise InvalidInputError("observation array lengths disagree")
        if y.size == 0:
            raise InvalidInputError("sample is empty")
        if np.any(y <= 0) or not np.all(np.isfinite(y)):
            raise InvalidInputError("lifetimes must be positive and finite")
        if not ((delta == 0) | (delta == 1)).all():
            raise InvalidInputError("censoring indicators must be 0 or 1")
        if not np.all(np.isfinite(x)):
            raise InvalidInputError("covariates must be finite")
        if np.any(weight <= 0) or not np.all(np.isfinite(weight)):
            raise InvalidInputError("weights must be positive and finite")
        for name, arr in (("y", y), ("delta", delta.astype(np.int8)),
                          ("x", x), ("weight", weight)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def coerce(cls, data) -> "RegressionSample":
        if isinstance(data, cls):
            return data
        rows = [RegObservation(*row) for row in data]
        return cls(
            np.array([r.y for r in rows]),
            np.array([r.delta for r in rows]),
            np.array([np.atleast_1d(r.x) for r in rows]),
            np.array([r.weight for r in rows]),
        )

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def total_weight(self) -> float:
        return float(self.weight.sum())

    def canonical(self) -> "RegressionSample":
        """Rows sorted by (y, delta, covariates, weight).

        Fitting starts from this ordering, which makes results invariant to
        the order observations arrive in.
        """
        keys = [self.weight, *reversed(self.x.T), self.delta, self.y]
        order = np.lexsort(keys)
        return RegressionSample(self.y[order], self.delta[order],
                                self.x[order], self.weight[order])


@dataclass(frozen=True)
class PIModel:
    """Fitted regression model: representation, transform family, coefficients.

    ``gamma`` holds the transform-parameter coefficients with the intercept
    first; length one means a shared shape for all subjects.  ``gamma`` is
    ``None`` exactly when the family has no parameter.  Coefficients are on the
    original covariate scale; ``standardization`` records the internal
    centering/scaling used during the fit.
    """

    rep: PHRepresentation
    family: str
    beta: np.ndarray
    gamma: np.ndarray | None = None
    link: str = "exp"
    standardization: dict | None = None

    def __post_init__(self):
        if self.link != "exp":
            raise InvalidInputError(f"unsupported link {self.link!r}")
        beta = np.asarray(self.beta, dtype=float).ravel()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        if transform_family(self.family).param_name is None:
            if self.gamma is not None:
                raise InvalidInputError(f"{self.family} family carries no gamma")
        else:
            if self.gamma is None:
                raise InvalidInputError("family with a shape parameter needs gamma")
            gamma = np.asarray(self.gamma, dtype=float).ravel()
            if gamma.size not in (1, self.beta.size + 1):
                raise InvalidInputError(
                    "gamma must be an intercept alone or intercept plus one "
                    "coefficient per covariate")
            gamma.setflags(write=False)
            object.__setattr__(self, "gamma", gamma)

    @property
    def d(self) -> int:
        return self.beta.size

    def _scores(self, x) -> tuple[np.ndarray, np.ndarray | None]:
        """:func:`_scores` of the model's coefficients on covariate rows."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[:, None] if self.d == 1 else x[None, :]
        if x.shape[1] != self.d:
            raise InvalidInputError(f"expected {self.d} covariates, got {x.shape[1]}")
        return _scores(self.beta, self.gamma, x)

    def rate_factor(self, x) -> np.ndarray:
        """Multiplicative intensity factor ``exp(x @ beta)`` per row."""
        return np.exp(self._scores(x)[0])

    def shape_param(self, x) -> np.ndarray | None:
        """Per-row transform parameter, or ``None`` for a family without one."""
        return self._scores(x)[1]

    def conditional_model(self, x_row) -> IPHModel:
        """Lifetime distribution for one covariate row."""
        x_row = np.atleast_1d(np.asarray(x_row, dtype=float))
        return IPHModel(self.rep, _row_clock(self.family, self._scores(x_row[None, :])))

    def predict(self, x_row, y) -> Evaluation:
        """Conditional density/survival/hazard/cumulative hazard at ``y``."""
        return self.conditional_model(x_row).evaluate(y)


def _scores(beta: np.ndarray, gamma: np.ndarray | None,
            x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Rate score ``x beta`` and transform parameter ``exp(gamma_0 + x
    gamma_1)`` of each covariate row (``None`` without ``gamma``).  Raises
    :class:`ScoreOverflowError` at the first row where either linear
    predictor passes :data:`SCORE_LIMIT` in magnitude."""
    rate_score = x @ beta
    bad = np.abs(rate_score) > SCORE_LIMIT
    shape_score = None
    if gamma is not None:
        shape_score = (gamma[0] + x @ gamma[1:] if gamma.size > 1
                       else np.full(x.shape[0], gamma[0]))
        bad |= np.abs(shape_score) > SCORE_LIMIT
    if bad.any():
        raise ScoreOverflowError(int(np.flatnonzero(bad)[0]))
    return rate_score, None if shape_score is None else np.exp(shape_score)


def _row_clock(family: str, scores) -> ScaledTransform:
    """The clock of one covariate row, given its :func:`_scores`: the
    family's transform at the row's parameter, sped up by ``exp(x beta)``."""
    rate_score, theta = scores
    base = make_transform(family, None if theta is None else float(theta[0]))
    return ScaledTransform(base, float(np.exp(rate_score[0])))


def _clock(family: str, scores, y) -> tuple[np.ndarray, np.ndarray]:
    """Operational times ``z = exp(x beta) G(y; theta)`` and the
    log-intensity ``x beta + log lam(y; theta)`` of each row's clock, given
    the rows' :func:`_scores`."""
    rate_score, theta = scores
    clock = make_transform(family, theta)
    z = np.exp(rate_score) * clock.cumulative(y)
    return z, rate_score + clock.log_intensity(y)


def transform(model: PIModel, y, x) -> np.ndarray:
    """Map lifetimes to the shared operational scale.

    ``z = exp(x beta) * G(y; theta(x gamma))``; strictly increasing in ``y``
    for each covariate row.  Overflowing linear predictors raise with the
    first offending observation index.
    """
    return _clock(model.family, model._scores(x), y)[0]


def pi_loglik(model: PIModel, data) -> float:
    """Weighted conditional log-likelihood of a regression model.

    Change of variables: the phase-type log-likelihood of the transformed
    times plus, for observed rows, the log-intensity Jacobian.  Overflowing
    linear predictors raise :class:`ScoreOverflowError` with the first
    offending row; otherwise the result is ``-inf``, never an error, when a
    density or survival factor vanishes or the clock overflows.
    """
    sample = RegressionSample.coerce(data)
    z, log_lam = _clock(model.family, model._scores(sample.x), sample.y)
    return _censored_loglik(model.rep, z, sample.delta == 1, sample.weight, log_lam)


def _pack(beta: np.ndarray, gamma: np.ndarray | None) -> np.ndarray:
    return beta.copy() if gamma is None else np.concatenate([beta, gamma])


def _unpack(vec: np.ndarray, d: int, gamma_len: int):
    return vec[:d], vec[d:d + gamma_len] if gamma_len else None


def _fast_objective(rep: PHRepresentation, family: str, sample: RegressionSample,
                    gamma_len: int):
    """Negative pi-loglik and its gradient as a function of packed coefficients.

    With ``r = x beta``, ``s = gamma_0 + x gamma_1``, ``theta = exp(s)`` and
    ``z = exp(r) G(y; theta)``, an observed row contributes
    ``log f(z) + r + log lam(y; theta)`` and a censored row ``log S(z)``.  The
    representation is held fixed, so the chain rule needs only ``f'(z)``
    besides the products and the family's ``clock_terms``, which it calls
    with ``theta`` directly: within :data:`SCORE_LIMIT` the parameter is
    positive and finite, so no transform is built or checked per point.
    Zero-likelihood, non-finite or overflowing parameter points score
    ``+inf`` so the line search backs away from them; the floating-point
    overflows and invalid operations met on the way there are expected and
    raise no warning.
    """
    d = sample.d
    x, y, w = sample.x, sample.y, sample.weight
    obs = sample.delta == 1
    w_obs = np.where(obs, w, 0.0)
    log_y = np.log(y)
    clock_terms = transform_family(family).clock_terms

    def objective(vec):
        beta, gamma = _unpack(vec, d, gamma_len)
        try:
            rate_score, theta = _scores(beta, gamma, x)
        except ScoreOverflowError:
            return np.inf, None
        with np.errstate(over="ignore", invalid="ignore"):
            cum, log_lam, dcum, dlog_lam = clock_terms(theta, y, log_y)
            rate = np.exp(rate_score)
            z = rate * cum
            val, slope = _censored_loglik(rep, z, obs, w, rate_score + log_lam,
                                          slope=True)
            if slope is None:
                return np.inf, None
            dz = w * slope
            grad = [(dz * z + w_obs) @ x]
            if gamma_len:
                dshape = dz * rate * dcum + w_obs * dlog_lam
                grad.append(np.concatenate([[dshape.sum()], dshape @ x])
                            if gamma_len > 1 else [dshape.sum()])
        grad = -np.concatenate(grad)
        if not (np.isfinite(val) and np.all(np.isfinite(grad))):
            return np.inf, None
        return -val, grad

    return objective


def _descend(objective, x: np.ndarray, f: float, g: np.ndarray, budget: int,
             h: np.ndarray | None = None
             ) -> tuple[np.ndarray, float, np.ndarray | None]:
    """BFGS on the inverse Hessian with Armijo backtracking.

    Given a starting inverse Hessian ``h``, the first trial is the
    quasi-Newton step ``-h g``; without one, the first step has max-norm
    one, after which the inverse Hessian starts from ``(s'y / y'y) I``.  A
    trial point is accepted only when it lowers the objective.  A rejected
    finite trial shrinks the step to the minimum of the quadratic through
    the slope and the trial value, kept within a tenth and a half of it; a
    non-finite one halves it.  Stops when a step can gain (or, accepted,
    gained) at most 1e-13 relative, when the gradient vanishes (max-norm
    1e-9), or after ``budget`` evaluations counting the start.  Returns the
    last accepted point, its value and the final inverse Hessian (``None``
    while no curvature has been learned).
    """
    evals, eye = 1, np.eye(x.size)
    while evals < budget and np.abs(g).max() > 1e-9:
        step = -g / np.abs(g).max() if h is None else -(h @ g)
        descent = g @ step
        floor = 1e-13 * max(1.0, abs(f))
        t = 1.0
        while evals < budget and -t * descent > floor:
            f_new, g_new = objective(x + t * step)
            evals += 1
            if f_new < f and f_new <= f + 1e-4 * t * descent:
                break
            if np.isfinite(f_new):
                t_min = -descent * t * t / (2.0 * (f_new - f - descent * t))
                t = min(max(t_min, 0.1 * t), 0.5 * t)
            else:
                t *= 0.5
        else:
            break
        s, yk = t * step, g_new - g
        gain = f - f_new
        x, f, g = x + s, f_new, g_new
        if gain <= floor:
            break
        sy = s @ yk
        if sy > 0:
            if h is None:
                h = (sy / (yk @ yk)) * eye
            v = eye - s[:, None] * yk / sy
            h = v @ h @ v.T + s[:, None] * s / sy
    return x, f, h


def maximize_regression(rep: PHRepresentation, family: str, data,
                        beta: np.ndarray, gamma: np.ndarray | None,
                        budget: int = STEP_BUDGET, *, _curvature: list | None = None
                        ) -> tuple[np.ndarray, np.ndarray | None, float]:
    """One coefficient-improvement pass with the representation held fixed.

    A quasi-Newton descent on the exact gradient from the supplied
    coefficients, capped at ``budget`` objective-and-gradient evaluations;
    the returned coefficients never score worse than the starting point.
    Returns them with their log-likelihood, :func:`pi_loglik` of the sample.

    ``_curvature`` is :func:`fit_pi`'s one-slot holder of the inverse
    Hessian: the descent starts from the matrix it holds (unless ``None``)
    and leaves its final one there, so curvature carries from one outer
    step to the next.  Without a holder every pass starts afresh.
    """
    sample = RegressionSample.coerce(data)
    beta = np.asarray(beta, dtype=float).ravel()
    gamma = None if gamma is None else np.asarray(gamma, dtype=float).ravel()
    x = _pack(beta, gamma)
    gamma_len = 0 if gamma is None else gamma.size
    objective = _fast_objective(rep, family, sample, gamma_len)
    f, g = objective(x)
    if not np.isfinite(f):
        raise InvalidInputError("starting coefficients have zero likelihood")
    if x.size:
        h = None if _curvature is None else _curvature[0]
        x, f, h = _descend(objective, x, f, g, budget, h)
        if _curvature is not None:
            _curvature[0] = h
    return (*_unpack(x, beta.size, gamma_len), -f)


@dataclass(frozen=True)
class PIFitConfig:
    """Settings of :func:`fit_pi`; ``nm_budget`` caps the objective-and-gradient
    evaluations of each coefficient step (the BFGS curvature those steps
    learn carries across outer steps whatever the budget)."""

    max_outer: int = 2000
    tol: float = 1e-4
    patience: int = 5
    nm_budget: int = STEP_BUDGET
    shape_covariates: bool = False   # regress the transform parameter on x


@dataclass(frozen=True)
class PIFitResult:
    model: PIModel
    structure: StructureSpec
    loglik_trace: np.ndarray
    converged: bool
    iterations: int
    dead_state_events: int = 0

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])

    @property
    def n_parameters(self) -> int:
        return (n_free_parameters(self.structure)
                + _pack(self.model.beta, self.model.gamma).size)


def _standardize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    center = x.mean(axis=0) if x.shape[0] else np.zeros(x.shape[1])
    scale = x.std(axis=0) if x.shape[0] else np.ones(x.shape[1])
    scale = np.where(scale < 1e-12, 1.0, scale)
    return (x - center) / scale, center, scale


def _destandardize(model: PIModel, center: np.ndarray,
                   scale: np.ndarray) -> PIModel:
    """Report coefficients on the original covariate scale.

    The centering constant leaves the rate score as a global factor, which is
    absorbed into the sub-intensity; the shape score absorbs it into the
    intercept.  The fitted distribution is unchanged.
    """
    beta = model.beta / scale
    shift = float(np.sum(model.beta * center / scale))
    t = model.rep.T * np.exp(-shift)
    gamma = model.gamma
    if gamma is not None:
        gamma = gamma.copy()
        if gamma.size > 1:
            gshift = float(np.sum(gamma[1:] * center / scale))
            gamma[1:] = gamma[1:] / scale
            gamma[0] = gamma[0] - gshift
    return PIModel(PHRepresentation(model.rep.pi, t), model.family, beta, gamma,
                   model.link, {"center": center.tolist(), "scale": scale.tolist()})


def fit_pi(data, spec: StructureSpec, family: str = "weibull",
           config: PIFitConfig | None = None, init: PHRepresentation | None = None,
           rng=None) -> PIFitResult:
    """Alternating estimation of the regression model.

    Each outer iteration transforms the data with the current coefficients,
    runs one EM pass on the representation, then improves the coefficients by
    a quasi-Newton step on the exact gradient (see
    :func:`maximize_regression`), warm-started from the previous values and
    from the previous step's inverse Hessian, so a step that starts near the
    optimum after a small M-step move needs few evaluations.  Covariates are
    standardized internally; reported coefficients are on the original scale.
    The EM loop is :func:`~matlife.em.fit_ph`'s, which stops at the first
    relative change below ``tol``; here the trace holds one :func:`pi_loglik`
    per outer step, and the change must stay below ``tol`` (finite, at least
    zero) for ``patience`` consecutive steps.
    """
    sample = RegressionSample.coerce(data).canonical()
    config = config or PIFitConfig()
    if config.max_outer < 1:
        raise InvalidInputError("max_outer must be at least one")
    if config.patience < 1:
        raise InvalidInputError("patience must be at least one")
    if config.nm_budget < 1:
        raise InvalidInputError("nm_budget must be at least one")
    shaped = transform_family(family).param_name is not None
    if config.shape_covariates and not shaped:
        raise InvalidInputError(f"{family} family has no shape parameter to regress")

    xs, center, scale = _standardize(sample.x)
    internal = RegressionSample(sample.y, sample.delta, xs, sample.weight)
    beta = np.zeros(internal.d)
    gamma = (np.zeros(1 + internal.d) if config.shape_covariates
             else np.zeros(1)) if shaped else None
    curvature = [None]

    def clocked_stats(rep, k):
        # the E-step on the data transformed by the current coefficients
        try:
            z = transform(PIModel(rep, family, beta, gamma), internal.y, internal.x)
            return e_step(rep, CensoredSample(z, internal.delta, internal.weight))
        except (DegenerateObservationError, ScoreOverflowError) as err:
            raise type(err)(err.index, f"outer iteration {k}: {err}") from err

    def advance(rep, k):
        nonlocal beta, gamma
        beta, gamma, ll = maximize_regression(rep, family, internal, beta, gamma,
                                              budget=config.nm_budget,
                                              _curvature=curvature)
        return ll, lambda: clocked_stats(rep, k)

    fit = _run_em(spec, init, rng, internal.total_weight, config.max_outer,
                  config.tol, config.patience,
                  lambda rep, k: (None, lambda: clocked_stats(rep, k)), advance)
    fitted = _destandardize(PIModel(fit.rep, family, beta, gamma), center, scale)
    return PIFitResult(fitted, spec, fit.loglik_trace, fit.converged,
                       fit.iterations, fit.dead_state_events)
