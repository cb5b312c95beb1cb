"""Time transforms turning a homogeneous absorption time into a lifetime.

A transform is described by its intensity ``lam(s)`` (the local speed of the
clock), its integral ``cumulative(y)`` mapping lifetime scale to operational
scale, and the inverse map ``inverse_cumulative(z)``.  The plain families
(exponential-rate, power, identity) are listed once, in :data:`FAMILIES`;
two wrappers derive conditional and covariate-scaled clocks from them.  Each
family names its parameter, if any, in ``param_name`` and gives the clock
with its derivatives in the parameter's log in one static ``clock_terms``.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError

__all__ = [
    "GompertzTransform",
    "WeibullTransform",
    "IdentityTransform",
    "ShiftedTransform",
    "ScaledTransform",
    "FAMILIES",
    "transform_family",
    "make_transform",
]


def _positive_param(value, name: str):
    """``value`` as a float, or a float array for one parameter per point."""
    value = np.asarray(value, dtype=float)
    if not ((value > 0) & (value < np.inf)).all():
        raise InvalidInputError(f"{name} must be positive and finite")
    return value[()]


class _Family:
    """A plain family; ``params`` and the repr follow from ``param_name``.

    Each family's static ``clock_terms(param, y, log_y)`` returns ``(G, log
    lam, dG / dlog p, dlog lam / dlog p)`` at the points ``y``, a float
    array with ``log_y = np.log(y)``, for the parameter ``p = param`` (a
    valid scalar or one value per point, ``None`` without a parameter).
    ``G`` and ``log lam`` are bitwise ``cumulative`` and ``log_intensity``
    of the transform with that parameter, and no term warns where the
    clock overflows.  Regression's coefficient step calls it at every trial
    point with the logarithms of its points taken once.
    """

    param_name: str | None = None

    @property
    def params(self) -> dict:
        name = self.param_name
        return {} if name is None else {name: getattr(self, name)}

    def __repr__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{type(self).__name__}({inner})"


class GompertzTransform(_Family):
    """Exponentially increasing intensity ``exp(beta * s)``; ``beta`` may be
    an array broadcasting against the evaluation points."""

    family = "gompertz"
    param_name = "beta"

    def __init__(self, beta):
        self.beta = _positive_param(beta, "beta")

    def intensity(self, s):
        with np.errstate(over="ignore"):
            return np.exp(self.beta * np.asarray(s, dtype=float))

    def log_intensity(self, s):
        return self.beta * np.asarray(s, dtype=float)

    def cumulative(self, y):
        with np.errstate(over="ignore"):
            return np.expm1(self.beta * np.asarray(y, dtype=float)) / self.beta

    @staticmethod
    def clock_terms(beta, y, log_y):
        """``G``, ``log lam``, ``y exp(beta y) - G`` and ``beta y`` at ``y``
        (see :class:`_Family`), from one ``beta y``; where ``G`` overflows
        its slope is ``+inf``, not ``inf - inf``."""
        with np.errstate(over="ignore", invalid="ignore"):
            by = beta * y
            cum = np.expm1(by) / beta
            return cum, by, np.where(cum == np.inf, np.inf, y * np.exp(by) - cum), by

    def inverse_cumulative(self, z):
        return np.log1p(self.beta * np.asarray(z, dtype=float)) / self.beta


class WeibullTransform(_Family):
    """Power intensity ``theta * s**(theta - 1)``; ``theta`` may be an array
    broadcasting against the evaluation points."""

    family = "weibull"
    param_name = "theta"

    def __init__(self, theta):
        self.theta = _positive_param(theta, "theta")

    def intensity(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore"):
            return self.theta * s ** (self.theta - 1.0)

    def log_intensity(self, s):
        s = np.asarray(s, dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(self.theta) + (self.theta - 1.0) * np.log(s)

    def cumulative(self, y):
        with np.errstate(over="ignore"):
            return np.asarray(y, dtype=float) ** self.theta

    @staticmethod
    def clock_terms(theta, y, log_y):
        """``G``, ``log lam``, ``theta log(y) G`` (zero at ``y = 0``) and
        ``1 + theta log(y)`` at ``y`` (see :class:`_Family`), from one
        ``y**theta`` and one ``theta log(y)``."""
        with np.errstate(over="ignore", invalid="ignore"):
            cum = y ** theta
            t_log_y = theta * log_y
            return (cum, np.log(theta) + (theta - 1.0) * log_y,
                    np.where(y > 0, t_log_y * cum, 0.0), 1.0 + t_log_y)

    def inverse_cumulative(self, z):
        return np.asarray(z, dtype=float) ** (1.0 / self.theta)


class IdentityTransform(_Family):
    """Constant unit intensity; the lifetime is the absorption time itself."""

    family = "identity"

    def intensity(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def log_intensity(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def cumulative(self, y):
        return np.asarray(y, dtype=float)

    @staticmethod
    def clock_terms(param, y, log_y):
        """``y`` and three zeros: the clock has no parameter (see
        :class:`_Family`)."""
        zero = np.zeros_like(y)
        return y, zero, zero, zero

    def inverse_cumulative(self, z):
        return np.asarray(z, dtype=float)


class ShiftedTransform:
    """Transform seen from age ``offset`` onward.

    Intensity ``lam(offset + u)``; the cumulative map is re-anchored so that
    ``cumulative(0) == 0``.
    """

    family = "shifted"

    def __init__(self, base, offset: float):
        offset = float(offset)
        if not np.isfinite(offset) or offset < 0:
            raise InvalidInputError("offset must be nonnegative and finite")
        self.base = base
        self.offset = offset
        self._base_at_offset = float(base.cumulative(offset))

    def intensity(self, s):
        return self.base.intensity(self.offset + np.asarray(s, dtype=float))

    def log_intensity(self, s):
        return self.base.log_intensity(self.offset + np.asarray(s, dtype=float))

    def cumulative(self, y):
        return self.base.cumulative(self.offset + np.asarray(y, dtype=float)) - self._base_at_offset

    def inverse_cumulative(self, z):
        z = np.asarray(z, dtype=float)
        return self.base.inverse_cumulative(z + self._base_at_offset) - self.offset

    def __repr__(self):
        return f"ShiftedTransform({self.base!r}, offset={self.offset!r})"


class ScaledTransform:
    """Transform with intensity multiplied by a positive constant."""

    family = "scaled"

    def __init__(self, base, factor: float):
        factor = float(factor)
        if not np.isfinite(factor) or factor <= 0:
            raise InvalidInputError("factor must be positive and finite")
        self.base = base
        self.factor = factor

    def intensity(self, s):
        return self.factor * self.base.intensity(s)

    def log_intensity(self, s):
        return np.log(self.factor) + self.base.log_intensity(s)

    def cumulative(self, y):
        return self.factor * self.base.cumulative(y)

    def inverse_cumulative(self, z):
        return self.base.inverse_cumulative(np.asarray(z, dtype=float) / self.factor)

    def __repr__(self):
        return f"ScaledTransform({self.base!r}, factor={self.factor!r})"


#: the plain clock families, keyed by the name models save and the CLI takes
FAMILIES = {"identity": IdentityTransform, "gompertz": GompertzTransform,
            "weibull": WeibullTransform}


def transform_family(family: str) -> type:
    """The class of the plain family named ``family``; an unknown name raises
    :class:`InvalidInputError`."""
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise InvalidInputError(f"unknown transform family {family!r}")
    return cls


def _plain_params(transform) -> dict:
    """The parameters of a plain-family transform whose parameter is a
    scalar, as saved in model files and fitted directly; any other transform
    raises :class:`InvalidInputError`."""
    if transform.family not in FAMILIES:
        raise InvalidInputError("expected a plain transform family; rebuild shifted "
                                "or scaled models from their base")
    params = transform.params
    if any(np.ndim(value) for value in params.values()):
        raise InvalidInputError("expected a scalar transform parameter")
    return params


def make_transform(family: str, param=None):
    """Build a transform from a family name and its parameter (a scalar, or an
    array with one value per point), given exactly when the family has one."""
    cls = transform_family(family)
    if (param is None) != (cls.param_name is None):
        raise InvalidInputError(f"{family} transform "
                                f"{'takes no' if param is not None else 'requires a'} parameter")
    return cls() if param is None else cls(param)
