"""Time transforms turning a homogeneous absorption time into a lifetime.

A transform is described by its intensity ``lam(s)`` (the local speed of the
clock), its integral ``cumulative(y)`` mapping lifetime scale to operational
scale, and the inverse map ``inverse_cumulative(z)``.  Three parametric
families are provided (exponential-rate, power, identity) plus two wrappers
used for conditional and covariate-scaled models.  The families also give
the derivatives of ``cumulative`` and ``log_intensity`` with respect to the
log of their parameter, for the regression coefficient step.
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
    "make_transform",
]


def _positive_param(value, name: str):
    """``value`` as a float, or a float array for one parameter per point."""
    value = np.asarray(value, dtype=float)
    if not ((value > 0) & (value < np.inf)).all():
        raise InvalidInputError(f"{name} must be positive and finite")
    return value[()]


class GompertzTransform:
    """Exponentially increasing intensity ``exp(beta * s)``; ``beta`` may be
    an array broadcasting against the evaluation points."""

    family = "gompertz"

    def __init__(self, beta):
        self.beta = _positive_param(beta, "beta")

    @property
    def params(self) -> dict:
        return {"beta": self.beta}

    def intensity(self, s):
        with np.errstate(over="ignore"):
            return np.exp(self.beta * np.asarray(s, dtype=float))

    def log_intensity(self, s):
        return self.beta * np.asarray(s, dtype=float)

    def cumulative(self, y):
        with np.errstate(over="ignore"):
            return np.expm1(self.beta * np.asarray(y, dtype=float)) / self.beta

    def cumulative_dlog_param(self, y):
        """``d cumulative(y) / d log(beta)``, that is ``y exp(beta y) - G``."""
        y = np.asarray(y, dtype=float)
        with np.errstate(over="ignore"):
            return y * np.exp(self.beta * y) - self.cumulative(y)

    def log_intensity_dlog_param(self, s):
        """``d log_intensity(s) / d log(beta)``, that is ``beta s``."""
        return self.log_intensity(s)

    def inverse_cumulative(self, z):
        return np.log1p(self.beta * np.asarray(z, dtype=float)) / self.beta

    def __repr__(self):
        return f"GompertzTransform(beta={self.beta})"


class WeibullTransform:
    """Power intensity ``theta * s**(theta - 1)``; ``theta`` may be an array
    broadcasting against the evaluation points."""

    family = "weibull"

    def __init__(self, theta):
        self.theta = _positive_param(theta, "theta")

    @property
    def params(self) -> dict:
        return {"theta": self.theta}

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

    def cumulative_dlog_param(self, y):
        """``d cumulative(y) / d log(theta)``, that is ``theta log(y) y**theta``."""
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return np.where(y > 0, self.theta * np.log(y) * self.cumulative(y), 0.0)

    def log_intensity_dlog_param(self, s):
        """``d log_intensity(s) / d log(theta)``, that is ``1 + theta log(s)``."""
        with np.errstate(divide="ignore"):
            return 1.0 + self.theta * np.log(np.asarray(s, dtype=float))

    def inverse_cumulative(self, z):
        return np.asarray(z, dtype=float) ** (1.0 / self.theta)

    def __repr__(self):
        return f"WeibullTransform(theta={self.theta})"


class IdentityTransform:
    """Constant unit intensity; the lifetime is the absorption time itself."""

    family = "identity"
    params: dict = {}

    def intensity(self, s):
        return np.ones_like(np.asarray(s, dtype=float))

    def log_intensity(self, s):
        return np.zeros_like(np.asarray(s, dtype=float))

    def cumulative(self, y):
        return np.asarray(y, dtype=float)

    def cumulative_dlog_param(self, y):
        """Zero: the identity clock has no parameter."""
        return np.zeros_like(np.asarray(y, dtype=float))

    log_intensity_dlog_param = cumulative_dlog_param

    def inverse_cumulative(self, z):
        return np.asarray(z, dtype=float)

    def __repr__(self):
        return "IdentityTransform()"


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

    @property
    def params(self) -> dict:
        return {"offset": self.offset, "base": self.base.family, **self.base.params}

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

    @property
    def params(self) -> dict:
        return {"factor": self.factor, "base": self.base.family, **self.base.params}

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


#: families usable in regression, keyed by name; each takes one positive
#: parameter, a scalar or an array with one value per point
SCALAR_FAMILIES = {"gompertz": GompertzTransform, "weibull": WeibullTransform}


def make_transform(family: str, param=None):
    """Build a transform from a family name and its parameter (a scalar, or an
    array with one value per point)."""
    if family == "identity":
        if param is not None:
            raise InvalidInputError("identity transform takes no parameter")
        return IdentityTransform()
    cls = SCALAR_FAMILIES.get(family)
    if cls is None:
        raise InvalidInputError(f"unknown transform family {family!r}")
    if param is None:
        raise InvalidInputError(f"{family} transform requires a parameter")
    return cls(param)
