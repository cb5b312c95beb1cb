"""Matrix kernels used by the distribution and estimation code: the matrix
exponential, alone or of the Van Loan block that yields ``expm(Tz)`` and
the E-step's convolution integral in one pass (:func:`expm_and_conv`).
The E-step takes its convolutions in closed form from the eigen-factors of
``T`` and uses the Van Loan block only as its fallback, for representations
whose eigenvector condition number reaches :data:`PRODUCTS_COND_LIMIT`.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError

__all__ = ["mexp", "expm_and_conv"]

#: eigenvector condition number from which ``pi expm(Tz) v`` and the E-step
#: leave the spectral route (see ``phasetype.ph_products`` for the measured
#: accuracy)
PRODUCTS_COND_LIMIT = 1e6


def _check_square(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def mexp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of ``a``.

    Accepts a single ``(p, p)`` matrix or a stack ``(..., p, p)``; stacks are
    exponentiated slice by slice.
    """
    from scipy.linalg import expm  # loaded on first use: most runs never call it

    return expm(_check_square(a))


def expm_and_conv(t: np.ndarray, b: np.ndarray, z: np.ndarray):
    """``expm(t*z)`` and the integral of ``expm(t*(z-u)) @ b @ expm(t*u)`` for
    u in ``[0, z]``, stacked over the upper limits ``z``.

    Both are blocks of one exponential ``expm([[t, b], [0, t]] * z)`` (Van
    Loan 1978): the upper-left and the upper-right.  The E-step calls this
    only for representations without trusted eigen-factors.
    """
    t = _check_square(t, "t")
    b = _check_square(b, "b")
    if t.shape != b.shape:
        raise InvalidInputError("t and b must have matching shapes")
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise InvalidInputError("z must be one-dimensional")
    if np.any(z < 0) or not np.all(np.isfinite(z)):
        raise InvalidInputError("upper limits must be finite and nonnegative")
    p = t.shape[0]
    if z.size == 0:
        return np.zeros((0, p, p)), np.zeros((0, p, p))
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = t
    block[:p, p:] = b
    block[p:, p:] = t
    full = mexp(block[None, :, :] * z[:, None, None])
    return full[:, :p, :p], full[:, :p, p:]
