"""Matrix kernels used by the distribution and estimation code.

Two operations cover everything the rest of the package needs: the matrix
exponential, alone or of the Van Loan block that yields ``expm(Tz)`` and the
E-step's convolution integral in one pass, and the two analytic matrix
functions behind :meth:`~matlife.phasetype.IPHModel.mean` and
:meth:`~matlife.phasetype.IPHModel.green_matrix`, fractional powers and
the exponential integral.  The E-step takes its convolutions in
closed form from the eigen-factors of ``T`` and uses the Van Loan block
(:func:`expm_and_conv`) only as its fallback, for representations whose
eigenvector condition number reaches :data:`PRODUCTS_COND_LIMIT`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.linalg import expm as _scipy_expm
from scipy.special import exp1

from .exceptions import DomainError, InvalidInputError

__all__ = ["mexp", "expm_and_conv", "matrix_function"]

#: eigenvector condition number beyond which the spectral route is distrusted
EIG_COND_LIMIT = 1e8

#: eigenvector condition number from which ``pi expm(Tz) v`` and the E-step
#: leave the spectral route (see ``phasetype.ph_products`` for the measured
#: accuracy)
PRODUCTS_COND_LIMIT = 1e6

#: nodes for the fallback contour quadrature
CONTOUR_NODES = 512


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
    a = _check_square(a)
    return _scipy_expm(a)


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


def _contour_value(a: np.ndarray, fn: Callable, eigvals: np.ndarray) -> np.ndarray:
    """Cauchy-integral evaluation on a circle enclosing the spectrum and
    clear of the branch cut (-inf, 0] of ``fn``."""
    center = eigvals.mean()
    radius = 1.1 * np.max(np.abs(eigvals - center)) + 1e-3 * (1.0 + abs(center))
    # distance from the disk's center to the cut
    cut_dist = abs(center.imag) if center.real <= 0 else abs(center)
    if radius >= cut_dist:
        raise DomainError(
            "contour for a branch-cut function would cross the negative "
            "real axis; spectrum too spread or too close to zero")
    p = a.shape[0]
    angles = 2.0 * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES
    nodes = center + radius * np.exp(1j * angles)
    acc = np.zeros((p, p), dtype=complex)
    eye = np.eye(p)
    for w, ang in zip(nodes, np.exp(1j * angles)):
        acc += fn(w) * ang * np.linalg.solve(w * eye - a, eye)
    return acc * radius / CONTOUR_NODES


def matrix_function(a: np.ndarray, f: str, **params) -> np.ndarray:
    """Fractional power (``f="power"`` with ``alpha``) or exponential
    integral (``f="exp1"``) of a square matrix.

    Both are principal branches with their cut on (-inf, 0].  Diagonalizable
    input with a well conditioned eigenbasis goes through the spectral
    formula; otherwise a 512-node contour quadrature around the spectrum is
    used, which raises :class:`DomainError` when the circle would meet the
    cut.  Complex intermediates are allowed; the imaginary part of the
    result must stay below 1e-9 and is discarded.
    """
    a = _check_square(a)
    if a.ndim != 2:
        raise InvalidInputError("matrix_function expects a single matrix")
    if f == "power":
        alpha = float(params["alpha"])
        fn = lambda s: s**alpha
    elif f == "exp1":
        fn = exp1
    else:
        raise InvalidInputError(f"unknown matrix function id {f!r}")
    eigvals, eigvecs = np.linalg.eig(a)

    with np.errstate(divide="ignore", invalid="ignore"):
        fvals = np.asarray(fn(eigvals))
    if not np.all(np.isfinite(fvals.view(float))):
        raise DomainError("function is singular on the spectrum")

    if np.linalg.cond(eigvecs) < EIG_COND_LIMIT:
        out = eigvecs @ np.diag(fvals) @ np.linalg.inv(eigvecs)
    else:
        out = _contour_value(a, fn, eigvals)

    imag_max = np.abs(out.imag).max()
    if imag_max > 1e-9 * max(1.0, np.abs(out.real).max()):
        raise DomainError(f"imaginary residue {imag_max:.2e} exceeds tolerance")
    return out.real
