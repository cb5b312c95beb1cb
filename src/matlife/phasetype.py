"""Phase-type lifetime distributions with a deterministically transformed clock.

A latent Markov jump process on ``p`` transient states with sub-intensity
matrix ``T`` and initial distribution ``pi`` is absorbed at a random time
``Z``.  The observable lifetime is ``Y = g(Z)`` for an increasing transform
``g`` described by a time-transform object (see :mod:`matlife.inhomogeneity`).
The survival function is ``pi @ expm(T * ginv(y)) @ 1`` and the density is
``lam(y) * pi @ expm(T * ginv(y)) @ t`` with exit vector ``t = -T @ 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, InvalidInputError
from .inhomogeneity import (
    GompertzTransform,
    IdentityTransform,
    ShiftedTransform,
    WeibullTransform,
)
from .linalg import PRODUCTS_COND_LIMIT, matrix_function, mexp

__all__ = [
    "validate_sub_intensity",
    "PHRepresentation",
    "IPHModel",
    "Evaluation",
    "CoxianSpec",
    "coxian_density",
    "TailParams",
    "tail_params",
    "tail_hazard_constant",
    "ph_products",
]

#: survival values below this are treated as underflowed for hazard purposes
SURVIVAL_FLOOR = 1e-300

_DUST = 1e-12


def validate_sub_intensity(t: np.ndarray) -> np.ndarray:
    """Check that ``t`` is a valid sub-intensity matrix and return it.

    Requirements: square and finite, strictly negative diagonal, nonnegative
    off-diagonal entries, row sums at most zero, and absorption reachable from
    every state (all eigenvalues in the open left half-plane).  Negative dust
    below 1e-12 (relative) on the off-diagonal is zeroed rather than rejected.
    """
    t = np.array(t, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidInputError(f"sub-intensity must be square, got {t.shape}")
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("sub-intensity contains non-finite entries")
    p = t.shape[0]
    scale = max(1.0, np.abs(t).max())
    off = t[~np.eye(p, dtype=bool)]
    if np.any(off < -_DUST * scale):
        raise InvalidInputError("off-diagonal rates must be nonnegative")
    t[~np.eye(p, dtype=bool)] = np.clip(off, 0.0, None)
    if np.any(np.diag(t) >= 0):
        raise InvalidInputError("diagonal entries must be strictly negative")
    rowsum = t.sum(axis=1)
    if np.any(rowsum > _DUST * scale):
        raise InvalidInputError("row sums must not exceed zero")
    if np.max(np.linalg.eigvals(t).real) >= 0:
        raise InvalidInputError("absorption must be reachable from every state")
    return t


class Spectrum(NamedTuple):
    """``T = V diag(eigvals) V^-1`` and the initial vector in the eigenbasis,
    ``start = pi V``, so that ``pi expm(Tz) = (start * exp(eigvals z)) @
    vecs_inv``; ``exit_coef`` and ``ones_coef`` are ``start * (V^-1 t)`` and
    ``start * (V^-1 1)``, the weights of ``exp(eigvals z)`` in
    ``pi expm(Tz) t`` and ``pi expm(Tz) 1``.

    ``real`` indexes the real eigenvalues and ``pairs`` the first member of
    each complex-conjugate pair, whose second member sits at the next index
    with the conjugate eigenvalue and eigenvector (see
    :func:`_conjugate_pairs`).  For real ``z`` the terms of a pair
    are conjugate, so the kernels take ``exp`` of one member only and fold
    the other in as a conjugate; with no pair (``eigvals`` real) they run in
    real arithmetic throughout."""

    eigvals: np.ndarray
    vecs: np.ndarray
    vecs_inv: np.ndarray
    start: np.ndarray
    exit_coef: np.ndarray
    ones_coef: np.ndarray
    real: np.ndarray
    pairs: np.ndarray


def _conjugate_pairs(eigvals: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the real eigenvalues and of the first member of each
    complex-conjugate pair of a real matrix.

    LAPACK returns a pair side by side, positive imaginary part first, with
    exactly conjugate eigenvalues and eigenvectors; the folded kernels rely
    on that layout, so any other raises :class:`DomainError`.
    """
    p = eigvals.size
    if not np.iscomplexobj(eigvals):
        return np.arange(p), np.arange(0)
    real, pairs = [], []
    k = 0
    while k < p:
        if eigvals[k].imag == 0:
            real.append(k)
            k += 1
            continue
        if (eigvals[k].imag < 0 or k + 1 == p
                or eigvals[k + 1] != eigvals[k].conjugate()
                or not np.array_equal(vecs[:, k + 1], vecs[:, k].conj())):
            raise DomainError("eigenvalues are not in adjacent conjugate pairs")
        pairs.append(k)
        k += 2
    return np.asarray(real, dtype=np.intp), np.asarray(pairs, dtype=np.intp)


@dataclass(frozen=True)
class PHRepresentation:
    """Initial distribution and sub-intensity matrix of an absorbing chain."""

    pi: np.ndarray
    T: np.ndarray

    def __post_init__(self):
        pi = np.array(self.pi, dtype=float).ravel()
        t = validate_sub_intensity(self.T)
        if pi.shape[0] != t.shape[0]:
            raise InvalidInputError("pi and T dimensions disagree")
        if np.any(pi < -_DUST):
            raise InvalidInputError("initial probabilities must be nonnegative")
        pi = np.clip(pi, 0.0, None)
        if abs(pi.sum() - 1.0) > 1e-12:
            raise InvalidInputError("initial probabilities must sum to one")
        pi = pi / pi.sum()
        pi.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "T", t)

    @property
    def p(self) -> int:
        return self.T.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        return -self.T.sum(axis=1)

    @cached_property
    def _spectrum(self) -> Spectrum | None:
        """Eigen-factors of ``T`` shared by :func:`ph_products`, the E-step
        and :meth:`IPHModel.residual_lifetime`, computed on first use;
        ``None`` when cond(V) reaches
        :data:`~matlife.linalg.PRODUCTS_COND_LIMIT`."""
        eigvals, eigvecs = np.linalg.eig(self.T)
        if np.linalg.cond(eigvecs) >= PRODUCTS_COND_LIMIT:
            return None
        start = self.pi @ eigvecs
        vinv = np.linalg.inv(eigvecs)
        spectrum = Spectrum(eigvals, eigvecs, vinv, start,
                            start * (vinv @ self.exit_rates),
                            start * vinv.sum(axis=1),
                            *_conjugate_pairs(eigvals, eigvecs))
        for arr in spectrum:
            arr.setflags(write=False)
        return spectrum


def ph_products(rep: PHRepresentation, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(pi expm(Tz) t, pi expm(Tz) 1)`` for a vector of nonnegative ``z``;
    both are exactly zero at ``z = +inf``.

    The branch depends on cond(V) for the eigenvector matrix ``V`` of ``T``.
    Below :data:`~matlife.linalg.PRODUCTS_COND_LIMIT` (1e6) it is the spectral
    sum ``sum_k exp(lambda_k z) (pi V)_k (V^-1 v)_k`` over factors cached on
    ``rep``, clamped at zero.  Its relative error grows like cond(V) * eps:
    against a Taylor-series exponential for ``z <= 200`` it is about 1e-13
    for well-separated rates and stayed below 6.2e-10 on near-equal-rate
    Coxian chains of order 2 to 10 with cond(V) < 1e6 (4.3e-9 between 1e6 and
    1e7).  Otherwise (near-defective ``T``) it is one stacked matrix
    exponential per point.
    """
    return _products(rep, z, slope=False)


def _products(rep: PHRepresentation, z, slope: bool) -> tuple[np.ndarray, ...]:
    """:func:`ph_products`, followed when ``slope`` is set by the derivative
    ``pi T expm(Tz) t`` of the density factor in ``z``, all from one
    exponential of ``z`` times the spectrum (or one stack of fronts).

    At ``z = +inf`` the chain has absorbed and every product is exactly
    zero.  On a spectrum with complex-conjugate pairs the sum is folded
    (:func:`_folded_exp`): ``exp`` runs over the real eigenvalues in real
    arithmetic and over one member of each pair."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if not np.all(z >= 0):
        raise InvalidInputError("operational times must be nonnegative")
    if z.size == 0:
        return (np.zeros(0),) * (3 if slope else 2)
    spectrum = rep._spectrum
    if spectrum is not None and not spectrum.pairs.size:
        # every eigenvalue is real and negative, so exp is exactly 0 at +inf
        ez = np.exp(np.multiply.outer(z, spectrum.eigvals))
        out = (np.maximum((ez @ spectrum.exit_coef).real, 0.0),
               np.maximum((ez @ spectrum.ones_coef).real, 0.0))
        if slope:
            out += ((ez @ (spectrum.eigvals * spectrum.exit_coef)).real,)
        return out
    if z.max() == np.inf:
        absorbed = z == np.inf
        out = _products(rep, np.where(absorbed, 0.0, z), slope)
        return tuple(np.where(absorbed, 0.0, x) for x in out)
    if spectrum is not None:
        coef = [spectrum.exit_coef, spectrum.ones_coef]
        if slope:
            coef.append(spectrum.eigvals * spectrum.exit_coef)
        out = _folded_exp(spectrum, z, np.stack(coef, axis=1))[2]
        return ((np.maximum(out[:, 0], 0.0), np.maximum(out[:, 1], 0.0))
                + ((out[:, 2].copy(),) if slope else ()))
    w = _stacked_fronts(rep, z)
    out = (w @ rep.exit_rates, w.sum(axis=1))
    if slope:
        out += (w @ (rep.T @ rep.exit_rates),)
    return out


def _folded_exp(spectrum: Spectrum, z: np.ndarray, coef: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``exp(z lam)`` over the real eigenvalues, in real dtype, and over the
    first member of each conjugate pair, with ``Re(exp(z lam) @ coef)``
    summed from those columns alone: each pair's weight folds to
    ``coef_k + conj(coef_{k+1})``, which is algebraically the unfolded sum
    for real ``z``.  ``coef`` holds one weight per eigenvalue along its
    first axis."""
    lam, real, pairs = spectrum.eigvals, spectrum.real, spectrum.pairs
    er = np.exp(np.multiply.outer(z, lam[real].real))
    ec = np.exp(np.multiply.outer(z, lam[pairs]))
    return er, ec, (er @ coef[real].real
                    + (ec @ (coef[pairs] + coef[pairs + 1].conj())).real)


def _censored_loglik(rep: PHRepresentation, z, observed, weight,
                     log_jacobian=0.0, slope: bool = False):
    """Sum of ``weight * (log f(z) + log_jacobian)`` over ``observed`` rows
    and of ``weight * log S(z)`` over the rest, for the products ``f`` and
    ``S`` of :func:`ph_products` and the clock's log-intensity
    ``log_jacobian``.  It is ``-inf``, never an error, where a factor
    vanishes or ``z`` overflowed to ``+inf`` (past survival underflow).
    With ``slope`` the result is ``(value, d)``, ``d`` being each row's
    derivative in ``z`` of its log factor, ``f'/f`` or ``-f/S`` (``None``
    when the value is ``-inf``)."""
    products = _products(rep, z, slope)
    factor = np.where(observed, products[0], products[1])
    if not np.all(factor > 0):
        return (-np.inf, None) if slope else -np.inf
    value = float(np.sum(weight * (np.log(factor)
                                   + np.where(observed, log_jacobian, 0.0))))
    if not slope:
        return value
    return value, np.where(observed, products[2], -products[0]) / factor


def _stacked_fronts(rep: PHRepresentation, z: np.ndarray) -> np.ndarray:
    """Rows ``pi expm(T z)`` by one stacked matrix exponential per point."""
    # expm degrades at extreme norms; beyond this cap the true exponential
    # of a sub-intensity matrix already underflows to exact zero
    cap = 1e15 / max(1.0, float(np.abs(rep.T).max()))
    z = np.minimum(z, cap)
    ez = mexp(rep.T[None, :, :] * z[:, None, None])
    return np.einsum("j,njk->nk", rep.pi, ez)


class Evaluation(NamedTuple):
    """Pointwise distribution summaries; ``extrapolated`` marks hazard values
    computed from the tail asymptote after survival underflow."""

    density: np.ndarray
    survival: np.ndarray
    hazard: np.ndarray
    cum_hazard: np.ndarray
    extrapolated: np.ndarray


class TailParams(NamedTuple):
    decay_rate: float
    power_order: int


def tail_params(t: np.ndarray) -> TailParams:
    """Decay rate and polynomial order of the absorption-time tail.

    The survival tail behaves like ``z**(n-1) * exp(-eta * z)`` where ``-eta``
    is the dominant eigenvalue of ``T`` and ``n`` its algebraic multiplicity
    (counted within a relative tolerance).
    """
    t = validate_sub_intensity(np.asarray(t, dtype=float))
    eig = np.linalg.eigvals(t)
    top = eig.real.max()
    mult = int(np.sum(eig.real >= top - 1e-8 * max(1.0, abs(top))))
    return TailParams(-top, mult)


def tail_hazard_constant(rep: PHRepresentation) -> float:
    """Limit of ``(pi expm(Tz) t) / (pi expm(Tz) 1)`` as ``z`` grows.

    Evaluated at a point deep in the tail; the point is pulled back toward
    zero if the initial vector misses the slowest mode entirely and the
    denominator underflows.
    """
    eta = tail_params(rep.T).decay_rate
    z = 600.0 / eta
    for _ in range(60):
        dens, surv = ph_products(rep, np.asarray([z]))
        if surv[0] > 1e-290:
            return float(dens[0] / surv[0])
        z *= 0.5
    raise DomainError("could not find a representable tail point")


def _ages(y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y < 0) or not np.all(np.isfinite(y)):
        raise InvalidInputError("evaluation points must be finite and nonnegative")
    return y


@dataclass(frozen=True)
class IPHModel:
    """Lifetime distribution ``Y = g(Z)`` for a phase-type absorption time."""

    rep: PHRepresentation
    transform: object = field(default_factory=IdentityTransform)

    @property
    def p(self) -> int:
        return self.rep.p

    def evaluate(self, y) -> Evaluation:
        """Density, survival, hazard and cumulative hazard at ``y >= 0``.

        Where survival underflows (below 1e-300) the hazard is reported as
        ``c * lam(y)`` using the tail constant ``c`` and flagged.
        """
        y_arr = _ages(y)
        dens_ph, surv = ph_products(self.rep, self.transform.cumulative(y_arr))
        lam = self.transform.intensity(y_arr)
        # the phase factor decays faster than any clock intensity grows, so
        # a zero phase factor forces zero density even when lam overflows
        with np.errstate(invalid="ignore"):
            density = np.where(dens_ph == 0.0, 0.0, lam * dens_ph)
        extrapolated = surv < SURVIVAL_FLOOR
        hazard = np.empty_like(surv)
        ok = ~extrapolated
        hazard[ok] = density[ok] / surv[ok]
        if extrapolated.any():
            hazard[extrapolated] = tail_hazard_constant(self.rep) * lam[extrapolated]
        with np.errstate(divide="ignore"):
            cum_hazard = -np.log(surv)
        if np.isscalar(y) or np.ndim(y) == 0:
            return Evaluation(density[0], surv[0], hazard[0], cum_hazard[0],
                              bool(extrapolated[0]))
        return Evaluation(density, surv, hazard, cum_hazard, extrapolated)

    def density(self, y):
        return self.evaluate(y).density

    def survival(self, y):
        return self.evaluate(y).survival

    def hazard(self, y):
        return self.evaluate(y).hazard

    def cum_hazard(self, y):
        return self.evaluate(y).cum_hazard

    def sample(self, n: int, rng=None) -> np.ndarray:
        """Draw ``n`` lifetimes by simulating the embedded jump chain."""
        if n < 0:
            raise InvalidInputError("sample size must be nonnegative")
        rng = np.random.default_rng(rng)
        rep = self.rep
        p = rep.p
        rates = -np.diag(rep.T)
        jump = np.hstack([rep.T / rates[:, None], (rep.exit_rates / rates)[:, None]])
        np.fill_diagonal(jump, 0.0)
        cum = np.cumsum(jump, axis=1)
        cum[:, -1] = 1.0

        state = rng.choice(p, size=n, p=rep.pi)
        clock = np.zeros(n)
        active = np.ones(n, dtype=bool)
        guard = 0
        while active.any():
            idx = np.flatnonzero(active)
            cur = state[idx]
            clock[idx] += rng.exponential(1.0 / rates[cur])
            nxt = (rng.random(idx.size)[:, None] > cum[cur]).sum(axis=1)
            absorbed = nxt == p
            active[idx[absorbed]] = False
            state[idx[~absorbed]] = nxt[~absorbed]
            guard += 1
            if guard > 100_000:
                raise DomainError("absorption did not occur; chain looks defective")
        return np.asarray(self.transform.inverse_cumulative(clock))

    def mean(self) -> float:
        """Expected lifetime, by the closed formula for the transform family."""
        rep = self.rep
        fam = self.transform.family
        ones = np.ones(rep.p)
        if fam == "identity":
            return float(rep.pi @ np.linalg.solve(-rep.T, ones))
        if fam == "weibull":
            theta = self.transform.theta
            from scipy.special import gamma
            frac = matrix_function(-rep.T, "power", alpha=-1.0 / theta)
            return float(gamma(1.0 + 1.0 / theta) * (rep.pi @ frac @ ones))
        if fam == "gompertz":
            return float(self.rep.pi @ self.green_matrix() @ ones)
        raise NotImplementedError(f"no mean formula for family {fam!r}")

    def green_matrix(self) -> np.ndarray:
        """Expected operational time in each state pair, integrated over age.

        ``U = integral of expm(T * ginv(s)) ds`` over all ages; closed forms
        exist for the identity and gompertz transforms.
        """
        rep = self.rep
        fam = self.transform.family
        if fam == "identity":
            return np.linalg.inv(-rep.T)
        if fam == "gompertz":
            beta = self.transform.beta
            m = -rep.T / beta
            return mexp(m) @ matrix_function(m, "exp1") / beta
        raise NotImplementedError(f"no green-matrix formula for family {fam!r}")

    def loglik(self, y, delta=None, weight=None) -> float:
        """Weighted censored log-likelihood of lifetimes ``y``.

        ``delta`` defaults to all observed, ``weight`` to ones.  Negative or
        non-finite ages raise; otherwise the result is ``-inf``, never an
        error, when a density or survival factor vanishes or the clock
        overflows.
        """
        y = _ages(y)
        observed = True if delta is None else np.asarray(delta).ravel() == 1
        weight = 1.0 if weight is None else np.asarray(weight, dtype=float).ravel()
        return _censored_loglik(self.rep, self.transform.cumulative(y), observed,
                                weight, self.transform.log_intensity(y))

    def residual_lifetime(self, x: float) -> "IPHModel":
        """Distribution of ``Y - x`` given ``Y > x``; same sub-intensity,
        re-weighted start and age-shifted transform."""
        x = float(x)
        if x < 0 or not np.isfinite(x):
            raise InvalidInputError("conditioning age must be nonnegative")
        if x == 0.0:
            return IPHModel(self.rep, self.transform)
        z = float(self.transform.cumulative(x))
        spectrum = self.rep._spectrum
        if spectrum is not None:
            coef = spectrum.start[:, None] * spectrum.vecs_inv
            w = np.maximum(_folded_exp(spectrum, np.asarray([z]), coef)[2][0], 0.0)
        else:
            w = _stacked_fronts(self.rep, np.asarray([z]))[0]
        total = w.sum()
        if total < SURVIVAL_FLOOR:
            raise DomainError(f"survival at {x} is numerically zero")
        rep = PHRepresentation(w / total, self.rep.T)
        if self.transform.family == "identity":
            # memoryless clock: the shift is a no-op, keep closed forms
            return IPHModel(rep, self.transform)
        return IPHModel(rep, ShiftedTransform(self.transform, x))


@dataclass(frozen=True)
class CoxianSpec:
    """Ordered chain where state ``k`` feeds state ``k+1`` or absorbs.

    ``rates`` are the holding rates, ``continuations[k]`` the probability of
    moving on rather than absorbing.  A strict chain starts in state one; the
    generalized variant carries a free initial distribution.
    """

    rates: np.ndarray
    continuations: np.ndarray
    pi: np.ndarray | None = None
    generalized: bool = False

    def __post_init__(self):
        rates = np.array(self.rates, dtype=float).ravel()
        cont = np.array(self.continuations, dtype=float).ravel()
        if rates.size == 0 or np.any(rates <= 0) or not np.all(np.isfinite(rates)):
            raise InvalidInputError("rates must be positive and finite")
        if cont.size != rates.size - 1:
            raise InvalidInputError("need one continuation probability per internal state")
        if np.any((cont < 0) | (cont > 1)):
            raise InvalidInputError("continuation probabilities must lie in [0, 1]")
        pi = self.pi
        if pi is None:
            pi = np.zeros(rates.size)
            pi[0] = 1.0
        else:
            if not self.generalized:
                raise InvalidInputError("strict chain cannot carry a custom start")
            pi = np.array(pi, dtype=float).ravel()
            if pi.size != rates.size or np.any(pi < 0) or abs(pi.sum() - 1.0) > 1e-12:
                raise InvalidInputError("initial distribution must be a probability vector")
        rates.setflags(write=False)
        cont.setflags(write=False)
        pi.setflags(write=False)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "continuations", cont)
        object.__setattr__(self, "pi", pi)

    @property
    def p(self) -> int:
        return self.rates.size

    def to_representation(self) -> PHRepresentation:
        p = self.p
        t = np.zeros((p, p))
        np.fill_diagonal(t, -self.rates)
        for k in range(p - 1):
            t[k, k + 1] = self.continuations[k] * self.rates[k]
        return PHRepresentation(self.pi, t)


def _coxian_density_from_state(rates, cont, j, x):
    """Density of absorption starting in state ``j`` of an ordered chain."""
    p = rates.size
    out = np.zeros_like(x)
    through = 1.0  # product of rate * continuation over traversed states
    for k in range(j, p):
        stop = 1.0 - cont[k] if k < p - 1 else 1.0
        coeff = rates[k] * stop * through
        lam = rates[j:k + 1]
        # partial-fraction expansion of the convolution of exponentials
        diff = lam[None, :] - lam[:, None]
        np.fill_diagonal(diff, 1.0)
        weights = 1.0 / diff.prod(axis=1)
        out += coeff * (np.exp(np.multiply.outer(-lam, x)) * weights[:, None]).sum(axis=0)
        if k < p - 1:
            through *= rates[k] * cont[k]
    return out


def coxian_density(spec: CoxianSpec, x) -> np.ndarray:
    """Absorption-time density of an ordered chain in closed form.

    Partial fractions require pairwise-distinct rates; duplicated rates raise
    a domain error.  Matches the matrix-exponential density of
    ``spec.to_representation()``.
    """
    rates = spec.rates
    if np.unique(rates).size != rates.size:
        raise DomainError("closed form requires pairwise-distinct rates")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x_arr < 0):
        raise InvalidInputError("evaluation points must be nonnegative")
    out = np.zeros_like(x_arr)
    for j, pij in enumerate(spec.pi):
        if pij > 0:
            out += pij * _coxian_density_from_state(rates, spec.continuations, j, x_arr)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out
