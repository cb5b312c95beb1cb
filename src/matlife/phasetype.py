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
from .inhomogeneity import IdentityTransform, ShiftedTransform

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

#: eigenvector condition number from which ``pi expm(Tz) v`` and the E-step
#: leave the spectral route (see :func:`ph_products` for the measured
#: accuracy)
PRODUCTS_COND_LIMIT = 1e6

_DUST = 1e-12

#: the unscaled exp-sinh rule of :meth:`IPHModel.green_matrix`: nodes
#: ``exp(pi/2 sinh t)``, ``t = -6.5, -6.5 + 1/64, ..., 4``, and their weights
_DE_NODES = np.exp(np.pi / 2 * np.sinh(np.arange(-416, 257) / 64))
_DE_WEIGHTS = np.pi / 128 * np.cosh(np.arange(-416, 257) / 64) * _DE_NODES


def validate_sub_intensity(t: np.ndarray) -> np.ndarray:
    """Check that ``t`` is a valid sub-intensity matrix and return it.

    Requirements: square, nonempty and finite, strictly negative diagonal,
    nonnegative off-diagonal entries, row sums at most zero, and absorption
    reachable from every state: through positive rates to a state with a
    negative row sum, and with all eigenvalues in the open left half-plane.
    Negative dust below 1e-12 (relative) on the off-diagonal is zeroed rather
    than rejected.
    The eigenvalues come from one ``np.linalg.eig`` (see :func:`_decomposed`),
    the decomposition a :class:`PHRepresentation` keeps for its spectrum.
    """
    return _decomposed(t)[0]


def _decomposed(t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`validate_sub_intensity`'s checked copy of ``t`` with the
    eigenvalues and eigenvectors of its one ``np.linalg.eig``, from which the
    reachability check reads."""
    t = np.array(t, dtype=float, order="C")
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise InvalidInputError(f"sub-intensity must be square, got {t.shape}")
    if t.size == 0:
        raise InvalidInputError("sub-intensity must have at least one state")
    top = np.abs(t).max()
    if not top < np.inf:  # a NaN entry makes the maximum NaN
        raise InvalidInputError("sub-intensity contains non-finite entries")
    scale = max(1.0, top)
    # the off-diagonal rates alone, with the diagonal zeroed while they are read
    diag = t.ravel()[::t.shape[0] + 1]
    diagonal = diag.copy()
    diag[:] = 0.0
    low = t.min()
    if low < -_DUST * scale:
        raise InvalidInputError("off-diagonal rates must be nonnegative")
    np.maximum(t, 0.0, out=t)  # zeroes the dust, and writes -0 as 0
    diag[:] = diagonal
    if diagonal.max() >= 0:
        raise InvalidInputError("diagonal entries must be strictly negative")
    row_sums = t.sum(axis=1)
    if row_sums.max() > _DUST * scale:
        raise InvalidInputError("row sums must not exceed zero")
    # a state absorbs if it exits or a positive rate leads to one that does;
    # a closed class never does, whatever rounding does to its eigenvalues
    absorbs = row_sums < 0
    while not (reachable := all(absorbs.tolist())):
        grown = absorbs | (t[:, absorbs] > 0).any(axis=1)
        if np.array_equal(grown, absorbs):
            break
        absorbs = grown
    eigvals, eigvecs = np.linalg.eig(t)
    if not reachable or eigvals.real.max() >= 0:
        raise InvalidInputError("absorption must be reachable from every state")
    return t, eigvals, eigvecs


def _probability_vector(pi, p: int) -> np.ndarray:
    """Checked copy of an initial distribution over ``p`` states: finite,
    nonnegative up to dust (which is zeroed) and summing to one within
    1e-12 (rescaled to sum to one)."""
    pi = np.array(pi, dtype=float).ravel()
    if pi.size != p:
        raise InvalidInputError(
            f"initial distribution needs {p} entries, got {pi.size}")
    low = pi.min()
    if not low >= -_DUST:  # false for NaN; an infinity fails the sum
        raise InvalidInputError("initial probabilities must be finite and nonnegative")
    np.maximum(pi, 0.0, out=pi)
    total = pi.sum()
    if abs(total - 1.0) > 1e-12:
        raise InvalidInputError("initial probabilities must sum to one")
    pi /= total
    return pi


class Spectrum(NamedTuple):
    """``T = V diag(eigvals) V^-1`` and the initial vector in the eigenbasis,
    ``start = pi V``, so that ``pi expm(Tz) = (start * exp(eigvals z)) @
    vecs_inv``; ``exit_coef`` and ``ones_coef`` are ``start * (V^-1 t)`` and
    ``start * (V^-1 1)``, the weights of ``exp(eigvals z)`` in
    ``pi expm(Tz) t`` and ``pi expm(Tz) 1``.

    ``real`` indexes the real eigenvalues and ``pairs`` the first member of
    each complex-conjugate pair, whose second member sits at the next index
    with the conjugate eigenvalue and eigenvector (see
    :func:`_conjugate_pairs`).  For real ``z`` the terms of a pair are
    conjugate, so every kernel takes ``exp`` of one member only and folds
    the other in as a conjugate (:func:`_folded_exp`, :func:`_unfolded`);
    with no pair (``eigvals`` real) the results are real arrays."""

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
    if not np.iscomplexobj(eigvals):
        return np.arange(eigvals.size), np.arange(0)
    imag = eigvals.imag
    pairs = np.flatnonzero(imag > 0)
    if not (np.array_equal(np.flatnonzero(imag < 0), pairs + 1)
            and np.array_equal(eigvals[pairs + 1], eigvals[pairs].conj())
            and np.array_equal(vecs[:, pairs + 1], vecs[:, pairs].conj())):
        raise DomainError("eigenvalues are not in adjacent conjugate pairs")
    return np.flatnonzero(imag == 0), pairs


@dataclass(frozen=True)
class PHRepresentation:
    """Initial distribution and sub-intensity matrix of an absorbing chain.

    Construction validates ``T`` through one ``np.linalg.eig``, whose
    eigenvalues and eigenvectors (``_eig``) serve the reachability check,
    the spectrum and the tail."""

    pi: np.ndarray
    T: np.ndarray
    _eig: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False,
                                                compare=False)

    def __post_init__(self):
        t, eigvals, eigvecs = _decomposed(self.T)
        pi = _probability_vector(self.pi, t.shape[0])
        for arr in (pi, t, eigvals, eigvecs):
            arr.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "T", t)
        object.__setattr__(self, "_eig", (eigvals, eigvecs))

    @property
    def p(self) -> int:
        return self.T.shape[0]

    @property
    def exit_rates(self) -> np.ndarray:
        return -self.T.sum(axis=1)

    @cached_property
    def _spectrum(self) -> Spectrum | None:
        """Eigen-factors of ``T`` shared by :func:`ph_products`, the E-step
        and :meth:`IPHModel.residual_lifetime`, computed on first use from
        the eigendecomposition run once at construction; ``None`` when
        cond(V) reaches :data:`PRODUCTS_COND_LIMIT`."""
        eigvals, eigvecs = self._eig
        # cond(V) as np.linalg.cond takes it, the ratio of the extreme
        # singular values; a singular V leaves the spectral route
        sv = np.linalg.svd(eigvecs, compute_uv=False).tolist()
        if sv[-1] == 0.0 or sv[0] / sv[-1] >= PRODUCTS_COND_LIMIT:
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
    Below :data:`PRODUCTS_COND_LIMIT` (1e6) it is the spectral
    sum ``sum_k exp(lambda_k z) (pi V)_k (V^-1 v)_k`` over factors cached on
    ``rep``, folded over conjugate pairs (:func:`_folded_exp`) and clamped at
    zero.  Its relative error grows like cond(V) * eps:
    against a Taylor-series exponential for ``z <= 200`` it is about 1e-13
    for well-separated rates and stayed below 6.2e-10 on near-equal-rate
    Coxian chains of order 2 to 10 with cond(V) < 1e6 (4.3e-9 between 1e6 and
    1e7).  Otherwise (near-defective ``T``) it is one stacked
    :func:`_expm` over the points, whose every product stayed within
    2.2e-13 relative of 50-digit mpmath for ``1e-4 <= z <= 200`` on Coxian
    chains of order 2 to 10 with rate gaps from 1e-2 down to 0, Erlang
    chains of order 2 to 10 and general ``T``.
    """
    return _products(rep, z, slope=False)


def _products(rep: PHRepresentation, z, slope: bool) -> tuple[np.ndarray, ...]:
    """:func:`ph_products`, followed when ``slope`` is set by the derivative
    ``pi T expm(Tz) t`` of the density factor in ``z``, all from one
    exponential of ``z`` times the spectrum (or one stack of fronts).

    At ``z = +inf`` the chain has absorbed and every product is exactly
    zero.  The spectral sum is folded (:func:`_folded_exp`) for every
    spectrum: ``exp`` runs over the real eigenvalues in real arithmetic and
    over one member of each conjugate pair."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size == 0:
        return (np.zeros(0),) * (3 if slope else 2)
    if not z.min() >= 0:                 # also false for NaN
        raise InvalidInputError("operational times must be nonnegative")
    if z.max() == np.inf:
        absorbed = z == np.inf
        out = _products(rep, np.where(absorbed, 0.0, z), slope)
        return tuple(np.where(absorbed, 0.0, x) for x in out)
    spectrum = rep._spectrum
    if spectrum is not None:
        coefs = [spectrum.exit_coef, spectrum.ones_coef]
        if slope:
            coefs.append(spectrum.eigvals * spectrum.exit_coef)
        out = _folded_exp(spectrum, z, *coefs)[2]
        return (np.maximum(out[0], 0.0), np.maximum(out[1], 0.0), *out[2:])
    w = _stacked_fronts(rep, z)
    out = (w @ rep.exit_rates, w.sum(axis=1))
    if slope:
        out += (w @ (rep.T @ rep.exit_rates),)
    return out


def _folded_exp(spectrum: Spectrum, z: np.ndarray, *coefs: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray | None, list[np.ndarray]]:
    """``exp(z lam)`` over the real eigenvalues, in real dtype, and over the
    first member of each conjugate pair (``None`` without pairs), with
    ``Re(exp(z lam) @ coef)`` for each of ``coefs`` summed from those
    columns alone: each pair's weight folds to ``coef_k + conj(coef_{k+1})``,
    which is algebraically the unfolded sum for real ``z``.  Each ``coef``
    holds one weight per eigenvalue along its first axis and gets its own
    product, so a real spectrum gives the unfolded sum's bits."""
    lam, real, pairs = spectrum.eigvals, spectrum.real, spectrum.pairs
    if not pairs.size:  # a real spectrum: every column is taken, in order
        er = np.exp(np.multiply.outer(z, lam))
        return er, None, [er @ coef for coef in coefs]
    er = np.exp(np.multiply.outer(z, lam[real].real))
    ec = np.exp(np.multiply.outer(z, lam[pairs]))
    return er, ec, [er @ coef[real].real + (ec @ (coef[pairs] + coef[pairs + 1].conj())).real
                    for coef in coefs]


def _unfolded(spectrum: Spectrum, on_real: np.ndarray, on_pairs: np.ndarray | None
              ) -> np.ndarray:
    """Values over every eigenvalue, in the order of ``eigvals`` along the
    last axis (of one or two), from values over the real eigenvalues and
    over the first member of each conjugate pair (``None`` without pairs),
    such as the columns of :func:`_folded_exp` or real-weighted sums of
    them: the second members take the conjugates.  A real spectrum gives
    ``on_real`` itself."""
    if on_pairs is None:
        return on_real
    real, pairs = spectrum.real, spectrum.pairs
    # eigenvalue axis first: rows copy about 3x faster than strided columns
    out = np.empty(spectrum.eigvals.shape + on_real.shape[:-1], dtype=complex)
    out[real] = on_real.T
    out[pairs] = on_pairs.T
    out[pairs + 1] = on_pairs.T.conj()
    return out.T


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
    """Rows ``pi expm(T z)`` by one stacked :func:`_expm` over the points."""
    # keeps T z finite for any finite z; beyond this cap the true exponential
    # of a sub-intensity matrix already underflows to exact zero
    cap = 1e15 / max(1.0, float(np.abs(rep.T).max()))
    z = np.minimum(z, cap)
    return rep.pi @ _expm(rep.T * z[:, None, None])


def _expm(stack: np.ndarray) -> np.ndarray:
    """``expm`` of each matrix ``A`` of a finite ``(n, k, k)`` stack whose
    off-diagonal entries are nonnegative, to high entrywise relative
    accuracy (Xue & Ye 2013): with ``q = max(0, -min diag A)`` every Taylor
    term of ``B = (A + qI) / 2^s`` is nonnegative, so none cancels; the sum
    times ``exp(-q / 2^s)`` is squared ``s`` times.  Each ``s``, from its own
    ``max(|A + qI|_1, q)``, scales one matrix below one, so no matrix
    amplifies the rounding of another.  The series runs to at least term
    ``k - 1``, since an entry that a chain reaches in ``j`` steps first
    appears in term ``j``, and from there on stops at the first term whose
    addition changes no entry of the sum, so that no entry of it exceeds
    2^-53 of the sum's.  A signed off-diagonal entry converges too, though
    without the relative bound."""
    k = stack.shape[-1]
    eye = np.eye(k)
    q = np.maximum(-stack.diagonal(axis1=1, axis2=2).min(axis=1), 0.0)
    b = stack + q[:, None, None] * eye
    s = np.maximum(np.frexp(np.maximum(np.abs(b).sum(axis=1).max(axis=1), q))[1], 0)
    b = np.ldexp(b, -s[:, None, None])
    term, total = b, eye + b
    # term j is below 1 / j! entrywise, so zero from j = 178 on: only a NaN
    # runs the loop to its end
    for j in range(2, max(k, 180)):
        term = term @ b
        term /= j
        new = total + term
        if j >= k - 1 and (new == total).all():
            break
        total = new
    total *= np.exp(-np.ldexp(q, -s))[:, None, None]
    powers = s.tolist()
    for _ in range(min(powers)):  # the whole stack, without gathering it
        total = total @ total
    for j in range(min(powers), max(powers)):
        square = s > j
        part = total[square]
        total[square] = part @ part
    return total


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
    (counted within a relative tolerance).  ``t`` is validated and
    decomposed once.
    """
    eig = _decomposed(t)[1]
    top = eig.real.max()
    mult = int(np.sum(eig.real >= top - 1e-8 * max(1.0, abs(top))))
    return TailParams(-top, mult)


def tail_hazard_constant(rep: PHRepresentation) -> float:
    """Limit of ``(pi expm(Tz) t) / (pi expm(Tz) 1)`` as ``z`` grows.

    Evaluated at a point deep in the tail; the point is pulled back toward
    zero if the initial vector misses the slowest mode entirely and the
    denominator underflows.  The decay rate ``eta`` of :func:`tail_params`
    comes from the eigenvalues ``rep`` computed at construction.
    """
    eta = -rep._eig[0].real.max()
    z = 600.0 / eta
    for _ in range(60):
        dens, surv = ph_products(rep, np.asarray([z]))
        if surv[0] > 1e-290:
            return float(dens[0] / surv[0])
        z *= 0.5
    raise DomainError("could not find a representable tail point")


def _hazard(rep: PHRepresentation, z: np.ndarray, lam: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Density, survival, hazard and the underflow mask of
    :meth:`IPHModel.evaluate` at operational times ``z``, where the clock's
    intensity is ``lam``.  Where survival falls below
    :data:`SURVIVAL_FLOOR` the hazard is the tail constant times ``lam``."""
    dens_ph, surv = ph_products(rep, z)
    # the phase factor decays faster than any clock intensity grows, so a
    # zero phase factor forces zero density even when lam overflows
    density = np.multiply(lam, dens_ph, out=np.zeros_like(dens_ph),
                          where=dens_ph != 0.0)
    extrapolated = surv < SURVIVAL_FLOOR
    if not extrapolated.any():
        return density, surv, density / surv, extrapolated
    hazard = np.empty_like(surv)
    ok = ~extrapolated
    hazard[ok] = density[ok] / surv[ok]
    hazard[extrapolated] = tail_hazard_constant(rep) * lam[extrapolated]
    return density, surv, hazard, extrapolated


def _ages(y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if (y < 0).any() or not np.isfinite(y).all():
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
        density, surv, hazard, extrapolated = _hazard(
            self.rep, self.transform.cumulative(y_arr), self.transform.intensity(y_arr))
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
        """Expected lifetime ``pi U 1`` (``U`` of :meth:`green_matrix`); a
        value not in (0, inf) raises :class:`DomainError`."""
        value = float(self.rep.pi @ self.green_matrix().sum(axis=1))
        if not 0.0 < value < np.inf:
            raise DomainError(f"mean evaluated to {value}")
        return value

    def green_matrix(self) -> np.ndarray:
        """Expected operational time in each state pair, integrated over age:
        ``U = integral of expm(T u) / lam(ginv(u)) du``, ``(-T)^-1`` under the
        identity clock.  Any other clock's is summed by :func:`_green` on the
        exp-sinh rule (Takahasi & Mori 1974) times the power of two nearest
        ``1 / sqrt(eta_min eta_max)`` (``eta = -Re`` of the eigenvalues), which
        a change of time unit scales exactly, up to ``u eta_min = 2000``.
        Rates more than 2^53 apart, or 2^16 without eigen-factors (where
        :func:`_expm` keeps the slow one to ``eta_max / eta_min`` ulps), raise
        :class:`DomainError`, as does a first node holding over 1e-15 of
        ``U`` (Weibull shapes above about 15)."""
        rep, transform = self.rep, self.transform
        if isinstance(transform, IdentityTransform):
            return np.linalg.inv(-rep.T)
        eta = -rep._eig[0].real
        log_eta = np.log2(eta)  # added, not multiplied: the rates' product may overflow
        span = 53 if rep._spectrum is not None else 16
        if log_eta.max() - log_eta.min() > span:
            raise DomainError(f"decay rates span more than 2^{span}")
        c = 2.0 ** -round(0.5 * (log_eta.min() + log_eta.max()))
        keep = _DE_NODES * (c * eta.min()) <= 2000.0
        u = c * _DE_NODES[keep]
        with np.errstate(divide="ignore"):  # 1 / lam vanishes where lam is infinite
            weight = c * _DE_WEIGHTS[keep] / transform.intensity(transform.inverse_cumulative(u))
        green = _green(rep, u, weight)
        if not (np.isfinite(green).all() and weight[0] <= 1e-15 * green.diagonal().min()):
            raise DomainError("the exp-sinh rule misses the first ages of the clock")
        return green

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
            w = np.maximum(_folded_exp(spectrum, np.asarray([z]), coef)[2][0][0], 0.0)
        else:
            w = _stacked_fronts(self.rep, np.asarray([z]))[0]
        total = w.sum()
        if total < SURVIVAL_FLOOR:
            raise DomainError(f"survival at {x} is numerically zero")
        rep = PHRepresentation(w / total, self.rep.T)
        if self.transform.family == "identity":
            # memoryless clock: the shift is a no-op, and a plain model saves to a file
            return IPHModel(rep, self.transform)
        return IPHModel(rep, ShiftedTransform(self.transform, x))


def _green(rep: PHRepresentation, u: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """``sum_k weight_k expm(T u_k)``: ``V diag(weight @ exp(u lam)) V^-1``
    on ``rep._spectrum``, else a weighted sum over one :func:`_expm` stack."""
    spectrum = rep._spectrum
    if spectrum is None:
        return np.tensordot(weight, _expm(rep.T * u[:, None, None]), axes=1)
    er, ec, _ = _folded_exp(spectrum, u)
    diag = _unfolded(spectrum, weight @ er, None if ec is None else weight @ ec)
    return ((spectrum.vecs * diag) @ spectrum.vecs_inv).real


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
            pi = _probability_vector(pi, rates.size)
        for name, arr in (("rates", rates), ("continuations", cont), ("pi", pi)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

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
