"""EM estimation of phase-type representations from censored, weighted data.

Observations live on the operational time scale (the latent chain's clock).
The E-step computes expected initiation counts, sojourn times, jump counts
and absorption counts given each observation; the M-step is the closed-form
reestimation.  The observed-data log-likelihood never decreases along the
iteration.

The E-step has two routes.  When the eigenvector matrix of ``T`` has
condition number below :data:`~matlife.linalg.PRODUCTS_COND_LIMIT`, the
convolution integrals come in closed form from the cached eigen-factors,
through divided differences of ``exp(lambda z)``.  That route is one folded
kernel for every spectrum: ``z`` and the row weights are real, so the terms
of the second member of a complex-conjugate eigenvalue pair are the
conjugates of the first member's, and only the terms that involve a pair
run in complex arithmetic; a real spectrum runs in real arithmetic
throughout.  Otherwise (near-defective ``T``, such as a Coxian chain with
nearly equal rates) each distinct ``z`` costs one Van Loan block
exponential.

The denominators of the E-step are the likelihood factors of its
representation, so the E-step also yields that representation's
log-likelihood (``SufficientStats.loglik``).  :func:`fit_ph` and
:func:`~matlife.regression.fit_pi` share one EM loop, :func:`_run_em`;
``fit_ph`` takes its trace from the E-step and evaluates :func:`loglik`
only after the last M-step, and ``fit_pi`` adds a coefficient step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import (
    DeadStateError,
    DegenerateObservationError,
    InvalidInputError,
)
from .linalg import expm_and_conv
from .phasetype import PHRepresentation, Spectrum, _censored_loglik, _folded_exp

__all__ = [
    "SurvObservation",
    "CensoredSample",
    "StructureSpec",
    "EMConfig",
    "SufficientStats",
    "init_structure",
    "e_step",
    "m_step",
    "loglik",
    "fit_ph",
    "FitResult",
    "n_free_parameters",
]

#: relative occupation time below which a state counts as dead in the M-step
DEAD_STATE_TOL = 1e-14


class SurvObservation(NamedTuple):
    """One (possibly censored) observation on the operational scale."""

    z: float
    delta: int
    weight: float = 1.0


@dataclass(frozen=True)
class CensoredSample:
    """Vectors of observation times, censoring indicators and weights."""

    z: np.ndarray
    delta: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float).ravel()
        delta = np.asarray(self.delta).ravel()
        weight = np.asarray(self.weight, dtype=float).ravel()
        if not (z.size == delta.size == weight.size):
            raise InvalidInputError("z, delta and weight lengths disagree")
        if z.size == 0:
            raise InvalidInputError("sample is empty")
        if np.any(z <= 0) or not np.all(np.isfinite(z)):
            raise InvalidInputError("observation times must be positive and finite")
        if not np.all(np.isin(delta, (0, 1))):
            raise InvalidInputError("censoring indicators must be 0 or 1")
        if np.any(weight <= 0) or not np.all(np.isfinite(weight)):
            raise InvalidInputError("weights must be positive and finite")
        for name, arr in (("z", z), ("delta", delta.astype(np.int8)), ("weight", weight)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def coerce(cls, data) -> "CensoredSample":
        if isinstance(data, cls):
            return data
        rows = [SurvObservation(*row) for row in data]
        return cls(
            np.array([r.z for r in rows]),
            np.array([r.delta for r in rows]),
            np.array([r.weight for r in rows]),
        )

    @property
    def n(self) -> int:
        return self.z.size

    @property
    def total_weight(self) -> float:
        return float(self.weight.sum())

    def aggregate(self) -> "CensoredSample":
        """Merge tied ``(z, delta)`` rows, summing weights; sorts by ``z``.

        A sample whose rows already increase strictly in ``(z, delta)`` is
        returned as is.
        """
        dz = np.diff(self.z)
        if np.all((dz > 0) | ((dz == 0) & (np.diff(self.delta) > 0))):
            return self
        # a stable sort keeps tied rows in input order, so each group's
        # weights are summed in the order they were given
        order = np.lexsort((self.delta, self.z))
        z, delta = self.z[order], self.delta[order]
        first = np.ones(z.size, dtype=bool)
        first[1:] = (z[1:] != z[:-1]) | (delta[1:] != delta[:-1])
        weight = np.zeros(np.count_nonzero(first))
        np.add.at(weight, np.cumsum(first) - 1, self.weight[order])
        return CensoredSample(z[first], delta[first], weight)


@dataclass(frozen=True)
class StructureSpec:
    """Shape of the representation to estimate.

    ``general`` frees every rate and the initial vector; ``coxian`` restricts
    jumps to the next state with a fixed start in state one;
    ``generalized_coxian`` keeps the ordered jumps but frees the start.
    """

    kind: str
    p: int

    KINDS = ("general", "coxian", "generalized_coxian")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidInputError(f"unknown structure kind {self.kind!r}")
        if self.p < 1:
            raise InvalidInputError("order must be at least one")

    @property
    def free_start(self) -> bool:
        return self.kind != "coxian"

    @property
    def ordered(self) -> bool:
        return self.kind in ("coxian", "generalized_coxian")


def n_free_parameters(spec: StructureSpec) -> int:
    """Free parameters of the representation under the given structure."""
    p = spec.p
    t_params = (2 * p - 1) if spec.ordered else p * p
    pi_params = (p - 1) if spec.free_start else 0
    return t_params + pi_params


@dataclass(frozen=True)
class EMConfig:
    max_iterations: int = 2000
    tol: float = 1e-4


class SufficientStats(NamedTuple):
    """Expected initiation counts, sojourn times, jump counts, absorptions,
    and the log-likelihood of the representation they were taken under
    (NaN where not known)."""

    b: np.ndarray
    v: np.ndarray
    njump: np.ndarray
    nabs: np.ndarray
    loglik: float = float("nan")


def init_structure(spec: StructureSpec, rng=None) -> PHRepresentation:
    """Random valid starting representation for the given structure.

    Off-diagonal rates and exit rates are uniform on (0, 1); a free initial
    vector is drawn from the flat Dirichlet.
    """
    rng = np.random.default_rng(rng)
    p = spec.p
    try:
        t = np.zeros((p, p))
    except ValueError as err:  # numpy refuses the shape before allocating
        raise MemoryError(f"order {p} is too large: {err}") from None
    if spec.ordered:
        for k in range(p - 1):
            t[k, k + 1] = rng.uniform()
    else:
        mask = ~np.eye(p, dtype=bool)
        t[mask] = rng.uniform(size=p * (p - 1))
    exit_rates = rng.uniform(size=p)
    np.fill_diagonal(t, -(t.sum(axis=1) + exit_rates))
    if spec.free_start:
        pi = rng.dirichlet(np.ones(p))
    else:
        pi = np.zeros(p)
        pi[0] = 1.0
    return PHRepresentation(pi, t)


def e_step(rep: PHRepresentation, data) -> SufficientStats:
    """Conditional expectations of the complete-data statistics.

    Tied ``(z, delta)`` values are aggregated with summed weights first; a
    zero-likelihood observation raises pointing at its index in the original
    data.

    Each group (observed rows with ``vec = t``, censored rows with
    ``vec = 1``) needs ``pi expm(Tz)``, ``expm(Tz) vec`` and the convolution
    ``int_0^z expm(T(z-u)) vec pi expm(Tu) du`` at every distinct ``z``.
    When ``rep`` has cached eigen-factors (cond(V) below
    :data:`~matlife.linalg.PRODUCTS_COND_LIMIT`, the test
    :func:`~matlife.phasetype.ph_products` uses) they come in closed form
    from the spectrum, O(p^3 + n p^2) in all; otherwise from one Van Loan
    block exponential per point (:func:`~matlife.linalg.expm_and_conv`).

    The ``loglik`` field is the log-likelihood of ``rep`` on ``data``, summed
    from the E-step's own denominators (the density factor of observed rows,
    the survival factor of censored ones).
    """
    sample = CensoredSample.coerce(data)
    agg = sample.aggregate()
    p = rep.p
    spectrum = rep._spectrum

    b = np.zeros(p)
    v = np.zeros(p)
    njump = np.zeros((p, p))
    nabs = np.zeros(p)
    loglik_value = 0.0

    for observed, vec in ((True, rep.exit_rates), (False, np.ones(p))):
        mask = agg.delta == 1 if observed else agg.delta == 0
        if not mask.any():
            continue
        z = agg.z[mask]
        w = agg.weight[mask]
        if spectrum is None:
            terms, denom = _stacked_terms(rep, vec, z, w, sample)
        else:
            terms, denom = _spectral_terms(rep, spectrum, vec, z, w, sample)
        loglik_value += float(w @ np.log(denom))
        b += terms.b
        v += terms.v
        njump += terms.njump
        if observed:
            nabs += terms.nabs

    np.fill_diagonal(njump, 0.0)
    stats = SufficientStats(np.clip(b, 0, None), np.clip(v, 0, None),
                            np.clip(njump, 0, None), np.clip(nabs, 0, None),
                            loglik_value)
    total = sample.total_weight
    if abs(stats.b.sum() - total) > 1e-8 * max(1.0, total):
        raise DegenerateObservationError(-1, "initiation counts fail to add up")
    return stats


def _check_denominators(denom: np.ndarray, z: np.ndarray,
                        sample: CensoredSample) -> None:
    """Raise at the first row of ``sample`` whose likelihood is zero."""
    if np.any(denom <= 0):
        bad_z = z[np.argmin(denom)]
        idx = int(np.flatnonzero(sample.z == bad_z)[0])
        raise DegenerateObservationError(idx)


def _stacked_terms(rep: PHRepresentation, vec: np.ndarray, z: np.ndarray,
                   w: np.ndarray, sample: CensoredSample
                   ) -> tuple[SufficientStats, np.ndarray]:
    """One group's E-step terms, and its denominators ``pi expm(Tz) vec``,
    from stacked Van Loan block exponentials."""
    pi, t = rep.pi, rep.T
    ez, conv = expm_and_conv(t, np.outer(vec, pi), z)
    front = pi @ ez                      # (m, p): pi expm(Tz)
    denom = front @ vec                  # (m,)
    _check_denominators(denom, z, sample)
    scale = w / denom
    back = ez @ vec                      # (m, p): expm(Tz) vec
    return SufficientStats(pi * (scale @ back),
                           scale @ np.einsum("mkk->mk", conv),
                           t * np.einsum("m,mlk->kl", scale, conv),
                           rep.exit_rates * (scale @ front)), denom


def _spectral_terms(rep: PHRepresentation, spectrum: Spectrum, vec: np.ndarray,
                    z: np.ndarray, w: np.ndarray, sample: CensoredSample
                    ) -> tuple[SufficientStats, np.ndarray]:
    """One group's E-step terms, and its denominators ``pi expm(Tz) vec``,
    in the eigenbasis ``T = V diag(lam) V^-1``.

    With ``r = pi V`` and ``c = V^-1 vec`` the convolution at ``z`` is
    ``V [(c r^T) * D(z)] V^-1`` for the divided differences
    ``D_ij(z) = (exp(lam_i z) - exp(lam_j z)) / (lam_i - lam_j)``, and
    ``z exp(lam_i z)`` where ``lam_i == lam_j``.  Their sums over the data
    come from :func:`_folded_sums`, for a real spectrum and one with
    conjugate pairs alike.
    """
    vecs, vinv = spectrum.vecs, spectrum.vecs_inv
    r = spectrum.start
    c = vinv @ vec
    denom, se, dd = _folded_sums(spectrum, r * c, z, w, sample)
    conv = (vecs @ (np.outer(c, r) * dd) @ vinv).real    # sum of scale * conv
    return SufficientStats(rep.pi * (vecs @ (se * c)).real,
                           np.diagonal(conv),
                           rep.T * conv.T,
                           rep.exit_rates * ((se * r) @ vinv).real), denom


def _folded_sums(spectrum: Spectrum, coef: np.ndarray, z: np.ndarray,
                 w: np.ndarray, sample: CensoredSample
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Denominators ``exp(z lam) @ coef``, ``se = scale @ exp(z lam)`` and
    ``sum_m scale_m D(z_m)`` for the symmetric matrices ``D`` of
    :func:`_spectral_terms`, with ``scale = w / denom``, taking ``exp`` of
    one member per conjugate pair; with no pair all three are real arrays.

    Each entry is written as ``exp(hi z) expm1((lo - hi) z) / (lo - hi)``
    with ``hi`` the eigenvalue of larger real part, so no factor overflows
    and near-equal eigenvalues lose no digits to cancellation; the weighted
    ``exp(hi z)`` column is dotted with ``expm1`` before the division by the
    gap.  The entries are summed one at a time: no temporary grows past the
    size of ``exp(z lam)``, so the cost per call does not depend on how the
    allocator returns large blocks.

    Under the index map ``sigma`` that swaps the members of each pair,
    ``exp(z lam_sigma(k)) = conj(exp(z lam_k))`` for real ``z``, so
    ``se_sigma(k) = conj(se_k)`` and ``D_sigma(i)sigma(j) = conj(D_ij)``.
    Each conjugate orbit of entries is summed once (:func:`_orbits`):
    real-real entries in real arithmetic, the entry of a pair with itself as
    the real ``sum scale Im(exp(lam z)) / Im(lam)``.
    """
    lam, real, pairs = spectrum.eigvals, spectrum.real, spectrum.pairs
    er, ec, (denom,) = _folded_exp(spectrum, z, coef)   # (m, #real), (m, #pairs)
    denom = np.maximum(denom, 0.0)
    _check_denominators(denom, z, sample)
    scale = w / denom
    se = np.empty(lam.size, dtype=lam.dtype)
    se[real] = scale @ er
    columns = list((scale[:, None] * er).T)
    out = np.empty((lam.size, lam.size), dtype=lam.dtype)
    if pairs.size:
        se[pairs] = scale @ ec
        se[pairs + 1] = se[pairs].conj()
        wc = scale[:, None] * ec
        columns += [*wc.T, *wc.conj().T]
        # each pair with itself
        out[pairs, pairs + 1] = out[pairs + 1, pairs] = (wc.imag.sum(axis=0)
                                                         / lam[pairs].imag)
    roots = [x.real if x.imag == 0 else x for x in lam.tolist()]
    for i, j, si, sj, ci, cj in _orbits(lam.size, tuple(pairs.tolist())):
        hi, lo, col = (i, j, ci) if roots[i].real > roots[j].real else (j, i, cj)
        gap = roots[lo] - roots[hi]
        if gap == 0:
            val = columns[col] @ z
        else:
            val = columns[col] @ np.expm1(z * gap) / gap
        out[i, j] = out[j, i] = val
        if (si, sj) != (i, j):
            out[si, sj] = out[sj, si] = val.conjugate()
    return denom, se, out


@cache
def _orbits(p: int, pairs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Entries ``(i, j, si, sj, ci, cj)`` that :func:`_folded_sums` sums for
    an order-``p`` spectrum whose conjugate pairs start at ``pairs``: one
    ``i <= j`` per conjugate orbit, leaving out each pair with itself.
    ``(si, sj)`` is the entry with the members of each pair swapped, whose
    value is the conjugate; ``ci`` and ``cj`` index the weighted ``exp``
    columns of ``i`` and ``j`` among the real eigenvalues, then the pairs'
    first members, then their second members (conjugated).  The table
    depends on the layout alone, so each layout is worked out once."""
    second = {k + 1 for k in pairs}
    real = [k for k in range(p) if k not in second and k not in pairs]
    sigma, col = list(range(p)), [0] * p
    for n, k in enumerate(real):
        col[k] = n
    for n, k in enumerate(pairs):
        sigma[k], sigma[k + 1] = k + 1, k
        col[k], col[k + 1] = len(real) + n, len(real) + len(pairs) + n
    return tuple((i, j, sigma[i], sigma[j], col[i], col[j])
                 for i in range(p) for j in range(i, p)
                 if tuple(sorted((sigma[i], sigma[j]))) >= (i, j)
                 and not j == sigma[i] != i)


def m_step(stats: SufficientStats, total_weight: float, spec: StructureSpec,
           previous: PHRepresentation | None = None) -> PHRepresentation:
    """Closed-form reestimation from the expected statistics.

    A state with (numerically) zero occupation time keeps its previous row
    when ``previous`` is supplied and raises otherwise.
    """
    p = spec.p
    if spec.free_start:
        pi = stats.b / total_weight
        pi = pi / pi.sum()
    else:
        pi = np.zeros(p)
        pi[0] = 1.0

    t = np.zeros((p, p))
    dead = stats.v <= DEAD_STATE_TOL * max(1.0, total_weight)
    for k in range(p):
        if dead[k]:
            if previous is None:
                raise DeadStateError(k)
            t[k] = previous.T[k]
            continue
        rates = stats.njump[k] / stats.v[k]
        exit_rate = stats.nabs[k] / stats.v[k]
        t[k] = rates
        t[k, k] = -(rates.sum() - rates[k] + exit_rate)
    return PHRepresentation(pi, t)


def loglik(rep: PHRepresentation, data) -> float:
    """Weighted censored log-likelihood on the operational scale.

    Returns ``-inf`` (rather than raising) when an observed point has zero
    density or a censored point zero survival.
    """
    agg = CensoredSample.coerce(data).aggregate()
    return _censored_loglik(rep, agg.z, agg.delta == 1, agg.weight)


@dataclass(frozen=True)
class FitResult:
    rep: PHRepresentation
    loglik_trace: np.ndarray
    converged: bool
    iterations: int
    dead_state_events: int = 0

    @property
    def loglik(self) -> float:
        return float(self.loglik_trace[-1])


def fit_ph(data, spec: StructureSpec, config: EMConfig | None = None,
           init: PHRepresentation | None = None, rng=None) -> FitResult:
    """Fit a representation by EM.

    ``init`` takes precedence over ``rng`` (which seeds a random start).
    The trace records the log-likelihood at the start and after every
    iteration; it is non-decreasing up to floating-point noise.  Each entry
    but the last comes from the E-step on that iterate, which forms the
    likelihood factors anyway; the last is one :func:`loglik` call on the
    returned representation.  Stops after ``max_iterations`` or at the first
    relative change below ``tol`` (finite, at least zero).
    """
    config = config or EMConfig()
    if config.max_iterations < 0:
        raise InvalidInputError("max_iterations must not be negative")
    sample = CensoredSample.coerce(data).aggregate()

    def advance(rep, k):
        # the E-step of the next iteration, or only the likelihood after the last
        if k == config.max_iterations:
            return loglik(rep, sample), None
        stats = e_step(rep, sample)
        return stats.loglik, lambda: stats

    result = _run_em(spec, init, rng, sample.total_weight, config.max_iterations,
                     config.tol, 1, advance, advance)
    if result.converged and result.iterations < config.max_iterations:
        result.loglik_trace[-1] = loglik(result.rep, sample)
    return result


def _run_em(spec: StructureSpec, init: PHRepresentation | None, rng,
            total_weight: float, max_iterations: int, tol: float, patience: int,
            start, advance) -> FitResult:
    """The EM loop of :func:`fit_ph` and :func:`~matlife.regression.fit_pi`.

    ``start(rep, 0)`` gets the start and ``advance(rep, k)`` the iterate of
    M-step ``k``; each returns a trace value (``None`` records none) and a
    callable giving the next E-step's statistics, called only if the loop
    goes on.  Stops after ``max_iterations`` M-steps or once ``patience``
    consecutive trace pairs differ by less than ``tol`` relative.
    """
    if not 0 <= tol < np.inf:
        raise InvalidInputError("tol must be finite and at least zero")
    rep = init if init is not None else init_structure(spec, rng)
    if rep.p != spec.p:
        raise InvalidInputError("initial representation order disagrees with spec")
    value, pending = start(rep, 0)
    trace = [] if value is None else [value]
    dead_events = iterations = streak = 0
    while iterations < max_iterations and streak < patience:
        stats = pending()
        dead_events += int(np.sum(stats.v <= DEAD_STATE_TOL * max(1.0, total_weight)))
        rep = m_step(stats, total_weight, spec, previous=rep)
        iterations += 1
        value, pending = advance(rep, iterations)
        trace.append(value)
        if len(trace) >= 2:
            rel = abs(trace[-1] - trace[-2]) / max(1e-10, abs(trace[-1]))
            streak = streak + 1 if rel < tol else 0
    return FitResult(rep, np.asarray(trace), streak >= patience, iterations,
                     dead_events)
