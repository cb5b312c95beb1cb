"""EM estimation of phase-type representations from censored, weighted data.

Observations live on the operational time scale (the latent chain's clock).
The E-step computes expected initiation counts, sojourn times, jump counts
and absorption counts given each observation; the M-step is the closed-form
reestimation.  The observed-data log-likelihood never decreases along the
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .exceptions import (
    DeadStateError,
    DegenerateObservationError,
    InvalidInputError,
)
from .linalg import expm_and_conv
from .phasetype import PHRepresentation, ph_products

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
        """Merge tied ``(z, delta)`` rows, summing weights; sorts by ``z``."""
        key = np.stack([self.z, self.delta.astype(float)], axis=1)
        uniq, inverse = np.unique(key, axis=0, return_inverse=True)
        weight = np.zeros(uniq.shape[0])
        np.add.at(weight, inverse, self.weight)
        return CensoredSample(uniq[:, 0], uniq[:, 1].astype(np.int8), weight)


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
    """Expected initiation counts, sojourn times, jump counts, absorptions."""

    b: np.ndarray
    v: np.ndarray
    njump: np.ndarray
    nabs: np.ndarray


def init_structure(spec: StructureSpec, rng=None) -> PHRepresentation:
    """Random valid starting representation for the given structure.

    Off-diagonal rates and exit rates are uniform on (0, 1); a free initial
    vector is drawn from the flat Dirichlet.
    """
    rng = np.random.default_rng(rng)
    p = spec.p
    t = np.zeros((p, p))
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
    """
    sample = CensoredSample.coerce(data)
    agg = sample.aggregate()
    pi, t = rep.pi, rep.T
    p = rep.p
    exit_rates = rep.exit_rates
    ones = np.ones(p)

    b = np.zeros(p)
    v = np.zeros(p)
    njump = np.zeros((p, p))
    nabs = np.zeros(p)

    for observed, vec in ((True, exit_rates), (False, ones)):
        mask = agg.delta == 1 if observed else agg.delta == 0
        if not mask.any():
            continue
        z = agg.z[mask]
        w = agg.weight[mask]
        ez, conv = expm_and_conv(t, np.outer(vec, pi), z)
        front = pi @ ez                      # (m, p): pi expm(Tz)
        denom = front @ vec                  # (m,)
        if np.any(denom <= 0):
            bad_z = z[np.argmin(denom)]
            idx = int(np.flatnonzero(sample.z == bad_z)[0])
            raise DegenerateObservationError(idx)
        scale = w / denom
        back = ez @ vec                      # (m, p): expm(Tz) vec
        b += pi * (scale @ back)
        diag = np.einsum("mkk->mk", conv)
        v += scale @ diag
        njump += t * np.einsum("m,mlk->kl", scale, conv)
        if observed:
            nabs += exit_rates * (scale @ front)

    np.fill_diagonal(njump, 0.0)
    stats = SufficientStats(np.clip(b, 0, None), np.clip(v, 0, None),
                            np.clip(njump, 0, None), np.clip(nabs, 0, None))
    total = sample.total_weight
    if abs(stats.b.sum() - total) > 1e-8 * max(1.0, total):
        raise DegenerateObservationError(-1, "initiation counts fail to add up")
    return stats


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
    density.
    """
    sample = CensoredSample.coerce(data)
    agg = sample.aggregate()
    zs, keep = np.unique(agg.z, return_inverse=True)
    dens, surv = ph_products(rep, zs)
    with np.errstate(divide="ignore"):
        logdens = np.log(dens[keep])
        logsurv = np.log(surv[keep])
    obs = agg.delta == 1
    out = float(np.sum(agg.weight[obs] * logdens[obs]))
    out += float(np.sum(agg.weight[~obs] * logsurv[~obs]))
    return out


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
    iteration; it is non-decreasing up to floating-point noise.
    """
    sample = CensoredSample.coerce(data).aggregate()
    config = config or EMConfig()
    rep = init if init is not None else init_structure(spec, rng)
    if rep.p != spec.p:
        raise InvalidInputError("initial representation order disagrees with spec")
    total = sample.total_weight
    trace = [loglik(rep, sample)]
    dead_events = 0
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        stats = e_step(rep, sample)
        n_dead = int(np.sum(stats.v <= DEAD_STATE_TOL * max(1.0, total)))
        rep = m_step(stats, total, spec, previous=rep)
        dead_events += n_dead
        trace.append(loglik(rep, sample))
        iterations += 1
        rel = abs(trace[-1] - trace[-2]) / max(1e-10, abs(trace[-1]))
        if rel < config.tol:
            converged = True
            break
    return FitResult(rep, np.asarray(trace), converged, iterations, dead_events)
