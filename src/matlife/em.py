"""EM estimation of phase-type representations from censored, weighted data.

Observations live on the operational time scale (the latent chain's clock).
The E-step computes expected initiation counts, sojourn times, jump counts
and absorption counts given each observation; the M-step is the closed-form
reestimation.  The observed-data log-likelihood never decreases along the
iteration.

The E-step has two routes.  When the eigenvector matrix of ``T`` has
condition number below :data:`~matlife.phasetype.PRODUCTS_COND_LIMIT`, the
convolution integrals come in closed form from the cached eigen-factors,
through divided differences of ``exp(lambda z)``, in one pass over the
sample: one ``exp(z lambda)`` for every row of both observation groups,
and per group one weighted sum per eigenvalue, ``se``.  By linearity the
sum of each divided difference is ``(se_i - se_j) / (lambda_i -
lambda_j)``; only the entries where that difference cancels are summed row
by row with ``expm1`` (:func:`_eigen_sums`).  ``z`` and the row weights are
real, so the terms of the second member of a complex-conjugate eigenvalue
pair are the conjugates of the first member's; only :mod:`~matlife.phasetype`
knows the pairs, and folds them in and out (``_folded_exp``, ``_unfolded``).
A real spectrum runs in real arithmetic throughout.  Otherwise
(near-defective ``T``, such as a Coxian chain with nearly equal rates)
each distinct ``z`` costs one Van Loan block exponential, by the
nonnegative-series kernel ``phasetype._expm``.  One driver,
:func:`e_step`, serves both routes: it puts the observed rows ahead of the
censored ones, takes the route's weighted sums (``_RouteSums``) and forms
the statistics and log-likelihood from them.  Each route checks all its
likelihood factors at once, so a zero-likelihood row raises at the same
index on either.

The denominators of the E-step are the likelihood factors of its
representation, so the E-step also yields that representation's
log-likelihood (``SufficientStats.loglik``).  :func:`fit_ph` and
:func:`~matlife.regression.fit_pi` share one EM loop, :func:`_run_em`;
``fit_ph`` takes its trace from the E-step and evaluates :func:`loglik`
only after the last M-step, and ``fit_pi`` adds a coefficient step.
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
from .phasetype import (PHRepresentation, Spectrum, _censored_loglik, _expm,
                        _folded_exp, _unfolded)

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


def _real(values, name: str) -> np.ndarray:
    """``values`` as an array; complex values raise :class:`InvalidInputError`
    before a cast could drop their imaginary part (numpy warns when it does)."""
    values = np.asarray(values)
    if np.iscomplexobj(values):
        raise InvalidInputError(f"{name} must be real")
    return values


@dataclass(frozen=True)
class CensoredSample:
    """Vectors of observation times, censoring indicators and weights."""

    z: np.ndarray
    delta: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        z = np.asarray(_real(self.z, "observation times"), dtype=float).ravel()
        delta = _real(self.delta, "censoring indicators").ravel()
        weight = np.asarray(_real(self.weight, "weights"), dtype=float).ravel()
        if not (z.size == delta.size == weight.size):
            raise InvalidInputError("z, delta and weight lengths disagree")
        if z.size == 0:
            raise InvalidInputError("sample is empty")
        if np.any(z <= 0) or not np.all(np.isfinite(z)):
            raise InvalidInputError("observation times must be positive and finite")
        if not ((delta == 0) | (delta == 1)).all():
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


class _Layout(NamedTuple):
    """Positions of a representation's free parameters: the off-diagonal
    rates (row by row), the exit rates, and the start weights, which are
    free when there are two or more.  Every parameter count, the EM start
    and the direct fit read this one layout."""

    p: int
    off: tuple
    exits: np.ndarray
    starts: np.ndarray

    def count(self) -> int:
        """The rates and all start weights but one (they sum to one)."""
        return self.off[0].size + self.exits.size + self.starts.size - 1

    def compose(self, off_rates, exit_rates, weights) -> PHRepresentation:
        """The representation with these values at the layout's positions
        and zeros elsewhere; the diagonal makes up the row sums."""
        t = np.zeros((self.p, self.p))
        t[self.off] = off_rates
        exits = np.zeros(self.p)
        exits[self.exits] = exit_rates
        t.ravel()[::self.p + 1] = -(t.sum(axis=1) + exits)  # the diagonal
        pi = np.zeros(self.p)
        pi[self.starts] = weights
        return PHRepresentation(pi, t)


def _structure_layout(spec: StructureSpec) -> _Layout:
    """The layout of what ``spec`` frees: every off-diagonal rate (the
    superdiagonal one of an ordered kind), every exit rate, and every start
    weight (the first state's alone with a fixed start)."""
    p = spec.p
    try:
        free = np.zeros((p, p))
    except ValueError as err:  # numpy refuses the shape before allocating
        raise MemoryError(f"order {p} is too large: {err}") from None
    states = np.arange(p)
    if spec.ordered:
        free[states[:-1], states[1:]] = 1.0
    else:
        free += 1.0
        free[states, states] = 0.0
    return _Layout(p, np.nonzero(free), states,
                   states if spec.free_start else states[:1])


def _pattern(model) -> _Layout:
    """The layout of the strictly positive rates and start weights of
    ``model``'s representation."""
    rep = model.rep
    return _Layout(rep.p, np.nonzero(rep.T > 0), np.flatnonzero(rep.exit_rates > 0),
                   np.flatnonzero(rep.pi > 0))


def _pack_rep(rep: PHRepresentation, layout: _Layout) -> np.ndarray:
    """``rep``'s coordinates on ``layout``: the log off-diagonal and exit
    rates, then the log start weights when they are free."""
    weights = np.log(rep.pi[layout.starts]) if layout.starts.size > 1 else []
    return np.concatenate([np.log(rep.T[layout.off]),
                           np.log(rep.exit_rates[layout.exits]), weights])


def _unpack_rep(vec: np.ndarray, layout: _Layout):
    """The representation that ``vec`` starts with (see :func:`_pack_rep`),
    the start weights through a softmax, and the rest of ``vec``."""
    n_off = layout.off[0].size
    n_rates = n_off + layout.exits.size
    end, weights = n_rates, 1.0
    if layout.starts.size > 1:
        end += layout.starts.size
        logw = vec[n_rates:end]
        w = np.exp(logw - logw.max())
        weights = w / w.sum()
    rates = np.exp(vec[:n_rates])
    rep = layout.compose(rates[:n_off], rates[n_off:], weights)
    return rep, vec[end:]


def n_free_parameters(spec: StructureSpec) -> int:
    """Free parameters of the representation under the given structure."""
    return _structure_layout(spec).count()


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
    layout = _structure_layout(spec)
    off_rates = rng.uniform(size=layout.off[0].size)
    exit_rates = rng.uniform(size=spec.p)
    weights = rng.dirichlet(np.ones(spec.p)) if spec.free_start else 1.0
    return layout.compose(off_rates, exit_rates, weights)


def e_step(rep: PHRepresentation, data) -> SufficientStats:
    """Conditional expectations of the complete-data statistics.

    Tied ``(z, delta)`` values are aggregated with summed weights first; a
    zero-likelihood observation raises pointing at its index in the original
    data, the first such row of ``data`` on either route.

    Each group (observed rows with ``vec = t``, censored rows with
    ``vec = 1``) needs ``pi expm(Tz)``, ``expm(Tz) vec`` and the convolution
    ``int_0^z expm(T(z-u)) vec pi expm(Tu) du`` at every distinct ``z``.
    One driver orders the rows by group (:func:`_by_group`), takes their
    weighted sums from the route (:class:`_RouteSums`) and forms the
    statistics from them.  When ``rep`` has cached eigen-factors (cond(V)
    below :data:`~matlife.phasetype.PRODUCTS_COND_LIMIT`, the test
    :func:`~matlife.phasetype.ph_products` uses) the sums come in closed form
    from the spectrum, in one pass over the rows of both groups: O(p^3 + n p)
    in all, plus O(n) for each entry that cancellation sends row by row
    (:func:`_spectral_sums`); otherwise from one Van Loan block exponential
    per point (:func:`_van_loan_sums`).

    The ``loglik`` field is the log-likelihood of ``rep`` on ``data``, summed
    from the E-step's own denominators (the density factor of observed rows,
    the survival factor of censored ones).
    """
    sample = CensoredSample.coerce(data)
    spectrum = rep._spectrum
    z, w, groups = _by_group(spectrum, sample.aggregate(), rep.exit_rates)
    route = _van_loan_sums if spectrum is None else _spectral_sums
    sums = route(rep, z, w, groups, sample)
    njump = rep.T * sums.conv.T
    np.fill_diagonal(njump, 0.0)
    stats = SufficientStats(np.maximum(rep.pi * sums.back, 0.0),
                            np.maximum(np.diagonal(sums.conv), 0.0),
                            np.maximum(njump, 0.0),
                            np.maximum(rep.exit_rates * sums.front, 0.0),
                            float(w @ np.log(sums.denom)))
    total = sample.total_weight
    if abs(stats.b.sum() - total) > 1e-8 * max(1.0, total):
        raise DegenerateObservationError(-1, "initiation counts fail to add up")
    return stats


def _scales(w: np.ndarray, denom: np.ndarray, z: np.ndarray, observed: np.ndarray,
            sample: CensoredSample) -> np.ndarray:
    """``w / denom``, raising at the first row of ``sample`` whose ``(z, delta)``
    matches a row of ``z`` and ``observed`` with a likelihood factor ``denom``
    that is zero or so small (subnormal) that the quotient is not finite."""
    with np.errstate(divide="ignore", over="ignore"):
        scale = w / denom
    bad = (denom <= 0) | ~np.isfinite(scale)
    if not bad.any():
        return scale
    zero = set(zip(z[bad].tolist(), observed[bad].astype(int).tolist()))
    for idx in np.flatnonzero(np.isin(sample.z, z[bad])).tolist():
        if (sample.z[idx].item(), sample.delta[idx].item()) in zero:
            raise DegenerateObservationError(idx)


class _Group(NamedTuple):
    """The observed or the censored rows of an E-step sample, as a slice of
    rows, with their ``vec`` (``t`` or ``1``) and, on the spectral route,
    ``c = V^-1 vec`` (else ``None``)."""

    observed: bool
    rows: slice
    vec: np.ndarray
    c: np.ndarray | None


def _by_group(spectrum: Spectrum | None, agg: CensoredSample, exit_rates: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, list[_Group]]:
    """``z`` and weights of ``agg`` with its observed rows moved ahead of its
    censored ones (each group keeps its order), and the groups present."""
    observed = agg.delta == 1
    n_observed = int(np.count_nonzero(observed))
    z, w = agg.z, agg.weight
    if 0 < n_observed < agg.n:
        order = np.argsort(~observed, kind="stable")
        z, w = z[order], w[order]
    groups = []
    for flag, rows, vec in ((True, slice(0, n_observed), exit_rates),
                            (False, slice(n_observed, agg.n), np.ones(exit_rates.size))):
        if rows.start < rows.stop:
            c = None if spectrum is None else spectrum.vecs_inv @ vec
            groups.append(_Group(flag, rows, vec, c))
    return z, w, groups


class _RouteSums(NamedTuple):
    """A route's E-step sums over the rows of both groups, with
    ``scale = w / denom``, that :func:`e_step` forms the statistics from."""

    denom: np.ndarray        # (m,) likelihood factor pi expm(Tz) vec of each row
    back: np.ndarray         # (p,) sum of scale * expm(Tz) vec
    conv: np.ndarray         # (p, p) sum of scale * the convolution at z
    front: np.ndarray        # (p,) sum of scale * pi expm(Tz) over observed rows


def _van_loan_sums(rep: PHRepresentation, z: np.ndarray, w: np.ndarray,
                   groups: list[_Group], sample: CensoredSample) -> _RouteSums:
    """The sums of :func:`e_step` without eigen-factors, from stacked Van
    Loan block exponentials: one set per group, since the block's corner
    ``vec pi`` differs by group."""
    pi = rep.pi
    blocks = [_van_loan(rep.T, np.outer(g.vec, pi), z[g.rows]) for g in groups]
    fronts = [pi @ ez for ez, _ in blocks]             # (m_g, p): pi expm(Tz)
    denom = np.concatenate([front @ g.vec for front, g in zip(fronts, groups)])
    n_observed = groups[0].rows.stop if groups[0].observed else 0
    scale = _scales(w, denom, z, np.arange(z.size) < n_observed, sample)
    back = np.concatenate([ez @ g.vec for (ez, _), g in zip(blocks, groups)])
    conv = np.einsum("m,mkl->kl", scale, np.concatenate([c for _, c in blocks]))
    front = np.zeros(rep.p)
    if groups[0].observed:
        front = scale[groups[0].rows] @ fronts[0]
    return _RouteSums(denom, scale @ back, conv, front)


def _van_loan(t: np.ndarray, corner: np.ndarray, z: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """``expm(t z)`` and ``int_0^z expm(t (z - u)) corner expm(t u) du`` at
    each ``z``: the upper-left and upper-right blocks of one exponential
    ``expm([[t, corner], [0, t]] z)`` (Van Loan 1978), whose off-diagonal
    entries are nonnegative for a sub-intensity ``t`` and ``corner >= 0``."""
    p = t.shape[0]
    block = np.zeros((2 * p, 2 * p))
    block[:p, :p] = block[p:, p:] = t
    block[:p, p:] = corner
    full = _expm(block * z[:, None, None])
    return full[:, :p, :p], full[:, :p, p:]


def _spectral_sums(rep: PHRepresentation, z: np.ndarray, w: np.ndarray,
                   groups: list[_Group], sample: CensoredSample) -> _RouteSums:
    """The sums of :func:`e_step` in the eigenbasis ``T = V diag(lam) V^-1``.

    With ``r = pi V`` and ``c = V^-1 vec`` a group's convolution at ``z`` is
    ``V [(c r^T) * D(z)] V^-1`` for the divided differences
    ``D_ij(z) = (exp(lam_i z) - exp(lam_j z)) / (lam_i - lam_j)``, and
    ``z exp(lam_i z)`` where ``lam_i == lam_j``.  Their weighted sums over
    each group come from :func:`_eigen_sums`.  The denominators take their
    coefficients ``r * c`` from the same ``c`` as the statistics, and each
    group changes basis on its own: a rounding apart between the two, or
    adding the groups in the eigenbasis first, is amplified by cond(V).
    """
    spectrum = rep._spectrum
    sums = _eigen_sums(spectrum, z, w, groups, sample)
    vecs, vinv, r = spectrum.vecs, spectrum.vecs_inv, spectrum.start
    back = conv = 0.0
    front = np.zeros(rep.p)
    for group, se, dd in zip(groups, sums.se, sums.dd):
        back = back + vecs @ (se * group.c)
        conv = conv + vecs @ (np.multiply.outer(group.c, r) * dd) @ vinv
        if group.observed:
            front = ((se * r) @ vinv).real
    return _RouteSums(sums.denom, back.real, conv.real, front)


#: a divided-difference sum is taken as ``(se_i - se_j) / (lam_i - lam_j)``
#: unless that difference, times this factor, falls below the magnitude
#: sums it came from, which would lose more than four bits to cancellation
_CANCEL_FACTOR = 16


class _EigenSums(NamedTuple):
    """Output of :func:`_eigen_sums`: the denominators of all rows, one row
    of ``se`` and ``dd`` per group, and the entries of ``dd`` (for every
    group) summed row by row."""

    denom: np.ndarray        # (m,)
    se: np.ndarray           # (G, p) sum of scale * exp(z lam)
    dd: np.ndarray           # (G, p, p) sum of scale * D(z)
    by_row: np.ndarray       # (p, p) bool


def _eigen_sums(spectrum: Spectrum, z: np.ndarray, w: np.ndarray,
                groups: list[_Group], sample: CensoredSample) -> _EigenSums:
    """Denominators ``exp(z lam) @ (r * c)`` of each group's rows, and for
    each group ``se = scale @ exp(z lam)`` and ``sum_m scale_m D(z_m)`` over
    its rows, for the symmetric matrices ``D`` of :func:`_spectral_sums`
    and ``scale = w / denom``; with no conjugate pair all are real arrays.

    One :func:`~matlife.phasetype._folded_exp` pass gives ``exp(z lam)``
    for every row.  A product over each group's rows gives ``se``, the
    magnitude sums ``sum |scale exp(z lam)|`` (``se`` itself on a real
    spectrum) and the diagonal sums ``sum scale z exp(z lam)``, spread over
    every eigenvalue by :func:`~matlife.phasetype._unfolded`.  Every other
    entry is ``(se_i - se_j) / (lam_i - lam_j)``, since the sums are linear,
    and ``Im(se_i) / Im(lam_i)`` for two conjugate eigenvalues, exact
    however close they are.  Where that difference cancels, by
    :data:`_CANCEL_FACTOR` against the magnitude sums, the entry is summed
    row by row as ``exp(hi z) expm1((lo - hi) z) / (lo - hi)`` with ``hi``
    the eigenvalue of larger real part, so no factor overflows and
    near-equal eigenvalues lose no digits; ``by_row`` marks those entries.
    Such an entry between the conjugates of two eigenvalues already summed
    is the conjugate of theirs.  Exactly equal eigenvalues take the
    diagonal sum.
    """
    lam, r = spectrum.eigvals, spectrum.start
    er, ec, factors = _folded_exp(spectrum, z, *(r * g.c for g in groups))
    denom = np.maximum(factors[0] if len(groups) == 1 else
                       np.concatenate([f[g.rows] for f, g in zip(factors, groups)]),
                       0.0)
    n_observed = groups[0].rows.stop if groups[0].observed else 0
    scale = _scales(w, denom, z, np.arange(z.size) < n_observed, sample)

    # each group's sums of weight * columns over its rows (None for no columns)
    sums = lambda weight, columns: (None if columns is None else
                                    np.array([weight[g.rows] @ columns[g.rows] for g in groups]))
    se_real, sz = sums(scale, er), scale * z
    se = _unfolded(spectrum, se_real, sums(scale, ec))
    diag = _unfolded(spectrum, sums(sz, er), sums(sz, ec))
    mag = se if ec is None else _unfolded(spectrum, se_real, sums(scale, np.abs(ec))).real

    gap = np.subtract.outer(lam, lam)
    differ = gap != 0
    diff = se[:, :, None] - se[:, None, :]
    # entries of equal eigenvalues keep the diagonal sum they start from
    dd = np.divide(diff, gap, where=differ,
                   out=np.repeat(diag[:, :, None], lam.size, axis=2))
    if np.iscomplexobj(lam):
        # two conjugate eigenvalues: Im/Im is exact however close, never by row
        conj = differ & (lam[:, None] == lam.conj())
        dd[:, conj] = diff[:, conj].imag / gap[conj].imag
        differ &= ~conj
    by_row = differ & (np.abs(diff) * _CANCEL_FACTOR
                       < mag[:, :, None] + mag[:, None, :]).any(axis=0)
    if by_row.any():
        roots, summed = lam.tolist(), {}
        rows, cols = np.nonzero(np.triu(by_row))
        for i, j in zip(rows.tolist(), cols.tolist()):
            hi, lo = ((roots[i], roots[j]) if roots[i].real > roots[j].real
                      else (roots[j], roots[i]))
            entry = summed.get((hi.conjugate(), lo.conjugate()))
            if entry is not None:       # the conjugate of its couple's entry
                entry = entry.conj()
            else:
                step = lo - hi
                if hi.imag == lo.imag == 0:     # two real eigenvalues
                    step = step.real
                weighted = scale * np.exp(z * (hi.real if hi.imag == 0 else hi))
                growth = np.expm1(z * step)
                entry = summed[hi, lo] = np.array(
                    [weighted[g.rows] @ growth[g.rows] for g in groups]) / step
            dd[:, i, j] = dd[:, j, i] = entry
    return _EigenSums(denom, se, dd, by_row)


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

    dead = stats.v <= DEAD_STATE_TOL * max(1.0, total_weight)
    live = ~dead
    t = np.divide(stats.njump, stats.v[:, None], out=np.zeros((p, p)), where=live[:, None])
    exit_rates = np.divide(stats.nabs, stats.v, out=np.zeros(p), where=live)
    np.fill_diagonal(t, -(t.sum(axis=1) - t.diagonal() + exit_rates))
    if dead.any():
        if previous is None:
            raise DeadStateError(int(np.argmax(dead)))
        t[dead] = previous.T[dead]
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
    layout = _structure_layout(spec)
    outside_rates, outside_starts = rep.T > 0, rep.pi > 0
    outside_rates[layout.off] = outside_starts[layout.starts] = False
    if outside_rates.any() or outside_starts.any():
        raise InvalidInputError(f"initial representation falls outside the {spec.kind} structure")
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
