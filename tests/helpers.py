"""Independent oracles and factories shared by the test modules.

Everything here deliberately avoids the package's own numerical routes:
Taylor series for the matrix exponential, composite Simpson for integrals,
and path simulation for conditional expectations.
"""

import numpy as np

from matlife.em import SufficientStats
from matlife.exceptions import DomainError, InvalidInputError, TableParseError
from matlife.mortality import NM_FATOL, NM_XATOL, LifeTable
from matlife.phasetype import (
    PRODUCTS_COND_LIMIT,
    SURVIVAL_FLOOR,
    CoxianSpec,
    Evaluation,
    PHRepresentation,
    Spectrum,
    _conjugate_pairs,
    ph_products,
)


def taylor_expm(a, terms=60):
    """Matrix exponential by scaled Taylor summation (reference route)."""
    a = np.asarray(a, dtype=float)
    norm = np.abs(a).sum(axis=-1).max()
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-16))))) + 1
    b = a / 2.0**squarings
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ b / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def taylor_expm_stack(a, terms=60):
    """``taylor_expm`` of every matrix in the stack ``a``.

    Each matrix gets the same series and squarings as ``taylor_expm``; the
    work is batched over the matrices that share a squaring count.
    """
    a = np.asarray(a, dtype=float)
    norms = np.abs(a).sum(axis=-1).max(axis=-1)
    squarings = np.ceil(np.log2(np.maximum(norms, 1e-16))).astype(int).clip(0) + 1
    out = np.empty_like(a)
    for count in np.unique(squarings):
        group = squarings == count
        b = a[group] / 2.0**count
        acc = np.broadcast_to(np.eye(a.shape[-1]), b.shape)
        term = acc
        for k in range(1, terms + 1):
            term = term @ b / k
            acc = acc + term
        for _ in range(count):
            acc = acc @ acc
        out[group] = acc
    return out


def simpson_conv(t, b, z, panels=4096):
    """Composite-Simpson evaluation of the matrix convolution integral."""
    u = np.linspace(0.0, z, 2 * panels + 1)
    h = u[1] - u[0]
    t = np.asarray(t, dtype=float)
    vals = (taylor_expm_stack(t * (z - u)[:, None, None]) @ b
            @ taylor_expm_stack(t * u[:, None, None]))
    weights = np.ones(len(u))
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return h / 3.0 * np.einsum("m,mij->ij", weights, vals)


def aggregate_by_unique(sample):
    """Tie merging by ``np.unique`` over ``(z, delta)`` rows (reference route).

    Returns the merged ``z``, ``delta`` (int8) and summed ``weight``, sorted
    by ``(z, delta)``; each group's weights are added in input order.
    """
    key = np.stack([sample.z, sample.delta.astype(float)], axis=1)
    uniq, inverse = np.unique(key, axis=0, return_inverse=True)
    weight = np.zeros(uniq.shape[0])
    np.add.at(weight, inverse, sample.weight)
    return uniq[:, 0], uniq[:, 1].astype(np.int8), weight


def aggregate_rates_by_age(table, year_from, year_to):
    """Per-age rate over the selected years by one boolean mask per age
    (reference route): summed deaths over summed exposure when the table
    carries counts, else ``np.nanmean`` of the rates."""
    sub = table.select(year_from, year_to)
    ages = np.unique(sub.age)
    have_counts = np.all(np.isfinite(sub.deaths)) and np.all(np.isfinite(sub.exposure))
    m = np.empty(ages.size)
    for i, a in enumerate(ages):
        rows = sub.age == a
        if have_counts:
            e = sub.exposure[rows].sum()
            m[i] = sub.deaths[rows].sum() / e if e > 0 else np.nan
        else:
            m[i] = np.nanmean(sub.mx[rows])
    return ages, m


def combine_tables_by_dicts(deaths, exposures):
    """``mortality.combine_tables`` through one dict per table keyed on
    (year, age) and a loop over the common keys (reference route)."""
    dkey = {(y, a): v for y, a, v in zip(deaths.year, deaths.age, deaths.deaths)}
    ekey = {(y, a): v for y, a, v in zip(exposures.year, exposures.age,
                                         exposures.exposure)}
    if not any(np.isfinite(v) for v in dkey.values()):
        raise InvalidInputError("first table carries no death counts")
    if not any(np.isfinite(v) for v in ekey.values()):
        raise InvalidInputError("second table carries no exposures")
    common = sorted(set(dkey) & set(ekey))
    rows = []
    dropped = deaths.dropped + exposures.dropped
    dropped += len(set(dkey) ^ set(ekey))
    for key in common:
        d, e = dkey[key], ekey[key]
        if not (np.isfinite(d) and np.isfinite(e)) or e <= 0 or d < 0:
            dropped += 1
            continue
        rows.append((key[0], key[1], d, e))
    if not rows:
        raise InvalidInputError("no usable (year, age) pairs in common")
    arr = np.asarray(rows, dtype=float)
    return LifeTable(arr[:, 0].astype(int), arr[:, 1].astype(int),
                     arr[:, 2], arr[:, 3], arr[:, 2] / arr[:, 3], dropped)


def log_rate_grid_by_dicts(table, year_from=None, year_to=None):
    """``mortality.log_rate_grid`` through a dict of the positive rates and
    one membership test per (year, age) cell (reference route)."""
    sub = table.select(year_from, year_to)
    years = sub.years
    lookup = {}
    for y, a, v in zip(sub.year, sub.age, sub.mx):
        if np.isfinite(v) and v > 0:
            lookup[(y, a)] = v
    ages = sorted({a for (_, a) in lookup})
    complete = [a for a in ages if all((y, a) in lookup for y in years)]
    if not complete:
        raise DomainError("no age has positive rates in every selected year")
    grid = np.array([[np.log(lookup[(y, a)]) for y in years] for a in complete])
    return np.asarray(complete), years, grid, len(ages) - len(complete)


def load_table_by_lines(source, kind="rates", column="Female"):
    """Life table parsed one line at a time with ``str.split``, ``int`` and
    ``float`` (reference route for ``mortality.load_table``).

    Same layout and rules: the first line naming Year and Age is the header,
    blank lines are skipped, ``110+`` reads as 110 and a lone ``.`` as the
    value drops the row.  Raises ``TableParseError`` at the first bad line.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    lines = text.splitlines()
    header_idx = next((i for i, line in enumerate(lines)
                       if {"Year", "Age"} <= set(line.split())), None)
    if header_idx is None:
        raise TableParseError(1, "no header line naming Year and Age")
    names = lines[header_idx].split()
    if column not in names:
        raise TableParseError(header_idx + 1, f"column {column!r} not in header")
    pos_year, pos_age, pos_val = (names.index(n) for n in ("Year", "Age", column))
    years, ages, values = [], [], []
    dropped = 0
    for i in range(header_idx + 1, len(lines)):
        tokens = lines[i].split()
        if not tokens:
            continue
        if len(tokens) != len(names):
            raise TableParseError(i + 1, "wrong field count")
        raw_age = tokens[pos_age]
        try:
            year = int(tokens[pos_year])
            age = int(raw_age[:-1]) if raw_age.endswith("+") else int(raw_age)
        except ValueError:
            raise TableParseError(i + 1, "bad year or age") from None
        if tokens[pos_val] == ".":
            dropped += 1
            continue
        try:
            values.append(float(tokens[pos_val]))
        except ValueError:
            raise TableParseError(i + 1, "bad value") from None
        years.append(year)
        ages.append(age)
    if not years:
        raise TableParseError(len(lines) or 1, "no data rows")
    cols = {name: np.full(len(years), np.nan)
            for name in ("deaths", "exposure", "mx")}
    cols[{"rates": "mx", "deaths": "deaths", "exposures": "exposure"}[kind]] = (
        np.asarray(values, dtype=float))
    return LifeTable(np.asarray(years), np.asarray(ages), cols["deaths"],
                     cols["exposure"], cols["mx"], dropped)


def scipy_nelder_mead(objective, simplex, max_evals, first_loss=None):
    """``mortality._nelder_mead`` by ``scipy.optimize.minimize`` (reference
    route): the same initial simplex, evaluation budget and tolerances, and
    a given ``first_loss`` answering scipy's first evaluation, that of the
    first vertex, in place of ``objective``.  Returns the final simplex and
    its losses, best first."""
    # imported here: the benchmark loads this module and must not pay for it
    from scipy.optimize import minimize

    if first_loss is not None:
        known, evaluate = [first_loss], objective
        objective = lambda x: known.pop() if known else evaluate(x)
    simplex = np.asarray(simplex, dtype=float)
    res = minimize(objective, simplex[0], method="Nelder-Mead",
                   options={"initial_simplex": simplex, "maxfev": max_evals,
                            "xatol": NM_XATOL, "fatol": NM_FATOL})
    return res.final_simplex


def init_structure_by_draws(spec, rng=None):
    """``em.init_structure`` as one uniform draw per superdiagonal rate and a
    boolean off-diagonal mask (reference route): the off-diagonal rates, then
    the exit rates, then a flat Dirichlet start when the start is free."""
    rng = np.random.default_rng(rng)
    p = spec.p
    t = np.zeros((p, p))
    if spec.ordered:
        for k in range(p - 1):
            t[k, k + 1] = rng.uniform()
    else:
        t[~np.eye(p, dtype=bool)] = rng.uniform(size=p * (p - 1))
    exit_rates = rng.uniform(size=p)
    np.fill_diagonal(t, -(t.sum(axis=1) + exit_rates))
    pi = rng.dirichlet(np.ones(p)) if spec.free_start else np.eye(p)[0]
    return PHRepresentation(pi, t)


def random_sub_intensity(rng, p, kind="general"):
    """Random valid sub-intensity with the requested zero pattern."""
    t = np.zeros((p, p))
    if kind == "general":
        mask = ~np.eye(p, dtype=bool)
        t[mask] = rng.uniform(0.1, 1.0, p * (p - 1))
    else:  # ordered chain
        for k in range(p - 1):
            t[k, k + 1] = rng.uniform(0.1, 1.0)
    exits = rng.uniform(0.1, 1.0, p)
    np.fill_diagonal(t, -(t.sum(axis=1) + exits))
    return t


def random_representation(rng, p, kind="general"):
    pi = rng.dirichlet(np.ones(p)) if kind != "coxian" else np.eye(p)[0]
    return PHRepresentation(pi, random_sub_intensity(rng, p, kind))


def rotating_representation(p, pairs, seed=0):
    """General representation whose ``T`` has exactly ``pairs`` complex
    eigenvalue pairs (``p >= 3 * pairs``), with cond(V) near one.

    Each pair comes from a 3-state cycle of rate ``b`` (eigenvalues near
    ``-e`` and ``-e - b (3 -+ i sqrt(3)) / 2`` for the block's exit rate
    ``e``); the remaining states form a chain with exit rates one apart.
    Every state feeds every later one weakly, and a weaker backward flow
    keeps ``T`` dense without merging eigenvalues.
    """
    rng = np.random.default_rng(seed)
    t = np.zeros((p, p))
    cycle = np.roll(np.eye(3), 1, axis=1)
    for k in range(pairs):
        t[3 * k:3 * k + 3, 3 * k:3 * k + 3] = (0.8 + 0.7 * k) * cycle
    upper = np.triu(np.ones((p, p), dtype=bool), 1)
    t[upper] += rng.uniform(0.0, 0.04, upper.sum())
    t[upper.T] += 0.01
    exits = np.r_[np.repeat(0.2 + 1.0 * np.arange(pairs), 3),
                  0.7 + 1.0 * np.arange(p - 3 * pairs)]
    np.fill_diagonal(t, -(t.sum(axis=1) + exits))
    rep = PHRepresentation(rng.dirichlet(np.ones(p)), t)
    if np.count_nonzero(np.linalg.eigvals(rep.T).imag > 0) != pairs:
        raise ValueError("generator lost or gained a complex pair")
    return rep



def without_spectrum(rep):
    """Copy of ``rep`` without eigen-factors: its products, E-step and
    Green matrix take stacks of the dense exponential ``phasetype._expm``
    (the E-step's as Van Loan blocks)."""
    twin = PHRepresentation(rep.pi, rep.T)
    twin.__dict__["_spectrum"] = None  # fills the cached eigen-factors
    return twin


def erlang(p, rate=1.0):
    """Erlang chain of order ``p`` (unit rate by default); its eigenvector
    matrix is singular to working precision, and exactly singular from
    ``p = 21`` on."""
    return PHRepresentation(np.eye(p)[0], rate * (np.eye(p, k=1) - np.eye(p)))


#: rate gaps of the stacked-route sweeps, from near-equal to equal rates
SWEEP_GAPS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 0.0)


def stacked_route_sweep(max_order):
    """Representations of order at most ``max_order``, all without
    eigen-factors (:func:`without_spectrum`): for each order from 2 a
    Coxian chain at two of :data:`SWEEP_GAPS` between consecutive rates
    (the orders take the gaps in turn), the Erlang chains of order 2, 4, 6
    and 10, and two general ``T`` of order 3 and 4."""
    reps = []
    for p in range(2, max_order + 1):
        for gap in (SWEEP_GAPS[2 * p % 6], SWEEP_GAPS[(2 * p + 1) % 6]):
            reps.append(CoxianSpec(1.0 + gap * np.arange(p), np.full(p - 1, 0.7)
                                   ).to_representation())
    reps += [erlang(p) for p in (2, 4, 6, 10) if p <= max_order]
    rng = np.random.default_rng(3)
    reps += [random_representation(rng, p) for p in (3, 4)]
    return [without_spectrum(rep) for rep in reps]


def spectrum_by_fresh_eig(rep):
    """``rep._spectrum`` from a decomposition of its own: a fresh
    ``np.linalg.eig(rep.T)`` tested with ``np.linalg.cond`` (reference for
    the spectrum built from the constructor's decomposition)."""
    eigvals, eigvecs = np.linalg.eig(rep.T)
    if np.linalg.cond(eigvecs) >= PRODUCTS_COND_LIMIT:
        return None
    start = rep.pi @ eigvecs
    vinv = np.linalg.inv(eigvecs)
    return Spectrum(eigvals, eigvecs, vinv, start,
                    start * (vinv @ rep.exit_rates), start * vinv.sum(axis=1),
                    *_conjugate_pairs(eigvals, eigvecs))


def evaluate_by_fresh_eig(model, y):
    """``model.evaluate(y)`` with ``T`` decomposed apart from the
    representation: the products run on :func:`spectrum_by_fresh_eig` and
    the tail constant's decay rate comes from ``np.linalg.eigvals(T)``
    (reference for the evaluation on the constructor's decomposition)."""
    rep = model.rep
    twin = PHRepresentation(rep.pi, rep.T)
    twin.__dict__["_spectrum"] = spectrum_by_fresh_eig(rep)
    y_arr = np.atleast_1d(np.asarray(y, dtype=float))
    if np.any(y_arr < 0) or not np.all(np.isfinite(y_arr)):
        raise InvalidInputError("evaluation points must be finite and nonnegative")
    dens_ph, surv = ph_products(twin, model.transform.cumulative(y_arr))
    lam = model.transform.intensity(y_arr)
    with np.errstate(invalid="ignore"):
        density = np.where(dens_ph == 0.0, 0.0, lam * dens_ph)
    extrapolated = surv < SURVIVAL_FLOOR
    hazard = np.empty_like(surv)
    ok = ~extrapolated
    hazard[ok] = density[ok] / surv[ok]
    if extrapolated.any():
        z = 600.0 / -np.max(np.linalg.eigvals(rep.T).real)
        for _ in range(60):
            tail_dens, tail_surv = ph_products(twin, np.asarray([z]))
            if tail_surv[0] > 1e-290:
                break
            z *= 0.5
        else:
            raise DomainError("could not find a representable tail point")
        hazard[extrapolated] = float(tail_dens[0] / tail_surv[0]) * lam[extrapolated]
    with np.errstate(divide="ignore"):
        cum_hazard = -np.log(surv)
    if np.isscalar(y) or np.ndim(y) == 0:
        return Evaluation(density[0], surv[0], hazard[0], cum_hazard[0],
                          bool(extrapolated[0]))
    return Evaluation(density, surv, hazard, cum_hazard, extrapolated)


def unfolded_products(spectrum, z):
    """Density, survival and slope factors as the unfolded spectral sums
    ``Re(exp(z lam) @ coef)`` over every eigenvalue (reference route for
    the folded kernel)."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(np.multiply.outer(z, spectrum.eigvals))
    return (np.maximum((ez @ spectrum.exit_coef).real, 0.0),
            np.maximum((ez @ spectrum.ones_coef).real, 0.0),
            (ez @ (spectrum.eigvals * spectrum.exit_coef)).real)


def unfolded_divided_differences(lam, z, scale):
    """``sum_m scale_m D(z_m)`` over every eigenvalue pair, in the dtype of
    ``lam`` (reference route for the folded E-step sums)."""
    e = np.exp(np.multiply.outer(z, lam))
    weighted = scale[:, None] * e
    p = lam.size
    out = np.empty((p, p), dtype=e.dtype)
    for i in range(p):
        for j in range(i, p):
            hi, lo = (i, j) if lam[i].real > lam[j].real else (j, i)
            gap = lam[lo] - lam[hi]
            if gap == 0:
                out[i, j] = out[j, i] = weighted[:, hi] @ z
            else:
                out[i, j] = out[j, i] = weighted[:, hi] @ np.expm1(z * gap) / gap
    return out


def simulate_paths(rep, n_paths, rng, horizon=None):
    """Simulate chains, recording per-path statistics.

    Returns absorption times plus per-path initiation indicators, sojourn
    times, jump counts and absorption-state indicators.  When ``horizon`` is
    given, a second set of sojourn/jump statistics truncated at the horizon
    is returned as well (for conditioning on survival past the horizon).
    """
    p = rep.p
    rates = -np.diag(rep.T)
    jump = np.hstack([rep.T / rates[:, None], (rep.exit_rates / rates)[:, None]])
    np.fill_diagonal(jump, 0.0)
    cum = np.cumsum(jump, axis=1)
    cum[:, -1] = 1.0

    state = rng.choice(p, size=n_paths, p=rep.pi)
    b = np.zeros((n_paths, p))
    b[np.arange(n_paths), state] = 1.0
    clock = np.zeros(n_paths)
    v = np.zeros((n_paths, p))
    njump = np.zeros((n_paths, p, p))
    nabs = np.zeros((n_paths, p))
    v_h = np.zeros((n_paths, p)) if horizon is not None else None
    njump_h = np.zeros((n_paths, p, p)) if horizon is not None else None

    active = np.ones(n_paths, dtype=bool)
    while active.any():
        idx = np.flatnonzero(active)
        cur = state[idx]
        hold = rng.exponential(1.0 / rates[cur])
        start = clock[idx]
        clock[idx] += hold
        v[idx, cur] += hold
        if horizon is not None:
            trunc = np.clip(np.minimum(clock[idx], horizon) - start, 0.0, None)
            v_h[idx, cur] += trunc
        nxt = (rng.random(idx.size)[:, None] > cum[cur]).sum(axis=1)
        absorbed = nxt == p
        jump_idx = idx[~absorbed]
        njump[jump_idx, cur[~absorbed], nxt[~absorbed]] += 1.0
        if horizon is not None:
            within = clock[jump_idx] <= horizon
            njump_h[jump_idx[within], cur[~absorbed][within], nxt[~absorbed][within]] += 1.0
        nabs[idx[absorbed], cur[absorbed]] += 1.0
        active[idx[absorbed]] = False
        state[jump_idx] = nxt[~absorbed]
    return clock, b, v, njump, nabs, v_h, njump_h


def mc_conditional_stats(rep, z, observed, n_paths, rng, kernel=0.005):
    """Conditioned-simulation estimate of the E-step statistics.

    ``observed=True`` conditions on absorption within ``kernel`` of ``z``;
    ``observed=False`` conditions on survival past ``z`` with statistics
    truncated at ``z``.  Returns (mean stats, standard errors, #selected).
    """
    clock, b, v, njump, nabs, v_h, njump_h = simulate_paths(
        rep, n_paths, rng, horizon=None if observed else z)
    if observed:
        sel = np.abs(clock - z) < kernel
        stats = (b[sel], v[sel], njump[sel], nabs[sel])
    else:
        sel = clock > z
        zero = np.zeros_like(nabs[sel])
        stats = (b[sel], v_h[sel], njump_h[sel], zero)
    m = int(sel.sum())
    means = SufficientStats(*[s.mean(axis=0) for s in stats])
    ses = SufficientStats(*[s.std(axis=0) / np.sqrt(m) for s in stats])
    return means, ses, m


def mp_products(pi, t, z, dps=50):
    """``(pi expm(Tz) t, pi expm(Tz) 1)`` at each ``z`` to ``dps`` digits by
    ``mpmath.expm`` on the exact binary values of ``pi`` and ``T``, with
    ``t = -T 1`` (reference for :func:`~matlife.phasetype.ph_products`)."""
    import mpmath  # loaded on call: the benchmark loads this module in set-up

    with mpmath.workdps(dps):
        t = mpmath.matrix(np.asarray(t, dtype=float).tolist())
        row = mpmath.matrix([np.asarray(pi, dtype=float).tolist()])
        ones = mpmath.ones(t.rows, 1)
        exit_rates = -(t * ones)
        fronts = [row * mpmath.expm(t * zk) for zk in np.atleast_1d(z).tolist()]
        return (np.array([float((f * exit_rates)[0]) for f in fronts]),
                np.array([float((f * ones)[0]) for f in fronts]))


def mp_e_step(rep, data, dps=50):
    """The E-step statistics of ``rep`` on ``data`` to ``dps`` digits: each
    row's ``expm(Tz)`` and convolution come from one Van Loan block
    ``expm([[T, vec pi], [0, T]] z)`` by ``mpmath.expm``, on the exact
    binary values of ``rep`` (reference for the E-step; order at most 4 and
    at most 10 distinct ``z``, since each row costs one block exponential).
    """
    import mpmath  # loaded on call: the benchmark loads this module in set-up

    agg = data.aggregate()
    p = rep.p
    if p > 4 or np.unique(agg.z).size > 10:
        raise ValueError("the oracle takes order <= 4 and <= 10 distinct z")
    with mpmath.workdps(dps):
        t = mpmath.matrix(rep.T.tolist())
        pi = mpmath.matrix([rep.pi.tolist()])
        ones = mpmath.ones(p, 1)
        exit_rates = -(t * ones)
        b, v, nabs = (mpmath.zeros(p, 1) for _ in range(3))
        njump = mpmath.zeros(p, p)
        loglik = mpmath.mpf(0)
        for z, delta, w in zip(agg.z.tolist(), agg.delta.tolist(), agg.weight.tolist()):
            vec = exit_rates if delta else ones
            block = mpmath.zeros(2 * p, 2 * p)
            block[:p, :p] = block[p:, p:] = t
            block[:p, p:] = vec * pi
            full = mpmath.expm(block * z)
            ez, conv = full[:p, :p], full[:p, p:]
            front, back = pi * ez, ez * vec
            denom = (front * vec)[0]
            scale = mpmath.mpf(w) / denom
            loglik += w * mpmath.log(denom)
            for k in range(p):
                b[k] += scale * pi[k] * back[k]
                v[k] += scale * conv[k, k]
                if delta:
                    nabs[k] += scale * exit_rates[k] * front[k]
                for l in range(p):
                    if l != k:
                        njump[k, l] += scale * t[k, l] * conv[l, k]
        as_array = lambda m: np.array(m.tolist(), dtype=float)
        return SufficientStats(as_array(b).ravel(), as_array(v).ravel(),
                               as_array(njump), as_array(nabs).ravel(),
                               float(loglik))


def _coincide(eigvals, dps):
    """Whether two of the ``mpmath`` eigenvalues ``eigvals``, computed at
    ``dps`` digits, agree to half of those digits: a repeated eigenvalue of
    a triangular ``T`` comes out exactly repeated, and ``V^-1`` is then
    meaningless."""
    import mpmath

    lam = list(eigvals)
    return any(abs(a - b) < mpmath.mpf(10) ** (-dps / 2) * max(abs(a), abs(b))
               for i, a in enumerate(lam) for b in lam[i + 1:])


def mp_mean(model, dps=30):
    """``model.mean()`` to ``dps`` digits (reference for the Weibull and
    Gompertz means).

    For an Erlang chain (equal rates, each state feeding the next, a
    defective ``T``) it is one ``mpmath.quad`` of ``g(z)`` against the
    mixture of Erlang densities that ``pi`` starts, ``g`` being the
    inverse clock (``log1p(beta z) / beta`` or ``z^(1/theta)``).  Otherwise
    it is ``pi V f(mu) V^-1 1`` from ``mpmath.eig`` of ``M = -T / beta``
    with ``f(x) = exp(x) E1(x) / beta`` (Gompertz), or of ``M = -T`` with
    ``f(x) = Gamma(1 + 1/theta) x^(-1/theta)`` (Weibull), on the exact
    binary values of ``pi`` and ``T``.  Any other ``T`` with a repeated
    eigenvalue (:func:`_coincide`) raises :class:`ValueError`; take
    :func:`mp_survival_integral` for it.
    """
    import mpmath  # loaded on call: the benchmark loads this module in set-up

    rep, transform = model.rep, model.transform
    t, pi, p = rep.T, rep.pi, rep.p
    rate = -t[0, 0]
    erlang = np.array_equal(t, rate * (np.eye(p, k=1) - np.eye(p)))
    with mpmath.workdps(dps):
        if transform.family == "gompertz":
            beta = mpmath.mpf(transform.beta)
            clock = lambda z: mpmath.log1p(beta * z) / beta
            scale, f = beta, lambda x: mpmath.exp(x) * mpmath.e1(x) / beta
        else:
            inv = 1 / mpmath.mpf(transform.theta)
            clock = lambda z: z ** inv
            scale, f = 1, lambda x: mpmath.gamma(1 + inv) * x ** -inv
        if erlang:
            r = mpmath.mpf(rate)
            total = mpmath.mpf(0)
            for j, weight in enumerate(pi.tolist()):
                k = p - j
                if weight:
                    density = lambda z: r ** k * z ** (k - 1) * mpmath.exp(-r * z)
                    total += weight * mpmath.quad(lambda z: clock(z) * density(z),
                                                  [0, k / r, mpmath.inf]) / mpmath.factorial(k - 1)
            return float(total)
        lam, vecs = mpmath.eig(-mpmath.matrix(t.tolist()) / scale)
        if _coincide(lam, dps):
            raise ValueError("T has a repeated eigenvalue: take mp_survival_integral")
        u = vecs * mpmath.diag([f(x) for x in lam]) * mpmath.inverse(vecs)
        return float(mpmath.re((mpmath.matrix([pi.tolist()]) * u * mpmath.ones(p, 1))[0]))


def _mp_clock(transform):
    """The cumulative clock ``G`` of an identity, Gompertz or Weibull
    transform, or of one scaled by a factor, in ``mpmath``."""
    import mpmath

    if transform.family == "scaled":
        base, factor = _mp_clock(transform.base), mpmath.mpf(transform.factor)
        return lambda y: factor * base(y)
    if transform.family == "gompertz":
        beta = mpmath.mpf(transform.beta)
        return lambda y: mpmath.expm1(beta * y) / beta
    if transform.family == "weibull":
        theta = mpmath.mpf(transform.theta)
        return lambda y: y ** theta
    return lambda y: y


def mp_survival_integral(model, x=0.0, dps=30):
    """``int_x^inf S(y) dy / S(x)``, the mean of ``model.residual_lifetime(x)``
    and at ``x = 0`` of ``model`` itself, to ``dps`` digits (reference for
    those means, on any ``T``).

    ``S(y) = pi expm(T G(y)) 1`` on the exact binary values of ``pi`` and
    ``T``, for the clock ``G`` of :func:`_mp_clock`, is summed over the
    eigenvalues of ``mpmath.eig`` or, for a repeated eigenvalue
    (:func:`_coincide`), taken from ``mpmath.expm`` at each node.  The
    integral is truncated at ``x + 2^k``, the first such age at which ``S``
    falls below 1e-40 of ``S(x)``, and taken by Gauss-Legendre on eight
    panels, which suits a smooth ``S``; an error estimate above
    ``10^(-dps/2)`` of the value, as at ``x = 0`` under a Weibull clock
    whose shape is not an integer, raises :class:`ValueError`.
    """
    import mpmath  # loaded on call: the benchmark loads this module in set-up

    rep = model.rep
    with mpmath.workdps(dps):
        t = mpmath.matrix(rep.T.tolist())
        pi = mpmath.matrix([rep.pi.tolist()])
        ones = mpmath.ones(rep.p, 1)
        clock = _mp_clock(model.transform)
        lam, vecs = mpmath.eig(t)
        if _coincide(lam, dps):
            survival = lambda y: (pi * mpmath.expm(t * clock(y)) * ones)[0]
        else:
            coef = [a * b for a, b in zip(pi * vecs, mpmath.inverse(vecs) * ones)]
            survival = lambda y: mpmath.re(
                mpmath.fsum(c * mpmath.exp(l * clock(y)) for c, l in zip(coef, lam)))
        x = mpmath.mpf(x)
        at_x, span = survival(x), mpmath.mpf(1)
        while survival(x + span) >= mpmath.mpf("1e-40") * at_x:
            span *= 2
        value, err = mpmath.quad(survival, mpmath.linspace(x, x + span, 9),
                                 method="gauss-legendre", error=True)
        if err > mpmath.mpf(10) ** (-dps / 2) * value:
            raise ValueError(f"quadrature error estimate {mpmath.nstr(err, 3)}")
        return float(value / at_x)
