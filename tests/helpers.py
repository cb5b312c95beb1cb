"""Independent oracles and factories shared by the test modules.

Everything here deliberately avoids the package's own numerical routes:
Taylor series for the matrix exponential, composite Simpson for integrals,
and path simulation for conditional expectations.
"""

import numpy as np

from matlife.em import SufficientStats
from matlife.exceptions import DomainError, InvalidInputError, TableParseError
from matlife.mortality import LifeTable
from matlife.phasetype import PHRepresentation


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
