"""Independent oracles and factories shared by the test modules.

Everything here deliberately avoids the package's own numerical routes:
Taylor series for the matrix exponential, composite Simpson for integrals,
and path simulation for conditional expectations.
"""

import numpy as np

from matlife.em import SufficientStats
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


def simpson_conv(t, b, z, panels=4096):
    """Composite-Simpson evaluation of the matrix convolution integral."""
    u = np.linspace(0.0, z, 2 * panels + 1)
    h = u[1] - u[0]
    vals = np.array([taylor_expm(t * (z - ui)) @ b @ taylor_expm(t * ui) for ui in u])
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
