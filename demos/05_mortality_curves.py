"""Mortality-curve workflow: life tables to matrix-Gompertz hazards.

A death-rate table is collapsed to one log-mortality curve, converted to
a weighted pseudo-sample for EM initialization, and then polished by a
direct least-squares fit of the log hazard.  The direct fit trades
likelihood for curve fit, which is the point: the loss is the plotted
quantity.  A Lee-Carter benchmark and the order-selection rule close the
loop.

Run from the repository root (about half a minute):

    python3 demos/05_mortality_curves.py
"""

import pathlib

import numpy as np

from matlife.em import StructureSpec
from matlife.inhomogeneity import make_transform
from matlife.mortality import (
    DirectFitConfig,
    curve_from_table,
    direct_fit,
    free_parameter_count,
    implied_sample,
    lee_carter_fit,
    load_table,
    log_rate_grid,
    model_log_mortality,
    select_order,
)
from matlife.phasetype import IPHModel, PHRepresentation
from matlife.regression import PIFitConfig, fit_pi

DATA = pathlib.Path(__file__).parent.parent / "tests" / "data"

# The synthetic fixture mimics the 1x1 death-rate layout of national
# life tables; see tests/data/make_fixtures.py for the generator.
table = load_table(DATA / "synthetic_Mx_1x1.txt", kind="rates",
                   column="Female")
print(f"table: years {table.years[0]}-{table.years[-1]}, "
      f"{table.n} rows, {table.dropped} dropped")

curve = curve_from_table(table, 2000, 2005)
print(f"pooled 2000-2005 curve: {curve.ages.size} ages, log mortality "
      f"from {curve.log_mortality.min():.2f} to "
      f"{curve.log_mortality.max():.2f}")

# Step 1: EM on the implied pseudo-sample gives a likelihood-based start.
samp = implied_sample(table, 2000, 2005)
em = fit_pi(samp.as_regression_sample(),
            StructureSpec("generalized_coxian", 2), family="gompertz",
            rng=np.random.default_rng(7),
            config=PIFitConfig(max_outer=300, tol=1e-9, patience=5,
                               nm_budget=250))
theta = float(em.model.shape_param(np.zeros((1, 0)))[0])
init = IPHModel(em.model.rep, make_transform("gompertz", theta))
print(f"\nEM start: p = 2 generalized Coxian, Gompertz rate = {theta:.3f}")

# Step 2: direct least squares on the log-mortality curve.
fit = direct_fit(init, curve, DirectFitConfig(max_evals=1500, restarts=1))
print(f"direct fit: loss {fit.loss_trace[0]:.3f} -> {fit.loss:.3f} in "
      f"{fit.n_evaluations} evaluations")

ages = curve.ages
fitted = model_log_mortality(fit.model, ages)
worst = int(np.argmax(np.abs(fitted - curve.log_mortality)))
print(f"largest log-scale gap at age {ages[worst]}: "
      f"{fitted[worst] - curve.log_mortality[worst]:+.3f}")

# Order selection: fit rising dimensions and stop at the elbow.
losses = []
for p in (1, 2, 3):
    start = IPHModel(em.model.rep, make_transform("gompertz", theta))
    if p != 2:
        rng = np.random.default_rng(p)
        T = np.diag(-rng.uniform(1.0, 4.0, p))
        for k in range(p - 1):
            T[k, k + 1] = -0.5 * T[k, k]
        start = IPHModel(PHRepresentation(np.full(p, 1.0 / p), T),
                         make_transform("gompertz", theta))
    r = direct_fit(start, curve, DirectFitConfig(max_evals=1200, restarts=1))
    losses.append(r.loss)
    print(f"p = {p}: loss {r.loss:.3f}, free parameters "
          f"{free_parameter_count(r.model)}")
print("selected order:", select_order(losses, orders=[1, 2, 3]))

# Lee-Carter benchmark on the same years, as a sanity reference.
lc_ages, years, log_m, _ = log_rate_grid(table, 2000, 2005)
lc = lee_carter_fit(log_m)
print(f"\nLee-Carter on {years[0]}-{years[-1]} ({lc_ages.size} ages): "
      f"loading sum = {lc.b.sum():.1f}, "
      f"index range {lc.k.min():.3f} to {lc.k.max():.3f}")
resid = log_m - lc.reconstruct()
print(f"reconstruction rms on the log scale = "
      f"{float(np.sqrt(np.mean(resid ** 2))):.4f}")
