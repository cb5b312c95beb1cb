"""Proportional-intensities regression on the veterans lung cancer data.

Covariates scale the clock rate of a matrix lifetime model through an
exponential link, so the scalar proportional-hazards model is the p = 1
special case.  This script fits both on the classic veterans trial and
compares them by likelihood, information criteria, and residuals.

Run from the repository root:

    python3 demos/03_regression_veterans.py
"""

import csv
import pathlib

import numpy as np

from matlife.diagnostics import (
    band_coverage,
    cox_snell_residuals,
    information_criteria,
    kaplan_meier,
    na_slope,
    nelson_aalen,
)
from matlife.em import StructureSpec
from matlife.mortality import free_parameter_count
from matlife.regression import PIFitConfig, RegressionSample, fit_pi

DATA = pathlib.Path(__file__).parent.parent / "tests" / "data"

# Time in hundreds of days; treatment arm, Karnofsky score and months of
# prior therapy rescaled to comparable magnitudes.
with open(DATA / "veteran.csv", newline="") as fh:
    rows = list(csv.DictReader(fh))
y = np.array([float(r["time"]) for r in rows]) / 100.0
delta = np.array([int(r["status"]) for r in rows])
x = np.column_stack([
    np.array([float(r["trt"]) for r in rows]) - 1.0,
    np.array([float(r["karno"]) for r in rows]) / 100.0,
    np.array([float(r["prior"]) for r in rows]) / 10.0,
])
sample = RegressionSample(y, delta, x, np.ones(y.size))
print(f"n = {y.size}, events = {delta.sum()}, covariates = trt, karno, "
      f"prior")

config = PIFitConfig(max_outer=300, tol=1e-8, patience=5, nm_budget=400)
fits = {}
for p in (1, 2):
    res = fit_pi(sample, StructureSpec("coxian", p), family="weibull",
                 config=config, rng=np.random.default_rng(0))
    fits[p] = res
    k = free_parameter_count(res.model)
    ic = information_criteria(res.loglik, k, y.size)
    label = "scalar Weibull PH" if p == 1 else "matrix Weibull PI"
    print(f"\n{label} (p = {p}):")
    print(f"  log-likelihood = {res.loglik:.4f}  (k = {k})")
    print(f"  AIC = {ic.aic:.2f}, BIC = {ic.bic:.2f}")
    print(f"  regression coefficients = "
          f"{np.array_str(res.model.beta, precision=4)}")

better = fits[2].loglik - fits[1].loglik
print(f"\nmatrix model gains {better:.2f} log-likelihood points for two "
      f"extra parameters")

# If a model is right, its Cox-Snell residuals are censored draws from a
# unit exponential: the Kaplan-Meier band should cover exp(-t) and the
# Nelson-Aalen plot should have unit slope.
for p, res in fits.items():
    residuals = cox_snell_residuals(res.model, sample)
    km = kaplan_meier(residuals)
    na = nelson_aalen(residuals)
    cov = band_coverage(km, lambda t: np.exp(-t))
    slope = na_slope(na)
    print(f"p = {p}: band coverage of exp(-t) = {cov:.3f}, "
          f"Nelson-Aalen slope = {slope:.3f}")
