"""Build matrix lifetime models and inspect their analytic structure.

A phase-type lifetime is the absorption time of a Markov jump process;
wrapping it with a deterministic clock (Gompertz, Weibull) bends the
hazard without giving up closed-form survival, density, moments, or the
occupation-time (Green) matrix.  This script walks through all of those
on small examples.

Run from the repository root:

    python3 demos/01_lifetime_models.py
"""

import numpy as np

from matlife.inhomogeneity import make_transform
from matlife.phasetype import (
    CoxianSpec,
    IPHModel,
    PHRepresentation,
    coxian_density,
    tail_hazard_constant,
)

# A three-state chain: start in state 1 or 2, drift toward absorption.
rep = PHRepresentation(
    pi=[0.6, 0.4, 0.0],
    T=[[-2.0, 1.0, 0.5],
       [0.0, -3.0, 2.0],
       [0.3, 0.0, -1.5]],
)
print("order p =", rep.p)
print("exit rates t = -T e =", rep.exit_rates)

# Plain clock: survival, density and hazard on a grid.
plain = IPHModel(rep)
y = np.linspace(0.0, 3.0, 7)
ev = plain.evaluate(y)
print("\nplain clock on y =", y)
print("  survival:", np.array_str(ev.survival, precision=4))
print("  density: ", np.array_str(ev.density, precision=4))
print("  hazard:  ", np.array_str(ev.hazard, precision=4))

# The Green matrix U = inv(-T) holds expected occupation times; its row
# sums weighted by pi give the mean.
green = plain.green_matrix()
print("\nGreen matrix inv(-T):")
print(np.array_str(green, precision=4))
print("mean via pi U e:", plain.mean())
print("mean via simulation:",
      plain.sample(200_000, np.random.default_rng(1)).mean().round(4))

# A Gompertz clock multiplies the hazard by exp(beta t) in operational
# time; the model stays closed form.  Its mean and its life expectancy at
# age 1 integrate the survival function by one quadrature.
aging = IPHModel(rep, make_transform("gompertz", 4.0))
print("\nGompertz clock, beta = 4:")
print("  mean:", aging.mean())
print("  life expectancy at age 1:", aging.residual_lifetime(1.0).mean())
print("  hazard at t = 0.5, 1.0, 1.5:",
      np.array_str(aging.evaluate([0.5, 1.0, 1.5]).hazard, precision=4))

# Far in the tail the hazard grows like eta * lambda(t) where eta is the
# dominant-eigenvalue constant of the underlying chain.
eta = tail_hazard_constant(rep)
t_far = aging.transform.inverse_cumulative(300.0 / eta)
ratio = float(aging.evaluate(t_far).hazard / aging.transform.intensity(t_far))
print(f"  tail constant eta = {eta:.6f}, hazard/intensity far out = "
      f"{ratio:.6f}")

# Ordered (Coxian) chains admit a partial-fraction density with no matrix
# exponential at all; both routes agree.
spec = CoxianSpec(rates=[1.0, 2.5, 4.0], continuations=[0.7, 0.5])
x = np.array([0.2, 1.0, 2.5])
print("\nCoxian chain, closed form vs matrix exponential:")
print("  closed:", np.array_str(coxian_density(spec, x), precision=8))
print("  matrix:", np.array_str(
    IPHModel(spec.to_representation()).evaluate(x).density, precision=8))

# Residual lifetime: the model seen from age a is again phase type with a
# re-weighted start vector.
resid = plain.residual_lifetime(1.0)
print("\nresidual-lifetime start vector at age 1:",
      np.array_str(resid.rep.pi, precision=4))
print("residual mean:", resid.mean())
