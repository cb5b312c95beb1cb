"""End-to-end acceptance checks.

Each test covers one advertised capability at its stated tolerance and
prints a single PASS/FAIL line; run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they complete.
"""

import csv
import pathlib

import numpy as np
from scipy.integrate import quad
from scipy.stats import kstest

from helpers import mc_conditional_stats, random_representation, simpson_conv
from matlife.diagnostics import (
    STUDY_PI,
    STUDY_SHAPE,
    STUDY_T1,
    information_criteria,
    run_study,
)
from matlife.em import (CensoredSample, EMConfig, StructureSpec, _van_loan, e_step,
                        fit_ph)
from matlife.inhomogeneity import make_transform
from matlife.mortality import (
    DirectFitConfig,
    MortalityCurve,
    curve_from_table,
    direct_fit,
    implied_sample,
    load_table,
    model_log_mortality,
)
from matlife.phasetype import (
    CoxianSpec,
    IPHModel,
    PHRepresentation,
    coxian_density,
    ph_products,
    tail_hazard_constant,
)
from matlife.regression import PIFitConfig, RegressionSample, fit_pi

DATA = pathlib.Path(__file__).parent / "data"


def report(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def test_criterion_01_scalar_gompertz_hazard():
    """A one-state model with exponential-rate intensity has hazard
    r * exp(beta y), exactly."""
    r, beta = 0.8, 5.5
    model = IPHModel(PHRepresentation([1.0], [[-r]]),
                     make_transform("gompertz", beta))
    y = np.linspace(0.0, 1.1, 23)
    hazard = model.evaluate(y).hazard
    expect = r * np.exp(beta * y)
    err = np.max(np.abs(hazard - expect) / expect)
    report(err < 1e-12,
           f"criterion 1: one-state hazard matches r*exp(beta*y), "
           f"max rel err {err:.2e} < 1e-12")


def test_criterion_02_green_matrix_identities():
    """The occupation-time matrix inverts the sub-intensity for the plain
    clock and reproduces the mean for parametric clocks."""
    rng = np.random.default_rng(202)
    worst_inv = 0.0
    for _ in range(20):
        p = int(rng.integers(1, 6))
        rep = random_representation(rng, p)
        green = IPHModel(rep).green_matrix()
        target = np.linalg.inv(-rep.T)
        worst_inv = max(worst_inv,
                        np.max(np.abs(green - target) / np.abs(target)))
    worst_mean = 0.0
    for family, param in [("gompertz", 4.0), ("weibull", 1.6),
                          ("gompertz", 7.5), ("weibull", 2.2)]:
        rep = random_representation(rng, 3)
        model = IPHModel(rep, make_transform(family, param))
        mean = model.mean()
        eta = tail_hazard_constant(rep)
        tmax = float(model.transform.inverse_cumulative(50.0 / eta))
        quad_mean = quad(lambda t: float(model.evaluate(t).survival), 0.0,
                         tmax, limit=400)[0]
        worst_mean = max(worst_mean, abs(mean - quad_mean) / quad_mean)
    report(worst_inv < 1e-10 and worst_mean < 1e-6,
           f"criterion 2: occupation matrix inverts -T (rel {worst_inv:.2e} "
           f"< 1e-10) and mean matches survival quadrature "
           f"(rel {worst_mean:.2e} < 1e-6)")


def test_criterion_03_em_monotone_loglik():
    """Twenty seeded EM runs, with and without censoring, never decrease
    the log-likelihood beyond floating-point noise."""
    worst = np.inf
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        p_fit = (2, 3, 5)[seed % 3]
        true = random_representation(rng, 2)
        y = IPHModel(true).sample(120, rng)
        delta = np.ones(y.size, dtype=int)
        if seed % 2 == 1:
            c = rng.exponential(2.0 * y.mean(), y.size)
            delta = (y <= c).astype(int)
            y = np.minimum(y, c)
        res = fit_ph(CensoredSample(y, delta, np.ones(y.size)),
                     StructureSpec("general", p_fit),
                     EMConfig(max_iterations=30, tol=0.0), rng=rng)
        diffs = np.diff(res.loglik_trace)
        floor = -1e-9 * max(1.0, abs(res.loglik_trace[0]))
        worst = min(worst, float(diffs.min() - floor))
    report(worst >= 0.0,
           f"criterion 3: 20 EM runs monotone within -1e-9 relative "
           f"(worst margin {worst:.2e} >= 0)")


def test_criterion_04_estep_against_simulation():
    """Conditional sufficient statistics agree with a conditioned
    simulation, and the convolution block matches quadrature."""
    rng = np.random.default_rng(77)
    rep = random_representation(rng, 2)
    z = 1.3
    ok = True
    for observed in (True, False):
        got = e_step(rep, CensoredSample([z], [int(observed)], [1.0]))
        mean, se, m = mc_conditional_stats(rep, z, observed, 2_000_000, rng)
        assert m > 2000
        for name in ("b", "v", "njump", "nabs"):
            g = np.asarray(getattr(got, name))
            mu = np.asarray(getattr(mean, name))
            s = np.asarray(getattr(se, name))
            ok = ok and np.all(np.abs(g - mu) <= 3.0 * s + 1e-3)
    t = random_representation(rng, 3).T
    b = rng.normal(size=(3, 3))
    conv = _van_loan(t, b, np.asarray([0.9]))[1][0]
    ref = simpson_conv(t, b, 0.9)
    conv_err = np.max(np.abs(conv - ref))
    report(ok and conv_err < 1e-8,
           f"criterion 4: E-step within 3 standard errors of 2e6-path "
           f"conditioned simulation and convolution block matches "
           f"quadrature ({conv_err:.2e} < 1e-8)")


def test_criterion_05_transform_identity_ks():
    """Mapping lifetimes through the clock integral recovers the plain
    absorption-time law (KS test at the 1% level, n = 100000)."""
    rep = PHRepresentation(STUDY_PI, STUDY_T1)
    model = IPHModel(rep, make_transform("weibull", STUDY_SHAPE))
    rng = np.random.default_rng(42)
    y = model.sample(100_000, rng)
    z = y ** STUDY_SHAPE

    def cdf(q):
        return 1.0 - ph_products(rep, np.atleast_1d(q))[1]

    pvalue = kstest(z, cdf).pvalue
    report(pvalue > 0.01,
           f"criterion 5: transformed sample passes KS against the "
           f"absorption-time law (p = {pvalue:.3f} > 0.01)")


def test_criterion_06_study_diagnostics_separate_models():
    """Across five replications of the two-group study, the matrix model's
    residuals look unit-exponential while the scalar model's do not, in at
    least four of five."""
    config = PIFitConfig(max_outer=400, tol=1e-8, patience=8, nm_budget=400)
    successes = 0
    lines = []
    for seed in range(1, 6):
        rep = run_study(seed, config=config)
        mat = rep.diagnostics["matrix"]
        sca = rep.diagnostics["scalar"]
        matrix_ok = mat["coverage"] >= 0.95 and 0.9 <= mat["slope"] <= 1.1
        scalar_bad = sca["coverage"] < 0.95 or not (0.9 <= sca["slope"] <= 1.1)
        successes += int(matrix_ok and scalar_bad)
        lines.append(f"seed {seed}: matrix cov {mat['coverage']:.3f} slope "
                     f"{mat['slope']:.3f} | scalar cov {sca['coverage']:.3f} "
                     f"slope {sca['slope']:.3f}")
    for line in lines:
        print(line)
    report(successes >= 4,
           f"criterion 6: matrix model passes residual checks while scalar "
           f"fails in {successes}/5 replications (need >= 4)")


def _veterans_sample() -> RegressionSample:
    with open(DATA / "veteran.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    y = np.array([float(r["time"]) for r in rows]) / 100.0
    delta = np.array([int(r["status"]) for r in rows])
    x = np.column_stack([
        np.array([float(r["trt"]) for r in rows]) - 1.0,
        np.array([float(r["karno"]) for r in rows]) / 100.0,
        np.array([float(r["prior"]) for r in rows]) / 10.0,
    ])
    return RegressionSample(y, delta, x, np.ones(y.size))


def test_criterion_07_veterans_benchmark():
    """On the veterans data the two-state chain beats the scalar
    proportional-intensity model and both log-likelihoods land on the
    benchmark values; information criteria reproduce the published table."""
    sample = _veterans_sample()
    config = PIFitConfig(max_outer=300, tol=1e-8, patience=5, nm_budget=400)
    lls = {}
    for p in (1, 2):
        res = fit_pi(sample, StructureSpec("coxian", p), family="weibull",
                     config=config, rng=np.random.default_rng(0))
        lls[p] = res.loglik
    ok = lls[2] > lls[1]
    ok = ok and abs(lls[1] - (-136.21)) <= 1.0
    ok = ok and abs(lls[2] - (-127.74)) <= 1.0
    ic1 = information_criteria(-136.21, 5, 137)
    ic2 = information_criteria(-127.74, 7, 137)
    ok = ok and (round(ic1.aic, 2), round(ic1.bic, 2)) == (282.42, 297.02)
    ok = ok and (round(ic2.aic, 2), round(ic2.bic, 2)) == (269.48, 289.92)
    ours1 = information_criteria(lls[1], 5, 137)
    ours2 = information_criteria(lls[2], 7, 137)
    ok = ok and abs(ours1.aic - 282.42) <= 2.0 and abs(ours2.aic - 269.48) <= 2.0
    report(ok,
           f"criterion 7: veterans log-likelihoods {lls[1]:.2f}/{lls[2]:.2f} "
           f"within 1.0 of -136.21/-127.74, matrix beats scalar, and "
           f"information criteria reproduce 282.42/297.02 and 269.48/289.92")


def test_criterion_08_mortality_direct_fit():
    """Direct log-mortality fitting recovers a representable curve to
    numerical zero, and on the life-table fixture it trades likelihood for
    curve fit relative to the likelihood-based start."""
    true = IPHModel(PHRepresentation([0.7, 0.3], [[-3.0, 1.5], [0.0, -5.0]]),
                    make_transform("gompertz", 6.0))
    ages = np.arange(0, 101, 2)
    curve = MortalityCurve(ages, model_log_mortality(true, ages))
    start = IPHModel(PHRepresentation([0.6, 0.4], [[-3.6, 1.1], [0.0, -4.2]]),
                     make_transform("gompertz", 5.0))
    rec = direct_fit(start, curve, DirectFitConfig(max_evals=4000, restarts=3))

    mx = load_table(DATA / "synthetic_Mx_1x1.txt")
    fix_curve = curve_from_table(mx, 2000, 2005)
    samp = implied_sample(mx, 2000, 2005)
    em = fit_pi(samp.as_regression_sample(),
                StructureSpec("generalized_coxian", 2), family="gompertz",
                rng=np.random.default_rng(7),
                config=PIFitConfig(max_outer=800, tol=1e-10, patience=5,
                                   nm_budget=250))
    theta = float(em.model.shape_param(np.zeros((1, 0)))[0])
    init = IPHModel(em.model.rep, make_transform("gompertz", theta))
    fit = direct_fit(init, fix_curve,
                     DirectFitConfig(max_evals=1500, restarts=1))
    ll_em = init.loglik(samp.y, weight=samp.weight)
    ll_direct = fit.model.loglik(samp.y, weight=samp.weight)
    ok = (rec.loss < 1e-6 and fit.loss < fit.loss_trace[0]
          and ll_em > ll_direct)
    report(ok,
           f"criterion 8: representable curve recovered to {rec.loss:.1e} "
           f"< 1e-6; on the fixture the direct fit lowers curve loss "
           f"({fit.loss_trace[0]:.3f} -> {fit.loss:.3f}) while the "
           f"likelihood start keeps the higher log-likelihood "
           f"({ll_em:.5f} > {ll_direct:.5f})")


def test_criterion_09_ordered_chain_closed_form():
    """The partial-fraction density of ordered chains matches the matrix
    route on twenty random specifications."""
    rng = np.random.default_rng(909)
    x = np.linspace(0.0, 5.0, 41)
    worst = 0.0
    for i in range(20):
        p = int(rng.integers(1, 5))
        rates = rng.uniform(0.2, 1.0, p) + np.arange(p)  # pairwise distinct
        cont = rng.uniform(0.1, 0.9, max(p - 1, 0))
        if i % 2 == 0 or p == 1:
            spec = CoxianSpec(rates, cont)
        else:
            spec = CoxianSpec(rates, cont, pi=rng.dirichlet(np.ones(p)),
                              generalized=True)
        closed = coxian_density(spec, x)
        matrix = IPHModel(spec.to_representation()).evaluate(x).density
        worst = max(worst, float(np.max(np.abs(closed - matrix))))
    report(worst < 1e-9,
           f"criterion 9: closed-form chain density matches the matrix "
           f"route, max abs err {worst:.2e} < 1e-9")


def test_criterion_10_hazard_asymptote():
    """Far in the tail the hazard divided by the clock intensity settles on
    the dominant-eigenvalue constant for any parametric clock."""
    rng = np.random.default_rng(66)
    worst = 0.0
    for i in range(10):
        p = int(rng.integers(2, 5))
        rep = random_representation(rng, p)
        if i % 2 == 0:
            transform = make_transform("gompertz", rng.uniform(2.0, 8.0))
        else:
            transform = make_transform("weibull", rng.uniform(1.2, 2.5))
        model = IPHModel(rep, transform)
        eta = tail_hazard_constant(rep)
        z = np.linspace(200.0, 500.0, 7) / eta
        t = np.asarray(transform.inverse_cumulative(z), dtype=float)
        ev = model.evaluate(t)
        ratio = ev.hazard / transform.intensity(t)
        worst = max(worst, float(np.max(np.abs(ratio - eta) / eta)))
    report(worst < 1e-3,
           f"criterion 10: hazard over clock intensity settles on the tail "
           f"constant, max rel deviation {worst:.2e} < 1e-3")
