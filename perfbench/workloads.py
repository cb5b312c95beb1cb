"""The four workloads: their inputs, their ops and the checks on each op.

An op is one workflow invocation through ``matlife.cli.main(argv)``.  Inputs
are drawn by the benchmark's own samplers from the workload seed, so they do
not move when the package's samplers change; the package receives only the
generated files and argv.  Ops cycle through ``cycle`` start seeds, and every
op of a given start must reproduce the same objective bit for bit.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: 3-state generator of the ``em_fit`` sample and its censoring mean (about
#: 30% of rows censored)
EM_GEN_PI = (0.5, 0.3, 0.2)
EM_GEN_T = ((-1.0, 0.6, 0.2), (0.1, -0.5, 0.3), (0.0, 0.05, -0.2))
EM_CENSOR_MEAN = 16.0

#: the paper's two-group study design: shared start vector, group-one
#: sub-intensity with a power clock, doubled homogeneous group two
STUDY_PI = (0.25, 0.5, 0.25)
STUDY_T1 = ((-10.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -0.1))
STUDY_SHAPE = 1.5
STUDY_CENSOR_MEAN = 10.0

#: fixed dense regression model scored by ``score``: the study design with
#: weak transitions between the phases, so the sub-intensity is not triangular
SCORE_MODEL = {
    "kind": "regression",
    "pi": list(STUDY_PI),
    "T": [[-10.0, 0.4, 0.1], [0.05, -1.0, 0.05], [0.002, 0.003, -0.1]],
    "family": "weibull",
    "beta": [math.log(2.0)],
    "gamma": [math.log(STUDY_SHAPE), -math.log(STUDY_SHAPE)],
    "link": "exp",
    "standardization": None,
}

MORTALITY_TABLE = Path("tests/data/synthetic_Mx_1x1.txt")

#: points per op compared against the Taylor oracle
ORACLE_POINTS = 10
#: relative tolerance of every cross-check between two full-precision values
RTOL = 1e-9


@dataclass
class OpOutput:
    """What one op left behind: exit codes, captured text, its output files."""

    codes: list = field(default_factory=list)
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    out_dir: Path | None = None


def stratified_uniforms(rng, n: int) -> np.ndarray:
    """One uniform in each of ``n`` equal strata of (0, 1), in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def absorption_times(rng, pi, t, n: int) -> np.ndarray:
    """Absorption times of the chain ``(pi, t)`` by inverse transform.

    The uniforms are stratified, so samples drawn with different seeds
    share their empirical distribution closely and per-row summaries such
    as the log-likelihood vary little from seed to seed.  The survival
    function is tabulated from the eigendecomposition of ``t`` (the
    generators here are diagonalizable and well conditioned) out to where it
    falls below ``exp(-40)``.
    """
    pi, t = np.asarray(pi, dtype=float), np.asarray(t, dtype=float)
    lam, vec = np.linalg.eig(t)
    left, right = pi @ vec, np.linalg.solve(vec, np.ones(pi.size))
    slow, fast = -lam.real.max(), -lam.real.min()
    grid = np.concatenate([[0.0], np.geomspace(1e-4 / fast, 40.0 / slow, 20000)])
    surv = (np.exp(np.multiply.outer(grid, lam)) * left) @ right
    cum_hazard = -np.log(np.maximum.accumulate(surv.real[::-1])[::-1])
    return np.interp(-np.log(stratified_uniforms(rng, n)), cum_hazard, grid)


def censoring_times(rng, mean: float, n: int) -> np.ndarray:
    """Exponential censoring times from stratified uniforms."""
    return -mean * np.log(stratified_uniforms(rng, n))


def write_csv(path, header, columns) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])


def read_columns(path, *columns) -> list:
    """Numeric columns, by header name or position, of a CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return [np.array([float(r[header.index(c) if isinstance(c, str) else c])
                      for r in rows]) for c in columns]


def read_trace(path) -> np.ndarray:
    """The value column of a ``trace.csv``."""
    return read_columns(path, 1)[0]


def printed(text: str, key: str) -> float:
    """The last ``key=value`` number the CLI printed."""
    found = re.findall(rf"\b{re.escape(key)}=(\S+)", text)
    if not found:
        raise ValueError(f"no {key}= in the output")
    return float(found[-1])


def close(a, b, rtol=RTOL, atol=0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def monotone(values, increasing: bool) -> bool:
    """Non-decreasing (or non-increasing) up to relative rounding noise."""
    step = np.diff(values) if increasing else -np.diff(values)
    return bool(np.all(step >= -RTOL * np.abs(values[1:])))


class Workload:
    """Base: subclasses set the names below and define the hooks."""

    name = ""
    why = ""
    cycle = 16
    #: start seeds drawn from the workload seed, or the fixed ``0..cycle-1``
    seeded_starts = True
    size = ""

    def __init__(self, root: Path, work: Path, seed: int, oracle):
        self.root, self.work = root, work
        self.oracle = oracle
        seq = np.random.SeedSequence([seed, sum(map(ord, self.name))])
        data_seq, start_seq, pick_seq = seq.spawn(3)
        self.data_rng = lambda: np.random.default_rng(data_seq)
        self.starts = ([int(s) for s in start_seq.generate_state(self.cycle)]
                       if self.seeded_starts else list(range(self.cycle)))
        self.pick_rng = np.random.default_rng(pick_seq)
        self.out_dir = work / "op"

    # -- hooks ------------------------------------------------------------
    def prepare(self) -> None:
        """Write the inputs under ``self.work``."""

    def argvs(self, k: int) -> list:
        """The CLI calls that make up op ``k`` of the cycle."""
        raise NotImplementedError

    def check(self, out: OpOutput, products) -> tuple[float, list]:
        """Objective of a finished op and the list of failed checks."""
        raise NotImplementedError

    def corruptions(self) -> list:
        """``(label, edit)`` pairs; each edit damages a copied :class:`OpOutput`."""
        return []

    def full_size(self) -> Workload | None:
        """This workload at its full input size, for one untimed op, or None."""
        return None

    # -- shared checks -------------------------------------------------------
    def oracle_failures(self, pi, t, z, products) -> list:
        """``products`` against the Taylor-series exponential at ``z``."""
        pi, t = np.asarray(pi, dtype=float), np.asarray(t, dtype=float)
        exit_rates = -t.sum(axis=1)
        dens, surv = products(pi, t, np.asarray(z, dtype=float))
        bad = []
        for i, zi in enumerate(z):
            front = pi @ self.oracle(t * zi)
            want_d, want_s = front @ exit_rates, front.sum()
            if not (close(dens[i], want_d, 1e-8, 1e-13)
                    and close(surv[i], want_s, 1e-8, 1e-13)):
                bad.append(f"ph_products disagrees with the Taylor oracle at z={zi:.6g}")
        return bad

    def pick(self, n: int) -> np.ndarray:
        """Fixed subsample of ``ORACLE_POINTS`` row indices, drawn once."""
        if not hasattr(self, "_picked"):
            self._picked = np.sort(self.pick_rng.choice(n, ORACLE_POINTS,
                                                        replace=False))
        return self._picked

    @staticmethod
    def model_json(out_dir: Path) -> dict:
        with open(out_dir / "model.json", "r", encoding="utf-8") as fh:
            return json.load(fh)


def _edit_last(path: Path, factor: float) -> None:
    """Scale the value in the last row of a two-column trace file."""
    rows = path.read_text().splitlines()
    i, v = rows[-1].split(",")
    rows[-1] = f"{i},{float(v) * factor!r}"
    path.write_text("\n".join(rows) + "\n")


def _reverse_trace(path: Path) -> None:
    rows = path.read_text().splitlines()
    values = [r.split(",")[1] for r in rows[1:]][::-1]
    body = [f"{k},{v}" for k, v in enumerate(values, start=1)]
    path.write_text("\n".join([rows[0], *body]) + "\n")


class EMFit(Workload):
    name = "em_fit"
    why = ("EM on a censored sample: time is in em.e_step and em.loglik "
           "through linalg.mexp on 10x10 Van Loan blocks, no optimizer runs")
    n = 2000
    order = 5
    iterations = 3
    size = f"{n} rows, 3-state generator, ~30% censored; order {order}, {iterations} EM iterations"

    def prepare(self):
        rng = self.data_rng()
        life = absorption_times(rng, EM_GEN_PI, EM_GEN_T, self.n)
        cens = censoring_times(rng, EM_CENSOR_MEAN, self.n)
        self.y = np.minimum(life, cens)
        self.delta = (life <= cens).astype(int)
        write_csv(self.work / "sample.csv", ["time", "status"],
                  [self.y.tolist(), self.delta.tolist()])

    def argvs(self, k):
        return [["fit-ph", str(self.work / "sample.csv"), "--structure", "general",
                 "--order", str(self.order), "--max-iter", str(self.iterations),
                 "--tol", "0", "--seed", str(self.starts[k]),
                 "--out-dir", str(self.out_dir)]]

    def check(self, out, products):
        fails = []
        trace = read_trace(out.out_dir / "trace.csv")
        if not monotone(trace, increasing=True):
            fails.append("fit-ph log-likelihood trace decreases")
        objective = -trace[-1] / self.n
        from matlife.io import load_model

        model = load_model(out.out_dir / "model.json")
        recomputed = model.loglik(self.y, self.delta)
        if not close(recomputed, trace[-1]):
            fails.append(f"reported loglik {trace[-1]!r} but the model gives {recomputed!r}")
        spec = self.model_json(out.out_dir)
        fails += self.oracle_failures(spec["pi"], spec["T"],
                                      self.y[self.pick(self.n)], products)
        return objective, fails

    def corruptions(self):
        return [("perturbed objective", lambda o: _edit_last(o.out_dir / "trace.csv", 1 + 1e-6)),
                ("decreasing trace", lambda o: _reverse_trace(o.out_dir / "trace.csv"))]


class PIStudy(Workload):
    name = "pi_study"
    why = ("the only workload where regression dominates: Nelder-Mead "
           "coefficient steps, e_step and pi_loglik on the two-group study")
    # a few starts cost a fifth more than the rest, so with seeded starts
    # op_s_tail moved with how many of them a seed drew; as in mortality_fit,
    # every seed runs the same starts
    seeded_starts = False
    n_per_group = 500
    outer = 4
    nm_budget = 200
    size = (f"{2 * n_per_group} rows, two-group study design; order 3 general, "
            f"weibull, shape covariates, {outer} outer steps, then diagnose")

    def prepare(self):
        rng = self.data_rng()
        t1 = np.asarray(STUDY_T1)
        y, delta, group = [], [], []
        for g, (t, shape) in enumerate(((t1, STUDY_SHAPE), (2.0 * t1, 1.0))):
            z = absorption_times(rng, STUDY_PI, t, self.n_per_group)
            life = z ** (1.0 / shape)
            cens = censoring_times(rng, STUDY_CENSOR_MEAN, self.n_per_group)
            y += np.minimum(life, cens).tolist()
            delta += (life <= cens).astype(int).tolist()
            group += [float(g)] * self.n_per_group
        self.y, self.delta, self.x = np.array(y), np.array(delta), np.array(group)
        write_csv(self.work / "study.csv", ["time", "status", "group"], [y, delta, group])

    def argvs(self, k):
        data, out = str(self.work / "study.csv"), str(self.out_dir)
        return [["fit-pi", data, "--structure", "general", "--order", "3",
                 "--family", "weibull", "--shape-covariates",
                 "--max-outer", str(self.outer), "--tol", "0",
                 "--nm-budget", str(self.nm_budget),
                 "--seed", str(self.starts[k]), "--out-dir", out],
                ["diagnose", data, "--model", str(self.out_dir / "model.json"),
                 "--out-dir", out]]

    def check(self, out, products):
        fails = []
        trace = read_trace(out.out_dir / "trace.csv")
        if not monotone(trace, increasing=True):
            fails.append("fit-pi log-likelihood trace decreases")
        objective = -trace[-1] / self.y.size
        diagnosed = printed(out.stdout.split("diagnose:")[1], "loglik")
        if not close(diagnosed, trace[-1], RTOL, 5e-7):
            fails.append(f"fit-pi reported {trace[-1]!r}, diagnose found {diagnosed!r}")
        spec = self.model_json(out.out_dir)
        rows = self.pick(self.y.size)
        z = weibull_z(spec, self.y[rows], self.x[rows])
        fails += self.oracle_failures(spec["pi"], spec["T"], z, products)
        return objective, fails

    def corruptions(self):
        return [("perturbed objective", lambda o: _edit_last(o.out_dir / "trace.csv", 1 + 1e-6)),
                ("decreasing trace", lambda o: _reverse_trace(o.out_dir / "trace.csv"))]


def weibull_z(spec: dict, y, x):
    """Operational times of a weibull regression model saved as JSON."""
    beta, gamma = np.asarray(spec["beta"]), np.asarray(spec["gamma"])
    theta = np.exp(gamma[0] + x * gamma[1]) if gamma.size > 1 else np.exp(gamma[0])
    return np.exp(x * beta[0]) * y ** theta


class MortalityFit(Workload):
    name = "mortality_fit"
    why = ("many small direct_fit loss evaluations at 111 ages plus the table "
           "parser and IPHModel.evaluate: small input, many calls")
    # the input is a fixed table and a short fit's time and loss swing with
    # its random start by more than any bound could absorb, so every seed
    # runs the same fixed starts
    cycle = 16
    seeded_starts = False
    em_iters = 6
    nm_budget = 30
    max_evals = 40
    size = (f"synthetic_Mx_1x1 years 2000-2005, 111 ages; p=2 generalized "
            f"Coxian, gompertz; {em_iters} EM-init steps, {max_evals} loss evaluations")

    def prepare(self):
        self.table = self.root / MORTALITY_TABLE
        if not self.table.is_file():
            raise FileNotFoundError(self.table)

    def argvs(self, k):
        return [["fit-mortality", str(self.table), "--year-from", "2000",
                 "--year-to", "2005", "--em-iters", str(self.em_iters),
                 "--em-tol", "0", "--nm-budget", str(self.nm_budget),
                 "--max-evals", str(self.max_evals),
                 "--restarts", "0", "--seed", str(self.starts[k]),
                 "--out-dir", str(self.out_dir)]]

    def check(self, out, products):
        fails = []
        trace = read_trace(out.out_dir / "trace.csv")
        if not monotone(trace, increasing=False) or trace[-1] > trace[0]:
            fails.append("direct_fit loss ends above its start")
        ages, observed, fitted = read_columns(out.out_dir / "curve.csv", "age",
                                              "observed_log_mx", "fitted_log_mx")
        objective = trace[-1] / ages.size
        loss = float(np.sum((fitted - observed) ** 2))
        if not close(loss, trace[-1]):
            fails.append(f"reported loss {trace[-1]!r} but the curve gives {loss!r}")
        spec = self.model_json(out.out_dir)
        beta = spec["params"]["beta"]
        internal = ages[self.pick(ages.size)] / 100.0
        fails += self.oracle_failures(spec["pi"], spec["T"],
                                      np.expm1(beta * internal) / beta, products)
        return objective, fails

    def corruptions(self):
        return [("perturbed objective", lambda o: _edit_last(o.out_dir / "trace.csv", 1 - 1e-6)),
                ("increasing loss", lambda o: _reverse_trace(o.out_dir / "trace.csv"))]


class Score(Workload):
    name = "score"
    why = ("one-shot scoring of a fixed model at many distinct points plus "
           "CSV write and read: io and diagnostics carry weight here")
    n_per_group = 2500
    #: rows per group of the one full-size op, which sets ``peak_rss_mb``
    full_n_per_group = 50000
    cycle = 16

    @property
    def size(self):
        return (f"{2 * self.n_per_group} rows simulated per op, fixed 3-state "
                f"weibull regression model")

    def prepare(self):
        with open(self.work / "model.json", "w", encoding="utf-8") as fh:
            json.dump(SCORE_MODEL, fh, indent=2)

    def argvs(self, k):
        out = str(self.out_dir)
        return [["simulate", "--study", "--n-per-group", str(self.n_per_group),
                 "--seed", str(self.starts[k]), "--out-dir", out],
                ["diagnose", str(self.out_dir / "sample.csv"), "--model",
                 str(self.work / "model.json"), "--out-dir", out]]

    def check(self, out, products):
        fails = []
        text = out.stdout.split("diagnose:")[1]
        n, loglik = printed(text, "n"), printed(text, "loglik")
        objective = -loglik / n
        sample = out.out_dir / "sample.csv"
        y, delta, x = read_columns(sample, "time", "status", "group")
        if n != y.size or n != 2 * self.n_per_group:
            fails.append(f"diagnose scored {n} rows of {y.size}")
        residuals, = read_columns(out.out_dir / "residuals.csv", "residual")
        if residuals.size != y.size:
            fails.append(f"{residuals.size} residuals for {y.size} rows")
        expected = spectral_loglik(SCORE_MODEL, y, delta, x)
        if not close(loglik, expected, RTOL, 5e-7):
            fails.append(f"diagnose reported loglik {loglik!r}, the model gives {expected!r}")
        rows = self.pick(y.size)
        fails += self.oracle_failures(SCORE_MODEL["pi"], SCORE_MODEL["T"],
                                      weibull_z(SCORE_MODEL, y[rows], x[rows]), products)
        return objective, fails

    def corruptions(self):
        def perturb(out):
            out.stdout = re.sub(r"loglik=(\S+)",
                                lambda m: f"loglik={float(m[1]) * (1 + 1e-6)!r}",
                                out.stdout)

        def drop_residual(out):
            path = out.out_dir / "residuals.csv"
            path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")

        return [("perturbed objective", perturb), ("missing residual row", drop_residual)]

    def full_size(self):
        big = copy.copy(self)
        big.n_per_group = self.full_n_per_group
        return big


def spectral_loglik(spec: dict, y, delta, x) -> float:
    """Log-likelihood of a weibull regression model by eigendecomposition.

    An independent route for the fixed, well-conditioned ``SCORE_MODEL``.
    """
    pi, t = np.asarray(spec["pi"]), np.asarray(spec["T"])
    lam, vec = np.linalg.eig(t)
    left = pi @ vec
    inv = np.linalg.inv(vec)
    right_exit, right_one = inv @ (-t.sum(axis=1)), inv.sum(axis=1)
    z = weibull_z(spec, y, x)
    ez = np.exp(np.multiply.outer(z, lam)) * left
    dens, surv = (ez @ right_exit).real, (ez @ right_one).real
    beta, gamma = np.asarray(spec["beta"]), np.asarray(spec["gamma"])
    theta = np.exp(gamma[0] + x * gamma[1])
    log_jac = x * beta[0] + np.log(theta) + (theta - 1.0) * np.log(y)
    obs = delta == 1
    return float(np.sum(np.log(dens[obs]) + log_jac[obs]) + np.sum(np.log(surv[~obs])))


WORKLOADS = {w.name: w for w in (EMFit, PIStudy, MortalityFit, Score)}


def copy_output(out: OpOutput, dest: Path) -> OpOutput:
    """A copy of an op's output files and text, for the self-test to damage."""
    shutil.copytree(out.out_dir, dest)
    return OpOutput(list(out.codes), out.stdout, out.stderr, out.error, dest)
