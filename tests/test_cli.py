import csv
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import matlife
from matlife.cli import _shared_parser, build_parser, main
from matlife.io import load_model, read_survival_csv, save_model
from matlife.phasetype import IPHModel, PHRepresentation
from matlife.inhomogeneity import make_transform
from matlife.regression import PIModel


def run(*argv):
    return main([str(a) for a in argv])


def write_sample_csv(path, n=80, seed=2, rate=1.5):
    rng = np.random.default_rng(seed)
    y = rng.exponential(1.0 / rate, n)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "status"])
        for v in y:
            w.writerow(["%.17g" % v, 1])
    return path


def write_rates_table(path, ages, years, rate_fn):
    lines = ["Death rates (period 1x1), synthetic cli-test table", "",
             "Year  Age  Female  Male  Total"]
    for yr in years:
        for a in ages:
            m = rate_fn(a, yr)
            lines.append(f"{yr}  {a}  {m:.8f}  {m:.8f}  {m:.8f}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestExitCodes:
    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert run("fit-ph", tmp_path / "absent.csv") == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,wrong\n1.0,1\n")
        assert run("fit-ph", bad) == 2

    @pytest.mark.parametrize("status", ["0.7", "inf"])
    def test_status_other_than_zero_or_one(self, tmp_path, capsys, status):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"time,status\n1.0,1\n2.0,{status}\n")
        assert run("fit-ph", bad) == 2
        assert "line 3" in capsys.readouterr().err

    def test_covariates_rejected_by_fit_ph(self, tmp_path):
        p = tmp_path / "cov.csv"
        p.write_text("time,status,x\n1.0,1,0.5\n2.0,1,0.2\n")
        assert run("fit-ph", p) == 2

    def test_unknown_flag_returns_two(self, tmp_path):
        p = write_sample_csv(tmp_path / "s.csv")
        assert run("fit-ph", p, "--no-such-flag") == 2

    def test_bad_config_json(self, tmp_path):
        p = write_sample_csv(tmp_path / "s.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        assert run("fit-ph", p, "--config", cfg) == 2

    def test_deaths_kind_needs_exposures(self, tmp_path):
        t = write_rates_table(tmp_path / "t.txt", range(50, 55), [2000],
                              lambda a, y: 0.01)
        assert run("fit-mortality", t, "--kind", "deaths") == 2

    @pytest.mark.parametrize("command", ["fit-mortality", "lee-carter"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_exposures_need_deaths_kind(self, tmp_path, capsys, command, source):
        # without --kind deaths the table would be read as rates and the
        # exposures ignored
        t = write_rates_table(tmp_path / "t.txt", range(50, 55), [2000, 2001],
                              lambda a, y: 0.01)
        e = write_rates_table(tmp_path / "e.txt", range(50, 55), [2000, 2001],
                              lambda a, y: 1000.0)
        if source == "flag":
            extra = ["--exposures", e]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"exposures": str(e)}))
            extra = ["--config", cfg]
        assert run(command, t, *extra, "--out-dir", tmp_path / "out") == 2
        assert "--exposures requires --kind deaths" in capsys.readouterr().err

    def test_simulate_needs_exactly_one_source(self, tmp_path):
        assert run("simulate", "--out-dir", tmp_path) == 2

    def test_numerical_failure_returns_three(self, tmp_path, capsys):
        # an observation far past survival underflow has zero fitted
        # survival, which the residual computation refuses
        model_path = tmp_path / "model.json"
        save_model(model_path, IPHModel(PHRepresentation([1.0], [[-1.0]])))
        data = tmp_path / "data.csv"
        data.write_text("time,status\n1.0,1\n2000.0,1\n")
        assert run("diagnose", data, "--model", model_path,
                   "--out-dir", tmp_path) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_clock_overflow_returns_three(self, tmp_path, capsys):
        # a Gompertz clock overflows at age 80, so the likelihood is -inf
        # and the residual computation refuses the zero survival
        model_path = tmp_path / "model.json"
        save_model(model_path, PIModel(PHRepresentation([1.0], [[-0.5]]),
                                       "gompertz", beta=[0.0],
                                       gamma=[np.log(10.0)]))
        data = tmp_path / "data.csv"
        data.write_text("time,status,x\n0.1,1,0.5\n80.0,1,1.0\n")
        assert run("diagnose", data, "--model", model_path,
                   "--out-dir", tmp_path) == 3
        out = capsys.readouterr()
        assert "loglik=-inf" in out.out
        assert "numerical failure" in out.err

    def test_clock_overflow_on_complex_spectrum_returns_three(self, tmp_path, capsys):
        # the overflowed clock meets a T with complex eigenvalues; the
        # products are exact zeros there, with no floating-point warning
        t = [[-2.0, 1.5, 0.0], [0.0, -2.0, 1.5], [1.5, 0.0, -2.0]]
        model_path = tmp_path / "model.json"
        save_model(model_path, PIModel(PHRepresentation([1.0, 0.0, 0.0], t),
                                       "gompertz", beta=[0.0],
                                       gamma=[np.log(10.0)]))
        data = tmp_path / "data.csv"
        data.write_text("time,status,x\n0.1,1,0.5\n80.0,1,1.0\n")
        assert run("diagnose", data, "--model", model_path,
                   "--out-dir", tmp_path) == 3
        out = capsys.readouterr()
        assert "loglik=-inf" in out.out
        assert "numerical failure" in out.err

    @pytest.mark.parametrize("argv,code,names", [
        (["fit-pi", "{sample}", "--max-outer", "0"], 2, "--max-outer"),
        (["fit-pi", "{sample}", "--patience", "0"], 2, "--patience"),
        (["fit-pi", "{sample}", "--patience", "-3"], 2, "--patience"),
        (["fit-mortality", "{table}", "--em-iters", "0"], 2, "--em-iters"),
        (["fit-pi", "{sample}", "--nm-budget", "0"], 2, "--nm-budget"),
        (["fit-pi", "{sample}", "--nm-budget", "-5"], 2, "--nm-budget"),
        (["fit-mortality", "{table}", "--nm-budget", "0"], 2, "--nm-budget"),
        (["fit-mortality", "{table}", "--nm-budget", "-5"], 2, "--nm-budget"),
        (["fit-mortality", "{table}", "--max-evals", "0"], 2, "--max-evals"),
        (["fit-mortality", "{table}", "--max-evals", "-5"], 2, "--max-evals"),
        (["fit-mortality", "{table}", "--restarts", "-2"], 2, "--restarts"),
        (["fit-ph", "{sample}", "--max-iter", "-3"], 2, "--max-iter"),
        (["simulate", "--model", "{model}", "--censor-mean", "-1"], 2,
         "--censor-mean"),
        (["simulate", "--model", "{model}", "--censor-mean", "0"], 2,
         "--censor-mean"),
        (["simulate", "--study", "--n-per-group", "3"], 3, "censoring fraction"),
    ], ids=["max-outer", "zero-patience", "negative-patience", "em-iters",
            "fit-pi-zero-nm-budget",
            "fit-pi-negative-nm-budget", "fit-mortality-zero-nm-budget",
            "fit-mortality-negative-nm-budget", "zero-max-evals",
            "negative-max-evals", "negative-restarts", "negative-max-iter",
            "negative-censor-mean",
            "zero-censor-mean", "tiny-study"])
    def test_rejected_settings_print_one_line(self, tmp_path, argv, code, names):
        # in a child process, so an uncaught exception would show as a
        # traceback and exit code 1
        model_path = tmp_path / "model.json"
        save_model(model_path, IPHModel(PHRepresentation([1.0], [[-2.0]])))
        files = {"sample": write_sample_csv(tmp_path / "s.csv"),
                 "table": write_rates_table(tmp_path / "t.txt", range(50, 55),
                                            [2000], lambda a, y: 0.01),
                 "model": model_path}
        src = str(pathlib.Path(matlife.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "matlife", *(a.format(**files) for a in argv),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: " if code == 2 else "numerical failure: ")
        assert names in lines[0]

    @pytest.mark.parametrize("command,key,value,flag", [
        ("fit-mortality", "max_evals", 0, "--max-evals"),
        ("fit-mortality", "restarts", -1, "--restarts"),
        ("fit-ph", "max_iter", -1, "--max-iter"),
    ])
    def test_rejected_budget_from_config_names_the_flag(
            self, tmp_path, capsys, command, key, value, flag):
        data = (write_rates_table(tmp_path / "t.txt", range(50, 55), [2000],
                                  lambda a, y: 0.01)
                if command == "fit-mortality" else write_sample_csv(tmp_path / "s.csv"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert run(command, data, "--config", cfg, "--out-dir", tmp_path) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and flag in err[0]

    @pytest.mark.parametrize("argv", [["fit-mortality", "--restarts", "0"],
                                      ["fit-ph", "--max-iter", "0"]])
    def test_zero_budgets_stay_valid(self, tmp_path, argv):
        data = (write_rates_table(tmp_path / "t.txt", range(50, 60), [2000],
                                  lambda a, y: 0.01 * np.exp(0.08 * (a - 50)))
                if argv[0] == "fit-mortality" else write_sample_csv(tmp_path / "s.csv"))
        if argv[0] == "fit-mortality":
            argv = [*argv, "--em-iters", "3", "--max-evals", "5"]
        assert run(argv[0], data, *argv[1:], "--out-dir", tmp_path) == 0

    def test_survival_of_one_diagnoses(self, tmp_path, capsys):
        # the fitted survival at 1e-20 rounds to one, so its residual is zero
        data = tmp_path / "d.csv"
        data.write_text("time,status\n1e-20,1\n0.5,1\n1.0,0\n2.0,1\n")
        assert run("fit-ph", data, "--order", 1, "--out-dir", tmp_path) == 0
        assert run("diagnose", data, "--model", tmp_path / "model.json",
                   "--out-dir", tmp_path) == 0
        assert "error" not in capsys.readouterr().err
        rows = (tmp_path / "residuals.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "0"

    def test_covariate_count_mismatch(self, tmp_path):
        model_path = tmp_path / "model.json"
        save_model(model_path, PIModel(PHRepresentation([1.0], [[-1.0]]),
                                       "weibull", beta=[0.1, 0.2], gamma=[0.0]))
        data = tmp_path / "data.csv"
        data.write_text("time,status,x\n1.0,1,0.5\n")
        assert run("diagnose", data, "--model", model_path,
                   "--out-dir", tmp_path) == 2


class TestFitPh:
    def test_fit_and_outputs(self, tmp_path, capsys):
        p = write_sample_csv(tmp_path / "s.csv", n=120, rate=2.0)
        out = tmp_path / "out"
        assert run("fit-ph", p, "--order", 1, "--tol", "1e-10",
                   "--seed", 4, "--out-dir", out) == 0
        lines = capsys.readouterr().out
        assert "fit-ph:" in lines and "loglik=" in lines
        model = load_model(out / "model.json")
        # exponential data: the single rate estimates 1/mean
        y = read_survival_csv(p).sample.y
        np.testing.assert_allclose(-model.rep.T[0, 0], 1.0 / y.mean(),
                                   rtol=1e-6)
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "loglik"]
        values = np.array([float(r[1]) for r in rows[1:]])
        assert np.all(np.diff(values) >= -1e-9 * np.abs(values[0]))

    def test_rerun_is_byte_identical(self, tmp_path):
        p = write_sample_csv(tmp_path / "s.csv")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("fit-ph", p, "--order", 2, "--max-iter", 40,
                       "--seed", 9, "--out-dir", out) == 0
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()
        assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


class TestFitPi:
    def test_fit_with_covariates(self, tmp_path, capsys):
        out = tmp_path / "study"
        assert run("simulate", "--study", "--seed", 11, "--n-per-group", 250,
                   "--out-dir", out) == 0
        fit_out = tmp_path / "fit"
        assert run("fit-pi", out / "sample.csv", "--order", 1,
                   "--structure", "coxian", "--family", "weibull",
                   "--max-outer", 25, "--seed", 3, "--out-dir", fit_out) == 0
        assert "fit-pi:" in capsys.readouterr().out
        model = load_model(fit_out / "model.json")
        assert isinstance(model, PIModel)
        assert model.beta.size == 1

    def test_config_supplies_defaults(self, tmp_path):
        out = tmp_path / "study"
        assert run("simulate", "--study", "--seed", 11, "--n-per-group", 250,
                   "--out-dir", out) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 1, "structure": "coxian",
                                   "family": "weibull", "max_outer": 25,
                                   "seed": 3}))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("fit-pi", out / "sample.csv", "--config", cfg,
                   "--out-dir", a) == 0
        assert run("fit-pi", out / "sample.csv", "--order", 1,
                   "--structure", "coxian", "--family", "weibull",
                   "--max-outer", 25, "--seed", 3, "--out-dir", b) == 0
        assert (a / "model.json").read_bytes() == (b / "model.json").read_bytes()

    def test_flag_beats_config(self, tmp_path):
        out = tmp_path / "study"
        assert run("simulate", "--study", "--seed", 11, "--n-per-group", 250,
                   "--out-dir", out) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 3}))
        fit_out = tmp_path / "fit"
        assert run("fit-pi", out / "sample.csv", "--config", cfg, "--order", 1,
                   "--structure", "coxian", "--family", "weibull",
                   "--max-outer", 10, "--seed", 3, "--out-dir", fit_out) == 0
        model = load_model(fit_out / "model.json")
        assert model.rep.p == 1


class TestSimulate:
    def test_study_writes_balanced_groups(self, tmp_path):
        out = tmp_path / "study"
        assert run("simulate", "--study", "--seed", 11, "--out-dir", out) == 0
        data = read_survival_csv(out / "sample.csv")
        assert data.covariate_names == ["group"]
        assert data.sample.n == 1000
        assert int(data.sample.x[:, 0].sum()) == 500

    def test_model_sampling_with_censoring(self, tmp_path):
        model_path = tmp_path / "model.json"
        save_model(model_path,
                   IPHModel(PHRepresentation([1.0], [[-2.0]]),
                            make_transform("weibull", 1.5)))
        out = tmp_path / "sim"
        assert run("simulate", "--model", model_path, "--n", 200,
                   "--censor-mean", 0.5, "--seed", 7, "--out-dir", out) == 0
        data = read_survival_csv(out / "sample.csv")
        assert data.sample.n == 200
        assert 0 < data.sample.delta.mean() < 1

    def test_regression_model_refused(self, tmp_path):
        model_path = tmp_path / "model.json"
        save_model(model_path, PIModel(PHRepresentation([1.0], [[-1.0]]),
                                       "weibull", beta=[0.1], gamma=[0.0]))
        assert run("simulate", "--model", model_path, "--n", 10,
                   "--out-dir", tmp_path) == 2


class TestDiagnose:
    def test_outputs_and_summary(self, tmp_path, capsys):
        model = IPHModel(PHRepresentation([1.0], [[-2.0]]))
        model_path = tmp_path / "model.json"
        save_model(model_path, model)
        sim = tmp_path / "sim"
        assert run("simulate", "--model", model_path, "--n", 300,
                   "--seed", 5, "--out-dir", sim) == 0
        out = tmp_path / "diag"
        assert run("diagnose", sim / "sample.csv", "--model", model_path,
                   "--out-dir", out) == 0
        text = capsys.readouterr().out
        assert "aic=" in text and "residual_slope=" in text
        for name in ("residuals.csv", "data_km.csv", "residual_na.csv"):
            assert (out / name).exists()
        with open(out / "residual_na.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time", "estimate", "lower", "upper"]
        # the true model's residual slope sits near one
        slope = float(text.split("residual_slope=")[1].split()[0])
        assert 0.85 < slope < 1.15


class TestFitMortality:
    def test_representable_curve_fits_tightly(self, tmp_path, capsys):
        # per-year rates 1e-4 exp(0.09 a) equal a one-state model with
        # per-century intensity exp(9 t) and rate 0.01
        t = write_rates_table(tmp_path / "t.txt", range(30, 91), [2000],
                              lambda a, y: 1e-4 * np.exp(0.09 * a))
        out = tmp_path / "out"
        assert run("fit-mortality", t, "--order", 1, "--family", "gompertz",
                   "--em-iters", 15, "--max-evals", 600, "--restarts", 1,
                   "--seed", 1, "--out-dir", out) == 0
        text = capsys.readouterr().out
        loss = float(text.split(" loss=")[1].split()[0])
        assert loss < 1e-8
        with open(out / "curve.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["age", "observed_log_mx", "fitted_log_mx", "model_id"]
        assert rows[1][3] == "p1-gompertz"
        assert len(rows) == 62
        model = load_model(out / "model.json")
        np.testing.assert_allclose(model.transform.params["beta"], 9.0, rtol=1e-3)


class TestLeeCarter:
    def test_exports(self, tmp_path):
        years = range(1990, 1996)
        t = write_rates_table(
            tmp_path / "t.txt", range(60, 70), years,
            lambda a, y: 1e-4 * np.exp(0.09 * a - 0.01 * (y - 1990)))
        out = tmp_path / "lc"
        assert run("lee-carter", t, "--out-dir", out) == 0
        with open(out / "age_profile.csv", newline="") as fh:
            prows = list(csv.reader(fh))
        with open(out / "period_index.csv", newline="") as fh:
            irows = list(csv.reader(fh))
        assert len(prows) == 11 and len(irows) == 7
        loadings = np.array([float(r[2]) for r in prows[1:]])
        index = np.array([float(r[1]) for r in irows[1:]])
        assert abs(loadings.sum() - 1.0) < 1e-12
        assert abs(index.sum()) < 1e-9
        # rates fall over time, so the index declines
        assert index[0] > index[-1]


class TestSharedParser:
    """``main`` parses with one parser built per process."""

    def test_parser_is_built_once(self):
        assert _shared_parser() is _shared_parser()

    def test_namespaces_do_not_carry_over(self, tmp_path):
        parser = _shared_parser()
        a = parser.parse_args(["fit-pi", "d.csv", "--order", "3", "--family",
                               "weibull", "--config", "a.json"])
        b = parser.parse_args(["fit-ph", "d.csv"])
        assert a is not b
        assert (b.order, b.config, b.max_iter) == (None, None, None)
        assert not hasattr(b, "family")
        assert vars(a) == vars(build_parser().parse_args(
            ["fit-pi", "d.csv", "--order", "3", "--family", "weibull",
             "--config", "a.json"]))

    def test_config_options_do_not_leak(self, tmp_path):
        data = write_sample_csv(tmp_path / "s.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"order": 3, "structure": "coxian",
                                   "max_iter": 4, "seed": 7}))
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        first, second, alone = (tmp_path / name for name in ("a", "b", "c"))
        assert run("fit-ph", data, "--config", cfg, "--out-dir", first) == 0
        assert run("fit-ph", data, "--config", empty, "--max-iter", 5,
                   "--out-dir", second) == 0
        assert load_model(first / "model.json").rep.p == 3
        assert load_model(second / "model.json").rep.p == 2
        # the second run matches the same run in a fresh process
        src = str(pathlib.Path(matlife.__file__).parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "matlife", "fit-ph", str(data), "--config",
             str(empty), "--max-iter", "5", "--out-dir", str(alone)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0
        for name in ("model.json", "trace.csv"):
            assert (second / name).read_bytes() == (alone / name).read_bytes()

    def test_exit_codes_and_help_in_sequence(self, tmp_path, capsys):
        data = write_sample_csv(tmp_path / "s.csv")
        assert run("fit-ph", data, "--no-such-flag") == 2
        assert run("fit-ph", data, "--max-iter", 3, "--out-dir", tmp_path) == 0
        model_path = tmp_path / "model.json"
        save_model(model_path, IPHModel(PHRepresentation([1.0], [[-1.0]])))
        far = tmp_path / "far.csv"
        far.write_text("time,status\n1.0,1\n2000.0,1\n")
        assert run("diagnose", far, "--model", model_path,
                   "--out-dir", tmp_path) == 3
        capsys.readouterr()
        for _ in range(2):
            assert run("--help") == 0
            assert capsys.readouterr().out == build_parser().format_help()


def test_console_script_is_wired():
    src = str(pathlib.Path(matlife.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "matlife.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "fit-mortality" in proc.stdout


def test_package_runs_as_module():
    # the child finds the package where this process imported it from
    src = str(pathlib.Path(matlife.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "matlife", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "fit-mortality" in proc.stdout


_COLD_START_CHILD = """
import sys
import matlife.cli as cli
out, data = sys.argv[1], sys.argv[2]
codes = [
    cli.main(["simulate", "--study", "--seed", "11", "--n-per-group", "60",
              "--out-dir", out + "/study"]),
    cli.main(["fit-ph", data, "--order", "2", "--max-iter", "5",
              "--out-dir", out + "/fit"]),
    cli.main(["diagnose", data, "--model", out + "/fit/model.json",
              "--out-dir", out + "/diag"]),
]
loaded = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
print(codes, loaded)
"""


def test_cli_workflow_leaves_stats_and_optimize_unloaded(tmp_path):
    # only fit-mortality needs scipy.optimize, and nothing needs scipy.stats
    data = write_sample_csv(tmp_path / "s.csv")
    src = str(pathlib.Path(matlife.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_START_CHILD, str(tmp_path), str(data)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"
