"""Smoke tests: the Python demos run to completion in process.

Demo 01 is the only code outside the tests that calls ``mean()``,
``green_matrix()`` and ``residual_lifetime()``, and demo 05 aggregates a
life table.  Demo 04 repeats acceptance criterion 06 (the residual study),
and demo 06 is a shell script that needs the installed console script, so
both stay out.
"""

import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_lifetime_models.py", "02_em_fitting.py",
                                  "03_regression_veterans.py",
                                  "05_mortality_curves.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
