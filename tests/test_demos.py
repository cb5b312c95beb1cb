"""Smoke tests: the Python demos run to completion in process, and the
shell workflow of demo 06 in a child shell.

Demo 01 is the only code outside the tests that calls ``mean()``,
``green_matrix()`` and ``residual_lifetime()``, demo 05 aggregates a life
table, and demo 06 runs every subcommand, ``lee-carter --kind deaths``
included.  Demo 04 repeats acceptance criterion 06 (the residual study), so
it stays out.
"""

import os
import pathlib
import runpy
import subprocess
import sys

import pytest

import matlife

DEMOS = pathlib.Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_lifetime_models.py", "02_em_fitting.py",
                                  "03_regression_veterans.py",
                                  "05_mortality_curves.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_cli_workflow_runs(tmp_path):
    # the demo calls the ``matlife`` console script; a shim on PATH runs the
    # package under test with this interpreter instead
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "matlife"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m matlife "$@"\n')
    shim.chmod(0o755)
    env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
           "TMPDIR": str(tmp_path),
           "PYTHONPATH": str(pathlib.Path(matlife.__file__).parents[1])}
    proc = subprocess.run(["sh", str(DEMOS / "06_cli_workflow.sh")],
                          cwd=DEMOS.parent, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "lee-carter: ages=111 years=16 skipped_ages=0" in proc.stdout
