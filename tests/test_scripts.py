"""Smoke runs of the experiment scripts in ``scripts/``, as subprocesses."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import lvecdlp

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    src = str(Path(lvecdlp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args], env=env, capture_output=True, text=True
    )


def test_success_sweep_runs():
    # A recovered m that differs from the planted one would end the run with a traceback.
    done = run_script("success_sweep.py", "--trials", "20")
    assert done.returncode == 0, done.stderr
    header, *cells = done.stdout.splitlines()
    assert header.split() == ["p", "nprime", "C", "observed", "model", "ci95", "secs"]
    assert [cell.split()[:3] for cell in cells] == [["19", "1", "20"], ["907", "1", "20"], ["907", "2", "924"]]


@pytest.mark.parametrize("nprime", ["1", "2"])
def test_alg2_calibration_runs(nprime):
    done = run_script("alg2_calibration.py", "--instances", "5", "--nprime", nprime)
    assert done.returncode == 0, done.stderr
    assert "solvable instances: 5 " in done.stdout
    assert "unsound returns: 0 " in done.stdout
