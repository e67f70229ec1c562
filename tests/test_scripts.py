"""Smoke runs of the scripts under `scripts/`, which call the library the way
a user would and are covered by no other test."""

import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", ["demo.py", "soundness_experiment.py"])
def test_script_runs_to_exit_zero_without_a_traceback(script, tmp_path):
    child = subprocess.run([sys.executable, str(SCRIPTS / script)], cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout + child.stderr
    assert "Traceback" not in child.stdout + child.stderr
