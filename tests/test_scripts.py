"""The scripts in scripts/: each runs to the end with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import alblab

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
CALLS = (
    ["boundary_limit.py", "--decades", "2"],
    ["monodromy_table.py", "0 1"],
    ["tangential_series.py", "--level", "3"],
)


def test_every_script_has_a_call():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(argv[0] for argv in CALLS)


@pytest.mark.parametrize("argv", CALLS, ids=lambda argv: argv[0])
def test_script_runs(argv):
    src = str(Path(alblab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
