"""Every demo script runs to completion against the current API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, CHOWFIBER_COLOR="never")
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
