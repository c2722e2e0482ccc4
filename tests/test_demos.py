"""Every demo script runs to completion and prints the same bytes as before."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))

#: SHA-256 of each demo's stdout with ``CHOWFIBER_COLOR=never``.  A change
#: that moves one is a change of output and must say so.
STDOUT_SHA256 = {
    "01_exact_integer_linear_algebra": "04041c21a7bf6f139edb71c72b8c818e9c01117ed9a5b1d4ce917b4f7bef81ff",
    "02_frobenius_orbits_and_weights": "0dc029ebb5529f1e3030d279bc3f27992548c358610a8e64c2313300a1e15222",
    "03_describing_a_special_fiber": "81ee1873630ce966ffb85ffb8286110130d0b6b93fcbf4e30bb91f05913418a0",
    "04_from_degrees_to_zero_cycles": "d93162c81439f31b8db892412202fb1f3162ec078ab385bc7af543f0fe49b962",
    "05_seven_component_degeneration": "10226babca3bcc3ccb95c405b8baf968bcaaaee362b864e668f6c88261dce446",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, CHOWFIBER_COLOR="never")
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
