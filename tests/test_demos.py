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
    "01_exact_integer_linear_algebra": "696688f5a5e14bde0cf66541f83154fcb255448d549aaddcb4436d5a7e754572",
    "02_frobenius_orbits_and_weights": "0dc029ebb5529f1e3030d279bc3f27992548c358610a8e64c2313300a1e15222",
    "03_describing_a_special_fiber": "81ee1873630ce966ffb85ffb8286110130d0b6b93fcbf4e30bb91f05913418a0",
    "04_from_degrees_to_zero_cycles": "0a2a3c66fd30254565e6fda3c0ec522fc1d740455c3524bfa83ea064b81c0e4a",
    "05_seven_component_degeneration": "10226babca3bcc3ccb95c405b8baf968bcaaaee362b864e668f6c88261dce446",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ, CHOWFIBER_COLOR="never")
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, env=env)
    assert r.returncode == 0, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
