"""Importing the package and running a closed-form command load no scipy."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

PROBE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import plumefront, plumefront.cli
assert not scipy_modules(), scipy_modules()
code = plumefront.cli.dispatch(
    ["boundary", "--profile", "gaussian", "--nu", "1", "--epsilon", "0.1", "--t", "4"]
)
assert code == 0, code
assert not scipy_modules(), scipy_modules()
"""


def test_import_and_boundary_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
