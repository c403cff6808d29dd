"""Run a script in a fresh Python interpreter that imports the same
niho_perm as the tests, for checks that depend on what a process has built
or allocated before them."""

import os
import subprocess
import sys
from pathlib import Path

import niho_perm

SRC = str(Path(niho_perm.__file__).resolve().parents[1])


def run_python(script: str) -> subprocess.CompletedProcess:
    """Run script with python -c; stdout and stderr are captured as text."""
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
