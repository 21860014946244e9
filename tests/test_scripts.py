"""Smoke runs of the experiment scripts in scripts/.

Each script runs in a fresh interpreter at its smallest size; the test
checks the exit code and the script's closing summary line, so a script
that calls a removed or renamed library name fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("args, summary", [
    # at N = 16 the 32-atom Lebesgue fibers sit on the orbit and its
    # midpoints, so the pipeline stops after one step
    (["run_orbit_pipeline.py", "--N", "16", "--nmax", "50"],
     r"closed-form distance to the unperturbed invariant measure: "
     r"0\.015625 = 1/\(4k\), k = 16"),
    (["run_ly_audit.py", "--size", "2"],
     r"precomposed: invariant var_p = \d\.\d{5} <= fixed-point bound "
     r"\d\.\d{4} \(converged = True\)"),
], ids=["orbit-pipeline", "ly-audit"])
def test_script_runs(args, summary):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]),
                           *args[1:]], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.match(summary, proc.stdout.splitlines()[-1])
