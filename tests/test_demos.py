"""Each script under demos/ runs to the end and prints its headline result."""

import os
import subprocess
import sys

import pytest

import fractalcss

SRC = os.path.dirname(os.path.dirname(fractalcss.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

# demo -> one line its stdout must contain
KEY_LINES = {
    "01_dimension_table.py": "  fitted d_X exponent: 1.8928   closed form ln(8)/ln(3) = 1.8928",
    "02_no_go_theorems.py": "  level 3: L = 27  n =  532  d_X = 1 (exact)",
    "03_gate_checks.py": "  36 failing triples, every witness touches the hole boundary",
}


@pytest.mark.parametrize("demo", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": SRC}
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert KEY_LINES[demo] in proc.stdout.splitlines()
