"""Each script under demos/ runs to the end and prints its headline result,
and so does the README's library example."""

import os
import re
import subprocess
import sys

import pytest

import fractalcss

SRC = os.path.dirname(os.path.dirname(fractalcss.__file__))
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")

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


def test_readme_library_example():
    """The ``## Library example`` block of README.md, run in a fresh
    interpreter, prints the values its comments give."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    block = re.search(r"^## Library example\n+```python\n(.*?)^```", readme, re.M | re.S)[1]
    want = re.findall(r"^print\(.*\)\s+# (\S+)$", block, re.M)
    assert want == ["1", "9", "64"]
    proc = subprocess.run([sys.executable, "-c", block], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == want
