"""The benchmark's tracer finds every function and method it is told to
wrap.  A renamed package function would otherwise only show up as a failed
check of the traced benchmark run; here it fails the test suite.

`Tracer.install` cannot be undone, so it runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

import fractalcss

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(fractalcss.__file__)))

_INSTALL = """
import json, sys
sys.path.insert(0, sys.argv[1])
for layer in ("gf2", "complexes", "homology", "code", "distance", "gates", "colorcode", "cli"):
    __import__(f"fractalcss.{layer}")
from tracer import Tracer
print(json.dumps(Tracer().install()))
"""


def test_tracer_resolves_every_name():
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = subprocess.run(
        [sys.executable, "-c", _INSTALL, os.path.join(ROOT, "perfbench")],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == []
