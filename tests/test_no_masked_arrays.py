"""No run imports ``numpy.ma``.

A plain ``np.unique(x)`` asks ``np.ma.is_masked`` whether its input is a
masked array, and ``np.isin`` makes the same call inside, which imports
``numpy.ma`` (about 1.2 MB of RSS and 14-23 ms) in a run that never builds
a masked array.  The package takes its distinct values from a
``bincount``, a flag array or ``np.unique(..., return_index=True)``
instead.  The run is a child process, so the modules this test session
has imported do not count.
"""

from __future__ import annotations

import os
import subprocess
import sys

import fractalcss

_RUN = """
import contextlib, io, os, sys
from fractalcss.cli import main
from fractalcss.code import code_params, css_from_complex
from fractalcss.complexes import FractalSpec, fractal_complex

# the benchmark's warm-up pipeline
code_params(css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1, holes="m"), "code"), 1))
os.chdir(sys.argv[1])
spec = ["--dim", "3", "--p", "3", "--q", "1", "--level", "2"]
runs = [
    ["gen", *spec, "--style", "code", "--out", "cx.txt"],
    ["code", "--complex", "cx.txt", "--i", "1", "--out", "code.txt"],
    ["params", "--code", "code.txt"],
    ["export", "--code", "code.txt", "--what", "hz", "--out", "hz.txt"],
    ["distance", "--complex", "cx.txt"],
    ["homology", "--dim", "3", "--p", "3", "--q", "1", "--level", "1", "--lefschetz"],
    ["gate-check", "ccz", "--vb", "--hole", "center"],
    ["gate-check", "cz"],
    ["gate-check", "s", "--colorcode"],
    ["merge"],
]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(*codes, "numpy.ma" in sys.modules)
"""


def test_no_run_imports_numpy_ma(tmp_path):
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    out = subprocess.run([sys.executable, "-c", _RUN, str(tmp_path)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # the CCZ check on the holed stack reports its failed conditions (exit 4)
    assert out.stdout.split() == ["0"] * 6 + ["4"] + ["0"] * 3 + ["False"]
