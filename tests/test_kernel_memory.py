"""Memory guards on the CSR kernels and the level-4 pipeline.

Each kernel holds one bounded block of temporaries: `composes_to_zero`
(dd = 0 and H_X H_Z^T = 0) traces at most a fixed block over its start,
where it traced 5-12 MB at FC(3,1) level 3 when it worked in blocks of
65,536 cells; `Faces.take` traces its result, the ranges it gathers
through and a few arrays per cell, where it traced two more int64
arrays as long as the result.  A failure names the package stack at
the traced peak (`memory_probe.PeakProbe`).

Slow: the FC(3,1) level-4 pipeline (code style, m-holes) in a child
process, VmHWM read after the build, the code and k (with its homology
cross-check); and, under the probe, the build's traced peak and the
arrays the code keeps.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import fractalcss
from fractalcss.code import css_from_complex
from fractalcss.complexes import FractalSpec, fractal_complex
from memory_probe import PeakProbe

# the temporaries a kernel may hold over its output
_FIXED = 1 << 20


@pytest.fixture(scope="module")
def level3():
    cx = fractal_complex(FractalSpec(3, 3, 1, 3, holes="m"), "code")
    code = css_from_complex(cx, 1)
    return cx, code, code.z_checks.transpose(code.n_qubits)


@pytest.mark.parametrize("check", ("dd2", "dd3", "hx_hz"))
def test_composes_to_zero_holds_a_fixed_block(level3, check):
    cx, code, qubit_z = level3
    faces, below, n = {
        "dd2": (cx.faces[2], cx.faces[1], cx.n_cells(0)),
        "dd3": (cx.faces[3], cx.faces[2], cx.n_cells(1)),
        "hx_hz": (code.x_checks, qubit_z, len(code.z_checks)),
    }[check]
    with PeakProbe() as probe:
        assert faces.composes_to_zero(below, n)
    assert probe.peak <= _FIXED, probe.report()


@pytest.mark.parametrize("k", (1, 2, 3))
def test_take_holds_its_output_and_per_cell_arrays(level3, k):
    """The faces of every k-cell: the result, the int64 ranges it gathers
    through, 32 bytes per cell (the bounds, the counts, the range ends and
    their starts) and 64 kB."""
    faces = level3[0].faces[k]
    cells = np.arange(len(faces))
    with PeakProbe() as probe:
        out = faces.take(cells)
    bound = out.nbytes + 8 * out.size + 32 * cells.size + (1 << 16)
    assert probe.peak <= bound, probe.report()


# -- the level-4 pipeline -----------------------------------------------------

# VmHWM (kB) after the build, the code and k, in a fresh interpreter
_PIPELINE = """
import re
from fractalcss.code import code_params, css_from_complex
from fractalcss.complexes import FractalSpec, fractal_complex

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1])

cx = fractal_complex(FractalSpec(3, 3, 1, 4, holes="m"), "code")
after_build = peak_kb()
code = css_from_complex(cx, 1)
after_code = peak_kb()
k = code_params(code).k
print(k, after_build, after_code, peak_kb())
"""

# the build's traced peak and the bytes the code keeps, with their stacks
_PROBED = """
from fractalcss.code import css_from_complex
from fractalcss.complexes import FractalSpec, fractal_complex
from memory_probe import PeakProbe

with PeakProbe() as build:
    cx = fractal_complex(FractalSpec(3, 3, 1, 4, holes="m"), "code")
with PeakProbe() as code:
    css_from_complex(cx, 1)
print(build.peak, code.kept)
print(build.report())
print(code.report())
"""


def _child(script: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    path = os.pathsep.join((src, os.path.dirname(__file__)))
    out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level4_pipeline_peak_rss():
    """At most 180 MB after the build, 290 MB after the code and 350 MB
    after k (221.5, 335.1 and 410.8 MB with the unbounded kernels)."""
    k, *peaks = _child(_PIPELINE)[0].split()
    assert k == "1"
    after_build, after_code, at_end = (int(kb) / 1024 for kb in peaks)
    assert after_build <= 180, peaks
    assert after_code <= 290, peaks
    assert at_end <= 350, peaks


@pytest.mark.slow
def test_fc31_level4_traced_build_peak_and_code_arrays():
    """The build traces at most 150 MB over its start (192 MB with the
    unbounded kernels), and the code keeps at most 60 MB (88 MB with int64
    cofaces)."""
    sizes, build_report, code_report = _child(_PROBED)
    build_peak, code_kept = map(int, sizes.split())
    assert build_peak <= 150 << 20, build_report
    assert code_kept <= 60 << 20, code_report
