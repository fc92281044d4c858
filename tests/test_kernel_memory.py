"""Memory guards on the CSR kernels, the construction stages and the
level-4 pipeline.

Each kernel holds one bounded block of temporaries: `composes_to_zero`
(dd = 0 and H_X H_Z^T = 0) traces at most a fixed block over its start,
where it traced 5-12 MB at FC(3,1) level 3 when it worked in blocks of
65,536 cells; `Faces.take` traces its result, the ranges it gathers
through and a few arrays per cell, where it traced two more int64
arrays as long as the result.  Each construction stage holds what it
returns plus one bounded block: the FC(4,2) level-2 build (the punch
tests `_ENTRIES` pairs at a time), its code (no unrestricted copy of the
checks) and the FC(3,1) level-2 plain dual (one grade's cofaces at a
time) each trace at most a bound set from their own peaks, below the
peaks of the routes they replaced.  A failure names the package stack at
the traced peak (`memory_probe.PeakProbe`).

Slow: the FC(3,1) level-4 pipeline (code style, m-holes) in a child
process under an address-space limit, VmHWM read after the build, the
code and k with its homology cross-check (`memory_probe.stage_table`);
and, under the probe, the build's and the code's traced peaks and the
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
from fractalcss.complexes import FractalSpec, dual_with_boundary, fractal_complex
from memory_probe import PeakProbe, stage_table

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


# -- the construction stages --------------------------------------------------

# MB a stage may trace over its start: its own peak with at most 25 % over,
# below the peak of the route it replaced.  The FC(4,2) level-2 build
# traces 1.27 MB (2.30 MB when the punch tested 2**18 int64 pairs at a
# time), its code 0.85 MB (1.08 MB) and the FC(3,1) level-2 plain dual
# 1.01 MB (1.39 MB when every grade's pairs were sorted at once): the
# higher of a run of this module alone and of the whole suite.
_STAGE_BOUNDS = {"fc42-l2 build": 1.5, "fc42-l2 code": 1.0, "fc31-l2 dual": 1.1}


@pytest.mark.parametrize("stage", _STAGE_BOUNDS)
def test_stage_holds_its_output_and_one_block(stage):
    fc42 = FractalSpec(3, 4, 2, 2, holes="m")
    if stage == "fc42-l2 build":
        def run():
            return fractal_complex(fc42, "code")
    elif stage == "fc42-l2 code":
        cx = fractal_complex(fc42, "code")

        def run():
            return css_from_complex(cx, 1)
    else:
        cx = fractal_complex(FractalSpec(3, 3, 1, 2, holes="m"))

        def run():
            return dual_with_boundary(cx)
    with PeakProbe() as probe:
        run()
    assert probe.peak <= _STAGE_BOUNDS[stage] * 2**20, probe.report()


# -- the level-4 pipeline -----------------------------------------------------

# the build's and the code's traced peaks and the bytes the code keeps,
# with their stacks
_PROBED = """
from fractalcss.code import css_from_complex
from fractalcss.complexes import FractalSpec, fractal_complex
from memory_probe import PeakProbe

with PeakProbe() as build:
    cx = fractal_complex(FractalSpec(3, 3, 1, 4, holes="m"), "code")
with PeakProbe() as code:
    held = css_from_complex(cx, 1)  # held, so that the bytes kept are its arrays
print(build.peak, code.peak, code.kept)
print(build.report())
print(code.report())
"""


def _child(script: str) -> list[str]:
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    path = os.pathsep.join((src, os.path.dirname(__file__)))
    out = subprocess.run([sys.executable, *["-O"] * sys.flags.optimize, "-c", script],
                         env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                         text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level4_pipeline_peak_rss():
    """At most 156 MB after the build, 221 MB after the code and 276 MB
    after k, under RLIMIT_AS of 1 GB: 141.7, 201.2 and 252.2 MB here
    (142.8, 202.3 and 253.4 MB under python -O), each bound at most 10 %
    over (168.3, 241.4 and 270.9 MB before the construction stages held
    one block; 221.5, 335.1 and 410.8 MB with the unbounded kernels)."""
    rows, k = stage_table(4, 1024)
    assert k == 1
    after_build, after_code, at_end = (hwm for _, _, _, hwm in rows)
    assert after_build <= 156, rows
    assert after_code <= 221, rows
    assert at_end <= 276, rows


@pytest.mark.slow
def test_fc31_level4_traced_build_peak_and_code_arrays():
    """The build traces at most 105 MB over its start (98.5 MB here; 131.6
    MB when the punch tested 2**18 int64 pairs at a time and the face
    tables were int64, 192 MB with the unbounded kernels); the code traces
    at most 70 MB (64.8 MB here; 98.5 MB with the unrestricted checks
    beside their restriction) and keeps at most 60 MB (40.4 MB here; 59.2
    MB while the code held the Z checks of each qubit for its reduction,
    88 MB with int64 cofaces)."""
    sizes, build_report, code_report = _child(_PROBED)
    build_peak, code_peak, code_kept = map(int, sizes.split())
    assert build_peak <= 105 << 20, build_report
    assert code_peak <= 70 << 20, code_report
    assert code_kept <= 60 << 20, code_report
