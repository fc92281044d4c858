"""The one-construction build against the two-step build it replaced.

`fractal_complex`, and `build_lattice` and `code_lattice` for any hole
layout, build the punched complex in one construction: the lattice's
boxes and labels as arrays, the hole masks of `_punch_masks`, faces for
the kept cells only, and one `CellComplex`.  The oracle is the two-step build kept in
`complex_oracles`: the whole lattice as a `CellComplex`, then the per-hole
punch, then `delete`.  Both must write the same ``cellcomplex v1`` bytes
and hold the same label tables and label codes, or raise the same
ValueError, on FC(3,1) and FC(4,2) at levels 1-2, 2D SC(3,1) at levels 1-3
and 4D FC(3,1) at level 1, on the open, torus and sphere backgrounds, with m-, e- and mixed holes, in both styles; on the 40
seeded layouts of `test_arrays` and the Hypothesis layouts of
`test_text_fuzz` (where `punch_holes` on the built lattice must agree
too); on a code-style layout whose m-hole star deletes part of an
e-hole's interior, so that the e-patch closes down through cofaces that
are then deleted; and, slow, on FC(3,1) level 3 in both styles.

Spy tests pin the one construction: one `CellComplex` and one dd = 0
check per build, int16 boxes and int32 label codes and face arrays, and
one midpoint-grid gather per hole shape.  `composes_to_zero` must answer
right where a cell * n key exceeds 2**31.  A slow test bounds the peak RSS
of the FC(3,1) level-4 build in a fresh interpreter.
"""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings

import complex_oracles as oracle
import fractalcss
from fractalcss import complexes
from fractalcss.complexes import (
    CellComplex,
    Faces,
    FractalSpec,
    Hole,
    build_lattice,
    code_lattice,
    fractal_complex,
    fractal_holes,
    punch_holes,
)
from test_arrays import seeded_params
from test_punch import _hole
from test_text_fuzz import layouts


def _outcome(build):
    """The text of the complex that `build()` returns with its label table
    and label codes (which the text does not show), or its ValueError."""
    try:
        cx = build()
    except ValueError as err:
        return f"ValueError: {err}"
    return cx.to_text(), cx.label_names, [lab.tolist() for lab in cx.labels]


def _two_step(style, n, L, background, holes):
    builder = oracle.array_code_lattice if style == "code" else oracle.array_build_lattice
    base = builder(n, L, background)
    return oracle.punch_per_hole(base, holes) if holes else base


def _assert_same(style, n, L, background, holes):
    """The one construction and `punch_holes` on the built lattice against
    the two-step build; returns the outcome."""
    builder = code_lattice if style == "code" else build_lattice
    want = _outcome(lambda: _two_step(style, n, L, background, holes))
    assert _outcome(lambda: builder(n, L, background, holes=holes)) == want
    lattice = builder(n, L, background)
    assert _outcome(lambda: punch_holes(lattice, holes)) == want
    return want


# -- the fractal ladder -------------------------------------------------------

FRACTALS = {"fc31-l1": (3, 3, 1, 1), "fc31-l2": (3, 3, 1, 2), "fc42-l1": (3, 4, 2, 1),
            "fc42-l2": (3, 4, 2, 2), "sc31-l1": (2, 3, 1, 1), "sc31-l2": (2, 3, 1, 2),
            "sc31-l3": (2, 3, 1, 3), "fc31-4d-l1": (4, 3, 1, 1)}
HOLES = {"m": "m", "e": "e", "mixed": {h: "em"[h % 3 == 1] for h in range(100)}}


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("holes", HOLES)
@pytest.mark.parametrize("background", ("open", "torus", "sphere"))
@pytest.mark.parametrize("name", FRACTALS)
def test_fractal_ladder_matches_two_step(name, background, holes, style):
    spec = FractalSpec(*FRACTALS[name], background=background, holes=HOLES[holes])
    want = _outcome(lambda: oracle.two_step_fractal_complex(spec, style))
    assert _outcome(lambda: fractal_complex(spec, style)) == want


@pytest.mark.slow
@pytest.mark.parametrize("style", ("plain", "code"))
def test_fc31_level3_matches_two_step(style):
    spec = FractalSpec(3, 3, 1, 3, holes="m")
    assert _outcome(lambda: fractal_complex(spec, style)) == \
        _outcome(lambda: oracle.two_step_fractal_complex(spec, style))


# -- hole layouts -------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_seeded_layouts_match_two_step(seed):
    _assert_same(*seeded_params(seed))


@settings(max_examples=60, deadline=None)
@given(layouts())
def test_hypothesis_layouts_match_two_step(layout):
    _assert_same(*layout)


@pytest.mark.parametrize("order", ("em", "me"))
def test_e_patch_closes_down_through_deleted_cofaces(order):
    """The m-hole's closed star deletes part of the e-hole's interior.  A
    face left outside the star takes its e-hole label from a tagged coface
    that the star deletes; a build that closed the patch down through the
    kept cells only would leave such a face in the bulk."""
    L, n = 6, 3
    e_hole, m_hole = _hole(0, (1, 1, 1), 3, "e"), _hole(1, (3, 2, 2), 1, "m")
    holes = [e_hole, m_hole] if order == "em" else [m_hole, e_hole]
    text = _assert_same("code", n, L, "open", holes)[0]
    assert "hE" in text
    # the layout does what the docstring says: closing down through the kept
    # cofaces only would label fewer faces
    lat = complexes._Lattice(["centered", "centered", "interval"], L)
    boxes = lat.boxes()
    doomed, tag = complexes._hole_hits(boxes, np.ones(len(boxes), bool), lat.periods, "code",
                                       holes)
    start = lat.start
    full, kept_only = tag.copy(), np.where(doomed, -1, tag)
    for k in range(n, 0, -1):
        for t in (full, kept_only):
            cells = np.flatnonzero(t[start[k] : start[k + 1]] >= 0)
            np.maximum.at(t, start[k - 1] + lat.faces(k, cells).ravel(),
                          np.repeat(t[start[k] + cells], 2 * k))
    assert ((full >= 0) & ~doomed & (kept_only < 0)).any()


# -- spies and widths ---------------------------------------------------------


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("background", ("open", "torus"))
def test_one_complex_and_one_dd_check(monkeypatch, background, style):
    calls = {"init": 0, "dd": 0}
    init, dd = CellComplex.__init__, CellComplex.assert_dd_zero

    def counted_init(self, *args, **kwargs):
        calls["init"] += 1
        init(self, *args, **kwargs)

    def counted_dd(self):
        calls["dd"] += 1
        dd(self)

    monkeypatch.setattr(CellComplex, "__init__", counted_init)
    monkeypatch.setattr(CellComplex, "assert_dd_zero", counted_dd)
    cx = fractal_complex(FractalSpec(3, 3, 1, 2, background=background, holes="m"), style)
    assert calls == {"init": 1, "dd": 1}
    assert len(cx.holes) == 27


@pytest.mark.parametrize("build", [
    lambda: fractal_complex(FractalSpec(3, 3, 1, 2, holes="m"), "code"),
    lambda: fractal_complex(FractalSpec(3, 4, 2, 1, background="torus", holes="e"), "plain"),
    lambda: code_lattice(3, 4),
    lambda: fractalcss.build_lattice(4, 2, "torus"),
])
def test_built_complexes_store_narrow_arrays(build):
    cx = build()
    for k in range(cx.dim + 1):
        assert cx.cells[k].dtype == np.int16
        assert cx.labels[k].dtype == np.int32
        assert cx.faces[k].ptr.dtype == cx.faces[k].idx.dtype == np.int32
        # counts in the type of the values ufunc.at adds to them, for its fast path
        assert cx.faces[k].counts().dtype == np.int64


def test_punch_keeps_the_narrow_arrays():
    cx = complexes.punch_box(code_lattice(3, 5), (1, 1, 1), 2, "e")
    for k in range(cx.dim + 1):
        assert (cx.cells[k].dtype, cx.labels[k].dtype) == (np.int16, np.int32)
        assert cx.faces[k].ptr.dtype == cx.faces[k].idx.dtype == np.int32


def test_widths_follow_the_values():
    assert complexes._width(0, 2 * 16383) == np.int16  # the boxes of side 16,383
    assert complexes._width(0, 2 * 16384) == np.int32
    assert complexes._width(0, 2**31 - 1, (np.int32, np.int64)) == np.int32
    assert complexes._width(0, 2**31, (np.int32, np.int64)) == np.int64


def test_int16_midpoints_do_not_overflow():
    """Boxes near the int16 limit, whose midpoints lo + hi are not int16:
    the punch computes them wider and agrees with the same boxes as int64."""
    base = code_lattice(2, 3)
    shift = 32758  # even, so the boxes keep their parities; the largest is 32764
    texts = []
    for dtype in (np.int16, np.int64):
        cells = [(c.astype(np.int64) + shift).astype(dtype) for c in base.cells]
        cx = CellComplex(2, cells, base.labels, base.label_names, base.faces, base.background,
                         base.style, base.periods)
        texts.append(punch_holes(cx, [Hole(0, ((shift + 2, shift + 4),) * 2, "m")]).to_text())
    assert texts[0] == texts[1]
    assert "\ncell 2 " not in texts[0]  # the hole's closed star takes every square


@pytest.mark.parametrize("kinds", ("m", "mixed"))
def test_one_gather_per_hole_shape(monkeypatch, kinds):
    """The holes of one shape are gathered together, the smallest shape
    first, in chunks of as many holes as gather about `_ENTRIES` cells: a
    hole's block spans its box, the widest cell and one slot per side, 6**3,
    10**3 and 22**3 grid slots for the holes of side 1, 3 and 9."""
    sides = {2: 75, 6: 16, 18: 1}  # doubled side: holes per chunk
    assert sides == {side: complexes._ENTRIES // (side + 4) ** 3 for side in sides}
    want = [75] * 9 + [1] + [16, 10] + [1]  # 676, 26 and 1 holes
    gathers = []
    gather = complexes._MidpointGrid.gather

    def counted(self, boxes):
        gathers.append(len(boxes))
        return gather(self, boxes)

    monkeypatch.setattr(complexes._MidpointGrid, "gather", counted)
    spec = FractalSpec(3, 3, 1, 3, holes=HOLES[kinds])
    holes = fractal_holes(spec)
    punch_holes(code_lattice(3, spec.side), holes)
    assert gathers == want
    gathers.clear()
    fractal_complex(spec, "code")
    assert gathers == want


def test_composes_to_zero_with_keys_past_int32():
    """Cells 0 and 4096 each reach cell 7 of n = 2**20 once, through the
    one face of below cell 0: 4096 * 2**20 = 2**32, so keys cell * n +
    reached cell taken mod 2**32 would pair them up and call the product
    zero."""
    n, cells = 2**20, 4097
    below = Faces(np.array([0, 1, 2], dtype=np.int32), np.array([7, 7], dtype=np.int32))
    counts = np.zeros(cells, dtype=np.int32)
    counts[[0, 4096]] = 1
    ptr = np.zeros(cells + 1, dtype=np.int32)
    np.cumsum(counts, out=ptr[1:])
    assert not Faces(ptr, np.zeros(2, dtype=np.int32)).composes_to_zero(below, n)
    # through both below cells, each reaches cell 7 twice
    assert Faces(2 * ptr, np.array([0, 1, 0, 1], dtype=np.int32)).composes_to_zero(below, n)
    # the same where every cell has as many faces (its row sorted on its own)
    every = np.arange(cells + 1, dtype=np.int32)
    assert not Faces(every, np.zeros(cells, dtype=np.int32)).composes_to_zero(below, n)
    assert Faces(2 * every, np.tile(np.array([0, 1], dtype=np.int32), cells)).composes_to_zero(
        below, n)


# -- memory -------------------------------------------------------------------

# the peak RSS of this interpreter: VmHWM, the high-water mark of its own
# memory; ru_maxrss also counts the parent's RSS at the fork
_LEVEL4 = """
import re
from fractalcss.complexes import FractalSpec, fractal_complex
cx = fractal_complex(FractalSpec(3, 3, 1, 4, holes="m"), "code")
with open("/proc/self/status") as fh:
    peak_kb = re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1]
print([cx.n_cells(k) for k in range(4)], peak_kb)
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level4_build_peak_rss():
    """A quarter of the 743 MB of the two-step build: the unpunched lattice
    is never a complex, nothing holds it while the result is built, and
    the punch builds its midpoint grid one axis at a time."""
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    out = subprocess.run([sys.executable, "-c", _LEVEL4], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300, check=True).stdout
    counts, peak_kb = out.rsplit(" ", 1)
    assert counts == "[437042, 1174048, 963304, 210000]"
    assert int(peak_kb) <= 180 * 1024
