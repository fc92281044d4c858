"""Hole punching: the array midpoint tests against the per-cell box tests.

The oracle is the per-cell implementation of `punch_holes` that tested
every cell against every hole with Python interval helpers; it is kept
here verbatim and compared byte for byte (``to_text()``) with the array
implementation on random hole layouts, overlapping holes, holes on or
past the outer boundary, and holes that wrap around periodic axes.  A
layout whose oracle result leaves an e-labelled patch not closed under
the boundary must raise ValueError instead, and so must a complex whose
cells share a midpoint or lie too sparse for the midpoint grid.  The oracle hands its index sets and relabel dict
to the array ``delete`` through ``complex_oracles.delete_indexed``.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import fractalcss
from fractalcss.code import css_from_complex
from fractalcss.complexes import (
    BULK,
    Box,
    CellComplex,
    Hole,
    build_lattice,
    code_lattice,
    dual_with_boundary,
    label_is_e,
    punch_box,
    punch_holes,
)

from complex_oracles import cells, delete_indexed, faces

# -- oracle: the per-cell implementation ------------------------------------


def _axis_relate(lo: int, hi: int, a: int, b: int, period: int | None):
    """Per-axis interval relations, wrap-aware: (strictly_inside, touches)."""
    reps = [(lo, hi)]
    if period:
        reps.append((lo - period, hi - period))
        reps.append((lo + period, hi + period))
    inside = touches = False
    for rl, rh in reps:
        if rl == rh:
            inside = inside or (a < rl < b)
        else:
            inside = inside or (a <= rl and rh <= b)
        touches = touches or (max(rl, a) <= min(rh, b))
    return inside, touches


def _box_strictly_inside(box: Box, hole: Box, periods) -> bool:
    return all(
        _axis_relate(lo, hi, a, b, periods[d])[0]
        for d, ((lo, hi), (a, b)) in enumerate(zip(box, hole))
    )


def _box_touches(box: Box, hole: Box, periods) -> bool:
    return all(
        _axis_relate(lo, hi, a, b, periods[d])[1]
        for d, ((lo, hi), (a, b)) in enumerate(zip(box, hole))
    )


def _box_within_closed(box: Box, hole: Box, periods) -> bool:
    for d, ((lo, hi), (a, b)) in enumerate(zip(box, hole)):
        reps = [(lo, hi)]
        if periods[d]:
            reps.append((lo - periods[d], hi - periods[d]))
            reps.append((lo + periods[d], hi + periods[d]))
        if not any(a <= rl and rh <= b for rl, rh in reps):
            return False
    return True


def _downward_close(cx: CellComplex, doomed: list[set[int]]) -> list[set[int]]:
    for k in range(cx.dim, 0, -1):
        for i in doomed[k]:
            doomed[k - 1].update(cx.faces[k][i])
    return doomed


def reference_punch_holes(cx: CellComplex, holes: list[Hole]) -> CellComplex:
    doomed: list[set[int]] = [set() for _ in range(cx.dim + 1)]
    relabel: dict[tuple[int, int], str] = {}
    for hole in holes:
        if cx.style == "code" and hole.kind == "m":
            # measured-out region: closed star of the hole box
            for k in range(cx.dim + 1):
                for i, c in enumerate(cells(cx, k)):
                    if _box_touches(c.box, hole.box, cx.periods):
                        doomed[k].add(i)
        elif cx.style == "code" and hole.kind == "e":
            # rough hole: mark the interior and its faces as an e-patch; the
            # code module deletes the patch, leaving dangling edges
            marked: list[set[int]] = [set() for _ in range(cx.dim + 1)]
            for k in range(cx.dim + 1):
                for i, c in enumerate(cells(cx, k)):
                    if _box_strictly_inside(c.box, hole.box, cx.periods):
                        marked[k].add(i)
            _downward_close(cx, marked)
            for k in range(cx.dim + 1):
                for i in marked[k]:
                    relabel[(k, i)] = hole.label
        else:
            for k in range(cx.dim + 1):
                for i, c in enumerate(cells(cx, k)):
                    if _box_strictly_inside(c.box, hole.box, cx.periods):
                        doomed[k].add(i)
            for k in range(cx.dim + 1):
                for i, c in enumerate(cells(cx, k)):
                    if i in doomed[k] or c.label != BULK:
                        continue
                    if _box_within_closed(c.box, hole.box, cx.periods):
                        relabel[(k, i)] = hole.label
    return delete_indexed(cx, doomed, holes_add=holes, relabel=relabel)


# -- comparison ---------------------------------------------------------------


def _outcome(punch, cx: CellComplex, holes: list[Hole]):
    """The punched complex, or the text of the invariant failure it raised."""
    try:
        return punch(cx, holes)
    except AssertionError as exc:
        return f"AssertionError: {exc}"


def _open_e_patch(cx) -> bool:
    """Whether some e-labelled cell has a face that is not e-labelled."""
    for k in range(1, cx.dim + 1):
        below = cells(cx, k - 1)
        for c, fs in zip(cells(cx, k), faces(cx, k)):
            if label_is_e(c.label) and not all(label_is_e(below[f].label) for f in fs):
                return True
    return False


def _assert_text_equal(new: str, ref: str) -> None:
    if new != ref:
        # name the first differing line; a full diff of two large texts is slow
        a, b = new.splitlines(), ref.splitlines()
        i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
        pytest.fail(f"line {i}: {a[i:i + 1]} != oracle {b[i:i + 1]}")


def _assert_same(cx: CellComplex, holes: list[Hole], ref_base=None) -> str:
    """punch_holes on cx against the oracle punch on ref_base (default cx):
    the same text or the same invariant failure.  A layout whose oracle
    result has an e-labelled cell with a face that is not e-labelled is
    rejected with a ValueError instead."""
    ref = _outcome(reference_punch_holes, cx if ref_base is None else ref_base, holes)
    if not isinstance(ref, str) and _open_e_patch(ref):
        with pytest.raises(ValueError, match="is not closed under the boundary"):
            punch_holes(cx, holes)
        return "rejected"
    new = _outcome(punch_holes, cx, holes)
    new, ref = (x if isinstance(x, str) else x.to_text() for x in (new, ref))
    _assert_text_equal(new, ref)
    return new


def _hole(hid: int, origin: tuple[int, ...], side: int, kind: str) -> Hole:
    return Hole(hid, tuple((2 * o, 2 * (o + side)) for o in origin), kind)


def _base(style: str, n: int, L: int, background: str) -> CellComplex:
    if style == "code":
        return code_lattice(n, L, background)
    return build_lattice(n, L, background)


SIZES = {2: (3, 6), 3: (2, 4), 4: (2, 3)}


@pytest.mark.parametrize("seed", range(40))
def test_random_layouts_match_oracle(seed):
    rng = random.Random(seed)
    n = rng.choice((2, 3, 4))
    L = rng.randint(*SIZES[n])
    style = rng.choice(("plain", "code"))
    background = rng.choice(
        ("open", "torus") if style == "code" else ("open", "torus", "sphere")
    )
    cx = _base(style, n, L, background)
    holes = []
    for hid in range(rng.randint(1, 4)):
        side = rng.randint(1, max(1, L - 1))
        # origins from -1 to L - side + 1: holes may stick out of the lattice
        origin = tuple(rng.randint(-1, L - side + 1) for _ in range(n))
        holes.append(_hole(hid, origin, side, rng.choice("em")))
    _assert_same(cx, holes)


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("kinds", ("mm", "ee", "em", "me"))
def test_overlapping_holes_match_oracle(style, kinds):
    cx = _base(style, 3, 5, "open")
    holes = [_hole(0, (1, 1, 1), 2, kinds[0]), _hole(1, (2, 2, 1), 2, kinds[1])]
    text = _assert_same(cx, holes)
    assert not text.startswith("AssertionError")


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("kind", "em")
@pytest.mark.parametrize("origin", ((0, 0, 0), (0, 1, 1), (3, 1, 2), (-1, 1, 1), (2, 2, 3)))
def test_outer_boundary_holes_match_oracle(style, kind, origin):
    # L = 4, side 2: the hole touches or crosses at least one outer face
    _assert_same(_base(style, 3, 4, "open"), [_hole(0, origin, 2, kind)])


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("kind", "em")
@pytest.mark.parametrize("n,L", ((3, 3), (4, 2)))
def test_torus_wrapping_holes_match_oracle(style, kind, n, L):
    cx = _base(style, n, L, "torus")
    holes = [
        _hole(0, (L - 1,) + (0,) * (n - 1), 2, kind),  # wraps on axis 0
        _hole(1, (-1,) * n, 2, kind),  # wraps on every axis
    ]
    for hole in holes:
        _assert_same(cx, [hole])
    _assert_same(cx, holes)


def test_punch_box_sequence_matches_oracle():
    cx = ref = code_lattice(3, 5)
    for origin, side, kind in (((1, 1, 1), 1, "m"), ((3, 2, 1), 2, "e"), ((0, 3, 3), 2, "m")):
        cx = punch_box(cx, origin, side, kind)
        hid = max((h.hole_id for h in ref.holes), default=-1) + 1
        ref = reference_punch_holes(ref, [_hole(hid, origin, side, kind)])
    _assert_text_equal(cx.to_text(), ref.to_text())


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("kind", "em")
def test_punch_box_after_emptied_lowest_plane_matches_oracle(style, kind):
    """The first hole empties the lowest midpoint planes of the periodic
    axis 0 (a slab over the whole of the other axes), so the cells left on
    that axis span less than the period; the punch_box holes after it wrap
    around axis 0 at its low end, where an index taken modulo that span
    instead of the period would miss the cells past the wrap."""
    L = 6
    # the slab empties the halved midpoints 11, 0, 1, 2 and 3 of axis 0: code
    # style deletes the closed star of the hole, plain style its interior
    slab = Hole(0, ((0, 2) if style == "code" else (-2, 4),) + ((-2, 2 * L + 2),) * 2, "m")
    cx = punch_holes(_base(style, 3, L, "torus"), [slab])
    ref = reference_punch_holes(_base(style, 3, L, "torus"), [slab])
    half = np.concatenate([(c[:, 0, 0] + c[:, 0, 1]) >> 1 for c in cx.cells])
    assert (half.min(), half.max()) == (4, 2 * L - 2)
    for origin, side, hole_kind in (((-1, 1, 1), 1, kind), ((-1, 3, 0), 2, kind),
                                    ((L - 1, 2, 4), 1, "m")):
        cx = punch_box(cx, origin, side, hole_kind)
        hid = max(h.hole_id for h in ref.holes) + 1
        ref = reference_punch_holes(ref, [_hole(hid, origin, side, hole_kind)])
        _assert_text_equal(cx.to_text(), ref.to_text())


def test_punch_refuses_cells_that_share_a_midpoint():
    # D(c) and Db(c) of a labelled cell c reuse the box of c
    dual = dual_with_boundary(build_lattice(2, 2, "open"))
    with pytest.raises(ValueError, match="share a midpoint"):
        punch_holes(dual, [_hole(0, (0, 0), 1, "m")])


def test_e_hole_then_adjacent_m_hole_is_rejected():
    # the m-hole shares the plane x = 3 with the e-hole and relabels the
    # e-hole's cells there, so the hE0 patch loses part of its boundary
    cx = build_lattice(3, 5, "open")
    e_hole, m_hole = _hole(0, (1, 1, 1), 2, "e"), _hole(1, (3, 1, 1), 1, "m")
    with pytest.raises(ValueError, match="patch hE0 is not closed under the boundary"):
        punch_holes(cx, [e_hole, m_hole])
    # in the other order the e-hole relabels last and its patch stays closed
    css_from_complex(punch_holes(cx, [m_hole, e_hole]), 1)


# two vertices at x = 0 and x = 2**33: a midpoint grid of 2**33 + 1 int32
# slots (32 GiB) for 2 cells; under a 2 GiB address-space limit the grid
# could not even be allocated, so a punch that tries fails with MemoryError
_SPARSE = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
import numpy as np
from fractalcss.complexes import CellComplex, Faces, Hole, punch_holes
none = np.zeros((0, 2, 2), dtype=np.int64)
cx = CellComplex(2, [np.array([[[0, 0], [0, 0]], [[2**33, 2**33], [0, 0]]]), none, none],
                 [np.zeros(2, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * 2, ["bulk"],
                 [Faces.empty(2), Faces.empty(0), Faces.empty(0)])
try:
    punch_holes(cx, [Hole(0, ((0, 2), (0, 2)), "m")])
except ValueError as err:
    print(err)
"""


def test_punch_refuses_a_sparse_complex_before_allocating():
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    out = subprocess.run([sys.executable, "-c", _SPARSE], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == ("2 cells spread over a grid of 8589934593 midpoints; "
                          "holes need at most 64 per cell\n")


def test_punch_accepts_the_sparsest_lattice():
    # the 4D L = 1 sphere: 2 cells on a grid of 81 midpoints
    sphere = build_lattice(4, 1, "sphere")
    assert sum(sphere.n_cells(k) for k in range(5)) == 2
    punch_holes(sphere, [_hole(0, (0, 0, 0, 0), 1, "m")])
