"""The bounded CSR and punch kernels against the kernels they replaced.

`complexes._ranges` builds one full-length array (its result) and adds
the positions a block of `_ENTRIES` at a time, `Faces.transpose` keeps
int32 cofaces while the counts fit and places a block of about
`_ENTRIES` entries at a time, `Faces.composes_to_zero` works in
blocks that reach about `_ENTRIES` entries, and `_MidpointGrid` and
`_hole_hits` build the grid one axis at a time and gather the holes of
one shape in chunks of `_BLOCK` cells.  The oracles are the kernels before
(`complex_oracles.ranges`, `transpose`, `composes_to_zero`, `GatherGrid`
and `hole_hits`); each kernel must give the same values, and the punch
the same masks and label codes, or the same ValueError.  The block sizes
are shrunk in some cases so that blocks and chunks split everywhere.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import complex_oracles as oracle
from fractalcss import complexes
from fractalcss.complexes import (
    Faces,
    FractalSpec,
    _ranges,
    build_lattice,
    code_lattice,
    fractal_holes,
)
from test_arrays import seeded_params
from test_one_construction import FRACTALS, HOLES

# -- ranges -------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 4)), max_size=30),
       st.sampled_from((np.int32, np.int64)), st.sampled_from((1, 3, 1 << 14)))
def test_ranges_match_oracle_with_empty_ranges(ranges, dtype, block):
    """Any mix of empty and nonempty ranges (a fifth of the lengths are 0),
    as int64 indices whatever the type of the bounds, with the positions
    added 1, 3 or 2**14 at a time."""
    starts = np.array([a for a, _ in ranges], dtype=dtype)
    stops = np.array([a + n for a, n in ranges], dtype=dtype)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(complexes, "_ENTRIES", block)
        got = _ranges(starts, stops)
    assert got.dtype == np.int64
    assert got.tolist() == oracle.ranges(starts, stops).tolist()


@pytest.mark.parametrize("dtype", (np.int32, np.int64))
@pytest.mark.parametrize("bounds", [
    ([], []), ([3], [3]), ([3, 5, 5], [3, 5, 5]),  # no entry at all
    ([4, 0], [4, 2]), ([0, 7], [2, 7]), ([1, 2, 2, 6], [1, 4, 2, 8]),  # empty first, last, between
    ([5, 1, 5], [7, 3, 7]),  # ranges that repeat and go back
])
def test_ranges_edge_cases(bounds, dtype):
    starts, stops = (np.array(b, dtype=dtype) for b in bounds)
    assert _ranges(starts, stops).tolist() == oracle.ranges(starts, stops).tolist()


# -- transpose ----------------------------------------------------------------


@st.composite
def csr(draw, max_cells=12, max_below=10):
    """Faces of a few cells over `below` cells, each row sorted, any empty."""
    below = draw(st.integers(0, max_below))
    rows = draw(st.lists(st.sets(st.integers(0, max(below - 1, 0)), max_size=below),
                         max_size=max_cells))
    rows = [sorted(r) for r in rows] if below else [[] for _ in rows]
    ptr = np.cumsum([0] + [len(r) for r in rows]).astype(np.int32)
    idx = np.array([i for r in rows for i in r], dtype=np.int32)
    return Faces(ptr, idx), below


def _same_faces(a: Faces, b: Faces) -> bool:
    return a.ptr.tolist() == b.ptr.tolist() and a.idx.tolist() == b.idx.tolist()


@settings(max_examples=200, deadline=None)
@given(csr(), st.sampled_from((1, 3, 1 << 14)))
def test_transpose_matches_oracle(faces_below, block):
    """In blocks of about 1 and 3 entries too, so that the cells below
    take entries from several blocks."""
    faces, below = faces_below
    with pytest.MonkeyPatch.context() as m:
        m.setattr(complexes, "_ENTRIES", block)
        got = faces.transpose(below)
    assert _same_faces(got, oracle.transpose(faces, below))
    assert got.ptr.dtype == got.idx.dtype == np.int32


@pytest.mark.parametrize("block", (64, 1 << 14))
@pytest.mark.parametrize("k", (1, 2, 3))
def test_lattice_cofaces_match_oracle(monkeypatch, k, block):
    monkeypatch.setattr(complexes, "_ENTRIES", block)
    cx = _fc31_level2()
    assert _same_faces(cx.cofaces(k - 1), oracle.transpose(cx.faces[k], cx.n_cells(k - 1)))


@pytest.mark.parametrize("block", (2, 1 << 14))
@pytest.mark.parametrize("cells, entries, width", [
    (5, 5, np.int32), (6, 5, np.int64), (5, 6, np.int64), (1, 0, np.int32)])
def test_transpose_is_int32_exactly_when_both_counts_fit(monkeypatch, cells, entries, width,
                                                         block):
    """The widths at a limit of 5 instead of 2**31 - 1: int32 cofaces when
    neither the cells (the values of their idx) nor the entries (of ptr)
    pass it; the values are the oracle's either way."""
    monkeypatch.setattr(complexes, "_ENTRIES", block)
    real = complexes._width
    monkeypatch.setattr(complexes, "_width", lambda lo, hi, widths=(np.int16, np.int32, np.int64):
                        real(lo, hi, widths) if hi <= 5 else widths[-1])
    rows = [[c % 3] for c in range(entries)] + [[] for _ in range(cells - entries)]
    faces = Faces(np.cumsum([0] + [len(r) for r in rows]).astype(np.int32),
                  np.array([i for r in rows for i in r], dtype=np.int32))
    got = faces.transpose(3)
    assert got.ptr.dtype == got.idx.dtype == width
    assert _same_faces(got, oracle.transpose(faces, 3))


# -- composes_to_zero ---------------------------------------------------------


@st.composite
def csr_pairs(draw):
    """(faces, below, n): random rows, or rows that reach every cell twice
    (each cell's faces are below cells with equal rows), with one entry
    flipped or not."""
    below, n = draw(csr(max_cells=10, max_below=8))
    if draw(st.booleans()):  # twin rows: below cell i and i + m are equal
        m = len(below)
        below = Faces(np.concatenate((below.ptr, below.ptr[1:] + below.ptr[-1])),
                      np.concatenate((below.idx, below.idx)))
        picks = draw(st.lists(st.sets(st.integers(0, max(m - 1, 0)), max_size=m), max_size=10))
        rows = [sorted(i for j in p for i in (j, j + m)) for p in picks] if m else []
        faces = Faces(np.cumsum([0] + [len(r) for r in rows]).astype(np.int32),
                      np.array([i for r in rows for i in r], dtype=np.int32))
    else:
        faces, _ = draw(csr(max_cells=10, max_below=len(below)))
    if faces.idx.size and draw(st.booleans()):  # drop one entry
        e = draw(st.integers(0, faces.idx.size - 1))
        ptr = faces.ptr - (np.arange(len(faces.ptr)) > np.searchsorted(faces.ptr, e, "right") - 1)
        faces = Faces(ptr.astype(np.int32), np.delete(faces.idx, e))
    return faces, below, n


@settings(max_examples=300, deadline=None)
@given(csr_pairs(), st.sampled_from((1, 3, 64, 1 << 14)))
def test_composes_to_zero_matches_oracle(pair, reached):
    faces, below, n = pair
    with pytest.MonkeyPatch.context() as m:
        m.setattr(complexes, "_ENTRIES", reached)
        assert faces.composes_to_zero(below, n) == oracle.composes_to_zero(faces, below, n)


def test_cells_of_one_block_never_pair_with_each_other():
    """Cell 0 reaches below-below cell 1 once and cell 1 reaches cell 0
    once: their keys must differ, or the two would pair up."""
    faces = Faces(np.array([0, 1, 2], dtype=np.int32), np.array([0, 1], dtype=np.int32))
    below = Faces(np.array([0, 1, 2], dtype=np.int32), np.array([1, 0], dtype=np.int32))
    assert not faces.composes_to_zero(below, 2)
    assert not oracle.composes_to_zero(faces, below, 2)


def _fc31_level2():
    return code_lattice(3, 9, holes=fractal_holes(FractalSpec(3, 3, 1, 2, holes="m")))


@pytest.mark.parametrize("reached", (2, 50, 1 << 14))
@pytest.mark.parametrize("k", (2, 3))
def test_dd_over_many_blocks_and_a_flip_in_the_last(monkeypatch, reached, k):
    """dd = 0 of FC(3,1) level 2 in blocks of one cell past the step (each
    cell reaches more than 2 entries), of a few cells, and in one block;
    removing the last cell's last face makes it nonzero in the last block
    only."""
    monkeypatch.setattr(complexes, "_ENTRIES", reached)
    cx = _fc31_level2()
    faces, below, n = cx.faces[k], cx.faces[k - 1], cx.n_cells(k - 2)
    assert faces.composes_to_zero(below, n)
    ptr = faces.ptr.copy()
    ptr[-1] -= 1
    flipped = Faces(ptr, faces.idx[:-1])
    assert not flipped.composes_to_zero(below, n)
    assert not oracle.composes_to_zero(flipped, below, n)


# -- punch masks --------------------------------------------------------------


def _masks(cx, holes):
    """`_punch_masks` on a built complex as `punch_holes` calls it: the
    deleted mask, the label codes and the label table, or the ValueError."""
    start = np.cumsum([0] + [cx.n_cells(k) for k in range(cx.dim + 1)])
    try:
        gone, codes, names = complexes._punch_masks(
            np.concatenate(cx.cells), np.concatenate(cx.labels), cx.label_names, start,
            cx.periods, cx.style, holes,
            lambda k, cells: (cx.faces[k].counts()[cells], cx.faces[k].take(cells)))
    except ValueError as err:
        return f"ValueError: {err}"
    return gone.tolist(), codes.tolist(), names


def _assert_masks_match_oracle(monkeypatch, cx, holes):
    got = _masks(cx, holes)
    with monkeypatch.context() as m:
        m.setattr(complexes, "_hole_hits", oracle.hole_hits)
        assert got == _masks(cx, holes)


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("holes", HOLES)
@pytest.mark.parametrize("background", ("open", "torus", "sphere"))
@pytest.mark.parametrize("name", FRACTALS)
def test_ladder_punch_masks_match_oracle(monkeypatch, name, background, holes, style):
    """In chunks of 2**10 cells, a few holes of the smallest shape per
    chunk (the default chunk never splits these complexes)."""
    monkeypatch.setattr(complexes, "_BLOCK", 1 << 10)
    spec = FractalSpec(*FRACTALS[name], background=background, holes=HOLES[holes])
    builder = code_lattice if style == "code" else build_lattice
    if (style, background) == ("code", "sphere"):  # the code style builds no sphere
        with pytest.raises(ValueError, match="unknown background 'sphere'"):
            builder(spec.n, spec.side, background)
        return
    _assert_masks_match_oracle(monkeypatch, builder(spec.n, spec.side, background),
                               fractal_holes(spec))


@pytest.mark.parametrize("seed", range(40))
def test_seeded_punch_masks_match_oracle(monkeypatch, seed):
    """The 40 seeded layouts in chunks of 5 cells: every scatter, gather
    and test then splits, and each chunk holds one hole."""
    monkeypatch.setattr(complexes, "_BLOCK", 5)
    style, n, L, background, holes = seeded_params(seed)
    builder = code_lattice if style == "code" else build_lattice
    _assert_masks_match_oracle(monkeypatch, builder(n, L, background), holes)


@pytest.mark.parametrize("name", ("fc31-l2", "fc42-l2", "fc31-4d-l1"))
def test_grid_matches_oracle(monkeypatch, name):
    """In chunks of 7 grid rows, so that the scatter splits."""
    monkeypatch.setattr(complexes, "_BLOCK", 7)
    spec = FractalSpec(*FRACTALS[name])
    for cx in (code_lattice(spec.n, spec.side), build_lattice(spec.n, spec.side, "torus")):
        boxes = np.concatenate(cx.cells)
        grid = complexes._MidpointGrid(boxes, cx.periods)
        want = oracle.GatherGrid(boxes, cx.periods)
        assert (grid.low, grid.reach) == (want.low, want.reach)
        assert np.array_equal(grid.rows, want.rows)
