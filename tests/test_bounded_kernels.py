"""The bounded CSR, punch and construction kernels against the kernels
they replaced.

`complexes._ranges` builds one full-length array (its result) and adds
the positions a block of `_ENTRIES` at a time, `Faces.transpose` keeps
int32 cofaces while the counts fit and places a block of about
`_ENTRIES` entries at a time, `Faces.composes_to_zero` works in
blocks that reach about `_ENTRIES` entries, and `_MidpointGrid` and
`_hole_hits` place the grid's cells, gather the holes of one shape and
test the pairs in blocks of `_ENTRIES`.  The oracles are the kernels
before (`complex_oracles.ranges`, `transpose`, `composes_to_zero`,
`GatherGrid` and `hole_hits`); each kernel must give the same values, and
the punch the same masks and label codes, or the same ValueError.

The lattice's face tables are built in the index width a block of kept
cells at a time (`_Lattice.faces` / `kept_faces`), a code's X checks
transpose the qubits' anchor faces and `dual_with_boundary` assembles each
grade's CSR from the cofaces it reads.  The routes before, the int64 table
of every kept cell (`complex_oracles.lattice_faces` / `kept_faces`), the
checks restricted from the whole complex's cofaces
(`code_oracles.css_from_complex`) and the dual from sorted pairs
(`complex_oracles.dual_from_pairs`), must give the same arrays on the
ladder, the 40 seeded layouts, the audit seeds 0-99, the tori and the
spheres.  `_ENTRIES` is shrunk to a few entries in most cases, so that
blocks and chunks split everywhere.
"""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import code_oracles as code_oracle
import complex_oracles as oracle
from fractalcss import complexes
from fractalcss.code import css_from_complex
from fractalcss.complexes import (
    Faces,
    FractalSpec,
    _ranges,
    build_lattice,
    code_lattice,
    dual_with_boundary,
    fractal_complex,
    fractal_holes,
)
from test_arrays import audit_layout, seeded_params
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
    monkeypatch.setattr(complexes, "_ENTRIES", 1 << 10)
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
    monkeypatch.setattr(complexes, "_ENTRIES", 5)
    style, n, L, background, holes = seeded_params(seed)
    builder = code_lattice if style == "code" else build_lattice
    _assert_masks_match_oracle(monkeypatch, builder(n, L, background), holes)


@pytest.mark.parametrize("name", ("fc31-l2", "fc42-l2", "fc31-4d-l1"))
def test_grid_matches_oracle(monkeypatch, name):
    """In chunks of 7 grid rows, so that the scatter splits."""
    spec = FractalSpec(*FRACTALS[name])
    lattices = (code_lattice(spec.n, spec.side), build_lattice(spec.n, spec.side, "torus"))
    monkeypatch.setattr(complexes, "_ENTRIES", 7)
    for cx in lattices:
        boxes = np.concatenate(cx.cells)
        grid = complexes._MidpointGrid(boxes, cx.periods)
        want = oracle.GatherGrid(boxes, cx.periods)
        assert (grid.low, grid.reach) == (want.low, want.reach)
        assert np.array_equal(grid.rows, want.rows)


# -- the lattice's face tables, the code's checks and the dual ----------------


def _outcome(build):
    """The complex `build` returns, or the message of its ValueError."""
    try:
        return build()
    except ValueError as err:
        return f"ValueError: {err}"


def _arrays(cx) -> list[np.ndarray]:
    return [*cx.cells, *cx.labels, *(a for f in cx.faces for a in (f.ptr, f.idx))]


def _code_arrays(code) -> list[np.ndarray]:
    return [code.x_checks.ptr, code.x_checks.idx, code.z_checks.ptr, code.z_checks.idx,
            code.qubit_cells, code.x_anchor_cells]


def _assert_same_arrays(got: list[np.ndarray], want: list[np.ndarray], dtypes: bool = True):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a, b) and (a.dtype == b.dtype or not dtypes)


def _assert_routes_match(monkeypatch, build, entries: int):
    """`build` with `_ENTRIES` patched to `entries`, its codes at every
    grading and its dual, against the build through the parent's face
    tables (`complex_oracles.lattice_faces` and `kept_faces`), its codes
    from the unrestricted cofaces (`code_oracles.css_from_complex`) and its
    dual from sorted pairs (`complex_oracles.dual_from_pairs`): every array
    equal, and the same ValueError where the build raises."""
    with monkeypatch.context() as m:
        m.setattr(complexes._Lattice, "faces", oracle.lattice_faces)
        m.setattr(complexes._Lattice, "kept_faces", oracle.kept_faces)
        want = _outcome(build)
    with monkeypatch.context() as m:
        m.setattr(complexes, "_ENTRIES", entries)
        got = _outcome(build)
        if isinstance(want, str):
            assert got == want
            return
        assert (got.label_names, got.holes, got.periods) == (want.label_names, want.holes,
                                                            want.periods)
        _assert_same_arrays(_arrays(got), _arrays(want))
        for i in range(1, got.dim):
            code, ref = css_from_complex(got, i), code_oracle.css_from_complex(want, i)
            assert code.n_qubits == ref.n_qubits
            _assert_same_arrays(_code_arrays(code), _code_arrays(ref))
        dual = _outcome(lambda: dual_with_boundary(got))
        ref = _outcome(lambda: oracle.dual_from_pairs(want))
        if isinstance(ref, str):  # labels not closed under the boundary (a punched sphere)
            assert "boundary of boundary nonzero" in ref
            assert re.fullmatch(r"ValueError: labelled patch h[EM]\d+ is not closed under the "
                                r"boundary: grade-\d cell \d+ has face \d+ labelled \w+", dual)
            return
        assert (dual.label_names, dual.background, dual.style) == (ref.label_names,
                                                                    ref.background, ref.style)
        _assert_same_arrays(_arrays(dual), _arrays(ref), dtypes=False)


@pytest.mark.parametrize("style", ("plain", "code"))
@pytest.mark.parametrize("holes", HOLES)
@pytest.mark.parametrize("background", ("open", "torus", "sphere"))
@pytest.mark.parametrize("name", FRACTALS)
def test_ladder_routes_match_oracle(monkeypatch, name, background, holes, style):
    spec = FractalSpec(*FRACTALS[name], background=background, holes=HOLES[holes])
    _assert_routes_match(monkeypatch, lambda: fractal_complex(spec, style), 64)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_routes_match_oracle(monkeypatch, seed):
    style, n, L, background, holes = seeded_params(seed)
    builder = code_lattice if style == "code" else build_lattice
    _assert_routes_match(monkeypatch, lambda: builder(n, L, background, holes=holes), 7)


@pytest.mark.parametrize("seed", range(100))
def test_audit_routes_match_oracle(monkeypatch, seed):
    _assert_routes_match(monkeypatch, lambda: audit_layout(seed)[0], 7)


@pytest.mark.parametrize("L", (1, 2, 3))
@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("build", ("plain torus", "sphere", "code torus"))
def test_tori_and_spheres_routes_match_oracle(monkeypatch, build, n, L):
    """Period 1 (L = 1) holds faces twice: they cancel, and the kept
    faces' arrays are trimmed."""
    if build == "code torus":
        if L < 2:
            return
        _assert_routes_match(monkeypatch, lambda: code_lattice(n, L, "torus"), 5)
    else:
        background = build.split()[-1]
        _assert_routes_match(monkeypatch, lambda: build_lattice(n, L, background), 5)
