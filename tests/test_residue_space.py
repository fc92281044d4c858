"""The row space of a residue with its weight-2 rows contracted
(`homology._RowSpace`) against the dense elimination it replaced
(`code_oracles.residue_rref`).

The rank, the membership of vectors, the kernel basis (the rows
`_kernel_rows` reads off the dense RREF, in order) and the rows picked as
independent of the row space and of the rows before them (the pivot columns
past the rows of the dense transposed stack [rows; candidates]) must agree
on the X and Z residues of the reduced chain complex of every code of
`test_code_reduction.CODES` (the FC ladder, the 40 seeded layouts, the tori
and the colour codes) and on random CSR rows rich in weight-2 rows:
repeated rows, cycles, rows whose fold cancels, isolated columns, no rows
and no columns.  The components are checked against a union-find loop, and
the logical basis the residues give against the dense route it replaced
(`code_oracles.stack_basis`).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fractalcss.homology as homology
from fractalcss.code import css_from_complex
from fractalcss.complexes import Faces, FractalSpec, fractal_complex
from fractalcss.gf2 import Gf2Vector, _kernel_rows, _rref_inplace, in_rowspace
from fractalcss.homology import _components, _RowSpace
from code_oracles import residue_rref, stack_basis
from test_code_reduction import CODES


def _probes(rows: Faces, cols: int, rng, count: int = 8) -> list[np.ndarray]:
    """0/1 vectors over the columns: sums of random rows (in the row
    space), the same with one bit flipped, and random vectors."""
    out = []
    for _ in range(count):
        pick = np.flatnonzero(rng.integers(0, 2, len(rows)))
        bits = np.zeros(cols, dtype=np.uint8)
        np.bitwise_xor.at(bits, rows.take(pick), 1)
        out.append(bits)
        if cols:
            flipped = bits.copy()
            flipped[rng.integers(cols)] ^= 1
            out.append(flipped)
        out.append(rng.integers(0, 2, cols).astype(np.uint8))
    return out


def _dense_independent(rows: Faces, candidates: Faces, cols: int) -> list[int]:
    """The candidates that are pivot columns of the transposed stack."""
    t = Faces.from_pairs(cols, np.concatenate((rows.idx, candidates.idx)), np.concatenate(
        (rows.owners(), candidates.owners() + len(rows)))).matrix(len(rows) + len(candidates))
    return [p - len(rows) for p in _rref_inplace(t.data, t.rows, t.cols) if p >= len(rows)]


def _assert_matches_dense(rows: Faces, cols: int, rng) -> None:
    space = _RowSpace(rows, cols)
    rref, pivots = residue_rref(rows, np.ones(len(rows), dtype=bool), np.ones(cols, dtype=bool))
    assert space.rank == len(pivots)
    probes = _probes(rows, cols, rng)
    for bits in probes:
        assert space.contains(bits) == in_rowspace(rref, pivots, Gf2Vector.from_dense(bits))
    kernel = space.kernel()
    assert kernel.matrix(cols) == _kernel_rows(rref, pivots)
    # the kernel rows (as the logical basis asks), then the probes, each
    # twice so a repeat is never independent
    bits = np.array(probes + probes, dtype=np.uint8).reshape(2 * len(probes), cols)
    for candidates in (kernel, Faces.from_pairs(len(bits), *np.nonzero(bits))):
        assert space.independent(candidates).tolist() == _dense_independent(rows, candidates, cols)


@pytest.mark.parametrize("name", sorted(CODES))
def test_residues_match_dense_oracle(name):
    rng = np.random.default_rng(sorted(CODES).index(name))
    for code in CODES[name]():
        red = code.reduction
        for rows, live in ((red.x_rows, red.live_x), (red.z_rows, red.live_z)):
            _assert_matches_dense(rows.restrict(live, red.live), int(red.live.sum()), rng)


@pytest.mark.parametrize("name", sorted(CODES))
def test_basis_matches_stack_oracle(name):
    """The same representatives, bit for bit, as the dense route."""
    for code in CODES[name]():
        for kind in "ZX":
            assert np.array_equal(code.reduction.basis(kind), stack_basis(code.reduction, kind))


def _union_find(n: int, a, b) -> list[int]:
    """Per column, the least column of its component."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y in zip(a, b):
        rx, ry = find(int(x)), find(int(y))
        parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


@st.composite
def weight_two_rich_rows(draw):
    """(CSR rows, columns): edges among a few columns (so repeats and
    cycles are common), copies of earlier rows, the sum of two earlier
    edges (a row whose fold cancels), empty rows and rows of 1-5 columns;
    columns no row reaches are isolated."""
    cols = draw(st.integers(0, 24))
    column = st.integers(0, max(cols - 1, 0))
    rows: list[list[int]] = []
    for _ in range(draw(st.integers(0, 30)) if cols else draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("edge", "edge", "edge", "copy", "cancel", "empty", "any")))
        edges = [r for r in rows if len(r) == 2]
        if not cols or kind == "empty":
            rows.append([])
        elif kind == "edge" and cols >= 2:
            rows.append(sorted(draw(st.lists(st.integers(0, min(cols, 6) - 1), min_size=2,
                                             max_size=2, unique=True))))
        elif kind == "copy" and rows:
            rows.append(draw(st.sampled_from(rows)))
        elif kind == "cancel" and edges:
            pair = draw(st.lists(st.sampled_from(edges), min_size=2, max_size=2))
            rows.append(sorted(set(pair[0]) ^ set(pair[1])))
        else:
            rows.append(sorted(set(draw(st.lists(column, min_size=1, max_size=5)))))
    owner = [r for r, row in enumerate(rows) for _ in row]
    return Faces.from_pairs(len(rows), owner, [c for row in rows for c in row]), cols


@settings(max_examples=300, deadline=None)
@given(weight_two_rich_rows(), st.integers(0, 2**32 - 1))
def test_random_rows_match_dense_oracle(rows_cols, seed):
    rows, cols = rows_cols
    _assert_matches_dense(rows, cols, np.random.default_rng(seed))
    two = rows.ptr[:-1][rows.counts() == 2]
    a, b = rows.idx[two], rows.idx[two + 1]
    component, n = _components(cols, a, b)
    least = _union_find(cols, a.tolist(), b.tolist())
    # numbered by least column, in order
    assert component.tolist() == np.unique(least, return_inverse=True)[1].tolist()
    assert n == len(set(least))


def test_components_of_a_path_and_a_star():
    # a path numbered against its order, and a star whose centre is the
    # largest column: a few rounds of hooking each
    path = np.array([5, 3, 0, 4, 1, 2])
    component, n = _components(7, path[:-1], path[1:])
    assert (component.tolist(), n) == ([0, 0, 0, 0, 0, 0, 1], 2)
    component, n = _components(6, np.full(4, 5), np.arange(1, 5))
    assert (component.tolist(), n) == ([0, 1, 1, 1, 1, 1], 2)


def test_fc31_level3_z_residue_eliminates_no_row(monkeypatch):
    """FC(3,1) level 3, m-holes: the Z residue, 8,384 checks on 512
    qubits, has 7,608 empty rows and 776 weight-2 rows joining every qubit
    into one component, so no row is folded and k is read off with no
    elimination (the X residue, no check on the 512 qubits, has no bit to
    eliminate)."""
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 3, holes="m"), "code"), 1)
    red = code.reduction
    z = red.z_rows.restrict(red.live_z, red.live)
    assert (len(z), int(red.live.sum())) == (8384, 512)
    assert np.bincount(z.counts()).tolist() == [7608, 0, 776]
    shapes = []
    real = homology._rref_inplace

    def spy(data, rows, cols):
        shapes.append((rows, cols))
        return real(data, rows, cols)

    monkeypatch.setattr(homology, "_rref_inplace", spy)
    assert red.k == 1
    assert shapes == []


def test_an_empty_residue():
    for rows, cols in ((Faces.empty(0), 0), (Faces.empty(3), 0), (Faces.empty(2), 4)):
        space = _RowSpace(rows, cols)
        assert space.rank == 0 and (space.reduced.rows, space.reduced.cols) == (0, cols)
        assert space.contains(np.zeros(cols, dtype=np.uint8))
        assert not cols or not space.contains(np.eye(cols, dtype=np.uint8)[0])


def test_folded_rows():
    # rows {0,1} and {2,3} join two components; {0,2,4} and {1,3,4} each
    # fold onto those two and the isolated column 4, so they fold to one
    # row twice; {0,1,2,3} folds to no row and is dropped
    rows = Faces.from_pairs(5, [0, 0, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4],
                            [0, 1, 2, 3, 0, 2, 4, 1, 3, 4, 0, 1, 2, 3])
    space = _RowSpace(rows, 5)
    assert space.component.tolist() == [0, 0, 1, 1, 2]
    assert space.reduced.to_dense().tolist() == [[1, 1, 1], [0, 0, 0]]
    assert space.rank == 5 - 3 + 1 == len(rows.matrix(5).rref()[1])
