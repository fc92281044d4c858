"""Stabilizer membership of the merge's parity identity and of the
colour-code S check, through the chain reduction.

`merge_rough` asks the reduction of the merged code's old X checks whether
the product of the interface rows and the two embedded logical X is a
product of old checks; the S check asks `code.reduction` whether each
leftover is a product of Z checks.  Each first tests the syndrome, since a
vector with a syndrome lies in no span of checks.  The oracles are the
dense routes they replaced (`code_oracles.merge_total` / `merge_parity`,
`code_oracles.is_z_stabilizer`).
"""

import hashlib

import numpy as np
import pytest

import fractalcss.gf2 as gf2
import fractalcss.homology as homology
from fractalcss.code import (
    CssCode, _ChainReduction, _syndrome_free, code_to_text, css_from_complex, logical_basis,
)
from fractalcss.colorcode import build_color_code_2d, check_transversal_s_colorcode
from fractalcss.complexes import FractalSpec, code_lattice, fractal_complex
from fractalcss.gates import _old_x_stabilizer, merge_rough
from fractalcss.gf2 import Gf2Vector
from code_oracles import is_z_stabilizer, merge_parity, merge_total


def _fc(p, q, level):
    return css_from_complex(fractal_complex(FractalSpec(3, p, q, level, holes="m"), "code"), 1)


def _lattice(dim, L):
    return css_from_complex(code_lattice(dim, L), 1)


MERGES = {
    "3d-L2": lambda: _lattice(3, 2),
    "3d-L3": lambda: _lattice(3, 3),
    "3d-L4": lambda: _lattice(3, 4),
    "fc31-l1": lambda: _fc(3, 1, 1),
    "fc42-l1": lambda: _fc(4, 2, 1),
    "fc31-l2": lambda: _fc(3, 1, 2),
    "4d-L2": lambda: _lattice(4, 2),
}

# (interface rows, sha256 prefix of the merged code's csscode v1 text, its
# holes and its cells' boxes and labels), as the box-dict matching of the
# patches built them
MERGED_SHA256 = {
    "3d-L2": (4, "1130aa8727b2b7ab"),
    "3d-L3": (9, "95bdc143176fe38a"),
    "3d-L4": (16, "a94af720a6f81a99"),
    "fc31-l1": (9, "839a4c07ee235fd9"),
    "fc42-l1": (16, "855d2dba719694f0"),
    "fc31-l2": (81, "bec734d32cf7c012"),
    "4d-L2": (8, "cd9448186ba2ba8b"),
}


def _merged_digest(merged: CssCode) -> str:
    h = hashlib.sha256(code_to_text(merged).encode())
    holes = merged.source.holes
    h.update(repr([(x.hole_id, x.box, x.kind, x.level) for x in holes]).encode())
    for cells, labels in zip(merged.source.cells, merged.source.labels):
        h.update(cells.tobytes())
        h.update(labels.tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(MERGES))
def test_merge_parity_matches_dense_oracle(name):
    a, b = MERGES[name](), MERGES[name]()
    result = merge_rough(a, b)
    merged, rows = result.merged, result.interface_x_rows
    assert (len(rows), _merged_digest(merged)) == MERGED_SHA256[name]
    assert result.k_merged == 1

    total = merge_total(a, b, merged, rows)
    assert merge_parity(merged, rows, total) is True
    assert result.parity_identity is True
    assert _old_x_stabilizer(merged, rows, total) is True
    # one interface row too many: no product of old checks, by both routes
    probe = total ^ Gf2Vector.from_indices(merged.n_qubits, merged.x_checks[rows[0]])
    assert merge_parity(merged, rows, probe) is False
    assert _old_x_stabilizer(merged, rows, probe) is False


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_s_check_membership_matches_dense_oracle(L):
    cc = build_color_code_2d(L)
    code = cc.code
    assert check_transversal_s_colorcode(cc).all_pass
    zs, xs = logical_basis(code)

    def route(v):
        return _syndrome_free(code.x_checks, v) and code.reduction.is_z_stabilizer(v)

    for i in range(2):
        leftover = xs[i].x_support ^ zs[1 - i].z_support
        flipped = leftover ^ Gf2Vector.from_indices(code.n_qubits, [L])
        # syndrome-free, but a logical Z away from the stabilizers
        shifted = leftover ^ zs[i].z_support
        for v, want in ((leftover, True), (flipped, False), (shifted, False)):
            assert is_z_stabilizer(code, v) is want
            assert route(v) is want


def _rref_shapes(monkeypatch) -> list[tuple[int, int]]:
    """The (rows, cols) of every elimination from now on."""
    shapes = []
    real = gf2._rref_inplace

    def spy(data, rows, cols):
        shapes.append((rows, cols))
        return real(data, rows, cols)

    for module in (gf2, homology):
        monkeypatch.setattr(module, "_rref_inplace", spy)
    return shapes


def _residue_shapes(red: _ChainReduction) -> tuple[tuple[int, int], tuple[int, int]]:
    """The (rows, cols) that the X and the Z residue eliminate: their rows
    folded onto the components of their weight-2 rows."""
    return tuple((space.reduced.rows, space.reduced.cols) for space in (red.x_space, red.z_space))


def test_merge_builds_no_dense_merged_checks(monkeypatch):
    """FC(3,1) level 2: the merge asks no code for its dense H_X or H_Z
    and eliminates no matrix with as many rows or columns as a block or the
    merged code has qubits; the blocks' logical bases eliminate only their
    residues."""
    built = []
    for name in ("hx", "hz"):
        view = CssCode.__dict__[name]

        def spy(self, view=view):
            built.append(self)
            return view.func(self)

        monkeypatch.setattr(CssCode, name, property(spy))
    shapes = _rref_shapes(monkeypatch)
    a, b = _fc(3, 1, 2), _fc(3, 1, 2)
    shapes.clear()
    result = merge_rough(a, b)
    merged = result.merged
    assert result.parity_identity and result.k_merged == 1
    assert not built
    n = min(a.n_qubits, b.n_qubits, merged.n_qubits)
    assert shapes and all(max(shape) < n for shape in shapes)
    assert all(rows != len(merged.x_checks) - len(result.interface_x_rows) for rows, _ in shapes)
    assert a.hx.rows and built == [a]  # the spy sees a dense view that is asked for


def test_merge_eliminates_no_z_residue(monkeypatch):
    """FC(3,1) level 2: the merge's parity identity asks only whether a
    vector is a product of the old X checks, so its chain reduction builds
    the row space of the X residue (no X check left on 1,104 qubits, so
    nothing to eliminate) and never that of the Z residue (1,456 x 1,104,
    which folds to 480 x 320)."""
    a, b = _fc(3, 1, 2), _fc(3, 1, 2)
    built = []  # (rows, cols) of each residue whose row space is built
    init = homology._RowSpace.__init__

    def spy(self, rows, cols):
        built.append((len(rows), cols))
        init(self, rows, cols)

    monkeypatch.setattr(homology._RowSpace, "__init__", spy)
    shapes = _rref_shapes(monkeypatch)
    result = merge_rough(a, b)
    seen, spaces = list(shapes), list(built)
    merged = result.merged
    old = np.bincount(result.interface_x_rows, minlength=len(merged.x_checks)) == 0
    x_checks = merged.x_checks.restrict(old, np.ones(merged.n_qubits, dtype=bool))
    red = _ChainReduction(x_checks, merged.z_checks, merged.n_qubits)
    assert (int(red.live_x.sum()), int(red.live_z.sum()), int(red.live.sum())) == (0, 1456, 1104)
    x_shape, z_shape = _residue_shapes(red)
    assert (x_shape, z_shape) == ((0, 1104), (480, 320))
    assert (0, 1104) in spaces and (1456, 1104) not in spaces
    assert x_shape not in seen and z_shape not in seen


@pytest.mark.parametrize("query, kind", [("is_x_stabilizer", "X"), ("is_z_stabilizer", "Z")])
def test_chain_reduction_eliminates_only_the_residue_asked(monkeypatch, query, kind):
    """An X-only query builds the row space of the X residue alone, a
    Z-only query that of the Z residue alone, and k then builds the other
    one once.  Only the Z residue has a bit to eliminate."""
    code = _fc(3, 1, 2)
    # the X residue has no check on 64 qubits; the Z residue's 280 checks
    # fold to none over one component
    x_shape, z_shape = _residue_shapes(
        _ChainReduction(code.x_checks, code.z_checks, code.n_qubits))
    assert (x_shape, z_shape) == ((0, 64), (0, 1))
    shapes = _rref_shapes(monkeypatch)
    red = _ChainReduction(code.x_checks, code.z_checks, code.n_qubits)
    assert shapes == []
    for _ in range(2):
        assert getattr(red, query)(Gf2Vector(code.n_qubits))
    assert [name for name in ("x_space", "z_space") if name in vars(red)] == [f"{kind.lower()}_space"]
    assert shapes == ([] if kind == "X" else [z_shape])
    assert red.k == 1
    assert "x_space" in vars(red) and "z_space" in vars(red)
    assert shapes == [z_shape]
