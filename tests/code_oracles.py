"""Test-only oracles of the code construction.

``check_matrices`` is the route `code.css_from_complex` took while a code
stored dense check matrices: (row, qubit) entries of every anchor cell
(`_support`), the rows without entries and the redundant M rows
(`drop_redundant_m_rows`, on the dense H_Z) dropped, and the kept rows
renumbered into a `Gf2Matrix` (`_kept_rows`).  The helpers are kept
verbatim; the CSR checks of a code must give the same matrices bit for
bit.

``checks_of`` turns a dense matrix into the CSR rows `CssCode` takes.

``residue_rref`` is the dense elimination `code._ChainReduction` ran on
each residue of a code's reduced chain complex before
`homology._RowSpace` contracted its weight-2 rows: the residue's rows as a
`Gf2Matrix` over the live qubits, reduced by `_rref_inplace`.

``merge_total`` and ``merge_parity`` are the dense parity identity of
`gates.merge_rough` as it ran before it asked the chain reduction: the
interface rows of the dense H_X, the blocks' logical X embedded through a
dict of boxes, and membership by `submatrix` + `rref` + `in_rowspace` of
the other rows.  ``is_z_stabilizer`` is the dense membership the colour-code
S check ran on the whole H_Z.
"""

from __future__ import annotations

import numpy as np

from fractalcss.code import CssCode, logical_basis
from fractalcss.complexes import CellComplex, Faces, label_is_e, label_is_m
from fractalcss.gf2 import Gf2Matrix, Gf2Vector, _rref_inplace, in_rowspace


def checks_of(m: Gf2Matrix) -> Faces:
    """The set columns of each row of m."""
    return Faces.from_pairs(m.rows, *m.entries())


def residue_rref(rows: Faces, keep_rows, keep_cols) -> tuple[Gf2Matrix, list[int]]:
    """The RREF of the check matrix `rows` restricted to the kept rows and
    columns."""
    m = rows.restrict(keep_rows, keep_cols).matrix(int(keep_cols.sum()))
    return m, _rref_inplace(m.data, m.rows, m.cols)


def check_matrices(cx: CellComplex, i: int) -> tuple[Gf2Matrix, Gf2Matrix]:
    """H_X and H_Z of the (i, n-i) code of a labeled complex, built dense."""
    x_anchor, qubit, z_anchor = (~cx.label_mask(k, label_is_e) for k in (i - 1, i, i + 1))
    qubit_of = np.cumsum(qubit) - 1
    x_r, x_c = _support(cx.cofaces(i - 1), x_anchor, qubit, qubit_of)
    z_r, z_c = _support(cx.faces[i + 1], z_anchor, qubit, qubit_of)
    n_qubits, n_x, n_z = int(qubit.sum()), int(x_anchor.sum()), int(z_anchor.sum())
    m_anchor = cx.label_mask(i + 1, label_is_m)[z_anchor]
    keep_x = np.bincount(x_r, minlength=n_x) > 0
    keep_z = np.bincount(z_r, minlength=n_z) > 0
    if m_anchor.any():
        all_z = Gf2Matrix.from_entries(n_z, n_qubits, np.column_stack((z_r, z_c)))
        keep_z &= np.isin(np.arange(n_z), drop_redundant_m_rows(all_z, m_anchor))
    return _kept_rows(x_r, x_c, keep_x, n_qubits), _kept_rows(z_r, z_c, keep_z, n_qubits)


def drop_redundant_m_rows(hz: Gf2Matrix, m_anchor: list[bool]) -> list[int]:
    """Row indices to keep: all non-M rows, plus every M row independent of
    the rows before it when the non-M rows come first.  Such a row is a
    pivot column of the transpose in that row order."""
    if not any(m_anchor):
        return list(range(hz.rows))
    order = sorted(range(hz.rows), key=lambda r: m_anchor[r])
    t = Gf2Matrix(hz.rows, hz.cols, hz.data[order]).transpose()
    pivots = _rref_inplace(t.data, t.rows, t.cols)
    independent_m = [order[p] for p in pivots if m_anchor[order[p]]]
    return sorted([r for r in range(hz.rows) if not m_anchor[r]] + independent_m)


def _support(lists: Faces, anchor, qubit, qubit_of) -> tuple[np.ndarray, np.ndarray]:
    """(row, qubit) entries of the checks: row r belongs to the r-th anchor
    cell, its support is the qubit cells among that cell's entries of
    `lists` (its cofaces for X checks, its faces for Z checks)."""
    own = lists.owners()
    sel = anchor[own] & qubit[lists.idx]
    return (np.cumsum(anchor) - 1)[own[sel]], qubit_of[lists.idx[sel]]


def _kept_rows(rows, cols, keep, n_cols) -> Gf2Matrix:
    """The check matrix of the kept rows, renumbered in order."""
    sel = keep[rows]
    entries = np.column_stack(((np.cumsum(keep) - 1)[rows[sel]], cols[sel]))
    return Gf2Matrix.from_entries(int(keep.sum()), n_cols, entries)


def _box(rows) -> tuple:
    return tuple(map(tuple, rows))


def merge_total(a: CssCode, b: CssCode, merged: CssCode, interface_rows) -> Gf2Vector:
    """The product of the merged code's interface X rows and the first
    logical X of each block: b's qubits found by their boxes, a's by their
    boxes lifted onto b along the rough axis."""
    axis = {int(lb[2:]) // 2 for lb in b.source.labels_present() if lb.startswith("oE")}.pop()
    lift = np.zeros((b.source.dim, 2), dtype=np.int64)
    lift[axis] = int(b.source.cells[0][:, axis, 1].max())
    g = merged.grading
    qpos = {_box(box): q for q, box in
            enumerate(merged.source.cells[g][merged.qubit_cells].tolist())}
    total = Gf2Vector(merged.n_qubits)
    for r in interface_rows:
        total ^= merged.hx.row(r)
    for code, shift in ((a, lift), (b, 0)):
        x = logical_basis(code)[1][0].x_support
        boxes = code.source.cells[g][np.asarray(code.qubit_cells)[x.indices()]] + shift
        total ^= Gf2Vector.from_indices(merged.n_qubits, [qpos[_box(bx)] for bx in boxes.tolist()])
    return total


def merge_parity(merged: CssCode, interface_rows, total: Gf2Vector) -> bool:
    """Whether `total` is in the row space of the merged H_X without the
    interface rows."""
    old_rows = [r for r in range(merged.hx.rows) if r not in set(interface_rows)]
    old_hx = merged.hx.submatrix(old_rows, range(merged.hx.cols))
    rref, pivots = old_hx.rref()
    return in_rowspace(rref, pivots, total)


def is_z_stabilizer(code: CssCode, support: Gf2Vector) -> bool:
    """Whether the support is in the row space of the whole H_Z."""
    return in_rowspace(*code.hz.rref(), support)
