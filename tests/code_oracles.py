"""Test-only oracles of the code construction.

``check_matrices`` is the route `code.css_from_complex` took while a code
stored dense check matrices: (row, qubit) entries of every anchor cell
(`_support`), the rows without entries and the redundant M rows
(`drop_redundant_m_rows`, on the dense H_Z) dropped, and the kept rows
renumbered into a `Gf2Matrix` (`_kept_rows`).  The helpers are kept
verbatim; the CSR checks of a code must give the same matrices bit for
bit.

``drop_redundant_m_rows`` is also the dense smooth-patch rule that
`code.css_from_complex` ran (as `_drop_redundant_m_rows`, on CSR rows)
until the rule moved to the residue of the non-M checks' chain reduction.

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

``logical_basis`` is the dense route `code.logical_basis` took before it
read the code's chain reduction: H_X and H_Z built from the checks and
eliminated whole, the representatives of each quotient picked by
``quotient_reps`` (with ``leading_bit`` and ``reduce``, the helper
`gf2.in_rowspace` has since absorbed), then the same symplectic
Gram-Schmidt.  Kept verbatim.

``stack_basis`` is `code._ChainReduction.basis` as it ran before the
residue's `_RowSpace` gave the kernel and the independent rows: the kernel
rows of the residue's dense cut matrix, picked by one elimination of the
transposed stack [residue's span matrix; kernel rows] over the live
qubits, then the same lift.  Kept verbatim.
"""

from __future__ import annotations

import numpy as np

from fractalcss.code import CssCode, PauliOperator
from fractalcss.complexes import CellComplex, Faces, label_is_e, label_is_m
from fractalcss.gf2 import (
    _CHUNK_WORDS, Gf2Matrix, Gf2Vector, _kernel_rows, _rref_inplace, _unpack, in_rowspace,
)


def checks_of(m: Gf2Matrix) -> Faces:
    """The set columns of each row of m."""
    return Faces.from_pairs(m.rows, *m.entries())


def residue_rref(rows: Faces, keep_rows, keep_cols) -> tuple[Gf2Matrix, list[int]]:
    """The RREF of the check matrix `rows` restricted to the kept rows and
    columns."""
    m = rows.restrict(keep_rows, keep_cols).matrix(int(keep_cols.sum()))
    return m, _rref_inplace(m.data, m.rows, m.cols)


def stack_basis(red, kind: str) -> np.ndarray:
    """The k representatives `red.basis(kind)` returns, as 0/1 rows over all
    qubits, by the dense elimination of the residue's cut matrix and of the
    transposed stack [residue's span matrix; kernel rows]."""
    z = kind == "Z"
    cut, span = (red.x_rows, red.z_rows) if z else (red.z_rows, red.x_rows)
    cut_live, span_live = (red.live_x, red.live_z) if z else (red.live_z, red.live_x)
    n = int(red.live.sum())
    m = cut.restrict(cut_live, red.live).matrix(n)
    cycles = _kernel_rows(m, _rref_inplace(m.data, m.rows, n))
    span = span.restrict(span_live, red.live)
    r, c = cycles.entries()
    t = Faces.from_pairs(n, np.concatenate((span.idx, c)), np.concatenate(
        (span.owners(), r + len(span)))).matrix(len(span) + cycles.rows)
    picked = [p - len(span) for p in _rref_inplace(t.data, t.rows, t.cols) if p >= len(span)]
    bits = np.zeros((len(picked), len(red.live)), dtype=np.uint8)
    bits[:, red.live] = _unpack(cycles.data[picked], n)
    for qubits, checks in reversed(red.x_rounds if z else red.z_rounds):
        sizes = cut.counts()[checks]  # at least 1: a check holds its paired qubit
        bits[:, qubits] ^= np.bitwise_xor.reduceat(
            bits[:, cut.take(checks)], np.cumsum(sizes) - sizes, axis=1)
    return bits


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


def logical_basis(code: CssCode) -> tuple[list[PauliOperator], list[PauliOperator]]:
    """k Z-type and k X-type logical representatives, symplectically paired.

    Z-logicals span ker(H_X) / rowspace(H_Z), X-logicals span
    ker(H_Z) / rowspace(H_X); a greedy symplectic Gram-Schmidt with fixed
    qubit ordering normalizes the pairing matrix to the identity, so the
    basis is deterministic.  H_X and H_Z are built from the checks and
    eliminated in place on each call; the code keeps neither.
    """
    hx, hz = (checks.matrix(code.n_qubits) for checks in (code.x_checks, code.z_checks))
    hx, hz = ((m, _rref_inplace(m.data, m.rows, m.cols)) for m in (hx, hz))
    z_reps = quotient_reps(hx, hz)
    x_reps = quotient_reps(hz, hx)
    if len(z_reps) != len(x_reps):
        raise AssertionError(
            f"{len(z_reps)} Z-logicals but {len(x_reps)} X-logicals: the checks are inconsistent"
        )
    k = len(z_reps)
    if k == 0:
        return [], []

    # the reps' packed rows and their pairing parities z_a . x_b
    z, x = np.array([v.data for v in z_reps]), np.array([v.data for v in x_reps])
    pair = np.array([np.bitwise_count(x & row).sum(axis=1) & 1 for row in z], dtype=np.uint8)
    for t in range(k):
        odd = np.argwhere(pair[t:, t:])  # in row-major order
        if not len(odd):
            raise AssertionError("symplectic pairing is singular")
        r, c = odd[0] + t
        z[[t, r]], pair[[t, r]] = z[[r, t]], pair[[r, t]]
        x[[t, c]], pair[:, [t, c]] = x[[c, t]], pair[:, [c, t]]
        rows, cols = pair[:, t] == 1, pair[t] == 1
        rows[t] = cols[t] = False
        z[rows] ^= z[t]
        pair[rows] ^= pair[t]
        x[cols] ^= x[t]
        pair[:, cols] ^= pair[:, [t]]
    if (pair != np.eye(k, dtype=np.uint8)).any():
        raise AssertionError("symplectic pairing did not reduce to the identity")
    return (
        [PauliOperator.z_type(Gf2Vector(code.n_qubits, row)) for row in z],
        [PauliOperator.x_type(Gf2Vector(code.n_qubits, row)) for row in x],
    )


def quotient_reps(check, span) -> list[Gf2Vector]:
    """Representatives of ker(A) modulo rowspace(B), given the (R, pivots)
    eliminations `check` of A and `span` of B.

    Each kernel vector in turn is reduced by the RREF of B and then by the
    representatives chosen so far; it is chosen when it stays nonzero.
    Both reductions XOR the rows picked by the vector's bits at pivot
    columns (see `reduce`), the first for all kernel vectors at once;
    the chosen ones are kept reduced at their lowest bits for the second.
    The result is the one vector of its coset with no bit at any pivot.
    """
    span_rref, span_pivots = span
    K = _kernel_rows(*check)
    pivot_row = np.full(K.cols, -1)
    pivot_row[span_pivots] = np.arange(len(span_pivots))
    t, c = K.entries()
    at = pivot_row[c] >= 0
    t, i = t[at], pivot_row[c[at]]
    step = max(1, _CHUNK_WORDS // K.data.shape[1])
    for s in range(0, len(t), step):
        np.bitwise_xor.at(K.data, t[s : s + step], span_rref.data[i[s : s + step]])
    chosen: list[Gf2Vector] = []
    basis = np.zeros((0, K.data.shape[1]), dtype=np.uint64)
    leads = np.zeros(0, dtype=np.int64)
    for w in K.data[K.data.any(axis=1)]:
        w = reduce(basis, leads, w)
        if w.any():
            lead = leading_bit(w)
            basis[(basis[:, lead >> 6] >> np.uint64(lead & 63)) & np.uint64(1) != 0] ^= w
            basis = np.vstack([basis, w])
            leads = np.append(leads, lead)
            chosen.append(Gf2Vector(K.cols, w))
    return chosen


def leading_bit(words: np.ndarray) -> int:
    """The lowest set bit of a nonzero packed vector."""
    first = int(np.flatnonzero(words)[0])
    word = int(words[first])
    return (first << 6) + (word & -word).bit_length() - 1


def reduce(reduced: np.ndarray, pivots: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The packed vector `words` with the pivot rows of an RREF (`reduced`,
    pivot row i first set at column ``pivots[i]``) XORed out, one row for
    each pivot column where `words` has a bit.

    A pivot column is a unit column of the RREF, so XORing one pivot row
    changes no bit of `words` at another pivot: the rows to XOR are read off
    `words` once, and the result is zero exactly when `words` lies in the
    row space.
    """
    at = (words[pivots >> 6] >> (pivots & 63).astype(np.uint64)) & np.uint64(1) != 0
    rows = reduced[: len(pivots)][at, : len(words)]
    return words ^ np.bitwise_xor.reduce(rows, axis=0)
