"""Test-only helpers: reads of the array-backed cells, and the oracles.

The oracles are the tuple-and-dict implementation of ``complexes`` that
stored a ``Cell`` object (tuple box, label string) per cell and a sorted
face tuple per cell: the lattice builder with ``_faces_of_box`` and
``_mod2``, the set-parity ``assert_dd_zero``, and the dict-remap
``delete``, ``quotient_to_point`` and ``dual_with_boundary``.  They are
kept verbatim; the array implementation must write the same
``cellcomplex v1`` bytes.  ``from_arrays`` reads any complex into the
oracle representation through that text.

The dense Betti numbers are the oracle of ``homology.betti``: they rank
the boundary matrices of the whole (quotient) complex, as ``betti`` did
before it reduced the complex first.  The dense ``cobetti`` is the oracle
of ``homology.cobetti``, verbatim from before it reduced the cochain
complex.

The remaining helpers have no caller in the package: the dense boundary
matrix of an array-backed complex, the Euler characteristic, a matrix
from row vectors, a row weight, ``delete_indexed``, which gives the
array ``delete`` the oracle's arguments (index sets and a relabel dict),
and ``relative_faces``, the face arrays of a relative chain complex
renumbered as a copy (``CellComplex.relative_faces`` until the package
reduced its relative complexes in place).

The two-step build is the oracle of the one-construction
``fractal_complex``: the whole lattice as an int64 ``CellComplex`` with
its own dd = 0 check (``array_code_lattice`` / ``array_build_lattice``),
then ``punch_per_hole``, which runs the midpoint tests one hole at a time
on the cells of the grid block around each hole (``_MidpointGrid.near``)
and hands the masks to ``CellComplex.delete``.  They are kept verbatim
from the package before it built the punched complex in one construction;
``Faces.from_table``, which only they use, is ``_faces_from_table`` here.

The CSR kernels ``ranges``, ``transpose`` and ``composes_to_zero``, and
the punch's ``GatherGrid`` and ``hole_hits``, are the oracles of
``complexes._ranges``, ``Faces.transpose``, ``Faces.composes_to_zero``,
``_MidpointGrid`` and ``_hole_hits``, kept verbatim from before those
worked in bounded blocks and kept indices in the width of their faces:
three full-length temporaries per range set, int64 cofaces always, blocks
of 65,536 cells, and a grid and a gather each built in one piece.

``lattice_faces`` and ``kept_faces`` are ``_Lattice.faces`` and
``_Lattice.kept_faces`` (taking the lattice first) from before the face
tables were built in the index width a block of kept cells at a time: one
int64 table of every kept cell's faces, renumbered in one gather.
``dual_from_pairs`` is ``dual_with_boundary`` from before it assembled
each grade's CSR from the cofaces it reads: the cofaces of every grade,
and each dual grade's (cell, face) pairs sorted by ``Faces.from_pairs``.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from fractalcss.complexes import (
    BULK,
    Box,
    Faces,
    FractalSpec,
    Hole,
    _check_e_patches,
    _midpoints,
    fractal_holes,
)
from fractalcss.complexes import CellComplex as ArrayComplex
from fractalcss.gf2 import Gf2Matrix, Gf2Vector, _rank_in_place

# -- reads of the array representation ---------------------------------------


def cells(cx, k: int) -> list:
    """The k-cells as objects with a tuple ``box`` and a string ``label``."""
    if not isinstance(cx, ArrayComplex):
        return cx.cells[k]
    boxes = cx.cells[k].tolist()
    return [Cell(tuple(map(tuple, b)), cx.label_names[c])
            for b, c in zip(boxes, cx.labels[k].tolist())]


def faces(cx, k: int) -> list[tuple[int, ...]]:
    """The sorted face tuple of every k-cell."""
    if not isinstance(cx, ArrayComplex):
        return cx.faces[k]
    fs = cx.faces[k]
    ptr, idx = fs.ptr.tolist(), fs.idx.tolist()
    return [tuple(idx[ptr[i]:ptr[i + 1]]) for i in range(len(fs))]


def boundary_matrix(cx: ArrayComplex, k: int) -> Gf2Matrix:
    """Dense boundary map C_k -> C_{k-1}; degenerate sizes outside 1..dim."""
    if k == 0:
        return Gf2Matrix(0, cx.n_cells(0))
    if not 1 <= k <= cx.dim:
        return Gf2Matrix(cx.n_cells(cx.dim), 0)
    return cx.cofaces(k - 1).matrix(cx.n_cells(k))


def betti_numbers(cx: ArrayComplex, relative_labels=frozenset()) -> list[int]:
    """Every dim H_i(L), or H_i(L/B) of the labeled subcomplex B, from the
    ranks of the dense boundary matrices of the whole complex."""
    if relative_labels:
        cx = cx.quotient_to_point(set(relative_labels))
    ranks = [0] + [_rank_in_place(boundary_matrix(cx, k)) for k in range(1, cx.dim + 1)] + [0]
    return [cx.n_cells(k) - ranks[k] - ranks[k + 1] for k in range(cx.dim + 1)]


def betti(cx: ArrayComplex, grade: int, relative_labels=frozenset()) -> int:
    """The dense dim H_i at one grade."""
    return betti_numbers(cx, relative_labels)[grade]


def cobetti(cx: ArrayComplex, grade: int, relative_labels=frozenset()) -> int:
    """dim H^i via transposed boundary maps; equals betti at the same grade."""
    if relative_labels:
        cx = cx.quotient_to_point(set(relative_labels))
    rank_i = _rank_in_place(boundary_matrix(cx, grade + 1).transpose())
    rank_dn = _rank_in_place(boundary_matrix(cx, grade).transpose())
    return cx.n_cells(grade) - rank_i - rank_dn


def euler_characteristic(cx) -> int:
    return sum((-1) ** k * cx.n_cells(k) for k in range(cx.dim + 1))


def row_weight(m: Gf2Matrix, r: int) -> int:
    return int(np.bitwise_count(m.data[r]).sum())


def relative_faces(cx: ArrayComplex, labels: set[str]) -> list[Faces]:
    """The face arrays of the relative chain complex C(L)/C(B): the faces
    of ``cx.relative_cells(labels)`` among them, each grade renumbered in
    its original order."""
    return cx._restrict_faces(cx.relative_cells(labels))


def from_arrays(cx: ArrayComplex) -> "CellComplex":
    """The oracle representation of an array-backed complex."""
    return CellComplex.from_text(cx.to_text())


def delete_indexed(cx, doomed, holes_add: list[Hole] | None = None,
                   relabel: dict[tuple[int, int], str] | None = None):
    """``cx.delete`` with the oracle's arguments: per grade an iterable of
    doomed cell indices, and the new label of each ``(grade, index)`` in
    `relabel`, whose new names join the label table in the dict's order."""
    if not isinstance(cx, ArrayComplex):
        return cx.delete(doomed, holes_add, relabel)
    gone = [np.zeros(cx.n_cells(k), dtype=bool) for k in range(cx.dim + 1)]
    for k, d in enumerate(doomed):
        gone[k][np.fromiter(d, np.int64)] = True
    labels = names = None
    if relabel:
        labels, names = [lab.copy() for lab in cx.labels], list(cx.label_names)
        code = {name: c for c, name in enumerate(names)}
        for (k, i), name in relabel.items():
            if name not in code:
                code[name] = len(names)
                names.append(name)
            labels[k][i] = code[name]
    return cx.delete(gone, labels, names, holes_add)


# -- oracle: the tuple-and-dict implementation, verbatim ----------------------


@dataclass(frozen=True)
class Cell:
    box: Box
    label: str = BULK


class CellComplex:
    """Graded cells with Z2 boundaries stored as per-cell face lists.

    Immutable after construction; every operation returns a new complex.
    ``faces[k][i]`` is the sorted tuple of (k-1)-cell indices in the
    boundary of k-cell i, with repeated incidences cancelled mod 2
    (``faces[0]`` holds empty tuples).  Cofaces and the dense boundary
    matrices are derived on demand.  The identity ``d d = 0`` is checked
    bit-exact at construction time.
    """

    def __init__(
        self,
        dim: int,
        cells: list[list[Cell]],
        faces: list[list[tuple[int, ...]]],
        background: str = "open",
        style: str = "plain",
        periods: tuple[int | None, ...] | None = None,
        holes: list[Hole] | None = None,
    ):
        self.dim = dim
        self.cells = cells
        self.faces = faces
        self.background = background
        self.style = style
        self.periods = periods if periods is not None else (None,) * dim
        self.holes = holes or []
        assert len(cells) == dim + 1
        assert len(faces) == dim + 1
        for k in range(dim + 1):
            assert len(faces[k]) == len(cells[k])
        self.assert_dd_zero()

    # -- basic accessors ------------------------------------------------

    def n_cells(self, k: int) -> int:
        if 0 <= k <= self.dim:
            return len(self.cells[k])
        return 0

    def cofaces(self, k: int) -> list[list[int]]:
        """Per k-cell, the sorted (k+1)-cells whose boundary contains it."""
        out: list[list[int]] = [[] for _ in range(self.n_cells(k))]
        if k < self.dim:
            for j, fs in enumerate(self.faces[k + 1]):
                for i in fs:
                    out[i].append(j)
        return out

    def boundary_matrix(self, k: int) -> Gf2Matrix:
        """Dense boundary map C_k -> C_{k-1}; degenerate sizes outside 1..dim."""
        if k == 0:
            return Gf2Matrix(0, self.n_cells(0))
        if not 1 <= k <= self.dim:
            return Gf2Matrix(self.n_cells(self.dim), 0)
        return Gf2Matrix.from_entries(
            self.n_cells(k - 1), self.n_cells(k),
            ((r, i) for i, fs in enumerate(self.faces[k]) for r in fs),
        )

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.n_cells(k) for k in range(self.dim + 1))

    def labels_present(self) -> set[str]:
        return {c.label for grade in self.cells for c in grade if c.label != BULK}

    def cells_with_labels(self, labels: set[str]) -> list[list[int]]:
        return [
            [i for i, c in enumerate(grade) if c.label in labels]
            for grade in self.cells
        ]

    def assert_dd_zero(self) -> None:
        """Every (k-2)-cell is reached an even number of times from each k-cell."""
        for k in range(2, self.dim + 1):
            below = self.faces[k - 1]
            for fs in self.faces[k]:
                odd: set[int] = set()
                for j in fs:
                    odd.symmetric_difference_update(below[j])
                if odd:
                    raise AssertionError(f"boundary of boundary nonzero at grade {k}")

    # -- derived complexes ------------------------------------------------

    def delete(self, doomed: list[set[int]], holes_add: list[Hole] | None = None,
               relabel: dict[tuple[int, int], str] | None = None) -> "CellComplex":
        """Restrict to the complement of `doomed` (per-grade index sets).

        The doomed set must be closed upward or downward so the restricted
        boundary maps still square to zero (asserted).
        """
        keep = [
            [i for i in range(self.n_cells(k)) if i not in doomed[k]]
            for k in range(self.dim + 1)
        ]
        cells = []
        for k in range(self.dim + 1):
            grade = []
            for i in keep[k]:
                c = self.cells[k][i]
                if relabel and (k, i) in relabel:
                    c = Cell(c.box, relabel[(k, i)])
                grade.append(c)
            cells.append(grade)
        faces = [[()] * len(keep[0])]
        for k in range(1, self.dim + 1):
            pos = {old: new for new, old in enumerate(keep[k - 1])}
            faces.append([
                tuple(pos[r] for r in self.faces[k][i] if r in pos) for i in keep[k]
            ])
        return CellComplex(
            self.dim, cells, faces, self.background, self.style, self.periods,
            self.holes + (holes_add or []),
        )

    def transpose_dual(self) -> "CellComplex":
        """The plain dual: k-cells become (n-k)-cells, cofaces become faces.

        Dual cells inherit the box and label of their primal cell.  Exact on
        closed backgrounds; for complexes with boundary use
        :func:`dual_with_boundary`.
        """
        n = self.dim
        cells = [list(self.cells[n - j]) for j in range(n + 1)]
        faces = [[()] * len(cells[0])]
        for j in range(1, n + 1):
            faces.append([tuple(up) for up in self.cofaces(n - j)])
        return CellComplex(
            n, cells, faces, self.background, "dual", self.periods, self.holes
        )

    def quotient_to_point(self, labels: set[str]) -> "CellComplex":
        """Collapse the labeled boundary subcomplex to a single point.

        All selected cells disappear; one new vertex replaces the selected
        vertices; boundary incidences onto collapsed vertices are rerouted
        to the new vertex mod 2, and incidences onto deleted higher cells
        are dropped.
        """
        selected = [set(ix) for ix in self.cells_with_labels(labels)]
        if not any(selected):
            raise ValueError(f"labels {sorted(labels)} select no cells")
        self._check_downward_closed(selected)
        sentinel = tuple((-1, -1) for _ in range(self.dim))
        keep = [
            [i for i in range(self.n_cells(k)) if i not in selected[k]]
            for k in range(self.dim + 1)
        ]
        new_cells: list[list[Cell]] = []
        new_cells.append([self.cells[0][i] for i in keep[0]] + [Cell(sentinel, BULK)])
        for k in range(1, self.dim + 1):
            new_cells.append([self.cells[k][i] for i in keep[k]])
        star = len(keep[0])  # index of the new vertex, after every kept one

        faces = [[()] * len(new_cells[0])]
        for k in range(1, self.dim + 1):
            pos = {old: new for new, old in enumerate(keep[k - 1])}
            grade = []
            for i in keep[k]:
                fs = [pos[r] for r in self.faces[k][i] if r in pos]
                if k == 1 and (len(self.faces[1][i]) - len(fs)) % 2:
                    fs.append(star)
                grade.append(tuple(fs))
            faces.append(grade)
        background = self.background
        if labels and all(lb.startswith("o") for lb in labels):
            rest = self.labels_present() - labels
            if not any(lb.startswith("o") for lb in rest):
                background = "sphere"
        return CellComplex(
            self.dim, new_cells, faces, background, self.style, self.periods,
            [h for h in self.holes if h.label not in labels],
        )

    def _check_downward_closed(self, selected: list[set[int]]) -> None:
        for k in range(1, self.dim + 1):
            for i in selected[k]:
                for r in self.faces[k][i]:
                    if r not in selected[k - 1]:
                        raise ValueError(
                            f"selected subcomplex is not closed under the boundary: "
                            f"grade-{k} cell {i} has unselected face {r}"
                        )

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = ["cellcomplex v1", f"dim {self.dim} background {self.background}"]
        per = " ".join("-" if p is None else str(p) for p in self.periods)
        holes = ";".join(f"{h.hole_id},{h.kind},{h.level}," +
                         ",".join(f"{lo}:{hi}" for lo, hi in h.box) for h in self.holes)
        lines.append(f"meta style {self.style} periods {per} holes {holes if holes else '-'}")
        for k in range(self.dim + 1):
            lines.append(f"grade {k} count {self.n_cells(k)}")
        for k in range(self.dim + 1):
            for i, c in enumerate(self.cells[k]):
                coords = " ".join(f"{lo} {hi}" for lo, hi in c.box)
                faces = " ".join(map(str, self.faces[k][i]))
                lines.append(f"cell {k} {i} {c.label} {coords} : {faces}".rstrip())
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "CellComplex":
        """Parse a ``cellcomplex v1`` file; malformed input raises ValueError."""
        lines = [ln.rstrip("\n") for ln in text.splitlines() if ln.strip()]
        if not lines or lines[0] != "cellcomplex v1":
            raise ValueError("not a cellcomplex v1 file")
        try:
            head = lines[1].split()
            dim = int(head[1])
            background = head[3]
            style, periods, holes = "plain", (None,) * dim, []
            pos = 2
            if lines[pos].startswith("meta "):
                toks = lines[pos].split()
                style = toks[2]
                periods = tuple(None if t == "-" else int(t) for t in toks[4 : 4 + dim])
                hole_tok = toks[5 + dim]
                if hole_tok != "-":
                    for part in hole_tok.split(";"):
                        fields = part.split(",")
                        hid, kind, level = int(fields[0]), fields[1], int(fields[2])
                        box = tuple(
                            (int(t.split(":")[0]), int(t.split(":")[1])) for t in fields[3:]
                        )
                        holes.append(Hole(hid, box, kind, level))
                pos += 1
            counts = []
            for k in range(dim + 1):
                toks = lines[pos].split()
                if toks[0] != "grade" or int(toks[1]) != k:
                    raise ValueError(f"expected 'grade {k} count <n>', got {lines[pos]!r}")
                counts.append(int(toks[3]))
                pos += 1
            cells: list[list[Cell]] = [[] for _ in range(dim + 1)]
            faces: list[list[tuple[int, ...]]] = [[] for _ in range(dim + 1)]
            for k in range(dim + 1):
                for i in range(counts[k]):
                    toks = lines[pos].split()
                    pos += 1
                    if toks[0] != "cell" or int(toks[1]) != k or int(toks[2]) != i:
                        raise ValueError(f"expected cell {k} {i}, got {lines[pos - 1]!r}")
                    label = toks[3]
                    sep = toks.index(":")
                    nums = [int(t) for t in toks[4:sep]]
                    box = tuple((nums[2 * a], nums[2 * a + 1]) for a in range(dim))
                    cells[k].append(Cell(box, label))
                    fs = _mod2(int(r) for r in toks[sep + 1 :])
                    if fs and (k == 0 or fs[0] < 0 or fs[-1] >= counts[k - 1]):
                        raise ValueError(f"cell {k} {i} has a face index out of range")
                    faces[k].append(fs)
        except IndexError as err:
            raise ValueError("cellcomplex v1 file is truncated or has a short line") from err
        return cls(dim, cells, faces, background, style, periods, holes)


def _mod2(indices) -> tuple[int, ...]:
    """Sorted indices that occur an odd number of times: a chain over Z2."""
    odd: set[int] = set()
    for i in indices:
        odd.symmetric_difference_update((i,))
    return tuple(sorted(odd))


def _axis_elements(kind: str, L: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(vertex positions, edge spans) of a 1D factor, doubled coordinates."""
    if kind == "interval":
        return [(2 * j, 2 * j) for j in range(L + 1)], [(2 * j, 2 * j + 2) for j in range(L)]
    if kind == "centered":
        return (
            [(2 * j + 1, 2 * j + 1) for j in range(L)],
            [(2 * j + 1, 2 * j + 3) for j in range(L - 1)],
        )
    if kind == "circle":
        return [(2 * j, 2 * j) for j in range(L)], [(2 * j, 2 * j + 2) for j in range(L)]
    raise ValueError(f"unknown axis kind {kind}")


def _faces_of_box(box: Box, periods) -> list[Box]:
    out = []
    for d, (lo, hi) in enumerate(box):
        if lo == hi:
            continue
        h = hi % periods[d] if periods[d] else hi
        out.append(box[:d] + ((lo, lo),) + box[d + 1 :])
        out.append(box[:d] + ((h, h),) + box[d + 1 :])
    return out


def _build_from_axes(
    dim: int,
    axis_kinds: list[str],
    L: int,
    background: str,
    style: str,
    labeler=None,
) -> CellComplex:
    elements = [_axis_elements(kind, L) for kind in axis_kinds]
    periods = tuple(2 * L if kind == "circle" else None for kind in axis_kinds)
    cells: list[list[Cell]] = [[] for _ in range(dim + 1)]
    for k in range(dim + 1):
        for ext_axes in itertools.combinations(range(dim), k):
            per_axis = [
                elements[d][1] if d in ext_axes else elements[d][0] for d in range(dim)
            ]
            for combo in itertools.product(*per_axis):
                box = tuple(combo)
                label = labeler(box) if labeler else BULK
                cells[k].append(Cell(box, label))
    grade_index = [{c.box: i for i, c in enumerate(cells[k])} for k in range(dim + 1)]
    faces = [[()] * len(cells[0])]
    for k in range(1, dim + 1):
        below = grade_index[k - 1]
        faces.append([
            _mod2(below[fb] for fb in _faces_of_box(c.box, periods)) for c in cells[k]
        ])
    return CellComplex(dim, cells, faces, background, style, periods)


def _outer_labeler(dim: int, L: int, e_axes: tuple[int, ...]):
    """E-priority labeling of the open-cube outer hypersurface patches."""

    def patches_of(box: Box) -> list[int]:
        pids = []
        for d, (lo, hi) in enumerate(box):
            if lo == hi == 0:
                pids.append(2 * d)
            if lo == hi == 2 * L:
                pids.append(2 * d + 1)
        return pids

    def labeler(box: Box) -> str:
        pids = patches_of(box)
        e_pids = [p for p in pids if (p // 2) in e_axes]
        if e_pids:
            return f"oE{e_pids[0]}"
        if pids:
            return f"oM{pids[0]}"
        return BULK

    return labeler


def build_lattice(
    n: int, L: int, background: str = "open", e_axes: tuple[int, ...] | None = None
) -> CellComplex:
    """Full hypercubic complex: the universe other operations carve up.

    open-cube: (L+1)**n vertices with outer patches labeled (default: the
    last axis carries the two e-patches, all other patches are m).
    torus: opposite faces identified, L**n vertices.
    sphere: open cube with the entire outer boundary collapsed to a point.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if not 2 <= n <= 4:
        raise ValueError(f"dimension {n} unsupported (need 2..4)")
    background = {"open-cube": "open"}.get(background, background)
    if background == "torus":
        return _build_from_axes(n, ["circle"] * n, L, "torus", "plain")
    if background in ("open", "sphere"):
        if e_axes is None:
            e_axes = (n - 1,)
        cx = _build_from_axes(
            n, ["interval"] * n, L, "open", "plain", _outer_labeler(n, L, e_axes)
        )
        if background == "sphere":
            outer = {lb for lb in cx.labels_present() if lb.startswith("o")}
            return cx.quotient_to_point(outer)
        return cx
    raise ValueError(f"unknown background {background!r}")


def code_lattice(
    n: int, L: int, background: str = "open", e_axes: tuple[int, ...] | None = None
) -> CellComplex:
    """The boundary-adapted cellulation used to build codes.

    Rough axes are full intervals with OuterE end planes; smooth axes are
    cell-centered paths, so the i=1 code built on it is the standard
    (1, n-1) surface code with d_Z = L and d_X = L**(n-1).
    """
    if L < 2:
        raise ValueError("code lattice needs L >= 2")
    background = {"open-cube": "open"}.get(background, background)
    if background == "torus":
        return _build_from_axes(n, ["circle"] * n, L, "torus", "code")
    if e_axes is None:
        e_axes = (n - 1,)
    kinds = ["interval" if d in e_axes else "centered" for d in range(n)]

    def labeler(box: Box) -> str:
        for d in e_axes:
            lo, hi = box[d]
            if lo == hi == 0:
                return f"oE{2 * d}"
            if lo == hi == 2 * L:
                return f"oE{2 * d + 1}"
        return BULK

    return _build_from_axes(n, kinds, L, "open", "code", labeler)


def dual_with_boundary(cx: CellComplex) -> CellComplex:
    """Honest dual cellulation of a complex with boundary.

    Every primal k-cell c contributes an interior dual cell D(c) of grade
    n-k; every labeled (boundary) cell additionally contributes a boundary
    dual cell Db(c) of grade n-1-k that closes D(c) off at the boundary:

        d D(c)  = sum of D(c') over cofaces c' of c, plus Db(c) if labeled
        d Db(c) = sum of Db(c') over labeled cofaces c' of c

    Boundary dual cells inherit the primal label (this is what a relative
    homology computation on the dual quotients); interior duals are bulk.
    """
    n = cx.dim
    cells: list[list[Cell]] = [[] for _ in range(n + 1)]
    pos: dict[tuple[str, int, int], int] = {}
    for k in range(n + 1):
        for i, c in enumerate(cx.cells[k]):
            grade = n - k
            pos[("D", k, i)] = len(cells[grade])
            cells[grade].append(Cell(c.box, BULK))
    for k in range(n):
        for i, c in enumerate(cx.cells[k]):
            if c.label == BULK:
                continue
            grade = n - 1 - k
            pos[("B", k, i)] = len(cells[grade])
            cells[grade].append(Cell(c.box, c.label))

    faces: list[list[tuple[int, ...]]] = [[()] * len(grade) for grade in cells]
    for k in range(n + 1):
        up = cx.cofaces(k)
        for i, c in enumerate(cx.cells[k]):
            if n - k >= 1:
                fs = [pos[("D", k + 1, j)] for j in up[i]]
                if c.label != BULK:
                    fs.append(pos[("B", k, i)])
                faces[n - k][pos[("D", k, i)]] = _mod2(fs)
            if c.label != BULK and n - 1 - k >= 1:
                faces[n - 1 - k][pos[("B", k, i)]] = _mod2(
                    pos[("B", k + 1, j)] for j in up[i]
                    if cx.cells[k + 1][j].label != BULK
                )
    return CellComplex(n, cells, faces, cx.background, "dual", cx.periods, cx.holes)


# -- oracle: the two-step build, verbatim -------------------------------------


def _array_axis_elements(kind: str, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(vertex positions, edge spans) of a 1D factor as (count, 2) arrays of
    (lo, hi), doubled coordinates."""
    j = np.arange(L + 1, dtype=np.int64)
    if kind == "interval":
        vertices, edges = 2 * j, 2 * j[:L]
    elif kind == "centered":
        vertices, edges = 2 * j[:L] + 1, 2 * j[: L - 1] + 1
    elif kind == "circle":
        vertices, edges = 2 * j[:L], 2 * j[:L]
    else:
        raise ValueError(f"unknown axis kind {kind}")
    return np.stack([vertices, vertices], 1), np.stack([edges, edges + 2], 1)


def _faces_from_table(table: np.ndarray) -> Faces:
    """Faces from an (n, m) array of m face indices per cell (repeats
    cancel mod 2)."""
    n, m = table.shape
    table = np.sort(table, axis=1)
    if (table[:, 1:] == table[:, :-1]).any():
        return Faces.from_pairs(n, np.repeat(np.arange(n), m), table.ravel())
    return Faces(np.arange(0, n * m + 1, m, dtype=np.int64), table.ravel())


def _array_build_from_axes(
    dim: int,
    axis_kinds: list[str],
    L: int,
    background: str,
    style: str,
    rules: tuple[tuple[int, int, str], ...] = (),
) -> ArrayComplex:
    """The product complex of the 1D factors.  `rules` are (axis,
    coordinate, label) in priority order: a cell degenerate at `coordinate`
    on `axis` takes the label of the first rule it meets."""
    elements = [_array_axis_elements(kind, L) for kind in axis_kinds]
    periodic = [kind == "circle" for kind in axis_kinds]
    cells, faces = [], []
    blocks_below: dict[tuple[int, ...], tuple[int, tuple[int, ...]]] = {}
    for k in range(dim + 1):
        boxes, tables, blocks, start = [], [], {}, 0
        for ext in itertools.combinations(range(dim), k):
            per_axis = [elements[d][1 if d in ext else 0] for d in range(dim)]
            shape = tuple(len(e) for e in per_axis)
            ix = np.indices(shape).reshape(dim, -1)
            boxes.append(np.stack([per_axis[d][ix[d]] for d in range(dim)], axis=1))
            blocks[ext] = (start, shape)
            start += ix.shape[1]
            cols = []
            for d in ext:
                # the faces across axis d: the same multi-index in the block
                # without d, at vertex j or j + 1 on that axis
                base, base_shape = blocks_below[tuple(a for a in ext if a != d)]
                for step in (0, 1):
                    at = list(ix)
                    at[d] = (ix[d] + step) % base_shape[d] if periodic[d] else ix[d] + step
                    cols.append(base + np.ravel_multi_index(at, base_shape))
            if k:
                tables.append(np.stack(cols, axis=1))
        blocks_below = blocks
        cells.append(np.concatenate(boxes))
        faces.append(_faces_from_table(np.concatenate(tables)) if k else Faces.empty(start))
    labels = []
    for box in cells:
        codes = np.zeros(len(box), dtype=np.int64)
        for r in range(len(rules) - 1, -1, -1):
            d, c, _ = rules[r]
            codes[(box[:, d, 0] == c) & (box[:, d, 1] == c)] = r + 1
        labels.append(codes)
    names = [BULK] + [label for _, _, label in rules]
    periods = tuple(2 * L if p else None for p in periodic)
    return ArrayComplex(dim, cells, labels, names, faces, background, style, periods)


def array_build_lattice(
    n: int, L: int, background: str = "open", e_axes: tuple[int, ...] | None = None
) -> ArrayComplex:
    """Full hypercubic complex: the universe other operations carve up.

    open-cube: (L+1)**n vertices with outer patches labeled (default: the
    last axis carries the two e-patches, all other patches are m).
    torus: opposite faces identified, L**n vertices.
    sphere: open cube with the entire outer boundary collapsed to a point.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if not 2 <= n <= 4:
        raise ValueError(f"dimension {n} unsupported (need 2..4)")
    background = {"open-cube": "open"}.get(background, background)
    if background == "torus":
        return _array_build_from_axes(n, ["circle"] * n, L, "torus", "plain")
    if background in ("open", "sphere"):
        if e_axes is None:
            e_axes = (n - 1,)
        # E-priority: a cell on several outer patches takes the first
        # e-patch in patch order, else the first m-patch
        rules = tuple(
            (d, side * 2 * L, f"{kind}{2 * d + side}")
            for kind, on_e in (("oE", True), ("oM", False))
            for d in range(n) if (d in e_axes) == on_e
            for side in (0, 1)
        )
        cx = _array_build_from_axes(n, ["interval"] * n, L, "open", "plain", rules)
        if background == "sphere":
            outer = {lb for lb in cx.labels_present() if lb.startswith("o")}
            return cx.quotient_to_point(outer)
        return cx
    raise ValueError(f"unknown background {background!r}")


def array_code_lattice(
    n: int, L: int, background: str = "open", e_axes: tuple[int, ...] | None = None
) -> ArrayComplex:
    """The boundary-adapted cellulation used to build codes.

    Rough axes are full intervals with OuterE end planes; smooth axes are
    cell-centered paths, so the i=1 code built on it is the standard
    (1, n-1) surface code with d_Z = L and d_X = L**(n-1).
    """
    if L < 2:
        raise ValueError("code lattice needs L >= 2")
    background = {"open-cube": "open"}.get(background, background)
    if background not in ("open", "torus"):
        raise ValueError(f"unknown background {background!r}")
    if background == "torus":
        return _array_build_from_axes(n, ["circle"] * n, L, "torus", "code")
    if e_axes is None:
        e_axes = (n - 1,)
    kinds = ["interval" if d in e_axes else "centered" for d in range(n)]
    rules = tuple((d, side * 2 * L, f"oE{2 * d + side}") for d in e_axes for side in (0, 1))
    return _array_build_from_axes(n, kinds, L, "open", "code", rules)


def _hits(m: np.ndarray, margin: np.ndarray, box: Box, periods) -> np.ndarray:
    """Mask of the rows of m (cells x axes) with ``2a + margin <= m <=
    2b - margin`` on every axis of the hole box, on periodic axes also after
    shifting m by one period either way (2 * period in these units)."""
    lo = 2 * np.array([a for a, _ in box]) + margin
    hi = 2 * np.array([b for _, b in box]) - margin
    hit = (lo <= m) & (m <= hi)
    for d, period in enumerate(periods):
        if period:
            for shift in (-2 * period, 2 * period):
                md = m[:, d] + shift
                hit[:, d] |= (lo[:, d] <= md) & (md <= hi[:, d])
    return hit.all(axis=1)


# The most grid slots per cell a punch allocates: the lattices fill their
# grid (1 slot per cell) except the spheres, whose star vertex at -1 widens
# it by a layer no other cell fills (40.5 at the 4D L = 1 sphere, 7.6 at
# L = 2; the ladder's largest is 2.7, the FC(3,1) level-1 sphere).
_SLOTS_PER_CELL = 64


class _MidpointGrid:
    """The row of each cell at its halved midpoint ``m >> 1`` in a dense
    int32 array, -1 where no cell lies; on a periodic axis the index is
    taken modulo the period, on the others it counts from the lowest
    midpoint.  Cells that share a midpoint raise ValueError, and so do
    cells spread over more than `_SLOTS_PER_CELL` slots each, before the
    grid is allocated."""

    def __init__(self, m: np.ndarray, w: np.ndarray, periods):
        self.periods = periods
        self.reach = int(w.max()) if w.size else 0
        lo, hi = (m.min(axis=0) >> 1, m.max(axis=0) >> 1) if len(m) else ([0] * len(periods),) * 2
        self.low = [0 if p else int(a) for p, a in zip(periods, lo)]
        shape = [p or int(b) - a + 1 for p, a, b in zip(periods, self.low, hi)]
        if math.prod(shape) > _SLOTS_PER_CELL * max(len(m), 1):
            raise ValueError(f"{len(m)} cells spread over a grid of {math.prod(shape)} midpoints; "
                             f"holes need at most {_SLOTS_PER_CELL} per cell")
        flat = np.zeros(len(m), dtype=np.int64)  # the cells' grid positions, axis by axis
        for d, period in enumerate(periods):
            h = m[:, d] >> 1
            h -= self.low[d]
            if period:
                h %= period
            flat *= shape[d]
            flat += h
        self.rows = np.full(shape, -1, dtype=np.int32)
        self.rows.flat[flat] = np.arange(len(m), dtype=np.int32)
        if np.count_nonzero(self.rows >= 0) < len(m):
            raise ValueError("cells share a midpoint; holes need one cell per midpoint")

    def near(self, box: Box) -> np.ndarray:
        """The cells whose midpoints could meet the box under any of the
        three relations."""
        axes = []
        for d, (a, b) in enumerate(box):
            lo, hi = (2 * a - self.reach) >> 1, (2 * b + self.reach) >> 1
            if period := self.periods[d]:
                axes.append(np.arange(lo, min(hi, lo + period - 1) + 1) % period)
            else:
                size = self.rows.shape[d]
                axes.append(np.arange(max(lo - self.low[d], 0), min(hi - self.low[d] + 1, size)))
        rows = self.rows[np.ix_(*axes)].ravel()
        return rows[rows >= 0]


def punch_per_hole(cx: ArrayComplex, holes: list[Hole]) -> ArrayComplex:
    """Apply a batch of holes to a complex, per the style conventions.

    The deleted set stays closed under the boundary (rough bites take their
    faces along) or the coboundary (smooth bites are closed stars), so the
    restricted complex still satisfies dd = 0.  Holes apply in order; a
    cell relabeled by several holes takes the last one's label.  A layout
    that leaves an e-labelled patch not closed under the boundary raises
    ValueError, and so does a complex whose cells share a midpoint or lie
    too sparse for `_MidpointGrid`.
    """
    # every grade in one array: cell c of grade k is row start[k] + c
    start = np.cumsum([0] + [cx.n_cells(k) for k in range(cx.dim + 1)])
    m = np.concatenate([c[..., 0] + c[..., 1] for c in cx.cells])
    w = np.concatenate([c[..., 1] - c[..., 0] for c in cx.cells])
    grid = _MidpointGrid(m, w, cx.periods)
    doomed = np.zeros(len(m), dtype=bool)
    tag = np.full(len(m), -1)  # index of the relabeling hole
    bulk = np.concatenate(cx.labels) == 0
    for j, hole in enumerate(holes):
        near = grid.near(hole.box)
        mh, wh = m[near], w[near]
        if cx.style == "code" and hole.kind == "m":
            # measured-out region: closed star of the hole box
            doomed[near[_hits(mh, -wh, hole.box, cx.periods)]] = True
        elif cx.style == "code" and hole.kind == "e":
            # rough hole: tag the interior, whose faces join its e-patch
            # below; the code module deletes the patch, leaving dangling edges
            tag[near[_hits(mh, np.maximum(wh, 1), hole.box, cx.periods)]] = j
        else:
            doomed[near[_hits(mh, np.maximum(wh, 1), hole.box, cx.periods)]] = True
            i = near[_hits(mh, wh, hole.box, cx.periods)]
            tag[i[~doomed[i] & bulk[i]]] = j
    del m, w, grid  # free the midpoint index before the restricted copy is built
    if cx.style == "code":  # e-patches close down: a face takes its cofaces' last e-hole
        for k in range(cx.dim, 0, -1):
            f = cx.faces[k]
            np.maximum.at(tag, start[k - 1] + f.idx, tag[start[k] + f.owners()])
    labels = names = None
    tagged = np.flatnonzero(tag >= 0)
    if tagged.size:
        # the holes' labels join the table in order of their first tagged cell
        used, first = np.unique(tag[tagged], return_index=True)
        code = collections.defaultdict(lambda: len(code),
                                       {name: c for c, name in enumerate(cx.label_names)})
        hole_code = np.zeros(len(holes), dtype=np.int64)
        for j in used[np.argsort(first)].tolist():
            hole_code[j] = code[holes[j].label]
        codes = np.concatenate(cx.labels)
        codes[tagged] = hole_code[tag[tagged]]
        labels, names = np.split(codes, start[1:-1]), list(code)
    gone = np.split(doomed, start[1:-1])
    punched = cx.delete(gone, labels, names, holes_add=holes)
    _check_e_patches(punched)
    return punched


def two_step_fractal_complex(spec: FractalSpec, style: str = "plain") -> ArrayComplex:
    """Build the lattice for `spec` and punch its holes.

    style "plain" backs homology computations; style "code" backs code and
    distance computations.
    """
    if style == "code":
        base = array_code_lattice(spec.n, spec.side, spec.background)
    else:
        base = array_build_lattice(spec.n, spec.side, spec.background)
    return punch_per_hole(base, fractal_holes(spec)) if spec.level else base


# -- oracle: the CSR and punch kernels before they worked in bounded blocks --


def ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(starts[i], stops[i])`` over i."""
    counts = stops - starts
    ends = counts.cumsum()
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + (starts - (ends - counts)).repeat(counts)


def transpose(faces: Faces, n: int) -> Faces:
    """The cofaces: per cell of the grade below (n of them), the sorted
    cells whose faces contain it."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(faces.idx, minlength=n), out=ptr[1:])
    return Faces(ptr, faces.owners()[np.argsort(faces.idx, kind="stable")])


def composes_to_zero(faces: Faces, below: Faces, n: int) -> bool:
    """Whether the product of two CSR maps is zero over GF(2): each cell
    here reaches each of the n cells that `below` lists an even number
    of times through `below`.  On the faces of consecutive grades this
    is dd = 0; on a code's X checks and the Z checks of each qubit it
    is H_X H_Z^T = 0."""
    # in blocks of cells, so the temporaries stay small
    for first in range(0, len(faces), 1 << 16):
        ptr = faces.ptr[first : first + (1 << 16) + 1]
        block = Faces(ptr - ptr[0], faces.idx[ptr[0] : ptr[-1]])
        starts, stops = below.ptr[block.idx], below.ptr[block.idx + 1]
        # the key cell * n + reached cell, in int64 (owners() is)
        reach = np.repeat(block.owners() * n, stops - starts)
        reach += below.idx[ranges(starts, stops)]
        reach.sort()
        # sorted, every value occurs an even number of times iff the
        # entries pair up
        if len(reach) % 2 or (reach[0::2] != reach[1::2]).any():
            return False
    return True


class GatherGrid:
    """The row of each cell at its halved midpoint ``m >> 1`` in a dense
    int32 array, -1 where no cell lies; on a periodic axis the index is
    taken modulo the period, on the others it counts from the lowest
    midpoint.  Cells that share a midpoint raise ValueError, and so do
    cells spread over more than `_SLOTS_PER_CELL` slots each, before the
    grid is allocated.

    `boxes` holds the cells of every grade.  Midpoints and widths are
    computed in twice the width of the boxes' integers, so that they
    cannot overflow."""

    def __init__(self, boxes: np.ndarray, periods):
        self.boxes, self.periods = boxes, periods
        self.wide = np.int32 if boxes.dtype == np.int16 else np.int64
        half, self.reach = [], 0  # per axis, the halved midpoints
        for d in range(len(periods)):
            m, w = _midpoints(boxes[:, d], self.wide)
            half.append(m >> 1)
            self.reach = max(self.reach, int(w.max(initial=0)))
        lo, hi = ([int(h.min()) for h in half], [int(h.max()) for h in half]) if len(boxes) \
            else ([0] * len(periods),) * 2
        self.low = [0 if p else a for p, a in zip(periods, lo)]
        shape = [p or b - a + 1 for p, a, b in zip(periods, self.low, hi)]
        if math.prod(shape) > _SLOTS_PER_CELL * max(len(boxes), 1):
            raise ValueError(f"{len(boxes)} cells spread over a grid of {math.prod(shape)} "
                             f"midpoints; holes need at most {_SLOTS_PER_CELL} per cell")
        flat = np.zeros(len(boxes), dtype=np.int64)  # the cells' grid positions, axis by axis
        for d, period in enumerate(periods):
            h = half[d]
            h -= self.low[d]
            if period:
                h %= period
            flat *= shape[d]
            flat += h
        del half
        self.rows = np.full(shape, -1, dtype=np.int32)
        self.rows.flat[flat] = np.arange(len(boxes), dtype=np.int32)
        if np.count_nonzero(self.rows >= 0) < len(boxes):
            raise ValueError("cells share a midpoint; holes need one cell per midpoint")

    def gather(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (hole, row) pairs of the cells whose midpoints could meet one
        of the (h, dim, 2) hole `boxes`, all of one shape, under any of the
        three relations: the grid block around every box, in one gather.
        Where the grid's edge clips a block, the block keeps its width and
        takes in cells past its end, once or more; `hits` rejects them."""
        at = []
        for d, period in enumerate(self.periods):
            lo = (2 * boxes[:, d, 0] - self.reach) >> 1
            hi = (2 * boxes[:, d, 1] + self.reach) >> 1
            if period:  # the boxes share hi - lo; a block wider than the period wraps once
                idx = (lo[:, None] + np.arange(min(int(hi[0] - lo[0]) + 1, period))) % period
            else:
                size = self.rows.shape[d]
                first = np.clip(lo - self.low[d], 0, size)
                stop = np.clip(hi - self.low[d] + 1, 0, size)
                idx = np.minimum(first[:, None] + np.arange(int((stop - first).max())), size - 1)
            shape = [len(boxes)] + [1] * len(self.periods)
            shape[d + 1] = -1
            at.append(idx.reshape(shape))
        rows = self.rows[tuple(at)]
        pair = np.flatnonzero(rows >= 0)
        return pair // max(rows.size // len(boxes), 1), rows.ravel()[pair]

    def hits(self, rows: np.ndarray, j: np.ndarray, ends: np.ndarray, margin) -> np.ndarray:
        """Per pair of a cell row and a hole j whose box [a, b] has the
        doubled ends ``ends[d, 0, j]`` = 2a and ``ends[d, 1, j]`` = 2b on
        axis d, whether ``2a + g <= m <= 2b - g`` holds on every axis, m
        the cell's doubled midpoint, w its width there and g = margin(w, j);
        on a periodic axis also after shifting m by one period either way
        (2 * period in these units).  The pairs are tested in blocks, so the
        temporaries stay small."""
        hit = np.ones(len(rows), dtype=bool)
        for first in range(0, len(rows), 1 << 18):
            part = slice(first, first + (1 << 18))
            near, jp = np.take(self.boxes, rows[part], axis=0), j[part]
            for d, period in enumerate(self.periods):
                m, w = _midpoints(near[:, d], self.wide)
                g = margin(w, jp)
                lo, hi = ends[d, 0][jp] + g, ends[d, 1][jp] - g
                ok = (lo <= m) & (m <= hi)
                if period:
                    for shift in (-2 * period, 2 * period):
                        ok |= (lo <= m + shift) & (m + shift <= hi)
                hit[part] &= ok
        return hit


def hole_hits(boxes: np.ndarray, bulk: np.ndarray, periods, style: str,
              holes: list[Hole]) -> tuple[np.ndarray, np.ndarray]:
    """Per cell (the rows of `boxes`), whether a hole deletes it, and the
    last hole that relabels it (-1 for none), before e-patches close down.
    The holes of one box shape are tested together, on the cells of one
    gather of the midpoint grid."""
    grid = GatherGrid(boxes, periods)
    hb = np.array([h.box for h in holes], dtype=np.int64).reshape(len(holes), len(periods), 2)
    ends = 2 * hb.transpose(1, 2, 0)  # per axis, the doubled ends of every hole
    is_m = np.array([h.kind == "m" for h in holes], dtype=bool)
    doomed = np.zeros(len(boxes), dtype=bool)
    tag = np.full(len(boxes), -1, dtype=np.int32)
    if style != "code":  # the first hole that deletes each cell, and the cells on each hole
        first_doom, within = np.full(len(boxes), len(holes), dtype=np.int32), []
    shapes, shape = np.unique(hb[:, :, 1] - hb[:, :, 0], axis=0, return_inverse=True)
    for s in range(len(shapes)):
        js = np.flatnonzero(shape.ravel() == s)
        j, r = grid.gather(hb[js])
        j = js[j].astype(np.int32)  # the type of `tag`, for the fast ufunc.at
        if style == "code":
            # an m-hole measures out the closed star of its box; an e-hole
            # tags the interior, whose faces join its e-patch below, and the
            # code module deletes the patch, leaving dangling edges
            hit = grid.hits(r, j, ends, lambda w, j: np.where(is_m[j], -w, np.maximum(w, 1)))
            m = is_m[j]
            doomed[r[hit & m]] = True
            e = hit & ~m
            np.maximum.at(tag, r[e], j[e])
        else:
            hit = grid.hits(r, j, ends, lambda w, j: np.maximum(w, 1))
            doomed[r[hit]] = True
            np.minimum.at(first_doom, r[hit], j[hit])
            on = grid.hits(r, j, ends, lambda w, j: w)
            within.append((j[on], r[on]))
    if style != "code" and within:
        # a hole labels the bulk cells within its closed box that neither it
        # nor an earlier hole deleted
        j, r = (np.concatenate(x) for x in zip(*within))
        ok = bulk[r] & (j < first_doom[r])
        np.maximum.at(tag, r[ok], j[ok])
    return doomed, tag


# -- oracle: the face tables and the dual before they held one block ----------


def lattice_faces(lat, k: int, cells: np.ndarray) -> np.ndarray:
    """The (len(cells), 2k) table of the faces of the ascending k-cells
    `cells` of the `complexes._Lattice` lat, each row ascending: across the
    extended axes from the last to the first, whose blocks below ascend,
    and on each axis the lower index first.  A face that a row holds twice
    (on an axis of period 1) is in both columns of its pair."""
    table = np.empty((len(cells), 2 * k), dtype=np.int64)
    blocks, below = lat.blocks[k].items(), lat.blocks[k - 1]
    bounds = np.searchsorted(cells, [first for _, (first, _) in blocks] + [lat.start[k + 1]])
    for (ext, (first, shape)), a, b in zip(blocks, bounds, bounds[1:]):
        c = cells[a:b] - first
        for col, d in enumerate(reversed(ext)):
            # c = (outer * shape[d] + j) * inner + rest; the block below
            # has base_shape[d] = shape[d] + 1 vertices on axis d (as many
            # on a circle), and the same multi-index there lies `outer`
            # rows of `inner` cells further on
            base, base_shape = below[tuple(x for x in ext if x != d)]
            inner = math.prod(shape[d + 1 :])
            lower = base + c + c // (shape[d] * inner) * ((base_shape[d] - shape[d]) * inner)
            upper = lower + inner
            if lat.periods[d]:
                upper[c // inner % shape[d] == shape[d] - 1] -= shape[d] * inner
            np.minimum(lower, upper, out=table[a:b, 2 * col])
            np.maximum(lower, upper, out=table[a:b, 2 * col + 1])
    return table


def kept_faces(lat, k: int, keep: np.ndarray, keep_below: np.ndarray) -> Faces:
    """The faces of the kept k-cells among the kept (k-1)-cells (a mask
    each), both renumbered; a face held twice cancels."""
    table = lattice_faces(lat, k, np.flatnonzero(keep))
    sel = keep_below[table]
    twice = table[:, 0::2] == table[:, 1::2]
    sel[:, 0::2] &= ~twice
    sel[:, 1::2] &= ~twice
    new = np.cumsum(keep_below, dtype=lat.index) - 1
    if sel.all():  # every row keeps its faces
        return Faces(np.arange(0, table.size + 1, 2 * k, dtype=lat.index), new[table.ravel()])
    ptr = np.zeros(len(table) + 1, dtype=lat.index)
    np.cumsum(sel.sum(axis=1), out=ptr[1:])
    return Faces(ptr, new[table[sel]])


def dual_from_pairs(cx: ArrayComplex) -> ArrayComplex:
    """Honest dual cellulation of a complex with boundary, as
    `complexes.dual_with_boundary` (same cells, labels and faces): every
    grade's (cell, face) pairs from the cofaces of every grade, sorted by
    `Faces.from_pairs`."""
    n = cx.dim
    count = [cx.n_cells(k) for k in range(n + 2)]
    labeled = [lab != 0 for lab in cx.labels]
    rank = [np.cumsum(lab) - 1 for lab in labeled]  # index among labeled cells
    up = [cx.cofaces(k) for k in range(n)]
    cells, labels, faces = [], [], []
    for g in range(n + 1):
        k, kb = n - g, n - 1 - g  # D cells of primal grade k, Db cells of grade kb
        boxes, codes = [cx.cells[k]], [np.zeros(count[k], dtype=np.int64)]
        if kb >= 0:
            boxes.append(cx.cells[kb][labeled[kb]])
            codes.append(cx.labels[kb][labeled[kb]])
        cells.append(np.concatenate(boxes))
        labels.append(np.concatenate(codes))
        if g == 0:
            faces.append(Faces.empty(len(cells[0])))
            continue
        # d D(c): the D cells of the cofaces of c, then Db(c) if c is labeled
        lab = np.flatnonzero(labeled[k])
        rows = [up[k].owners(), lab]
        cols = [up[k].idx, count[k + 1] + rank[k][lab]]
        if kb >= 0:
            # d Db(c): the Db cells of the labeled cofaces of c
            own = up[kb].owners()
            sel = labeled[kb][own] & labeled[k][up[kb].idx]
            rows.append(count[k] + rank[kb][own[sel]])
            cols.append(count[k + 1] + rank[k][up[kb].idx[sel]])
        faces.append(Faces.from_pairs(len(cells[g]), np.concatenate(rows), np.concatenate(cols)))
    return ArrayComplex(n, cells, labels, cx.label_names, faces, cx.background, "dual",
                        cx.periods, cx.holes)
