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
from row vectors, a row weight, and ``delete_indexed``, which gives the
array ``delete`` the oracle's arguments (index sets and a relabel dict).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from fractalcss.complexes import BULK, Box, Hole
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
        return Gf2Matrix.zeros(0, cx.n_cells(0))
    if not 1 <= k <= cx.dim:
        return Gf2Matrix.zeros(cx.n_cells(cx.dim), 0)
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
            return Gf2Matrix.zeros(0, self.n_cells(0))
        if not 1 <= k <= self.dim:
            return Gf2Matrix.zeros(self.n_cells(self.dim), 0)
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
