"""Hypercubic cell complexes in 2..4 dimensions with fractal holes.

Geometry convention
-------------------
Every cell is an axis-aligned box stored in *doubled* integer coordinates so
that half-integer positions stay exact: a unit interval of the physical
lattice spans 2 doubled units.  A cell's box holds one ``(lo, hi)`` pair per
axis; an axis with ``lo == hi`` is degenerate, an extended axis always spans
exactly 2 doubled units.  The grade of a cell is the number of extended axes.

Two lattice styles are built from per-axis 1D factors:

* ``plain``: every axis is a full interval with vertices at even
  coordinates ``0, 2, ..., 2L`` (the open cube: ``(L+1)**n`` vertices), or a
  circle of period ``2L`` for the torus.  This is the style used for
  homology and duality computations.
* ``code``: the cellulation that underlies the standard surface code:
  axes carrying e-boundaries (rough) are full intervals whose end planes
  carry ``OuterE`` labels, while the remaining smooth axes place vertices
  at the L cell centers (odd coordinates ``1, 3, ..., 2L-1``) so that a
  rough-direction edge column exists for every transverse unit cell.  With
  this choice the fractal hole of side q blocks exactly q**(n-1) columns
  and the minimum-area logical branes reproduce the Sierpinski-carpet
  areas exactly.

Storage
-------
Per grade k a complex holds a box array, label codes into a per-complex
table of label strings, and the face lists in CSR form (see
:class:`CellComplex` and :class:`Faces`).  A built lattice stores int16
boxes (int32, then int64, when its coordinates need them) and int32 label
codes, face indices and row pointers, and cofaces are int32 while their
counts fit; every midpoint, width and key that can outgrow them is
computed wider.  A complex read from text keeps the int64 arrays it was
parsed into.  Each kernel holds its result and one block of `_ENTRIES`
temporaries: the punch, the face tables, dd = 0, a transpose, the dual (a
grade at a time); a gather of faces holds one full-length array more.

A lattice on the open cube or the torus, punched or not, is one
construction (:func:`_lattice_complex`): the boxes and label codes of all
its cells are built as arrays, the holes mark the cells they delete and
relabel, the faces are computed for the kept cells only, by index
arithmetic, and renumbered, and the one :class:`CellComplex` checks
dd = 0.  The cells with one set of extended axes form a C-ordered block,
and a face is the same multi-index in the matching (k-1)-block with the
dropped axis at j or j + 1 (mod the vertex count on a periodic axis).
The unpunched lattice is never a complex.  A sphere is the quotient of
the open cube, which :func:`punch_holes` punches.

Cofaces, the cells of a relative chain complex (the unlabelled cells, as
one mask per grade: :meth:`CellComplex.relative_cells`, from which
``betti`` and ``cobetti`` reduce the complex in place) and dense GF(2)
incidence matrices are derived on demand, the last only for eliminations:
the small residues that ``betti`` and ``cobetti`` rank after collapsing
the complex, and a code's checks.

Boundary labels are short strings: ``bulk``, ``oE<k>``/``oM<k>`` for outer
hypersurface patches (patch id ``2*axis + side``), ``hE<k>``/``hM<k>`` for
hole surfaces.  Outer labels are assigned with E-priority at patch corners
so every labeled patch is closed under the boundary map.

Hole conventions (:func:`fractal_complex` builds a spec's lattice with its
holes; ``punch_holes(base, fractal_holes(spec))`` punches them into an
existing lattice of side ``spec.side``):

* plain style: delete the cells strictly interior to the hole box and
  label the surviving surface cells; the number of surviving top cells
  after level l is ``(p**n - q**n)**l``.
* code style, m-hole: delete every cell whose closed box intersects the
  closed hole box (the measured-out region of qubits, with stabilizer
  supports truncated accordingly).
* code style, e-hole: mark the strictly interior cells together with
  their faces as an e-patch; the code builder deletes the patch, leaving
  dangling rough-direction edges pointing at the hole.

The three box relations are per-axis tests on a cell's doubled midpoint
``m = lo + hi``.  For a hole box ``[a, b]`` on every axis: a cell is
strictly inside when ``2a < m < 2b``; it touches the closed box when
``2a - 2 <= m <= 2b + 2`` on extended axes and ``2a <= m <= 2b`` on
degenerate ones; it lies within the closed box when ``2a + 2 <= m <=
2b - 2`` on extended axes and ``2a <= m <= 2b`` on degenerate ones.  On a
periodic axis ``m +- 2 * period`` is tried as well.  Every cell of a
lattice has its own midpoint, so the punch places each cell's row in a
dense grid over the halved midpoints ``m >> 1`` (modulo the period on a
periodic axis) and runs these tests only on the cells of the grid block
around each hole: the blocks of the holes of one box shape come from one
gather per chunk of about `_ENTRIES` cells, tested as many pairs at a
time.  It marks the deleted cells and the new label codes in one array
each; the lattice construction builds
only the kept cells, and :func:`punch_holes`, which punches a complex that
exists, hands the masks to :meth:`CellComplex.delete`.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._text import Tokens, decode, encode, first_false, int64, with_newlines, write_lines
from .gf2 import Gf2Matrix

Box = tuple[tuple[int, int], ...]

BULK = "bulk"


def label_is_e(label: str) -> bool:
    return label.startswith("oE") or label.startswith("hE")


def label_is_m(label: str) -> bool:
    return label.startswith("oM") or label.startswith("hM")


@dataclass(frozen=True)
class Hole:
    hole_id: int
    box: Box  # closed box in doubled coordinates
    kind: str  # "e" or "m"
    level: int = 0

    def __post_init__(self):
        if self.kind not in ("e", "m"):
            raise ValueError(f"hole kind {self.kind!r} is not 'e' or 'm'")

    @property
    def label(self) -> str:
        return ("hE" if self.kind == "e" else "hM") + str(self.hole_id)


@dataclass
class FractalSpec:
    """Parameters of a recursively punched fractal lattice."""

    n: int
    p: int
    q: int
    level: int
    background: str = "open"
    holes: str | dict[int, str] = "m"  # uniform "e"/"m" or per-hole map

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ValueError(f"dimension {self.n} unsupported (need 2..4)")
        if not 0 < self.q < self.p:
            raise ValueError(f"need 0 < q < p, got p={self.p} q={self.q}")
        if (self.p - self.q) % 2 != 0:
            raise ValueError(f"(p - q) must be even to center holes, got {self.p - self.q}")
        if self.level < 0:
            raise ValueError("level must be >= 0")
        for kind in [self.holes] if isinstance(self.holes, str) else self.holes.values():
            if kind not in ("e", "m"):
                raise ValueError(f"hole kind {kind!r} is not 'e' or 'm'")

    @property
    def side(self) -> int:
        return self.p**self.level

    def hole_kind(self, hole_id: int) -> str:
        if isinstance(self.holes, str):
            return self.holes
        return self.holes.get(hole_id, "m")


class BoundaryError(ValueError, AssertionError):
    """The boundary of a boundary is nonzero.  A ValueError for the text
    reader (malformed input, CLI exit 2) and an AssertionError for callers
    that treat it as a broken invariant."""


_LIMITS = {t: (int(np.iinfo(t).min), int(np.iinfo(t).max))
           for t in (np.int16, np.int32, np.int64)}


def _width(lo: int, hi: int, widths=(np.int16, np.int32, np.int64)) -> type:
    """The first of the integer `widths` that holds every value from lo to
    hi (the last when none does)."""
    return next((t for t in widths if _LIMITS[t][0] <= lo and hi <= _LIMITS[t][1]), widths[-1])


def _ranges(starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The concatenation of ``arange(starts[i], stops[i])`` over i, as int64
    indices (numpy gathers through them fastest): each range's start less
    the position of its first entry, repeated over the range, plus the
    positions, which are added a block at a time so that the result is
    the one full-length array."""
    counts = stops - starts
    out = (starts - counts.cumsum(dtype=np.int64) + counts).repeat(counts)
    for first in range(0, out.size, _ENTRIES):
        part = out[first : first + _ENTRIES]
        part += np.arange(first, first + part.size, dtype=out.dtype)
    return out


# the entries a CSR kernel handles at a time: the positions `_ranges` adds
# at once, about the entries one block of `Faces.composes_to_zero` reaches
_ENTRIES = 1 << 14


class Faces:
    """The face lists of one grade in CSR form: the faces of cell i are
    ``idx[ptr[i]:ptr[i + 1]]``, sorted, with repeats cancelled mod 2."""

    __slots__ = ("ptr", "idx")

    def __init__(self, ptr: np.ndarray, idx: np.ndarray):
        self.ptr = ptr
        self.idx = idx

    @classmethod
    def empty(cls, n: int) -> "Faces":
        return cls(np.zeros(n + 1, dtype=np.int32), np.zeros(0, dtype=np.int32))

    @classmethod
    def from_pairs(cls, n: int, rows, cols) -> "Faces":
        """Faces of n cells from (cell, face) incidences in any order; a
        pair that occurs an even number of times cancels."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.array(cols, dtype=np.int64)  # a copy: the faces own their indices
        up = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (cols[1:] > cols[:-1]))
        if not up.all():  # not sorted without repeats already, as a text file usually is
            order = np.lexsort((cols, rows))
            rows, cols = rows[order], cols[order]
            run = np.ones(len(rows) + 1, dtype=bool)
            run[1:-1] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(run)
            odd = starts[:-1][np.diff(starts) & 1 == 1]
            rows, cols = rows[odd], cols[odd]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
        return cls(ptr, cols)

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        return self.idx[self.ptr[i] : self.ptr[i + 1]]

    def counts(self, dtype=np.int64) -> np.ndarray:
        """The number of faces of each cell, as int64 by default whatever
        the width of `ptr`, so that sums and products of counts cannot
        wrap; `self.ptr.dtype` keeps the width of the row pointers."""
        return np.subtract(self.ptr[1:], self.ptr[:-1], dtype=dtype)

    def owners(self) -> np.ndarray:
        """The cell of every entry of ``idx``."""
        return np.repeat(np.arange(len(self)), self.counts())

    def take(self, cells: np.ndarray) -> np.ndarray:
        """The faces of `cells`, concatenated."""
        return self.idx[_ranges(self.ptr[cells], self.ptr[1:][cells])]

    def transpose(self, n: int) -> "Faces":
        """The cofaces: per cell of the grade below (n of them), the sorted
        cells whose faces contain it; int32 when both the entries and these
        cells are fewer than 2**31, else int64."""
        width = _width(0, max(self.ptr.size - 1, self.idx.size), (np.int32, np.int64))
        # ptr[c + 2] counts cell c's entries in place (bincount would cast
        # idx to int64), and sums them: ptr[c + 1] is where cell c starts
        ptr = np.zeros(n + 2, dtype=width)
        np.add.at(ptr[2:], self.idx, width(1))
        np.cumsum(ptr, out=ptr)
        if self.idx.size <= _ENTRIES:  # one block: the owners in a stable order
            owners = np.arange(self.ptr.size - 1, dtype=width).repeat(self.counts())
            return Faces(ptr[1:], owners[np.argsort(self.idx, kind="stable")])
        # a counting sort, a block of whole cells at a time: each block's
        # entries go, in order, to the next free slots of their cells c below
        # (ptr[c + 1])
        out, free = np.empty(self.idx.size, dtype=width), ptr[1:]
        for first, stop in self._blocks(_ENTRIES):
            part = self.idx[self.ptr[first] : self.ptr[stop]]
            order = np.argsort(part, kind="stable")
            below = part[order]
            starts = np.flatnonzero(np.diff(below, prepend=-1))  # a run per cell below
            cells, runs = below[starts], np.diff(starts, append=below.size)
            at = (free[cells] - starts).astype(width).repeat(runs)
            at += np.arange(len(part), dtype=width)
            free[cells] += runs
            out[at] = np.arange(first, stop, dtype=width).repeat(
                self.ptr[first + 1 : stop + 1] - self.ptr[first:stop])[order]
        return Faces(ptr[:-1], out)

    def _blocks(self, entries: int):
        """(first, stop) of consecutive runs of whole cells that hold about
        `entries` entries together; a cell with more is a run alone."""
        first, size = 0, self.ptr.size - 1
        while first < size:
            stop = max(int(self.ptr.searchsorted(self.ptr[first] + entries, "right")) - 1,
                       first + 1)
            yield first, stop
            first = stop

    def restrict(self, keep: np.ndarray, keep_below: np.ndarray) -> "Faces":
        """The kept cells' faces among the kept faces, both renumbered, in
        the integer widths of these faces; where every face stays, none is
        renumbered, and the entries are shared if only cells without faces go."""
        if keep_below.all():  # every face stays, numbered as before
            counts = self.counts(self.ptr.dtype)
            if not counts[~keep].any():
                return Faces(np.append(self.ptr[:1], self.ptr[1:][keep]), self.idx)
            ptr = np.zeros(int(keep.sum()) + 1, dtype=self.ptr.dtype)
            np.cumsum(counts[keep], out=ptr[1:])
            return Faces(ptr, self.idx[keep.repeat(counts)])
        sel = keep.repeat(self.counts())
        sel &= keep_below[self.idx]
        # the kept entries before each entry; a deleted cell keeps none
        before = np.zeros(sel.size + 1, dtype=self.ptr.dtype)
        before[1:] = sel
        np.cumsum(before, out=before)  # in place: a cumsum into another type casts a copy
        ptr = np.concatenate((before[self.ptr[:-1][keep]], before[-1:]))
        del before
        new = keep_below.astype(self.idx.dtype)
        np.cumsum(new, out=new)
        new -= 1  # the new number of each kept face, so one gather renumbers
        return Faces(ptr, new[self.idx[sel]])

    def matrix(self, cols: int) -> Gf2Matrix:
        """The dense incidence matrix: one row per cell, `cols` columns for
        the grade below (the transpose of the boundary map)."""
        return Gf2Matrix.from_entries(len(self), cols, np.column_stack((self.owners(), self.idx)))

    def parity(self, bits: np.ndarray) -> np.ndarray:
        """Per cell, the parity (0 or 1) of the 0/1 `bits` at its faces: a
        syndrome, when the cells are checks and the faces qubits."""
        # acc[i]: the parity of the bits at the first i entries
        acc = np.insert(np.bitwise_xor.accumulate(bits[self.idx]), 0, 0)
        return acc[self.ptr[1:]] ^ acc[self.ptr[:-1]]

    def composes_to_zero(self, below: "Faces", n: int) -> bool:
        """Whether the product of two CSR maps is zero over GF(2): each cell
        here reaches each of the n cells that `below` lists an even number
        of times through `below`.  On the faces of consecutive grades this
        is dd = 0; on a code's X checks and the Z checks of each qubit it
        is H_X H_Z^T = 0."""
        # in blocks of whole cells, so the temporaries stay small: a block
        # holds about _ENTRIES / (the mean count below) faces, so it reaches
        # about _ENTRIES entries; a cell with more faces is a block alone
        for first, stop in self._blocks(max(_ENTRIES * len(below) // max(len(below.idx), 1), 1)):
            faces = self.idx[self.ptr[first] : self.ptr[stop]]
            starts, stops = below.ptr[faces], below.ptr[faces + 1]
            # the key cell * n + reached cell, the cell numbered in the block
            owner = np.arange(stop - first, dtype=np.int64).repeat(
                self.ptr[first + 1 : stop + 1] - self.ptr[first:stop])
            reach = (owner * n).repeat(stops - starts)
            reach += below.idx[_ranges(starts, stops)]
            reach.sort()
            # sorted, every value occurs an even number of times iff the
            # entries pair up
            if len(reach) % 2 or (reach[0::2] != reach[1::2]).any():
                return False
        return True


class CellComplex:
    """Graded cells with Z2 boundaries, stored as arrays per grade k.

    * ``cells[k]``: the (N_k, dim, 2) boxes, one ``(lo, hi)`` row per axis;
    * ``labels[k]``: (N_k,) codes into ``label_names``, whose code 0 is bulk;
    * ``faces[k]``: :class:`Faces`, the sorted (k-1)-cell indices in the
      boundary of each k-cell (none at grade 0).

    Immutable after construction; every operation returns a new complex.
    The identity ``d d = 0`` is checked bit-exact at construction time.
    """

    def __init__(
        self,
        dim: int,
        cells: list[np.ndarray],
        labels: list[np.ndarray],
        label_names,
        faces: list[Faces],
        background: str = "open",
        style: str = "plain",
        periods: tuple[int | None, ...] | None = None,
        holes: list[Hole] | None = None,
    ):
        self.dim = dim
        self.cells = cells
        self.labels = labels
        self.label_names = tuple(label_names)
        self.faces = faces
        self.background = background
        self.style = style
        self.periods = tuple(periods) if periods is not None else (None,) * dim
        self.holes = holes or []
        if not len(cells) == len(labels) == len(faces) == dim + 1:
            raise ValueError(f"a {dim}-complex needs boxes, labels and faces for {dim + 1} grades")
        if len(self.periods) != dim:
            raise ValueError(f"{len(self.periods)} periods for dimension {dim}")
        if not self.label_names or self.label_names[0] != BULK:
            raise ValueError(f"label code 0 must be {BULK!r}")
        for k in range(dim + 1):
            n = len(cells[k])
            if cells[k].shape != (n, dim, 2) or labels[k].shape != (n,) or len(faces[k]) != n:
                raise ValueError(f"grade {k}: boxes, labels and faces disagree on the cell count")
            if n and not 0 <= labels[k].min() <= labels[k].max() < len(self.label_names):
                raise ValueError(f"grade {k} has a label code outside the label table")
            idx = faces[k].idx
            if idx.size and not 0 <= idx.min() <= idx.max() < self.n_cells(k - 1):
                bad = np.flatnonzero((idx < 0) | (idx >= self.n_cells(k - 1)))
                i = int(np.searchsorted(faces[k].ptr, bad[0], "right")) - 1
                raise ValueError(f"cell {k} {i} has a face index out of range")
        self.assert_dd_zero()

    # -- basic accessors ------------------------------------------------

    def n_cells(self, k: int) -> int:
        if 0 <= k <= self.dim:
            return len(self.cells[k])
        return 0

    def label_mask(self, k: int, select) -> np.ndarray:
        """Per k-cell, whether ``select(label)`` holds."""
        table = np.fromiter(map(select, self.label_names), bool, len(self.label_names))
        return table[self.labels[k]]

    def cofaces(self, k: int) -> Faces:
        """Per k-cell, the sorted (k+1)-cells whose boundary contains it."""
        if k < self.dim:
            return self.faces[k + 1].transpose(self.n_cells(k))
        return Faces.empty(self.n_cells(k))

    def labels_present(self) -> set[str]:
        used = np.zeros(len(self.label_names), dtype=bool)
        for lab in self.labels:
            used[lab] = True
        return {self.label_names[c] for c in np.flatnonzero(used).tolist()} - {BULK}

    def assert_dd_zero(self) -> None:
        """Every (k-2)-cell is reached an even number of times from each k-cell."""
        for k in range(2, self.dim + 1):
            if not self.faces[k].composes_to_zero(self.faces[k - 1], self.n_cells(k - 2)):
                raise BoundaryError(f"boundary of boundary nonzero at grade {k}")

    # -- derived complexes ------------------------------------------------

    def delete(self, gone: list[np.ndarray], labels: list[np.ndarray] | None = None,
               label_names=None, holes_add: list[Hole] | None = None) -> "CellComplex":
        """Restrict to the cells outside `gone` (a mask per grade), which
        take the codes `labels` (per grade, one per cell before the
        deletion) into `label_names` when given.

        The deleted cells must be closed upward or downward so the
        restricted boundary maps still square to zero (checked).
        """
        keep = [~g for g in gone]
        faces = self._restrict_faces(keep)
        return CellComplex(
            self.dim, [c[kp] for c, kp in zip(self.cells, keep)],
            [lab[kp] for lab, kp in zip(labels or self.labels, keep)],
            label_names or self.label_names, faces,
            self.background, self.style, self.periods, self.holes + (holes_add or []),
        )

    def _restrict_faces(self, keep: list[np.ndarray]) -> list[Faces]:
        """The face arrays of the kept cells (a mask per grade) among the
        kept cells, each grade renumbered in its original order."""
        return [Faces.empty(int(keep[0].sum()))] + [
            self.faces[k].restrict(keep[k], keep[k - 1]) for k in range(1, self.dim + 1)
        ]

    def transpose_dual(self) -> "CellComplex":
        """The plain dual: k-cells become (n-k)-cells, cofaces become faces.

        Dual cells inherit the box and label of their primal cell.  Exact on
        closed backgrounds; for complexes with boundary use
        :func:`dual_with_boundary`.
        """
        n = self.dim
        faces = [Faces.empty(self.n_cells(n))] + [self.cofaces(n - j) for j in range(1, n + 1)]
        return CellComplex(
            n, self.cells[::-1], self.labels[::-1], self.label_names, faces,
            self.background, "dual", self.periods, self.holes,
        )

    def relative_cells(self, labels: set[str]) -> list[np.ndarray]:
        """Per grade, the mask of the cells of the relative chain complex
        C(L)/C(B), B the cells carrying `labels`: the unlabelled cells.  B
        must be a nonempty subcomplex (ValueError otherwise)."""
        keep = [~self.label_mask(k, labels.__contains__) for k in range(self.dim + 1)]
        if all(kp.all() for kp in keep):
            raise ValueError(f"labels {sorted(labels)} select no cells")
        if open_face := _first_open_face(self.faces, [~kp for kp in keep]):
            raise ValueError("selected subcomplex is not closed under the boundary: "
                             "grade-{} cell {} has unselected face {}".format(*open_face))
        return keep

    def quotient_to_point(self, labels: set[str]) -> "CellComplex":
        """Collapse the labeled boundary subcomplex to a single point.

        The relative chain complex (the :meth:`relative_cells`, their faces
        among them) plus one new vertex that replaces the selected vertices:
        an edge with an odd number of collapsed endpoints gets it as a face.
        """
        keep = self.relative_cells(labels)
        faces = self._restrict_faces(keep)
        cells = [c[kp] for c, kp in zip(self.cells, keep)]
        new_labels = [lab[kp] for lab, kp in zip(self.labels, keep)]
        star = len(cells[0])  # index of the new vertex, after every kept one
        cells[0] = np.concatenate([cells[0], np.full((1, self.dim, 2), -1, dtype=cells[0].dtype)])
        new_labels[0] = np.append(new_labels[0], 0)
        faces[0] = Faces.empty(star + 1)
        fs = faces[1]
        rerouted = np.flatnonzero((self.faces[1].counts()[keep[1]] - fs.counts()) % 2)
        faces[1] = Faces.from_pairs(
            len(fs), np.concatenate([fs.owners(), rerouted]),
            np.concatenate([fs.idx, np.full(len(rerouted), star)]),
        )
        # every outer patch collapsed, and nothing else: a sphere
        outer = {lb for lb in self.labels_present() | labels if lb.startswith("o")}
        return CellComplex(
            self.dim, cells, new_labels, self.label_names, faces,
            "sphere" if outer == labels else self.background, self.style,
            self.periods, [h for h in self.holes if h.label not in labels],
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
        # the cell lines of every grade: the word "cell k", i, the label
        # word, the box, the word ":", the faces
        d, n = self.dim, [self.n_cells(k) for k in range(self.dim + 1)]
        grade = np.repeat(np.arange(d + 1), n)
        fixed = np.column_stack((
            grade, np.arange(len(grade)) - np.repeat(np.cumsum(n) - n, n),
            np.concatenate(self.labels) + d + 2,
            np.concatenate(self.cells).reshape(len(grade), 2 * d), np.full(len(grade), d + 1)))
        # with no coordinates, the line keeps both spaces around them
        words = [f"cell {k}" for k in range(d + 1)] + [":" if d else " :", *self.label_names]
        cells = write_lines(words, fixed, np.array([True, False, True] + [False] * 2 * d + [True]),
                            np.concatenate([f.counts() for f in self.faces]),
                            np.concatenate([f.idx for f in self.faces]))
        return "\n".join(lines) + "\n" + decode(cells)

    @classmethod
    def from_text(cls, text: str) -> "CellComplex":
        """Parse a ``cellcomplex v1`` file; malformed input raises ValueError."""
        tok = Tokens(encode(with_newlines(text)))
        if not len(tok.first) or tok.line_text(0) != "cellcomplex v1":
            raise ValueError("not a cellcomplex v1 file")
        try:
            head = tok.line_text(1).split()
            dim = int64(head[1])
            background = head[3]
            if dim >= len(tok.first):  # fewer lines than its dim + 1 grade lines
                raise IndexError(f"dimension {dim}")
            style, periods, holes = "plain", (None,) * dim, []
            pos = 2
            if tok.line_text(pos).startswith("meta "):
                toks = tok.line_text(pos).split()
                style = toks[2]
                periods = tuple(None if t == "-" else int64(t) for t in toks[4 : 4 + dim])
                hole_tok = toks[5 + dim]
                if hole_tok != "-":
                    for part in hole_tok.split(";"):
                        fields = part.split(",")
                        pairs = [t.split(":") for t in fields[3:]]
                        if len(pairs) != dim or any(len(p) != 2 for p in pairs):
                            raise ValueError(f"hole {part!r} needs {dim} lo:hi pairs")
                        hid, kind, level = int64(fields[0]), fields[1], int64(fields[2])
                        box = tuple((int64(lo), int64(hi)) for lo, hi in pairs)
                        holes.append(Hole(hid, box, kind, level))
                pos += 1
            counts = []
            for k in range(dim + 1):
                line = tok.line_text(pos)
                toks = line.split()
                if toks[:3] != ["grade", str(k), "count"] or int64(toks[3]) < 0:
                    raise ValueError(f"expected 'grade {k} count <n>', got {line!r}")
                counts.append(int64(toks[3]))
                pos += 1
            cells, labels, names, faces = _read_cells(tok, pos, counts, dim)
        except IndexError as err:
            raise ValueError("cellcomplex v1 file is truncated or has a short line") from err
        return cls(dim, cells, labels, names, faces, background, style, periods, holes)


def _read_cells(tok: Tokens, pos: int, counts: list[int], dim: int):
    """The (n, dim, 2) boxes, the label codes and the faces of each grade,
    and the label table, from the non-blank lines ``cell k i <label> <2 dim
    coordinates> : <faces>`` that follow line `pos`, counts[k] of grade k.

    All grades are read as one block.  The lines before the first malformed
    one are parsed, so that a bad integer there is reported first, as a
    reader that parses one line, or one grade, at a time would."""
    left = len(tok.first) - pos  # the lines after the grade lines
    bounds = np.array([min(c, left) for c in itertools.accumulate([0] + counts)])
    n, sep = int(bounds[-1]), 4 + 2 * dim  # sep: the ':' after the label and the coordinates
    lines = slice(pos, pos + n)
    grade = np.repeat(np.arange(dim + 1), np.diff(bounds))
    index = np.arange(n) - bounds[grade]
    count = tok.count[lines]
    ok = ((count > sep) & tok.is_word(tok.column(0, lines), b"cell")
          & tok.is_int(tok.column(1, lines), grade) & tok.is_int(tok.column(2, lines), index)
          & tok.is_word(tok.column(sep, lines), b":"))
    bad = first_false(ok)
    # the integer tokens of the lines before `bad`: the coordinates and the faces
    first, count = tok.first[pos : pos + bad], count[:bad]
    lo = int(first[0]) if bad else 0
    is_int = np.ones(int(count.sum()), dtype=bool)
    for j in (0, 1, 2, 3, sep):
        is_int[first - lo + j] = False
    values = tok.ints(lo + np.flatnonzero(is_int), np.repeat(grade[:bad], count)[is_int])
    if bad < n:
        raise ValueError(f"expected 'cell {grade[bad]} {index[bad]} <label> <{2 * dim} "
                         f"coordinates> : <faces>', got {tok.line_text(pos + bad)!r}")
    if n < sum(counts):
        raise IndexError(f"{n} of {sum(counts)} cell lines")
    if left > n:
        raise ValueError(f"{left - n} lines after the last cell")
    # each line's values: 2 dim coordinates, then its faces
    at = (np.cumsum(count - 5) - (count - 5))[:, None] + np.arange(2 * dim)
    in_faces = np.ones(len(values), dtype=bool)
    in_faces[at] = False
    boxes, cols = values[at], values[in_faces]
    rows = np.repeat(np.arange(n), count - sep - 1)
    ends = np.searchsorted(rows, bounds)  # each grade's first face entry
    codes, names = tok.codes(tok.column(3, lines), [BULK])
    cells, labels, faces = [], [], []
    for k in range(dim + 1):
        a, b = bounds[k], bounds[k + 1]
        cells.append(boxes[a:b].reshape(b - a, dim, 2))
        labels.append(codes[a:b])
        faces.append(Faces.from_pairs(b - a, rows[ends[k] : ends[k + 1]] - a,
                                      cols[ends[k] : ends[k + 1]]))
    return cells, labels, names, faces


# -- lattice construction ---------------------------------------------------


def _axis_elements(kind: str, L: int) -> tuple[np.ndarray, np.ndarray]:
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


class _Lattice:
    """The product complex of 1D factors as index arithmetic.

    The k-cells with one set of extended axes `ext` form a C-ordered block,
    the blocks of a grade in ``itertools.combinations`` order, and the
    grades follow each other: k-cell i is row ``start[k] + i`` of the
    arrays of all cells.  A face of a cell across axis d is the same
    multi-index in the block without d, at vertex j or j + 1 on that axis
    (mod the vertex count on a periodic axis)."""

    def __init__(self, axis_kinds: list[str], L: int):
        self.dim = len(axis_kinds)
        self.width = _width(0, 2 * L)  # of the boxes: int16 when the coordinates fit
        self.elements = [_axis_elements(kind, L) for kind in axis_kinds]
        self.periods = tuple(2 * L if kind == "circle" else None for kind in axis_kinds)
        # per grade: {ext: (first cell, block shape)}, in block order
        self.blocks, counts = [], []
        for k in range(self.dim + 1):
            blocks, first = {}, 0
            for ext in itertools.combinations(range(self.dim), k):
                blocks[ext] = (first, tuple(len(self.elements[d][d in ext]) for d in range(self.dim)))
                first += math.prod(blocks[ext][1])
            self.blocks.append(blocks)
            counts.append(first)
        self.start = np.cumsum([0] + counts)
        self.index = _width(0, int(self.start[-1]), (np.int32, np.int64))

    def boxes(self, grades: slice = slice(None)) -> np.ndarray:
        """The (N, dim, 2) boxes of the cells of a slice of the grades."""
        ks = range(self.dim + 1)[grades]
        out = np.empty((self.start[ks.stop] - self.start[ks.start], self.dim, 2), dtype=self.width)
        for k in ks:
            for ext, (first, shape) in self.blocks[k].items():
                at = self.start[k] - self.start[ks.start] + first
                block = out[at : at + math.prod(shape)].reshape(*shape, self.dim, 2)
                for d in range(self.dim):
                    along = [1] * self.dim
                    along[d] = shape[d]
                    for side in (0, 1):
                        block[..., d, side] = self.elements[d][d in ext][:, side].reshape(along)
        return out

    def faces(self, k: int, cells: np.ndarray) -> np.ndarray:
        """The (len(cells), 2k) table of the faces of the ascending k-cells
        `cells`, in the index width, each row ascending: across the extended
        axes from the last to the first, whose blocks below ascend, and on
        each axis the lower index first.  A face that a row holds twice (on
        an axis of period 1) is in both columns of its pair."""
        table = np.empty((len(cells), 2 * k), dtype=self.index)
        blocks, below = self.blocks[k].items(), self.blocks[k - 1]
        bounds = np.searchsorted(cells, [first for _, (first, _) in blocks] + [self.start[k + 1]])
        for (ext, (first, shape)), a, b in zip(blocks, bounds, bounds[1:]):
            if a == b:
                continue
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
                if self.periods[d]:
                    upper[c // inner % shape[d] == shape[d] - 1] -= shape[d] * inner
                np.minimum(lower, upper, out=table[a:b, 2 * col])
                np.maximum(lower, upper, out=table[a:b, 2 * col + 1])
        return table

    def kept_faces(self, k: int, keep: np.ndarray, keep_below: np.ndarray) -> Faces:
        """The faces of the kept k-cells among the kept (k-1)-cells (a mask
        each), both renumbered; a face held twice cancels.  The table is
        built `_ENTRIES` entries at a time, straight into the CSR arrays."""
        ptr = np.zeros(int(np.count_nonzero(keep)) + 1, dtype=self.index)
        idx = np.empty((len(ptr) - 1) * 2 * k, dtype=self.index)
        new = keep_below.astype(self.index)
        np.cumsum(new, out=new)  # in place, as in `restrict`
        row, step = 0, max(_ENTRIES // (2 * k), 1)
        for first in range(0, len(keep), step):
            table = self.faces(k, first + np.flatnonzero(keep[first : first + step]))
            sel = keep_below[table] & (table[:, 0::2] != table[:, 1::2]).repeat(2, axis=1)
            ptr[row + 1 : row + 1 + len(table)] = ptr[row] + np.cumsum(sel.sum(axis=1))
            idx[ptr[row] : ptr[row + len(table)]] = new[table[sel]] - 1
            row += len(table)
        return Faces(ptr, idx if ptr[-1] == idx.size else idx[: ptr[-1]].copy())


def _lattice_complex(axis_kinds: list[str], L: int, background: str, style: str,
                     rules: tuple[tuple[int, int, str], ...] = (),
                     holes: list[Hole] | tuple = ()) -> CellComplex:
    """The product complex of the 1D factors with `holes` punched, in one
    construction.  `rules` are (axis, coordinate, label) in priority order:
    a cell degenerate at `coordinate` on `axis` takes the label of the
    first rule it meets.

    The boxes and label codes of every cell are built as arrays, the holes
    mark the cells they delete and relabel (`_punch_masks`), the faces are
    computed for the kept cells only and renumbered, and the one
    CellComplex checks dd = 0; a punched complex's e-patches must be
    closed (`_check_e_patches`)."""
    lat = _Lattice(axis_kinds, L)
    boxes = lat.boxes()
    codes = np.zeros(len(boxes), dtype=_width(0, len(rules) + len(holes)))
    for r in range(len(rules) - 1, -1, -1):
        d, c, _ = rules[r]
        codes[(boxes[:, d, 0] == c) & (boxes[:, d, 1] == c)] = r + 1
    names = [BULK] + [label for _, _, label in rules]
    if holes:
        gone, codes, names = _punch_masks(
            boxes, codes, names, lat.start, lat.periods, style, holes,
            lambda k, cells: (2 * k, lat.faces(k, cells).ravel()))
    else:
        gone = np.zeros(len(boxes), dtype=bool)
    keep = np.split(~gone, lat.start[1:-1])
    labels = [c[kp].astype(np.int32) for c, kp in zip(np.split(codes, lat.start[1:-1]), keep)]
    del gone, boxes, codes  # nothing holds the whole lattice: kept boxes come a grade at a time
    cells = [np.compress(kp, lat.boxes(slice(k, k + 1)), axis=0) for k, kp in enumerate(keep)]
    faces = [Faces.empty(len(cells[0]))] + [
        lat.kept_faces(k, keep[k], keep[k - 1]) for k in range(1, lat.dim + 1)]
    cx = CellComplex(lat.dim, cells, labels, names, faces, background, style, lat.periods,
                     list(holes))
    if holes:
        _check_e_patches(cx)
    return cx


def _lattice_args(n: int, background: str, e_axes, backgrounds) -> tuple[str, tuple]:
    """The background ("open-cube" is "open") and the e-axes (default: the
    last axis) of a lattice, checked: a dimension outside 2..4, a
    background not in `backgrounds` or an axis outside 0..n-1 raises
    ValueError."""
    if not 2 <= n <= 4:
        raise ValueError(f"dimension {n} unsupported (need 2..4)")
    background = {"open-cube": "open"}.get(background, background)
    if background not in backgrounds:
        raise ValueError(f"unknown background {background!r}")
    e_axes = (n - 1,) if e_axes is None else tuple(e_axes)
    if not all(0 <= d < n for d in e_axes):
        raise ValueError(f"e_axes {e_axes} outside 0..{n - 1}")
    return background, e_axes


def build_lattice(
    n: int, L: int, background: str = "open", e_axes: tuple[int, ...] | None = None,
    holes: list[Hole] | tuple = (),
) -> CellComplex:
    """Full hypercubic complex: the universe other operations carve up.

    open-cube: (L+1)**n vertices with outer patches labeled (default: the
    last axis carries the two e-patches, all other patches are m).
    torus: opposite faces identified, L**n vertices.
    sphere: open cube with the entire outer boundary collapsed to a point.

    `holes` are punched in the same construction; on the sphere they are
    punched into the quotient of the open cube.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    background, e_axes = _lattice_args(n, background, e_axes, ("open", "torus", "sphere"))
    if background == "torus":
        return _lattice_complex(["circle"] * n, L, "torus", "plain", (), holes)
    # E-priority: a cell on several outer patches takes the first e-patch in
    # patch order, else the first m-patch
    rules = tuple(
        (d, side * 2 * L, f"{kind}{2 * d + side}")
        for kind, on_e in (("oE", True), ("oM", False))
        for d in range(n) if (d in e_axes) == on_e
        for side in (0, 1)
    )
    if background == "open":
        return _lattice_complex(["interval"] * n, L, "open", "plain", rules, holes)
    cx = _lattice_complex(["interval"] * n, L, "open", "plain", rules)
    sphere = cx.quotient_to_point({lb for lb in cx.labels_present() if lb.startswith("o")})
    return punch_holes(sphere, holes) if holes else sphere


def code_lattice(
    n: int, L: int, background: str = "open", e_axes: tuple[int, ...] | None = None,
    holes: list[Hole] | tuple = (),
) -> CellComplex:
    """The boundary-adapted cellulation used to build codes, on the open
    cube or the torus, with `holes` punched in the same construction.

    Rough axes are full intervals with OuterE end planes; smooth axes are
    cell-centered paths, so the i=1 code built on it is the standard
    (1, n-1) surface code with d_Z = L and d_X = L**(n-1).
    """
    if L < 2:
        raise ValueError("code lattice needs L >= 2")
    background, e_axes = _lattice_args(n, background, e_axes, ("open", "torus"))
    if background == "torus":
        return _lattice_complex(["circle"] * n, L, "torus", "code", (), holes)
    kinds = ["interval" if d in e_axes else "centered" for d in range(n)]
    rules = tuple((d, side * 2 * L, f"oE{2 * d + side}") for d in e_axes for side in (0, 1))
    return _lattice_complex(kinds, L, "open", "code", rules, holes)


# -- hole punching ----------------------------------------------------------


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
    grid is allocated.

    `boxes` holds the cells of every grade.  Midpoints and widths are
    computed in twice the width of the boxes' integers, so that they
    cannot overflow."""

    def __init__(self, boxes: np.ndarray, periods):
        self.boxes, self.periods = boxes, periods
        self.wide = np.int32 if boxes.dtype == np.int16 else np.int64
        # the grid's extent, from the midpoints and widths of one axis at a time
        self.low, shape, self.reach = [], [], 0
        for d, period in enumerate(periods):
            m, w = _midpoints(boxes[:, d], self.wide)
            self.reach = max(self.reach, int(w.max(initial=0)))
            lo, hi = (int(m.min()) >> 1, int(m.max()) >> 1) if len(m) else (0, 0)
            self.low.append(0 if period else lo)
            shape.append(period or hi - self.low[d] + 1)
            del m, w
        if math.prod(shape) > _SLOTS_PER_CELL * max(len(boxes), 1):
            raise ValueError(f"{len(boxes)} cells spread over a grid of {math.prod(shape)} "
                             f"midpoints; holes need at most {_SLOTS_PER_CELL} per cell")
        # each block of cells' grid positions, axis by axis, in the grid's
        # index width
        self.rows = np.full(shape, -1, dtype=np.int32)
        for first in range(0, len(boxes), _ENTRIES):
            part = boxes[first : first + _ENTRIES]
            flat = np.zeros(len(part), dtype=_width(0, math.prod(shape), (np.int32, np.int64)))
            for d, period in enumerate(periods):
                h = np.add(part[:, d, 0], part[:, d, 1], dtype=self.wide)
                h >>= 1
                h -= self.low[d]
                if period:
                    h %= period
                flat *= shape[d]
                flat += h
            self.rows.flat[flat] = np.arange(first, first + len(part), dtype=np.int32)
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
        axis d (in the wide width), whether ``2a + g <= m <= 2b - g`` holds
        on every axis, m the cell's doubled midpoint, w its width there and
        g = margin(w, j); on a periodic axis also after shifting m by one
        period either way (2 * period in these units).  The pairs are tested
        `_ENTRIES` at a time, each block's temporaries in the wide width."""
        hit = np.ones(len(rows), dtype=bool)
        for first in range(0, len(rows), _ENTRIES):
            part = slice(first, first + _ENTRIES)
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


def _midpoints(spans: np.ndarray, wide) -> tuple[np.ndarray, np.ndarray]:
    """The doubled midpoints ``lo + hi`` and the widths ``hi - lo`` of the
    (n, 2) `spans`, in the integer type `wide`."""
    lo, hi = spans[:, 0], spans[:, 1]
    return np.add(lo, hi, dtype=wide), np.subtract(hi, lo, dtype=wide)


def _hole_hits(boxes: np.ndarray, bulk: np.ndarray, periods, style: str,
               holes: list[Hole]) -> tuple[np.ndarray, np.ndarray]:
    """Per cell (the rows of `boxes`), whether a hole deletes it, and the
    last hole that relabels it (-1 for none), before e-patches close down.
    The holes of one box shape are tested together, a chunk of them at a
    time, on the cells of one gather of the midpoint grid per chunk."""
    grid = _MidpointGrid(boxes, periods)
    hb = np.array([h.box for h in holes], dtype=np.int64).reshape(len(holes), len(periods), 2)
    # per axis, the doubled ends of every hole in the wide width, clipped to
    # a quarter of its range: still past every (shifted) midpoint and margin
    lim = int(np.iinfo(grid.wide).max) >> 2
    ends = np.clip(2 * hb, -lim, lim).astype(grid.wide).transpose(1, 2, 0)
    is_m = np.array([h.kind == "m" for h in holes], dtype=bool)
    doomed = np.zeros(len(boxes), dtype=bool)
    tag = np.full(len(boxes), -1, dtype=_width(-1, len(holes)))
    if style != "code":  # the first hole that deletes each cell, and the cells on each hole
        first_doom, within = np.full(len(boxes), len(holes), dtype=tag.dtype), []
    shapes, shape = np.unique(hb[:, :, 1] - hb[:, :, 0], axis=0, return_inverse=True)
    for s in range(len(shapes)):
        # as many holes at a time as gather about _ENTRIES cells: a block
        # spans at most the box, the widest cell and one slot per side
        holes_of_shape = np.flatnonzero(shape.ravel() == s)
        step = max(_ENTRIES // math.prod(int(x) + grid.reach + 2 for x in shapes[s]), 1)
        for first in range(0, len(holes_of_shape), step):
            js = holes_of_shape[first : first + step]
            j, r = grid.gather(hb[js])
            j = js[j].astype(tag.dtype)  # for the fast ufunc.at
            if style == "code":
                # an m-hole measures out the closed star of its box; an
                # e-hole tags the interior, whose faces join its e-patch
                # below, and the code module deletes the patch, leaving
                # dangling edges
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


def _punch_masks(boxes: np.ndarray, codes: np.ndarray, names, start: np.ndarray, periods,
                 style: str, holes: list[Hole], faces_of):
    """The cells that `holes` delete, per the style conventions, as one mask
    over the rows of `boxes`, and the label codes after the holes relabel
    cells (`codes`, changed in place) with the label table they index.

    The rows hold the cells of every grade, k-cell i at row start[k] + i;
    ``faces_of(k, cells)`` gives the face counts of the ascending k-cells
    `cells` and their faces, concatenated.  Holes apply in order; a cell
    relabeled by several holes takes the last one's label."""
    doomed, tag = _hole_hits(boxes, None if style == "code" else codes == 0, periods, style, holes)
    if style == "code":  # e-patches close down: a face takes its cofaces' last e-hole
        for k in range(len(start) - 2, 0, -1):
            cells = np.flatnonzero(tag[start[k] : start[k + 1]] >= 0)
            if cells.size:
                counts, below = faces_of(k, cells)
                np.maximum.at(tag, start[k - 1] + below, np.repeat(tag[start[k] + cells], counts))
    tagged = np.flatnonzero(tag >= 0)
    if tagged.size:
        # the holes' labels join the table in order of their first tagged cell
        used, first = np.unique(tag[tagged], return_index=True)
        code = collections.defaultdict(lambda: len(code),
                                       {name: c for c, name in enumerate(names)})
        hole_code = np.zeros(len(holes), dtype=codes.dtype)
        for j in used[np.argsort(first)].tolist():
            hole_code[j] = code[holes[j].label]
        codes[tagged] = hole_code[tag[tagged]]
        names = list(code)
    return doomed, codes, names


def punch_holes(cx: CellComplex, holes: list[Hole]) -> CellComplex:
    """Apply a batch of holes to a complex, per the style conventions.

    The deleted set stays closed under the boundary (rough bites take their
    faces along) or the coboundary (smooth bites are closed stars), so the
    restricted complex still satisfies dd = 0.  Holes apply in order; a
    cell relabeled by several holes takes the last one's label.  A layout
    that leaves an e-labelled patch not closed under the boundary raises
    ValueError, and so does a complex whose cells share a midpoint or lie
    too sparse for `_MidpointGrid`.
    """
    start = np.cumsum([0] + [cx.n_cells(k) for k in range(cx.dim + 1)])
    gone, codes, names = _punch_masks(
        np.concatenate(cx.cells), np.concatenate(cx.labels), cx.label_names, start, cx.periods,
        cx.style, holes, lambda k, cells: (cx.faces[k].counts()[cells], cx.faces[k].take(cells)))
    punched = cx.delete(np.split(gone, start[1:-1]), np.split(codes, start[1:-1]), names,
                        holes_add=holes)
    _check_e_patches(punched)
    return punched


def _first_open_face(faces: list[Faces], selected: list[np.ndarray]) -> tuple[int, ...] | None:
    """The first (grade k, selected k-cell, unselected face) by which the
    selected cells (a mask per grade) fail to be closed under the boundary,
    in order of grade, cell and face; None if they are closed."""
    for k in range(1, len(faces)):
        cells = np.flatnonzero(selected[k])
        idx = faces[k].take(cells)
        bad = np.flatnonzero(~selected[k - 1][idx])
        if bad.size:
            own = np.repeat(cells, faces[k].counts()[cells])
            return k, int(own[bad[0]]), int(idx[bad[0]])
    return None


def _check_e_patches(cx: CellComplex) -> None:
    """The e-labelled cells, which the code and the relative homology remove,
    must be closed under the boundary: a plain-style e-hole cut by the outer
    boundary or by a later m-hole is not."""
    _check_closed(cx, [cx.label_mask(k, label_is_e) for k in range(cx.dim + 1)], "e-labelled")


def _check_closed(cx: CellComplex, cells: list[np.ndarray], what: str, error=ValueError):
    """Raise `error` naming the patch of the first of `cells` (a mask per
    grade) with a face outside them, if there is one."""
    if open_face := _first_open_face(cx.faces, cells):
        k, i, f = open_face
        raise error(
            f"{what} patch {cx.label_names[cx.labels[k][i]]} is not closed under "
            f"the boundary: grade-{k} cell {i} has face {f} labelled "
            f"{cx.label_names[cx.labels[k - 1][f]]}"
        )


def punch_box(cx: CellComplex, origin: tuple[int, ...], side: int, kind: str) -> CellComplex:
    """Punch one hole: `origin` and `side` in cell (undoubled) coordinates."""
    hid = max((h.hole_id for h in cx.holes), default=-1) + 1
    box = tuple((2 * o, 2 * (o + side)) for o in origin)
    return punch_holes(cx, [Hole(hid, box, kind)])


def fractal_holes(spec: FractalSpec) -> list[Hole]:
    """Hole list of the recursive construction, in deterministic order."""
    lo = (spec.p - spec.q) // 2  # the hole's first step in units of sub-blocks
    # the steps of the sub-blocks around the hole, in itertools.product order
    steps = np.array([s for s in itertools.product(range(spec.p), repeat=spec.n)
                      if not all(lo <= x < lo + spec.q for x in s)])
    holes: list[Hole] = []
    blocks, sub = np.zeros((1, spec.n), dtype=np.int64), spec.side
    for level in range(1, spec.level + 1):
        sub //= spec.p
        origin, first = 2 * (blocks + lo * sub), len(holes)
        holes += [Hole(first + i, tuple(map(tuple, box)), spec.hole_kind(first + i), level)
                  for i, box in enumerate(np.stack([origin, origin + 2 * spec.q * sub], 2).tolist())]
        blocks = (blocks[:, None, :] + steps * sub).reshape(-1, spec.n)
    return holes


def fractal_complex(spec: FractalSpec, style: str = "plain") -> CellComplex:
    """The lattice for `spec` with its holes punched, built in one
    construction (on the sphere, punched into the quotient).

    style "plain" backs homology computations; style "code" backs code and
    distance computations.
    """
    builder = code_lattice if style == "code" else build_lattice
    return builder(spec.n, spec.side, spec.background, holes=fractal_holes(spec))


# -- duals -------------------------------------------------------------------


def dual_with_boundary(cx: CellComplex) -> CellComplex:
    """Honest dual cellulation of a complex with boundary.

    Every primal k-cell c contributes an interior dual cell D(c) of grade
    n-k; every labeled (boundary) cell additionally contributes a boundary
    dual cell Db(c) of grade n-1-k that closes D(c) off at the boundary:

        d D(c)  = sum of D(c') over cofaces c' of c, plus Db(c) if labeled
        d Db(c) = sum of Db(c') over labeled cofaces c' of c

    Boundary dual cells inherit the primal label (a relative homology
    computation on the dual removes them); interior duals are bulk.
    In dual grade g the D cells of the primal (n-g)-cells come first, in
    primal order, then the Db cells of the labeled primal (n-1-g)-cells.
    So each grade's CSR rows are assembled in order from the cofaces of
    the two primal grades it reads, one grade at a time.
    """
    n = cx.dim
    count = [cx.n_cells(k) for k in range(n + 2)]
    labeled = [lab != 0 for lab in cx.labels]
    _check_closed(cx, labeled, "labelled", BoundaryError)  # else dd = 0 fails on the dual
    cells, labels, faces = [], [], []
    up = cx.cofaces(n - 1)  # of primal grade k, read again as grade kb's by the next grade
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
        # d D(c): the D cells of the cofaces of c, then Db(c) if c is
        # labeled; d Db(c): the Db cells of the labeled cofaces of c
        below = cx.cofaces(kb) if kb >= 0 else Faces.empty(0)
        db = below.restrict(labeled[kb], labeled[k]) if kb >= 0 else below
        at = up.ptr[1:][labeled[k]]  # where the labeled cells' cofaces end
        ptr = np.concatenate((up.ptr + np.append(0, np.cumsum(labeled[k])), db.ptr[1:]))
        ptr[count[k] + 1 :] += ptr[count[k]]
        idx = np.empty(ptr[-1], dtype=_width(0, count[k + 1] + at.size, (np.int32, np.int64)))
        idx[: ptr[count[k]]] = np.insert(up.idx, at, count[k + 1] + np.arange(at.size))
        idx[ptr[count[k]] :] = db.idx + count[k + 1]
        faces.append(Faces(ptr, idx))
        up = below
    return CellComplex(n, cells, labels, cx.label_names, faces, cx.background, "dual",
                       cx.periods, cx.holes)
