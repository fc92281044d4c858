"""Z2 cellular homology, absolute and relative, plus duality checks.

Relative homology is the homology of the relative chain complex C(L)/C(B)
(`CellComplex.relative_cells`, the labeled boundary subcomplex B removed;
the reduction starts with B dead rather than from renumbered copies):
``H_i(L, B) = H_i(L/B)`` for i > 0.  At i = 0 the functions here return
the value of the quotient L/B, where B is one more point: one more than the
reduced relative group.  :func:`betti_with_caveat` flags it instead of
papering over the distinction (no code parameter depends on i = 0).

One reduction engine, `_Reduction`, has three readers: :func:`betti`
(the faces of a cell complex), :func:`cobetti` (its cochain complex, whose
faces are the cofaces and cofaces the faces, grades reversed) and
`code.CssCode.reduction` (a CSS code's chain complex Z checks -> qubits ->
X checks, whose recorded rounds it replays to carry a cycle or cocycle
into the residue).  The engine shrinks the complex round by round on CSR
face and coface arrays, with a live mask and live-neighbour counts per
grade, gathering only the lists whose counts change: elementary collapses
(a (k-1)-cell with exactly one live coface goes with that coface), then
coreductions (Mrozek & Batko, "Coreduction homology algorithm", DCG 2009:
a k-cell with exactly one live face goes with that face), seeding one
vertex per connected component when grade-1 coreductions stall, and
dually one top cell when the live top cells sum to a cycle.  No pair
changes a surviving cell's boundary, so the residue is the original
boundary maps restricted to the surviving cells (for FC(4,2) level 2
relative to the e-labels, 132 of 7,440 edges and 180 of 5,232 faces
survive).

`_RowSpace` is the one place where a residue's boundary or check matrix
is worked with: it is ranked, asked whether a vector lies in its row space,
asked for a basis of its kernel (the logical representatives of a code),
and asked which of a block of rows are independent of the row space and of
each other (the representatives among those, and the smooth-patch checks a
code keeps).  Its weight-2 rows are contracted, as edges, into the
connected components of the columns, the other rows are folded onto those
components, and only the folded rows become a dense GF(2) matrix.  The
residues are mostly empty and weight-2 rows: the 1,038 x 144 Z residue of
the FC(4,2) level-2 code folds to no row over one component.  `betti`
reads only the face arrays, so it stays a cross-check independent of H_X
and H_Z.  `cobetti` pairs other cells than `betti` does, so the CLI still
prints two routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complexes import (
    BoundaryError, CellComplex, Faces, _width, dual_with_boundary, label_is_e, label_is_m,
)
from .gf2 import Gf2Matrix, Gf2Vector, _kernel_rows, _rref_inplace, in_rowspace


def betti(cx: CellComplex, grade: int, relative_labels=frozenset()) -> int:
    """dim H_i(L; Z2), or dim H_i(L, B; Z2) for a labeled subcomplex B."""
    return betti_with_caveat(cx, grade, relative_labels)[0]


def betti_with_caveat(
    cx: CellComplex, grade: int, relative_labels=frozenset()
) -> tuple[int, bool]:
    """:func:`betti` and the reduced caveat: True for relative homology at
    grade 0, where the quotient-complex value is not the reduced group."""
    live, point = _chains(cx, grade, relative_labels)
    return _reduced_betti(cx.faces, grade, live=live) + point, point


def _chains(cx: CellComplex, grade: int, relative_labels) -> tuple[list[np.ndarray] | None, bool]:
    """The cells of C(L) (None: all of them), or of C(L)/C(B) for the
    cells B carrying `relative_labels`, as a mask per grade, and whether
    the grade is 0 with labels: there the quotient L/B counts the
    collapsed B as one more component."""
    if not 0 <= grade <= cx.dim:
        raise ValueError(f"grade {grade} out of range 0..{cx.dim}")
    if not relative_labels:
        return None, False
    return cx.relative_cells(set(relative_labels)), grade == 0


def _reduced_betti(down: list[Faces], grade: int, up: list[Faces] | None = None,
                   live: list[np.ndarray] | None = None) -> int:
    """dim H_grade of the chain complex of faces down[k] (cofaces up[k], if
    given) on the cells `live` (all, if not given; taken over): reduced by
    `_Reduction`, its residue's boundaries ranked."""
    live, seeds = _Reduction(down, up, live).run()
    sizes = [int(keep.sum()) for keep in live]
    # the residue's boundaries into and out of the grade
    d = {k: down[k].restrict(live[k], live[k - 1])
         for k in (grade, grade + 1) if 1 <= k < len(down)}
    if len(d) == 2 and not d[grade + 1].composes_to_zero(d[grade], sizes[grade - 1]):
        raise BoundaryError(f"reduced complex: boundary of boundary nonzero at grade {grade + 1}")
    ranks = sum(_RowSpace(fs, sizes[k - 1]).rank for k, fs in d.items())
    return sizes[grade] - ranks + seeds[grade]


class _Reduction:
    """The live cells of a chain complex under collapses and coreductions.

    The complex is given in CSR form: ``down[k]`` lists the faces of each
    k-cell (``down[0]`` is empty) and ``up[k]``, k below the top grade, its
    cofaces, sorted (the transposes of `down` when not given);
    ``n_down[k]`` / ``n_up[k]`` count the live ones.  The cells start live
    unless masks `live` are given (a subcomplex whose boundary maps are
    `down` restricted, as a relative complex is): a dead cell is never a
    candidate and never counted, so the pairs are those of the restricted
    copies, in the original numbering.  Every round of pairs
    is recorded in ``rounds`` as (g, h, x, y), none empty: the g-cells x
    went with the h-cells y, x[i] with y[i].  A round gathers the
    h-neighbours of the candidates x (to find their y), x's far side, and
    y's g-side, once for its counts and as the next candidates.  The other
    sides hold no live cell but y: a live cell on y's far side would make
    dd nonzero on the live cells (through y, x's one live neighbour), and
    no pair changes a surviving boundary.
    """

    def __init__(self, down: list[Faces], up: list[Faces] | None = None,
                 live: list[np.ndarray] | None = None):
        self.down = down
        self.up = up or [fs.transpose(len(below)) for below, fs in zip(down, down[1:])]
        self.live = live or [np.ones(len(fs), dtype=bool) for fs in down]
        self.n_down = [_live_counts(fs, below) for fs, below in zip(down, [None] + self.live)]
        self.n_up = [_live_counts(fs, above) for fs, above in zip(self.up, self.live[1:])]
        self.rounds: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    def run(self) -> tuple[list[np.ndarray], list[int]]:
        """Sweep (collapses from the top grade down, coreductions from grade
        1 up, seeds at the end grades) until a sweep records no round and no
        seed; return the live masks and the number of seeds per grade."""
        top = len(self.live) - 1
        seeds = [0] * (top + 1)
        sweep = [(k - 1, k) for k in range(top, 0, -1)] + [(k, k - 1) for k in range(1, top + 1)]
        while True:
            done = len(self.rounds), sum(seeds)
            for g, h in sweep:
                self._pair_off(g, h)
                while h in (0, top) and self._seed(h, g, seeds):
                    self._pair_off(g, h)
            if (len(self.rounds), sum(seeds)) == done:
                return self.live, seeds

    def _seed(self, g: int, h: int, seeds: list[int]) -> bool:
        """Remove one live g-cell as a seed, g = 0 or the top grade, if every
        live cell of the next grade h has an even number of live neighbours
        in grade g; return whether one went.  At g = 0 no boundary then
        reaches a single vertex (the augmentation vanishes on boundaries),
        at the top the live top cells sum to a cycle through the seed: H_g
        drops by one and every other grade stays.  The seed has the most
        live neighbours, so the pairs spread fastest from it."""
        count, pick = (self.n_down, self.n_up) if g < h else (self.n_up, self.n_down)
        if not self.live[g].any() or (count[h][self.live[h]] & 1).any():
            return False
        self._remove(g, np.argmax(np.where(self.live[g], pick[g], -1))[None], h)
        seeds[g] += 1
        return True

    def _remove(self, k: int, cells: np.ndarray, j: int) -> np.ndarray | None:
        """Mark the k-cells dead and lower the live-neighbour counts of their
        neighbours in grade j = k +- 1, if there is one; return them."""
        self.live[k][cells] = False
        if not 0 <= j < len(self.live):
            return None
        near = (self.down if j < k else self.up)[k].take(cells)
        count = (self.n_up if j < k else self.n_down)[j]
        # a one of the counts' type keeps ufunc.at on its fast path
        np.subtract.at(count, near, count.dtype.type(1))
        return near

    def _pair_off(self, g: int, h: int) -> None:
        """Remove each live g-cell with exactly one live neighbour in grade
        h = g +- 1 (g + 1: a collapse, g - 1: a coreduction) together with
        that neighbour, round by round until a round finds none."""
        near, count = (self.up[g], self.n_up[g]) if h > g else (self.down[g], self.n_down[g])
        live_g, live_h = self.live[g], self.live[h]
        cand = np.flatnonzero(live_g & (count == 1))
        while (x := cand[live_g[cand] & (count[cand] == 1)]).size:
            y = near.take(x)
            y = y[live_h[y]]  # the one live neighbour of each x, in order
            if len(y) != len(x):
                raise AssertionError(f"grade {g}: live-neighbour counts out of date")
            y = y[order := y.argsort(kind="stable")]  # one pair per neighbour, its first x
            first = np.concatenate(([True], y[1:] != y[:-1]))
            x, y = x[order[first]], y[first]
            self._remove(g, x, 2 * g - h)
            cand = self._remove(h, y, g)  # the g-cells whose count fell
            self.rounds.append((g, h, x, y))


def _live_counts(fs: Faces, live: np.ndarray | None) -> np.ndarray:
    """Per cell, its entries in `fs` that are `live` (all when None), in
    the narrowest integer type that holds the most (int16 on a lattice)."""
    counts = fs.counts(fs.ptr.dtype)
    if live is not None and (dead := np.flatnonzero((~live)[fs.idx])).size:
        # the cell of each dead entry: how many cells end at or before it
        np.subtract.at(counts, fs.ptr[1:].searchsorted(dead, "right"), counts.dtype.type(1))
    return counts.astype(_width(0, int(counts.max(initial=0))), copy=False)


class _RowSpace:
    """The row space of a residue's boundary or check matrix, given as CSR
    rows over `cols` columns, with only a small matrix eliminated; the one
    place where a residue's linear algebra is done.

    A weight-2 row is an edge between its two columns.  The edges span
    exactly the kernel of the fold that sums a vector's bits over each
    connected component of the edge graph (an isolated column is a
    component of its own): each edge folds to zero, and a spanning forest
    has cols - components independent edges, the kernel's dimension.  So
    the rank is cols - components plus the rank of the other rows folded,
    a vector is in the row space iff its fold is in the span of the folded
    rows, and vectors are independent modulo the row space iff their folds
    are modulo that span.  This is the doubleton step of sparse presolve
    (Andersen & Andersen, Math. Programming 1995).  Empty rows, and folded
    rows whose bits cancel, are dropped before the folded rows are
    eliminated; rows without a bit (two thirds of the benchmark's residues)
    skip all of it, and rows that are all edges skip the fold and its
    elimination.  The components are numbered in the order of their last
    columns, which `kernel` reads.
    """

    def __init__(self, rows: Faces, cols: int):
        self.component, n, self.reduced, self.pivots = np.arange(cols), cols, Gf2Matrix(0, cols), []
        if rows.idx.size:
            weight = rows.counts()
            start = rows.ptr[:-1][weight == 2]
            component, n = _components(cols, rows.idx[start], rows.idx[start + 1])
            last = np.zeros(n, dtype=np.int64)
            np.maximum.at(last, component, np.arange(cols))
            self.component = np.argsort(np.argsort(last))[component]
            self.reduced = Gf2Matrix(0, n)
            if ((weight != 0) & (weight != 2)).any():
                owner = rows.owners()
                rest = weight[owner] != 2
                # each other row folded onto the components, repeats cancelling
                folded = Faces.from_pairs(len(rows), owner[rest], self.component[rows.idx[rest]])
                folded = folded.restrict(folded.counts() > 0, np.ones(n, dtype=bool))
                self.reduced = folded.matrix(n)
                self.pivots = _rref_inplace(self.reduced.data, self.reduced.rows, n)
        self.rank = cols - n + len(self.pivots)

    def contains(self, bits: np.ndarray) -> bool:
        """Whether the 0/1 vector `bits` over the columns is in the row
        space."""
        parity = np.bincount(self.component[np.flatnonzero(bits)], minlength=self.reduced.cols)
        return in_rowspace(self.reduced, self.pivots, Gf2Vector.from_dense(parity & 1))

    def kernel(self) -> Faces:
        """A basis of the vectors over the columns that every row meets
        evenly, as CSR rows.  Such a vector is constant on each component,
        so the basis is the kernel of the folded rows (`_kernel_rows` of
        their RREF) spread over the components.  A component's last column
        is a free column of the whole matrix's RREF iff the component is
        free in the folded one, and no other column is, so these are the
        rows `_kernel_rows` reads off the whole matrix's RREF, in order."""
        kernel = _kernel_rows(self.reduced, self.pivots)
        members = Faces.from_pairs(kernel.cols, self.component, np.arange(len(self.component)))
        r, c = kernel.entries()
        return Faces.from_pairs(kernel.rows, np.repeat(r, members.counts()[c]), members.take(c))

    def independent(self, rows: Faces) -> np.ndarray:
        """The indices of the CSR rows over the columns that lie outside the
        row space and outside the span of the rows before them, ascending.
        Folded onto the components, they are the pivot columns past the
        folded span of one elimination of the transposed stack [RREF rows;
        rows folded], which has a row per component."""
        span = len(self.pivots)
        r, c = self.reduced.entries()  # the nonzero rows are the first `span`
        stack = Gf2Matrix.from_entries(self.reduced.cols, span + len(rows), np.column_stack((
            np.concatenate((c, self.component[rows.idx])),
            np.concatenate((r, rows.owners() + span)))))
        picked = _rref_inplace(stack.data, stack.rows, stack.cols)
        return np.array([p - span for p in picked if p >= span], dtype=np.int64)


def _components(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """The connected component of each of n columns under the edges
    (a[i], b[i]), numbered in the order of their least columns, and the
    number of components.

    Hook and compress, a whole edge list at a time: each root that an edge
    joins to a smaller root takes the least such root as its parent, then
    every column jumps to its tree's root; edges inside one tree drop out.
    A root is the least column of its tree, so the numbering is canonical.
    """
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        cross = ra != rb
        if not cross.any():
            break
        a, b, ra, rb = a[cross], b[cross], ra[cross], rb[cross]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
    is_root = root == np.arange(n)
    return (np.cumsum(is_root) - 1)[root], int(is_root.sum())


def cobetti(cx: CellComplex, grade: int, relative_labels=frozenset()) -> int:
    """dim H^i from the cochain complex (faces and cofaces swapped, grades
    reversed), reduced like :func:`betti`; equals betti at the same grade."""
    live, point = _chains(cx, grade, relative_labels)
    n, down = cx.dim, cx.faces
    up = [down[k + 1].transpose(len(down[k])) for k in range(n)]
    return _reduced_betti([Faces.empty(len(down[n]))] + up[::-1], n - grade, down[:0:-1],
                          live and live[::-1]) + point


@dataclass(frozen=True)
class LefschetzReport:
    grade: int
    dim_relative_e: int
    dim_dual_relative_m: int

    @property
    def equal(self) -> bool:
        return self.dim_relative_e == self.dim_dual_relative_m


def verify_lefschetz(
    cx: CellComplex, i: int, labels_e: set[str], labels_m: set[str]
) -> LefschetzReport:
    """Compare dim H_i(L, B_e) with dim H_{n-i}(L*, B*_m).

    `labels_e` and `labels_m` must be disjoint and together cover every
    boundary label of the complex.  The dual side runs on the honest dual
    cellulation (interior duals plus boundary duals), relative to the
    boundary duals of the m-part.
    """
    if labels_e & labels_m:
        raise ValueError(f"overlapping label sets: {sorted(labels_e & labels_m)}")
    uncovered = cx.labels_present() - labels_e - labels_m
    if uncovered:
        raise ValueError(f"boundary labels not covered: {sorted(uncovered)}")
    lhs = betti(cx, i, labels_e)
    return LefschetzReport(i, lhs, betti(dual_with_boundary(cx), cx.dim - i, labels_m))


def default_label_split(cx: CellComplex) -> tuple[set[str], set[str]]:
    """Split the labels present into (e-side, m-side)."""
    labels = cx.labels_present()
    return {lb for lb in labels if label_is_e(lb)}, {lb for lb in labels if label_is_m(lb)}
