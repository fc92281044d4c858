"""The 2D hexagonal color code, its shrunk lattices, and transversal S.

Geometry: a brick-wall drawing of the hexagonal lattice rolled into a
cylinder (periodic vertically, open left and right).  Vertex v is the
integer point (x, y) with (y, x) = divmod(v, W + 1), x in 0..W and y mod
2R.  Its edges are the right edge (x,y)-(x+1,y) for x < W and the up edge
(x,y)-(x,y+1) on the brick pattern (x+y even) and on the two open columns,
so every boundary vertex is trivalent.  Every face follows one rule: the
hexagon on columns x0..x0+2 of rows y and y+1, for x0 = y (mod 2) and
-1 <= x0 <= W-1, clipped to columns 0..W; the clipped hexagons at x0 = -1
and x0 = W-1 are the weight-4 half-bricks along the open columns.  Its
color is ((x0 - 3y)/2 + 1) mod 3, which makes both open boundaries miss
color 0.  With W = 3m+1 this yields a valid 3-coloring whose A := color-0
faces avoid both boundaries, so the two shrunk copies are a rough-rough
and a smooth-smooth cylinder surface code, one logical qubit each, and
the color code itself encodes two.

The transversal gate applies S on one part of the vertex bipartition and
S-dagger on the other.  Every face has equally many vertices of both parts
(3-3 on hexagons, 2-2 on bricks), so each X face stabilizer maps exactly
onto itself times the matching Z face stabilizer and the code space is
preserved; on the logicals the gate acts as the CZ between the two encoded
qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import CssCode, _syndrome_free, logical_basis
from .complexes import BULK, CellComplex, Faces
from .gates import ConditionResult, GateCheckReport


@dataclass
class ColorCode2D:
    code: CssCode  # its X and Z checks are both the faces
    face_colors: np.ndarray  # 0 = A, 1 = B, 2 = C
    bipartition: np.ndarray  # 0/1 per vertex
    edges: np.ndarray  # (n_edges, 2) vertex pairs, the lower index first

    @property
    def faces(self) -> Faces:
        """The vertices of each face."""
        return self.code.x_checks

    @property
    def n_qubits(self) -> int:
        return self.code.n_qubits


def build_color_code_2d(L: int = 1) -> ColorCode2D:
    """A cylinder patch of the hexagonal color code; `L` scales both the
    width (W = 3L + 1 columns of bricks) and the circumference."""
    if L < 1:
        raise ValueError("patch size must be >= 1")
    W = 3 * L + 1
    period = 2 * (L + 1)  # the y-period 2R
    n = (W + 1) * period
    v = np.arange(n)
    y, x = np.divmod(v, W + 1)
    # per vertex its right and its up edge, in that order, where they exist
    has = np.column_stack((x < W, ((x + y) % 2 == 0) | (x == 0) | (x == W)))
    other = np.column_stack((v + 1, (v + W + 1) % n))[has]
    edges = np.sort(np.column_stack((np.nonzero(has)[0], other)), axis=1)

    fy, fx = np.nonzero((np.arange(period)[:, None] - np.arange(-1, W)) % 2 == 0)
    x0 = fx - 1
    colors = ((x0 - 3 * fy) // 2 + 1) % 3
    if np.flatnonzero(np.bincount(colors[(x0 <= 0) | (x0 >= W - 2)])).tolist() != [1, 2]:
        raise AssertionError("both open boundaries must miss color 0")
    # the hexagon on columns x0..x0+2 of rows y and y+1, clipped to 0..W
    cols = x0[:, None] + [0, 1, 2, 0, 1, 2]
    rows = (fy[:, None] + [0, 0, 0, 1, 1, 1]) % period
    on = (cols >= 0) & (cols <= W)
    faces = Faces.from_pairs(len(x0), np.nonzero(on)[0], (rows * (W + 1) + cols)[on])
    code = CssCode(x_checks=faces, z_checks=faces, grading=1, qubit_cells=np.arange(n))
    return ColorCode2D(code, colors, (x + y) % 2, edges)


def shrunk_lattices(cc: ColorCode2D) -> tuple[CellComplex, CellComplex]:
    """The two shrunk lattices: faces of color A (resp. B) contract to
    vertices; the edges are the lattice edges bordering the two remaining
    colors; the faces are the remaining colors' faces, each bounded by its
    edges of that kind.  Boundary faces whose induced chain is not a cycle
    drop out (they sit along the shrunk lattice's own boundary)."""
    return _shrink(cc, 0), _shrink(cc, 1)


def _shrink(cc: ColorCode2D, color: int) -> CellComplex:
    colors, own = cc.face_colors, cc.faces.owners()
    # the face of each colour at each vertex (-1 where there is none)
    face_at = np.full((cc.n_qubits, 3), -1)
    face_at[cc.faces.idx, colors[own]] = own
    u, v = cc.edges.T
    # per edge and colour, whether the face of that colour holds the edge
    inside = (face_at[u] == face_at[v]) & (face_at[u] >= 0)
    keep_edges = np.flatnonzero((inside.sum(axis=1) == 2) & ~inside[:, color])
    new_vertices = np.flatnonzero(colors == color)
    vertex = np.cumsum(colors == color) - 1  # shrunk vertex of each face of the colour
    ends = face_at[np.stack([u, v], axis=1)[keep_edges], color]  # -1: no such vertex
    r, c = np.nonzero(ends >= 0)
    edges = Faces.from_pairs(len(keep_edges), r, vertex[ends[r, c]])
    # each other-coloured face bounded by its kept edges; faces whose edge
    # chain is open sit on the shrunk lattice's own boundary and drop out
    rows, cols = np.nonzero(inside[keep_edges])
    owner = face_at[u[keep_edges[rows]], cols]
    bounded = np.flatnonzero(np.bincount(owner, minlength=len(colors)))
    reach = Faces.from_pairs(len(colors), np.repeat(owner, edges.counts()[rows]),
                             edges.take(rows))
    new_faces = bounded[reach.counts()[bounded] == 0]
    is_new = np.zeros(len(colors), dtype=bool)
    is_new[new_faces] = True
    mine = is_new[owner]
    face_faces = Faces.from_pairs(len(new_faces), np.searchsorted(new_faces, owner[mine]),
                                  rows[mine])

    # cell boxes ((index, index), (grade, grade)): a record, not a geometry
    cells = [np.repeat(np.column_stack((ids, np.full_like(ids, k)))[..., None], 2, axis=2)
             for k, ids in enumerate((new_vertices, keep_edges, new_faces))]
    faces = [Faces.empty(len(new_vertices)), edges, face_faces]
    labels = [np.zeros(len(c), dtype=np.int64) for c in cells]
    return CellComplex(2, cells, labels, (BULK,), faces, "open", "shrunk", (None, None))


def check_transversal_s_colorcode(
    cc: ColorCode2D, bipartition: list[int] | None = None
) -> GateCheckReport:
    """Verify that S on one vertex class and S-dagger on the other preserves
    the stabilizer group and acts as the logical CZ.

    Per face: applying the gate maps the X face stabilizer to
    i**(n_a - n_b) times itself and the Z face stabilizer, so the face must
    have n_a = n_b (mod 4).  On the logicals the induced map is
    X(1) -> X(1) Z(2), X(2) -> Z(1) X(2): even self-overlap of each
    logical-X support and odd mutual overlap.
    """
    part = np.asarray(bipartition if bipartition is not None else cc.bipartition)
    owner, idx = cc.faces.owners(), cc.faces.idx
    n_a = np.bincount(owner[part[idx] == 0], minlength=len(cc.faces))
    n_b = cc.faces.counts() - n_a
    off = (n_a - n_b) % 4
    bad = [(f"face{f}", f"balance{n_a[f]}-{n_b[f]}", int(off[f]))
           for f in np.flatnonzero(off)[:8].tolist()]
    conds = [ConditionResult("S-face-balance", not bad, tuple(bad))]

    zs, xs = logical_basis(cc.code)
    if len(xs) != 2:
        conds.append(
            ConditionResult("S-logical-map", False, ((f"k={len(xs)}", "expect2", 0),))
        )
        return GateCheckReport(tuple(conds))

    supports = [op.x_support for op in xs]
    bad = [(f"Xbar{i}", "odd-weight", 1) for i, s in enumerate(supports) if s.weight() % 2]
    cross = supports[0].dot(supports[1])
    if cross != 1:
        bad.append(("Xbar0", "Xbar1", cross))
    # the induced Z part must land back in the stabilizer group together
    # with the dual logical: Z^{supp X1} ~ Zbar2 (and vice versa); the
    # reduction tests a leftover free of syndromes
    for i, s in enumerate(supports):
        leftover = s ^ zs[1 - i].z_support
        if not (_syndrome_free(cc.code.x_checks, leftover)
                and cc.code.reduction.is_z_stabilizer(leftover)):
            bad.append((f"Xbar{i}", f"Zbar{1 - i}", "image-not-stabilizer"))
    conds.append(ConditionResult("S-logical-map", not bad, tuple(bad[:8])))
    return GateCheckReport(tuple(conds))
