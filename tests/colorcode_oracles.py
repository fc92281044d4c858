"""Test-only oracle: the 2D colour code as the package built it before the
lattice became arrays.

Vertices are (x, y) tuples found through a dict, edges are added vertex by
vertex through a second dict, faces are a list of vertex lists written out
case by case (left half-brick, flush hexagons, right half-brick), and the
shrunk lattices and the S check's face balance loop over those lists.  The
code is verbatim apart from its imports.  `fractalcss.colorcode` must give
the same code text, edges, colours, bipartition, shrunk-lattice text and S
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fractalcss.code import CssCode, _syndrome_free, logical_basis
from fractalcss.complexes import BULK, CellComplex, Faces
from fractalcss.gates import ConditionResult, GateCheckReport


@dataclass
class ColorCode2D:
    code: CssCode
    vertices: list[tuple[int, int]]
    faces: list[list[int]]  # vertex indices per face
    face_colors: list[int]  # 0 = A, 1 = B, 2 = C
    bipartition: list[int]  # 0/1 per vertex
    edges: list[tuple[int, int]]

    @property
    def n_qubits(self) -> int:
        return len(self.vertices)


def build_color_code_2d(L: int = 1) -> ColorCode2D:
    """A cylinder patch of the hexagonal color code; `L` scales both the
    width (W = 3L + 1 columns of bricks) and the circumference."""
    if L < 1:
        raise ValueError("patch size must be >= 1")
    W = 3 * L + 1
    R = L + 1  # y-period is 2R
    period = 2 * R

    verts = [(x, y) for y in range(period) for x in range(W + 1)]
    v_index = {v: i for i, v in enumerate(verts)}
    bipartition = [(x + y) % 2 for x, y in verts]

    edges: list[tuple[int, int]] = []
    edge_index: dict[tuple, int] = {}

    def add_edge(u, v):
        key = tuple(sorted((v_index[u], v_index[v])))
        if key not in edge_index:
            edge_index[key] = len(edges)
            edges.append(key)

    for x, y in verts:
        if x + 1 <= W:
            add_edge((x, y), (x + 1, y))
        up = (x, (y + 1) % period)
        if (x + y) % 2 == 0 or x == 0 or x == W:
            add_edge((x, y), up)

    faces: list[list[int]] = []
    colors: list[int] = []

    def color_of(x0: int, y: int) -> int:
        return ((x0 - 3 * y) // 2 + 1) % 3

    for y in range(period):
        y1 = (y + 1) % period
        x0 = y % 2
        if x0 == 1:  # left half-brick
            faces.append([v_index[(0, y)], v_index[(1, y)],
                          v_index[(0, y1)], v_index[(1, y1)]])
            colors.append(color_of(-1, y))
        while x0 + 2 <= W:
            faces.append([
                v_index[(x0, y)], v_index[(x0 + 1, y)], v_index[(x0 + 2, y)],
                v_index[(x0, y1)], v_index[(x0 + 1, y1)], v_index[(x0 + 2, y1)],
            ])
            colors.append(color_of(x0, y))
            x0 += 2
        if x0 == W - 1:  # right half-brick
            faces.append([v_index[(W - 1, y)], v_index[(W, y)],
                          v_index[(W - 1, y1)], v_index[(W, y1)]])
            colors.append(color_of(x0, y))

    boundary_colors = set()
    for f, vs in enumerate(faces):
        for v in vs:
            if verts[v][0] in (0, W):
                boundary_colors.add(colors[f])
    if boundary_colors != {1, 2}:
        raise AssertionError("both open boundaries must miss color 0")

    n = len(verts)
    h = Faces.from_pairs(len(faces), np.repeat(np.arange(len(faces)), [len(vs) for vs in faces]),
                         np.concatenate(faces))
    code = CssCode(x_checks=h, z_checks=h, grading=1, qubit_cells=list(range(n)))
    return ColorCode2D(code, verts, faces, colors, bipartition, edges)


def shrunk_lattices(cc: ColorCode2D) -> tuple[CellComplex, CellComplex]:
    """The two shrunk lattices: faces of color A (resp. B) contract to
    vertices; the edges are the lattice edges bordering the two remaining
    colors; the faces are the remaining colors' faces, each bounded by its
    edges of that kind.  Boundary faces whose induced chain is not a cycle
    drop out (they sit along the shrunk lattice's own boundary)."""
    return _shrink(cc, 0), _shrink(cc, 1)


def _shrink(cc: ColorCode2D, color: int) -> CellComplex:
    colors = np.array(cc.face_colors)
    # the face of each colour at each vertex (-1 where there is none)
    face_at = np.full((len(cc.vertices), 3), -1)
    for f, vs in enumerate(cc.faces):
        face_at[vs, colors[f]] = f
    u, v = np.array(cc.edges).reshape(-1, 2).T
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
    mine = np.isin(owner, new_faces)
    face_faces = Faces.from_pairs(len(new_faces), np.searchsorted(new_faces, owner[mine]),
                                  rows[mine])

    # cell boxes ((index, index), (grade, grade)): a record, not a geometry
    cells = [np.array([((j, j), (k, k)) for j in ids], dtype=np.int64).reshape(-1, 2, 2)
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
    part = bipartition if bipartition is not None else cc.bipartition
    conds = []

    bad = []
    for f, vs in enumerate(cc.faces):
        n_a = sum(1 for v in vs if part[v] == 0)
        n_b = len(vs) - n_a
        if (n_a - n_b) % 4 != 0:
            bad.append((f"face{f}", f"balance{n_a}-{n_b}", (n_a - n_b) % 4))
    conds.append(ConditionResult("S-face-balance", not bad, tuple(bad[:8])))

    zs, xs = logical_basis(cc.code)
    if len(xs) != 2:
        conds.append(
            ConditionResult("S-logical-map", False, ((f"k={len(xs)}", "expect2", 0),))
        )
        return GateCheckReport(tuple(conds))

    supports = [op.x_support for op in xs]
    bad = []
    for i, s in enumerate(supports):
        if s.weight() % 2:
            bad.append((f"Xbar{i}", "odd-weight", 1))
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
