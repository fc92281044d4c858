"""Test-only oracles: the qubit-graph distances as the package had them
before the graph became one set of CSR arc arrays, and the queue-driven
breadth-first search over that graph's arcs as Python lists (`list_bfs`)
from before the search expanded one level at a time.

The qubit graph is a list of edge tuples with per-node (neighbour, qubit)
lists, d_Z runs its own breadth-first search over them (rebuilding the
lists without the seam qubits for each torus axis), and d_X runs Dinic's
max-flow on per-arc Python lists.  The code is verbatim apart from its
imports.  The package must return the same values, kinds and witness bits,
and raise ``PreconditionError`` on the same codes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from fractalcss.code import CssCode, PauliOperator, is_x_logical, is_z_logical
from fractalcss.complexes import label_is_e
from fractalcss.distance import DistanceResult, PreconditionError
from fractalcss.gf2 import Gf2Vector

# -- the breadth-first search over the CSR arcs as lists ----------------------


def list_bfs(g, source: int, usable=None, depth=None) -> tuple[list[int], list[int]]:
    """Breadth-first search from `source` over the arcs of the package's
    qubit graph `g` with a true `usable[a]` (every arc when None), a queue
    of nodes, each node's arcs in order: the distance per node, -1 where
    unreachable, and the arc that reached each node, -1 at the source and
    where unreachable.  With a `depth` no node at that distance or past it
    is expanded.  Verbatim apart from the lists taken from the arrays."""
    ptr, arcs, head = g.ptr.tolist(), g.arcs.tolist(), g.head.tolist()
    if usable is not None:
        usable = list(usable)
    dist = [-1] * g.n_nodes
    via = [-1] * g.n_nodes
    dist[source] = 0
    dq = deque([source])
    while dq:
        x = dq.popleft()
        d = dist[x] + 1
        if depth is not None and d > depth:
            break  # the queue holds nodes in order of distance
        for a in arcs[ptr[x] : ptr[x + 1]]:
            y = head[a]
            if dist[y] < 0 and (usable is None or usable[a]):
                dist[y] = d
                via[y] = a
                dq.append(y)
    return dist, via


# -- the qubit graph ----------------------------------------------------------


class _QubitGraph:
    """Vertices: bulk 0-cells plus one contracted node per e-component."""

    def __init__(self, code: CssCode):
        if code.grading != 1:
            raise PreconditionError("qubit-graph distances need grading i = 1")
        cx = code.source
        self.code = code
        # node per 0-cell: bulk vertices in order, then one per e-label
        is_e = cx.label_mask(0, label_is_e)
        codes = cx.labels[0][is_e]
        self.terminal_labels: list[str] = sorted(
            {cx.label_names[c] for c in np.unique(codes).tolist()}
        )
        self.n_bulk = int(len(is_e) - is_e.sum())
        self.n_nodes = self.n_bulk + len(self.terminal_labels)
        terminal = {label: self.n_bulk + t for t, label in enumerate(self.terminal_labels)}
        node = np.cumsum(~is_e) - 1
        node[is_e] = np.array([terminal.get(name, 0) for name in cx.label_names])[codes]
        # edge ends: the first two faces of each qubit edge; an edge with one
        # face (a wrap edge collapsed mod 2) is a loop, one with none (0, 0)
        ends = cx.faces[1]
        first = ends.ptr[code.qubit_cells]
        count = ends.counts()[code.qubit_cells]
        node_at = np.append(node[ends.idx], 0)  # the 0 past the end: no face
        last = len(ends.idx)
        u = np.where(count >= 1, node_at[np.minimum(first, last)], 0)
        v = np.where(count >= 2, node_at[np.minimum(first + 1, last)], u)
        self.edges: list[tuple[int, int]] = list(zip(u.tolist(), v.tolist()))
        self.adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_nodes)]
        for q, (a, b) in enumerate(self.edges):
            if a != b:
                self.adj[a].append((b, q))
                self.adj[b].append((a, q))

    def terminal_node(self, label: str) -> int:
        return self.n_bulk + self.terminal_labels.index(label)


def _bfs(adj: list[list[tuple[int, int]]], source: int):
    """Breadth-first search over (neighbor, qubit) adjacency lists, visiting
    neighbors in list order: (distance, (previous node, qubit) per node)."""
    dist = [-1] * len(adj)
    via: list[tuple[int, int] | None] = [None] * len(adj)
    dq = deque([source])
    dist[source] = 0
    while dq:
        u = dq.popleft()
        for v, q in adj[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                via[v] = (u, q)
                dq.append(v)
    return dist, via


def _path(via, end: int) -> list[int]:
    """Qubits of the BFS-tree path from the source to `end`, source first."""
    out = []
    node = end
    while via[node] is not None:
        prev, q = via[node]
        out.append(q)
        node = prev
    return out[::-1]


def dz_shortest_path(code: CssCode) -> DistanceResult:
    """Exact d_Z for i=1 codes: shortest relative 1-cycle.

    With two or more e-components the result is the shortest path between
    any pair of distinct components; on a torus each periodic axis is cut
    open and the two copies of the seam are path-connected, giving the
    shortest non-contractible cycle per generator.
    """
    g = _QubitGraph(code)
    cx = code.source
    best: tuple[int, list[int]] | None = None

    if len(g.terminal_labels) >= 2:
        for t, label in enumerate(g.terminal_labels):
            dist, via = _bfs(g.adj, g.n_bulk + t)
            for t2 in range(t + 1, len(g.terminal_labels)):
                node = g.n_bulk + t2
                if dist[node] >= 0 and (best is None or dist[node] < best[0]):
                    best = (dist[node], _path(via, node))
    if all(p is not None for p in cx.periods):
        for axis in range(cx.dim):
            period = cx.periods[axis]
            seam = np.flatnonzero(cx.cells[1][code.qubit_cells, axis, 1] == period).tolist()
            cut = set(seam)
            adj_cut: list[list[tuple[int, int]]] = [[] for _ in range(g.n_nodes)]
            for q, (u, v) in enumerate(g.edges):
                if q not in cut and u != v:
                    adj_cut[u].append((v, q))
                    adj_cut[v].append((u, q))
            for q in seam:
                u, v = g.edges[q]
                if u == v:
                    if best is None or 1 < best[0]:
                        best = (1, [q])
                    continue
                dist, via = _bfs(adj_cut, u)
                if dist[v] >= 0:
                    total = dist[v] + 1
                    if best is None or total < best[0]:
                        best = (total, _path(via, v) + [q])
    if best is None:
        raise PreconditionError(
            "need at least two e-boundary components or a torus background"
        )
    value, edges = best
    witness = PauliOperator.z_type(Gf2Vector.from_indices(code.n_qubits, edges))
    if not is_z_logical(code, witness.z_support):
        raise AssertionError("shortest-path witness is not a Z-logical")
    if witness.z_support.weight() != value:
        raise AssertionError(f"shortest-path witness has weight "
                             f"{witness.z_support.weight()}, not {value}")
    return DistanceResult(value, "exact", witness)


# -- min cut -----------------------------------------------------------------


class _Dinic:
    def __init__(self, n: int):
        self.n = n
        self.to: list[int] = []
        self.cap: list[int] = []
        self.head: list[list[int]] = [[] for _ in range(n)]

    def add_edge(self, u: int, v: int):
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(1)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(1)

    def levels(self, s: int) -> list[int]:
        """BFS distance from s in the residual graph, -1 where unreachable."""
        level = [-1] * self.n
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for a in self.head[u]:
                v = self.to[a]
                if self.cap[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    dq.append(v)
        return level

    def dfs(self, u: int, t: int, level, it):
        if u == t:
            return True
        while it[u] < len(self.head[u]):
            a = self.head[u][it[u]]
            v = self.to[a]
            if self.cap[a] > 0 and level[v] == level[u] + 1 and self.dfs(v, t, level, it):
                self.cap[a] -= 1
                self.cap[a ^ 1] += 1
                return True
            it[u] += 1
        return False

    def max_flow(self, s: int, t: int) -> int:
        flow = 0
        while True:
            level = self.levels(s)
            if level[t] < 0:
                return flow
            it = [0] * self.n
            while self.dfs(s, t, level, it):
                flow += 1


def dx_min_cut(code: CssCode) -> DistanceResult:
    """Exact d_X for the (1, n-1) open-cube geometry with two e-components.

    The minimum-weight X-logical equals the minimum number of qubit edges
    separating the two e-components; the witness is the canonical
    source-side residual cut.
    """
    g = _QubitGraph(code)
    cx = code.source
    if cx.background != "open":
        raise PreconditionError("min-cut distance needs the open-cube background")
    outer_e = [lb for lb in g.terminal_labels if lb.startswith("oE")]
    if len(g.terminal_labels) != 2 or len(outer_e) != 2:
        raise PreconditionError(
            "min-cut distance needs exactly two OuterE components and uniform "
            "m-boundaries elsewhere; run exhaustive_low_weight instead"
        )
    s = g.terminal_node(outer_e[0])
    t = g.terminal_node(outer_e[1])
    net = _Dinic(g.n_nodes)
    for u, v in g.edges:
        if u != v:
            net.add_edge(u, v)
    value = net.max_flow(s, t)
    # the source side of the final residual graph: the canonical min cut
    seen = [lv >= 0 for lv in net.levels(s)]
    cut = [
        q for q, (u, v) in enumerate(g.edges) if u != v and seen[u] != seen[v]
    ]
    if len(cut) != value:
        raise AssertionError(f"min cut has {len(cut)} edges for flow {value}")
    witness = PauliOperator.x_type(Gf2Vector.from_indices(code.n_qubits, cut))
    if not is_x_logical(code, witness.x_support):
        raise AssertionError("min-cut witness is not an X-logical")
    return DistanceResult(value, "exact", witness)
