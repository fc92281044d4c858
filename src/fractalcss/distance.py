"""Exact code distances where the geometry permits, certified bounds elsewhere.

For grading i=1 the Z-distance is a shortest-path problem on the qubit
graph (nodes = surviving 0-cells with every e-boundary component contracted
to a terminal, edges = qubit 1-cells) and the X-distance of the two-terminal
open-cube geometry is the minimum edge cut between the e-components,
computed by Dinic's unit-capacity max-flow.

The graph is built once per code and held by it (`CssCode._qubit_graph`, as
the code holds its chain reduction), so d_Z, d_X and their refusals read
one graph.  It is int32 CSR arrays: arcs 2q and 2q + 1 run both ways along
qubit q, so arc a is qubit a >> 1 and its reverse is a ^ 1, and each node
lists its out-arcs in ascending qubit order; a loop's are self-arcs, which
no search, level graph or cut takes.  One breadth-first search with an
optional boolean per-arc filter serves the terminal-to-terminal paths, the
torus seams (the seam's qubits masked), Dinic's level graph (residual
capacity > 0) and the source side of the min cut.  It expands a whole level
at a time as arrays (Beamer, Asanovic & Patterson, SC 2012), each new node
keeping the first arc into it in the order a queue-driven search would meet
them, so the fixed arc order makes the path and cut witnesses
reproducible.  Dinic's blocking flow stays a depth-first search over unit
capacities (Even & Tarjan, SIAM J. Comput. 1975), reading the arrays
through memoryviews.

The general-grading fallback enumerates connected candidate supports of
bounded weight.  Two qubits count as connected when they share a check of
either type; a minimum-weight logical operator cannot split into
check-disjoint parts (each part would be syndrome-free on its own, and one
of them a lighter logical), so the search is complete for the minimum.
Weights 1 and 2 are screened as arrays on the sparse check entries (an
empty syndrome column, a pair of equal ones) with the search's node count
in closed form; the depth-first search runs from weight 3.  A search that
runs out of its node budget reports the weight it had certified.

Both exact methods refuse with `PreconditionError` when two e-labels
share one connected e-component (contracted per label, a path between them
may be a stabilizer), and the min cut when k != 1 (the cut is the lightest
X-logical of one class only; the m-holes of a 2D fractal add classes with
a lighter one), tested before the flow runs, or when its two terminals
are disconnected (flow 0).  The shortest path also refuses a torus with an
e-labelled cell whose box reaches 0 or the period on a periodic axis: the
contracted terminal then straddles the seam, and the seam cut misses
classes.  Callers then fall back to the search.
Every exact result's witness is re-verified independently: zero syndrome
against the opposite-type checks and membership outside the stabilizer
row-space.  A witness that fails raises `WitnessError`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .code import CssCode, PauliOperator, is_x_logical, is_z_logical
from .complexes import Faces, _ranges, label_is_e
from .gf2 import Gf2Vector

DEFAULT_NODE_BUDGET = 5_000_000


class BudgetError(RuntimeError):
    """Raised when a search exceeds its node budget (see FRACTALCSS_BUDGET).

    The search had finished every weight up to `certified_above`: no
    logical has that weight or less.
    """

    def __init__(self, budget: int, certified_above: int):
        self.budget = budget
        self.certified_above = certified_above
        super().__init__(
            f"exhaustive search exceeded the node budget ({budget}) at weight "
            f"{certified_above + 1}; no logical has weight <= {certified_above} "
            f"(certified_above={certified_above}); raise FRACTALCSS_BUDGET to continue"
        )


class PreconditionError(ValueError):
    """Raised when an exact method's geometric preconditions fail; callers
    should fall back to exhaustive_low_weight explicitly."""


class WitnessError(AssertionError):
    """An exact method's witness failed its own check: an internal fault,
    not a refusal (the CLI exits 5)."""


def search_budget() -> int:
    env = os.environ.get("FRACTALCSS_BUDGET")
    return int(env) if env else DEFAULT_NODE_BUDGET


@dataclass(frozen=True)
class DistanceResult:
    value: int
    kind: str  # "exact" or "certified_above"
    witness: PauliOperator | None = None

    def __str__(self):
        return f">{self.value}" if self.kind == "certified_above" else str(self.value)


@dataclass(frozen=True)
class ScalingFit:
    points: tuple[tuple[float, float], ...]
    exponent: float
    residual: float


# -- the qubit graph ----------------------------------------------------------


class _QubitGraph:
    """Nodes: bulk 0-cells plus one contracted node per e-component.

    Arcs 2q and 2q + 1 run both ways along qubit q (self-arcs for a loop,
    and at node 0 for an edge with no face), so arc a is qubit a >> 1, its
    reverse is a ^ 1 and it ends at `head[a]`.  The out-arcs of node x are
    `arcs[ptr[x]:ptr[x + 1]]`, in ascending qubit order.  Every one of these
    is an int32 array.
    """

    def __init__(self, code: CssCode):
        if code.grading != 1:
            raise PreconditionError("qubit-graph distances need grading i = 1")
        if code.source is None:
            raise PreconditionError("qubit-graph distances need the complex whose code "
                                    "the checks are; run exhaustive_low_weight instead")
        cx = code.source
        # node per 0-cell: bulk vertices in order, then one per e-label
        is_e = cx.label_mask(0, label_is_e)
        codes = cx.labels[0][is_e]
        self.terminal_labels: list[str] = sorted(
            {cx.label_names[c] for c in np.flatnonzero(np.bincount(codes))})
        self.n_bulk = int(len(is_e) - is_e.sum())
        self.n_nodes = self.n_bulk + len(self.terminal_labels)
        terminal = {label: self.n_bulk + t for t, label in enumerate(self.terminal_labels)}
        node = np.cumsum(~is_e, dtype=np.int32) - 1
        node[is_e] = np.array([terminal.get(name, 0) for name in cx.label_names])[codes]
        # the labels at the ends of the first e-edge that joins two labels
        # into one e-component, if any
        ends = cx.faces[1]
        e_edge = np.flatnonzero(cx.label_mask(1, label_is_e) & (ends.counts() == 2))
        a, b = (node[ends.idx[ends.ptr[e_edge] + i]] for i in (0, 1))
        j = np.flatnonzero((a >= self.n_bulk) & (b >= self.n_bulk) & (a != b))[:1]
        self.shared = sorted(self.terminal_labels[t - self.n_bulk]
                             for t in np.concatenate((a[j], b[j])))
        # edge ends: the first two faces of each qubit edge; an edge with one
        # face (a wrap edge collapsed mod 2) is a loop, one with none (0, 0)
        first = ends.ptr[code.qubit_cells]
        count = ends.counts()[code.qubit_cells]
        node_at = np.append(node[ends.idx], np.int32(0))  # the 0 past the end: no face
        last = len(ends.idx)
        u = np.where(count >= 1, node_at[np.minimum(first, last)], 0)
        v = np.where(count >= 2, node_at[np.minimum(first + 1, last)], u)
        self.head = np.column_stack((v, u)).ravel()
        # arcs grouped by tail, ascending within a node (stable order)
        tail = np.column_stack((u, v)).ravel()
        self.arcs = np.argsort(tail, kind="stable").astype(np.int32)
        self.ptr = np.zeros(self.n_nodes + 1, dtype=np.int32)
        np.cumsum(np.bincount(tail, minlength=self.n_nodes), out=self.ptr[1:])

    def require_separate_terminals(self) -> None:
        """Refuse a graph in which two e-labels share one connected
        e-component: contracted per label, a path between them may be a
        stabilizer, and a min cut between them no logical."""
        if self.shared:
            raise PreconditionError(
                f"e-labels {' and '.join(self.shared)} share one connected e-component; "
                "run exhaustive_low_weight instead"
            )

    def terminal_node(self, label: str) -> int:
        return self.n_bulk + self.terminal_labels.index(label)

    def bfs(self, source: int, usable=None, depth=None) -> tuple[np.ndarray, np.ndarray]:
        """Breadth-first search from `source` along the arcs a with a true
        `usable[a]` (a boolean array; every arc when None): the distance per
        node, -1 where unreachable, and the arc that reached each node, -1
        at the source and where unreachable, as int32 arrays.  With a
        `depth` no node at that distance or past it is expanded, so only the
        nodes within it are reached.

        The search expands one level at a time: the out-arcs of the
        frontier, node by node in frontier order and each node's in order,
        and each new node keeps the first of them that reaches it, so the
        distances and arcs are those of a queue-driven search, and the next
        frontier is in the order that search would queue it."""
        dist = np.full(self.n_nodes, -1, dtype=np.int32)
        via = np.full(self.n_nodes, -1, dtype=np.int32)
        dist[source] = 0
        frontier = np.array([source])
        d = 0
        while len(frontier) and (depth is None or d < depth):
            d += 1
            out = self.arcs[_ranges(self.ptr[frontier], self.ptr[frontier + 1])]
            if usable is not None:
                out = out[usable[out]]
            y = self.head[out]
            new = dist[y] < 0
            out, y = out[new], y[new]
            first = np.sort(np.unique(y, return_index=True)[1])
            frontier = y[first]
            dist[frontier] = d
            via[frontier] = out[first]
        return dist, via


def _path(via, end: int) -> list[int]:
    """Qubits of the BFS-tree path from the source to `end`, source first;
    `via` is the graph and the arc into each node that its `bfs` returned."""
    g, into = via
    out = []
    a = int(into[end])
    while a >= 0:
        out.append(a >> 1)
        a = int(into[g.head[a ^ 1]])
    return out[::-1]


def _reaches_a_seam(cx) -> bool:
    """Whether an e-labelled cell's box reaches 0 or the period on a
    periodic axis."""
    axes = [a for a, p in enumerate(cx.periods) if p is not None]
    if not axes:
        return False
    period = np.array([cx.periods[a] for a in axes])
    for k, boxes in enumerate(cx.cells):
        e = boxes[cx.label_mask(k, label_is_e)][:, axes]
        if ((e[..., 0] == 0) | (e[..., 1] == period)).any():
            return True
    return False


def dz_shortest_path(code: CssCode) -> DistanceResult:
    """Exact d_Z for i=1 codes: shortest relative 1-cycle.

    With two or more e-components the result is the shortest path between
    any pair of distinct components; on a torus each periodic axis is cut
    open and the two copies of the seam are path-connected, giving the
    shortest non-contractible cycle per generator.
    """
    g = code._qubit_graph
    g.require_separate_terminals()
    cx = code.source
    if _reaches_a_seam(cx):
        raise PreconditionError("an e-boundary reaches a periodic seam, which the seam cut "
                                "cannot follow; run exhaustive_low_weight instead")
    best: tuple[int, list[int]] | None = None

    if len(g.terminal_labels) >= 2:
        for t in range(len(g.terminal_labels) - 1):  # the last has no later terminal
            # only a terminal nearer than the best path so far can replace it
            dist, via = g.bfs(g.n_bulk + t, depth=None if best is None else best[0] - 1)
            for t2 in range(t + 1, len(g.terminal_labels)):
                node = g.n_bulk + t2
                d = int(dist[node])
                if d >= 0 and (best is None or d < best[0]):
                    best = (d, _path((g, via), node))
    if all(p is not None for p in cx.periods):
        for axis in range(cx.dim):
            in_seam = cx.cells[1][code.qubit_cells, axis, 1] == cx.periods[axis]
            off_seam = np.repeat(~in_seam, 2)
            for q in np.flatnonzero(in_seam).tolist():
                u, v = int(g.head[2 * q + 1]), int(g.head[2 * q])
                if u == v:
                    if best is None or 1 < best[0]:
                        best = (1, [q])
                    continue
                dist, via = g.bfs(u, off_seam, None if best is None else best[0] - 2)
                if dist[v] >= 0:
                    total = int(dist[v]) + 1
                    if best is None or total < best[0]:
                        best = (total, _path((g, via), v) + [q])
    if best is None:
        raise PreconditionError(
            "need at least two e-boundary components or a torus background"
        )
    value, edges = best
    witness = PauliOperator.z_type(Gf2Vector.from_indices(code.n_qubits, edges))
    if not is_z_logical(code, witness.z_support):
        raise WitnessError("shortest-path witness is not a Z-logical")
    if witness.z_support.weight() != value:
        raise WitnessError(f"shortest-path witness has weight "
                           f"{witness.z_support.weight()}, not {value}")
    return DistanceResult(value, "exact", witness)


# -- min cut -----------------------------------------------------------------


def _max_flow(g: _QubitGraph, s: int, t: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Dinic's max-flow from s to t with capacity 1 along each qubit, either
    way: the flow value, the final residual capacity per arc (uint8), and
    the distance per node from s along the arcs with capacity left in that
    residual (-1 where unreachable, t among them), which its last `bfs` found.
    Each phase's level graph comes from a `bfs` along the arcs with
    capacity left, its arcs gathered per node as int32 arrays; the
    blocking flow's depth-first search reads them through memoryviews.
    s == t raises ValueError: the search would augment the empty path forever."""
    if s == t:
        raise ValueError(f"max-flow needs two distinct nodes, not s = t = {s}")
    head = memoryview(g.head)
    residual = np.ones(len(g.head), dtype=np.uint8)
    cap = memoryview(residual)
    flow = 0
    while True:
        level = g.bfs(s, residual.view(bool))[0]
        if level[t] < 0:
            return flow, residual, level
        # the level graph's arcs, per node in order: capacity left, one level on
        ends = level[g.head].reshape(-1, 2)  # per qubit: the levels of its arcs' heads
        step = residual.view(bool) & (ends == ends[:, ::-1] + 1).ravel()
        keep = step[g.arcs]
        arcs = memoryview(g.arcs[keep])
        ptr = np.cumsum(np.append(False, keep), dtype=np.int32)[g.ptr]
        at = memoryview(ptr[:-1].copy())  # the next out-arc position to try, per node
        ptr = memoryview(ptr)
        path = []  # the arcs from s, searched depth first
        while True:
            x = head[path[-1]] if path else s
            if x == t:  # augment, then search again from s
                for a in path:
                    cap[a] -= 1
                    cap[a ^ 1] += 1
                flow += 1
                path = []
            elif at[x] == ptr[x + 1]:  # a dead end: its parent skips the arc to it
                if not path:
                    break
                at[head[path.pop() ^ 1]] += 1
            else:
                a = arcs[at[x]]
                if cap[a]:
                    path.append(a)
                else:
                    at[x] += 1


def dx_min_cut(code: CssCode) -> DistanceResult:
    """Exact d_X for the (1, n-1) open-cube geometry with two e-components
    and k = 1.

    The minimum-weight X-logical equals the minimum number of qubit edges
    separating the two e-components; the witness is the canonical
    source-side residual cut.
    """
    g = code._qubit_graph
    cx = code.source
    if cx.background != "open":
        raise PreconditionError("min-cut distance needs the open-cube background")
    outer_e = [lb for lb in g.terminal_labels if lb.startswith("oE")]
    if len(g.terminal_labels) != 2 or len(outer_e) != 2:
        raise PreconditionError(
            "min-cut distance needs exactly two OuterE components and uniform "
            "m-boundaries elsewhere; run exhaustive_low_weight instead"
        )
    g.require_separate_terminals()
    if code.reduction.k != 1:
        raise PreconditionError(f"min-cut distance searches one logical class, but k = "
                                f"{code.reduction.k}; run exhaustive_low_weight instead")
    s = g.terminal_node(outer_e[0])
    value, _, level = _max_flow(g, s, g.terminal_node(outer_e[1]))
    if not value:
        raise PreconditionError("the two OuterE components are disconnected (flow 0): "
                                "no X-logical crosses between them")
    # the source side of the final residual graph: the canonical min cut
    seen = level >= 0
    cut = np.flatnonzero(seen[g.head[0::2]] != seen[g.head[1::2]])
    if len(cut) != value:
        raise WitnessError(f"min cut has {len(cut)} edges for flow {value}")
    witness = PauliOperator.x_type(Gf2Vector.from_indices(code.n_qubits, cut))
    if not is_x_logical(code, witness.x_support):
        raise WitnessError("min-cut witness is not an X-logical")
    return DistanceResult(value, "exact", witness)


# -- exhaustive search -------------------------------------------------------


def exhaustive_low_weight(
    code: CssCode, op_type: str, w_max: int, budget: int | None = None
) -> DistanceResult:
    """Enumerate connected supports of weight 1..w_max; exact distance if a
    logical is found, else certified_above(w_max).

    op_type is "X" or "Z".  Aborts with BudgetError past the node budget
    (env FRACTALCSS_BUDGET overrides the default); the error carries the
    weight the search had certified by then.

    Weights 1 and 2 are tested as arrays: a qubit is a candidate when its
    syndrome column is empty, an adjacent pair when its two columns are
    equal.  Candidates are tried in the search's order (roots ascending,
    then neighbours ascending), and the nodes the search would have visited
    up to each one are counted in closed form, so the witness and the
    budget cut-off are those of the search.  Weights 3 and up run the
    search itself.
    """
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    if op_type not in ("X", "Z"):
        raise ValueError(f"op_type must be 'X' or 'Z', not {op_type!r}")
    budget = budget if budget is not None else search_budget()
    n = code.n_qubits
    is_logical = is_x_logical if op_type == "X" else is_z_logical

    def logical_at(support: tuple[int, ...], visited: int) -> bool:
        """Whether `support` is a logical, tested as the `visited`-th node."""
        if visited > budget:
            raise BudgetError(budget, len(support) - 1)
        return is_logical(code, Gf2Vector.from_indices(n, support))

    # syndrome columns: the checks of each qubit, ascending
    columns = (code.z_checks if op_type == "X" else code.x_checks).transpose(n)

    # weight 1: root r is the (r + 1)-th node visited
    for r in np.flatnonzero(columns.counts() == 0).tolist():
        if logical_at((r,), r + 1):
            return _exact_result(code, op_type, (r,))
    if n > budget:
        raise BudgetError(budget, 0)
    if w_max == 1:
        return DistanceResult(1, "certified_above", None)

    # weight 2: each root is visited, then each of its greater neighbours;
    # the pair of edge e (edges sorted) at root a is node n + a + e + 2
    a, b = _adjacent_pairs(code)
    for e in np.flatnonzero(_same_columns(columns, a, b)).tolist():
        support = (int(a[e]), int(b[e]))
        if logical_at(support, n + support[0] + e + 2):
            return _exact_result(code, op_type, support)
    visited = 2 * n + len(a)
    if visited > budget:
        raise BudgetError(budget, 1)
    if w_max == 2:
        return DistanceResult(2, "certified_above", None)

    syndrome = [frozenset(columns[q].tolist()) for q in range(n)]
    support = _search(syndrome, a, b, lambda s: is_logical(code, Gf2Vector.from_indices(n, s)),
                      w_max, budget, visited)
    if support is not None:
        return _exact_result(code, op_type, support)
    return DistanceResult(w_max, "certified_above", None)


def _adjacent_pairs(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """The qubit pairs a < b that share a check of either type, sorted:
    each check's entries joined with the later entries of its row."""
    keys = []
    for checks in (code.x_checks, code.z_checks):
        c = checks.idx  # the columns of a row ascend
        later, end = np.arange(1, len(c) + 1), np.repeat(checks.ptr[1:], checks.counts())
        # int64 keys: the columns may be int32, and a * n wraps there past 46,340 qubits
        keys.append(np.repeat(c.astype(np.int64), end - later) * code.n_qubits
                    + c[_ranges(later, end)])
    return np.divmod(np.unique(np.concatenate(keys), return_index=True)[0], code.n_qubits)


def _same_columns(columns: Faces, a, b) -> np.ndarray:
    """Per pair e, whether qubits a[e] and b[e] have the same syndrome
    column (`columns[q]` for qubit q)."""
    size = columns.counts()
    same = size[a] == size[b]
    ea, eb = a[same], b[same]
    pair = np.repeat(np.arange(len(ea)), size[ea])
    differ = columns.take(ea) != columns.take(eb)
    same[same] = np.bincount(pair[differ], minlength=len(ea)) == 0
    return same


def _search(syndrome, a, b, logical, w_max, budget, visited):
    """The depth-first search over connected supports of weight 3..w_max
    with the adjacent pairs (a, b), its node count starting at `visited`:
    the first syndrome-free support (by the per-qubit check sets
    `syndrome`) that is `logical`, or None.

    A node grows the support `sub` by the head u of its extension list ext
    and passes on the rest of ext plus the neighbours w > root of u that
    are neither in sub nor in ext; `mark` holds exactly sub and ext.
    """
    n = len(syndrome)
    nb = Faces.from_pairs(n, np.concatenate((a, b)), np.concatenate((b, a)))
    ptr, idx = nb.ptr.tolist(), nb.idx.tolist()
    neighbors = [idx[ptr[q] : ptr[q + 1]] for q in range(n)]  # ascending
    mark = bytearray(n)

    def extend(sub: list[int], syn: frozenset, ext: list[int], target: int):
        """The nodes below `sub`, whose syndrome is `syn`."""
        nonlocal visited
        if len(sub) + 1 == target:  # the leaves: sub + [u] is syndrome-free iff
            for u in ext:           # u has the syndrome of sub
                visited += 1
                if visited > budget:
                    raise BudgetError(budget, target - 1)
                if syndrome[u] == syn and logical(sub + [u]):
                    return tuple(sub + [u])
            return None
        for i, u in enumerate(ext):
            visited += 1
            if visited > budget:
                raise BudgetError(budget, target - 1)
            new = [w for w in neighbors[u] if w > sub[0] and not mark[w]]
            for w in new:
                mark[w] = 1
            found = extend(sub + [u], syn ^ syndrome[u], ext[i + 1 :] + new, target)
            for w in new:
                mark[w] = 0
            mark[u] = 0  # u leaves ext
            if found:
                return found
        for u in ext:
            mark[u] = 1
        return None

    for w in range(3, w_max + 1):
        for root in range(n):
            visited += 1
            if visited > budget:
                raise BudgetError(budget, w - 1)
            ext = [u for u in neighbors[root] if u > root]
            for u in [root] + ext:
                mark[u] = 1
            found = extend([root], syndrome[root], ext, w)
            for u in [root] + ext:
                mark[u] = 0
            if found:
                return found
    return None


def _exact_result(code, op_type, support) -> DistanceResult:
    v = Gf2Vector.from_indices(code.n_qubits, support)
    witness = PauliOperator.x_type(v) if op_type == "X" else PauliOperator.z_type(v)
    return DistanceResult(len(support), "exact", witness)


# -- scaling fits ------------------------------------------------------------


def fit_scaling(points) -> ScalingFit:
    """Least-squares slope on (ln L, ln d)."""
    points = [(float(L), float(d)) for L, d in points]
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    if any(L <= 0 or d <= 0 for L, d in points):
        raise ValueError("scaling fit needs positive coordinates")
    xs = np.log([L for L, _ in points])
    ys = np.log([d for _, d in points])
    if np.allclose(xs, xs[0]):
        return ScalingFit(tuple(points), 0.0, 0.0)
    # the closed form in elementwise sums, which needs no BLAS or LAPACK; two
    # points fit exactly and, as np.polyfit, report no residual
    dx, dy = xs - xs.mean(), ys - ys.mean()
    slope = (dx * dy).sum() / (dx * dx).sum()
    residual = ((dy - slope * dx) ** 2).sum() if len(points) > 2 else 0.0
    return ScalingFit(tuple(points), float(slope), float(residual))
