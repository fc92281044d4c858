"""Exact code distances where the geometry permits, certified bounds elsewhere.

For grading i=1 the Z-distance is a shortest-path problem on the qubit
graph (nodes = surviving 0-cells with every e-boundary component contracted
to a terminal, edges = qubit 1-cells) and the X-distance of the two-terminal
open-cube geometry is the minimum edge cut between the e-components,
computed by Dinic's unit-capacity max-flow.

The graph is built once, as CSR arrays: arcs 2j and 2j + 1 run both ways
along the j-th non-loop qubit, so the reverse of arc a is a ^ 1, and each
node lists its out-arcs in ascending qubit order.  One breadth-first search
with an optional per-arc filter serves the terminal-to-terminal paths, the
torus seams (the seam's qubits masked), Dinic's level graph (residual
capacity > 0) and the source side of the min cut; the fixed arc order makes
the path and cut witnesses reproducible.

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
may be a stabilizer), and the min cut when its two terminals are
disconnected (flow 0) or when k != 1 (the cut is the lightest X-logical of
one class only; the m-holes of a 2D fractal add classes with a lighter
one).  The shortest path also refuses a torus with an e-labelled cell whose
box reaches 0 or the period on a periodic axis: the contracted terminal
then straddles the seam, and the seam cut misses classes.  Callers then
fall back to the search.
Every exact result's witness is re-verified independently: zero syndrome
against the opposite-type checks and membership outside the stabilizer
row-space.  A witness that fails raises `WitnessError`.
"""

from __future__ import annotations

import os
from collections import deque
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

    Qubit q joins nodes u[q] and v[q] (equal for a loop).  Arcs 2j and
    2j + 1 run both ways along the j-th non-loop qubit, `qubit[j]`, so the
    reverse of arc a is a ^ 1 and it ends at `head[a]`.  The out-arcs of
    node x are `arcs[ptr[x]:ptr[x + 1]]`, in ascending qubit order.
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
            {cx.label_names[c] for c in np.unique(codes).tolist()}
        )
        self.n_bulk = int(len(is_e) - is_e.sum())
        self.n_nodes = self.n_bulk + len(self.terminal_labels)
        terminal = {label: self.n_bulk + t for t, label in enumerate(self.terminal_labels)}
        node = np.cumsum(~is_e) - 1
        node[is_e] = np.array([terminal.get(name, 0) for name in cx.label_names])[codes]
        # the labels at the ends of the first e-edge that joins two labels
        # into one e-component, if any
        ends = cx.faces[1]
        e_edge = np.flatnonzero(cx.label_mask(1, label_is_e) & (ends.counts() == 2))
        a, b = (node[ends.idx[ends.ptr[e_edge] + i]] for i in (0, 1))
        j = np.flatnonzero((a >= self.n_bulk) & (b >= self.n_bulk) & (a != b))[:1]
        self.shared = sorted(self.terminal_labels[t - self.n_bulk]
                             for t in np.concatenate((a[j], b[j])).tolist())
        # edge ends: the first two faces of each qubit edge; an edge with one
        # face (a wrap edge collapsed mod 2) is a loop, one with none (0, 0)
        first = ends.ptr[code.qubit_cells]
        count = ends.counts()[code.qubit_cells]
        node_at = np.append(node[ends.idx], 0)  # the 0 past the end: no face
        last = len(ends.idx)
        self.u = np.where(count >= 1, node_at[np.minimum(first, last)], 0)
        self.v = np.where(count >= 2, node_at[np.minimum(first + 1, last)], self.u)
        qubit = np.flatnonzero(self.u != self.v)
        tail = np.column_stack((self.u[qubit], self.v[qubit]))
        out = Faces.from_pairs(self.n_nodes, tail.ravel(), np.arange(tail.size))
        self.qubit = qubit.tolist()
        self.head = tail[:, ::-1].ravel().tolist()
        self.ptr, self.arcs = out.ptr.tolist(), out.idx.tolist()

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

    def bfs(self, source: int, usable=None, depth=None) -> tuple[list[int], list[int]]:
        """Breadth-first search from `source` along the arcs a with a true
        `usable[a]` (every arc when None), each node's arcs in order: the
        distance per node, -1 where unreachable, and the arc that reached
        each node, -1 at the source and where unreachable.  With a `depth`
        no node at that distance or past it is expanded, so only the nodes
        within it are reached, each by the arc the full search takes."""
        ptr, arcs, head = self.ptr, self.arcs, self.head
        dist = [-1] * self.n_nodes
        via = [-1] * self.n_nodes
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


def _path(via, end: int) -> list[int]:
    """Qubits of the BFS-tree path from the source to `end`, source first;
    `via` is the graph and the arc into each node that its `bfs` returned."""
    g, into = via
    out = []
    a = into[end]
    while a >= 0:
        out.append(g.qubit[a >> 1])
        a = into[g.head[a ^ 1]]
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
    g = _QubitGraph(code)
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
                if dist[node] >= 0 and (best is None or dist[node] < best[0]):
                    best = (dist[node], _path((g, via), node))
    if all(p is not None for p in cx.periods):
        for axis in range(cx.dim):
            in_seam = cx.cells[1][code.qubit_cells, axis, 1] == cx.periods[axis]
            off_seam = np.repeat(~in_seam[g.qubit], 2).tolist()
            for q in np.flatnonzero(in_seam).tolist():
                u, v = int(g.u[q]), int(g.v[q])
                if u == v:
                    if best is None or 1 < best[0]:
                        best = (1, [q])
                    continue
                dist, via = g.bfs(u, off_seam, None if best is None else best[0] - 2)
                if dist[v] >= 0:
                    total = dist[v] + 1
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


def _max_flow(g: _QubitGraph, s: int, t: int) -> tuple[int, bytearray]:
    """Dinic's max-flow from s to t with capacity 1 along each qubit, either
    way: the flow value and the final residual capacity per arc."""
    ptr, arcs, head = g.ptr, g.arcs, g.head
    cap = bytearray(b"\x01") * len(head)
    flow = 0
    while True:
        level = g.bfs(s, cap)[0]
        if level[t] < 0:
            return flow, cap
        at = ptr[:-1]  # the next out-arc position to try, per node
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
                if cap[a] and level[head[a]] == level[x] + 1:
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
    g.require_separate_terminals()
    s = g.terminal_node(outer_e[0])
    value, cap = _max_flow(g, s, g.terminal_node(outer_e[1]))
    if not value:
        raise PreconditionError("the two OuterE components are disconnected (flow 0): "
                                "no X-logical crosses between them")
    if code.reduction.k != 1:
        raise PreconditionError(f"min-cut distance searches one logical class, but k = "
                                f"{code.reduction.k}; run exhaustive_low_weight instead")
    # the source side of the final residual graph: the canonical min cut
    seen = np.array(g.bfs(s, cap)[0]) >= 0
    cut = np.flatnonzero(seen[g.u] != seen[g.v])
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
        keys.append(np.repeat(c, end - later) * code.n_qubits + c[_ranges(later, end)])
    return np.divmod(np.unique(np.concatenate(keys)), code.n_qubits)


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
    coeffs, residuals, *_ = np.polyfit(xs, ys, 1, full=True)
    residual = float(residuals[0]) if len(residuals) else 0.0
    return ScalingFit(tuple(points), float(coeffs[0]), residual)
