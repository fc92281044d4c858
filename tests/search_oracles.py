"""Test-only oracles: the per-bit and per-set loops that the packed-word
search, membership and gate checks replaced.

Each is the implementation the package had before, kept verbatim apart
from its imports, three accessors it read (the word-by-word
``Gf2Vector.indices``, ``Gf2Matrix.row_indices`` and the per-bit
``Gf2Vector.get``, as ``bit``, all here) and the
copies the gate checks test: they took each code's first position in the
alignment, so an alignment holding one code twice had a copy tested
against itself; they now take them by ``positions``.  The
search raises the package's ``BudgetError`` with the weight it was working
on, so that a test can compare what the two certified.  The package must
return the same values, witnesses and reports bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np

from fractalcss.code import CssCode, PauliOperator, is_x_logical, is_z_logical, logical_basis
from fractalcss.distance import BudgetError, DistanceResult, search_budget
from fractalcss.gates import ConditionResult, GateCheckReport, StackAlignment
from fractalcss.gf2 import Gf2Matrix, Gf2Vector, _kernel_rows

# -- per-bit accessors ------------------------------------------------------------


def indices(v: Gf2Vector) -> list[int]:
    out = []
    for w in range(len(v.data)):
        word = int(v.data[w])
        while word:
            b = word & -word
            out.append((w << 6) + b.bit_length() - 1)
            word ^= b
    return out


def row_indices(m: Gf2Matrix, r: int) -> list[int]:
    return indices(m.row(r))


def bit(v: Gf2Vector, i: int) -> int:
    return int((v.data[i >> 6] >> np.uint64(i & 63)) & np.uint64(1))


# -- membership and the logical quotient ---------------------------------------------


def in_rowspace(rref_matrix: Gf2Matrix, pivots: list[int], v: Gf2Vector) -> bool:
    """Membership test against a precomputed RREF (see :meth:`Gf2Matrix.rref`)."""
    w = v.copy()
    for i, p in enumerate(pivots):
        if bit(w, p):
            w.data ^= rref_matrix.data[i, : len(w.data)]
    return w.is_zero()


def quotient_reps(check, span) -> list[Gf2Vector]:
    """Representatives of ker(A) modulo rowspace(B), given the (R, pivots)
    eliminations `check` of A and `span` of B."""
    span_rref, span_pivots = span
    chosen: list[Gf2Vector] = []
    chosen_rref: list[Gf2Vector] = []
    K = _kernel_rows(*check)
    for row in K.data:
        w = Gf2Vector(K.cols, row.copy())
        for i, p in enumerate(span_pivots):
            if bit(w, p):
                w.data ^= span_rref.data[i, : len(w.data)]
        for u in chosen_rref:
            lead = _leading_bit(u)
            if lead is not None and bit(w, lead):
                w ^= u
        if not w.is_zero():
            chosen.append(w.copy())
            chosen_rref.append(w)
    return chosen


def _leading_bit(v: Gf2Vector) -> int | None:
    idx = indices(v)
    return idx[0] if idx else None


# -- exhaustive search ----------------------------------------------------------------


def exhaustive_low_weight(
    code: CssCode, op_type: str, w_max: int, budget: int | None = None
) -> DistanceResult:
    """Enumerate connected supports of weight 1..w_max; exact distance if a
    logical is found, else certified_above(w_max)."""
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    if op_type not in ("X", "Z"):
        raise ValueError(f"op_type must be 'X' or 'Z', not {op_type!r}")
    budget = budget if budget is not None else search_budget()
    n = code.n_qubits
    syndrome_checks = code.hz if op_type == "X" else code.hx

    checks_of_qubit: list[list[int]] = [[] for _ in range(n)]
    row_lists = []
    for m, tag in ((code.hx, 0), (code.hz, 1)):
        for r in range(m.rows):
            sup = row_indices(m, r)
            row_lists.append(sup)
            for q in sup:
                checks_of_qubit[q].append(len(row_lists) - 1)
    syn_of_qubit: list[list[int]] = [[] for _ in range(n)]
    for r in range(syndrome_checks.rows):
        for q in row_indices(syndrome_checks, r):
            syn_of_qubit[q].append(r)

    neighbors: list[list[int]] = [[] for _ in range(n)]
    seen_pairs = set()
    for sup in row_lists:
        for a in range(len(sup)):
            for b in range(a + 1, len(sup)):
                pair = (sup[a], sup[b])
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    neighbors[pair[0]].append(pair[1])
                    neighbors[pair[1]].append(pair[0])
    neighbors = [sorted(set(ns)) for ns in neighbors]

    nodes_visited = 0

    def is_logical(support: tuple[int, ...]) -> bool:
        syn = set()
        for q in support:
            syn.symmetric_difference_update(syn_of_qubit[q])
        if syn:
            return False
        v = Gf2Vector.from_indices(n, support)
        return is_x_logical(code, v) if op_type == "X" else is_z_logical(code, v)

    def extend(sub: list[int], extension: list[int], target: int):
        nonlocal nodes_visited
        if len(sub) == target:
            if is_logical(tuple(sub)):
                return tuple(sub)
            return None
        ext = list(extension)
        while ext:
            u = ext.pop(0)
            nodes_visited += 1
            if nodes_visited > budget:
                raise BudgetError(budget, target - 1)
            grown = ext + [
                w
                for w in neighbors[u]
                if w > sub[0] and w not in sub and w not in ext and w != u
            ]
            found = extend(sub + [u], grown, target)
            if found:
                return found
        return None

    for w in range(1, w_max + 1):
        for root in range(n):
            nodes_visited += 1
            if nodes_visited > budget:
                raise BudgetError(budget, w - 1)
            if w == 1:
                if is_logical((root,)):
                    return _exact_result(code, op_type, (root,))
            else:
                ext = [u for u in neighbors[root] if u > root]
                found = extend([root], ext, w)
                if found:
                    return _exact_result(code, op_type, found)
    return DistanceResult(w_max, "certified_above", None)


def _exact_result(code, op_type, support) -> DistanceResult:
    v = Gf2Vector.from_indices(code.n_qubits, support)
    witness = PauliOperator.x_type(v) if op_type == "X" else PauliOperator.z_type(v)
    return DistanceResult(len(support), "exact", witness)


# -- gate conditions --------------------------------------------------------------------


def sites_of(align: StackAlignment, copy: int, support: Gf2Vector) -> frozenset[int]:
    mapping = align.qubit_site[copy]
    return frozenset(mapping[q] for q in indices(support))


def box_sites(codes) -> tuple[int, list[list[int]]]:
    """The site count and per code the site of each qubit, as
    `gates.align_by_boxes` numbered them with a dict: each doubled midpoint
    in order of first appearance."""
    site_index: dict[tuple, int] = {}
    qubit_site: list[list[int]] = []
    for code in codes:
        mids = code.source.cells[code.grading][code.qubit_cells].sum(axis=2)
        qubit_site.append([site_index.setdefault(mid, len(site_index))
                           for mid in map(tuple, mids.tolist())])
    return len(site_index), qubit_site


def x_stab_sites(align: StackAlignment, copy: int) -> list[frozenset[int]]:
    code = align.codes[copy]
    return [sites_of(align, copy, code.hx.row(r)) for r in range(code.hx.rows)]


def logical_sites(align: StackAlignment, copy: int) -> frozenset[int] | None:
    if copy < len(align.x_logicals) and align.x_logicals[copy] is not None:
        return sites_of(align, copy, align.x_logicals[copy].x_support)
    return None


def positions(align: StackAlignment, codes) -> list[int]:
    """Each code's position in the alignment: the first holding that object
    that no earlier code took, else the first holding it."""
    out: list[int] = []
    for code in codes:
        held = [t for t, c in enumerate(align.codes) if c is code]
        free = [t for t in held if t not in out]
        out.append((free or held)[0])
    return out


def _parity(*site_sets: frozenset[int]) -> int:
    inter = site_sets[0]
    for s in site_sets[1:]:
        inter = inter & s
    return len(inter) & 1


def check_transversal_cz(
    a: CssCode, b: CssCode, align: StackAlignment
) -> GateCheckReport:
    ia, ib = positions(align, (a, b))
    stabs = {ia: x_stab_sites(align, ia), ib: x_stab_sites(align, ib)}
    logicals = {ia: logical_sites(align, ia), ib: logical_sites(align, ib)}
    for copy in (ia, ib):
        if logicals[copy] is None:
            zs, xs = logical_basis(align.codes[copy])
            logicals[copy] = (
                sites_of(align, copy, xs[0].x_support) if xs else None
            )

    conds = []
    bad = [
        (f"X{i}", f"X{j}", 1)
        for i, si in enumerate(stabs[ia])
        for j, sj in enumerate(stabs[ib])
        if _parity(si, sj)
    ]
    conds.append(ConditionResult("CZ1-stab-stab", not bad, tuple(bad[:8])))

    bad = []
    for src, dst in ((ia, ib), (ib, ia)):
        if logicals[dst] is None:
            continue
        for i, si in enumerate(stabs[src]):
            if _parity(si, logicals[dst]):
                bad.append((f"copy{src}:X{i}", f"copy{dst}:Xbar", 1))
    conds.append(ConditionResult("CZ1-stab-logical", not bad, tuple(bad[:8])))

    if logicals[ia] is None or logicals[ib] is None:
        conds.append(
            ConditionResult("CZ2-logical-logical", True, (), "not applicable: k = 0")
        )
    else:
        p = _parity(logicals[ia], logicals[ib])
        conds.append(
            ConditionResult(
                "CZ2-logical-logical", p == 1, () if p == 1 else (("Xbar", "Xbar", p),)
            )
        )
    return GateCheckReport(tuple(conds))


def check_transversal_ccz(
    a: CssCode, b: CssCode, c: CssCode, align: StackAlignment
) -> GateCheckReport:
    idx = positions(align, (a, b, c))
    stabs = [x_stab_sites(align, i) for i in idx]
    logicals = []
    for i in idx:
        ls = logical_sites(align, i)
        if ls is None:
            zs, xs = logical_basis(align.codes[i])
            ls = sites_of(align, i, xs[0].x_support) if xs else None
        logicals.append(ls)

    conds = []
    bad = [
        (f"{idx[0]}:X{i}", f"{idx[1]}:X{j}", f"{idx[2]}:X{k}", 1)
        for i, si in enumerate(stabs[0])
        for j, sj in enumerate(stabs[1])
        if si & sj
        for k, sk in enumerate(stabs[2])
        if _parity(si, sj, sk)
    ]
    conds.append(ConditionResult("CCZ1-stab-stab-stab", not bad, tuple(bad)))

    bad = []
    for which in range(3):
        if logicals[which] is None:
            continue
        others = [t for t in range(3) if t != which]
        for i, si in enumerate(stabs[others[0]]):
            for j, sj in enumerate(stabs[others[1]]):
                if _parity(si, sj, logicals[which]):
                    bad.append(
                        (f"{idx[others[0]]}:X{i}", f"{idx[others[1]]}:X{j}",
                         f"{idx[which]}:Xbar", 1)
                    )
    conds.append(ConditionResult("CCZ1-stab-stab-logical", not bad, tuple(bad)))

    bad = []
    for which in range(3):
        others = [t for t in range(3) if t != which]
        if logicals[others[0]] is None or logicals[others[1]] is None:
            continue
        for i, si in enumerate(stabs[which]):
            if _parity(si, logicals[others[0]], logicals[others[1]]):
                bad.append(
                    (f"{idx[which]}:X{i}", f"{idx[others[0]]}:Xbar",
                     f"{idx[others[1]]}:Xbar", 1)
                )
    conds.append(ConditionResult("CCZ1-stab-logical-logical", not bad, tuple(bad)))

    if any(l is None for l in logicals):
        conds.append(
            ConditionResult("CCZ2-logical-triple", True, (), "not applicable: k = 0")
        )
    else:
        p = _parity(*logicals)
        conds.append(
            ConditionResult(
                "CCZ2-logical-triple", p == 1,
                () if p == 1 else (("Xbar1", "Xbar2", "Xbar3", p),),
            )
        )
    return GateCheckReport(tuple(conds))


def cz_part_is_identity(
    sites: frozenset[int], copies: tuple[int, int], align: StackAlignment
) -> bool:
    b, c = copies
    stabs_b = x_stab_sites(align, b)
    stabs_c = x_stab_sites(align, c)
    lb = logical_sites(align, b)
    lc = logical_sites(align, c)
    sets_b = stabs_b + ([lb] if lb is not None else [])
    sets_c = stabs_c + ([lc] if lc is not None else [])
    for sb in sets_b:
        cut = sites & sb
        if not cut:
            continue
        for sc in sets_c:
            if len(cut & sc) & 1:
                return False
    return True


def parity_failures(align: StackAlignment, copies: list[int], on=None) -> list[set]:
    """The p-fold rule by brute force over the copies at `copies`: every
    choice of one X stabilizer or the logical X per copy, met on the sites
    `on` (a set; every site when None).  Per count m of logicals in a
    choice, the set of choices that break the rule, each as (rows, parity)
    with rows[t] the stabilizer row of copy t or None for its logical."""
    options = []
    for copy in copies:
        opts = list(enumerate(x_stab_sites(align, copy)))
        logical = logical_sites(align, copy)
        options.append(opts + ([(None, logical)] if logical is not None else []))
    failures: list[set] = [set() for _ in range(len(copies) + 1)]
    for choice in itertools.product(*options):
        p = _parity(*(sites for _, sites in choice), *([] if on is None else [on]))
        m = sum(row is None for row, _ in choice)
        if p != (m == len(copies)):
            failures[m].add((tuple(row for row, _ in choice), p))
    return failures
