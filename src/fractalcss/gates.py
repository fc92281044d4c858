"""Transversal-gate condition checks and the lattice-merge algebra.

A transversal C^pZ on p + 1 aligned code blocks (CZ for p = 1, CCZ for
p = 2) rests on one intersection-parity rule.  Choose one row per copy,
either an X stabilizer or the logical X, as a set of shared sites: every
choice with a stabilizer must meet in an even number of sites, and the
all-logical choice in an odd number (Vasmer & Browne, PRA 100, 012312,
2019, for p = 2).  `_parity_failures` counts every choice of roles in one
pass per site from the CSR checks, each copy's logical X the last row of
its site incidence; every failure has a witness.

The three-copy stack follows the asymmetric cubic construction: copy 1 is
the standard surface code on the lattice (weight-6 bulk vertex stabilizers,
rough along z), while copies 2 and 3 place their X stabilizers on the even
and odd cubes of the same lattice (weight-12 in the bulk) with weight-3
corner-triangle Z stabilizers on the opposite parity class.  Two cubes of
opposite parity share a face or nothing, so bulk triple overlaps are always
even; cutting a hole truncates the vertex stabilizers to weight 5 and the
cube stabilizers down to their surface faces, which is exactly where the
CCZ conditions start to fail.

Conjugating an X stabilizer by the transversal CCZ yields a phase
polynomial: the X part unchanged times one CZ per support site coupling
the other two copies.  Phase polynomials stop at quadratic terms; the
commutation check conjugates each diagonal part by the other operator's X
part and compares the leftover signs and linear-Z terms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .code import (
    CssCode, PauliOperator, _ChainReduction, _syndrome_free, code_params, css_from_complex,
    logical_basis,
)
from .complexes import CellComplex, Faces, Hole, code_lattice
from .gf2 import Gf2Vector


class CertificateError(AssertionError):
    """A constructed logical operator failed its certificate."""


# -- alignment ----------------------------------------------------------------


@dataclass
class StackAlignment:
    """Aligned code blocks sharing one transversal site per qubit."""

    codes: list[CssCode]
    n_sites: int
    qubit_site: list[np.ndarray]  # per code: the site of each qubit, int64
    x_logicals: list[PauliOperator] = field(default_factory=list)

    def __post_init__(self):
        self.qubit_site = [np.asarray(sites, dtype=np.int64) for sites in self.qubit_site]
        for code, sites in zip(self.codes, self.qubit_site):
            if code.n_qubits != len(sites):
                raise ValueError("alignment size mismatch")
            if len(np.unique(sites, return_index=True)[1]) != len(sites):
                raise ValueError("alignment must be injective per code")
        # per copy: the logical read, and its incidence with that logical's row
        self._held: dict[int, tuple[PauliOperator | None, tuple[Faces, int | None]]] = {}

    @cached_property
    def x_rows(self) -> list[Faces]:
        """Per copy, per site, the X stabilizers that hold it; built once."""
        return [Faces(code.x_checks.ptr, sites[code.x_checks.idx]).transpose(self.n_sites)
                for code, sites in zip(self.codes, self.qubit_site)]

    def _rows(self, copy: int, basis: bool = True) -> tuple[Faces, int | None]:
        """Per site, the copy's X stabilizers that hold it, then its logical X
        as row len(x_checks); and that row (None: no logical).  The logical is
        the copy's entry of `x_logicals`, else with `basis` its basis's at
        k = 1 (at k > 1 the basis names no particular class: ValueError).
        Built once per logical object, so a later change to `x_logicals` is read."""
        x = self.x_logicals[copy] if copy < len(self.x_logicals) else None
        if x is None and not basis:
            return self.x_rows[copy], None
        held = self._held.get(copy)
        if held is None or held[0] is not x:
            xs = [x] if x is not None else logical_basis(self.codes[copy])[1]
            if len(xs) > 1:
                raise ValueError(f"copy {copy} has k = {len(xs)} and no logical X in the "
                                 "alignment to test")
            stabs, row = self.x_rows[copy], len(self.codes[copy].x_checks)
            if xs:  # the sites of the logical, merged in as the last row
                on = np.zeros(self.n_sites, dtype=bool)
                on[self.qubit_site[copy]] = xs[0].x_support.to_dense()
                stabs = Faces(stabs.ptr + np.append(0, np.cumsum(on)),
                              np.insert(stabs.idx, stabs.ptr[1:][on], row))
            held = self._held[copy] = (x, (stabs, row if xs else None))
        return held[1]

    def sites_of(self, copy: int, support: Gf2Vector) -> frozenset[int]:
        return frozenset(self.qubit_site[copy][support.indices()].tolist())


def align_identical(codes: list[CssCode], x_logicals=None) -> StackAlignment:
    """Alignment for codes living on the same qubit set (site = qubit index)."""
    n = codes[0].n_qubits
    if any(c.n_qubits != n for c in codes):
        raise ValueError(f"codes of {[c.n_qubits for c in codes]} qubits cannot share sites")
    return StackAlignment(codes, n, [np.arange(n) for _ in codes], list(x_logicals or []))


def align_by_boxes(codes: list[CssCode]) -> StackAlignment:
    """Align codes whose qubit cells occupy the same geometric midpoints,
    the sites numbered in order of first appearance."""
    mids = [code.source.cells[code.grading][code.qubit_cells].sum(axis=2) for code in codes]
    _, first, site = np.unique(np.concatenate(mids), axis=0, return_index=True,
                               return_inverse=True)
    if len({len(m) for m in mids}) != 1 or len(first) != len(mids[0]):
        raise ValueError("codes do not share a common site set")
    order = np.argsort(np.argsort(first))  # each midpoint's rank by first appearance
    return StackAlignment(codes, len(first), np.split(order[site.ravel()], len(codes)))


# -- condition reports ---------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    condition_id: str
    passed: bool
    witnesses: tuple[tuple, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class GateCheckReport:
    conditions: tuple[ConditionResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.conditions)

    def failures(self) -> list[ConditionResult]:
        return [c for c in self.conditions if not c.passed]

    def to_text(self) -> str:
        lines = []
        for c in self.conditions:
            line = f"COND {c.condition_id} {'PASS' if c.passed else 'FAIL'}"
            if c.note:
                line += f" ({c.note})"
            for w in c.witnesses:
                parts = " ".join(f"{chr(97 + t)}={v}" for t, v in enumerate(w[:-1]))
                line += f" [witness: {parts} parity={w[-1]}]"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _parity_failures(rows: list[tuple[Faces, int | None]], on: np.ndarray):
    """The choices of one row per copy that break the p-fold rule on the
    sites of the mask `on`.  rows[t] lists per site the rows of copy t that
    hold it, and its logical X's row (None: every row a stabilizer).  Yields
    (roles, picks) per choice of roles, True where a copy gives its logical,
    fewer logicals first, then in `itertools.product` order (one logical: the
    last copy's first); picks holds the breaking rows, a column per copy, in
    row-major order.  All choices are counted in one pass, once per site their
    rows all hold, under a mixed-radix key in copy order (ValueError past int64)."""
    logical = np.array([-1 if row is None else row for _, row in rows])
    radix = [max(int(part.idx.max(initial=-1)), row) + 1
             for (part, _), row in zip(rows, logical.tolist())]
    if math.prod(radix) > np.iinfo(np.int64).max:
        raise ValueError(f"choices of {radix} rows per copy take keys past int64")
    site, key = np.flatnonzero(on), np.zeros(np.count_nonzero(on), dtype=np.int64)
    for (part, _), r in zip(rows, radix):
        n = part.counts()[site]
        key, site = key.repeat(n) * r + part.take(site), site.repeat(n)
    keys, counts = np.unique(key, return_counts=True)
    odd = keys[counts & 1 == 1]  # the choices that meet in an odd number of sites
    picks = np.array(np.unravel_index(odd, radix)).T
    options = [(False, True) if row >= 0 else (False,) for row in logical.tolist()]
    for roles in sorted(itertools.product(*options), key=sum):
        mine = picks[((picks == logical) == roles).all(axis=1)]
        yield roles, (logical[None][:1 - len(mine)] if all(roles) else mine)  # all: even breaks


def _copies(align: StackAlignment, codes) -> list[int]:
    """The alignment's positions of `codes`: each takes the first position
    holding that object that no earlier one took, else the first holding it."""
    taken: list[int] = []
    for code in codes:
        held = [t for t, c in enumerate(align.codes) if c is code] or [align.codes.index(code)]
        taken.append(next((t for t in held if t not in taken), held[0]))
    return taken


def _parity_report(align: StackAlignment, codes, conditions, cap=None) -> GateCheckReport:
    """The p-fold rule on the copies holding `codes`.  conditions[m] names
    the choices with m logicals: (id, stabilizer label, logical label), a
    label formatted with the copy, the row and the argument number n.  A
    witness lists its stabilizers first; a condition keeps `cap` of them."""
    copies = _copies(align, codes)
    rows = [align._rows(copy) for copy in copies]
    found: list[list[tuple]] = [[] for _ in conditions]
    for roles, picks in _parity_failures(rows, np.ones(align.n_sites, dtype=bool)):
        m = sum(roles)
        labels = [conditions[m][1 + role] for role in roles]
        order = sorted(range(len(copies)), key=roles.__getitem__)  # the stabilizers first
        found[m] += [tuple(labels[t].format(copy=copies[t], row=pick[t], n=t + 1) for t in order)
                     + (int(m < len(copies)),) for pick in picks.tolist()]
    conds = [ConditionResult(cid, not bad, tuple(bad[:cap]))
             for (cid, *_), bad in zip(conditions, found)]
    if any(x is None for _, x in rows):
        conds[-1] = ConditionResult(conds[-1].condition_id, True, (), "not applicable: k = 0")
    return GateCheckReport(tuple(conds))


def check_transversal_cz(a: CssCode, b: CssCode, align: StackAlignment) -> GateCheckReport:
    """The p-fold rule for a transversal CZ, at most 8 witnesses each."""
    return _parity_report(align, (a, b), (("CZ1-stab-stab", "X{row}", ""),
        ("CZ1-stab-logical", "copy{copy}:X{row}", "copy{copy}:Xbar"),
        ("CZ2-logical-logical", "", "Xbar")), cap=8)


def check_transversal_ccz(
    a: CssCode, b: CssCode, c: CssCode, align: StackAlignment
) -> GateCheckReport:
    """The p-fold rule for a transversal CCZ.  Among the choices with one
    logical, the witnesses with copy c's logical come first, then b's, then
    a's (the `itertools.product` order of the roles)."""
    stab, bar = "{copy}:X{row}", "{copy}:Xbar"
    return _parity_report(align, (a, b, c), (
        ("CCZ1-stab-stab-stab", stab, bar), ("CCZ1-stab-stab-logical", stab, bar),
        ("CCZ1-stab-logical-logical", stab, bar), ("CCZ2-logical-triple", stab, "Xbar{n}")))


# -- the three-copy stack ------------------------------------------------------


# Offsets from a cube's doubled midpoint (lo + hi per axis) to the
# midpoints of its 12 edges, and per corner (x slowest) of its 3 edges there.
_CUBE_EDGES = np.array([p for p in itertools.product((-2, 0, 2), repeat=3)
                        if sorted(map(abs, p)) == [0, 2, 2]])
_CORNER_TRIPLES = np.array([[c * (1 - np.eye(3, dtype=np.int64)[d]) for d in range(3)]
                            for c in itertools.product((-2, 2), repeat=3)])


def build_vasmer_browne_stack(
    L: int, holes: str | list[Hole] | None = None
) -> tuple[list[CssCode], StackAlignment]:
    """Three aligned 3D codes on a shared cubic qubit set.

    Each copy's logical-X brane x is certified without eliminating a check
    matrix: H_Z x = 0, and x meets a Z string z of the same copy with
    H_X z = 0 an odd number of times.  Every product of X checks meets z
    evenly, so x is not one, and likewise z is no product of Z checks.

    Copy 1: standard surface code, e-boundaries perpendicular to z.
    Copy 2: X stabilizers on even cubes (rough along x), Z stabilizers on
            odd-cube corner triangles.
    Copy 3: the same with the parity classes and x/y roles swapped.
    The returned alignment carries one logical-X brane per copy, pairwise
    perpendicular.
    """
    if L < 2:
        raise ValueError("stack needs L >= 2")
    if holes == "center":
        mid = L // 2
        holes = [Hole(0, tuple((2 * mid, 2 * mid + 2) for _ in range(3)), "m", 0)]
    cx = code_lattice(3, L, e_axes=(2,), holes=holes or ())
    copy1 = css_from_complex(cx, 1)
    n = copy1.n_qubits
    # the qubit at each doubled midpoint, shifted by 2 so that the edges of
    # the cubes on the lattice's rim index the grid too (and find none)
    grid = np.full((4 * L + 6,) * 3, -1)
    grid[tuple(cx.cells[1][copy1.qubit_cells].sum(axis=2).T + 2)] = np.arange(n)

    def at(mids) -> np.ndarray:
        return grid[tuple(np.moveaxis(mids, -1, 0) + 2)]

    def checks(support: np.ndarray) -> Faces:  # a row of qubits per check, -1 for none
        r, c = np.nonzero(support >= 0)
        return Faces.from_pairs(len(support), r, support[r, c])

    # cube (jx, jy, k): x-window [2jx-1, 2jx+1], y-window [2jy-1, 2jy+1],
    # z-window [2k, 2k+2], in the order jx, jy, k
    jx, jy, k = (a.ravel() for a in np.meshgrid(
        np.arange(L + 1), np.arange(L + 1), np.arange(L), indexing="ij"))
    centers = np.stack([4 * jx, 4 * jy, 4 * k + 2], axis=1)

    def build_cube_code(x_parity: int, rough_axis: int) -> CssCode:
        j = (jx, jy)[rough_axis]
        inner = (1 <= j) & (j <= L - 1)
        is_x = (jx + jy + k) % 2 == x_parity
        x_sup = at(centers[inner & is_x, None] + _CUBE_EDGES)
        z_sup = at(centers[inner & ~is_x, None, None] + _CORNER_TRIPLES).reshape(-1, 3)
        return CssCode(
            n_qubits=n, x_checks=checks(x_sup[(x_sup >= 0).any(axis=1)]),
            z_checks=checks(z_sup[(z_sup >= 0).all(axis=1)]), grading=1,
            qubit_cells=copy1.qubit_cells,
            x_anchor_cells=[], source=None,  # its checks are not the complex's code
        )

    copy2 = build_cube_code(x_parity=0, rough_axis=0)
    copy3 = build_cube_code(x_parity=1, rough_axis=1)

    # logical branes, pairwise perpendicular: z-layer for copy 1, planes
    # x = 1 and y = 1 (doubled odd coordinates) for copies 2 and 3; each
    # given by the midpoints lo + hi of its edges
    def brane(*planes) -> Gf2Vector:
        q = np.concatenate([at(np.stack(np.broadcast_arrays(*p), -1)).ravel() for p in planes])
        return Gf2Vector.from_indices(n, q[q >= 0])

    a, b = np.arange(L)[:, None], np.arange(L)
    c, d = np.arange(1, L)[:, None], np.arange(1, L)
    branes = [
        brane((4 * a + 2, 4 * b + 2, 2)),
        brane((2, 4 * a + 2, 4 * b + 2), (2, 4 * c, 4 * d)),
        brane((4 * a + 2, 2, 4 * b + 2), (4 * c, 2, 4 * d)),
    ]
    # each brane's partner: the qubits along the axis of that copy's Z
    # logical, at doubled midpoint 2 on the other two axes
    partners = [brane((2, 2, 4 * b + 2)), brane((4 * b + 2, 2, 2)), brane((2, 4 * b + 2, 2))]
    codes = [copy1, copy2, copy3]
    for copy, (code, x, z) in enumerate(zip(codes, branes, partners)):
        if not _certified(code, x, z):
            raise CertificateError(f"the brane of copy {copy + 1} is not certified as a logical")
    logicals = [PauliOperator.x_type(b) for b in branes]
    return codes, align_identical(codes, logicals)


def _certified(code: CssCode, x: Gf2Vector, z: Gf2Vector) -> bool:
    """Whether x is an X-logical by the partner z: H_Z x = 0, H_X z = 0 and
    an odd overlap, which no product of X checks has with z."""
    return (_syndrome_free(code.z_checks, x) and _syndrome_free(code.x_checks, z)
            and bool(x.dot(z)))


def stabilizer_tags_near_holes(align: StackAlignment) -> set[str]:
    """Tags "copy:Xrow" of X stabilizers whose support touches the closed
    star of some hole: the hole-boundary stabilizers.  Used to classify
    gate-check witnesses.  The copies share their qubit cells, whose boxes
    are read from the complex of the first copy that has one."""
    cx = next(code.source for code in align.codes if code.source is not None)
    near: set[str] = set()
    grown = [np.array(h.box) + [-2, 2] for h in cx.holes]
    for copy, code in enumerate(align.codes):
        boxes = cx.cells[code.grading][code.qubit_cells]
        rows, cols = code.x_checks.owners(), code.x_checks.idx
        for g in grown:
            meets = (np.maximum(boxes[..., 0], g[:, 0]) <= np.minimum(boxes[..., 1], g[:, 1]))
            hit = np.bincount(rows[meets.all(axis=1)[cols]])
            near.update(f"{copy}:X{r}" for r in np.flatnonzero(hit).tolist())
    return near


# -- phase polynomials ---------------------------------------------------------

Coord = tuple[int, int]  # (site, copy)


@dataclass(frozen=True)
class PhasePolyOperator:
    """X part times a diagonal phase polynomial (linear Z, quadratic CZ)."""

    x_support: frozenset[Coord]
    linear_z: frozenset[Coord] = frozenset()
    quadratic_cz: frozenset[frozenset[Coord]] = frozenset()
    cz_identity: bool | None = None  # set when the stack's logicals are known

    def diagonal_conjugated_by_x(self, x_support: frozenset[Coord]):
        """Conjugate the diagonal part by X on `x_support`: returns the
        leftover (sign, linear-Z set) relative to the original diagonal."""
        sign = len(self.linear_z & x_support) & 1
        linear: set[Coord] = set()
        for pair in self.quadratic_cz:
            u, v = tuple(pair)
            if v in x_support:
                linear ^= {u}
            if u in x_support:
                linear ^= {v}
            if u in x_support and v in x_support:
                sign ^= 1
        return sign, frozenset(linear)


def conjugate_by_ccz(
    s: PauliOperator, copy: int, align: StackAlignment
) -> PhasePolyOperator:
    """Transform one CSS stabilizer of an aligned 3-copy stack under the
    transversal CCZ.

    X-type input on copy a maps to itself times one CZ per support site
    coupling the other two copies; Z-type input is diagonal and returns
    unchanged.  Mixed input is rejected.
    """
    if len(align.codes) != 3:
        raise ValueError("CCZ conjugation needs a 3-copy alignment")
    if not s.is_x_type() and not s.is_z_type():
        raise ValueError("mixed X/Z operators do not arise for CSS stabilizers")
    others = tuple(t for t in range(3) if t != copy)
    if s.is_z_type():
        sites = align.sites_of(copy, s.z_support)
        return PhasePolyOperator(frozenset(), frozenset((t, copy) for t in sites))
    sites = align.sites_of(copy, s.x_support)
    quad = frozenset(frozenset(((t, others[0]), (t, others[1]))) for t in sites)
    flag = _cz_part_is_identity(sites, others, align)
    return PhasePolyOperator(frozenset((t, copy) for t in sites), frozenset(), quad, flag)


def _cz_part_is_identity(
    sites: frozenset[int], copies: tuple[int, int], align: StackAlignment
) -> bool:
    """The CZ brane on `sites` is a logical identity iff every stabilizer or
    logical of one target copy meets every one of the other evenly on it:
    the rule for p = 1 on their rows cut to `sites`, a logical counted as
    one more stabilizer row."""
    on = np.bincount(list(sites), minlength=align.n_sites) > 0
    rows = [(align._rows(t, basis=False)[0], None) for t in copies]
    return not any(len(p) for _, p in _parity_failures(rows, on))


def phase_polys_commute(o1: PhasePolyOperator, o2: PhasePolyOperator) -> bool:
    """Symbolic commutation of two phase-polynomial operators.

    Both products carry the same X part; they agree iff conjugating each
    diagonal by the other's X part leaves identical sign and linear-Z
    corrections.
    """
    d1 = o1.diagonal_conjugated_by_x(o2.x_support)
    d2 = o2.diagonal_conjugated_by_x(o1.x_support)
    return d1 == d2


# -- lattice merge -------------------------------------------------------------


@dataclass(frozen=True)
class MergeResult:
    merged: CssCode
    k_merged: int
    parity_identity: bool
    interface_x_rows: tuple[int, ...]


def merge_rough(a: CssCode, b: CssCode) -> MergeResult:
    """Merge two code blocks along facing rough boundaries.

    Block `a` sits on top: its lower e-patch is identified with `b`'s upper
    e-patch and the identified plane returns to the bulk, so its vertices
    anchor fresh interface X stabilizers and its in-plane cells become the
    fresh interface qubits completing the old truncated Z checks.  The
    merged block encodes k(a) + k(b) - 1 and the product of the new
    interface X stabilizers equals X̄_a X̄_b up to old stabilizers, by the
    chain reduction of the old X checks (no dense check matrix is built).
    X̄ of a block is its logical X across the interface patch (`_across`).
    """
    if a is b:
        raise ValueError("cannot merge a code block with itself (empty interface)")
    ca, cb = a.source, b.source
    if ca.dim != cb.dim or a.grading != b.grading:
        raise ValueError("interface mismatch: incompatible blocks")
    axis_a = _rough_axis(ca)
    axis_b = _rough_axis(cb)
    if axis_a != axis_b:
        raise ValueError("interface mismatch: rough axes differ")
    axis = axis_a
    height_b = int(cb.cells[0][:, axis, 1].max())
    lift = np.zeros((ca.dim, 2), dtype=np.int64)
    lift[axis] = height_b  # block a's shift onto block b

    def plane(cx: CellComplex, k: int, h: int) -> np.ndarray:  # the cells, ordered by box
        at = np.flatnonzero((cx.cells[k][:, axis] == h).all(axis=1))
        return at[np.lexsort(cx.cells[k][at].reshape(len(at), 2 * cx.dim).T)]

    # the lift moves all of a's patch by one offset and keeps its order, so
    # the patches are congruent iff they agree cell by cell
    grades = range(ca.dim + 1)
    patch_a = [plane(ca, k, 0) for k in grades]
    patch_b = [plane(cb, k, height_b) for k in grades]
    if not any(map(len, patch_b)) or not all(np.array_equal(
            ca.cells[k][patch_a[k]] + lift, cb.cells[k][patch_b[k]]) for k in grades):
        raise ValueError("interface mismatch: rough patches are not congruent")

    # b's cells keep their indices and labels (the interface plane returns
    # to the bulk); a's cells off the plane follow, lifted, with their hole
    # labels shifted past b's; a's plane cells are b's
    hole_shift = max((h.hole_id for h in cb.holes), default=-1) + 1
    shifted = [_shift_hole_label(name, hole_shift) for name in ca.label_names]
    names = list(cb.label_names)
    names += [name for name in dict.fromkeys(shifted) if name not in names]
    code_a = np.array([names.index(name) for name in shifted], dtype=np.int64)
    cells, labels, faces, into = [], [], [], []
    for k in grades:
        keep_a = np.bincount(patch_a[k], minlength=ca.n_cells(k)) == 0
        target = np.cumsum(keep_a) - 1 + cb.n_cells(k)
        target[patch_a[k]] = patch_b[k]
        into.append(target)
        cells.append(np.concatenate([cb.cells[k], ca.cells[k][keep_a] + lift]))
        labels.append(np.concatenate([cb.labels[k], code_a[ca.labels[k][keep_a]]]))
        labels[k][patch_b[k]] = 0
        if k == 0:
            faces.append(Faces.empty(len(cells[0])))
            continue
        fb, fa = cb.faces[k], ca.faces[k]
        own = fa.owners()
        sel = keep_a[own]
        faces.append(Faces.from_pairs(
            len(cells[k]), np.concatenate([fb.owners(), target[own[sel]]]),
            np.concatenate([fb.idx, into[k - 1][fa.idx[sel]]]),
        ))
    merged_cx = CellComplex(
        ca.dim, cells, labels, names, faces, "open", ca.style, ca.periods,
        cb.holes + [Hole(h.hole_id + hole_shift, tuple(map(tuple, (h.box + lift).tolist())),
                         h.kind, h.level) for h in ca.holes],
    )
    merged = css_from_complex(merged_cx, a.grading)

    anchors = merged_cx.cells[a.grading - 1][merged.x_anchor_cells, axis]
    interface_rows = np.flatnonzero((anchors == height_b).all(axis=1))
    k_merged = code_params(merged).k

    # the qubits of the blocks' logical X in the merged code: a's cells map
    # through `into`, b's keep their indices
    cells_a = into[a.grading][a.qubit_cells[_across(a, patch_a[a.grading - 1])]]
    cells_b = b.qubit_cells[_across(b, patch_b[b.grading - 1])]
    logical = np.searchsorted(merged.qubit_cells, np.concatenate([cells_a, cells_b]))
    hits = np.concatenate([merged.x_checks.take(interface_rows), logical])
    total = Gf2Vector.from_dense(np.bincount(hits, minlength=merged.n_qubits) & 1)
    parity_ok = _old_x_stabilizer(merged, interface_rows, total)
    return MergeResult(merged, k_merged, parity_ok, tuple(interface_rows.tolist()))


def _across(code: CssCode, patch: np.ndarray) -> list[int]:
    """The qubits of the block's logical X across its rough patch (the
    (i-1)-cells `patch`): sum_j <c, z_j> x_j over its basis, c the qubits with
    an odd number of faces on the patch, so <c, z> counts z's ends there."""
    zs, xs = logical_basis(code)
    if not xs:
        raise ValueError("merge needs one logical-X representative per block")
    on_patch = np.zeros(code.source.n_cells(code.grading - 1), dtype=np.uint8)
    on_patch[patch] = 1
    c = Gf2Vector.from_dense(code.source.faces[code.grading].parity(on_patch)[code.qubit_cells])
    total = Gf2Vector(code.n_qubits)
    for z, x in zip(zs, xs):
        if c.dot(z.z_support):
            total ^= x.x_support
    return total.indices()


def _old_x_stabilizer(merged: CssCode, interface_rows, x: Gf2Vector) -> bool:
    """Whether x is a product of the merged code's non-interface X checks:
    never with a syndrome, else as their chain reduction says."""
    old = np.bincount(interface_rows, minlength=len(merged.x_checks)) == 0
    x_checks = merged.x_checks.restrict(old, np.ones(merged.n_qubits, dtype=bool))
    return (_syndrome_free(merged.z_checks, x)
            and _ChainReduction(x_checks, merged.z_checks, merged.n_qubits).is_x_stabilizer(x))


def _rough_axis(cx: CellComplex) -> int:
    axes = {int(lb[2:]) // 2 for lb in cx.labels_present() if lb.startswith("oE")}
    if len(axes) != 1:
        raise ValueError("merge expects exactly one rough axis per block")
    return axes.pop()


def _shift_hole_label(label: str, shift: int) -> str:
    if label.startswith("hE") or label.startswith("hM"):
        return label[:2] + str(int(label[2:]) + shift)
    return label
