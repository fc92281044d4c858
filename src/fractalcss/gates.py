"""Transversal-gate condition checks and the lattice-merge algebra.

The CZ/CCZ checks are pure intersection-parity tests over aligned code
blocks: every pair (triple) built from X stabilizers must overlap on an
even number of sites, pairs (triples) mixing stabilizers with logical-X
representatives must be even, and the all-logical pair (triple) must be
odd.  Failures always carry a witness.  The stabilizers and logicals are
packed site sets (bit-packed rows), and a pair or triple is tested by the
popcount parity of its AND, whole arrays of pairs at a time.

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
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .code import (
    CssCode, PauliOperator, _ChainReduction, _syndrome_free, code_params, css_from_complex,
    logical_basis,
)
from .complexes import CellComplex, Faces, Hole, code_lattice
from .gf2 import _CHUNK_WORDS, Gf2Vector, _popcount


class CertificateError(AssertionError):
    """A constructed logical operator failed its certificate."""


# -- alignment ----------------------------------------------------------------


@dataclass
class StackAlignment:
    """Aligned code blocks sharing one transversal site per qubit."""

    codes: list[CssCode]
    n_sites: int
    qubit_site: list[list[int]]  # per code: site index for each qubit
    x_logicals: list[PauliOperator] = field(default_factory=list)

    def __post_init__(self):
        for code, sites in zip(self.codes, self.qubit_site):
            if code.n_qubits != len(sites):
                raise ValueError("alignment size mismatch")
            if len(set(sites)) != len(sites):
                raise ValueError("alignment must be injective per code")

    @cached_property
    def x_rows(self) -> list[np.ndarray]:
        """Per copy, its X stabilizers as packed site sets, one row each,
        then its logical X of `x_logicals` when it has one; built once."""
        rows = []
        for copy in range(len(self.codes)):
            x = self.x_logicals[copy] if copy < len(self.x_logicals) else None
            logical = [] if x is None else [_site_row(self, copy, x.x_support)]
            rows.append(np.vstack([_stab_rows(self, copy), *logical]))
        return rows

    def stab_rows(self, copy: int) -> np.ndarray:
        """The X stabilizers of one copy as packed site sets."""
        return self.x_rows[copy][: len(self.codes[copy].x_checks)]

    def sites_of(self, copy: int, support: Gf2Vector) -> frozenset[int]:
        mapping = self.qubit_site[copy]
        return frozenset(mapping[q] for q in support.indices())


def align_identical(codes: list[CssCode], x_logicals=None) -> StackAlignment:
    """Alignment for codes living on the same qubit set (site = qubit index)."""
    n = codes[0].n_qubits
    if any(c.n_qubits != n for c in codes):
        raise ValueError(f"codes of {[c.n_qubits for c in codes]} qubits cannot share sites")
    return StackAlignment(
        codes, n, [list(range(n)) for _ in codes], list(x_logicals or [])
    )


def align_by_boxes(codes: list[CssCode]) -> StackAlignment:
    """Align codes whose qubit cells occupy the same geometric midpoints."""
    site_index: dict[tuple, int] = {}
    qubit_site: list[list[int]] = []
    for code in codes:
        mids = code.source.cells[code.grading][code.qubit_cells].sum(axis=2)  # doubled
        qubit_site.append(
            [site_index.setdefault(mid, len(site_index)) for mid in map(tuple, mids.tolist())]
        )
    counts = {len(s) for s in qubit_site}
    if len(counts) != 1 or len(site_index) != counts.pop():
        raise ValueError("codes do not share a common site set")
    return StackAlignment(codes, len(site_index), qubit_site)


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
                parts = " ".join(f"{k}={v}" for k, v in zip("abc", w[:-1]))
                line += f" [witness: {parts} parity={w[-1]}]"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _site_row(align: StackAlignment, copy: int, support: Gf2Vector) -> np.ndarray:
    """A support of one copy as a packed set of sites."""
    sites = np.asarray(align.qubit_site[copy], dtype=np.int64)[support.indices()]
    return Gf2Vector.from_indices(align.n_sites, sites).data


def _stab_rows(align: StackAlignment, copy: int) -> np.ndarray:
    """The X stabilizers of one copy as packed site sets, one row each."""
    checks = align.codes[copy].x_checks
    sites = np.asarray(align.qubit_site[copy], dtype=np.int64)[checks.idx]
    return Faces(checks.ptr, sites).matrix(align.n_sites).data


def _logical_row(align: StackAlignment, copy: int) -> np.ndarray | None:
    """The copy's logical X as packed sites: the alignment's, else the one
    of its logical basis when k = 1; None when k = 0.  With k > 1 the basis
    names no particular class, so a copy without the alignment's logical
    raises ValueError."""
    x = align.x_logicals[copy] if copy < len(align.x_logicals) else None
    if x is None:
        xs = logical_basis(align.codes[copy])[1]
        if len(xs) > 1:
            raise ValueError(f"copy {copy} has k = {len(xs)} and no logical X in the "
                             "alignment to test")
        if not xs:
            return None
        x = xs[0]
    return _site_row(align, copy, x.x_support)


def _meeting(a: np.ndarray, b: np.ndarray, odd: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of packed rows a[i], b[j] that share an odd number
    of sites (with `odd` False: any site), in row-major order.  Rows of a
    are taken in chunks, so at most _CHUNK_WORDS words are ANDed at once."""
    step = max(1, _CHUNK_WORDS // max(1, b.size))
    out_i, out_j = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for s in range(0, len(a), step):
        meet = a[s : s + step, None, :] & b
        if odd:
            i, j = np.nonzero(np.bitwise_count(np.bitwise_xor.reduce(meet, axis=2)) & 1)
        else:
            i, j = np.nonzero(meet.any(axis=2))
        out_i.append(i + s)
        out_j.append(j)
    return np.concatenate(out_i), np.concatenate(out_j)


def check_transversal_cz(
    a: CssCode, b: CssCode, align: StackAlignment
) -> GateCheckReport:
    """Intersection-parity conditions for a transversal CZ between two
    aligned blocks: stabilizer pairs even, stabilizer/logical pairs even,
    logical/logical odd."""
    ia, ib = align.codes.index(a), align.codes.index(b)
    stabs = {copy: align.stab_rows(copy) for copy in (ia, ib)}
    logicals = {copy: _logical_row(align, copy) for copy in {ia, ib}}

    conds = []
    si, sj = _meeting(stabs[ia], stabs[ib])
    bad = [(f"X{i}", f"X{j}", 1) for i, j in zip(si[:8].tolist(), sj[:8].tolist())]
    conds.append(ConditionResult("CZ1-stab-stab", not bad, tuple(bad)))

    bad = []
    for src, dst in ((ia, ib), (ib, ia)):
        if logicals[dst] is not None:
            bad += [(f"copy{src}:X{i}", f"copy{dst}:Xbar", 1)
                    for i in _meeting(stabs[src], logicals[dst][None])[0].tolist()]
    conds.append(ConditionResult("CZ1-stab-logical", not bad, tuple(bad[:8])))

    if logicals[ia] is None or logicals[ib] is None:
        conds.append(
            ConditionResult("CZ2-logical-logical", True, (), "not applicable: k = 0")
        )
    else:
        p = _popcount(logicals[ia] & logicals[ib]) & 1
        conds.append(
            ConditionResult(
                "CZ2-logical-logical", p == 1, () if p == 1 else (("Xbar", "Xbar", p),)
            )
        )
    return GateCheckReport(tuple(conds))


def check_transversal_ccz(
    a: CssCode, b: CssCode, c: CssCode, align: StackAlignment
) -> GateCheckReport:
    """Triple intersection-parity conditions for a transversal CCZ.

    Each copy's stabilizers and logical are packed site sets; a pair or
    triple is tested by the parity of the popcount of its AND."""
    idx = [align.codes.index(x) for x in (a, b, c)]
    stabs = [align.stab_rows(i) for i in idx]
    logicals = [_logical_row(align, i) for i in idx]
    bars = [f"{i}:Xbar" for i in idx]

    conds = []
    si, sj = _meeting(stabs[0], stabs[1], odd=False)
    pair, sk = _meeting(stabs[0][si] & stabs[1][sj], stabs[2])
    bad = [(f"{idx[0]}:X{si[p]}", f"{idx[1]}:X{sj[p]}", f"{idx[2]}:X{k}", 1)
           for p, k in zip(pair.tolist(), sk.tolist())]
    conds.append(ConditionResult("CCZ1-stab-stab-stab", not bad, tuple(bad)))

    bad = []
    for which in range(3):
        if logicals[which] is None:
            continue
        o0, o1 = [t for t in range(3) if t != which]
        si, sj = _meeting(stabs[o0] & logicals[which], stabs[o1])
        bad += [(f"{idx[o0]}:X{i}", f"{idx[o1]}:X{j}", bars[which], 1)
                for i, j in zip(si.tolist(), sj.tolist())]
    conds.append(ConditionResult("CCZ1-stab-stab-logical", not bad, tuple(bad)))

    bad = []
    for which in range(3):
        o0, o1 = [t for t in range(3) if t != which]
        if logicals[o0] is None or logicals[o1] is None:
            continue
        bad += [(f"{idx[which]}:X{i}", bars[o0], bars[o1], 1)
                for i in _meeting(stabs[which], (logicals[o0] & logicals[o1])[None])[0].tolist()]
    conds.append(ConditionResult("CCZ1-stab-logical-logical", not bad, tuple(bad)))

    if any(l is None for l in logicals):
        conds.append(
            ConditionResult("CCZ2-logical-triple", True, (), "not applicable: k = 0")
        )
    else:
        p = _popcount(logicals[0] & logicals[1] & logicals[2]) & 1
        conds.append(
            ConditionResult(
                "CCZ2-logical-triple", p == 1,
                () if p == 1 else (("Xbar1", "Xbar2", "Xbar3", p),),
            )
        )
    return GateCheckReport(tuple(conds))


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
            qubit_cells=list(copy1.qubit_cells),
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
            near.update(f"{copy}:X{r}" for r in np.unique(rows[meets.all(axis=1)[cols]]).tolist())
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
        sign = 0
        linear: set[Coord] = set()
        for pair in self.quadratic_cz:
            u, v = tuple(pair)
            if v in x_support:
                linear ^= {u}
            if u in x_support:
                linear ^= {v}
            if u in x_support and v in x_support:
                sign ^= 1
        for u in self.linear_z:
            if u in x_support:
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
    quad = frozenset(
        frozenset(((t, others[0]), (t, others[1]))) for t in sites
    )
    flag = _cz_part_is_identity(sites, others, align)
    return PhasePolyOperator(frozenset((t, copy) for t in sites), frozenset(), quad, flag)


def _cz_part_is_identity(
    sites: frozenset[int], copies: tuple[int, int], align: StackAlignment
) -> bool:
    """Parity test restricted to `sites`: the CZ brane is a logical identity
    iff every stabilizer/logical pair of the two target copies meets it
    evenly."""
    cut = Gf2Vector.from_indices(align.n_sites, sites).data
    return not _meeting(align.x_rows[copies[0]] & cut, align.x_rows[copies[1]])[0].size


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
    cells_a = into[a.grading][np.asarray(a.qubit_cells)[_across(a, patch_a[a.grading - 1])]]
    cells_b = np.asarray(b.qubit_cells)[_across(b, patch_b[b.grading - 1])]
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
    on_patch = np.isin(np.arange(code.source.n_cells(code.grading - 1)), patch).astype(np.uint8)
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
