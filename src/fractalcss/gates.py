"""Transversal-gate condition checks and the lattice-merge algebra.

The CZ/CCZ checks are pure intersection-parity tests over aligned code
blocks: every pair (triple) built from X stabilizers must overlap on an
even number of sites, pairs (triples) mixing stabilizers with logical-X
representatives must be even, and the all-logical pair (triple) must be
odd.  Failures always carry a witness.

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

from dataclasses import dataclass, field

from .code import (
    CssCode, PauliOperator, _rows_matrix, css_from_complex, is_x_logical, logical_basis,
)
from .complexes import (
    Box, CellComplex, Hole, _faces_of_box, _mod2, code_lattice, punch_holes,
)
from .gf2 import Gf2Matrix, Gf2Vector, in_rowspace


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

    def sites_of(self, copy: int, support: Gf2Vector) -> frozenset[int]:
        mapping = self.qubit_site[copy]
        return frozenset(mapping[q] for q in support.indices())

    def x_stab_sites(self, copy: int) -> list[frozenset[int]]:
        code = self.codes[copy]
        return [
            self.sites_of(copy, code.hx.row(r)) for r in range(code.hx.rows)
        ]

    def logical_sites(self, copy: int) -> frozenset[int] | None:
        if copy < len(self.x_logicals) and self.x_logicals[copy] is not None:
            return self.sites_of(copy, self.x_logicals[copy].x_support)
        return None


def align_identical(codes: list[CssCode], x_logicals=None) -> StackAlignment:
    """Alignment for codes living on the same qubit set (site = qubit index)."""
    n = codes[0].n_qubits
    for c in codes:
        assert c.n_qubits == n
    return StackAlignment(
        codes, n, [list(range(n)) for _ in codes], list(x_logicals or [])
    )


def align_by_boxes(codes: list[CssCode], x_logicals=None) -> StackAlignment:
    """Align codes whose qubit cells occupy the same geometric midpoints."""
    site_index: dict[tuple, int] = {}
    qubit_site: list[list[int]] = []
    for code in codes:
        sites = []
        for q in range(code.n_qubits):
            box = code.qubit_box(q)
            mid = tuple(lo + hi for lo, hi in box)  # doubled midpoint
            if mid not in site_index:
                site_index[mid] = len(site_index)
            sites.append(site_index[mid])
        qubit_site.append(sites)
    counts = {len(s) for s in qubit_site}
    if len(counts) != 1 or len(site_index) != counts.pop():
        raise ValueError("codes do not share a common site set")
    return StackAlignment(codes, len(site_index), qubit_site, list(x_logicals or []))


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


def _parity(*site_sets: frozenset[int]) -> int:
    inter = site_sets[0]
    for s in site_sets[1:]:
        inter = inter & s
    return len(inter) & 1


def check_transversal_cz(
    a: CssCode, b: CssCode, align: StackAlignment
) -> GateCheckReport:
    """Intersection-parity conditions for a transversal CZ between two
    aligned blocks: stabilizer pairs even, stabilizer/logical pairs even,
    logical/logical odd."""
    ia, ib = align.codes.index(a), align.codes.index(b)
    stabs = {ia: align.x_stab_sites(ia), ib: align.x_stab_sites(ib)}
    logicals = {ia: align.logical_sites(ia), ib: align.logical_sites(ib)}
    for copy in (ia, ib):
        if logicals[copy] is None:
            zs, xs = logical_basis(align.codes[copy])
            logicals[copy] = (
                align.sites_of(copy, xs[0].x_support) if xs else None
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
    """Triple intersection-parity conditions for a transversal CCZ."""
    idx = [align.codes.index(x) for x in (a, b, c)]
    stabs = [align.x_stab_sites(i) for i in idx]
    logicals = []
    for i in idx:
        ls = align.logical_sites(i)
        if ls is None:
            zs, xs = logical_basis(align.codes[i])
            ls = align.sites_of(i, xs[0].x_support) if xs else None
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


# -- the three-copy stack ------------------------------------------------------


def _cube_edges(jx: int, jy: int, k: int) -> list[Box]:
    """The 12 edge boxes of the cube with x-window [2jx-1, 2jx+1],
    y-window [2jy-1, 2jy+1], z-window [2k, 2k+2] (doubled coordinates)."""
    xs = (2 * jx - 1, 2 * jx + 1)
    ys = (2 * jy - 1, 2 * jy + 1)
    zw = (2 * k, 2 * k + 2)
    out: list[Box] = []
    for x in xs:
        for y in ys:
            out.append(((x, x), (y, y), zw))
    for y in ys:
        for z in zw:
            out.append(((2 * jx - 1, 2 * jx + 1), (y, y), (z, z)))
    for x in xs:
        for z in zw:
            out.append(((x, x), (2 * jy - 1, 2 * jy + 1), (z, z)))
    return out


def _corner_triple(jx: int, jy: int, k: int, cx_: int, cy: int, cz: int) -> list[Box]:
    """The 3 edges of cube (jx, jy, k) meeting at corner (cx_, cy, cz)."""
    return [
        ((2 * jx - 1, 2 * jx + 1), (cy, cy), (cz, cz)),
        ((cx_, cx_), (2 * jy - 1, 2 * jy + 1), (cz, cz)),
        ((cx_, cx_), (cy, cy), (2 * k, 2 * k + 2)),
    ]


def build_vasmer_browne_stack(
    L: int, holes: str | list[Hole] | None = None
) -> tuple[list[CssCode], StackAlignment]:
    """Three aligned 3D codes on a shared cubic qubit set.

    Copy 1: standard surface code, e-boundaries perpendicular to z.
    Copy 2: X stabilizers on even cubes (rough along x), Z stabilizers on
            odd-cube corner triangles.
    Copy 3: the same with the parity classes and x/y roles swapped.
    The returned alignment carries one logical-X brane per copy, pairwise
    perpendicular.
    """
    if L < 2:
        raise ValueError("stack needs L >= 2")
    cx = code_lattice(3, L, e_axes=(2,))
    if holes == "center":
        mid = L // 2
        holes = [Hole(0, tuple((2 * mid, 2 * mid + 2) for _ in range(3)), "m", 0)]
    if holes:
        cx = punch_holes(cx, list(holes))
    copy1 = css_from_complex(cx, 1)
    qubit_of_box = {cx.cells[1][cell].box: q for q, cell in enumerate(copy1.qubit_cells)}
    n = copy1.n_qubits

    def build_cube_code(x_parity: int, rough_axis: int) -> CssCode:
        x_rows, z_rows = [], []
        for jx in range(0, L + 1):
            for jy in range(0, L + 1):
                for k in range(0, L):
                    if rough_axis == 0 and not 1 <= jx <= L - 1:
                        continue
                    if rough_axis == 1 and not 1 <= jy <= L - 1:
                        continue
                    parity = (jx + jy + k) % 2
                    boxes = _cube_edges(jx, jy, k)
                    if parity == x_parity:
                        support = [qubit_of_box[b] for b in boxes if b in qubit_of_box]
                        if support:
                            x_rows.append(sorted(support))
                    else:
                        for cxc in (2 * jx - 1, 2 * jx + 1):
                            for cyc in (2 * jy - 1, 2 * jy + 1):
                                for czc in (2 * k, 2 * k + 2):
                                    tri = _corner_triple(jx, jy, k, cxc, cyc, czc)
                                    if all(b in qubit_of_box for b in tri):
                                        z_rows.append(
                                            sorted(qubit_of_box[b] for b in tri)
                                        )
        return CssCode(
            n_qubits=n, hx=_rows_matrix(n, x_rows), hz=_rows_matrix(n, z_rows), grading=1,
            qubit_cells=list(copy1.qubit_cells),
            x_anchor_cells=[], z_anchor_cells=[], source=cx,
            check_homology_by_labels=False,
        )

    copy2 = build_cube_code(x_parity=0, rough_axis=0)
    copy3 = build_cube_code(x_parity=1, rough_axis=1)

    # logical branes, pairwise perpendicular: z-layer for copy 1, planes
    # x = 1 and y = 1 (doubled odd coordinates) for copies 2 and 3
    def sup(boxes: list[Box]) -> Gf2Vector:
        return Gf2Vector.from_indices(
            n, sorted(qubit_of_box[b] for b in boxes if b in qubit_of_box)
        )

    brane1 = sup(
        [((2 * i + 1, 2 * i + 1), (2 * j + 1, 2 * j + 1), (0, 2))
         for i in range(L) for j in range(L)]
    )
    brane2 = sup(
        [((1, 1), (2 * j + 1, 2 * j + 1), (2 * k, 2 * k + 2))
         for j in range(L) for k in range(L)]
        + [((1, 1), (2 * j - 1, 2 * j + 1), (2 * k, 2 * k))
           for j in range(1, L) for k in range(1, L)]
    )
    brane3 = sup(
        [((2 * i + 1, 2 * i + 1), (1, 1), (2 * k, 2 * k + 2))
         for i in range(L) for k in range(L)]
        + [((2 * i - 1, 2 * i + 1), (1, 1), (2 * k, 2 * k))
           for i in range(1, L) for k in range(1, L)]
    )
    codes = [copy1, copy2, copy3]
    branes = [brane1, brane2, brane3]
    for code, brane in zip(codes, branes):
        assert is_x_logical(code, brane), "constructed brane is not a logical"
    logicals = [PauliOperator.x_type(b) for b in branes]
    return codes, align_identical(codes, logicals)


def stabilizer_tags_near_holes(align: StackAlignment) -> set[str]:
    """Tags "copy:Xrow" of X stabilizers whose support touches the closed
    star of some hole: the hole-boundary stabilizers.  Used to classify
    gate-check witnesses."""
    holes = align.codes[0].source.holes
    near: set[str] = set()
    for copy, code in enumerate(align.codes):
        cx = code.source
        for r in range(code.hx.rows):
            boxes = [cx.cells[code.grading][code.qubit_cells[q]].box
                     for q in code.hx.row_indices(r)]
            for h in holes:
                grown = tuple((lo - 2, hi + 2) for lo, hi in h.box)
                if any(
                    all(max(lo, a) <= min(hi, b) for (lo, hi), (a, b) in zip(box, grown))
                    for box in boxes
                ):
                    near.add(f"{copy}:X{r}")
                    break
    return near


# -- phase polynomials ---------------------------------------------------------

Coord = tuple[int, int]  # (site, copy)


@dataclass(frozen=True)
class PhasePolyOperator:
    """X part times a diagonal phase polynomial (linear Z, quadratic CZ)."""

    x_support: frozenset[Coord]
    linear_z: frozenset[Coord] = frozenset()
    quadratic_cz: frozenset[frozenset[Coord]] = frozenset()
    sign: int = 1
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
        return PhasePolyOperator(
            frozenset(), frozenset((t, copy) for t in sites), frozenset(), 1
        )
    sites = align.sites_of(copy, s.x_support)
    quad = frozenset(
        frozenset(((t, others[0]), (t, others[1]))) for t in sites
    )
    flag = _cz_part_is_identity(sites, others, align)
    return PhasePolyOperator(
        frozenset((t, copy) for t in sites), frozenset(), quad, 1, flag
    )


def _cz_part_is_identity(
    sites: frozenset[int], copies: tuple[int, int], align: StackAlignment
) -> bool:
    """Parity test restricted to `sites`: the CZ brane is a logical identity
    iff every stabilizer/logical pair of the two target copies meets it
    evenly."""
    b, c = copies
    stabs_b = align.x_stab_sites(b)
    stabs_c = align.x_stab_sites(c)
    lb = align.logical_sites(b)
    lc = align.logical_sites(c)
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
    interface X stabilizers equals X̄_a X̄_b up to old stabilizers.
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
    height_b = max(hi for c in cb.cells[0] for (lo, hi) in [c.box[axis]])

    def shift_a(box: Box) -> Box:
        return tuple(
            (lo + height_b, hi + height_b) if d == axis else (lo, hi)
            for d, (lo, hi) in enumerate(box)
        )

    patch_a = {shift_a(c.box) for grade in ca.cells for c in grade
               if c.box[axis] == (0, 0)}
    patch_b = {c.box for grade in cb.cells for c in grade
               if c.box[axis] == (height_b, height_b)}
    if not patch_a or patch_a != patch_b:
        raise ValueError("interface mismatch: rough patches are not congruent")

    dim = ca.dim
    cells = []
    hole_shift = max((h.hole_id for h in cb.holes), default=-1) + 1
    for k in range(dim + 1):
        grade = []
        for c in cb.cells[k]:
            label = "bulk" if c.box in patch_b else _shift_hole_label(c.label, 0)
            grade.append(type(c)(c.box, label))
        for c in ca.cells[k]:
            box = shift_a(c.box)
            if box in patch_a:
                continue
            grade.append(type(c)(box, _shift_hole_label(c.label, hole_shift)))
        cells.append(grade)
    faces = [[()] * len(cells[0])]
    for k in range(1, dim + 1):
        below = {c.box: i for i, c in enumerate(cells[k - 1])}
        faces.append([
            _mod2(below[fb] for fb in _faces_of_box(c.box, ca.periods) if fb in below)
            for c in cells[k]
        ])
    merged_cx = CellComplex(
        dim, cells, faces, "open", ca.style, ca.periods,
        cb.holes + [Hole(h.hole_id + hole_shift, shift_a(h.box), h.kind, h.level)
                    for h in ca.holes],
    )
    merged = css_from_complex(merged_cx, a.grading)

    interface_rows = tuple(
        r for r, cell in enumerate(merged.x_anchor_cells)
        if merged_cx.cells[a.grading - 1][cell].box[axis] == (height_b, height_b)
    )
    from .code import code_params

    k_merged = code_params(merged).k

    # embed the old logical-X representatives and old X stabilizers
    qpos = {merged_cx.cells[a.grading][cell].box: q
            for q, cell in enumerate(merged.qubit_cells)}

    def embed(code: CssCode, cxc: CellComplex, vec: Gf2Vector, shift) -> Gf2Vector:
        out = Gf2Vector(merged.n_qubits)
        for q in vec.indices():
            box = cxc.cells[code.grading][code.qubit_cells[q]].box
            out.set(qpos[shift(box)], 1)
        return out

    _, xs_a = logical_basis(a)
    _, xs_b = logical_basis(b)
    if not xs_a or not xs_b:
        raise ValueError("merge needs one logical-X representative per block")
    xa = embed(a, ca, xs_a[0].x_support, shift_a)
    xb = embed(b, cb, xs_b[0].x_support, lambda box: box)

    total = Gf2Vector(merged.n_qubits)
    for r in interface_rows:
        total ^= merged.hx.row(r)
    total ^= xa
    total ^= xb
    old_rows = [r for r in range(merged.hx.rows) if r not in set(interface_rows)]
    old_hx = merged.hx.submatrix(old_rows, range(merged.hx.cols))
    rref, pivots = old_hx.rref()
    parity_ok = in_rowspace(rref, pivots, total)
    return MergeResult(merged, k_merged, parity_ok, interface_rows)


def _rough_axis(cx: CellComplex) -> int:
    axes = {int(lb[2:]) // 2 for lb in cx.labels_present() if lb.startswith("oE")}
    if len(axes) != 1:
        raise ValueError("merge expects exactly one rough axis per block")
    return axes.pop()


def _shift_hole_label(label: str, shift: int) -> str:
    if label.startswith("hE") or label.startswith("hM"):
        return label[:2] + str(int(label[2:]) + shift)
    return label
