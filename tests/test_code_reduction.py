"""k and the logical tests from the reduced chain complex of a code.

`CssCode.reduction` reduces the chain complex Z checks -> qubits -> X
checks once.  k is dim H_1 of the residue, and a Z-cycle (X-cocycle) is a
product of Z (X) checks iff its image in the residue lies in the row space
of the residue's H_Z (H_X).  The oracle is the dense route this replaced:
k = n minus the pivot counts of `code.hx.rref()` and `code.hz.rref()`, and
membership by `in_rowspace` on those RREFs of the whole check matrices.
"""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcss.code import (
    CssCode, css_from_complex, is_x_logical, is_z_logical, logical_basis,
)
from fractalcss.colorcode import build_color_code_2d, shrunk_lattices
from fractalcss.complexes import (
    FractalSpec,
    build_lattice,
    code_lattice,
    fractal_complex,
    punch_box,
    punch_holes,
)
from fractalcss.gates import build_vasmer_browne_stack
from fractalcss.gf2 import Gf2Matrix, Gf2Vector, _kernel_rows, in_rowspace
from code_oracles import check_matrices, checks_of, dense_syndrome
from test_arrays import seeded_layout
from test_text_fuzz import punched


def _fc(n, p, q, level, holes):
    return css_from_complex(fractal_complex(FractalSpec(n, p, q, level, holes=holes), "code"), 1)


def _mixed(p, q, level):
    """Every third hole an e-hole, the rest m-holes."""
    cx = fractal_complex(FractalSpec(3, p, q, level, holes="m"), "code")
    holes = {h.hole_id: "e" if h.hole_id % 3 == 1 else "m" for h in cx.holes}
    return _fc(3, p, q, level, holes)


def _layout_codes(seed):
    """The codes of a seeded mixed layout at every grading (its unpunched
    lattice when the punch rejects the layout)."""
    cx, holes, _ = seeded_layout(seed)
    try:
        cx = punch_holes(cx, holes)
    except ValueError:
        pass
    return [css_from_complex(cx, i) for i in range(1, cx.dim)]


def _stack(L, holes):
    return build_vasmer_browne_stack(L, holes)[0]


def _torus4(i, kind=None):
    cx = build_lattice(4, 2, "torus")
    if kind:
        cx = punch_box(cx, (0, 0, 0, 0), 1, kind)
    return [css_from_complex(cx, i)]


def _color(L):
    cc = build_color_code_2d(L)
    return [cc.code] + [css_from_complex(lat, 1) for lat in shrunk_lattices(cc)]


CODES = {
    **{f"fc{p}{q}-l{level}-{holes}": (lambda p=p, q=q, level=level, holes=holes:
                                      [_fc(3, p, q, level, holes)])
       for p, q in ((3, 1), (4, 2)) for level in (1, 2) for holes in ("m", "e")},
    **{f"fc{p}{q}-l2-mixed": (lambda p=p, q=q: [_mixed(p, q, 2)]) for p, q in ((3, 1), (4, 2))},
    **{f"sc31-l{level}": (lambda level=level: [_fc(2, 3, 1, level, "m")]) for level in (1, 2, 3)},
    **{f"torus3-L{L}": (lambda L=L: [css_from_complex(build_lattice(3, L, "torus"), i)
                                    for i in (1, 2)]) for L in (2, 3)},
    "torus4": lambda: [c for i in (1, 2, 3) for c in _torus4(i)],
    **{f"torus4-{kind}": (lambda kind=kind: _torus4(2, kind)) for kind in ("e", "m")},
    **{f"ccz-L{L}-{holes}": (lambda L=L, holes=holes: _stack(L, holes))
       for L in (2, 3, 4, 5) for holes in (None, "center")},
    **{f"colorcode-L{L}": (lambda L=L: _color(L)) for L in (1, 2, 3)},
    "surface2d-L4": lambda: [css_from_complex(code_lattice(2, 4), 1)],
    **{f"layout{seed}": (lambda seed=seed: _layout_codes(seed)) for seed in range(40)},
}


def _combos(rows: np.ndarray, n: int, rng, count: int) -> list[Gf2Vector]:
    """`count` random sums of the packed rows."""
    out = []
    for pick in rng.integers(0, 2, size=(count, len(rows))).astype(bool):
        words = np.bitwise_xor.reduce(rows[pick], axis=0) if pick.any() else None
        out.append(Gf2Vector(n, words))
    return out


def _assert_matches_dense(code, rng, count=12):
    """The reduction's k and logical tests against the dense RREFs, on
    random stabilizers, random cycles (plus the code's logical basis, so a
    nontrivial cycle is always among them when k > 0) and random vectors."""
    n = code.n_qubits
    red = code.reduction
    hx_rref, hz_rref = code.hx.rref(), code.hz.rref()
    assert red.k == n - len(hx_rref[1]) - len(hz_rref[1])
    zs, xs = logical_basis(code)
    outcomes = set()
    for checks, rref, cycle_checks, cycle_rref, is_stabilizer, is_logical, reps in (
        (code.hz, hz_rref, code.hx, hx_rref, red.is_z_stabilizer, is_z_logical,
         [op.z_support for op in zs]),
        (code.hx, hx_rref, code.hz, hz_rref, red.is_x_stabilizer, is_x_logical,
         [op.x_support for op in xs]),
    ):
        stabilizers = _combos(checks.data, n, rng, count)
        cycles = _combos(_kernel_rows(*cycle_rref).data, n, rng, count) + reps
        for v in stabilizers:
            assert is_stabilizer(v) and not is_logical(code, v)
        for v, s in zip(cycles, itertools.cycle(stabilizers)):
            for w in (v, v ^ s):
                want = in_rowspace(*rref, w)
                assert is_stabilizer(w) == want
                assert is_logical(code, w) == (not want)
                outcomes.add(want)
        for v in (Gf2Vector.from_dense(rng.integers(0, 2, n)) for _ in range(4)):
            want = not dense_syndrome(cycle_checks, v).any() and not in_rowspace(*rref, v)
            assert is_logical(code, v) == want
    if red.k:  # the stabilizers above are the other outcome
        assert False in outcomes


# sha256 of the shapes and packed words of H_X and H_Z of copies 2 and 3 of
# the CCZ stack, as the stack built them while codes stored dense checks
STACK_CHECKS_SHA256 = {
    (2, None): "9d9b04db9dfd322fff951d01f3688bf48eed09e1ba8f804b891dea02d5179224",
    (2, "center"): "df6a4e82bd4a3ffcc8130c9571fd1b912e7d0aadb9b542f05407dca0c59ef11e",
    (3, None): "c7b304aa4249177e7eb3481f26f76f006710f28be4c12bd65a73f5ea33f5632b",
    (3, "center"): "ed304b4614dee0fdacaa534740422a00acad0c1147fc64b756c4e22fb645f5d0",
    (4, None): "9ae429483207da8d8cd92e60ac0ce5d72608cb2911fb41e4e351b6312b14fe38",
    (4, "center"): "cee006a01381be7c0f631849cba83fd6937b0549178079f0316251f69ac460ca",
    (5, None): "d256bc6c572f2e770a6a9cee9d532888fb9a7d5c568748e456da5bc062a37836",
    (5, "center"): "493d11442fb97aefb9a06c2670439831242cd04fefb9ffa7759bfae1fc16e5e3",
}


def _stack_sha256(codes) -> str:
    h = hashlib.sha256()
    for code in codes:
        for m in (code.hx, code.hz):
            h.update(f"{m.rows} {m.cols};".encode())
            h.update(m.data.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CODES))
def test_check_views_match_dense_construction(name):
    """The dense views of the CSR checks are the matrices of the dense
    construction (the label-driven codes, the stack's cube copies, the
    colour code), and the CSR syndrome is the dense product's."""
    rng = np.random.default_rng(sorted(CODES).index(name))
    codes = CODES[name]()
    for code in codes:
        if code.source is not None:
            assert (code.hx, code.hz) == check_matrices(code.source, code.grading)
        for checks, m in ((code.x_checks, code.hx), (code.z_checks, code.hz)):
            for density in (0.05, 0.5):
                v = Gf2Vector.from_dense(rng.random(code.n_qubits) < density)
                assert np.array_equal(checks.parity(v.to_dense()), dense_syndrome(m, v))
    if name.startswith("ccz-"):
        L, holes = name.split("-")[1:]
        key = (int(L[1:]), None if holes == "None" else holes)
        assert _stack_sha256(codes[1:]) == STACK_CHECKS_SHA256[key]
    if name.startswith("colorcode-"):
        cc = build_color_code_2d(int(name[len("colorcode-L"):]))
        faces = Gf2Matrix.from_entries(len(cc.faces), cc.n_qubits,
                                       [(f, v) for f, vs in enumerate(cc.faces) for v in vs])
        assert codes[0].hx == faces == codes[0].hz


@pytest.mark.parametrize("name", sorted(CODES))
def test_reduction_matches_dense_oracle(name):
    rng = np.random.default_rng(sorted(CODES).index(name))
    for code in CODES[name]():
        _assert_matches_dense(code, rng)


def test_both_replays_run():
    """The geometries above exercise both replays: the 2D codes collapse
    qubits with Z checks, the 3D codes coreduce qubits with X checks."""
    sc = _fc(2, 3, 1, 2, "m").reduction
    fc = _fc(3, 4, 2, 1, "m").reduction
    assert sc.z_rounds and fc.x_rounds
    assert sum(len(q) for q, _ in sc.z_rounds) > 0


def test_residue_is_small():
    # FC(4,2) level 2, m-holes: H_X 2,592 x 6,480 and H_Z 4,782 x 6,480
    # reduce to 144 qubits, no X check and 1,038 Z checks; the Z residue's
    # 192 weight-2 rows join the 144 qubits into one component, and its 846
    # other rows are empty, so it folds to no row over that component
    code = _fc(3, 4, 2, 2, "m")
    red = code.reduction
    assert (code.hx.rows, code.hz.rows, code.n_qubits) == (2592, 4782, 6480)
    assert red.live.sum() == 144
    assert (red.live_x.sum(), red.live_z.sum(), red.k) == (0, 1038, 1)
    assert [(s.reduced.rows, s.reduced.cols, s.rank) for s in (red.x_space, red.z_space)] == [
        (0, 144, 0), (0, 1, 143)]


@settings(max_examples=40, deadline=None)
@given(punched(), st.integers(0, 2**32 - 1))
def test_reduction_matches_dense_on_random_complexes(cx, seed):
    rng = np.random.default_rng(seed)
    for i in range(1, cx.dim):
        _assert_matches_dense(css_from_complex(cx, i), rng, count=4)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(0, 6), st.integers(0, 2**32 - 1))
def test_reduction_matches_dense_on_random_codes(n, rank, seed):
    """Codes from random commuting checks: H_Z random, H_X a random basis
    of part of its annihilator."""
    rng = np.random.default_rng(seed)
    hz = Gf2Matrix.from_dense(rng.integers(0, 2, size=(rng.integers(0, n + 1), n)))
    dual = _kernel_rows(*hz.rref())
    rows = _combos(dual.data, n, rng, min(rank, dual.rows))
    hx = Gf2Matrix.from_dense(np.array([v.to_dense() for v in rows]).reshape(len(rows), n))
    code = CssCode(n_qubits=n, x_checks=checks_of(hx), z_checks=checks_of(hz), grading=1,
                   qubit_cells=list(range(n)), x_anchor_cells=[], source=None)
    _assert_matches_dense(code, rng, count=4)


def test_no_dense_check_matrix_built(monkeypatch):
    """FC(4,2) level 2: k with the homology cross-check, both exact
    distances and both witness checks read the CSR checks only; the dense
    H_X / H_Z views are never built."""
    from fractalcss.code import code_params
    from fractalcss.distance import dx_min_cut, dz_shortest_path

    def refuse(self):
        raise AssertionError("the dense view of a check matrix was built")

    monkeypatch.setattr(CssCode, "hx", property(refuse))
    monkeypatch.setattr(CssCode, "hz", property(refuse))
    code = _fc(3, 4, 2, 2, "m")
    assert code_params(code).k == 1
    dz, dx = dz_shortest_path(code), dx_min_cut(code)
    assert (dz.value, dx.value) == (16, 144)
    assert is_z_logical(code, dz.witness.z_support) and is_x_logical(code, dx.witness.x_support)


def test_no_dense_elimination_of_the_check_matrices(monkeypatch):
    """FC(4,2) level 2: k with the homology cross-check, both exact
    distances and both witness checks eliminate only small residues, never
    H_X (2,592 x 6,480) or H_Z (4,782 x 6,480).  Here they eliminate
    nothing: the cross-check's grade-2 boundary (180 faces on 132 edges)
    and the code's Z residue (1,038 checks on 144 qubits) are all weight-2
    rows or empty once reduced, so their contraction leaves no row to fold.
    The grade-1 boundary (132 edges on no vertex) and the X residue (no
    check on 144 qubits) have no bit."""
    import fractalcss.gf2 as gf2
    import fractalcss.homology as homology
    from fractalcss.code import code_params
    from fractalcss.distance import dx_min_cut, dz_shortest_path

    shapes = []
    real = gf2._rref_inplace

    def spy(data, rows, cols):
        shapes.append((rows, cols))
        return real(data, rows, cols)

    for module in (gf2, homology):
        monkeypatch.setattr(module, "_rref_inplace", spy)
    code = _fc(3, 4, 2, 2, "m")
    shapes.clear()  # the smooth-patch pruning of the construction
    assert code_params(code).k == 1
    dz, dx = dz_shortest_path(code), dx_min_cut(code)
    assert (dz.value, dx.value) == (16, 144)
    assert is_z_logical(code, dz.witness.z_support) and is_x_logical(code, dx.witness.x_support)
    assert shapes == []
