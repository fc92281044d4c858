"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances and runtime budgets are pinned here; nothing is deferred
to later calibration.
"""

import time

import numpy as np
import pytest

from fractalcss.cli import main
from fractalcss.code import (
    code_params,
    css_from_complex,
    homology_k,
    is_x_logical,
    is_z_logical,
    logical_basis,
)
from fractalcss.colorcode import (
    build_color_code_2d,
    check_transversal_s_colorcode,
    shrunk_lattices,
)
from fractalcss.complexes import (
    FractalSpec,
    build_lattice,
    fractal_complex,
    punch_box,
)
from fractalcss.distance import (
    dx_min_cut,
    dz_shortest_path,
    exhaustive_low_weight,
    fit_scaling,
)
from fractalcss.gates import (
    PauliOperator,
    align_identical,
    build_vasmer_browne_stack,
    check_transversal_ccz,
    conjugate_by_ccz,
    merge_rough,
    phase_polys_commute,
    stabilizer_tags_near_holes,
)
from fractalcss.gf2 import Gf2Matrix, kernel_basis, rank
from fractalcss.homology import betti, cobetti, default_label_split, verify_lefschetz

from code_oracles import dense_syndrome
from complex_oracles import delete_indexed

# paper Table-1 rows: (p, q) -> (D_H of the 3D fractal, d_X exponent)
TABLE1_EXPECTED = {
    (3, 1): (2.965, 1.893),
    (4, 2): (2.904, 1.792),
    (5, 3): (2.849, 1.723),
    (6, 4): (2.804, 1.672),
    (7, 3): (2.958, 1.896),
    (7, 5): (2.767, 1.633),
    (10, 8): (2.688, 1.556),
    (15, 13): (2.611, 1.486),
    (30, 28): (2.507, 1.398),
    (100, 98): (2.385, 1.299),
    (500, 498): (2.288, 1.223),
    (5000, 4998): (2.210, 1.163),
    (10**5, 10**5 - 2): (2.156, 1.120),
    (10**10, 10**10 - 2): (2.078, 1.060),
    (10**20, 10**20 - 2): (2.039, 1.030),
    (10**80, 10**80 - 2): (2.0097, 1.0075),
}


def report(criterion: int, passed: bool, detail: str = ""):
    line = f"ACCEPTANCE {criterion:02d} {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def _budget(t0: float, seconds: float) -> float:
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds budget {seconds}s"
    return elapsed


def _fc_code(p, q, level, holes="m", background="open", n=3, i=1):
    spec = FractalSpec(n, p, q, level, background=background, holes=holes)
    return css_from_complex(fractal_complex(spec, "code"), i)


def test_criterion_01_hausdorff_table(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "table1.csv"
    rc = main(["table1", "--out", str(out)])
    assert rc == 0
    rows = {}
    for line in out.read_text().splitlines()[1:]:
        p, q, dh, ex = line.split(",")
        rows[(int(p), int(q))] = (float(dh), float(ex))
    for key, (dh_exp, ex_exp) in TABLE1_EXPECTED.items():
        dh, ex = rows[key]
        assert abs(dh - dh_exp) < 1e-3, (key, dh, dh_exp)
        assert abs(ex - ex_exp) < 1e-3, (key, ex, ex_exp)
    elapsed = _budget(t0, 1.0)
    report(1, True, f"all {len(TABLE1_EXPECTED)} rows within 1e-3, {elapsed:.2f}s")


def test_criterion_02_logical_counts_via_homology():
    t0 = time.perf_counter()
    sphere = css_from_complex(
        fractal_complex(FractalSpec(3, 3, 1, 1, background="sphere", holes="m")), 1
    )
    assert code_params(sphere).k == 0
    torus = _fc_code(3, 1, 1, background="torus")
    assert code_params(torus).k == 3
    for level in (1, 2):
        fsf = _fc_code(3, 1, level)
        assert code_params(fsf).k == 1
        assert homology_k(fsf) == 1
    _budget(t0, 90.0)
    report(2, True, "k = 0 / 3 / 1 with homology cross-checks")


def test_criterion_03_theorem3_distances():
    t0 = time.perf_counter()
    points = []
    for level, (dz_exp, dx_exp) in ((1, (3, 8)), (2, (9, 64))):
        code = _fc_code(3, 1, level)
        dz = dz_shortest_path(code)
        dx = dx_min_cut(code)
        assert (dz.value, dz.kind) == (dz_exp, "exact")
        assert (dx.value, dx.kind) == (dx_exp, "exact")
        points.append((3**level, dx.value))
    fit = fit_scaling(points)
    assert abs(fit.exponent - 1.8928) < 5e-3
    elapsed = _budget(t0, 60.0)
    report(3, True, f"d_Z 3/9, d_X 8/64, exponent {fit.exponent:.4f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_03_level3_distances():
    # FC(3,1) level 3 (L = 27): k with the homology cross-check, and the
    # third point of the d_X exponent fit
    t0 = time.perf_counter()
    code = _fc_code(3, 1, 3)
    assert code_params(code).k == 1
    dz = dz_shortest_path(code)
    assert (dz.value, dz.kind) == (27, "exact")
    assert dz.witness.is_z_type() and dz.witness.z_support.weight() == 27
    assert is_z_logical(code, dz.witness.z_support)
    dx = dx_min_cut(code)
    assert (dx.value, dx.kind) == (512, "exact")
    assert dx.witness.is_x_type() and dx.witness.x_support.weight() == 512
    assert is_x_logical(code, dx.witness.x_support)
    fit = fit_scaling([(3, 8), (9, 64), (27, dx.value)])
    assert abs(fit.exponent - np.log(8) / np.log(3)) < 5e-3
    elapsed = _budget(t0, 600.0)
    report(3, True, f"level 3: k 1, d_Z 27, d_X 512, exponent {fit.exponent:.4f}, {elapsed:.1f}s")


@pytest.mark.slow
def test_criterion_03_level4_distances():
    # FC(3,1) level 4 (L = 81, 1,148,128 qubits): the fourth point of the
    # d_X exponent fit; about 18 s and 1.0 GB peak RSS on 2 cores
    t0 = time.perf_counter()
    code = _fc_code(3, 1, 4)
    assert code_params(code).k == 1
    dz = dz_shortest_path(code)
    assert (dz.value, dz.kind) == (81, "exact")
    assert dz.witness.is_z_type() and dz.witness.z_support.weight() == 81
    assert is_z_logical(code, dz.witness.z_support)
    dx = dx_min_cut(code)
    assert (dx.value, dx.kind) == (4096, "exact")
    assert dx.witness.is_x_type() and dx.witness.x_support.weight() == 4096
    assert is_x_logical(code, dx.witness.x_support)
    fit = fit_scaling([(3, 8), (9, 64), (27, 512), (81, dx.value)])
    assert abs(fit.exponent - np.log(8) / np.log(3)) < 5e-3
    elapsed = _budget(t0, 600.0)
    report(3, True, f"level 4: k 1, d_Z 81, d_X 4096, exponent {fit.exponent:.4f}, {elapsed:.1f}s")


def test_criterion_04_no_go_2d():
    t0 = time.perf_counter()
    points = []
    for level in (1, 2, 3):
        spec = FractalSpec(2, 3, 1, level, holes="m")
        code = css_from_complex(fractal_complex(spec, "code"), 1)
        res = exhaustive_low_weight(code, "X", 2)
        assert res.kind == "exact" and res.value <= 2
        assert is_x_logical(code, res.witness.x_support)
        points.append((3**level, res.value))
    fit = fit_scaling(points)
    assert abs(fit.exponent) < 0.1
    elapsed = _budget(t0, 120.0)
    report(4, True, f"X-logical weight <= 2 at levels 1-3, exponent {fit.exponent:.3f}, {elapsed:.1f}s")


def test_criterion_05_no_go_eholes():
    t0 = time.perf_counter()
    code = _fc_code(3, 1, 2, holes="e")
    res = exhaustive_low_weight(code, "Z", 2)
    assert res.kind == "exact" and res.value <= 2
    n_holes = len(code.source.holes)
    assert n_holes == 27
    assert code_params(code).k == n_holes + 1
    elapsed = _budget(t0, 120.0)
    report(5, True, f"Z weight {res.value} <= 2, k = N_h + 1 = {n_holes + 1}, {elapsed:.1f}s")


def test_criterion_06_4d_torus_hole_insensitive():
    t0 = time.perf_counter()
    ks = {}
    for kind in ("e", "m"):
        cx = punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, kind)
        code = css_from_complex(cx, 2)
        ks[kind] = code_params(code).k
        for op_type in ("X", "Z"):
            res = exhaustive_low_weight(code, op_type, 2)
            assert res.kind == "certified_above" and res.value == 2
    clean = css_from_complex(build_lattice(4, 2, "torus"), 2)
    assert code_params(clean).k == 6
    assert ks["e"] == ks["m"] == 6
    elapsed = _budget(t0, 600.0)
    report(6, True, f"k = 6 under both hole types, distances certified > 2, {elapsed:.1f}s")


def test_criterion_07_lefschetz():
    t0 = time.perf_counter()
    geometries = [
        ("fsf-l1", fractal_complex(FractalSpec(3, 3, 1, 1, holes="m")), 1, 1),
        ("fsf-l2", fractal_complex(FractalSpec(3, 3, 1, 2, holes="m")), 1, 1),
        ("torus", fractal_complex(FractalSpec(3, 3, 1, 1, background="torus")), 1, 3),
        ("sphere", fractal_complex(FractalSpec(3, 3, 1, 1, background="sphere")), 1, 0),
    ]
    for name, cx, grade, expected in geometries:
        e_labels, m_labels = default_label_split(cx)
        rep = verify_lefschetz(cx, grade, e_labels, m_labels)
        assert rep.equal, name
        assert rep.dim_relative_e == expected, (name, rep)
    elapsed = _budget(t0, 240.0)
    report(7, True, f"duality equalities on {len(geometries)} geometries, {elapsed:.1f}s")


def test_criterion_08_appendix_f_gate_conditions():
    t0 = time.perf_counter()
    for L in (2, 3):
        codes, align = build_vasmer_browne_stack(L)
        rep = check_transversal_ccz(*codes, align)
        assert rep.all_pass, rep.to_text()
    codes, align = build_vasmer_browne_stack(3, "center")
    rep = check_transversal_ccz(*codes, align)
    assert not rep.all_pass
    near = stabilizer_tags_near_holes(align)
    n_witnesses = 0
    for cond in rep.failures():
        for witness in cond.witnesses:
            stab_tags = [w for w in witness[:-1] if ":X" in str(w) and "bar" not in str(w)]
            assert any(t in near for t in stab_tags), witness
            n_witnesses += 1
    assert n_witnesses > 0
    elapsed = _budget(t0, 60.0)
    report(8, True, f"clean stacks pass; {n_witnesses} hole-boundary failures at L=3, {elapsed:.1f}s")


def test_criterion_09_phase_poly_commutation():
    t0 = time.perf_counter()
    codes, align = build_vasmer_browne_stack(3, "center")
    ops = []
    for copy, code in enumerate(codes):
        for r in range(code.hx.rows):
            ops.append(conjugate_by_ccz(PauliOperator.x_type(code.hx.row(r)), copy, align))
        for r in range(code.hz.rows):
            ops.append(conjugate_by_ccz(PauliOperator.z_type(code.hz.row(r)), copy, align))
    checked = 0
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert phase_polys_commute(ops[i], ops[j])
            checked += 1
    elapsed = _budget(t0, 60.0)
    report(9, True, f"{checked} conjugated pairs commute symbolically, {elapsed:.1f}s")


def test_criterion_10_color_code():
    t0 = time.perf_counter()
    cc = build_color_code_2d(1)
    rep = check_transversal_s_colorcode(cc)
    assert rep.all_pass, rep.to_text()
    la, lb = shrunk_lattices(cc)
    for lat in (la, lb):
        code = css_from_complex(lat, 1)
        assert code_params(code, cross_check=False).k == 1
    n_bc = sum(1 for c in cc.face_colors if c != 0)
    assert la.n_cells(2) == n_bc
    elapsed = _budget(t0, 30.0)
    report(10, True, f"S-check and logical mapping pass, shrunk k = 1 + 1, {elapsed:.1f}s")


def test_criterion_11_surgery_algebra():
    from fractalcss.complexes import code_lattice

    t0 = time.perf_counter()
    a = css_from_complex(code_lattice(3, 2), 1)
    b = css_from_complex(code_lattice(3, 2), 1)
    plain = merge_rough(a, b)
    assert plain.k_merged == 1 and plain.parity_identity
    fa = _fc_code(3, 1, 1)
    fb = _fc_code(3, 1, 1)
    fractal = merge_rough(fa, fb)
    assert fractal.k_merged == 1 and fractal.parity_identity
    elapsed = _budget(t0, 30.0)
    report(11, True, f"merged k = 1 and interface parity identity on both pairs, {elapsed:.1f}s")


def test_criterion_12_structural_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    instances = 0

    # rank-nullity and transpose-rank on random matrices
    for _ in range(140):
        rows, cols = int(rng.integers(1, 32)), int(rng.integers(1, 32))
        m = Gf2Matrix.from_dense(rng.random((rows, cols)) < 0.4)
        assert rank(m) + len(kernel_basis(m)) == cols
        assert rank(m) == rank(m.transpose())
        instances += 1

    # dd = 0 and commutation on randomized sub-lattices, betti = cobetti
    for _ in range(60):
        n = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4))
        cx = build_lattice(n, L, "torus")
        doomed = [set() for _ in range(n + 1)]
        n_top = cx.n_cells(n)
        doomed[n] = set(
            int(i) for i in rng.choice(n_top, size=int(rng.integers(0, n_top // 2 + 1)),
                                        replace=False)
        )
        sub = delete_indexed(cx, doomed)
        sub.assert_dd_zero()
        code = css_from_complex(sub, 1)
        assert not code.hx.matmul_t(code.hz).data.any()
        g = int(rng.integers(0, n + 1))
        assert betti(sub, g) == cobetti(sub, g)
        instances += 1

    # witness verification on the shipped geometries
    for code in (
        _fc_code(3, 1, 1),
        css_from_complex(fractal_complex(FractalSpec(2, 3, 1, 1), "code"), 1),
    ):
        dz = dz_shortest_path(code)
        assert is_z_logical(code, dz.witness.z_support)
        dx_res = (
            dx_min_cut(code) if code.source.dim == 3
            else exhaustive_low_weight(code, "X", 2)
        )
        assert is_x_logical(code, dx_res.witness.x_support)
        zs, xs = logical_basis(code)
        for z in zs:
            assert not dense_syndrome(code.hx, z.z_support).any()
        for x in xs:
            assert not dense_syndrome(code.hz, x.x_support).any()
        instances += 1

    # every constructed code in this suite re-checks k against homology
    for spec in (
        FractalSpec(2, 3, 1, 1),
        FractalSpec(3, 3, 1, 1),
        FractalSpec(3, 3, 1, 1, holes="e"),
        FractalSpec(3, 3, 1, 1, background="torus"),
    ):
        code = css_from_complex(fractal_complex(spec, "code"), 1)
        assert code_params(code).k == homology_k(code)
        instances += 1

    assert instances >= 200
    elapsed = _budget(t0, 300.0)
    report(12, True, f"{instances} randomized/structural instances green, {elapsed:.1f}s")
