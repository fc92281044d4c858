"""Lattice construction, fractal punching, duals and quotients."""

import pytest

from fractalcss.complexes import (
    CellComplex,
    FractalSpec,
    build_lattice,
    code_lattice,
    dual_with_boundary,
    fractal_complex,
    punch_box,
)

from complex_oracles import boundary_matrix, cells, delete_indexed, euler_characteristic


def test_open_square_counts():
    cx = build_lattice(2, 2, "open-cube")
    assert [cx.n_cells(k) for k in range(3)] == [9, 12, 4]


def test_torus_counts_and_euler():
    cx = build_lattice(2, 2, "torus")
    assert [cx.n_cells(k) for k in range(3)] == [4, 8, 4]
    assert euler_characteristic(cx) == 0


def test_torus_3d_counts():
    cx = build_lattice(3, 3, "torus")
    assert [cx.n_cells(k) for k in range(4)] == [27, 81, 81, 27]
    assert euler_characteristic(cx) == 0


def test_torus_euler_zero_several_sizes():
    for n, L in [(2, 3), (2, 4), (3, 2)]:
        assert euler_characteristic(build_lattice(n, L, "torus")) == 0


def test_dd_zero_is_asserted_everywhere():
    for cx in [
        build_lattice(2, 3, "open"),
        build_lattice(3, 2, "torus"),
        build_lattice(3, 3, "sphere"),
        code_lattice(3, 3),
        code_lattice(2, 4),
    ]:
        cx.assert_dd_zero()


def test_outer_labels_cover_boundary_and_are_closed():
    cx = build_lattice(3, 2, "open")
    for k in range(3):
        for i, c in enumerate(cells(cx, k)):
            on_surface = any(
                lo == hi and (lo == 0 or lo == 4) for lo, hi in c.box
            )
            assert (c.label != "bulk") == on_surface
    # labeled patches closed under the boundary map (quotient must not fail)
    cx.quotient_to_point({lb for lb in cx.labels_present() if lb.startswith("oE")})


def test_fc31_level1_surviving_cubes():
    spec = FractalSpec(3, 3, 1, 1)
    cx = fractal_complex(spec)
    assert cx.n_cells(3) == 26
    assert len(cx.holes) == 1


def test_sc31_level2_surviving_faces():
    spec = FractalSpec(2, 3, 1, 2)
    cx = fractal_complex(spec)
    assert cx.n_cells(2) == 64
    assert len(cx.holes) == 9


def test_top_cell_survival_counts():
    for n, p, q, level in [(2, 3, 1, 1), (2, 3, 1, 2), (3, 3, 1, 1), (2, 4, 2, 2), (3, 4, 2, 1)]:
        cx = fractal_complex(FractalSpec(n, p, q, level))
        assert cx.n_cells(n) == (p**n - q**n) ** level


def test_odd_gap_rejected():
    with pytest.raises(ValueError):
        FractalSpec(2, 3, 2, 1)


def test_quotient_empty_selection_is_error():
    cx = build_lattice(2, 2, "open")
    with pytest.raises(ValueError):
        cx.quotient_to_point({"hM99"})


def test_quotient_non_closed_selection_reports_witness():
    cx = build_lattice(2, 2, "torus")
    # hand-label one edge only: an edge without its endpoints is not closed
    cx = delete_indexed(cx, [set(), set(), set()], relabel={(1, 0): "oE0"})
    with pytest.raises(ValueError, match="not closed"):
        cx.quotient_to_point({"oE0"})


def test_sphere_background_via_quotient():
    cx = build_lattice(3, 2, "sphere")
    assert cx.background == "sphere"
    assert euler_characteristic(cx) == 0  # collapsing the boundary of B^3 gives S^3


def test_dual_involution_counts():
    cx = build_lattice(2, 3, "torus")
    dd = cx.transpose_dual().transpose_dual()
    assert [dd.n_cells(k) for k in range(3)] == [cx.n_cells(k) for k in range(3)]


def test_dual_vertex_count_matches_faces():
    cx = build_lattice(2, 3, "torus")
    assert cx.transpose_dual().n_cells(0) == cx.n_cells(2)


def test_dual_transpose_bit_exact():
    cx = build_lattice(3, 2, "torus")
    dual = cx.transpose_dual()
    for k in range(1, 4):
        assert boundary_matrix(dual, k) == boundary_matrix(cx, 3 - k + 1).transpose()


def test_dual_label_transfer():
    cx = build_lattice(2, 2, "open")
    dual = cx.transpose_dual()
    primal_labels = sorted(c.label for c in cells(cx, 0))
    dual_labels = sorted(c.label for c in cells(dual, 2))
    assert primal_labels == dual_labels


def test_dual_with_boundary_dd_zero():
    cx = build_lattice(2, 2, "open")
    dual_with_boundary(cx).assert_dd_zero()
    cx3 = fractal_complex(FractalSpec(3, 3, 1, 1))
    dual_with_boundary(cx3).assert_dd_zero()


def test_code_lattice_counts():
    # rough axis keeps its labeled end planes; the code module deletes them,
    # leaving the standard 13-qubit distance-3 surface code
    cx = code_lattice(2, 3)
    assert cx.n_cells(0) == 12
    assert cx.n_cells(1) == 17
    assert cx.n_cells(2) == 6
    e_cells = [cx.label_mask(k, cx.labels_present().__contains__).sum() for k in (0, 1)]
    assert e_cells == [6, 4]
    assert cx.n_cells(1) - e_cells[1] == 13


def test_code_lattice_hole_m_removes_column():
    cx = code_lattice(3, 3)
    punched = punch_box(cx, (1, 1, 1), 1, "m")
    assert punched.n_cells(1) < cx.n_cells(1)
    punched.assert_dd_zero()


def test_code_lattice_hole_e_marks_rough_patch():
    cx = code_lattice(3, 3)
    punched = punch_box(cx, (1, 1, 1), 1, "e")
    # the rough hole keeps all cells; the interior edge and its endpoints
    # carry the hole label for the code module to consume
    assert punched.n_cells(1) == cx.n_cells(1)
    marked = [punched.label_mask(k, "hE0".__eq__).sum() for k in (0, 1)]
    assert marked == [2, 1]
    punched.assert_dd_zero()


def test_text_roundtrip_bit_exact():
    for cx in [
        build_lattice(2, 2, "open"),
        fractal_complex(FractalSpec(2, 3, 1, 1)),
        fractal_complex(FractalSpec(3, 3, 1, 1), style="code"),
    ]:
        again = CellComplex.from_text(cx.to_text())
        assert again.to_text() == cx.to_text()
        for k in range(cx.dim + 1):
            assert boundary_matrix(again, k) == boundary_matrix(cx, k)
            assert [c.box for c in cells(again, k)] == [c.box for c in cells(cx, k)]
            assert [c.label for c in cells(again, k)] == [c.label for c in cells(cx, k)]


# per-grade cell counts of FC(3,1) in code style with m-holes; the level
# 1-3 counts are those of the tuple-and-dict implementation
FC31_M_COUNTS = {
    1: [34, 64, 32, 0],
    2: [722, 1744, 1240, 192],
    3: [17314, 45272, 35832, 7240],
    4: [437042, 1174048, 963304, 210000],
}


@pytest.mark.slow
def test_fc31_level4_build():
    import complex_oracles as oracle
    from fractalcss.complexes import fractal_holes
    from test_punch import reference_punch_holes

    for level, counts in FC31_M_COUNTS.items():
        spec = FractalSpec(3, 3, 1, level, holes="m")
        cx = fractal_complex(spec, "code")
        cx.assert_dd_zero()
        assert [cx.n_cells(k) for k in range(4)] == counts
        assert len(cx.holes) == sum(26**j for j in range(level))  # 18,279 at level 4
        if level <= 2:  # the oracle builder and per-cell punch, live
            ref = reference_punch_holes(oracle.code_lattice(3, spec.side), fractal_holes(spec))
            assert ref.to_text() == cx.to_text()
