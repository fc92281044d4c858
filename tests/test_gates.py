"""Transversal CZ/CCZ conditions, the three-copy stack, phase polynomials,
and the rough-boundary merge algebra."""

import numpy as np
import pytest

from fractalcss.code import (
    PauliOperator,
    code_params,
    css_from_complex,
    logical_basis,
)
from fractalcss.complexes import Faces, FractalSpec, code_lattice, fractal_complex
from fractalcss.gates import (
    StackAlignment,
    align_by_boxes,
    align_identical,
    build_vasmer_browne_stack,
    check_transversal_cz,
    check_transversal_ccz,
    conjugate_by_ccz,
    merge_rough,
    phase_polys_commute,
    stabilizer_tags_near_holes,
)
from fractalcss.code import CssCode
from fractalcss.gf2 import Gf2Matrix, Gf2Vector

from code_oracles import checks_of, dense_syndrome
from complex_oracles import row_weight


def test_cz_rotated_surface_pair_passes():
    a = css_from_complex(code_lattice(2, 3, e_axes=(1,)), 1)
    b = css_from_complex(code_lattice(2, 3, e_axes=(0,)), 1)
    align = align_by_boxes([a, b])
    report = check_transversal_cz(a, b, align)
    assert report.all_pass, report.to_text()


def test_cz_identical_copies_fail_with_witness():
    a = css_from_complex(code_lattice(2, 2, e_axes=(1,)), 1)
    b = css_from_complex(code_lattice(2, 2, e_axes=(1,)), 1)
    align = align_identical([a, b])
    report = check_transversal_cz(a, b, align)
    assert not report.all_pass
    assert any(c.witnesses for c in report.failures())


def test_cz_trivial_code_vacuous():
    """No checks: the stabilizer conditions hold vacuously.  The code has
    k = 4, so the alignment names the logical X to test (without one the
    check refuses: the basis would pick an arbitrary class)."""
    n = 4
    trivial = CssCode(
        n_qubits=n, x_checks=Faces.empty(0), z_checks=Faces.empty(0),
        grading=1, qubit_cells=list(range(n)), x_anchor_cells=[], source=None,
    )
    with pytest.raises(ValueError, match="copy 0 has k = 4"):
        check_transversal_cz(trivial, trivial, align_identical([trivial, trivial]))
    x = PauliOperator.x_type(Gf2Vector.from_indices(n, [0]))
    align = align_identical([trivial, trivial], [x, x])
    report = check_transversal_cz(trivial, trivial, align)
    stab_conds = [c for c in report.conditions if c.condition_id.startswith("CZ1")]
    assert all(c.passed for c in stab_conds)


def test_one_code_object_in_several_copies_is_checked_by_position():
    """An alignment holding one code object in two or three copies tests
    its copies, not copy 0 against itself: here the logicals X0 and X1
    meet in no site, so the logical pair and triple fail, as they do with
    distinct code objects."""
    n = 4

    def bare():
        return CssCode(
            n_qubits=n, x_checks=Faces.empty(0), z_checks=Faces.empty(0),
            grading=1, qubit_cells=list(range(n)), x_anchor_cells=[], source=None,
        )

    t, u = bare(), bare()
    x0, x1 = (PauliOperator.x_type(Gf2Vector.from_indices(n, [q])) for q in (0, 1))
    report = check_transversal_cz(t, t, align_identical([t, t], [x0, x1]))
    assert report.to_text().splitlines()[-1] == (
        "COND CZ2-logical-logical FAIL [witness: a=Xbar b=Xbar parity=0]")
    assert report == check_transversal_cz(t, u, align_identical([t, u], [x0, x1]))
    report = check_transversal_ccz(t, t, t, align_identical([t, t, t], [x0, x1, x0]))
    assert report.to_text().splitlines()[-1] == (
        "COND CCZ2-logical-triple FAIL [witness: a=Xbar1 b=Xbar2 c=Xbar3 parity=0]")


def test_alignments_refuse_sites_the_codes_cannot_share():
    """A site map of another length than the code, one that sends two
    qubits to one site, and codes whose qubits do not sit at one set of
    midpoints are refused."""
    a = css_from_complex(code_lattice(2, 2, e_axes=(1,)), 1)
    n = a.n_qubits
    with pytest.raises(ValueError, match="size mismatch"):
        StackAlignment([a], n, [np.arange(n - 1)])
    with pytest.raises(ValueError, match="injective"):
        StackAlignment([a], n, [np.arange(n) // 2])
    with pytest.raises(ValueError, match="common site set"):
        align_by_boxes([a, css_from_complex(code_lattice(2, 3, e_axes=(1,)), 1)])


def test_cz_k0_code_reported_not_applicable():
    """Every qubit's X measured: k = 0, so the logical pair is not applicable,
    and the report says so."""
    n = 4
    frozen = CssCode(
        n_qubits=n, x_checks=checks_of(Gf2Matrix.from_dense(np.eye(n))), z_checks=Faces.empty(0),
        grading=1, qubit_cells=list(range(n)), x_anchor_cells=[], source=None,
    )
    report = check_transversal_cz(frozen, frozen, align_identical([frozen, frozen]))
    final = report.conditions[-1]
    assert final.condition_id == "CZ2-logical-logical"
    assert final.passed and final.note == "not applicable: k = 0"
    assert report.to_text().splitlines()[-1] == (
        "COND CZ2-logical-logical PASS (not applicable: k = 0)")


def test_vb_stack_L2_passes():
    codes, align = build_vasmer_browne_stack(2)
    report = check_transversal_ccz(*codes, align)
    assert report.all_pass, report.to_text()


def test_vb_stack_L3_passes():
    codes, align = build_vasmer_browne_stack(3)
    report = check_transversal_ccz(*codes, align)
    assert report.all_pass, report.to_text()


def test_vb_copy1_bulk_weight_6():
    # transverse interior vertices exist from L=3 up in this cellulation
    codes, _ = build_vasmer_browne_stack(3)
    weights = {row_weight(codes[0].hx, r) for r in range(codes[0].hx.rows)}
    assert 6 in weights


def test_vb_copies23_bulk_weight_12():
    codes, _ = build_vasmer_browne_stack(3)
    for copy in (1, 2):
        weights = {row_weight(codes[copy].hx, r) for r in range(codes[copy].hx.rows)}
        assert 12 in weights
    z_weights = {row_weight(codes[1].hz, r) for r in range(codes[1].hz.rows)}
    assert z_weights == {3}


def test_vb_hole_truncates_yellow_to_weight_5():
    codes, _ = build_vasmer_browne_stack(5, "center")
    weights = [row_weight(codes[0].hx, r) for r in range(codes[0].hx.rows)]
    assert 5 in weights


def test_vb_holed_stack_fails_only_near_hole():
    codes, align = build_vasmer_browne_stack(3, "center")
    report = check_transversal_ccz(*codes, align)
    assert not report.all_pass
    near = stabilizer_tags_near_holes(align)
    seen_stab_witness = False
    for cond in report.failures():
        for witness in cond.witnesses:
            stab_tags = [w for w in witness[:-1] if ":X" in str(w) and "bar" not in str(w)]
            assert stab_tags, witness
            assert any(t in near for t in stab_tags), (witness, sorted(near)[:5])
            seen_stab_witness = True
    assert seen_stab_witness


def test_conjugate_by_ccz_bulk_stabilizer_is_identity_brane():
    codes, align = build_vasmer_browne_stack(2)
    s = PauliOperator.x_type(codes[0].hx.row(0))
    ppo = conjugate_by_ccz(s, 0, align)
    assert ppo.x_support and ppo.quadratic_cz
    assert len(ppo.quadratic_cz) == row_weight(codes[0].hx, 0)
    assert ppo.cz_identity is True


def test_conjugate_by_ccz_hole_stabilizer_not_identity():
    codes, align = build_vasmer_browne_stack(3, "center")
    near = stabilizer_tags_near_holes(align)
    flags = []
    for tag in sorted(near):
        copy, row = tag.split(":X")
        copy, row = int(copy), int(row)
        s = PauliOperator.x_type(codes[copy].hx.row(row))
        flags.append(conjugate_by_ccz(s, copy, align).cz_identity)
    assert False in flags


def test_conjugate_by_ccz_z_stab_unchanged():
    codes, align = build_vasmer_browne_stack(2)
    s = PauliOperator.z_type(codes[0].hz.row(0))
    ppo = conjugate_by_ccz(s, 0, align)
    assert not ppo.x_support and not ppo.quadratic_cz
    assert len(ppo.linear_z) == row_weight(codes[0].hz, 0)


def test_conjugate_by_ccz_rejects_mixed():
    codes, align = build_vasmer_browne_stack(2)
    mixed = PauliOperator(
        Gf2Vector.from_indices(codes[0].n_qubits, [0]),
        Gf2Vector.from_indices(codes[0].n_qubits, [1]),
    )
    with pytest.raises(ValueError):
        conjugate_by_ccz(mixed, 0, align)


def _conjugated_set(codes, align):
    out = []
    for copy, code in enumerate(codes):
        for r in range(code.hx.rows):
            out.append(conjugate_by_ccz(PauliOperator.x_type(code.hx.row(r)), copy, align))
        for r in range(code.hz.rows):
            out.append(conjugate_by_ccz(PauliOperator.z_type(code.hz.row(r)), copy, align))
    return out


def test_phase_poly_commutation_clean_stack():
    codes, align = build_vasmer_browne_stack(2)
    ops = _conjugated_set(codes, align)
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            assert phase_polys_commute(ops[i], ops[j])


def test_phase_poly_anticommuting_example():
    # X x CZ against a bare Z on an overlapping site must not commute
    from fractalcss.gates import PhasePolyOperator

    o1 = PhasePolyOperator(frozenset({(0, 0)}), frozenset(), frozenset())
    o2 = PhasePolyOperator(frozenset(), frozenset({(0, 0)}), frozenset())
    assert not phase_polys_commute(o1, o2)
    o3 = PhasePolyOperator(frozenset(), frozenset({(1, 0)}), frozenset())
    assert phase_polys_commute(o1, o3)


def test_merge_two_3d_surface_codes():
    a = css_from_complex(code_lattice(3, 2), 1)
    b = css_from_complex(code_lattice(3, 2), 1)
    result = merge_rough(a, b)
    assert result.k_merged == 1
    assert result.parity_identity
    assert len(result.interface_x_rows) > 0
    # interface X stabilizers are completed stars; transverse-bulk ones are
    # 6-body once the block is wide enough
    a3 = css_from_complex(code_lattice(3, 3), 1)
    b3 = css_from_complex(code_lattice(3, 3), 1)
    r3 = merge_rough(a3, b3)
    weights = {row_weight(r3.merged.hx, r) for r in r3.interface_x_rows}
    assert 6 in weights and r3.k_merged == 1 and r3.parity_identity


def test_merge_two_fractal_codes():
    spec = FractalSpec(3, 3, 1, 1, holes="m")
    a = css_from_complex(fractal_complex(spec, "code"), 1)
    b = css_from_complex(fractal_complex(spec, "code"), 1)
    result = merge_rough(a, b)
    assert result.k_merged == 1
    assert result.parity_identity


def test_merge_shifts_the_hole_labels_of_the_upper_block():
    """Both blocks carry the e-hole hE0; the upper block's hole becomes hE1,
    lifted onto the lower block, and the labels name both holes."""
    spec = FractalSpec(3, 3, 1, 1, holes="e")
    a = css_from_complex(fractal_complex(spec, "code"), 1)
    b = css_from_complex(fractal_complex(spec, "code"), 1)
    assert a.source.label_names[-1] == "hE0"
    result = merge_rough(a, b)
    cx = result.merged.source
    assert list(cx.label_names) == ["bulk", "oE4", "oE5", "hE0", "hE1"]
    assert [(h.hole_id, h.box) for h in cx.holes] == [
        (0, ((2, 4), (2, 4), (2, 4))), (1, ((2, 4), (2, 4), (8, 10)))]
    # each hole keeps its two vertices and one edge under its own label
    for k, count in ((0, 2), (1, 1)):
        assert [int((cx.labels[k] == cx.label_names.index(name)).sum())
                for name in ("hE0", "hE1")] == [count, count]
    assert result.k_merged == 3  # k(a) + k(b) - 1, each block k = 2
    # each block's logical X across the interface is one plane, not the
    # first of its basis (which may wind around the hole)
    assert result.parity_identity


def test_merge_k_drops_by_one():
    a = css_from_complex(code_lattice(3, 2), 1)
    b = css_from_complex(code_lattice(3, 2), 1)
    ka = code_params(a).k
    kb = code_params(b).k
    assert merge_rough(a, b).k_merged == ka + kb - 1


def test_merge_self_is_error():
    a = css_from_complex(code_lattice(3, 2), 1)
    with pytest.raises(ValueError):
        merge_rough(a, a)


def test_merge_mismatched_interface_is_error():
    a = css_from_complex(code_lattice(3, 2), 1)
    b = css_from_complex(code_lattice(3, 3), 1)
    with pytest.raises(ValueError):
        merge_rough(a, b)


def test_ccz_missing_logical_reported_not_applicable():
    codes, align = build_vasmer_browne_stack(2)
    n = codes[0].n_qubits
    frozen = CssCode(
        n_qubits=n, x_checks=checks_of(Gf2Matrix.from_dense(np.eye(n))), z_checks=Faces.empty(0),
        grading=1, qubit_cells=list(codes[0].qubit_cells),
        x_anchor_cells=[], source=codes[0].source,
    )
    stack = [codes[0], codes[1], frozen]
    align2 = align_identical(stack, [align.x_logicals[0], align.x_logicals[1], None])
    report = check_transversal_ccz(*stack, align2)
    final = [c for c in report.conditions if c.condition_id == "CCZ2-logical-triple"][0]
    assert final.passed and "not applicable" in final.note


def test_copy_with_several_logicals_and_none_aligned_raises():
    """Copy 2 of the CCZ stack has k = 5 at L = 2: without the alignment's
    logical X, the first of its logical basis would be an arbitrary class,
    so the gate checks refuse it instead of testing that one."""
    codes, align = build_vasmer_browne_stack(2)
    align2 = align_identical(codes, [align.x_logicals[0], align.x_logicals[1], None])
    with pytest.raises(ValueError, match="copy 2 has k = 5 and no logical X"):
        check_transversal_ccz(*codes, align2)
    with pytest.raises(ValueError, match="copy 2 has k = 5 and no logical X"):
        check_transversal_cz(codes[0], codes[2], align2)
    assert check_transversal_ccz(*codes, align).all_pass


@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("holes", [None, "center"])
def test_brane_certificate_agrees_with_the_logical_test(L, holes):
    """Every certified brane is an X-logical by the full test as well."""
    from fractalcss.code import is_x_logical

    codes, align = build_vasmer_browne_stack(L, holes)
    for code, x in zip(codes, align.x_logicals):
        assert is_x_logical(code, x.x_support)


def test_uncertified_brane_raises(monkeypatch):
    """A brane (and partner) missing its first qubit fails the
    certificate with a typed error, not an assert."""
    import fractalcss.gates as gates

    class FirstDropped(Gf2Vector):
        @classmethod
        def from_indices(cls, n, indices):
            return Gf2Vector.from_indices(n, list(indices)[1:])

    monkeypatch.setattr(gates, "Gf2Vector", FirstDropped)
    with pytest.raises(gates.CertificateError, match="copy 1 is not certified"):
        build_vasmer_browne_stack(3)


def test_certificate_needs_each_part():
    """A stabilizer, a brane with a syndrome, or a partner with one is not
    certified; the brane with its partner is."""
    from fractalcss.gates import _certified

    codes, align = build_vasmer_browne_stack(3)
    code, x = codes[0], align.x_logicals[0].x_support
    z = logical_basis(code)[0][0].z_support
    assert _certified(code, x, z) and _certified(code, x ^ code.hx.row(0), z)
    single = Gf2Vector.from_indices(code.n_qubits, [x.indices()[0]])
    assert not _certified(code, single, z)  # H_Z x != 0
    assert not _certified(code, x, single)  # H_X z != 0
    stab = code.hx.row(0)
    assert not dense_syndrome(code.hz, stab).any() and not _certified(code, stab, z)  # even overlap


def test_stack_rows_packed_once_per_alignment(monkeypatch):
    """The CCZ conjugations of the 40 X stabilizers of the holed L = 3 stack
    and its CCZ check transpose each copy's X checks to their site
    incidence once, and no logical: its sites are merged in as one row.
    The CCZ check counts all eight choices of roles in one key expansion."""
    codes, align = build_vasmer_browne_stack(3, "center")
    built, real = [], Faces.transpose
    monkeypatch.setattr(Faces, "transpose", lambda f, n: built.append((len(f), n)) or real(f, n))
    for copy, code in enumerate(codes):
        for r in range(code.hx.rows):
            conjugate_by_ccz(PauliOperator.x_type(code.hx.row(r)), copy, align)
    unique, counted = np.unique, []
    monkeypatch.setattr(np, "unique", lambda *a, **k: counted.append(1) or unique(*a, **k))
    check_transversal_ccz(*codes, align)
    assert sorted(built) == sorted((len(code.x_checks), align.n_sites) for code in codes)
    assert len(counted) == 1
