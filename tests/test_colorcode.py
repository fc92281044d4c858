"""Hexagonal color code: construction, shrunk lattices, transversal S."""

from collections import Counter

import numpy as np
import pytest

import colorcode_oracles
from fractalcss.code import code_params, code_to_text, css_from_complex, logical_basis
from fractalcss.colorcode import (
    build_color_code_2d,
    check_transversal_s_colorcode,
    shrunk_lattices,
)


def test_face_weights_are_4_and_6():
    cc = build_color_code_2d(1)
    weights = Counter(len(f) for f in cc.faces)
    assert set(weights) == {4, 6}


def test_lattice_is_trivalent_and_three_colored():
    cc = build_color_code_2d(1)
    degree = Counter()
    for u, v in cc.edges:
        degree[u] += 1
        degree[v] += 1
    assert set(degree.values()) == {3}
    adjacency = {}
    for f, vs in enumerate(cc.faces):
        vset = set(vs)
        for g in range(f):
            if len(vset & set(cc.faces[g])) >= 2:
                assert cc.face_colors[f] != cc.face_colors[g]


def test_color_code_k2():
    for L in (1, 2):
        cc = build_color_code_2d(L)
        assert code_params(cc.code, cross_check=False).k == 2


def test_shrunk_lattices_yield_k1_surface_codes():
    cc = build_color_code_2d(1)
    la, lb = shrunk_lattices(cc)
    for lat in (la, lb):
        lat.assert_dd_zero()
        code = css_from_complex(lat, 1)
        assert code_params(code, cross_check=False).k == 1


def test_shrunk_A_face_count():
    cc = build_color_code_2d(1)
    la, _ = shrunk_lattices(cc)
    n_bc = sum(1 for c in cc.face_colors if c != 0)
    assert la.n_cells(2) == n_bc


def test_transversal_s_passes():
    for L in (1, 2):
        report = check_transversal_s_colorcode(build_color_code_2d(L))
        assert report.all_pass, report.to_text()


def test_transversal_s_detects_bad_bipartition():
    cc = build_color_code_2d(1)
    bad = list(cc.bipartition)
    bad[0] ^= 1
    report = check_transversal_s_colorcode(cc, bad)
    assert not report.all_pass
    balance = [c for c in report.conditions if c.condition_id == "S-face-balance"][0]
    assert not balance.passed and balance.witnesses


def test_logical_mapping_contains_dual_logical():
    cc = build_color_code_2d(1)
    zs, xs = logical_basis(cc.code)
    assert len(xs) == 2
    assert xs[0].x_support.dot(xs[1].x_support) == 1
    assert xs[0].x_support.weight() % 2 == 0
    assert xs[1].x_support.weight() % 2 == 0


@pytest.mark.parametrize("L", range(1, 7))
def test_arrays_match_the_dict_construction(L):
    """The array construction against the per-vertex dict one it replaced:
    the same code text, edges, colours, bipartition, face lists, shrunk
    lattices and S reports, for the given bipartition and for broken ones
    (one flipped vertex, and a random one, which breaks more faces than a
    report lists)."""
    old, new = colorcode_oracles.build_color_code_2d(L), build_color_code_2d(L)
    assert code_to_text(new.code) == code_to_text(old.code)
    assert new.edges.tolist() == [list(e) for e in old.edges]
    assert new.face_colors.tolist() == old.face_colors
    assert new.bipartition.tolist() == old.bipartition
    assert [f.tolist() for f in new.faces] == [sorted(f) for f in old.faces]
    assert new.n_qubits == old.n_qubits
    for got, want in zip(shrunk_lattices(new), colorcode_oracles.shrunk_lattices(old)):
        assert got.to_text() == want.to_text()
    one = list(old.bipartition)
    one[L] ^= 1
    noise = np.random.default_rng(L).integers(0, 2, old.n_qubits).tolist()
    for part in (None, one, noise):
        got = check_transversal_s_colorcode(new, part).to_text()
        assert got == colorcode_oracles.check_transversal_s_colorcode(old, part).to_text()
        assert ("FAIL" in got) == (part is not None)
