"""Code construction: qubit counts, logical counts, logical bases."""

import numpy as np
import pytest

from fractalcss.code import (
    CssCode,
    code_from_text,
    code_params,
    code_to_text,
    css_from_complex,
    homology_k,
    is_x_logical,
    is_z_logical,
    logical_basis,
)
from fractalcss.complexes import (
    FractalSpec,
    build_lattice,
    code_lattice,
    fractal_complex,
)
from fractalcss.gates import build_vasmer_browne_stack, merge_rough
from fractalcss.cli import main
from fractalcss.gf2 import Gf2Matrix, Gf2Vector, kernel_basis

from code_oracles import checks_of, dense_syndrome
from complex_oracles import delete_indexed, row_weight


def test_toric_code_2d():
    code = css_from_complex(build_lattice(2, 3, "torus"), 1)
    assert code.n_qubits == 18
    assert code_params(code).k == 2


def test_surface_code_2d_k1():
    for cx in (build_lattice(2, 3, "open"), code_lattice(2, 3)):
        code = css_from_complex(cx, 1)
        assert code_params(code).k == 1


def test_surface_code_standard_counts():
    code = css_from_complex(code_lattice(2, 3), 1)
    assert code.n_qubits == 13
    assert code_params(code).k == 1


def test_surface_code_3d_k1():
    code = css_from_complex(build_lattice(3, 2, "open"), 1)
    assert code_params(code).k == 1
    code2 = css_from_complex(code_lattice(3, 2), 1)
    assert code_params(code2).k == 1


def test_boundary_stabilizer_weights_2d():
    # rough boundary: 3-body Z checks; smooth boundary: 3-body X checks
    code = css_from_complex(code_lattice(2, 3), 1)
    z_weights = sorted(row_weight(code.hz, r) for r in range(code.hz.rows))
    x_weights = sorted(row_weight(code.hx, r) for r in range(code.hx.rows))
    assert set(z_weights) == {3, 4}
    assert set(x_weights) == {3, 4}


def test_fractal_surface_code_k1():
    for level in (1, 2):
        code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, level), "code"), 1)
        assert code_params(code).k == 1


def test_punctured_torus_k3():
    code = css_from_complex(
        fractal_complex(FractalSpec(3, 3, 1, 1, background="torus"), "code"), 1
    )
    assert code_params(code).k == 3


def test_punctured_sphere_k0():
    code = css_from_complex(
        fractal_complex(FractalSpec(3, 3, 1, 1, background="sphere")), 1
    )
    assert code_params(code).k == 0
    assert logical_basis(code) == ([], [])


def test_e_holes_add_one_qubit_each():
    spec = FractalSpec(3, 3, 1, 2, holes="e")
    code = css_from_complex(fractal_complex(spec, "code"), 1)
    n_holes = len(code.source.holes)
    assert n_holes == 27
    assert code_params(code).k == n_holes + 1


def test_grading_out_of_range():
    with pytest.raises(ValueError):
        css_from_complex(build_lattice(2, 2, "open"), 2)


def _dense_commute(hx: Gf2Matrix, hz: Gf2Matrix) -> bool:
    return not hx.matmul_t(hz).data.any()


def _shipped_codes() -> list[CssCode]:
    """The byte-pinned geometries of test_faces, the CCZ stacks, a rough merge."""
    from test_faces import CASES

    codes = [css_from_complex(build(), g) for build, g in CASES.values() if g]
    for L, holes in ((2, None), (3, None), (3, "center")):
        codes += build_vasmer_browne_stack(L, holes)[0]
    a, b = css_from_complex(code_lattice(3, 2), 1), css_from_complex(code_lattice(3, 2), 1)
    codes.append(merge_rough(a, b).merged)
    return codes


def test_commutation_for_all_shipped_geometries():
    geoms = [
        css_from_complex(build_lattice(2, 3, "torus"), 1),
        css_from_complex(code_lattice(3, 2), 1),
        css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1), "code"), 1),
        css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1, holes="e"), "code"), 1),
        css_from_complex(build_lattice(4, 2, "torus"), 2),
    ] + _shipped_codes()
    for code in geoms:
        # the sparse check of __post_init__ against the dense product
        assert code.x_checks.composes_to_zero(code.z_checks.transpose(code.n_qubits),
                                              len(code.z_checks))
        assert _dense_commute(code.hx, code.hz)


def test_4d_torus_22_code():
    code = css_from_complex(build_lattice(4, 2, "torus"), 2)
    assert code.n_qubits == 96
    assert code_params(code).k == 6


def test_logical_basis_surface_code():
    code = css_from_complex(code_lattice(2, 3), 1)
    zs, xs = logical_basis(code)
    assert len(zs) == len(xs) == 1
    z, x = zs[0], xs[0]
    assert is_z_logical(code, z.z_support)
    assert is_x_logical(code, x.x_support)
    assert z.z_support.dot(x.x_support) == 1
    # the Z string spans rough-to-rough: one edge per row of the rough axis
    assert z.z_support.weight() >= 3


def test_logical_basis_torus_pairing():
    code = css_from_complex(build_lattice(2, 2, "torus"), 1)
    zs, xs = logical_basis(code)
    assert len(zs) == 2
    for a, z in enumerate(zs):
        for b, x in enumerate(xs):
            assert z.z_support.dot(x.x_support) == (1 if a == b else 0)


def test_logicals_commute_with_stabilizers():
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1), "code"), 1)
    zs, xs = logical_basis(code)
    for z in zs:
        assert not dense_syndrome(code.hx, z.z_support).any()
    for x in xs:
        assert not dense_syndrome(code.hz, x.x_support).any()


def test_homology_cross_check_catches_nothing_spurious():
    code = css_from_complex(fractal_complex(FractalSpec(2, 3, 1, 1), "code"), 1)
    assert homology_k(code) == code_params(code, cross_check=True).k


def test_code_text_roundtrip():
    code = css_from_complex(code_lattice(2, 3), 1)
    again = code_from_text(code_to_text(code))
    assert again.n_qubits == code.n_qubits
    assert again.hx == code.hx and again.hz == code.hz
    assert again.qubit_cells.dtype == code.qubit_cells.dtype == np.int64
    assert again.qubit_cells.tolist() == code.qubit_cells.tolist()


# -- one flipped bit: the sparse check raises iff the dense product is nonzero --


def _random_code(rng: np.random.Generator) -> tuple[Gf2Matrix, Gf2Matrix]:
    """A valid random code whose H_Z leaves about a quarter of the columns
    empty, so that some single flips keep the checks commuting."""
    n = int(rng.integers(8, 70))
    dense = rng.random((int(rng.integers(1, n // 2 + 1)), n)) < 0.25
    dense[:, rng.random(n) < 0.25] = False
    hz = Gf2Matrix.from_dense(dense)
    kernel = np.array([v.to_dense() for v in kernel_basis(hz)], dtype=np.int64)
    mix = rng.random((int(rng.integers(1, 12)), len(kernel))) < 0.4
    return Gf2Matrix.from_dense(mix @ kernel % 2), hz


@pytest.mark.parametrize("seed", range(8))
def test_sparse_commutation_check_after_one_flip(seed):
    rng = np.random.default_rng(seed)
    if seed % 2:
        hx, hz = _random_code(rng)
    else:
        # a torus with random plaquettes and their cubes removed
        cx = build_lattice(3, int(rng.integers(2, 4)), "torus")
        faces = set(rng.choice(cx.n_cells(2), size=6, replace=False).tolist())
        up = cx.cofaces(2)
        cubes = {j for f in faces for j in up[f]}
        code = css_from_complex(delete_indexed(cx, [set(), set(), faces, cubes]), 1)
        hx, hz = code.hx, code.hz
    n = hx.cols
    CssCode(n, checks_of(hx), checks_of(hz), 1, list(range(n)), [], [])
    outcomes = set()
    for _ in range(30):
        x, z = hx.copy(), hz.copy()
        m = x if rng.random() < 0.5 else z
        r, c = int(rng.integers(m.rows)), int(rng.integers(n))
        m.data[r, c >> 6] ^= np.uint64(1) << np.uint64(c & 63)
        try:
            CssCode(n, checks_of(x), checks_of(z), 1, list(range(n)), [], [])
            raised = False
        except AssertionError as exc:
            assert "do not commute" in str(exc)
            raised = True
        assert raised == (not _dense_commute(x, z))
        outcomes.add(raised)
    assert True in outcomes


def test_check_width_mismatch_raises():
    # a Z check on qubit 4 of a 4-qubit code
    hx, hz = Gf2Matrix(1, 4), Gf2Matrix.from_entries(1, 5, [(0, 4)])
    with pytest.raises(AssertionError, match="columns"):
        CssCode(4, checks_of(hx), checks_of(hz), 1, list(range(4)), [], [])


# -- a csscode v1 file with empty check rows ------------------------------------

_FOUR_QUBITS = """csscode v1
nqubits 4 i 1
HX
gf2matrix v1
5 4
0000
1100
0000
0011
0000
HZ
gf2matrix v1
2 4
{hz}
0000
qubitmap
q 0 -> cell 0
q 1 -> cell 1
q 2 -> cell 2
q 3 -> cell 3
"""


def test_csr_syndrome_of_empty_check_rows():
    """All-zero rows first, between and last (`np.add.reduceat` would give
    an empty segment the element at its start, not 0): the CSR syndrome is
    the dense product's for every support, and the file reads back byte for
    byte."""
    text = _FOUR_QUBITS.format(hz="1111")
    code = code_from_text(text)
    assert code_to_text(code) == text
    assert code.x_checks.counts().tolist() == [0, 2, 0, 2, 0]
    assert code.z_checks.counts().tolist() == [4, 0]
    for bits in range(16):
        v = Gf2Vector.from_indices(4, [q for q in range(4) if bits >> q & 1])
        for checks, m in ((code.x_checks, code.hx), (code.z_checks, code.hz)):
            assert np.array_equal(checks.parity(v.to_dense()), dense_syndrome(m, v))
    assert is_z_logical(code, Gf2Vector.from_indices(4, [0, 1]))  # k = 1
    assert not is_z_logical(code, Gf2Vector.from_indices(4, [0]))


def test_planted_non_commuting_pair_exits_2(tmp_path, capsys):
    # X row 0011 meets Z row 1110 once
    text = _FOUR_QUBITS.format(hz="1110")
    with pytest.raises(ValueError, match="do not commute"):
        code_from_text(text)
    path = tmp_path / "bad.code"
    path.write_text(text)
    assert main(["params", "--code", str(path)]) == 2
    assert "do not commute" in capsys.readouterr().err
