"""The word-column elimination kernel against the column-by-column kernel it
replaced, and the vectorised readers of a reduced form against their per-bit
versions.

`gf2._rref_inplace` reads each 64-column word once, touches only the rows
with bits in it and moves the pivot rows into place at the end.  The RREF of
a matrix is unique, so R and the pivot list must equal, bit for bit, what the
old kernel (kept below verbatim as the oracle) returns: on seeded random
matrices and on the check and boundary matrices of the shipped geometries.
"""

import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import fractalcss
from fractalcss.code import css_from_complex
from fractalcss.colorcode import build_color_code_2d
from fractalcss.complexes import FractalSpec, build_lattice, fractal_complex, punch_box
from fractalcss.gates import build_vasmer_browne_stack
from fractalcss.gf2 import Gf2Matrix, Gf2Vector, _rref_inplace, kernel_basis

from complex_oracles import boundary_matrix


def _rref_inplace_oracle(data: np.ndarray, rows: int, cols: int) -> list[int]:
    pivots: list[int] = []
    r = 0
    one = np.uint64(1)
    for c in range(cols):
        if r >= rows:
            break
        w, b = c >> 6, np.uint64(c & 63)
        col_bits = (data[r:, w] >> b) & one
        nz = np.nonzero(col_bits)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
        mask = ((data[:, w] >> b) & one).astype(bool)
        mask[r] = False
        if mask.any():
            data[mask] ^= data[r]
        pivots.append(c)
        r += 1
    return pivots


def _set(v: Gf2Vector, i: int) -> None:
    """Set bit i of a packed vector in its word, one bit at a time."""
    v.data[i >> 6] |= np.uint64(1) << np.uint64(i & 63)


def _kernel_from_rref_oracle(R: Gf2Matrix, pivots: list[int]) -> list[Gf2Vector]:
    pivot_set = set(pivots)
    free_cols = [c for c in range(R.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = Gf2Vector(R.cols)
        _set(v, f)
        fw, fb = f >> 6, np.uint64(f & 63)
        for i, p in enumerate(pivots):
            if (R.data[i, fw] >> fb) & np.uint64(1):
                _set(v, p)
        basis.append(v)
    return basis


def _assert_same_rref(m: Gf2Matrix, label) -> None:
    old, new = m.data.copy(), m.data.copy()
    pivots_old = _rref_inplace_oracle(old, m.rows, m.cols)
    pivots_new = _rref_inplace(new, m.rows, m.cols)
    assert pivots_new == pivots_old, label
    assert np.array_equal(new, old), label


def _random_dense(rng, rows: int, cols: int) -> np.ndarray:
    dense = (rng.random((rows, cols)) < rng.uniform(0.01, 0.5)).astype(np.uint8)
    if rows > 1 and rng.random() < 0.5:  # planted duplicate and dependent rows
        for r in range(rows):
            if rng.random() < 0.3:
                a, b = rng.integers(0, rows, size=2)
                dense[r] = dense[a] if rng.random() < 0.5 else dense[a] ^ dense[b]
    return dense


def test_random_matrices_match_oracle():
    rng = np.random.default_rng(2024)
    word_edges = (1, 63, 64, 65, 128)
    for trial in range(400):
        rows = int(rng.integers(1, 201))
        cols = word_edges[trial % 5] if trial < 200 else int(rng.integers(1, 300))
        m = Gf2Matrix.from_dense(_random_dense(rng, rows, cols))
        _assert_same_rref(m, (trial, rows, cols))


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 130), (130, 1), (7, 64), (70, 65),
                                        (200, 128), (3, 200)])
def test_special_matrices_match_oracle(rows, cols):
    for dense in (np.zeros((rows, cols)), np.ones((rows, cols)), np.eye(rows, cols),
                  np.eye(rows, cols)[::-1], np.tri(rows, cols)[::-1]):
        _assert_same_rref(Gf2Matrix.from_dense(dense), (rows, cols))
    _assert_same_rref(Gf2Matrix(0, cols), (0, cols))
    _assert_same_rref(Gf2Matrix(rows, 0), (rows, 0))


def _fc(p: int, q: int, level: int, holes):
    return fractal_complex(FractalSpec(3, p, q, level, holes=holes), "code")


def _torus4d():
    cx = punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, "e")
    return punch_box(cx, (2, 2, 2, 2), 1, "m")


def _mixed_layout(seed: int) -> dict[int, str]:
    rng = random.Random(seed)
    return {h: rng.choice("em") for h in range(27)}


# name -> (complex builder, code gradings)
GEOMETRIES = {
    **{f"fc31-l{lv}-{h}": (lambda lv=lv, h=h: _fc(3, 1, lv, h), (1,))
       for lv in (1, 2) for h in "me"},
    "fc31-l2-mixed": (lambda: _fc(3, 1, 2, _mixed_layout(5)), (1,)),
    "fc42-l1-m": (lambda: _fc(4, 2, 1, "m"), (1,)),
    "fc42-l2-m": (lambda: _fc(4, 2, 2, "m"), (1,)),
    "torus4d-holes": (_torus4d, (1, 2)),
}


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_geometry_matrices_match_oracle(name):
    build, gradings = GEOMETRIES[name]
    cx = build()
    for k in range(1, cx.dim + 1):
        _assert_same_rref(boundary_matrix(cx, k), (name, "boundary", k))
    for i in gradings:
        code = css_from_complex(cx, i)
        _assert_same_rref(code.hx, (name, "H_X", i))
        _assert_same_rref(code.hz, (name, "H_Z", i))


def test_colour_codes_and_ccz_stack_match_oracle():
    codes = [build_color_code_2d(L).code for L in (1, 2, 3)]
    stack = build_vasmer_browne_stack(3)[0]
    for n, code in enumerate(codes + stack):
        _assert_same_rref(code.hx, (n, "H_X"))
        _assert_same_rref(code.hz, (n, "H_Z"))
    lattice = stack[0].source  # the three copies share one cubic lattice
    for k in range(1, lattice.dim + 1):
        _assert_same_rref(boundary_matrix(lattice, k), ("stack", "boundary", k))


def test_kernel_matches_per_bit_reader():
    rng = np.random.default_rng(11)
    for trial in range(120):
        rows, cols = int(rng.integers(1, 90)), int(rng.integers(1, 150))
        m = Gf2Matrix.from_dense(_random_dense(rng, rows, cols))
        assert kernel_basis(m) == _kernel_from_rref_oracle(*m.rref()), trial


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 200])
def test_vector_packing_matches_per_bit(n):
    rng = np.random.default_rng(n)
    bits = (rng.random(n) < 0.4).astype(np.uint8)
    ones = np.flatnonzero(bits).tolist()
    reference = Gf2Vector(n)
    for i in ones:
        _set(reference, i)
    assert Gf2Vector.from_dense(bits) == reference
    assert Gf2Vector.from_indices(n, ones + ones[:3]) == reference  # repeats stay set
    assert Gf2Vector.from_indices(n, iter(ones)) == reference
    assert np.array_equal(reference.to_dense(), bits)
    assert reference.indices() == ones
    for bad in (-1, n):
        with pytest.raises(IndexError):
            Gf2Vector.from_indices(n, [bad])


# Each case breaks one shape or length guard of gf2 and must raise ValueError.
_SHAPE_GUARDS = textwrap.dedent("""
    import numpy as np
    from fractalcss.gf2 import Gf2Matrix, Gf2Vector
    m23, m33, v2, v3 = Gf2Matrix(2, 3), Gf2Matrix(3, 3), Gf2Vector(2), Gf2Vector(3)
    cases = [
        lambda: Gf2Vector(65, np.zeros(1, dtype=np.uint64)),
        lambda: Gf2Matrix(2, 3, np.zeros((3, 1), dtype=np.uint64)),
        lambda: v2.dot(v3),
        lambda: v2 ^ v3,
        lambda: Gf2Matrix.from_dense([1, 0]),
        lambda: m23.matmul_t(Gf2Matrix(2, 2)),
        lambda: m33.matmul(m23),
    ]
    raised = 0
    for case in cases:
        try:
            case()
        except ValueError:
            raised += 1
    print(raised, len(cases))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_shape_guards_raise_value_error(flags):
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", _SHAPE_GUARDS], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["7", "7"]
