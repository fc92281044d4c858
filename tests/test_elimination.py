"""One GF(2) elimination per check matrix.

`_drop_redundant_m_rows` reads the kept M rows off the pivot columns of one
elimination of H_Z^T; the row-by-row loop it replaced is kept here verbatim
as the oracle.  The logical basis eliminates H_X and H_Z once per call and
keeps no RREF on the code; k, the logical tests, the merge's parity
identity and the colour-code S check read only the residue of a reduced
chain complex.
"""

import hashlib

import numpy as np
import pytest

import fractalcss.code as code_mod
import fractalcss.gf2 as gf2
import fractalcss.homology as homology
from fractalcss.code import (
    _drop_redundant_m_rows,
    code_params,
    css_from_complex,
    is_x_logical,
    is_z_logical,
    logical_basis,
)
from fractalcss.colorcode import build_color_code_2d
from fractalcss.complexes import FractalSpec, build_lattice, fractal_complex, punch_box
from fractalcss.gf2 import Gf2Matrix, Gf2Vector
from code_oracles import checks_of


def _drop_redundant_m_rows_oracle(hz: Gf2Matrix, m_anchor: list[bool]) -> list[int]:
    """Row indices to keep: all non-M rows, plus M rows independent of them."""
    if not any(m_anchor):
        return list(range(hz.rows))
    keep = [r for r in range(hz.rows) if not m_anchor[r]]
    reduced: list[Gf2Vector] = []

    def reduce_against(v: Gf2Vector) -> Gf2Vector:
        w = v.copy()
        for u in reduced:
            lead = u.indices()[0]
            if w.get(lead):
                w ^= u
        return w

    for r in keep:
        w = reduce_against(hz.row(r))
        if not w.is_zero():
            reduced.append(w)
    reduced.sort(key=lambda u: u.indices()[0])
    for r in range(hz.rows):
        if not m_anchor[r]:
            continue
        w = reduce_against(hz.row(r))
        if not w.is_zero():
            keep.append(r)
            reduced.append(w)
            reduced.sort(key=lambda u: u.indices()[0])
    return sorted(keep)


def _kept(hz: Gf2Matrix, m_anchor: list[bool]) -> list[int]:
    """The rows `_drop_redundant_m_rows` keeps of a dense H_Z."""
    keep = _drop_redundant_m_rows(checks_of(hz), np.array(m_anchor), hz.cols)
    return np.flatnonzero(keep).tolist()


def test_drop_redundant_m_rows_matches_oracle_on_random_matrices():
    rng = np.random.default_rng(7)
    nontrivial = 0
    for _ in range(150):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 90))
        density = float(rng.uniform(0.02, 0.4))
        dense = (rng.random((rows, cols)) < density).astype(np.uint8)
        if rng.random() < 0.3:  # duplicated and summed rows make M rows dependent
            for r in range(rows):
                if rng.random() < 0.4:
                    a, b = rng.integers(0, rows, size=2)
                    dense[r] = dense[a] ^ dense[b]
        m_anchor = [bool(x) for x in rng.random(rows) < rng.uniform(0, 1)]
        hz = Gf2Matrix.from_dense(dense)
        expected = _drop_redundant_m_rows_oracle(hz, m_anchor)
        assert _kept(hz, m_anchor) == expected
        nontrivial += len(expected) < rows
    assert nontrivial >= 30


# the gradings whose Z checks have M-labeled anchors (at i = n - 1 the
# anchors are top cells, which carry no boundary label)
@pytest.mark.parametrize("name, build, gradings", [
    ("fc31-l1-sphere", lambda: fractal_complex(FractalSpec(3, 3, 1, 1, background="sphere")),
     (1,)),
    ("fc31-l1-open", lambda: fractal_complex(FractalSpec(3, 3, 1, 1)), (1,)),
    ("open-cube-3d", lambda: build_lattice(3, 3, "open"), (1,)),
    ("torus4d-m", lambda: punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, "m"),
     (1, 2)),
])
def test_drop_redundant_m_rows_matches_oracle_on_geometries(name, build, gradings, monkeypatch):
    seen = []  # the (H_Z, M mask) pairs css_from_complex hands to the pruning

    def spy(z, m_anchor, n):
        seen.append((z.matrix(n), list(m_anchor)))
        return _drop_redundant_m_rows(z, m_anchor, n)

    monkeypatch.setattr(code_mod, "_drop_redundant_m_rows", spy)
    cx = build()
    for i in gradings:
        css_from_complex(cx, i)
        hz, m_anchor = seen.pop()
        assert any(m_anchor), (name, i)
        expected = _drop_redundant_m_rows_oracle(hz, m_anchor)
        assert _kept(hz, m_anchor) == expected, (name, i)


def test_plain_fc31_level2_code_params_cross_checked():
    # H_Z before pruning is 2,214 x 2,304 with 534 M rows; the row-by-row
    # pruning took about 30 s here, one elimination of H_Z^T a fraction of one
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 2)), 1)
    assert code.n_qubits == 2304 and code.hz.rows == 1731
    assert code_params(code, cross_check=True).k == 1


def test_one_elimination_per_check_matrix(monkeypatch):
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1), "code"), 1)
    calls = []  # (input bytes, inside the homology cross-check)
    shapes = []  # (rows, cols) of each elimination
    in_cross_check = [False]
    real_rref, real_homology_k = gf2._rref_inplace, code_mod.homology_k

    def spy_rref(data, rows, cols):
        calls.append((data.tobytes(), in_cross_check[0]))
        shapes.append((rows, cols))
        return real_rref(data, rows, cols)

    def spy_homology_k(c):
        in_cross_check[0] = True
        try:
            return real_homology_k(c)
        finally:
            in_cross_check[0] = False

    for module in (gf2, code_mod, homology):
        monkeypatch.setattr(module, "_rref_inplace", spy_rref)
    monkeypatch.setattr(code_mod, "homology_k", spy_homology_k)

    assert code_params(code).k == 1
    zero = Gf2Vector(code.n_qubits)
    assert not is_z_logical(code, zero) and not is_x_logical(code, zero)
    before_basis = len(calls)
    zs, xs = logical_basis(code)
    assert is_z_logical(code, zs[0].z_support) and is_x_logical(code, xs[0].x_support)
    assert code_params(code, cross_check=False).k == 1

    # the two residues of the code's reduced chain complex leave one qubit
    # that no live check meets, so k and the logical tests eliminate
    # nothing; only the logical basis eliminates H_X and H_Z, once each
    red = code.reduction
    assert int(red.live.sum()) == 1 and red.x_space.rank == red.z_space.rank == 0
    dense = [code.hx.data.tobytes(), code.hz.data.tobytes()]
    outside = [data for data, inside in calls if not inside]
    assert outside == dense
    assert [shape for shape, (_, inside) in zip(shapes, calls) if not inside] == [
        (code.hx.rows, code.n_qubits), (code.hz.rows, code.n_qubits)]
    assert not any(data in dense for data, _ in calls[:before_basis])
    assert any(inside for _, inside in calls)


def _basis_digest(code) -> str:
    zs, xs = logical_basis(code)
    text = "".join(f"Z {op.z_support.indices()}\n" for op in zs) + "".join(
        f"X {op.x_support.indices()}\n" for op in xs
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the logical_basis supports, taken with the per-call
# eliminations that the cached ones replaced
@pytest.mark.parametrize("build, digest", [
    (lambda: css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1), "code"), 1),
     "f84e65c277d5c9a0"),
    (lambda: css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1)), 1),
     "fe3cde193d455e57"),
    (lambda: css_from_complex(build_lattice(2, 3, "torus"), 1), "11f615baeabf5fd1"),
    (lambda: build_color_code_2d(1).code, "1d46e5cdf124cc2b"),
    (lambda: build_color_code_2d(2).code, "23d6871d6b25f54a"),
])
def test_logical_basis_pinned(build, digest):
    assert _basis_digest(build()) == digest
