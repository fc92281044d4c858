"""One GF(2) elimination per check matrix.

`_drop_redundant_m_rows` reads the kept M rows off the pivot columns of one
elimination of H_Z^T; the row-by-row loop it replaced is kept here verbatim
as the oracle.  k, the logical tests, the logical basis, the merge's parity
identity and the colour-code S check read only the residue of a reduced
chain complex, so none of them eliminates a matrix over all qubits.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import fractalcss
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
    """k and the logical tests eliminate only what the residues fold to, and
    the logical basis per type one residue check matrix and one transposed
    stack of the residue's span and cycles: no elimination, outside the
    homology cross-check, has as many rows or columns as the code has
    qubits."""
    calls = []  # (rows, cols, inside the homology cross-check)
    in_cross_check = [False]
    real_rref, real_homology_k = gf2._rref_inplace, code_mod.homology_k

    def spy_rref(data, rows, cols):
        calls.append((rows, cols, in_cross_check[0]))
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

    # level 1 leaves one qubit that no live check meets; level 2 leaves 64
    # qubits and 280 Z checks, which fold to no row over one component.
    # The basis eliminates, for Z, the residue's H_X and [H_Z; kernel]^T,
    # then for X the residue's H_Z and [H_X; kernel]^T.
    for level, before, basis in ((1, [], [(0, 1), (1, 1), (0, 1), (1, 1)]),
                                 (2, [(0, 1)], [(0, 64), (64, 344), (280, 64), (64, 1)])):
        code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, level), "code"), 1)
        calls.clear()
        assert code_params(code).k == 1
        zero = Gf2Vector(code.n_qubits)
        assert not is_z_logical(code, zero) and not is_x_logical(code, zero)
        assert any(inside for _, _, inside in calls)
        assert [(r, c) for r, c, inside in calls if not inside] == before
        calls.clear()
        zs, xs = logical_basis(code)
        assert is_z_logical(code, zs[0].z_support) and is_x_logical(code, xs[0].x_support)
        assert code_params(code, cross_check=False).k == 1
        assert [(r, c) for r, c, _ in calls] == basis
        assert all(max(r, c) < code.n_qubits for r, c, _ in calls)


def _basis_digest(code) -> str:
    zs, xs = logical_basis(code)
    text = "".join(f"Z {op.z_support.indices()}\n" for op in zs) + "".join(
        f"X {op.x_support.indices()}\n" for op in xs
    )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the logical_basis supports from the code's chain
# reduction, taken once test_packed_search's coset test passed on these
# builds (the dense route gave f84e65c277d5c9a0, fe3cde193d455e57,
# 11f615baeabf5fd1, 1d46e5cdf124cc2b and 23d6871d6b25f54a: other
# representatives of the same cosets)
@pytest.mark.parametrize("build, digest", [
    (lambda: css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1), "code"), 1),
     "73362ea58785dca4"),
    (lambda: css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1)), 1),
     "6e71a6c7fb82bbab"),
    (lambda: css_from_complex(build_lattice(2, 3, "torus"), 1), "c21b22f208d9f37b"),
    (lambda: build_color_code_2d(1).code, "4da6bb219e41f1a8"),
    (lambda: build_color_code_2d(2).code, "081eae46e80b9d13"),
])
def test_logical_basis_pinned(build, digest):
    assert _basis_digest(build()) == digest


# logical_basis on FC(3,1) at the given level, in a child process under an
# address-space limit: k, the number of pairs, whether every representative
# is a logical of its type and every pairing z_a . x_b is 1 for a = b and 0
# otherwise, the seconds, and the peak RSS (VmHWM, kB) after code_params and
# after the basis.  The dense route eliminated the whole H_X and H_Z: 510 MB
# at level 3, and 61 GB for the dense H_X alone at level 4.
_BASIS = """
import re, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]) << 20,) * 2)
from fractalcss.code import (
    code_params, css_from_complex, is_x_logical, is_z_logical, logical_basis)
from fractalcss.complexes import FractalSpec, fractal_complex

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1])

code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, int(sys.argv[1]), holes="m"), "code"), 1)
k = code_params(code).k
after_params = peak_kb()
start = time.perf_counter()
zs, xs = logical_basis(code)
seconds = time.perf_counter() - start
logicals = (all(is_z_logical(code, z.z_support) for z in zs)
            and all(is_x_logical(code, x.x_support) for x in xs))
paired = all(z.z_support.dot(x.x_support) == (a == b)
             for a, z in enumerate(zs) for b, x in enumerate(xs))
print(k, len(zs), len(xs), logicals, paired, seconds, after_params, peak_kb())
"""


def _basis_in_child(level: int, limit_mb: int) -> list[str]:
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    out = subprocess.run([sys.executable, "-c", _BASIS, str(level), str(limit_mb)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level3_logical_basis_under_512_mb():
    """42,464 qubits: the basis is taken in a residue of 512 qubits and 8,384
    Z checks, in under 0.5 s, and lifts no peak that code_params set."""
    k, n_z, n_x, logicals, paired, seconds, after_params, after_basis = _basis_in_child(3, 512)
    assert (k, n_z, n_x, logicals, paired) == ("1", "1", "1", "True", "True")
    assert float(seconds) < 0.5
    assert int(after_basis) <= int(after_params)


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level4_logical_basis_under_1_gb():
    """1,148,128 qubits: the residue has 4,096 qubits and 230,392 Z checks."""
    k, n_z, n_x, logicals, paired, *_ = _basis_in_child(4, 1024)
    assert (k, n_z, n_x, logicals, paired) == ("1", "1", "1", "True", "True")
