"""No GF(2) elimination over a whole code.

The smooth-patch rule keeps every non-M Z check and each M check
independent of the checks before it, the non-M checks first.
`code._smooth_patch_rows` clears the last M face of each (i+2)-cell and
asks the residue of the non-M checks' chain reduction about the rest; it
must keep the rows that the row-by-row loop below keeps (the oracle), on
random matrices (the residue's `_RowSpace.independent` alone) and on the
geometries, and the checks that the dense elimination of H_Z^T kept
(`code_oracles.check_matrices`) across the plain ladder, the 2D carpets,
the 40 seeded layouts, the tori and the spheres at every grading.  k, the
logical tests, the logical basis, the merge's parity identity and the
colour-code S check read only the residue of a reduced chain complex, so
none of them, and no code construction, eliminates a matrix with as many
rows or columns as the code has qubits.
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
    code_params,
    css_from_complex,
    is_x_logical,
    is_z_logical,
    logical_basis,
)
from fractalcss.colorcode import build_color_code_2d
from fractalcss.complexes import (
    FractalSpec, build_lattice, fractal_complex, label_is_e, label_is_m, punch_box, punch_holes,
)
from fractalcss.gf2 import Gf2Matrix, Gf2Vector
from fractalcss.homology import _RowSpace
from code_oracles import check_matrices, checks_of
from test_arrays import seeded_layout


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
    """The rows of a dense H_Z that the greedy rule keeps, asked of the row
    space of the non-M rows: every non-M row and the M rows it picks."""
    m = np.array(m_anchor, dtype=bool)
    rows, every = checks_of(hz), np.ones(hz.cols, dtype=bool)
    picked = _RowSpace(rows.restrict(~m, every), hz.cols).independent(rows.restrict(m, every))
    return sorted(np.flatnonzero(~m).tolist() + np.flatnonzero(m)[picked].tolist())


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


def _unpruned(cx, i) -> tuple[Gf2Matrix, list[bool]]:
    """H_Z of the (i, n-i) code before the smooth-patch rule, and which of
    its rows are M-anchored."""
    z_anchor = ~cx.label_mask(i + 1, label_is_e)
    qubit = ~cx.label_mask(i, label_is_e)
    hz = cx.faces[i + 1].restrict(z_anchor, qubit).matrix(int(qubit.sum()))
    return hz, cx.label_mask(i + 1, label_is_m)[z_anchor].tolist()


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
def test_drop_redundant_m_rows_matches_oracle_on_geometries(name, build, gradings):
    cx = build()
    for i in gradings:
        hz, m_anchor = _unpruned(cx, i)
        assert any(m_anchor), (name, i)
        expected = [r for r in _drop_redundant_m_rows_oracle(hz, m_anchor) if hz.row(r).weight()]
        kept = Gf2Matrix(len(expected), hz.cols, hz.data[expected])
        assert css_from_complex(cx, i).hz == kept, (name, i)


def _fc(n, p, q, level, background="open", style="plain"):
    return fractal_complex(FractalSpec(n, p, q, level, background=background), style)


def _layout(seed):
    """A seeded mixed layout, or its unpunched lattice when the punch
    rejects the layout (an e-patch left open)."""
    cx, holes, _ = seeded_layout(seed)
    try:
        return punch_holes(cx, holes)
    except ValueError:
        return cx


# name -> the complex; its codes at every grading are compared
PRUNED = {
    **{f"fc31-l{level}": (lambda level=level: _fc(3, 3, 1, level)) for level in (1, 2)},
    **{f"fc42-l{level}": (lambda level=level: _fc(3, 4, 2, level)) for level in (1, 2)},
    **{f"sc31-l{level}": (lambda level=level: _fc(2, 3, 1, level)) for level in (1, 2, 3)},
    **{f"layout{seed}": (lambda seed=seed: _layout(seed)) for seed in range(40)},
    **{f"torus{n}d-L{L}-m": (lambda n=n, L=L: punch_box(build_lattice(n, L, "torus"),
                                                      (0,) * n, 1, "m"))
       for n, L in ((2, 3), (3, 2), (3, 3), (4, 2))},
    "fc31-l1-torus": lambda: _fc(3, 3, 1, 1, "torus"),
    **{f"{name}-sphere": (lambda n=n, p=p, q=q: _fc(n, p, q, 1, "sphere"))
       for name, n, p, q in (("fc31", 3, 3, 1), ("fc42", 3, 4, 2), ("sc31", 2, 3, 1),
                             ("fc31-4d", 4, 3, 1))},
}


@pytest.mark.parametrize("name", sorted(PRUNED))
def test_smooth_patch_rule_matches_dense_oracle(name):
    cx = PRUNED[name]()
    for i in range(1, cx.dim):
        code = css_from_complex(cx, i)
        assert (code.hx, code.hz) == check_matrices(cx, i), (name, i)


def test_plain_fc31_level2_code_params_cross_checked():
    # H_Z before pruning is 2,214 x 2,304 with 534 M rows; the row-by-row
    # pruning took about 30 s here, one elimination of H_Z^T a fraction of one
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 2)), 1)
    assert code.n_qubits == 2304 and code.hz.rows == 1731
    assert code_params(code, cross_check=True).k == 1


def test_one_elimination_per_check_matrix(monkeypatch):
    """k and the logical tests eliminate only what the residues fold to, and
    the logical basis per type one transposed stack of the folded span
    and the folded cycles, with a row per component of the span residue:
    no elimination, outside the homology cross-check, has as many rows or
    columns as the code has qubits."""
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

    for module in (gf2, homology):
        monkeypatch.setattr(module, "_rref_inplace", spy_rref)
    monkeypatch.setattr(code_mod, "homology_k", spy_homology_k)

    # level 1 leaves one qubit that no live check meets; level 2 leaves 64
    # qubits and 280 Z checks, which fold to no row over one component.
    # The residues' row spaces are built for k; the basis then eliminates,
    # for Z, the one Z component against the 64 Z-cycles (the X residue
    # has no bit, so each qubit is one), then for X the 64 qubits against
    # the one X-cocycle (every qubit: the Z residue is one component with
    # no folded row).
    for level, before, basis in ((1, [], [(1, 1), (1, 1)]),
                                 (2, [(0, 1)], [(1, 64), (64, 1)])):
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


@pytest.mark.parametrize("style", ["plain", "code"])
@pytest.mark.parametrize("p, q, level", [(3, 1, 1), (3, 1, 2), (4, 2, 1), (4, 2, 2)])
def test_no_elimination_over_all_qubits_on_the_ladder(monkeypatch, style, p, q, level):
    """The code construction (the plain style's smooth-patch rule
    included) and the logical basis eliminate nothing with as many rows or
    columns as the code has qubits.  At level 1 the grading-2 code-style
    residue is the whole code (24 or 48 qubits, no pair to reduce), so
    grading 2 is asked from level 2 on."""
    cx = fractal_complex(FractalSpec(3, p, q, level), style)
    shapes = []
    real = gf2._rref_inplace

    def spy(data, rows, cols):
        shapes.append((rows, cols))
        return real(data, rows, cols)

    for module in (gf2, homology):
        monkeypatch.setattr(module, "_rref_inplace", spy)
    for i in (1, 2) if level > 1 else (1,):
        shapes.clear()
        code = css_from_complex(cx, i)
        zs, xs = logical_basis(code)
        assert len(zs) == len(xs) == code_params(code, cross_check=False).k
        assert shapes and all(max(shape) < code.n_qubits for shape in shapes), (i, shapes)


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
# otherwise, the seconds, and the peak RSS (VmHWM, kB) after code_params,
# after the basis (before the logical tests) and at the end.  The dense
# route eliminated the whole H_X and H_Z: 510 MB at level 3, and 61 GB for
# the dense H_X alone at level 4.
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
after_basis = peak_kb()
logicals = (all(is_z_logical(code, z.z_support) for z in zs)
            and all(is_x_logical(code, x.x_support) for x in xs))
paired = all(z.z_support.dot(x.x_support) == (a == b)
             for a, z in enumerate(zs) for b, x in enumerate(xs))
print(k, len(zs), len(xs), logicals, paired, seconds, after_params, after_basis, peak_kb())
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
    Z checks, in under 0.5 s, and neither it nor the logical tests lift
    the peak that code_params set."""
    k, n_z, n_x, logicals, paired, seconds, after_params, _, at_end = _basis_in_child(3, 512)
    assert (k, n_z, n_x, logicals, paired) == ("1", "1", "1", "True", "True")
    assert float(seconds) < 0.5
    assert int(at_end) <= int(after_params)


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level4_logical_basis_under_1_gb():
    """1,148,128 qubits: the residue has 4,096 qubits and 230,392 Z checks.
    The X residue has no check, so each of its qubits is a Z-cycle, and the
    one component of the Z residue picks the first.  So the basis takes
    under 0.5 s and adds less than one byte per qubit to the peak that
    code_params set (the dense transposed stack of the residue,
    4,096 x 234,488, took 1.3-1.8 s and added 120 MB)."""
    k, n_z, n_x, logicals, paired, seconds, after_params, after_basis, _ = _basis_in_child(4, 1024)
    assert (k, n_z, n_x, logicals, paired) == ("1", "1", "1", "True", "True")
    assert float(seconds) < 0.5
    # code_params ends at its peak (RSS equals VmHWM there), so any page the
    # basis touches shows; it touches less than one byte per qubit
    assert int(after_basis) - int(after_params) < 1_148_128 // 1024


# The plain FC(3,1) code at the given level, built in a child process under
# an address-space limit: a digest of its CSR checks, the number of X and
# Z checks, the seconds of css_from_complex, and the peak RSS (VmHWM, kB)
# after the build and after the code.  The dense smooth-patch rule
# eliminated the whole H_Z^T: 5.9-6.6 s and 442 MB at level 3.
_PLAIN = """
import hashlib, re, resource, sys, time
import numpy as np
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]) << 20,) * 2)
from fractalcss.code import css_from_complex
from fractalcss.complexes import FractalSpec, fractal_complex

def peak_kb():
    with open("/proc/self/status") as fh:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read())[1])

cx = fractal_complex(FractalSpec(3, 3, 1, int(sys.argv[1])))
after_build = peak_kb()
start = time.perf_counter()
code = css_from_complex(cx, 1)
seconds = time.perf_counter() - start
digest = hashlib.sha256()
for checks in (code.x_checks, code.z_checks):
    for part in (checks.ptr, checks.idx):
        digest.update(np.asarray(part, dtype=np.int64).tobytes())
print(digest.hexdigest()[:16], len(code.x_checks), len(code.z_checks), seconds, after_build,
      peak_kb())
"""


@pytest.mark.slow
@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_fc31_level3_plain_code_under_512_mb():
    """57,816 qubits and 8,862 M checks: the clearing drops 8,220 of them,
    and the other 642 are decided in the residue of the non-M checks, in
    under 0.5 s and within 15 % of the build's peak.  The checks are the
    ones the dense rule kept (digest taken with it)."""
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    out = subprocess.run([sys.executable, "-c", _PLAIN, "3", "512"],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    digest, n_x, n_z, seconds, after_build, after_code = out.stdout.split()
    assert (digest, n_x, n_z) == ("24ab6bfb4519d23e", "19664", "47727")
    assert float(seconds) <= 0.5
    assert int(after_code) <= 1.15 * int(after_build)
