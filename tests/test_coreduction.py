"""Betti numbers by coreduction against the dense oracle.

``homology.betti`` collapses and coreduces the complex on its face arrays
(relative homology: those of the relative chain complex) and ranks only
the residue; ``complex_oracles.betti_numbers`` ranks the dense boundary
matrices of the whole complex, or of the quotient complex L/B.  They must
agree at every grade, absolute and relative, on the ladder geometries, the
torus, the sphere, both sides of the Lefschetz geometries, the seeded
layouts of ``test_arrays`` and random punched complexes.  So must
``homology.cobetti``, which reduces the cochain complex, and the dense
``complex_oracles.cobetti`` it replaced.
"""

import os
import resource
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings

import complex_oracles as oracle
import fractalcss
from fractalcss import cli
from fractalcss.code import code_params, css_from_complex, homology_k
from fractalcss.complexes import (
    CellComplex,
    Faces,
    FractalSpec,
    build_lattice,
    dual_with_boundary,
    fractal_complex,
    punch_box,
)
from fractalcss.homology import (
    _Reduction,
    betti,
    betti_with_caveat,
    cobetti,
    default_label_split,
    verify_lefschetz,
)
from test_arrays import punched, seeded_layout
from test_text_fuzz import punched as random_punched


def _label_sets(cx):
    """No labels, then the e-labels and the m-labels, where present."""
    return [frozenset()] + [frozenset(s) for s in default_label_split(cx) if s]


def _assert_matches_oracle(cx):
    """betti and cobetti equal the dense oracles at every grade, absolute
    and relative to each label set whose cells form a subcomplex (a
    quotient that the oracle cannot build must be refused by betti too)."""
    for labels in _label_sets(cx):
        try:
            want = oracle.betti_numbers(cx, labels)
        except ValueError as exc:
            with pytest.raises(ValueError, match="not closed under the boundary"):
                betti(cx, 1, labels)
            with pytest.raises(ValueError, match="not closed under the boundary"):
                cobetti(cx, 1, labels)
            assert "not closed under the boundary" in str(exc)
            continue
        assert [betti(cx, g, labels) for g in range(cx.dim + 1)] == want, sorted(labels)
        want = [oracle.cobetti(cx, g, labels) for g in range(cx.dim + 1)]
        assert [cobetti(cx, g, labels) for g in range(cx.dim + 1)] == want, sorted(labels)


LADDER = [
    (f"fc{p}{q}-l{level}-{style}", FractalSpec(3, p, q, level, holes="m"), style)
    for p, q in ((3, 1), (4, 2)) for level in (1, 2) for style in ("code", "plain")
] + [
    (f"sc31-l{level}-{style}", FractalSpec(2, 3, 1, level, holes="m"), style)
    for level in (1, 2, 3) for style in ("code", "plain")
]


@pytest.mark.parametrize("name, spec, style", LADDER, ids=[c[0] for c in LADDER])
def test_ladder_matches_dense(name, spec, style):
    _assert_matches_oracle(fractal_complex(spec, style))


def test_e_and_mixed_holes_match_dense():
    layout = {hid: "em"[hid % 2] for hid in range(27)}
    for holes in ("e", layout):
        _assert_matches_oracle(fractal_complex(FractalSpec(3, 3, 1, 2, holes=holes), "code"))


CLOSED = {
    "torus3": lambda: build_lattice(3, 3, "torus"),
    "sphere3": lambda: build_lattice(3, 3, "sphere"),
    "torus4": lambda: build_lattice(4, 2, "torus"),
    "torus4-e-hole": lambda: punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, "e"),
    "torus4-m-hole": lambda: punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, "m"),
}


@pytest.mark.parametrize("name", sorted(CLOSED))
def test_torus_and_sphere_match_dense(name):
    _assert_matches_oracle(CLOSED[name]())


LEFSCHETZ = {
    "fsf-l1": FractalSpec(3, 3, 1, 1, holes="m"),
    "fsf-l2": FractalSpec(3, 3, 1, 2, holes="m"),
    "torus": FractalSpec(3, 3, 1, 1, background="torus"),
    "sphere": FractalSpec(3, 3, 1, 1, background="sphere"),
}


@pytest.mark.parametrize("name", sorted(LEFSCHETZ))
def test_lefschetz_sides_match_dense(name):
    cx = fractal_complex(LEFSCHETZ[name])
    e, m = default_label_split(cx)
    dual = dual_with_boundary(cx)
    for side, labels in ((cx, e), (dual, m)):
        want = oracle.betti_numbers(side, frozenset(labels))
        assert [betti(side, g, labels) for g in range(cx.dim + 1)] == want
        want = [oracle.cobetti(side, g, frozenset(labels)) for g in range(cx.dim + 1)]
        assert [cobetti(side, g, labels) for g in range(cx.dim + 1)] == want
    rep = verify_lefschetz(cx, 1, e, m)
    assert rep.equal and rep.dim_relative_e == oracle.betti(cx, 1, frozenset(e))


@pytest.mark.parametrize("seed", range(40))
def test_seeded_layouts_match_dense(seed):
    _assert_matches_oracle(punched(*seeded_layout(seed)))


@settings(max_examples=40, deadline=None)
@given(random_punched())
def test_random_punched_complexes_match_dense(cx):
    _assert_matches_oracle(cx)


def _two_columns():
    """The 2D plain L = 3 square with e-columns oE0 (x = 0) and oE1 (x = 6),
    cut down to those two columns: two components."""
    cx = build_lattice(2, 3, "open", e_axes=(0,))
    return cx.delete([(c[:, 0, 0] <= 4) & (c[:, 0, 1] >= 2) for c in cx.cells])


@pytest.mark.parametrize("build, labels, want", [
    (_two_columns, set(), (2, False)),
    (_two_columns, {"oE0"}, (2, True)),  # the point and the oE1 column
    (_two_columns, {"oE0", "oE1"}, (1, True)),
    (lambda: build_lattice(2, 2, "open"), {"oE2", "oE3"}, (1, True)),
    (lambda: fractal_complex(FractalSpec(2, 3, 1, 2, holes="e"), "code"), "e", (1, True)),
    (lambda: dual_with_boundary(fractal_complex(FractalSpec(3, 3, 1, 1))), "m", (1, True)),
], ids=["columns", "columns-oE0", "columns-both", "square-e", "sc31-e-holes", "dual-m"])
def test_grade0_relative_caveat_values(build, labels, want):
    # with labels the value is H_0 of the quotient complex, one more than
    # the reduced relative group, and the flag is set
    cx = build()
    if isinstance(labels, str):
        labels = default_label_split(cx)["em".index(labels)]
    assert betti_with_caveat(cx, 0, labels) == want
    assert want[0] == oracle.betti(cx, 0, frozenset(labels))


def test_no_seed_while_an_edge_has_an_odd_vertex_count():
    # edges {0,1,2}, {1,2}, {0,3,4}, {3,4}: no free face and no edge with
    # one vertex, and vertex 0 = e0 + e1 is a boundary, so removing it as a
    # seed would count a component too many
    faces = Faces.from_pairs(4, [0, 0, 0, 1, 1, 2, 2, 2, 3, 3], [0, 1, 2, 1, 2, 0, 3, 4, 3, 4])
    cx = CellComplex(1, [np.zeros((5, 1, 2), dtype=np.int64), np.zeros((4, 1, 2), dtype=np.int64)],
                     [np.zeros(5, dtype=np.int64), np.zeros(4, dtype=np.int64)], ["bulk"],
                     [Faces.empty(5), faces])
    assert [betti(cx, 0), betti(cx, 1)] == oracle.betti_numbers(cx) == [2, 1]


def _refuse_dense_grades(monkeypatch, *sides):
    """Make `Faces.matrix` raise on a matrix with as many rows or columns as
    a whole grade of a (complex, labels) side, absolute or relative: only
    reduced residues may become dense."""
    whole = set()
    for cx, labels in sides:
        whole |= {cx.n_cells(k) for k in range(cx.dim + 1)}
        whole |= {len(fs) for fs in oracle.relative_faces(cx, labels)}
    whole.discard(0)
    matrix = Faces.matrix

    def guarded(self, cols):
        if {len(self), cols} & whole:
            raise AssertionError(f"a whole grade became dense: {len(self)} x {cols}")
        return matrix(self, cols)

    monkeypatch.setattr(Faces, "matrix", guarded)


def test_betti_never_builds_a_full_boundary_matrix(monkeypatch):
    cx = fractal_complex(FractalSpec(3, 3, 1, 2, holes="m"), "code")
    e, _ = default_label_split(cx)
    plain = fractal_complex(FractalSpec(3, 3, 1, 1))
    plain_e, plain_m = default_label_split(plain)
    _refuse_dense_grades(monkeypatch, (cx, e), (plain, plain_e),
                         (dual_with_boundary(plain), plain_m))
    assert [betti(cx, g, e) for g in range(4)] == [1, 1, 25, 0]
    assert [betti(cx, g) for g in range(4)] == [1, 0, 25, 0]
    assert verify_lefschetz(plain, 1, plain_e, plain_m).equal


def test_cobetti_never_builds_a_full_boundary_matrix(monkeypatch):
    cx = fractal_complex(FractalSpec(3, 3, 1, 2, holes="m"), "code")
    e, _ = default_label_split(cx)
    _refuse_dense_grades(monkeypatch, (cx, e))
    assert [cobetti(cx, g, e) for g in range(4)] == [1, 1, 25, 0]
    assert [cobetti(cx, g) for g in range(4)] == [1, 0, 25, 0]
    with pytest.raises(ValueError, match="out of range"):
        cobetti(cx, 4)


def test_homology_routes_never_build_the_quotient(monkeypatch, capsys):
    def refuse(self, labels):
        raise AssertionError("a homology route built the quotient complex")

    monkeypatch.setattr(CellComplex, "quotient_to_point", refuse)
    cx = fractal_complex(FractalSpec(3, 3, 1, 2, holes="m"), "code")
    e, _ = default_label_split(cx)
    assert [betti(cx, g, e) for g in range(4)] == [cobetti(cx, g, e) for g in range(4)]
    plain = fractal_complex(FractalSpec(3, 3, 1, 1))
    assert verify_lefschetz(plain, 1, *default_label_split(plain)).equal
    assert code_params(css_from_complex(cx, 1)).k == 1
    assert cli.main(["homology", "--level", "2", "--relative", "e"]) == 0
    assert capsys.readouterr().out == "betti[1]=1 cobetti[1]=1\n"


# A reduction that drops one edge of a square without its partner: the
# residue's boundaries no longer square to zero, with and without -O.
_GUARD_UNDER_O = textwrap.dedent("""
    import numpy as np
    from fractalcss import homology
    from fractalcss.complexes import BoundaryError, build_lattice
    cx = build_lattice(2, 1, "open")
    def drop_one_edge(self):
        live = [np.ones(cx.n_cells(k), dtype=bool) for k in range(3)]
        live[1][0] = False
        return live, 0
    homology._Reduction.run = drop_one_edge
    try:
        homology.betti(cx, 1)
    except BoundaryError as exc:
        print(type(exc).__name__, exc)
""")


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_residue_guard_raises_under_optimize(flags):
    src = os.path.dirname(os.path.dirname(fractalcss.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, *flags, "-c", _GUARD_UNDER_O], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "BoundaryError reduced complex: boundary of boundary nonzero at grade 2"


def test_residue_is_small():
    # FC(4,2) level 2, relative to the e-labels: 6,480 edges and 4,782
    # faces in the relative chain complex, a residue of a few hundred
    cx = fractal_complex(FractalSpec(3, 4, 2, 2, holes="m"), "code")
    e, _ = default_label_split(cx)
    down = oracle.relative_faces(cx, e)
    assert [len(fs) for fs in down] == [2592, 6480, 4782, 846]
    live, seeds = _Reduction(down).run()
    assert seeds == [0, 0, 0, 0] and [int(keep.sum()) for keep in live] == [0, 132, 180, 0]
    # its cochain complex (cofaces, grades reversed) leaves the mirrored
    # residue
    up = [down[k + 1].transpose(len(down[k])) for k in (2, 1, 0)]
    cochains = [Faces.empty(len(down[3]))] + up
    live, seeds = _Reduction(cochains).run()
    assert seeds == [0, 0, 0, 0] and [int(keep.sum()) for keep in live] == [0, 180, 132, 0]


# -- scale (slow) ---------------------------------------------------------------


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@pytest.mark.slow
def test_fc31_level4_relative_h1():
    # FC(3,1) level 4 (L = 81, 18,279 m-holes), code style: about 6 s to
    # build, 0.2-0.3 s to restrict to the relative chain complex, 0.8-1.0 s
    # to reduce it to 3,440 edges and 19,736 faces, 0.2 s to rank them; in
    # a process of its own no RSS above the build's 775 MB (2 cores)
    t0 = time.perf_counter()
    cx = fractal_complex(FractalSpec(3, 3, 1, 4, holes="m"), "code")
    t1 = time.perf_counter()
    e, _ = default_label_split(cx)
    assert betti(cx, 1, e) == 1
    t2 = time.perf_counter()
    print(f"level 4: build {t1 - t0:.1f}s, betti {t2 - t1:.1f}s, "
          f"process peak RSS {_peak_rss_mb():.0f} MB")


@pytest.mark.slow
def test_fc31_level3_code_params_cross_checked():
    t0 = time.perf_counter()
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 3, holes="m"), "code"), 1)
    t1 = time.perf_counter()
    assert code_params(code).k == 1 == homology_k(code)
    t2 = time.perf_counter()
    print(f"level 3: code {t1 - t0:.1f}s, code_params {t2 - t1:.1f}s, "
          f"process peak RSS {_peak_rss_mb():.0f} MB")
