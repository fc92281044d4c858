"""Betti numbers of the lattice families and the duality identities."""

import numpy as np
import pytest

from fractalcss.complexes import (
    FractalSpec,
    build_lattice,
    fractal_complex,
)
from fractalcss.homology import (
    betti,
    betti_with_caveat,
    cobetti,
    default_label_split,
    verify_lefschetz,
)

from complex_oracles import delete_indexed


def _e_labels(cx):
    return {lb for lb in cx.labels_present() if lb.startswith("oE")}


def test_torus_2d_h1():
    cx = build_lattice(2, 3, "torus")
    assert betti(cx, 1) == 2
    assert cobetti(cx, 1) == 2


def test_torus_3d_h1_is_three():
    cx = build_lattice(3, 2, "torus")
    assert betti(cx, 1) == 3
    assert betti(cx, 2) == 3
    assert betti(cx, 0) == 1 and betti(cx, 3) == 1


def test_ball_is_contractible():
    cx = build_lattice(3, 2, "open")
    assert betti(cx, 1) == 0
    assert cobetti(cx, 1) == 0


def test_surface_code_relative_h1():
    # collapsing both rough sides of the square leaves one relative 1-cycle
    cx = build_lattice(2, 2, "open")
    assert betti(cx, 1, _e_labels(cx)) == 1


def test_punctured_sphere_h1_vanishes():
    spec = FractalSpec(3, 3, 1, 1, background="sphere", holes="m")
    cx = fractal_complex(spec)
    assert betti(cx, 1) == 0


def test_punctured_3torus_h1():
    spec = FractalSpec(3, 3, 1, 1, background="torus", holes="m")
    cx = fractal_complex(spec)
    assert betti(cx, 1) == 3


def test_fractal_surface_code_relative_h1():
    spec = FractalSpec(3, 3, 1, 1, background="open", holes="m")
    cx = fractal_complex(spec)
    assert betti(cx, 1, _e_labels(cx)) == 1


def test_fsf_level_independence():
    # connected-sum decomposition: the relative Betti number matches the
    # level-0 value at every level
    base = betti(build_lattice(3, 3, "open"), 1, _e_labels(build_lattice(3, 3, "open")))
    for level in (1, 2):
        cx = fractal_complex(FractalSpec(3, 3, 1, level, holes="m"))
        assert betti(cx, 1, _e_labels(cx)) == base == 1


def test_betti_equals_cobetti_on_random_sublattices():
    rng = np.random.default_rng(42)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4 if n == 3 else 6))
        cx = build_lattice(n, L, "torus")
        # delete a random upward-closed set: drop some top cells
        doomed = [set() for _ in range(n + 1)]
        n_top = cx.n_cells(n)
        doomed[n] = set(
            int(i) for i in rng.choice(n_top, size=int(rng.integers(0, n_top // 2 + 1)), replace=False)
        )
        sub = delete_indexed(cx, doomed)
        for grade in range(n + 1):
            assert betti(sub, grade) == cobetti(sub, grade)
            checked += 1
    assert checked >= 200


def test_alexander_duality_consequence_sphere_backgrounds():
    # uniform m-holes on a sphere background leave no 1-cycles
    for n, p, q, level in [(3, 3, 1, 1), (3, 3, 1, 2), (4, 3, 1, 1)]:
        cx = fractal_complex(FractalSpec(n, p, q, level, background="sphere", holes="m"))
        assert betti(cx, 1) == 0


@pytest.mark.slow
def test_alexander_duality_consequence_4d_level2():
    cx = fractal_complex(FractalSpec(4, 3, 1, 2, background="sphere", holes="m"))
    assert betti(cx, 1) == 0


def test_reduced_caveat_flag_at_grade0():
    cx = build_lattice(2, 2, "open")
    value, reduced_caveat = betti_with_caveat(cx, 0, _e_labels(cx))
    assert reduced_caveat and value == betti(cx, 0, _e_labels(cx))
    assert not betti_with_caveat(cx, 0)[1]
    assert not betti_with_caveat(cx, 1, _e_labels(cx))[1]


def test_lefschetz_no_hole_square():
    cx = build_lattice(2, 2, "open")
    e, m = default_label_split(cx)
    rep = verify_lefschetz(cx, 1, e, m)
    assert rep.equal and rep.dim_relative_e == 1


def test_lefschetz_fractal_surface_code():
    cx = fractal_complex(FractalSpec(3, 3, 1, 1, holes="m"))
    e, m = default_label_split(cx)
    rep = verify_lefschetz(cx, 1, e, m)
    assert rep.equal and rep.dim_relative_e == 1


def test_lefschetz_punctured_torus():
    cx = fractal_complex(FractalSpec(3, 3, 1, 1, background="torus", holes="m"))
    e, m = default_label_split(cx)
    assert e == set()
    rep = verify_lefschetz(cx, 1, e, m)
    assert rep.equal and rep.dim_relative_e == 3


def test_lefschetz_overlap_rejected():
    cx = build_lattice(2, 2, "open")
    e, m = default_label_split(cx)
    with pytest.raises(ValueError):
        verify_lefschetz(cx, 1, e | {next(iter(m))}, m)


def test_betti_grade_out_of_range():
    cx = build_lattice(2, 2, "open")
    for grade in (-1, 3):
        with pytest.raises(ValueError, match="out of range"):
            betti(cx, grade)


# (p, q, level) -> H_2 in the code style, H_2 in the plain style, as measured
H2_BY_STYLE = {
    (3, 1, 1): (1, 1), (3, 1, 2): (25, 27),
    (4, 2, 1): (1, 1), (4, 2, 2): (49, 57),
}


@pytest.mark.parametrize("p, q, level", sorted(H2_BY_STYLE))
def test_styles_agree_except_h2(p, q, level):
    # H_0, H_1, H_1(L, B_e) and H_3 agree between the code and plain
    # styles; H_2 differs from level 2 on (pinned here, as observed)
    spec = FractalSpec(3, p, q, level, holes="m")
    code, plain = (fractal_complex(spec, style) for style in ("code", "plain"))
    for g in (0, 1, 3):
        assert betti(code, g) == betti(plain, g)
    e_code, e_plain = (default_label_split(cx)[0] for cx in (code, plain))
    assert betti(code, 1, e_code) == betti(plain, 1, e_plain)
    assert (betti(code, 2), betti(plain, 2)) == H2_BY_STYLE[p, q, level]
