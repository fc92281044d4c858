"""Face-list boundaries: the ∂∂ = 0 check against a dense GF(2) oracle,
rejection of a bad complex, and byte-pinned outputs of every builder.

The oracle is the dense product ``boundary_matrix(k-1) @ boundary_matrix(k)``
that complexes used to store and check; it lives here as the reference for
the face-list parity check.  The digests are sha256 of the ``cellcomplex v1``
and ``csscode v1`` texts the dense-matrix implementation wrote for the same
inputs.
"""

import hashlib
import random

import pytest

from fractalcss.code import code_to_text, css_from_complex
from fractalcss.colorcode import build_color_code_2d, shrunk_lattices
from fractalcss.complexes import (
    CellComplex,
    FractalSpec,
    build_lattice,
    code_lattice,
    dual_with_boundary,
    fractal_complex,
    punch_box,
)
from fractalcss.gates import merge_rough

from complex_oracles import boundary_matrix, delete_indexed, faces


def _dense_dd_zero(cx: CellComplex) -> bool:
    return all(
        not boundary_matrix(cx, k - 1).matmul(boundary_matrix(cx, k)).data.any()
        for k in range(2, cx.dim + 1)
    )


def _face_check_passes(cx: CellComplex) -> bool:
    try:
        cx.assert_dd_zero()
    except AssertionError:
        return False
    return True


def _layout(seed: int, n_holes: int) -> dict[int, str]:
    rng = random.Random(seed)
    return {h: rng.choice("em") for h in range(n_holes)}


def _fc31(level: int, holes) -> CellComplex:
    return fractal_complex(FractalSpec(3, 3, 1, level, holes=holes), "code")


def _torus4d(kind: str) -> CellComplex:
    return punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, kind)


def _merged(cx: CellComplex) -> CellComplex:
    a, b = css_from_complex(cx, 1), css_from_complex(cx, 1)
    return merge_rough(a, b).merged.source


# name -> (complex builder, code grading or None)
CASES = {
    # level 1 has a single hole, so its mixed layouts are the m and e cases
    **{
        f"fc31-l{level}-{tag}": (lambda level=level, holes=holes: _fc31(level, holes), 1)
        for level in (1, 2)
        for tag, holes in (("m", "m"), ("e", "e"))
    },
    **{
        f"fc31-l2-mixed{s}": (lambda s=s: _fc31(2, _layout(s, 27)), 1)
        for s in (1, 2, 3)
    },
    "fc42-l1-m": (lambda: fractal_complex(FractalSpec(3, 4, 2, 1, holes="m"), "code"), 1),
    "torus4d-e": (lambda: _torus4d("e"), 2),
    "torus4d-m": (lambda: _torus4d("m"), 2),
    "sphere": (lambda: fractal_complex(FractalSpec(3, 3, 1, 1, background="sphere")), 1),
    "torus": (lambda: fractal_complex(FractalSpec(3, 3, 1, 1, background="torus")), 1),
    "dual-with-boundary": (
        lambda: dual_with_boundary(fractal_complex(FractalSpec(3, 3, 1, 1))), None
    ),
    "transpose-dual": (lambda: build_lattice(3, 2, "torus").transpose_dual(), 1),
    "shrunk-a": (lambda: shrunk_lattices(build_color_code_2d(2))[0], 1),
    "shrunk-b": (lambda: shrunk_lattices(build_color_code_2d(2))[1], 1),
    "merge-rough": (lambda: _merged(code_lattice(3, 2)), 1),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _digests(name: str) -> tuple[str, str | None]:
    build, grading = CASES[name]
    cx = build()
    code = _sha(code_to_text(css_from_complex(cx, grading))) if grading else None
    return _sha(cx.to_text()), code


# sha256 prefixes of (to_text, code_to_text) written by the dense-matrix
# implementation
DIGESTS = {
    "dual-with-boundary": ("9006326023b301c3", None),
    "fc31-l1-e": ("1b70fc41a99e83cc", "68eaa00ebc26a49a"),
    "fc31-l1-m": ("710bb8f8959bc805", "a7160cdc59026677"),
    "fc31-l2-e": ("c56ca60e9be59d63", "b2f0cacafdc96c9d"),
    "fc31-l2-m": ("866768c12cd2223a", "d0da2a9d1b9ec873"),
    "fc31-l2-mixed1": ("0ac91733ef490625", "6b29d2a8c2f73c55"),
    "fc31-l2-mixed2": ("d6d489e732363055", "58cbad44b7481867"),
    "fc31-l2-mixed3": ("588e336fe4ca973d", "0fb3b1af22fdbe10"),
    "fc42-l1-m": ("bad84973a48b75d6", "3ebe6b07b4c189a7"),
    "merge-rough": ("9dbd0081ee9170e9", "494f1677eaea7ffb"),
    "shrunk-a": ("c71092a77ef254a6", "22cbf003f44f680f"),
    "shrunk-b": ("9abf79002bb4bed9", "951027e0b264606c"),
    "sphere": ("3e9e10ed55b5761d", "47d1ccbd8203e946"),
    "torus": ("0718d03457dcb6ab", "b89591f73fdbb71b"),
    "torus4d-e": ("f4b3fbe878c6b8ae", "fc1ffd73f0a0fe78"),
    "torus4d-m": ("19e5dc54f9a43871", "3b5654ca08126e40"),
    "transpose-dual": ("cbfc0ba7a6633385", "f67cae09196fefaa"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_byte_identical(name):
    assert _digests(name) == DIGESTS[name]


SHIPPED = {
    "open": lambda: build_lattice(3, 2, "open"),
    "torus": lambda: build_lattice(3, 2, "torus"),
    "sphere": lambda: build_lattice(3, 2, "sphere"),
    "torus4d": lambda: build_lattice(4, 2, "torus"),
    "code": lambda: code_lattice(3, 3),
    "fc31-l1-plain": lambda: fractal_complex(FractalSpec(3, 3, 1, 1)),
    "fc31-l1-code-e": lambda: _fc31(1, "e"),
    "sc31-l2": lambda: fractal_complex(FractalSpec(2, 3, 1, 2)),
    "dual-with-boundary": lambda: dual_with_boundary(fractal_complex(FractalSpec(3, 3, 1, 1))),
    "shrunk": lambda: shrunk_lattices(build_color_code_2d(2))[1],
}


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_face_check_agrees_with_dense_oracle_on_shipped(name):
    cx = SHIPPED[name]()
    assert _dense_dd_zero(cx) and _face_check_passes(cx)


def _upward_closure(cx: CellComplex, doomed: list[set[int]]) -> list[set[int]]:
    closed = [set(d) for d in doomed]
    for k in range(1, cx.dim + 1):
        closed[k] |= {i for i, fs in enumerate(cx.faces[k]) if closed[k - 1] & set(fs)}
    return closed


@pytest.mark.parametrize("seed", range(len(SHIPPED)))
def test_delete_matches_dense_restriction(seed):
    """`delete` keeps exactly the dense submatrix of each boundary map, and
    raises iff the restricted dense product d d is nonzero."""
    rng = random.Random(seed)
    cx = SHIPPED[sorted(SHIPPED)[seed % len(SHIPPED)]]()
    dense = [boundary_matrix(cx, k) for k in range(cx.dim + 1)]
    raw = [
        set(rng.sample(range(cx.n_cells(k)), rng.randint(0, cx.n_cells(k) // 8)))
        for k in range(cx.dim + 1)
    ]
    for doomed in (raw, _upward_closure(cx, raw)):
        keep = [[i for i in range(cx.n_cells(k)) if i not in doomed[k]]
                for k in range(cx.dim + 1)]
        restricted = [None] + [
            dense[k].submatrix(keep[k - 1], keep[k]) for k in range(1, cx.dim + 1)
        ]
        bad = [k for k in range(2, cx.dim + 1)
               if restricted[k - 1].matmul(restricted[k]).data.any()]
        if bad:
            with pytest.raises(AssertionError, match=f"nonzero at grade {bad[0]}$"):
                delete_indexed(cx, doomed)
            continue
        sub = delete_indexed(cx, doomed)
        for k in range(1, cx.dim + 1):
            assert boundary_matrix(sub, k) == restricted[k]
    assert not bad  # the upward closure always restricts to a complex


BAD_COMPLEX = """cellcomplex v1
dim 2 background open
meta style plain periods - - holes -
grade 0 count 4
grade 1 count 4
grade 2 count 1
cell 0 0 bulk 0 0 0 0 :
cell 0 1 bulk 2 2 0 0 :
cell 0 2 bulk 0 0 2 2 :
cell 0 3 bulk 2 2 2 2 :
cell 1 0 bulk 0 2 0 0 : 0 1
cell 1 1 bulk 0 2 2 2 : 2 3
cell 1 2 bulk 0 0 0 2 : 0 2
cell 1 3 bulk 2 2 0 2 : 1 3
cell 2 0 bulk 0 2 0 2 : 0 1 2
"""


def test_from_text_rejects_nonzero_dd():
    good = BAD_COMPLEX.replace(": 0 1 2\n", ": 0 1 2 3\n")
    assert CellComplex.from_text(good).n_cells(2) == 1
    with pytest.raises(AssertionError, match="boundary of boundary nonzero at grade 2"):
        CellComplex.from_text(BAD_COMPLEX)


def test_from_text_cancels_repeated_faces_mod_2():
    doubled = BAD_COMPLEX.replace(": 0 1 2\n", ": 3 0 1 2 1 1\n")
    cx = CellComplex.from_text(doubled)
    assert faces(cx, 2) == [(0, 1, 2, 3)]


def test_from_text_rejects_face_index_out_of_range():
    for faces in (": 0 1 2 4\n", ": -1 0 1 2\n"):
        with pytest.raises(ValueError, match="face index out of range"):
            CellComplex.from_text(BAD_COMPLEX.replace(": 0 1 2\n", faces))
