"""The array text writers against the per-line writers they replaced.

`CellComplex.to_text` renders the cell lines of every grade into one byte
buffer, and `code_to_text`, `check_matrix_blocks` (the CLI's `export`) and
`gf2.matrix_to_text` write every 0/1 body through one writer of CSR rows,
`gf2._rows_to_text`.  `text_oracles` holds the writers they replaced,
verbatim: one f-string per line, and the packed words unpacked whole (the
checks from the dense `CssCode.hx` / `hz`).  Both must write the
same bytes on the FC(3,1) / FC(4,2) ladder, levels 1-2 in both styles with
m-holes and at level 2 with e- and mixed holes; 2D SC(3,1) levels 1-3; the
4D (2,2) torus, clean and with an e- or m-hole; the 40 seeded layouts of
`test_arrays` at every grading; Hypothesis's punched complexes; the sphere,
whose star vertex has box -1; `dual_with_boundary`; a code with no X check
and one with no qubit; and complexes with no coordinates, with int64's
extreme coordinates and with non-ASCII labels; `matrix_to_text` on random
matrices of no row, no column, 63-65 columns and bodies of several blocks.
The writers never build the dense check matrices.  `fractalcss code --out`
and `export --out` write the 0/1 bodies to their files a block of rows at
a time; with the block forced down to 1-3 rows, the files still hold the
bytes of `code_to_text` and of the joined `check_matrix_blocks`, on the
ladder and on a code with no qubits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import text_oracles
from fractalcss.cli import _write_blocks, main
import fractalcss.code
import fractalcss.gf2
from fractalcss.code import (
    CssCode,
    check_matrix_blocks,
    code_blocks,
    code_from_text,
    code_to_text,
    css_from_complex,
)
from fractalcss.complexes import (
    CellComplex,
    Faces,
    FractalSpec,
    build_lattice,
    dual_with_boundary,
    fractal_complex,
    punch_box,
    punch_holes,
)
from fractalcss.gf2 import Gf2Matrix, matrix_from_text, matrix_to_text
from test_arrays import punched as punched_layout
from test_arrays import seeded_layout
from test_text_fuzz import BASE, punched


def assert_complex_bytes(cx: CellComplex) -> None:
    assert cx.to_text() == text_oracles.complex_to_text(cx)


def exported(code: CssCode, which: str) -> str:
    """The ``gf2matrix v1`` file `export` writes of H_X or H_Z."""
    return b"".join(check_matrix_blocks(code, which)).decode()


def assert_code_bytes(code: CssCode) -> None:
    text = code_to_text(code)  # before the oracle builds the dense matrices
    assert text == text_oracles.code_to_text(code)
    assert exported(code, "hx") == text_oracles.matrix_to_text(code.hx)
    assert exported(code, "hz") == text_oracles.matrix_to_text(code.hz)


LADDER = {
    f"fc{p}{q}-l{level}-{style}": (FractalSpec(3, p, q, level, holes="m"), style)
    for p, q in ((3, 1), (4, 2)) for level in (1, 2) for style in ("code", "plain")
}
LADDER.update({
    "fc31-l2-e": (FractalSpec(3, 3, 1, 2, holes="e"), "code"),
    "fc31-l2-mixed": (FractalSpec(3, 3, 1, 2, holes={h: "em"[h % 2] for h in range(27)}), "code"),
})
LADDER.update({
    f"sc31-l{level}-{style}": (FractalSpec(2, 3, 1, level, holes="m"), style)
    for level in (1, 2, 3) for style in ("code", "plain")
})


@pytest.mark.parametrize("name", LADDER)
def test_ladder(name):
    spec, style = LADDER[name]
    cx = fractal_complex(spec, style)
    assert_complex_bytes(cx)
    # plain FC(4,2) level 2 prunes its Z checks densely; its complex is enough
    if name != "fc42-l2-plain":
        assert_code_bytes(css_from_complex(cx, 1))


GEOMETRIES = {
    "torus4": lambda: build_lattice(4, 2, "torus"),
    "torus4-e-hole": lambda: punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, "e"),
    "torus4-m-hole": lambda: punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, "m"),
    "sphere3": lambda: build_lattice(3, 2, "sphere"),
    "fc31-l1-sphere": lambda: fractal_complex(FractalSpec(3, 3, 1, 1, background="sphere")),
    "fc31-l1-torus": lambda: fractal_complex(FractalSpec(3, 3, 1, 1, background="torus")),
}


@pytest.mark.parametrize("name", GEOMETRIES)
def test_geometries(name):
    cx = GEOMETRIES[name]()
    assert_complex_bytes(cx)
    for i in range(1, cx.dim):
        assert_code_bytes(css_from_complex(cx, i))


@pytest.mark.parametrize("base", [
    lambda: fractal_complex(FractalSpec(3, 3, 1, 1)),
    lambda: fractal_complex(FractalSpec(3, 3, 1, 1, holes="e"), "code"),
    lambda: build_lattice(3, 2, "sphere"),
], ids=["fc31-l1", "fc31-l1-e-code", "sphere3"])
def test_dual_with_boundary(base):
    assert_complex_bytes(dual_with_boundary(base()))


def test_sphere_writes_negative_coordinates():
    text = build_lattice(3, 2, "sphere").to_text()
    assert " -1 -1 -1 -1 -1 -1 :" in text


@pytest.mark.parametrize("seed", range(40))
def test_seeded_layouts(seed):
    """The punched layout's complex; its codes at every grading, or those
    of its lattice when the punch rejects the layout."""
    lattice, holes, ref = seeded_layout(seed)
    assert_complex_bytes(punched_layout(lattice, holes, ref))
    try:
        cx = punch_holes(lattice, holes)
    except ValueError:
        cx = lattice
    for i in range(1, cx.dim):
        assert_code_bytes(css_from_complex(cx, i))


@settings(max_examples=40, deadline=None)
@given(punched(), st.data())
def test_punched_complexes(cx, data):
    assert_complex_bytes(cx)
    assert_code_bytes(css_from_complex(cx, data.draw(st.integers(1, cx.dim - 1))))


def test_codes_without_x_checks_or_qubits():
    no_x = CssCode(x_checks=Faces.empty(0), z_checks=Faces.from_pairs(2, [0, 0, 1], [0, 2, 1]),
                   grading=1, qubit_cells=[5, -1, 70])
    assert "\nHX\ngf2matrix v1\n0 3\nHZ\n" in code_to_text(no_x)
    # rows of no columns: the matrix file has its blank rows, the code file drops them
    no_qubits = CssCode(x_checks=Faces.empty(2), z_checks=Faces.empty(1), grading=2,
                        qubit_cells=[])
    assert code_to_text(no_qubits).endswith("gf2matrix v1\n1 0\nqubitmap\n")
    assert exported(no_qubits, "hx") == "gf2matrix v1\n2 0\n\n\n"
    for code in (no_x, no_qubits):
        assert_code_bytes(code)
        assert code_to_text(code_from_text(code_to_text(code))) == code_to_text(code)


@pytest.mark.parametrize("block", (None, 1, 70))
def test_matrix_to_text_matches_unpacking_writer(monkeypatch, block):
    """`matrix_to_text` writes its body from the matrix's entries as CSR
    rows, in the bytes of the writer that unpacked the words: with the
    default block (the 1,200 x 1,456 body is more than one) and with blocks
    of one row or a few."""
    if block:
        monkeypatch.setattr(fractalcss.gf2, "_BLOCK_BYTES", block)
    rng = np.random.default_rng(block or 0)
    for rows, cols in ((0, 0), (0, 5), (3, 0), (1, 1), (5, 63), (5, 64), (5, 65), (9, 130),
                       (1200, 1456)):
        for density in (0.0, 0.02, 0.5):
            m = Gf2Matrix.from_dense(rng.random((rows, cols)) < density)
            text = matrix_to_text(m)
            assert text == text_oracles.matrix_to_text(m)
            assert matrix_from_text(text) == m


def _vertices(dim: int, boxes: list, names=("bulk",)) -> CellComplex:
    n = len(boxes)
    cells = [np.array(boxes, dtype=np.int64).reshape(n, dim, 2)]
    cells += [np.zeros((0, dim, 2), dtype=np.int64)] * dim
    labels = [np.arange(n) % len(names)] + [np.zeros(0, dtype=np.int64)] * dim
    faces = [Faces.empty(n)] + [Faces.empty(0)] * dim
    return CellComplex(dim, cells, labels, names, faces)


def test_edge_complexes():
    # no coordinates: the line keeps both spaces around the empty box
    point = _vertices(0, [[], []])
    assert point.to_text().endswith("\ncell 0 0 bulk  :\ncell 0 1 bulk  :\n")
    extremes = _vertices(1, [[-2**63, -2**63], [2**63 - 1, 2**63 - 1], [0, -10]])
    unicode = CellComplex.from_text(BASE.replace("hE0", "hÉ一\U0001f600"))
    surrogate = _vertices(1, [[0, 0], [2, 2], [4, 4]], ("bulk", "h\udce9", ""))
    for cx in (point, extremes, unicode, surrogate):
        assert_complex_bytes(cx)
    assert CellComplex.from_text(extremes.to_text()).to_text() == extremes.to_text()


def test_writers_build_no_dense_check_matrix(monkeypatch, tmp_path):
    """`code_to_text`, `check_matrix_blocks`, `fractalcss code --out` and
    `fractalcss export` write from the CSR checks alone."""
    def dense(code):
        raise AssertionError("a text writer built a dense check matrix")

    monkeypatch.setattr(CssCode, "hx", property(dense))
    monkeypatch.setattr(CssCode, "hz", property(dense))
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1, holes="m"), "code"), 1)
    text = code_to_text(code)
    files = {which: exported(code, which) for which in ("hx", "hz")}
    path = tmp_path / "code.txt"
    assert main(["code", "--level", "1", "--style", "code", "--out", str(path)]) == 0
    assert path.read_text() == text
    for which in ("hx", "hz"):
        out = tmp_path / f"{which}.txt"
        assert main(["export", "--code", str(path), "--what", which, "--out", str(out)]) == 0
        assert out.read_text() == files[which]
    monkeypatch.undo()
    assert text == text_oracles.code_to_text(code)
    assert files == {"hx": text_oracles.matrix_to_text(code.hx),
                     "hz": text_oracles.matrix_to_text(code.hz)}


STREAMED = {
    "fc31-l1-code": ["--dim", "3", "--level", "1", "--style", "code"],
    "fc31-l1-plain": ["--dim", "3", "--level", "1", "--style", "plain"],
    "fc31-l2-code": ["--dim", "3", "--level", "2", "--style", "code"],
    "fc42-l1-code": ["--dim", "3", "--p", "4", "--q", "2", "--level", "1", "--style", "code"],
    "sc31-l2-code": ["--dim", "2", "--level", "2", "--style", "code"],
}


@pytest.mark.parametrize("rows", (1, 2, 3))
@pytest.mark.parametrize("name", STREAMED)
def test_cli_writes_the_bodies_in_blocks(monkeypatch, tmp_path, name, rows):
    path = tmp_path / "code.txt"
    assert main(["code", *STREAMED[name], "--out", str(path)]) == 0
    code = fractalcss.code.code_from_text(path.read_text())
    text = code_to_text(code)
    files = {which: exported(code, which) for which in ("hx", "hz")}
    monkeypatch.setattr(fractalcss.gf2, "_BLOCK_BYTES", rows * (code.n_qubits + 1))
    assert sum(1 for _ in code_blocks(code)) == (
        4 + sum(-(-len(c) // rows) for c in (code.x_checks, code.z_checks)))
    streamed = tmp_path / "streamed.txt"
    assert main(["code", *STREAMED[name], "--out", str(streamed)]) == 0
    assert streamed.read_bytes() == text.encode()
    for which in ("hx", "hz"):
        out = tmp_path / f"{which}.txt"
        assert main(["export", "--code", str(path), "--what", which, "--out", str(out)]) == 0
        assert out.read_bytes() == files[which].encode()


@pytest.mark.parametrize("rows", (1, 2, 3))
def test_blocks_of_a_code_with_no_qubits(monkeypatch, tmp_path, rows):
    """The CLI's file writer on a code with no qubits: the code file drops
    the rows of no columns, its reader reads the blank bodies back as those
    rows, and `export` writes the matrix files with their blank rows."""
    code = CssCode(x_checks=Faces.empty(3), z_checks=Faces.empty(2), grading=1, qubit_cells=[])
    text = code_to_text(code)
    files = {which: exported(code, which) for which in ("hx", "hz")}
    monkeypatch.setattr(fractalcss.gf2, "_BLOCK_BYTES", rows)
    assert [len(b) for b in check_matrix_blocks(code, "hx")][1:] == [
        len(r) for r in np.array_split(range(3), -(-3 // rows))]
    path = tmp_path / "code.txt"
    _write_blocks(str(path), code_blocks(code))
    assert path.read_bytes() == text.encode()
    for which in ("hx", "hz"):
        out = tmp_path / f"{which}.txt"
        _write_blocks(str(out), check_matrix_blocks(code, which))
        assert out.read_bytes() == files[which].encode()
        assert main(["export", "--code", str(path), "--what", which, "--out", str(out)]) == 0
        assert out.read_bytes() == files[which].encode()
        assert matrix_from_text(out.read_text()) == Gf2Matrix({"hx": 3, "hz": 2}[which], 0)
    assert files["hx"] == "gf2matrix v1\n3 0\n\n\n\n"
    assert code_to_text(code_from_text(text)) == text
