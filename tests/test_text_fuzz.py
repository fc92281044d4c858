"""Fuzzing of the text formats.

Round trips: a complex punched with random e/m holes, and the code built
on it, read back from their texts and write the same bytes.  Mutations: a
``cellcomplex v1`` text with one line or token changed either raises
ValueError, which the CLI turns into exit 2, or is accepted; an accepted
file is written in canonical form (face lists sorted with repeats
cancelled), and that form reads back to the same bytes.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from fractalcss.cli import main
from fractalcss.code import code_from_text, code_to_text, css_from_complex
from fractalcss.complexes import CellComplex, Hole, build_lattice, code_lattice, punch_holes
from fractalcss.gf2 import matrix_from_text, matrix_to_text


@st.composite
def layouts(draw):
    """(style, n, L, background, holes): a lattice and random e/m holes."""
    n = draw(st.sampled_from((2, 3)))
    L = draw(st.integers(2, 5 if n == 2 else 3))
    style = draw(st.sampled_from(("plain", "code")))
    background = draw(st.sampled_from(("open", "torus")))
    holes = []
    for hid in range(draw(st.integers(0, 3))):
        side = draw(st.integers(1, L - 1))
        origin = [draw(st.integers(-1, L - side + 1)) for _ in range(n)]
        holes.append(Hole(hid, tuple((2 * o, 2 * (o + side)) for o in origin),
                          draw(st.sampled_from("em"))))
    return style, n, L, background, holes


@st.composite
def punched(draw):
    style, n, L, background, holes = draw(layouts())
    base = code_lattice(n, L, background) if style == "code" else build_lattice(n, L, background)
    try:
        return punch_holes(base, holes)
    except ValueError:  # an e-patch left open by the outer boundary or an m-hole
        assume(False)


@settings(max_examples=60, deadline=None)
@given(punched())
def test_complex_text_round_trip(cx):
    text = cx.to_text()
    assert CellComplex.from_text(text).to_text() == text


@settings(max_examples=60, deadline=None)
@given(punched(), st.data())
def test_code_text_round_trip(cx, data):
    i = data.draw(st.integers(1, cx.dim - 1))
    text = code_to_text(css_from_complex(cx, i))
    assert code_to_text(code_from_text(text)) == text


BASE_COMPLEX = punch_holes(code_lattice(2, 3), [Hole(0, ((2, 4), (2, 4)), "e")])
BASE = BASE_COMPLEX.to_text()
TOKENS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(
    ["cell", "grade", ":", "-", "bulk", "hE0", "oE3", "x", "1:2", "0,e,0,2:4,2:4", ""]))
BASE_CODE = css_from_complex(BASE_COMPLEX, 1)
CODE_TEXT = code_to_text(BASE_CODE)
MATRIX_TEXT = matrix_to_text(BASE_CODE.hz)
CODE_TOKENS = st.one_of(st.integers(-3, 40).map(str), st.sampled_from(
    ["csscode", "v1", "nqubits", "i", "HX", "HZ", "qubitmap", "gf2matrix v1", "q", "->",
     "cell", "0", "1", "0110", "2", "x", ""]))


@st.composite
def mutated(draw, base=BASE, tokens=TOKENS):
    lines = base.splitlines()
    at = draw(st.integers(0, len(lines) - 1))
    op = draw(st.sampled_from(("drop", "copy", "swap", "token", "cut")))
    if op == "drop":
        del lines[at]
    elif op == "copy":
        lines.insert(at, lines[at])
    elif op == "swap":
        other = draw(st.integers(0, len(lines) - 1))
        lines[at], lines[other] = lines[other], lines[at]
    elif op == "token":
        toks = lines[at].split(" ")
        j = draw(st.integers(0, len(toks)))
        how = draw(st.sampled_from(("set", "insert", "delete")))
        if how == "insert" or j == len(toks):
            toks.insert(j, draw(tokens))
        elif how == "set":
            toks[j] = draw(tokens)
        else:
            del toks[j]
        lines[at] = " ".join(toks)
    else:
        lines[at] = lines[at][: draw(st.integers(0, len(lines[at])))]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_complex_raises_value_error_or_reads_canonically(text):
    try:
        written = CellComplex.from_text(text).to_text()
    except ValueError:
        return
    assert CellComplex.from_text(written).to_text() == written


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(CODE_TEXT, CODE_TOKENS))
def test_mutated_code_raises_value_error_or_reads_canonically(text):
    try:
        written = code_to_text(code_from_text(text))
    except ValueError:
        return
    assert code_to_text(code_from_text(written)) == written


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(MATRIX_TEXT, CODE_TOKENS))
def test_mutated_matrix_raises_value_error_or_reads_canonically(text):
    try:
        written = matrix_to_text(matrix_from_text(text))
    except ValueError:
        return
    assert matrix_to_text(matrix_from_text(written)) == written


@pytest.mark.parametrize("faces, rc", [(": 0 1 2 3\n", 0), (": 0 1 2\n", 2)])
def test_cli_exits_2_on_nonzero_boundary_of_boundary(tmp_path, capsys, faces, rc):
    square = "\n".join([
        "cellcomplex v1", "dim 2 background open", "meta style plain periods - - holes -",
        "grade 0 count 4", "grade 1 count 4", "grade 2 count 1",
        "cell 0 0 bulk 0 0 0 0 :", "cell 0 1 bulk 2 2 0 0 :",
        "cell 0 2 bulk 0 0 2 2 :", "cell 0 3 bulk 2 2 2 2 :",
        "cell 1 0 bulk 0 2 0 0 : 0 1", "cell 1 1 bulk 0 2 2 2 : 2 3",
        "cell 1 2 bulk 0 0 0 2 : 0 2", "cell 1 3 bulk 2 2 0 2 : 1 3",
        "cell 2 0 bulk 0 2 0 2 ",
    ]) + faces
    path = tmp_path / "square.cx"
    path.write_text(square)
    assert main(["homology", "--complex", str(path)]) == rc
    if rc:
        assert "boundary of boundary nonzero" in capsys.readouterr().err


def _drop_token(text: str, prefix: str, at: int) -> str:
    lines = text.splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    toks = lines[i].split(" ")
    del toks[at]
    lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, message", [
    (_drop_token(BASE, "cell 0 0 ", 4), "4 coordinates"),
    (_drop_token(BASE, "cell 1 2 ", 8), "4 coordinates"),
    (BASE + "cell 3 0 bulk 0 0 0 0 :\n", "1 lines after the last cell"),
    (BASE.replace("grade 1 count", "grade 1 counts"), "expected 'grade 1 count <n>'"),
    (BASE.replace("grade 2 count 6", "grade 2 count -1"), "expected 'grade 2 count <n>'"),
    (BASE.replace("holes 0,e,0,2:4,2:4", "holes 0,e,0"), "needs 2 lo:hi pairs"),
    (BASE.replace("cell 0 1 bulk 1 1 2 2 :", f"cell 0 1 bulk 1 1 2 {2**63} :"),
     f"^{2**63} is outside int64$"),
], ids=["short-box", "no-colon", "trailing-line", "grade-word", "negative-count", "boxless-hole",
        "int64-overflow"])
def test_from_text_rejects_malformed_cells(text, message):
    with pytest.raises(ValueError, match=message):
        CellComplex.from_text(text)
