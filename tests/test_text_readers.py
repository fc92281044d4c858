"""The array text readers against the line-by-line readers they replaced.

`CellComplex.from_text`, `code_from_text` and `matrix_from_text` parse
arrays; `text_oracles` holds the readers they replaced, verbatim.  On every
input both raise ValueError, or both return the same object: for a complex
the boxes, label codes and table, faces, holes and periods; for a code the
checks and qubit cells; for a matrix the packed words.  The inputs are the
punched complexes of the fuzz tests and their codes and check matrices,
the fuzz tests' mutated corpora of all three formats, the same texts with
their whitespace and line breaks loosened, and the benchmark's FC(3,1)
level-2 files (m-holes, and the seeded e/m layout 7).  Fixed cases pin
what the fuzzing may miss: signs without digits, every kind of space
between tokens, which fault is reported when two grades have one, and
line breaks other than "\\n" (``\\r\\n``, ``\\x0b``, ``\\x1c``) inside a 0/1
body, inside the qubit map and the head (also splitting one of their
lines) and hiding a section word in a body, which the readers read as
they read the text with "\\n" breaks; and `code_from_text` parses each
text once, after giving it "\\n" breaks.

Five intended differences, the first three on inputs the old readers
accepted or crashed on: `code_from_text` rejects a qubitmap line
``q <j> -> cell <c>`` whose j is not the line's position, which the old
reader never read; every reader rejects an integer token, in a header as
in a cell or qubitmap line, that `int` reads but that is not ASCII digits
after an optional sign (``1_0``, other scripts' digits) or that lies
outside int64; and `CellComplex.from_text` rejects a dimension that needs
more grade lines than the file has, where the old reader ran out of memory
on one near 2**63.  By the same integer rule `matrix_from_text` reads a
sign in its shape line (``+2``), which the old reader refused.  And a
matrix body of R rows of no columns, blank as the writers write it (R bare
line breaks in a matrix file, none in a code file), reads as those R rows,
where the old readers found no data line.
"""

import random
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import text_oracles
from fractalcss import code as code_module
from fractalcss._text import with_newlines
from fractalcss.code import code_from_text, code_to_text, css_from_complex
from fractalcss.complexes import CellComplex, FractalSpec, fractal_complex
from fractalcss.gf2 import matrix_from_text, matrix_to_text
from test_text_fuzz import (
    BASE, CODE_TEXT, CODE_TOKENS, MATRIX_TEXT, mutated, punched,
)


def _complex_fields(cx: CellComplex):
    return (cx.dim, cx.background, cx.style, cx.periods, cx.holes, cx.label_names,
            [(c.dtype.str, c.tolist()) for c in cx.cells],
            [(lb.dtype.str, lb.tolist()) for lb in cx.labels],
            [(f.ptr.tolist(), f.idx.tolist()) for f in cx.faces])


def _code_fields(code):
    return (code.n_qubits, code.grading, code.qubit_cells.dtype.str, code.qubit_cells.tolist(),
            [(f.ptr.tolist(), f.idx.tolist()) for f in (code.x_checks, code.z_checks)])


def _matrix_fields(m):
    return m.rows, m.cols, m.data.dtype.str, m.data.tolist()


READERS = {
    "complex": (CellComplex.from_text, text_oracles.complex_from_text, _complex_fields),
    "code": (code_from_text, text_oracles.code_from_text, _code_fields),
    "matrix": (matrix_from_text, text_oracles.matrix_from_text, _matrix_fields),
}


def _outcome(read, fields, text):
    try:
        return fields(read(text))
    except ValueError as err:
        return ValueError, str(err)
    except MemoryError:  # the old reader, on a dimension near 2**63; the new one refuses it
        assert read is text_oracles.complex_from_text
        return ValueError, "out of memory"
    except OverflowError as err:  # the old reader's qubit cell past int64, which the
        assert read is text_oracles.code_from_text  # code's int64 cells cannot hold
        return OverflowError, str(err)


def _misnumbered_qubitmap(text: str) -> bool:
    """Whether some non-blank line after the qubitmap line does not name
    the qubit of its position."""
    lines = text.splitlines()
    rows = [ln.split() for ln in lines[lines.index("qubitmap") + 1 :] if ln.strip()]
    return any(row[1] != str(q) for q, row in enumerate(rows))


def assert_readers_agree(kind: str, text: str, messages: bool = True) -> None:
    new, old, fields = READERS[kind]
    got, want = _outcome(new, fields, text), _outcome(old, fields, text)
    if want[0] is ValueError and want[1].endswith("data lines, got 0") and got[0] is not ValueError:
        assert (got[1] if kind == "matrix" else got[0]) == 0, got  # no columns
        return
    if got[0] is ValueError and want[0] is not ValueError:
        assert ("outside int64" in got[1] or kind == "code"
                and got[1].startswith("expected 'q ") and _misnumbered_qubitmap(text)), got
        return
    if messages or got[0] is not ValueError:
        assert got == want
    else:
        assert want[0] is ValueError, (got, want)


# -- generated texts ---------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(punched(), st.data())
def test_punched_complexes_codes_and_matrices(cx, data):
    assert_readers_agree("complex", cx.to_text())
    code = css_from_complex(cx, data.draw(st.integers(1, cx.dim - 1)))
    assert_readers_agree("code", code_to_text(code))
    assert_readers_agree("matrix", matrix_to_text(data.draw(st.sampled_from((code.hx, code.hz)))))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_mutated_complexes(text):
    assert_readers_agree("complex", text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(CODE_TEXT, CODE_TOKENS))
def test_mutated_codes(text):
    assert_readers_agree("code", text)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(MATRIX_TEXT, CODE_TOKENS))
def test_mutated_matrices(text):
    assert_readers_agree("matrix", text)


# whitespace that str.split and str.strip skip, and the line breaks of
# str.splitlines
SPACES = st.text(st.sampled_from(" \t\x1f\xa0\u3000"), min_size=1, max_size=3)
BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1e", "\x85", "\u2028"])


@st.composite
def loosened(draw, text):
    """The text with runs of whitespace for its single spaces, whitespace
    around its lines, blank lines between them and any line breaks.  Where
    a format reads its lines exactly (the first line of a complex, the
    section words of a code), the readers must still agree."""
    out = []
    for line in text.splitlines():
        if draw(st.booleans()):
            line = line.replace(" ", draw(SPACES))
        if draw(st.integers(0, 4)) == 0:
            line = draw(SPACES) + line + draw(SPACES)
        if draw(st.integers(0, 6)) == 0:
            out.append(draw(SPACES) if draw(st.booleans()) else "")
        out.append(line)
    return "".join(line + draw(BREAKS) for line in out)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_loosened_texts(data):
    kind, base = data.draw(st.sampled_from(
        [("complex", BASE), ("code", CODE_TEXT), ("matrix", MATRIX_TEXT)]))
    assert_readers_agree(kind, data.draw(loosened(base)))


INTEGERS = st.sampled_from(["+5", "-0", "007", "-", "+", "- 1", "9223372036854775807",
                            "9223372036854775808", "-9223372036854775809", "1e3", "0x1"])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(BASE, INTEGERS))
def test_complexes_with_odd_integers(text):
    """Signs, leading zeros, lone signs and values past int64: the messages
    may differ where a line has two faults, the outcome may not."""
    assert_readers_agree("complex", text, messages=False)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated(CODE_TEXT, INTEGERS))
def test_codes_with_odd_integers(text):
    assert_readers_agree("code", text, messages=False)


# -- the benchmark's files ----------------------------------------------------


def _benchmark_texts(holes) -> dict[str, str]:
    cx = fractal_complex(FractalSpec(3, 3, 1, 2, holes=holes), "code")
    code = css_from_complex(cx, 1)
    return {"complex": cx.to_text(), "code": code_to_text(code), "matrix": matrix_to_text(code.hz)}


@pytest.fixture(scope="module", params=["fixed", "seeded-7"])
def level2_texts(request):
    if request.param == "fixed":
        return _benchmark_texts("m")
    # the benchmark's seeded layout: 14 of the 26 level-2 holes are e-holes
    e_holes = set(random.Random(7).sample(range(1, 27), 14))
    return _benchmark_texts({hid: "e" if hid in e_holes else "m" for hid in range(27)})


@pytest.mark.parametrize("kind", READERS)
def test_level2_benchmark_files(level2_texts, kind):
    text = level2_texts[kind]
    assert_readers_agree(kind, text)
    new, _, _ = READERS[kind]
    writer = {"complex": CellComplex.to_text, "code": code_to_text, "matrix": matrix_to_text}
    assert writer[kind](new(text)) == text


# -- the intended differences and the parser the readers rely on ---------------


def test_intended_differences():
    """Only the new code reader reads the qubit index; only int() reads
    underscores between digits; only the new complex reader checks the
    dimension against the file's length."""
    lines = CODE_TEXT.splitlines(keepends=True)
    at = lines.index("qubitmap\n") + 1
    lines[at], lines[at + 1] = lines[at + 1], lines[at]
    swapped = "".join(lines)
    text_oracles.code_from_text(swapped)
    with pytest.raises(ValueError, match="expected 'q 0 -> cell <c>', got 'q 1 -> cell"):
        code_from_text(swapped)
    underscored = BASE.replace("cell 0 0 oE2 1 1 0 0 :", "cell 0 0 oE2 0_1 1 0 0 :", 1)
    assert underscored != BASE
    assert _complex_fields(text_oracles.complex_from_text(underscored)) == _complex_fields(
        CellComplex.from_text(BASE))
    with pytest.raises(ValueError, match="'0_1' is not an integer in ASCII digits"):
        CellComplex.from_text(underscored)
    huge = BASE.replace("dim 2 ", f"dim {2**63 - 1} ", 1)
    with pytest.raises(ValueError, match="truncated"):
        CellComplex.from_text(huge)


@pytest.mark.parametrize("kind, old, new", [
    ("complex", "dim 2 ", "dim 0_2 "),
    ("complex", "periods - -", "periods - 0_4"),
    ("complex", "holes 0,e,0,2:4,2:4", "holes 0,e,0_0,2:4,2:0_4"),
    ("complex", "grade 1 count 17", "grade 1 count 0_17"),
    ("code", "nqubits 12 i 1", "nqubits 0_12 i 0_1"),
    ("matrix", "\n6 12\n", "\n\uff16 \uff11\uff12\n"),  # full-width digits
    ("complex", "periods - -", f"periods - {2**63}"),
    ("code", "nqubits 12 i 1", f"nqubits 12 i {2**63}"),
])
def test_header_integers_follow_the_cell_rule(kind, old, new):
    """A header integer that `int` reads but that is not ASCII digits after
    an optional sign, or that lies outside int64, is refused, as it is in a
    cell line; the old readers read it."""
    base = {"complex": BASE, "code": CODE_TEXT, "matrix": MATRIX_TEXT}[kind]
    text = base.replace(old, new, 1)
    assert text != base
    read, oracle, _ = READERS[kind]
    oracle(text)
    with pytest.raises(ValueError, match="not an integer in ASCII digits|outside int64|line 2 must read"):
        read(text)


_NO_COLUMNS = "csscode v1\nnqubits 0 i 1\nHX\ngf2matrix v1\n3 0\nHZ\ngf2matrix v1\n2 0\nqubitmap\n"


@pytest.mark.parametrize("kind, text, written", [
    ("matrix", "gf2matrix v1\n3 0\n\n\n\n", "gf2matrix v1\n3 0\n\n\n\n"),
    ("matrix", "gf2matrix v1\n2 0\n", "gf2matrix v1\n2 0\n\n\n"),
    ("code", _NO_COLUMNS, _NO_COLUMNS),
])
def test_rows_of_no_columns(kind, text, written):
    """The old readers found no data line in a blank body of rows of no
    columns; the new ones read it as those rows."""
    read, oracle, _ = READERS[kind]
    with pytest.raises(ValueError, match="data lines, got 0"):
        oracle(text)
    assert {"code": code_to_text, "matrix": matrix_to_text}[kind](read(text)) == written
    assert_readers_agree(kind, text)


def _no_columns(rows: int) -> str:
    return _NO_COLUMNS.replace("\n3 0\n", f"\n{rows} 0\n", 1)


def test_rows_of_no_columns_are_bounded(tmp_path, capsys):
    """Rows of no columns take no byte of the text, so their count is
    capped: a header declaring 10^9 of them (or one more than the cap) is
    refused at once, in both readers and through the CLI (exit 2), and
    the cap itself still reads and writes back."""
    from fractalcss import gf2
    from fractalcss.cli import main

    cap = gf2._MAX_EMPTY_ROWS
    for rows in (10**9, cap + 1):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="rows of no columns"):
            matrix_from_text(f"gf2matrix v1\n{rows} 0\n")
        with pytest.raises(ValueError, match="rows of no columns"):
            code_from_text(_no_columns(rows))
        assert time.perf_counter() - t0 < 1.0
        path = tmp_path / f"{rows}.code"
        path.write_text(_no_columns(rows))
        assert main(["params", "--code", str(path)]) == 2
        assert "rows of no columns" in capsys.readouterr().err
    assert code_to_text(code_from_text(_no_columns(cap))) == _no_columns(cap)
    assert matrix_from_text(f"gf2matrix v1\n{cap} 0\n").rows == cap


def test_matrix_shape_reads_a_sign():
    text = MATRIX_TEXT.replace("\n6 12\n", "\n+6 12\n", 1)
    with pytest.raises(ValueError, match="line 2 must read"):
        text_oracles.matrix_from_text(text)
    assert _matrix_fields(matrix_from_text(text)) == _matrix_fields(matrix_from_text(MATRIX_TEXT))
    for shape in ("-6 12", "6 -0_1", "6", "6 12 1", "6 99999999999999999999"):
        with pytest.raises(ValueError, match="line 2 must read"):
            matrix_from_text(MATRIX_TEXT.replace("\n6 12\n", f"\n{shape}\n", 1))


@pytest.mark.parametrize("token", ["x", "1.5", "1e3", "0x10", "1_0", "--1", "1-2", "\u0663"])
def test_fromstring_rejects_a_non_integer_token(token):
    """The readers parse integer tokens with np.fromstring, which must
    raise on any token that is not a base-10 integer (a lone sign it reads
    as 0 is screened before the call)."""
    with pytest.raises(ValueError):
        np.fromstring(f"1 {token} 2", dtype=np.int64, sep=" ")


@pytest.mark.parametrize("cell_0_1, cell_1_1, message", [
    (f"1 1 2 {2**63}", "1 3 2 2 : x", f"^{2**63} is outside int64$"),
    ("1 1 2 x", f"1 3 2 {2**63} : 1 5", "invalid literal for int"),
    (f"1 1 2 {2**63}", "1 3 2 2 : 1 5", f"^{2**63} is outside int64$"),
], ids=["overflow-grade-0", "bad-token-grade-0", "overflow-only"])
def test_first_fault_by_grade(cell_0_1, cell_1_1, message):
    """All grades are parsed in one pass, but the faults are reported as
    when each grade was parsed on its own, in turn: within a grade a token
    that is not an integer before a value outside int64, then the next
    grade."""
    text = BASE.replace("cell 0 1 bulk 1 1 2 2 :", f"cell 0 1 bulk {cell_0_1} :", 1)
    text = text.replace("cell 1 1 bulk 1 3 2 2 : 1 5", f"cell 1 1 bulk {cell_1_1}", 1)
    with pytest.raises(ValueError, match=message):
        CellComplex.from_text(text)


def test_first_fault_within_a_grade():
    # a bad token after a value outside int64 in the same grade is reported first
    text = BASE.replace("cell 0 1 bulk 1 1 2 2 :", f"cell 0 1 bulk 1 1 2 {2**63} :", 1)
    text = text.replace("cell 0 5 hE0 3 3 2 2 :", "cell 0 5 hE0 3 3 2 x :", 1)
    with pytest.raises(ValueError, match="invalid literal for int"):
        CellComplex.from_text(text)


@pytest.mark.parametrize("token", ["-", "+", "-1-", "5-", "+-1", "-+", "1+"])
def test_a_sign_without_digits_names_its_token(token):
    """np.fromstring would read a lone sign as 0 or join it to the next
    token; the readers screen signs first and report the token itself."""
    text = BASE.replace("cell 0 5 hE0 3 3 2 2 :", f"cell 0 5 hE0 3 3 2 {token} :", 1)
    assert_readers_agree("complex", text)
    with pytest.raises(ValueError, match="invalid literal for int"):
        CellComplex.from_text(text)
    code = CODE_TEXT.replace("q 3 -> cell ", f"q 3 -> cell {token} ", 1)
    assert_readers_agree("code", code)


@pytest.mark.parametrize("space", ["\t", "\x1f", "\t\x1f ", "\xa0", "　"])
def test_every_kind_of_space_separates_tokens(space):
    """ASCII text too: tab and the unit separator are whitespace to
    str.split, as the non-ASCII spaces are."""
    text = BASE.replace(" : ", f"{space}:{space}").replace("bulk ", f"bulk{space}")
    assert_readers_agree("complex", text)
    assert _complex_fields(CellComplex.from_text(text)) == _complex_fields(
        CellComplex.from_text(BASE))
    code = CODE_TEXT.replace(" -> ", f"{space}->{space}")
    assert_readers_agree("code", code)
    assert _code_fields(code_from_text(code)) == _code_fields(code_from_text(CODE_TEXT))


def _odd_break_cases():
    """(name, kind, text): a code or matrix text with line breaks other than
    "\\n" where the fast reads do not look for them."""
    code, matrix = CODE_TEXT, MATRIX_TEXT
    hx, hz, qmap = code.index("HX\n"), code.index("HZ\n"), code.index("qubitmap\n")
    body = matrix.index("\n", matrix.index("\n") + 1) + 1
    for brk in ("\r\n", "\x0b", "\x1c"):
        yield f"hx-row-{brk!r}", "code", code[:hx + 40] + code[hx + 40:hz].replace("\n", brk, 1) + code[hz:]
        yield f"hz-rows-{brk!r}", "code", code[:hz + 3] + code[hz + 3:qmap].replace("\n", brk) + code[qmap:]
        yield f"qubitmap-{brk!r}", "code", code[:qmap] + code[qmap:].replace("\n", brk, 2)
        yield f"head-{brk!r}", "code", code.replace("\n", brk, 1)
        # a break that splits a line the fast read would take as one
        yield f"head-split-{brk!r}", "code", code.replace(" i ", f"{brk}i ", 1)
        at = code.index("q 1 -> cell ")
        yield f"qubitmap-split-{brk!r}", "code", code[:at] + code[at:].replace("cell ", f"cell{brk}", 1)
        yield f"hidden-hz-{brk!r}", "code", code[:hx + 40] + f"{brk}HZ{brk}" + code[hx + 40:]
        yield f"matrix-{brk!r}", "matrix", matrix[:body] + matrix[body:].replace("\n", brk, 1)
        yield f"matrix-all-{brk!r}", "matrix", matrix.replace("\n", brk)


ODD_BREAKS = {name: (kind, text) for name, kind, text in _odd_break_cases()}


@pytest.mark.parametrize("name", ODD_BREAKS)
def test_odd_line_breaks_read_as_newlines(name):
    kind, text = ODD_BREAKS[name]
    assert_readers_agree(kind, text)
    new, _, fields = READERS[kind]
    assert _outcome(new, fields, text) == _outcome(new, fields, with_newlines(text))


def test_a_code_text_is_parsed_once(monkeypatch):
    """`code_from_text` gives the text "\\n" breaks and parses it once: as
    written, with "\\r\\n" breaks, and with a bad qubit-map line (the
    last two were parsed a second time after a first parse as written)."""
    text = code_to_text(css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1), "code"), 1))
    parsed, parse = [], code_module._code_parts
    monkeypatch.setattr(code_module, "_code_parts", lambda raw: parsed.append(raw) or parse(raw))
    for copy, error in ((text, None), (text.replace("\n", "\r\n"), None),
                        (text.replace("q 3 -> cell", "q 3 => cell"), "bad qubitmap line")):
        parsed.clear()
        if error:
            with pytest.raises(ValueError, match=error):
                code_from_text(copy)
        else:
            assert code_to_text(code_from_text(copy)) == text
        assert parsed == [with_newlines(copy).encode()]
