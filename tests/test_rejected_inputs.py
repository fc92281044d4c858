"""Inputs the lattice builders and the hole types refuse with ValueError
(exit 2 from the CLI) instead of building something else: a code lattice
on a background other than the open cube or the torus (it built the open
cube), a dimension outside 2..4 or an e-axis outside 0..n-1 (a lattice of
that dimension, an IndexError, or a cube with no e-patch), and a hole kind
other than "e" or "m" (punched as an e-hole but labelled as an m-hole)."""

import pytest

from fractalcss.cli import main
from fractalcss.complexes import (
    CellComplex,
    FractalSpec,
    Hole,
    build_lattice,
    code_lattice,
    fractal_complex,
)


@pytest.mark.parametrize("call, message", [
    (lambda: code_lattice(3, 2, "sphere"), "unknown background 'sphere'"),
    (lambda: code_lattice(3, 2, "banana"), "unknown background 'banana'"),
    (lambda: build_lattice(3, 2, "banana"), "unknown background 'banana'"),
    (lambda: code_lattice(5, 2), r"dimension 5 unsupported \(need 2..4\)"),
    (lambda: code_lattice(1, 2), r"dimension 1 unsupported \(need 2..4\)"),
    (lambda: build_lattice(5, 2), r"dimension 5 unsupported \(need 2..4\)"),
    (lambda: code_lattice(3, 2, e_axes=(5,)), r"e_axes \(5,\) outside 0..2"),
    (lambda: code_lattice(3, 2, e_axes=(0, -1)), r"e_axes \(0, -1\) outside 0..2"),
    (lambda: build_lattice(3, 2, e_axes=(5,)), r"e_axes \(5,\) outside 0..2"),
    (lambda: build_lattice(2, 2, "sphere", e_axes=(2,)), r"e_axes \(2,\) outside 0..1"),
    (lambda: fractal_complex(FractalSpec(3, 3, 1, 1, background="sphere"), "code"),
     "unknown background 'sphere'"),
])
def test_lattices_it_cannot_build_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_the_backgrounds_each_style_builds():
    for background in ("open", "open-cube", "torus"):
        assert code_lattice(2, 2, background).background in ("open", "torus")
    for background in ("open", "open-cube", "torus", "sphere"):
        assert build_lattice(2, 2, background).background in ("open", "torus", "sphere")
    # an e-axis given as a list, and every axis an e-axis
    assert code_lattice(2, 2, e_axes=[0, 1]).label_names == ("bulk", "oE0", "oE1", "oE2", "oE3")


@pytest.mark.parametrize("argv", [
    ["distance", "--background", "sphere", "--level", "1"],
    ["scan", "--background", "sphere", "--level-max", "1"],
    ["gen", "--style", "code", "--background", "sphere"],
])
def test_cli_code_style_on_the_sphere_is_exit_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: unknown background 'sphere'\n"


def test_cli_plain_style_on_the_sphere_still_builds(capsys):
    assert main(["gen", "--background", "sphere"]) == 0
    assert capsys.readouterr().out.startswith("cells ")


BOX = ((2, 4), (2, 4), (2, 4))


@pytest.mark.parametrize("call", [
    lambda: Hole(0, BOX, "x"),
    lambda: Hole(0, BOX, "E"),
    lambda: Hole(0, BOX, None),
    lambda: FractalSpec(3, 3, 1, 1, holes="x"),
    lambda: FractalSpec(3, 3, 1, 1, holes="em"),
    lambda: FractalSpec(3, 3, 1, 2, holes={0: "e", 3: "m", 5: "x"}),
])
def test_hole_kinds_are_e_or_m(call):
    with pytest.raises(ValueError, match="is not 'e' or 'm'"):
        call()


def test_hole_kinds_e_and_m_build():
    assert Hole(0, BOX, "e").label == "hE0" and Hole(1, BOX, "m").label == "hM1"
    assert FractalSpec(3, 3, 1, 2, holes={0: "e", 3: "m"}).hole_kind(5) == "m"


def _text_with_hole_kind(kind: str) -> str:
    text = fractal_complex(FractalSpec(3, 3, 1, 1, holes="e"), "code").to_text()
    assert " holes 0,e,1," in text
    return text.replace(" holes 0,e,1,", f" holes 0,{kind},1,")


def test_text_reader_refuses_another_hole_kind():
    CellComplex.from_text(_text_with_hole_kind("e"))
    with pytest.raises(ValueError, match="hole kind 'x' is not 'e' or 'm'"):
        CellComplex.from_text(_text_with_hole_kind("x"))


def test_cli_refuses_another_hole_kind_in_a_file(capsys, tmp_path):
    path = tmp_path / "x.cx"
    path.write_text(_text_with_hole_kind("x"))
    assert main(["code", "--complex", str(path)]) == 2
    assert capsys.readouterr().err == "error: hole kind 'x' is not 'e' or 'm'\n"
