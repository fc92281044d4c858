"""CLI surface: subcommands, file formats, exit codes, determinism."""

import re

import pytest

from fractalcss.cli import hausdorff_exponent, main


def run(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_gen_prints_hausdorff(capsys, tmp_path):
    out = tmp_path / "cx.txt"
    rc, stdout, _ = run(
        ["gen", "--dim", "3", "--p", "3", "--q", "1", "--level", "1",
         "--holes", "m", "--out", str(out)], capsys,
    )
    assert rc == 0
    assert "D_H=2.9656" in stdout
    assert out.exists()


def test_gen_fc64(capsys):
    rc, stdout, _ = run(
        ["gen", "--dim", "3", "--p", "6", "--q", "4", "--level", "1", "--holes", "m"],
        capsys,
    )
    assert rc == 0
    assert "D_H=2.80" in stdout


def test_gen_level0_square(capsys):
    rc, stdout, _ = run(["gen", "--dim", "2", "--p", "3", "--q", "1", "--level", "0"], capsys)
    assert rc == 0
    assert "holes 0" in stdout


def test_gen_odd_gap_exit2(capsys):
    rc, _, err = run(["gen", "--dim", "2", "--p", "3", "--q", "2", "--level", "1"], capsys)
    assert rc == 2 and "even" in err


def test_gen_plain_e_hole_across_outer_boundary_exit2(capsys, monkeypatch):
    # fractal holes lie inside the lattice; this layout moves the one hole
    # across the face x = 0, so its e-patch is cut by the oM0 patch
    from fractalcss import complexes

    hole = complexes.Hole(0, ((-2, 2), (2, 4)), "e", 1)
    monkeypatch.setattr(complexes, "fractal_holes", lambda spec: [hole])
    rc, _, err = run(["gen", "--dim", "2", "--p", "3", "--q", "1", "--level", "1",
                      "--holes", "e", "--style", "plain"], capsys)
    assert rc == 2
    assert "patch hE0 is not closed under the boundary" in err


def test_pipeline_gen_code_params(capsys, tmp_path):
    cx = tmp_path / "cx.txt"
    code = tmp_path / "code.txt"
    assert run(["gen", "--dim", "2", "--p", "3", "--q", "1", "--level", "1",
                "--style", "code", "--out", str(cx)], capsys)[0] == 0
    assert run(["code", "--complex", str(cx), "--i", "1", "--out", str(code)], capsys)[0] == 0
    rc, stdout, _ = run(["params", "--code", str(code)], capsys)
    assert rc == 0 and "k=2" in stdout  # main qubit plus the level-1 hole


def test_homology_command(capsys):
    rc, stdout, _ = run(
        ["homology", "--dim", "3", "--p", "3", "--q", "1", "--level", "1",
         "--background", "torus", "--grade", "1", "--lefschetz"], capsys,
    )
    assert rc == 0
    assert "betti[1]=3" in stdout and "EQUAL" in stdout


def test_distance_command(capsys):
    rc, stdout, _ = run(
        ["distance", "--dim", "3", "--p", "3", "--q", "1", "--level", "1"], capsys
    )
    assert rc == 0
    assert "dz=3" in stdout and "dx=8" in stdout


def test_distance_2d_carpet_falls_back_to_the_search(capsys):
    # k = 8: the min cut of the OuterE class (4) is not d_X, a loop around
    # an m-hole crosses one qubit
    rc, stdout, _ = run(["distance", "--dim", "2", "--level", "2"], capsys)
    assert rc == 0
    assert "dx=1 dx_kind=exact" in stdout


@pytest.mark.parametrize("command, flag, value", [
    ("gen", "--i", "1"),
    ("homology", "--i", "1"),
    ("homology", "--out", "h.txt"),
    ("distance", "--out", "d.txt"),
    ("distance", "--style", "plain"),
    ("scan", "--style", "code"),
    ("scan", "--level", "2"),
])
def test_unread_flag_exit2(capsys, command, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([command, "--dim", "2", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err  # unrecognized, or an ambiguous prefix


def test_scan_csv_schema_and_determinism(capsys, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["scan", "--dim", "3", "--p", "3", "--q", "1",
            "--level-min", "1", "--level-max", "2", "--out"]
    assert run(argv + [str(out1)], capsys)[0] == 0
    assert run(argv + [str(out2)], capsys)[0] == 0
    text = out1.read_text()
    assert text.splitlines()[0] == "n,p,q,level,L,k,dz,dz_kind,dx,dx_kind,seconds"
    assert "3,3,1,1,3,1,3,exact,8,exact,0.000" in text
    assert "3,3,1,2,9,1,9,exact,64,exact,0.000" in text
    assert out1.read_text() == out2.read_text()  # byte-identical reruns


def test_scan_eholes(capsys, tmp_path):
    out = tmp_path / "e.csv"
    rc, _, _ = run(
        ["scan", "--dim", "3", "--p", "3", "--q", "1", "--holes", "e",
         "--level-min", "2", "--level-max", "2", "--wmax", "2", "--out", str(out)],
        capsys,
    )
    assert rc == 0
    row = out.read_text().splitlines()[1].split(",")
    assert int(row[5]) == 28  # k = N_h + 1
    assert int(row[6]) <= 2  # short Z string between adjacent e-holes


def test_table1_values(capsys, tmp_path):
    out = tmp_path / "t.csv"
    rc, _, _ = run(["table1", "--out", str(out)], capsys)
    assert rc == 0
    rows = {tuple(line.split(",")[:2]): line.split(",")[2:]
            for line in out.read_text().splitlines()[1:]}
    dh, ex = rows[("3", "1")]
    assert abs(float(dh) - 2.965) < 1e-3 and abs(float(ex) - 1.893) < 1e-3
    dh, ex = rows[("100", "98")]
    assert abs(float(dh) - 2.385) < 1e-3 and abs(float(ex) - 1.299) < 1e-3


def test_gate_check_ccz_pass(capsys, tmp_path):
    out = tmp_path / "r.txt"
    rc, _, _ = run(["gate-check", "ccz", "--vb", "--L", "2", "--out", str(out)], capsys)
    assert rc == 0
    assert "PASS" in out.read_text()


def test_gate_check_ccz_hole_exit4(capsys, tmp_path):
    out = tmp_path / "r.txt"
    rc, _, _ = run(
        ["gate-check", "ccz", "--vb", "--L", "3", "--hole", "center", "--out", str(out)],
        capsys,
    )
    assert rc == 4
    assert "FAIL" in out.read_text()


def test_gate_check_unknown_hole_exit2(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gate-check", "ccz", "--vb", "--L", "3", "--hole", "edge",
              "--out", str(tmp_path / "r.txt")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("lines, rc", [
    ("hole 0 e\nhole 30 m\n", 0),  # an id past the last hole is allowed
    ("hole -1 e\n", 2),
    ("hole 0 e\nhole 0 m\n", 2),
    ("hole 1_0 e\n", 2),  # the integer rule of the text formats
])
def test_mixed_holes_file(capsys, tmp_path, lines, rc):
    path = tmp_path / "holes.txt"
    path.write_text(lines)
    got, _, err = run(["gen", "--dim", "2", "--level", "1", "--style", "code",
                       "--holes", f"mixed:{path}"], capsys)
    assert got == rc
    message = "not an integer in ASCII digits" if "_" in lines else "negative or repeated"
    assert (message in err) == (rc == 2)


def test_gate_check_s_colorcode(capsys):
    rc, stdout, _ = run(["gate-check", "s", "--colorcode", "--L", "2"], capsys)
    assert rc == 0


def test_gate_check_cz(capsys):
    rc, _, _ = run(["gate-check", "cz", "--L", "3"], capsys)
    assert rc == 0


def test_merge_command(capsys):
    rc, stdout, _ = run(["merge", "--dim", "3", "--L", "2"], capsys)
    assert rc == 0
    assert "k_merged=1" in stdout and "parity_identity=PASS" in stdout


def test_merge_of_blocks_with_k_above_one(capsys):
    """2D SC(3,1) level 1: each block has k = 2, and the merge's parity
    identity takes each block's logical X across the interface, not the
    first of its basis."""
    rc, stdout, _ = run(["merge", "--dim", "2", "--level", "1"], capsys)
    assert (rc, stdout) == (0, "k_merged=3 parity_identity=PASS interface_x=3\n")


def test_table1_verify_levels(capsys, tmp_path):
    out = tmp_path / "t.csv"
    rc, _, _ = run(["table1", "--verify-levels", "2", "--out", str(out)], capsys)
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[-5:] == [
        "p,q,level,L,k,dz,dx,fitted_dx_exponent,closed_form,deviation",
        "3,1,1,3,1,3,8,1.8928,1.8928,0.0000",
        "3,1,2,9,1,9,64,1.8928,1.8928,0.0000",
        "4,2,1,4,1,4,12,1.7925,1.7925,0.0000",
        "4,2,2,16,1,16,144,1.7925,1.7925,0.0000",
    ]


def test_merge_level_writes_a_code(capsys, tmp_path):
    out = tmp_path / "merged.code"
    rc, stdout, _ = run(["merge", "--level", "1", "--out", str(out)], capsys)
    assert rc == 0
    assert stdout == "k_merged=1 parity_identity=PASS interface_x=9\n"
    rc, stdout, _ = run(["params", "--code", str(out)], capsys)
    assert (rc, stdout) == (0, "n=92 k=1\n")


def test_witness_failure_exit5(capsys, tmp_path):
    """Seed 49 of the exact-distance audit (a 2D L = 4 torus whose e-hole
    crosses the periodic seam): d_Z's witness fails its own check, an
    internal fault that the CLI reports in one line with exit code 5."""
    import random

    from fractalcss.complexes import code_lattice
    from test_arrays import _random_holes

    rng = random.Random(49)
    n = rng.choice((2, 3, 4))
    L = rng.randint(2, {2: 6, 3: 4, 4: 2}[n])
    background = rng.choice(("open", "torus"))
    assert (n, L, background) == (2, 4, "torus")
    path = tmp_path / "seed49.cx"
    path.write_text(code_lattice(n, L, background, holes=_random_holes(rng, n, L)).to_text())
    rc, stdout, err = run(["distance", "--complex", str(path)], capsys)
    assert rc == 5 and stdout == ""
    assert err == "internal error: WitnessError: shortest-path witness is not a Z-logical\n"


def test_budget_exit3(capsys, monkeypatch):
    monkeypatch.setenv("FRACTALCSS_BUDGET", "10")
    rc, _, err = run(
        ["distance", "--dim", "3", "--p", "3", "--q", "1", "--level", "1",
         "--holes", "e", "--methods", "none", "--wmax", "4"], capsys,
    )
    assert rc == 3
    assert "budget" in err and "certified_above=0" in err


def test_hausdorff_huge_p():
    assert abs(hausdorff_exponent(10**80, 10**80 - 2, 3) - 2.0097) < 1e-3
    assert abs(hausdorff_exponent(10**80, 10**80 - 2, 2) - 1.0075) < 2e-3


def _cut(text: str, last_line: str) -> str:
    """The text up to and including the first line that starts with last_line."""
    lines = text.splitlines(keepends=True)
    end = next(i for i, ln in enumerate(lines) if ln.startswith(last_line))
    return "".join(lines[: end + 1])


def _replace_line(text: str, prefix: str, new: str) -> str:
    return "".join(
        new + "\n" if ln.startswith(prefix) else ln for ln in text.splitlines(keepends=True)
    )


def _with_odd_z_check(code_text: str) -> str:
    """The code text with a Z check added on the first qubit of X check 0,
    so that the two checks share one qubit."""
    lines = code_text.splitlines(keepends=True)
    q = lines[lines.index("HX\n") + 3].index("1")
    at = lines.index("HZ\n") + 2
    rows, cols = map(int, lines[at].split())
    lines[at] = f"{rows + 1} {cols}\n"
    lines.insert(at + 1, "0" * q + "1" + "0" * (cols - q - 1) + "\n")
    return "".join(lines)


def _swap_lines(text: str, first: str, second: str) -> str:
    """The text with the lines that start with `first` and `second` swapped."""
    lines = text.splitlines(keepends=True)
    i, j = (next(i for i, ln in enumerate(lines) if ln.startswith(p)) for p in (first, second))
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


def test_malformed_files_exit2(capsys, tmp_path):
    cx_path = tmp_path / "cx.txt"
    code_path = tmp_path / "code.txt"
    assert run(["gen", "--dim", "2", "--level", "1", "--style", "code",
                "--out", str(cx_path)], capsys)[0] == 0
    assert run(["code", "--complex", str(cx_path), "--out", str(code_path)], capsys)[0] == 0
    cx_text, code_text = cx_path.read_text(), code_path.read_text()
    bad_complexes = {
        "empty": "",
        "after-grade0": _cut(cx_text, "grade 0"),
        "after-grade1": _cut(cx_text, "grade 1"),
        "mid-cells": _cut(cx_text, "cell 1 3 "),
        "short-head": _cut(cx_text, "cellcomplex v1") + "dim 2\n",
        "grade-order": _replace_line(cx_text, "grade 1", "grade 2 count 0"),
        "cell-order": _replace_line(cx_text, "cell 0 1 ", "cell 0 7 bulk 0 0 0 0 :"),
        "short-cell": _replace_line(cx_text, "cell 0 1 ", "cell 0 1"),
        # header integers follow the cell lines' rule: ASCII digits after an optional sign
        "dim-underscore": cx_text.replace("dim 2 ", "dim 0_2 ", 1),
        "count-underscore": re.sub(r"grade 1 count (\d+)", r"grade 1 count 0_\1", cx_text),
        "hole-underscore": cx_text.replace(" holes 0,", " holes 0_0,", 1),
        "cell-overflow": _replace_line(cx_text, "cell 0 1 ", f"cell 0 1 bulk 1 1 2 {2**63} :"),
    }
    for name, text in bad_complexes.items():
        path = tmp_path / f"{name}.cx"
        path.write_text(text)
        for argv in (["code", "--complex", str(path)], ["homology", "--complex", str(path)]):
            rc, _, err = run(argv, capsys)
            assert rc == 2 and err.startswith("error:"), (name, argv, rc, err)
    n = code_text.splitlines()[1].split()[1]
    bad_codes = {
        "empty": "",
        "v2": code_text.replace("csscode v1", "csscode v2", 1),
        "header-only": "csscode v1\n",
        "short-head": _replace_line(code_text, "nqubits", f"nqubits {n}"),
        "head-words": _replace_line(code_text, "nqubits", f"qubits {n} i 1"),
        "no-qubitmap": _cut(code_text, "HZ"),
        "cut-qubitmap": _cut(code_text, "q 3 -> "),
        "short-map-line": _replace_line(code_text, "q 3 -> ", "q 3 ->"),
        "width": _replace_line(code_text, "nqubits", f"nqubits {int(n) + 1} i 1"),
        "hx-header-only": _cut(code_text, "gf2matrix v1") + code_text[code_text.index("HZ"):],
        "noncommuting": _with_odd_z_check(code_text),
        "qubit-order": _swap_lines(code_text, "q 2 -> ", "q 3 -> "),
        "qubit-index": _replace_line(code_text, "q 0 -> ", "q 999 -> cell 0"),
        "head-underscore": _replace_line(code_text, "nqubits", f"nqubits 0_{n} i 0_1"),
    }
    for name, text in bad_codes.items():
        path = tmp_path / f"{name}.code"
        path.write_text(text)
        for argv in (["params", "--code", str(path)], ["export", "--code", str(path)]):
            rc, _, err = run(argv, capsys)
            assert rc == 2 and err.startswith("error:"), (name, argv, rc, err)


@pytest.mark.parametrize("argv", [
    ["params", "--code", "{dir}"],
    ["export", "--code", "{dir}"],
    ["code", "--complex", "{dir}"],
    ["homology", "--complex", "{dir}"],
    ["distance", "--complex", "{dir}"],
    ["gen", "--dim", "2", "--level", "1", "--out", "{dir}"],
    ["code", "--dim", "2", "--level", "1", "--out", "{dir}"],
    ["table1", "--out", "{dir}"],
], ids=lambda argv: "-".join(a.strip("-") for a in argv if a != "{dir}"))
def test_directory_paths_exit2(capsys, tmp_path, argv):
    """A file argument that names a directory is bad input: exit 2 with an
    error line, not a traceback."""
    rc, _, err = run([a.format(dir=tmp_path) for a in argv], capsys)
    assert rc == 2 and err.startswith("error:"), (rc, err)


def test_homology_relative_e_m(capsys):
    from fractalcss.complexes import FractalSpec, fractal_complex, label_is_e, label_is_m
    from fractalcss.homology import betti, cobetti

    # the m-labels of the open cube are not a subcomplex (E wins at corners),
    # so the m case runs on the torus, whose only labels are the hole's
    for kind, is_kind, background in (("e", label_is_e, "open"), ("m", label_is_m, "torus")):
        cx = fractal_complex(FractalSpec(3, 3, 1, 1, background=background))
        rel = {lb for lb in cx.labels_present() if is_kind(lb)}
        assert rel
        rc, stdout, _ = run(["homology", "--level", "1", "--background", background,
                             "--relative", kind], capsys)
        assert rc == 0
        assert stdout == f"betti[1]={betti(cx, 1, rel)} cobetti[1]={cobetti(cx, 1, rel)}\n"


def test_consecutive_main_calls_share_no_state(capsys, tmp_path):
    """The parser is built once per process, and no flag or default of one
    `main` call reaches the next: `code --out f` and then `code` writes to
    stdout, `export --what hz` and then `export` exports H_X, and `gen`
    without --level builds level 1 after a level-2 call."""
    from fractalcss import cli
    from fractalcss.code import code_from_text
    from fractalcss.gf2 import matrix_to_text

    assert cli.build_parser() is cli.build_parser()
    cx_path, code_path = tmp_path / "cx.txt", tmp_path / "code.txt"
    gen = ["gen", "--dim", "2", "--style", "code"]
    level1 = run(gen, capsys)
    assert level1[0] == 0
    assert run(gen + ["--level", "2", "--out", str(cx_path)], capsys)[0] == 0
    assert run(gen, capsys) == level1
    assert run(["code", "--complex", str(cx_path), "--out", str(code_path)], capsys) == (0, "", "")
    rc, stdout, _ = run(["code", "--complex", str(cx_path)], capsys)
    assert rc == 0 and stdout == code_path.read_text()
    code = code_from_text(code_path.read_text())
    assert run(["export", "--code", str(code_path), "--what", "hz"], capsys) == (
        0, matrix_to_text(code.hz), "")
    assert run(["export", "--code", str(code_path)], capsys) == (0, matrix_to_text(code.hx), "")
    with pytest.raises(SystemExit):  # argparse rejects the flag, after the parser was built
        main(["export", "--code", str(code_path), "--what", "hy"])
    capsys.readouterr()
    assert run(["export", "--code", str(code_path)], capsys) == (0, matrix_to_text(code.hx), "")
