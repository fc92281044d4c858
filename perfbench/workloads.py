"""The benchmark's workloads: rows of calls into the package, each with the
checks that pin its outputs.

A workload is a list of rows (WORKLOADS); one pass runs every row once.  Each row
records its checks in a `Checks` object; a wrong value, an exception, a
non-zero exit code or a timeout counts as one failed check.  The pinned
values are the paper's numbers where the paper gives them and otherwise what
the seed program returned when the benchmark was written.

The seed drives one input only: the e/m assignment of the 27 holes of
FC(3,1) level 2, used by `compute` and `text-roundtrip`.  The program receives
just the generated layout (a hole map, or a `hole <id> <e|m>` file).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import re
from dataclasses import dataclass
from typing import Callable

from fractalcss.cli import main as cli_main
from fractalcss.code import (
    code_from_text,
    code_params,
    code_to_text,
    css_from_complex,
    is_x_logical,
    is_z_logical,
)
from fractalcss.colorcode import (
    build_color_code_2d,
    check_transversal_s_colorcode,
    shrunk_lattices,
)
from fractalcss.complexes import (
    CellComplex,
    FractalSpec,
    build_lattice,
    code_lattice,
    fractal_complex,
    punch_box,
)
from fractalcss.distance import (
    PreconditionError,
    dx_min_cut,
    dz_shortest_path,
    exhaustive_low_weight,
    fit_scaling,
)
from fractalcss.gates import (
    PauliOperator,
    align_by_boxes,
    build_vasmer_browne_stack,
    check_transversal_ccz,
    check_transversal_cz,
    conjugate_by_ccz,
    merge_rough,
    phase_polys_commute,
    stabilizer_tags_near_holes,
)
from fractalcss.gf2 import matrix_from_text, matrix_to_text
from fractalcss.homology import default_label_split, verify_lefschetz

N_HOLES_L2 = 27  # holes of FC(3,1) level 2: 1 at level 1, 26 at level 2
N_E_MIXED = 14  # e-holes in the seeded layout


class Checks:
    """Counts the checks of one row and remembers the last completed step."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.last = "start"
        self.failures: list[str] = []

    def step(self, label: str) -> None:
        self.last = label

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what}: {detail}" if detail else what)

    def expect(self, what: str, got, want) -> None:
        self.check(what, got == want, f"got {got!r}, want {want!r}")

    def fail(self, what: str) -> None:
        self.check(what, False)


@dataclass
class Row:
    name: str
    run: Callable[[Checks, dict], None]
    timeout_s: float = 60.0


def mixed_layout(seed: int) -> dict[int, str]:
    """Seeded e/m assignment of FC(3,1) level 2's holes.

    The seed picks which N_E_MIXED of the 26 level-2 holes are e-holes; the
    level-1 hole (id 0) stays an m-hole.  The level-2 holes are congruent,
    so every seed builds a code of the same size and the run-to-run spread
    measures the program, not the draw.
    """
    e_holes = set(random.Random(seed).sample(range(1, N_HOLES_L2), N_E_MIXED))
    return {hid: "e" if hid in e_holes else "m" for hid in range(N_HOLES_L2)}


def warm_up() -> None:
    """The untimed first call every run makes before it measures."""
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 1, holes="m"), "code"), 1)
    code_params(code)


def _check_dz(chk: Checks, code, want: int | None = None) -> None:
    chk.step("dz_shortest_path")
    dz = dz_shortest_path(code)
    if want is not None:
        chk.expect("d_Z", (dz.value, dz.kind), (want, "exact"))
    chk.check("d_Z witness is a Z logical of its weight",
              dz.witness.z_support.weight() == dz.value
              and is_z_logical(code, dz.witness.z_support))


# -- ladder ------------------------------------------------------------------

# (p, q, level) -> (d_Z, d_X), FC(p,q) with m-holes, k = 1
M_HOLE_LADDER = {
    (3, 1, 1): (3, 8),
    (3, 1, 2): (9, 64),
    (4, 2, 1): (4, 12),
    (4, 2, 2): (16, 144),
}
FIT_EXPONENTS = {(3, 1): 1.8928, (4, 2): 1.7925}
SC31_2D = {1: (2, 3), 2: (8, 9), 3: (52, 27)}  # level -> (k, d_Z), seed program


def _m_hole_row(p: int, q: int, level: int) -> Callable[[Checks, dict], None]:
    def run(chk: Checks, state: dict) -> None:
        want_dz, want_dx = M_HOLE_LADDER[(p, q, level)]
        chk.step("fractal_complex")
        cx = fractal_complex(FractalSpec(3, p, q, level, holes="m"), "code")
        chk.step("css_from_complex")
        code = css_from_complex(cx, 1)
        chk.step("code_params")
        chk.expect("k with homology cross-check", code_params(code).k, 1)
        _check_dz(chk, code, want_dz)
        chk.step("dx_min_cut")
        dx = dx_min_cut(code)
        chk.expect("d_X", (dx.value, dx.kind), (want_dx, "exact"))
        chk.check("d_X witness is an X logical", is_x_logical(code, dx.witness.x_support))
        state.setdefault("dx", {})[(p, q, level)] = dx.value

    return run


def _fit(p: int, q: int) -> Callable[[Checks, dict], None]:
    def run(chk: Checks, state: dict) -> None:
        want = FIT_EXPONENTS[(p, q)]
        fit = fit_scaling([(p**level, state["dx"][(p, q, level)]) for level in (1, 2)])
        chk.check(f"FC({p},{q}) d_X exponent", abs(fit.exponent - want) < 5e-3,
                  f"{fit.exponent:.4f} vs {want}")

    return run


def _e_holes(chk: Checks, state: dict) -> None:
    chk.step("css_from_complex")
    code = css_from_complex(fractal_complex(FractalSpec(3, 3, 1, 2, holes="e"), "code"), 1)
    chk.expect("holes", len(code.source.holes), N_HOLES_L2)
    chk.step("exhaustive_low_weight Z")
    res = exhaustive_low_weight(code, "Z", 2)
    chk.check("Z logical of weight <= 2", res.kind == "exact" and res.value <= 2, str(res))
    chk.step("code_params")
    chk.expect("k = N_e + 1 with homology cross-check", code_params(code).k, N_HOLES_L2 + 1)


def _mixed(chk: Checks, state: dict) -> None:
    layout = state["layout"]
    n_e = sum(kind == "e" for kind in layout.values())
    chk.step("css_from_complex")
    code = css_from_complex(
        fractal_complex(FractalSpec(3, 3, 1, 2, holes=dict(layout)), "code"), 1
    )
    chk.step("code_params")
    chk.expect("k = N_e + 1 with homology cross-check", code_params(code).k, n_e + 1)
    _check_dz(chk, code)
    chk.step("d_X")
    try:
        dx_min_cut(code)
        chk.fail("min-cut accepted a layout with e-holes")
    except PreconditionError:
        pass
    res = exhaustive_low_weight(code, "X", 2)
    chk.expect("X weight certified above 2", (res.kind, res.value), ("certified_above", 2))


def _sc31_2d(chk: Checks, state: dict) -> None:
    points = []
    for level, (want_k, want_dz) in SC31_2D.items():
        chk.step(f"level {level} css_from_complex")
        code = css_from_complex(fractal_complex(FractalSpec(2, 3, 1, level, holes="m"), "code"), 1)
        chk.step(f"level {level} code_params")
        chk.expect(f"level {level} k", code_params(code).k, want_k)
        chk.step(f"level {level} exhaustive_low_weight X")
        res = exhaustive_low_weight(code, "X", 2)
        chk.check(f"level {level} X logical of weight <= 2",
                  res.kind == "exact" and res.value <= 2
                  and is_x_logical(code, res.witness.x_support), str(res))
        _check_dz(chk, code, want_dz)
        points.append((3**level, res.value))
    chk.check("X weight exponent ~ 0", abs(fit_scaling(points).exponent) < 0.1)


def _torus4d(chk: Checks, state: dict) -> None:
    chk.step("clean code_params")
    clean = css_from_complex(build_lattice(4, 2, "torus"), 2)
    chk.expect("clean k", code_params(clean).k, 6)
    for kind in ("e", "m"):
        chk.step(f"{kind}-hole css_from_complex")
        code = css_from_complex(punch_box(build_lattice(4, 2, "torus"), (0, 0, 0, 0), 1, kind), 2)
        chk.step(f"{kind}-hole code_params")
        chk.expect(f"{kind}-hole k", code_params(code).k, 6)
        for op_type in ("X", "Z"):
            chk.step(f"{kind}-hole exhaustive_low_weight {op_type}")
            res = exhaustive_low_weight(code, op_type, 2)
            chk.expect(f"{kind}-hole {op_type} weight certified above 2",
                       (res.kind, res.value), ("certified_above", 2))


LADDER = [
    Row("fc31-l1", _m_hole_row(3, 1, 1)),
    Row("fc31-l2", _m_hole_row(3, 1, 2)),
    Row("fc31-fit", _fit(3, 1)),
    Row("fc31-l2-e", _e_holes),
    Row("fc31-l2-mixed", _mixed),
    Row("sc31-2d", _sc31_2d),
    Row("torus4d", _torus4d),
]

# The ladder's largest geometry: dense dd = 0 and H_X H_Z^T products.
LADDER_FC42 = [
    Row("fc42-l1", _m_hole_row(4, 2, 1)),
    Row("fc42-l2", _m_hole_row(4, 2, 2), timeout_s=160.0),
    Row("fc42-fit", _fit(4, 2)),
]


# -- lefschetz -------------------------------------------------------------------


def _lefschetz_row(spec: FractalSpec, want: int) -> Callable[[Checks, dict], None]:
    def run(chk: Checks, state: dict) -> None:
        chk.step("fractal_complex")
        cx = fractal_complex(spec)
        e_labels, m_labels = default_label_split(cx)
        chk.step("verify_lefschetz")
        rep = verify_lefschetz(cx, 1, e_labels, m_labels)
        chk.check("duality equality", rep.equal, str(rep))
        chk.expect("dim H_1(L, B_e)", rep.dim_relative_e, want)

    return run


LEFSCHETZ = [
    Row("fsf-l1", _lefschetz_row(FractalSpec(3, 3, 1, 1, holes="m"), 1)),
    Row("fsf-l2", _lefschetz_row(FractalSpec(3, 3, 1, 2, holes="m"), 1)),
    Row("torus", _lefschetz_row(FractalSpec(3, 3, 1, 1, background="torus"), 3)),
    Row("sphere", _lefschetz_row(FractalSpec(3, 3, 1, 1, background="sphere"), 0)),
]


# -- text-roundtrip --------------------------------------------------------------

# sha256 of the files the seed program writes for FC(3,1) level 2, m-holes,
# code style: cellcomplex v1 (168,596 B), csscode v1 (2,463,372 B) and the
# gf2matrix v1 export of H_Z (1,620,207 B)
FIXED_SHA256 = {
    "cx": "866768c12cd2223a97c5ac08f10c72677e9a41a2cecddf39ac619d10f2dad70d",
    "code": "d0da2a9d1b9ec8734970c7a0c725c5a2fc9279e5b126b50dcf7cc7b219087f9b",
    "hz": "4bb20763bd43ef650ff093861cef4da84096fea5b72731acd7dd90e716c3703b",
}
SPEC_ARGS = ["--dim", "3", "--p", "3", "--q", "1", "--level", "2", "--style", "code"]


def _cli(chk: Checks, argv: list[str]) -> str:
    """Run one CLI command in-process; returns its stdout."""
    chk.step(f"cli {argv[0]}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            rc = exc.code
    chk.expect(f"{argv[0]} exit code", rc, 0)
    return out.getvalue()


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _fields(line: str) -> dict[str, str]:
    return dict(tok.split("=", 1) for tok in line.split() if "=" in tok)


def _paths(state: dict, stem: str) -> dict[str, str]:
    return {ext: os.path.join(state["tmp"], f"{stem}.{ext}") for ext in ("cx", "code", "hz")}


def _holes(state: dict, stem: str) -> str:
    """The --holes argument: fixed m-holes, or the seeded layout as a file."""
    if stem == "fixed":
        return "m"
    holes_file = os.path.join(state["tmp"], "mixed.holes")
    with open(holes_file, "w") as fh:
        fh.writelines(f"hole {hid} {kind}\n" for hid, kind in sorted(state["layout"].items()))
    return f"mixed:{holes_file}"


# one CLI command per row: (paths, state, stem) -> argv
TEXT_COMMANDS = {
    "gen": lambda p, state, stem: ["gen", *SPEC_ARGS, "--holes", _holes(state, stem),
                                   "--out", p["cx"]],
    "code": lambda p, state, stem: ["code", "--complex", p["cx"], "--i", "1", "--out", p["code"]],
    "params": lambda p, state, stem: ["params", "--code", p["code"]],
    "export": lambda p, state, stem: ["export", "--code", p["code"], "--what", "hz",
                                      "--out", p["hz"]],
    "distance": lambda p, state, stem: ["distance", "--complex", p["cx"]],
}
# the file each command writes, checked against FIXED_SHA256 on the fixed geometry
WRITES = {"gen": "cx", "code": "code", "export": "hz"}


def _check_text_stdout(chk: Checks, state: dict, stem: str, cmd: str, out: str) -> None:
    if cmd == "params" and stem == "fixed":
        chk.expect("params stdout", out, "n=1456 k=1")
    elif cmd == "params":
        n_e = sum(kind == "e" for kind in state["layout"].values())
        chk.expect("params k = N_e + 1", _fields(out).get("k"), str(n_e + 1))
    elif cmd == "distance" and stem == "fixed":
        got = _fields(out)
        chk.expect("distance stdout", (got.get("dz"), got.get("dx")), ("9", "64"))
    elif cmd == "distance":
        chk.check("distance stdout",
                  re.fullmatch(r"dz=\d+ dz_kind=\w+ dx=\d+ dx_kind=\w+", out) is not None, out)


def _text_row(stem: str, cmd: str) -> Callable[[Checks, dict], None]:
    def run(chk: Checks, state: dict) -> None:
        p = _paths(state, stem)
        out = _cli(chk, TEXT_COMMANDS[cmd](p, state, stem)).strip()
        if stem == "fixed" and cmd in WRITES:
            key = WRITES[cmd]
            chk.expect(f"{key} sha256", _sha256(p[key]), FIXED_SHA256[key])
        _check_text_stdout(chk, state, stem, cmd, out)

    return run


# reading each seeded file back and writing it again must give the same bytes
ROUND_TRIPS = {
    "cx": ("cellcomplex v1", lambda text: CellComplex.from_text(text).to_text()),
    "code": ("csscode v1", lambda text: code_to_text(code_from_text(text))),
    "hz": ("gf2matrix v1", lambda text: matrix_to_text(matrix_from_text(text))),
}


def _round_trip_row(key: str) -> Callable[[Checks, dict], None]:
    def run(chk: Checks, state: dict) -> None:
        fmt, rewrite = ROUND_TRIPS[key]
        chk.step(f"{fmt} round trip")
        text = _read(_paths(state, "mixed")[key])
        chk.check(f"{fmt} round trip", rewrite(text) == text)

    return run


# The CLI chain on the fixed geometry, then on the seeded layout, then the
# round trips of the seeded files; one command per row, so that each row is
# timed on its own.
TEXT_ROUNDTRIP = (
    [Row(f"{stem}-{cmd}", _text_row(stem, cmd))
     for stem in ("fixed", "mixed") for cmd in TEXT_COMMANDS]
    + [Row(f"mixed-{key}-round-trip", _round_trip_row(key)) for key in ROUND_TRIPS]
)


# -- gate-stack ------------------------------------------------------------------

# failing witnesses per CCZ condition on the stack with a centre hole, as the
# seed program returns them (stab-stab-stab, stab-stab-logical,
# stab-logical-logical, logical triple)
CCZ_CENTER_WITNESSES = {2: (4, 1, 0, 0), 3: (32, 4, 0, 0), 4: (36, 0, 0, 0), 5: (40, 0, 0, 0)}
MERGE_INTERFACE_ROWS = {2: 4, 3: 9, 4: 16, "fc31-l1": 9}


def _ccz_row(L: int) -> Callable[[Checks, dict], None]:
    def run(chk: Checks, state: dict) -> None:
        chk.step("clean stack")
        codes, align = build_vasmer_browne_stack(L)
        chk.check(f"L={L} clean CCZ passes", check_transversal_ccz(*codes, align).all_pass)
        chk.step("holed stack")
        codes, align = build_vasmer_browne_stack(L, "center")
        rep = check_transversal_ccz(*codes, align)
        chk.check(f"L={L} holed CCZ fails", not rep.all_pass)
        chk.expect(f"L={L} holed witnesses", tuple(len(c.witnesses) for c in rep.conditions),
                   CCZ_CENTER_WITNESSES[L])
        if L != 3:
            return
        chk.step("witnesses near the hole")
        near = stabilizer_tags_near_holes(align)
        for cond in rep.failures():
            for witness in cond.witnesses:
                tags = [w for w in witness[:-1] if ":X" in str(w) and "bar" not in str(w)]
                chk.check("witness touches the hole", any(t in near for t in tags), str(witness))

    return run


def _phase_polys(chk: Checks, state: dict) -> None:
    chk.step("conjugate_by_ccz")
    codes, align = build_vasmer_browne_stack(3, "center")
    ops = []
    for copy, code in enumerate(codes):
        for r in range(code.hx.rows):
            ops.append(conjugate_by_ccz(PauliOperator.x_type(code.hx.row(r)), copy, align))
        for r in range(code.hz.rows):
            ops.append(conjugate_by_ccz(PauliOperator.z_type(code.hz.row(r)), copy, align))
    chk.expect("conjugated stabilizers", len(ops), 80)
    chk.step("phase_polys_commute")
    commuting = sum(
        phase_polys_commute(ops[i], ops[j])
        for i in range(len(ops)) for j in range(i + 1, len(ops))
    )
    chk.expect("commuting pairs", commuting, len(ops) * (len(ops) - 1) // 2)


def _cz(chk: Checks, state: dict) -> None:
    for L in range(2, 7):
        chk.step(f"L={L}")
        a = css_from_complex(code_lattice(2, L, e_axes=(1,)), 1)
        b = css_from_complex(code_lattice(2, L, e_axes=(0,)), 1)
        chk.check(f"L={L} CZ passes", check_transversal_cz(a, b, align_by_boxes([a, b])).all_pass)


def _colorcode(chk: Checks, state: dict) -> None:
    for L in (1, 2, 3):
        chk.step(f"L={L}")
        cc = build_color_code_2d(L)
        chk.check(f"L={L} S passes", check_transversal_s_colorcode(cc).all_pass)
        la, lb = shrunk_lattices(cc)
        for name, lat in (("A", la), ("B", lb)):
            chk.expect(f"L={L} shrunk {name} k", code_params(css_from_complex(lat, 1),
                                                             cross_check=False).k, 1)
        chk.expect(f"L={L} shrunk faces", la.n_cells(2), sum(1 for c in cc.face_colors if c))


def _merge(chk: Checks, state: dict) -> None:
    fc = FractalSpec(3, 3, 1, 1, holes="m")
    blocks = [(L, lambda L=L: css_from_complex(code_lattice(3, L), 1)) for L in (2, 3, 4)]
    blocks.append(("fc31-l1", lambda: css_from_complex(fractal_complex(fc, "code"), 1)))
    for key, build in blocks:
        chk.step(f"merge {key}")
        res = merge_rough(build(), build())
        chk.expect(f"{key} k_merged", res.k_merged, 1)
        chk.check(f"{key} parity identity", res.parity_identity)
        chk.expect(f"{key} interface rows", len(res.interface_x_rows), MERGE_INTERFACE_ROWS[key])


GATE_STACK = [
    Row("ccz-L2", _ccz_row(2)),
    Row("ccz-L3", _ccz_row(3)),
    Row("ccz-L4", _ccz_row(4)),
    Row("ccz-L5", _ccz_row(5)),
    Row("phase-L3", _phase_polys),
    Row("cz", _cz),
    Row("s-colorcode", _colorcode),
    Row("merge", _merge),
]

# The ladder, the Lefschetz geometries and the gate stack are one workload:
# run on their own, the short ones (0.5-8 s a pass) spread by 20-30% from
# run to run on a shared CPU, while one 75-100 s pass stays within about 10%.
# Their times are still reported apart, as the row groups below.
WORKLOADS = {
    "compute": LADDER + LADDER_FC42 + LEFSCHETZ + GATE_STACK,
    "text-roundtrip": TEXT_ROUNDTRIP,
}

# Row groups printed beside the metrics (not BENCHMARK.json metrics):
# name -> the rows whose times it adds up.
ROW_GROUPS = {
    "compute": {
        "fc42_l2_s": ["fc42-l2"],
        "ladder_rest_s": [r.name for r in LADDER + LADDER_FC42 if r.name != "fc42-l2"],
        "lefschetz_s": [r.name for r in LEFSCHETZ],
        "gate_stack_s": [r.name for r in GATE_STACK],
    },
}
