"""Command-line driver: generate geometries and codes, run scans, reproduce
the Hausdorff-dimension table, and run the gate-condition checks.

Exit codes: 0 success, 2 validation error (bad input, or a file that
cannot be read or written), 3 search budget exceeded, 4 gate-condition
failure, 5 internal invariant failure (an AssertionError, such as a
distance witness that fails its own check; a bug, reported in one line).
All outputs are deterministic; pass --timings to record wall-clock seconds
in scan CSVs (off by default so reruns are byte-identical).
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time

from ._text import int64
from .code import check_matrix_blocks, code_blocks, code_from_text, code_params, css_from_complex
from .complexes import (
    CellComplex,
    FractalSpec,
    code_lattice,
    fractal_complex,
)
from .distance import (
    BudgetError,
    PreconditionError,
    dx_min_cut,
    dz_shortest_path,
    exhaustive_low_weight,
    fit_scaling,
)
from .homology import betti, cobetti, default_label_split, verify_lefschetz


class ValidationError(ValueError):
    pass


class GateConditionFailure(RuntimeError):
    pass


def hausdorff_exponent(p: int, q: int, n: int) -> float:
    """ln(p**n - q**n) / ln(p), stable for p as large as 1e80."""
    if not 0 < q < p:
        raise ValidationError("need 0 < q < p")
    lp = math.log(p)
    delta = n * math.log1p(-(p - q) / p)  # n * ln(q/p), tiny and negative
    return (n * lp + math.log(-math.expm1(delta))) / lp


TABLE1_ROWS = [
    (3, 1), (4, 2), (5, 3), (6, 4), (7, 3), (7, 5), (10, 8), (15, 13),
    (30, 28), (100, 98), (500, 498), (5000, 4998),
    (10**5, 10**5 - 2), (10**10, 10**10 - 2), (10**20, 10**20 - 2),
    (10**80, 10**80 - 2),
]


def _holes_arg(value: str):
    if value in ("m", "e"):
        return value
    if value.startswith("mixed:"):
        path = value.split(":", 1)[1]
        mapping = {}
        with open(path) as fh:
            for line in fh:
                toks = line.split()
                if not toks:
                    continue
                if toks[0] != "hole" or len(toks) != 3 or toks[2] not in ("e", "m"):
                    raise ValidationError(f"bad mixed-assignment line: {line!r}")
                hole = int64(toks[1])
                if hole < 0 or hole in mapping:
                    raise ValidationError(f"negative or repeated hole id: {line!r}")
                mapping[hole] = toks[2]
        return mapping
    raise ValidationError(f"--holes must be m, e or mixed:<file>, not {value!r}")


def _spec_from_args(args) -> FractalSpec:
    return FractalSpec(
        n=args.dim, p=args.p, q=args.q, level=args.level,
        background=args.background, holes=_holes_arg(args.holes),
    )


def _write_blocks(path: str | None, blocks) -> None:
    """Write a text given as UTF-8 blocks, or as one str, to the file at
    `path` or to stdout: a file takes the blocks one by one, so the whole
    text is never held."""
    if isinstance(blocks, str):
        blocks = [blocks.encode()]
    if path:
        with open(path, "wb") as fh:
            fh.writelines(blocks)
    else:
        sys.stdout.write(b"".join(blocks).decode())


def cmd_gen(args) -> int:
    spec = _spec_from_args(args)
    cx = fractal_complex(spec, style=args.style)
    counts = " ".join(str(cx.n_cells(k)) for k in range(cx.dim + 1))
    dh = hausdorff_exponent(args.p, args.q, args.dim)
    print(f"cells {counts}")
    print(f"holes {len(cx.holes)}")
    print(f"D_H={dh:.4f}")
    if args.out:
        _write_blocks(args.out, cx.to_text())
    return 0


def _complex_from_args(args, style: str) -> CellComplex:
    """The --complex file if given, else the fractal of the spec flags."""
    if args.complex:
        with open(args.complex) as fh:
            return CellComplex.from_text(fh.read())
    return fractal_complex(_spec_from_args(args), style=style)


def cmd_code(args) -> int:
    code = css_from_complex(_complex_from_args(args, args.style), args.i)
    _write_blocks(args.out, code_blocks(code))
    return 0


def cmd_params(args) -> int:
    with open(args.code) as fh:
        code = code_from_text(fh.read())
    params = code_params(code, cross_check=False)
    print(f"n={params.n_qubits} k={params.k}")
    return 0


def cmd_homology(args) -> int:
    cx = _complex_from_args(args, args.style)
    e_labels, m_labels = default_label_split(cx)
    if args.relative in ("e", "m"):
        rel = e_labels if args.relative == "e" else m_labels
    else:
        rel = set(args.relative.split(",")) if args.relative else set()
    b = betti(cx, args.grade, rel)
    cb = cobetti(cx, args.grade, rel)
    print(f"betti[{args.grade}]={b} cobetti[{args.grade}]={cb}")
    if args.lefschetz:
        rep = verify_lefschetz(cx, args.grade, e_labels, m_labels)
        print(
            f"lefschetz H_{args.grade}(L,Be)={rep.dim_relative_e} "
            f"H_{cx.dim - args.grade}(L*,B*m)={rep.dim_dual_relative_m} "
            f"{'EQUAL' if rep.equal else 'MISMATCH'}"
        )
    return 0


def _distances(code, methods: str, w_max: int):
    """(d_Z, d_X), each by its exact method (bfs for d_Z, mincut for d_X)
    when `methods`, comma-separated names of bfs, mincut and none, names it
    and the code meets its precondition, else by the low-weight search."""
    names = {name.strip() for name in methods.split(",")}
    if not names <= {"bfs", "mincut", "none"}:
        raise ValidationError(f"--methods takes bfs, mincut or none, not {methods!r}")
    found = []
    for method, exact, pauli in (("bfs", dz_shortest_path, "Z"), ("mincut", dx_min_cut, "X")):
        d = None
        if method in names:
            try:
                d = exact(code)
            except PreconditionError:
                pass
        found.append(d if d is not None else exhaustive_low_weight(code, pauli, w_max))
    return found


def cmd_distance(args) -> int:
    code = css_from_complex(_complex_from_args(args, "code"), args.i)
    dz, dx = _distances(code, args.methods, args.wmax)
    print(f"dz={dz.value} dz_kind={dz.kind} dx={dx.value} dx_kind={dx.kind}")
    return 0


def cmd_scan(args) -> int:
    levels = list(range(args.level_min, args.level_max + 1))
    if not levels:
        raise ValidationError("empty level range")
    holes = _holes_arg(args.holes)

    def scan_level(level: int) -> str:
        t0 = time.perf_counter()
        spec = FractalSpec(args.dim, args.p, args.q, level, args.background, holes)
        code = css_from_complex(fractal_complex(spec, style="code"), args.i)
        k = code_params(code).k
        dz, dx = _distances(code, args.methods, args.wmax)
        seconds = time.perf_counter() - t0 if args.timings else 0.0
        return (
            f"{args.dim},{args.p},{args.q},{level},{spec.side},{k},"
            f"{dz.value},{dz.kind},{dx.value},{dx.kind},{seconds:.3f}"
        )

    rows = [scan_level(level) for level in levels]
    text = "n,p,q,level,L,k,dz,dz_kind,dx,dx_kind,seconds\n" + "\n".join(rows) + "\n"
    _write_blocks(args.out, text)
    return 0


def cmd_table1(args) -> int:
    lines = ["p,q,D_H,dx_exponent"]
    for p, q in TABLE1_ROWS:
        dh = hausdorff_exponent(p, q, 3)
        ex = hausdorff_exponent(p, q, 2)
        lines.append(f"{p},{q},{dh:.4f},{ex:.4f}")
    if args.verify_levels:
        lines.append("p,q,level,L,k,dz,dx,fitted_dx_exponent,closed_form,deviation")
        for p, q in [(3, 1), (4, 2)]:
            rows = []  # p, q, level, L, k, d_Z, d_X
            for level in range(1, args.verify_levels + 1):
                spec = FractalSpec(3, p, q, level, holes="m")
                code = css_from_complex(fractal_complex(spec, style="code"), 1)
                rows.append((p, q, level, spec.side, code_params(code).k,
                             dz_shortest_path(code).value, dx_min_cut(code).value))
            closed = hausdorff_exponent(p, q, 2)
            fit = fit_scaling([(r[3], r[6]) for r in rows]) if len(rows) >= 2 else None
            fitted = fit.exponent if fit else float("nan")
            for row in rows:
                lines.append(",".join(map(str, row))
                             + f",{fitted:.4f},{closed:.4f},{abs(fitted - closed):.4f}")
    _write_blocks(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_gate_check(args) -> int:
    from .colorcode import build_color_code_2d, check_transversal_s_colorcode
    from .gates import (
        align_by_boxes,
        build_vasmer_browne_stack,
        check_transversal_ccz,
        check_transversal_cz,
    )
    if args.which == "ccz":
        if not args.vb:
            raise ValidationError("ccz checks run on the --vb stack")
        codes, align = build_vasmer_browne_stack(args.L, args.hole)
        report = check_transversal_ccz(*codes, align)
    elif args.which == "cz":
        a = css_from_complex(code_lattice(2, args.L, e_axes=(1,)), 1)
        b = css_from_complex(code_lattice(2, args.L, e_axes=(0,)), 1)
        report = check_transversal_cz(a, b, align_by_boxes([a, b]))
    else:  # "s", the last of the parser's choices
        if not args.colorcode:
            raise ValidationError("s checks run on the --colorcode patch")
        report = check_transversal_s_colorcode(build_color_code_2d(args.L))
    _write_blocks(args.out, report.to_text())
    if not report.all_pass:
        raise GateConditionFailure(report.to_text())
    return 0


def cmd_merge(args) -> int:
    from .gates import merge_rough

    if args.level:
        spec = FractalSpec(args.dim, args.p, args.q, args.level, holes="m")
        build = functools.partial(fractal_complex, spec, style="code")
    else:
        build = functools.partial(code_lattice, args.dim, args.L)
    result = merge_rough(*(css_from_complex(build(), 1) for _ in range(2)))
    print(
        f"k_merged={result.k_merged} "
        f"parity_identity={'PASS' if result.parity_identity else 'FAIL'} "
        f"interface_x={len(result.interface_x_rows)}"
    )
    if args.out:
        _write_blocks(args.out, code_blocks(result.merged))
    return 0


def cmd_export(args) -> int:
    with open(args.code) as fh:
        code = code_from_text(fh.read())
    _write_blocks(args.out, check_matrix_blocks(code, args.what))
    return 0


# Each flag's add_argument keywords, written once ("which" is positional)
_FLAGS = {
    "--dim": dict(type=int, default=3),
    "--p": dict(type=int, default=3),
    "--q": dict(type=int, default=1),
    "--background": dict(default="open", choices=["open", "torus", "sphere"]),
    "--holes": dict(default="m"),
    "--level": dict(type=int, default=1),
    "--i": dict(type=int, default=1),
    "--style": dict(default="plain", choices=["plain", "code"]),
    "--out": dict(default=None),
    "--complex": dict(default=None),
    "--code": dict(required=True),
    "--grade": dict(type=int, default=1),
    "--relative": dict(default=""),
    "--lefschetz": dict(action="store_true"),
    "--methods": dict(default="bfs,mincut"),
    "--wmax": dict(type=int, default=2),
    "--level-min": dict(type=int, default=1),
    "--level-max": dict(type=int, default=2),
    "--timings": dict(action="store_true"),
    "--verify-levels": dict(type=int, default=0),
    "which": dict(choices=["cz", "ccz", "s"]),
    "--vb": dict(action="store_true"),
    "--colorcode": dict(action="store_true"),
    "--L": dict(type=int, default=2),
    "--hole": dict(choices=["center"], default=None),
    "--what": dict(choices=["hx", "hz"], default="hx"),
}

_SPEC = "--dim --p --q --background --holes"

# Per command: its help, its function and its flags in help order
_COMMANDS = {
    "gen": ("generate a fractal cell complex", cmd_gen, f"{_SPEC} --level --style --out"),
    "code": ("build a CSS code from a complex", cmd_code,
             f"{_SPEC} --level --i --style --out --complex"),
    "params": ("code parameters from a csscode file", cmd_params, "--code"),
    "homology": ("Betti numbers of a complex", cmd_homology,
                 f"{_SPEC} --level --style --complex --grade --relative --lefschetz"),
    "distance": ("code distances", cmd_distance, f"{_SPEC} --level --i --complex --methods --wmax"),
    "scan": ("parameter/distance scan across levels", cmd_scan,
             f"{_SPEC} --i --out --level-min --level-max --methods --wmax --timings"),
    "table1": ("Hausdorff dimensions and distance exponents", cmd_table1, "--out --verify-levels"),
    "gate-check": ("transversal gate condition checks", cmd_gate_check,
                   "which --vb --colorcode --L --hole --out"),
    "merge": ("merge two blocks along rough boundaries", cmd_merge,
              "--dim --L --p --q --level --out"),
    "export": ("dump a check matrix in gf2matrix format", cmd_export, "--code --what --out"),
}


# Built once per process: parse_args reads the parser and changes nothing in it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fractalcss",
        description="fractal cell complexes, CSS codes, exact distances, gate checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, func, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    sub.choices["merge"].set_defaults(level=0)  # a lattice merge unless --level is set
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetError as err:
        print(f"budget exceeded: {err}", file=sys.stderr)
        return 3
    except GateConditionFailure:
        return 4
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:  # after ValueError: a BoundaryError is bad input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
