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
    dz = dx = None
    if "bfs" in methods:
        try:
            dz = dz_shortest_path(code)
        except PreconditionError:
            dz = None
    if dz is None:
        dz = exhaustive_low_weight(code, "Z", w_max)
    if "mincut" in methods:
        try:
            dx = dx_min_cut(code)
        except PreconditionError:
            dx = None
    if dx is None:
        dx = exhaustive_low_weight(code, "X", w_max)
    return dz, dx


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
        spec = FractalSpec(
            n=args.dim, p=args.p, q=args.q, level=level,
            background=args.background, holes=holes,
        )
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
            points = []
            row_cache = []
            for level in range(1, args.verify_levels + 1):
                spec = FractalSpec(3, p, q, level, holes="m")
                code = css_from_complex(fractal_complex(spec, style="code"), 1)
                k = code_params(code).k
                dz = dz_shortest_path(code)
                dx = dx_min_cut(code)
                points.append((spec.side, dx.value))
                row_cache.append((p, q, level, spec.side, k, dz.value, dx.value))
            closed = hausdorff_exponent(p, q, 2)
            fit = fit_scaling(points) if len(points) >= 2 else None
            fitted = fit.exponent if fit else float("nan")
            for row in row_cache:
                lines.append(
                    ",".join(str(x) for x in row)
                    + f",{fitted:.4f},{closed:.4f},{abs(fitted - closed):.4f}"
                )
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
    elif args.which == "s":
        if not args.colorcode:
            raise ValidationError("s checks run on the --colorcode patch")
        report = check_transversal_s_colorcode(build_color_code_2d(args.L))
    else:
        raise ValidationError(f"unknown gate check {args.which!r}")
    _write_blocks(args.out, report.to_text())
    if not report.all_pass:
        raise GateConditionFailure(report.to_text())
    return 0


def cmd_merge(args) -> int:
    from .gates import merge_rough

    if args.level:
        spec = FractalSpec(args.dim, args.p, args.q, args.level, holes="m")
        a = css_from_complex(fractal_complex(spec, style="code"), 1)
        b = css_from_complex(fractal_complex(spec, style="code"), 1)
    else:
        a = css_from_complex(code_lattice(args.dim, args.L), 1)
        b = css_from_complex(code_lattice(args.dim, args.L), 1)
    result = merge_rough(a, b)
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


# the flags a command adds to the geometry flags when it reads them
_OPTIONAL_FLAGS = {
    "level": dict(type=int, default=1),
    "i": dict(type=int, default=1),
    "style": dict(default="plain", choices=["plain", "code"]),
    "out": dict(default=None),
}


def _add_spec_flags(p, *optional):
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--background", default="open", choices=["open", "torus", "sphere"])
    p.add_argument("--holes", default="m")
    for name in optional:
        p.add_argument(f"--{name}", **_OPTIONAL_FLAGS[name])


# Built once per process: parse_args reads the parser and changes nothing in it.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fractalcss",
        description="fractal cell complexes, CSS codes, exact distances, gate checks",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a fractal cell complex")
    _add_spec_flags(p, "level", "style", "out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("code", help="build a CSS code from a complex")
    _add_spec_flags(p, "level", "i", "style", "out")
    p.add_argument("--complex", default=None)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("params", help="code parameters from a csscode file")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("homology", help="Betti numbers of a complex")
    _add_spec_flags(p, "level", "style")
    p.add_argument("--complex", default=None)
    p.add_argument("--grade", type=int, default=1)
    p.add_argument("--relative", default="")
    p.add_argument("--lefschetz", action="store_true")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("distance", help="code distances")
    _add_spec_flags(p, "level", "i")
    p.add_argument("--complex", default=None)
    p.add_argument("--methods", default="bfs,mincut")
    p.add_argument("--wmax", type=int, default=2)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("scan", help="parameter/distance scan across levels")
    _add_spec_flags(p, "i", "out")
    p.add_argument("--level-min", type=int, default=1)
    p.add_argument("--level-max", type=int, default=2)
    p.add_argument("--methods", default="bfs,mincut")
    p.add_argument("--wmax", type=int, default=2)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("table1", help="Hausdorff dimensions and distance exponents")
    p.add_argument("--out", default=None)
    p.add_argument("--verify-levels", type=int, default=0)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("gate-check", help="transversal gate condition checks")
    p.add_argument("which", choices=["cz", "ccz", "s"])
    p.add_argument("--vb", action="store_true")
    p.add_argument("--colorcode", action="store_true")
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--hole", choices=["center"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gate_check)

    p = sub.add_parser("merge", help="merge two blocks along rough boundaries")
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--L", type=int, default=2)
    p.add_argument("--p", type=int, default=3)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--level", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("export", help="dump a check matrix in gf2matrix format")
    p.add_argument("--code", required=True)
    p.add_argument("--what", choices=["hx", "hz"], default="hx")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_export)

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
    except (ValidationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except AssertionError as err:  # after ValueError: a BoundaryError is bad input
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
