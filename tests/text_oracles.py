"""Test-only oracles of the three text readers and of the two writers.

The readers are the line-by-line readers that `CellComplex.from_text`,
`code.code_from_text` and `gf2.matrix_from_text` ran before they parsed
arrays: every line split in Python, every token passed to ``int``, the
faces of a complex and the checks of a code built through
`Faces.from_pairs`.  They are kept verbatim.  On every input the array
readers must raise ValueError where these do, or return the same object,
with one intended difference: `code_from_text` now rejects a qubitmap
line ``q <j> -> cell <c>`` whose j is not the line's position, which
``code_from_text`` here never checked.

The writers, `complex_to_text` and `code_to_text`, are the per-line
writers that `CellComplex.to_text` and `code.code_to_text` ran before
they rendered byte buffers: one f-string per cell or qubit, and the check
matrices written from the dense `CssCode.hx` / `hz` by `matrix_to_text`,
the writer `gf2.matrix_to_text` was before every 0/1 body was written
from CSR rows: the packed words unpacked whole.  They are kept verbatim;
the array writers must write the same bytes.
"""

from __future__ import annotations

import numpy as np

from fractalcss.code import CssCode
from fractalcss.complexes import BULK, CellComplex, Faces, Hole
from fractalcss.gf2 import Gf2Matrix, _pack, _unpack


def complex_from_text(text: str) -> CellComplex:
    """Parse a ``cellcomplex v1`` file; malformed input raises ValueError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "cellcomplex v1":
        raise ValueError("not a cellcomplex v1 file")
    try:
        head = lines[1].split()
        dim = int(head[1])
        background = head[3]
        style, periods, holes = "plain", (None,) * dim, []
        pos = 2
        if lines[pos].startswith("meta "):
            toks = lines[pos].split()
            style = toks[2]
            periods = tuple(None if t == "-" else int(t) for t in toks[4 : 4 + dim])
            hole_tok = toks[5 + dim]
            if hole_tok != "-":
                for part in hole_tok.split(";"):
                    fields = part.split(",")
                    pairs = [t.split(":") for t in fields[3:]]
                    if len(pairs) != dim or any(len(p) != 2 for p in pairs):
                        raise ValueError(f"hole {part!r} needs {dim} lo:hi pairs")
                    hid, kind, level = int(fields[0]), fields[1], int(fields[2])
                    box = tuple((int(lo), int(hi)) for lo, hi in pairs)
                    holes.append(Hole(hid, box, kind, level))
            pos += 1
        counts = []
        for k in range(dim + 1):
            toks = lines[pos].split()
            if toks[:3] != ["grade", str(k), "count"] or int(toks[3]) < 0:
                raise ValueError(f"expected 'grade {k} count <n>', got {lines[pos]!r}")
            counts.append(int(toks[3]))
            pos += 1
        code = {BULK: 0}  # label -> code, in order of first use
        sep = 4 + 2 * dim  # the ':' after the label and the coordinates
        cells, labels, faces = [], [], []
        for k in range(dim + 1):
            coords, codes, rows, cols = [], [], [], []
            for i in range(counts[k]):
                toks = lines[pos].split()
                pos += 1
                if toks[:3] != ["cell", str(k), str(i)] or toks[sep : sep + 1] != [":"]:
                    raise ValueError(f"expected 'cell {k} {i} <label> <{2 * dim} "
                                     f"coordinates> : <faces>', got {lines[pos - 1]!r}")
                coords.extend(map(int, toks[4:sep]))
                codes.append(code.setdefault(toks[3], len(code)))
                fs = toks[sep + 1 :]
                cols.extend(map(int, fs))
                rows.extend([i] * len(fs))
            n = counts[k]
            cells.append(np.array(coords, dtype=np.int64).reshape(n, dim, 2))
            labels.append(np.array(codes, dtype=np.int64))
            faces.append(Faces.from_pairs(n, rows, cols))
        if pos != len(lines):
            raise ValueError(f"{len(lines) - pos} lines after the last cell")
    except (IndexError, OverflowError) as err:
        raise ValueError("cellcomplex v1 file is truncated or has a short line") from err
    return CellComplex(dim, cells, labels, list(code), faces, background, style, periods, holes)


def matrix_from_text(text: str) -> Gf2Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "gf2matrix v1":
        raise ValueError("not a gf2matrix v1 file")
    shape = lines[1].split() if len(lines) > 1 else []
    if len(shape) != 2 or not all(t.isdigit() for t in shape):
        raise ValueError("gf2matrix v1 line 2 must read '<rows> <cols>'")
    rows, cols = map(int, shape)
    if len(lines) != 2 + rows:
        raise ValueError(f"expected {rows} data lines, got {len(lines) - 2}")
    body = [ln.strip() for ln in lines[2:]]
    for r, line in enumerate(body):
        if len(line) != cols:
            raise ValueError(f"row {r} has length {len(line)}, expected {cols}")
        if line.count("0") + line.count("1") != cols:
            ch = next(ch for ch in line if ch not in "01")
            raise ValueError(f"bad character {ch!r} in row {r}")
    bits = np.frombuffer("".join(body).encode("ascii"), dtype=np.uint8).reshape(rows, cols)
    return Gf2Matrix(rows, cols, _pack(bits - ord("0")))


def code_from_text(text: str) -> CssCode:
    """Parse a ``csscode v1`` file; malformed input raises ValueError."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "csscode v1":
        raise ValueError("not a csscode v1 file")
    toks = lines[1].split() if len(lines) > 1 else []
    if len(toks) != 4 or toks[0] != "nqubits" or toks[2] != "i":
        raise ValueError("csscode v1 line 2 must read 'nqubits <n> i <i>'")
    n, i = int(toks[1]), int(toks[3])
    ix_hx = lines.index("HX")
    ix_hz = lines.index("HZ")
    ix_map = lines.index("qubitmap")
    hx = matrix_from_text("\n".join(lines[ix_hx + 1 : ix_hz]))
    hz = matrix_from_text("\n".join(lines[ix_hz + 1 : ix_map]))
    if not hx.cols == n == hz.cols:
        raise ValueError(f"HX and HZ have {hx.cols} and {hz.cols} columns for {n} qubits")
    x_checks, z_checks = (Faces.from_pairs(m.rows, *m.entries()) for m in (hx, hz))
    qubit_cells = []
    for ln in lines[ix_map + 1 :]:
        if ln.strip():
            toks = ln.split()
            if len(toks) != 5 or toks[0] != "q" or toks[2:4] != ["->", "cell"]:
                raise ValueError(f"bad qubitmap line {ln!r}")
            qubit_cells.append(int(toks[4]))
    if len(qubit_cells) != n:
        raise ValueError(f"qubitmap has {len(qubit_cells)} lines for {n} qubits")
    try:
        return CssCode(
            n_qubits=n,
            x_checks=x_checks,
            z_checks=z_checks,
            grading=i,
            qubit_cells=qubit_cells,
            x_anchor_cells=[],
            source=None,
        )
    except AssertionError as err:  # the checks do not commute
        raise ValueError(str(err)) from err


def complex_to_text(self: CellComplex) -> str:
    lines = ["cellcomplex v1", f"dim {self.dim} background {self.background}"]
    per = " ".join("-" if p is None else str(p) for p in self.periods)
    holes = ";".join(f"{h.hole_id},{h.kind},{h.level}," +
                     ",".join(f"{lo}:{hi}" for lo, hi in h.box) for h in self.holes)
    lines.append(f"meta style {self.style} periods {per} holes {holes if holes else '-'}")
    for k in range(self.dim + 1):
        lines.append(f"grade {k} count {self.n_cells(k)}")
    for k in range(self.dim + 1):
        n = self.n_cells(k)
        names = [self.label_names[c] for c in self.labels[k].tolist()]
        boxes = self.cells[k].reshape(n, 2 * self.dim).tolist()
        ptr = self.faces[k].ptr.tolist()
        idx = list(map(str, self.faces[k].idx.tolist()))
        for i in range(n):
            coords = " ".join(map(str, boxes[i]))
            faces = " ".join(idx[ptr[i] : ptr[i + 1]])
            lines.append(f"cell {k} {i} {names[i]} {coords} : {faces}".rstrip())
    return "\n".join(lines) + "\n"


def matrix_to_text(m: Gf2Matrix) -> str:
    """Serialize in the ``gf2matrix v1`` text format."""
    rows = np.full((m.rows, m.cols + 1), ord("\n"), dtype=np.uint8)
    rows[:, : m.cols] = _unpack(m.data, m.cols) + ord("0")
    return f"gf2matrix v1\n{m.rows} {m.cols}\n" + rows.tobytes().decode("ascii")


def code_to_text(code: CssCode) -> str:
    lines = [f"csscode v1", f"nqubits {code.n_qubits} i {code.grading}", "HX"]
    lines.append(matrix_to_text(code.hx).rstrip("\n"))
    lines.append("HZ")
    lines.append(matrix_to_text(code.hz).rstrip("\n"))
    lines.append("qubitmap")
    for q, cell in enumerate(code.qubit_cells):
        lines.append(f"q {q} -> cell {cell}")
    return "\n".join(lines) + "\n"
