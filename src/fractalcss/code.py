"""CSS codes built from labeled cell complexes.

Qubits sit on the i-cells.  Each surviving (i-1)-cell anchors an X
stabilizer on its cofaces; each surviving (i+1)-cell anchors a Z
stabilizer on its faces.  A code holds its checks in CSR form, the X checks
both ways: per check (`CssCode.x_checks`, `z_checks`) and per qubit
(`qubit_x`, which `css_from_complex` transposes into the X rows).  k, the
logical tests and the logical basis read one reduction of the code's own
chain complex, Z checks -(H_Z^T)-> qubits -(H_X)-> X checks, by the
collapses and coreductions of `homology` (`CssCode.reduction`): only its
small residue is ranked, by `homology._RowSpace`, which contracts the
residue's weight-2 rows and eliminates only the rows left folded onto
their components.  Every other row-space question is put to that residue
too: the merge's parity identity and the colour-code S check ask whether
a vector is a product of checks, the logical basis is the residue's
kernel rows that are independent of its other row space, carried back to
every qubit by the reduction's rounds in reverse (`_ChainReduction.basis`),
and the plain style's smooth-patch pruning keeps the M checks whose images
in the residue of the non-M checks are independent (`_smooth_patch_rows`).
No code-sized matrix is eliminated.
The text writer writes the 0/1 rows of a ``csscode v1`` file from the
CSR rows through `gf2`'s one body writer, about 1 MB at a time.  The
reader gives the text "\n" line breaks once, at its entry, parses it
once, and builds the CSR rows straight from the 0/1 rows.
Boundary conditions are label-driven:

* every cell of an E-labeled (rough) patch is dropped from the code -
  its i-cells are not qubits and its (i-1)-cells anchor no X stabilizer,
  which leaves dangling qubits with truncated Z stabilizers next to the
  patch;
* an M-labeled (smooth) patch keeps all its cells but the Z stabilizers
  anchored on the patch's (i+1)-cells are removed (they are products of
  bulk stabilizers, so the group is unchanged).

H_Z H_X^T = 0 is checked for every constructed code, truncations
included, by the blocked product test of dd = 0 (`Faces.composes_to_zero`):
each Z check must reach each X check evenly through its qubits (`qubit_x`).
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexes import CellComplex, Faces, label_is_e, label_is_m
from ._text import Tokens, decode, encode, first_false, int64, with_newlines, write_lines
from .gf2 import _BLOCK_BYTES, Gf2Matrix, Gf2Vector, _pack, _rows_from_text, _rows_to_text
from .homology import _Reduction, _RowSpace, betti, default_label_split


@dataclass(frozen=True)
class PauliOperator:
    """X- and Z-support bit vectors over the qubits of one code block."""

    x_support: Gf2Vector
    z_support: Gf2Vector

    @classmethod
    def x_type(cls, support: Gf2Vector) -> "PauliOperator":
        return cls(support, Gf2Vector(support.n))

    @classmethod
    def z_type(cls, support: Gf2Vector) -> "PauliOperator":
        return cls(Gf2Vector(support.n), support)

    def is_x_type(self) -> bool:
        return self.z_support.is_zero()

    def is_z_type(self) -> bool:
        return self.x_support.is_zero()


@dataclass
class CssCode:
    """The checks in CSR form, rows ascending: row r of `x_checks` (`z_checks`)
    lists the qubits of X (Z) check r, row q of `qubit_x` the X checks of qubit q
    (`css_from_complex`'s; else transposed here).  Qubit q is the cell
    `qubit_cells[q]` (made int64), so there are `len(qubit_cells)` qubits."""

    x_checks: Faces
    z_checks: Faces
    grading: int
    qubit_cells: np.ndarray
    # the complex whose label-driven code the checks are, if any
    source: CellComplex | None = None
    qubit_x: Faces | None = None

    def __post_init__(self):
        self.qubit_cells = np.asarray(self.qubit_cells, dtype=np.int64)
        # the columns first: the transpose reads the X checks' columns
        for checks, n in ((self.x_checks, self.n_qubits), (self.z_checks, self.n_qubits),
                          (self.qubit_x, len(self.x_checks))):
            if checks is None:
                checks = self.qubit_x = self.x_checks.transpose(self.n_qubits)
            if checks.idx.size and not 0 <= checks.idx.min() <= checks.idx.max() < n:
                raise AssertionError(f"check columns outside 0..{n - 1}")
        if (len(self.qubit_x), self.qubit_x.idx.size) != (self.n_qubits, self.x_checks.idx.size):
            raise AssertionError("qubit_x is not shaped as the X checks' transpose")
        if not self.z_checks.composes_to_zero(self.qubit_x, len(self.x_checks)):
            raise AssertionError("H_X H_Z^T != 0: X and Z checks do not commute")

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_cells)

    # The dense check matrices, built on first use; no feature of the package reads them.
    @cached_property
    def hx(self) -> Gf2Matrix:
        return self.x_checks.matrix(self.n_qubits)

    @cached_property
    def hz(self) -> Gf2Matrix:
        return self.z_checks.matrix(self.n_qubits)

    # The one reduction of the code's chain complex: k, the logical tests
    # and the colour-code S check read it.
    @cached_property
    def reduction(self) -> "_ChainReduction":
        return _ChainReduction(self.x_checks, self.z_checks, self.qubit_x)

    # The one qubit graph of the code: d_Z, d_X and their refusals read it.
    @cached_property
    def _qubit_graph(self):
        from .distance import _QubitGraph
        return _QubitGraph(self)


class _ChainReduction:
    """The code as the chain complex C_2 = Z checks -(H_Z^T)-> C_1 = qubits
    -(H_X)-> C_0 = X checks, reduced once by `homology._Reduction`.

    No reduction pair changes the boundary of a cell that stays, so the
    residue's check matrices are H_X and H_Z restricted to the live checks
    and qubits; k is dim H_1 of the residue, read off their ranks
    (`homology._RowSpace`).  The qubits' faces are `qubit_x`, their X checks;
    Z checks outside `live_z`, if given, start dead.
    The pairs give chain maps both ways (Kaczynski, Mrozek & Slusarek,
    Comput. Math. Appl. 1998).  Into the residue (`_image`), a Z-cycle z
    takes the qubits of Z check b where a grade-1/2 collapse paired b with a
    qubit of z; back out (`basis`), last round first, it takes qubit a where
    a grade-1/0 coreduction paired a with an X check that z meets oddly.  An
    X-cocycle takes the other kind of round each way.  Other pairs, and seeds
    (each the sum of the other live checks of its type), change neither map
    nor any row space.  A replay may add a whole check: a qubit removed in an
    earlier round is never read again.  z (x) is a product of Z (X) checks
    iff its image is in the row space of the residue's H_Z (H_X).
    """

    def __init__(self, x_rows: Faces, z_rows: Faces, qubit_x: Faces,
                 live_z: np.ndarray | None = None):
        self.x_rows, self.z_rows, n = x_rows, z_rows, len(qubit_x)
        red = _Reduction([Faces.empty(len(x_rows)), qubit_x, z_rows],
                         [x_rows, z_rows.transpose(n)], None if live_z is None else
                         [np.ones(len(x_rows), dtype=bool), np.ones(n, dtype=bool), live_z])
        self.live_x, self.live, self.live_z = red.run()[0]
        # (qubits, their checks) per round of grade-1/2 collapses and of
        # grade-1/0 coreductions
        self.z_rounds = [(q, c) for g, h, q, c in red.rounds if (g, h) == (1, 2)]
        self.x_rounds = [(q, c) for g, h, q, c in red.rounds if (g, h) == (1, 0)]

    # Each residue's row space is built on first use: an X-only query (the
    # merge's parity identity) never builds the Z one, a Z-only query (the
    # colour-code S check) never the X one; k needs both.
    @cached_property
    def x_space(self) -> _RowSpace:
        return _RowSpace(self.x_rows.restrict(self.live_x, self.live), int(self.live.sum()))

    @cached_property
    def z_space(self) -> _RowSpace:
        return _RowSpace(self.z_rows.restrict(self.live_z, self.live), int(self.live.sum()))

    @cached_property
    def k(self) -> int:
        return int(self.live.sum()) - self.x_space.rank - self.z_space.rank

    def _image(self, bits: np.ndarray, rounds, rows: Faces) -> np.ndarray:
        """The 0/1 rows `bits` over all qubits carried through the recorded
        rounds into the residue, as 0/1 rows over the live qubits: the
        qubits of a check are added to each row that holds its paired
        qubit.  `bits` is changed in place."""
        for qubits, checks in rounds:
            r, j = np.nonzero(bits[:, qubits])
            if r.size:
                held = checks[j]
                sizes = rows.ptr[held + 1] - rows.ptr[held]
                np.bitwise_xor.at(bits, (np.repeat(r, sizes), rows.take(held)), 1)
        return bits[:, self.live]

    def basis(self, kind: str) -> np.ndarray:
        """k representatives of the Z-logicals (`kind` "Z") or X-logicals
        ("X") as 0/1 rows over all qubits: the kernel rows of the residue's
        H_X (H_Z) that are independent of the residue's H_Z (H_X) and of the
        rows before them, carried back to every qubit."""
        z = kind == "Z"
        cut, cut_space, span_space = ((self.x_rows, self.x_space, self.z_space) if z
                                      else (self.z_rows, self.z_space, self.x_space))
        cycles = cut_space.kernel()
        picked = span_space.independent(cycles)
        bits = np.zeros((len(picked), len(self.live)), dtype=np.uint8)
        bits[np.repeat(np.arange(len(picked)), cycles.counts()[picked]),
             np.flatnonzero(self.live)[cycles.take(picked)]] = 1
        for qubits, checks in reversed(self.x_rounds if z else self.z_rounds):
            # at least 1 each: a check holds its paired qubit
            sizes = cut.ptr[checks + 1] - cut.ptr[checks]
            bits[:, qubits] ^= np.bitwise_xor.reduceat(
                bits[:, cut.take(checks)], np.cumsum(sizes) - sizes, axis=1)
        return bits

    def is_z_stabilizer(self, z: Gf2Vector) -> bool:
        """Whether a Z-cycle (H_X z = 0) is a product of Z checks."""
        image = self._image(z.to_dense()[None], self.z_rounds, self.z_rows)
        return self.z_space.contains(image[0])

    def is_x_stabilizer(self, x: Gf2Vector) -> bool:
        """Whether an X-cocycle (H_Z x = 0) is a product of X checks."""
        image = self._image(x.to_dense()[None], self.x_rounds, self.x_rows)
        return self.x_space.contains(image[0])


@dataclass(frozen=True)
class CodeParams:
    n_qubits: int
    k: int


def css_from_complex(cx: CellComplex, i: int) -> CssCode:
    """Build the (i, n-i) code of a labeled complex."""
    n = cx.dim
    if not 1 <= i <= n - 1:
        raise ValueError(f"grading {i} out of range 1..{n - 1}")

    x_anchor, qubit, z_anchor = (~cx.label_mask(k, label_is_e) for k in (i - 1, i, i + 1))
    # Smooth-patch rule: a Z stabilizer anchored on an M-labeled (i+1)-cell
    # is dropped when it is a product of the kept ones, so m-condensation is
    # manifest in the generating set while the stabilizer group (and k) is
    # unchanged.  An independent M-anchored plaquette stays.  The last M face
    # of an (i+2)-cell anchors no check: it is the sum of the cell's other
    # faces (dd = 0; an e-face restricts to no qubit), all before it, and
    # dropping a check that depends on those before it changes no later one's
    # independence (the clearing of Chen & Kerber, EuroCG 2011).  At the plain
    # FC(3,1) level 3 it drops 8,220 of 8,862 M checks; `_smooth_patch_rows`
    # decides the others.
    is_m = cx.label_mask(i + 1, label_is_m)
    if i + 2 <= n and is_m[z_anchor].any():
        up = cx.faces[i + 2]
        at = np.flatnonzero(is_m[up.idx])  # the M entries; their cells from the row pointers
        last = np.full(len(up), -1, dtype=np.int64)
        np.maximum.at(last, up.ptr[1:].searchsorted(at, "right"), up.idx[at])
        z_anchor[last[last >= 0]] = False
    # row r: the qubit cells among the faces (Z; restricted before the X tables
    # are held) or cofaces (X; each qubit's anchor faces, transposed) of anchor r
    z_checks = cx.faces[i + 1].restrict(z_anchor, qubit)
    qubit_x = cx.faces[i].restrict(qubit, x_anchor)
    x_checks = qubit_x.transpose(int(x_anchor.sum()))
    keep_x, keep_z = x_checks.counts() > 0, z_checks.counts() > 0
    if is_m[z_anchor].any():
        keep_z &= _smooth_patch_rows(x_checks, z_checks, qubit_x, is_m[z_anchor])
    del is_m  # a cell mask: not held beside the checks' last copies
    every = np.ones(len(qubit_x), dtype=bool)  # dropping only empty rows shares the entries
    x_checks, z_checks = x_checks.restrict(keep_x, every), z_checks.restrict(keep_z, every)
    return CssCode(
        x_checks=x_checks,
        z_checks=z_checks,
        grading=i,
        qubit_cells=np.flatnonzero(qubit),
        source=cx,
        qubit_x=qubit_x.restrict(every, keep_x),  # itself when every anchor has a qubit
    )


def _smooth_patch_rows(x_checks: Faces, z_checks: Faces, qubit_x: Faces,
                       is_m: np.ndarray) -> np.ndarray:
    """Per Z check, whether to keep it: every non-M check, and each M check
    (`is_m`) independent of the non-M checks and of the M checks before it.

    The M checks are carried, a block of rows at a time, into the residue
    of the non-M checks' chain reduction, where a Z-cycle is a product of
    checks iff its image is, and kept where the residue's
    `_RowSpace.independent` picks their images."""
    keep, rest, n = ~is_m, np.flatnonzero(is_m), len(qubit_x)
    red = _ChainReduction(x_checks, z_checks, qubit_x, ~is_m)  # the M checks start dead
    sizes, step = z_checks.counts(), max(1, _BLOCK_BYTES // max(n, 1))
    rows, cols = [], []
    for first in range(0, len(rest), step):
        block = rest[first : first + step]
        bits = np.zeros((len(block), n), dtype=np.uint8)
        bits[np.repeat(np.arange(len(block)), sizes[block]), z_checks.take(block)] = 1
        r, c = np.nonzero(red._image(bits, red.z_rounds, red.z_rows))
        del bits  # before the next block's rows are allocated
        rows.append(r + first)
        cols.append(c)
    images = Faces.from_pairs(len(rest), np.concatenate(rows), np.concatenate(cols))
    keep[rest[red.z_space.independent(images)]] = True
    return keep


def code_params(code: CssCode, cross_check: bool = True) -> CodeParams:
    """n and k = dim H_1 of the code's reduced chain complex; k is
    cross-checked against the matching (relative) homology of the labelled
    complex when the source complex is known."""
    k = code.reduction.k
    hk = homology_k(code) if cross_check and code.source is not None else None
    if hk is not None and hk != k:
        raise AssertionError(
            f"k={k} from ranks but dim H_{code.grading} = {hk}; "
            "code construction and homology disagree"
        )
    return CodeParams(code.n_qubits, k)


def homology_k(code: CssCode) -> int:
    """dim of the homology group matching the code's boundary conditions."""
    e_labels, _ = default_label_split(code.source)
    return betti(code.source, code.grading, e_labels)


def logical_basis(code: CssCode) -> tuple[list[PauliOperator], list[PauliOperator]]:
    """k Z-type and k X-type logical representatives, symplectically paired.

    Z-logicals span ker(H_X) / rowspace(H_Z), X-logicals span
    ker(H_Z) / rowspace(H_X); both come from the code's chain reduction
    (`_ChainReduction.basis`), and a greedy symplectic Gram-Schmidt with
    fixed qubit ordering normalizes the pairing matrix to the identity, so
    the basis is deterministic.
    """
    z, x = (_pack(code.reduction.basis(kind)) for kind in "ZX")
    if len(z) != len(x):
        raise AssertionError(
            f"{len(z)} Z-logicals but {len(x)} X-logicals: the checks are inconsistent"
        )
    k = len(z)
    if k == 0:
        return [], []

    # the pairing parities z_a . x_b of the reps' packed rows
    pair = np.array([np.bitwise_count(x & row).sum(axis=1) & 1 for row in z], dtype=np.uint8)
    for t in range(k):
        odd = np.argwhere(pair[t:, t:])  # in row-major order
        if not len(odd):
            raise AssertionError("symplectic pairing is singular")
        r, c = odd[0] + t
        z[[t, r]], pair[[t, r]] = z[[r, t]], pair[[r, t]]
        x[[t, c]], pair[:, [t, c]] = x[[c, t]], pair[:, [c, t]]
        rows, cols = pair[:, t] == 1, pair[t] == 1
        rows[t] = cols[t] = False
        z[rows] ^= z[t]
        pair[rows] ^= pair[t]
        x[cols] ^= x[t]
        pair[:, cols] ^= pair[:, [t]]
    if (pair != np.eye(k, dtype=np.uint8)).any():
        raise AssertionError("symplectic pairing did not reduce to the identity")
    return (
        [PauliOperator.z_type(Gf2Vector(code.n_qubits, row)) for row in z],
        [PauliOperator.x_type(Gf2Vector(code.n_qubits, row)) for row in x],
    )


def _syndrome_free(checks: Faces, support: Gf2Vector) -> bool:
    """Whether every check meets the support an even number of times."""
    return not checks.parity(support.to_dense()).any()


def is_z_logical(code: CssCode, support: Gf2Vector) -> bool:
    """Syndrome-free against the X checks and outside the Z-stabilizer span."""
    if not _syndrome_free(code.x_checks, support):
        return False
    return not code.reduction.is_z_stabilizer(support)


def is_x_logical(code: CssCode, support: Gf2Vector) -> bool:
    """Syndrome-free against the Z checks and outside the X-stabilizer span."""
    if not _syndrome_free(code.z_checks, support):
        return False
    return not code.reduction.is_x_stabilizer(support)


# -- serialization -----------------------------------------------------------


def check_matrix_blocks(code: CssCode, which: str) -> Iterator[bytes | memoryview]:
    """H_X (`which` "hx") or H_Z ("hz") as a ``gf2matrix v1`` file, in
    UTF-8 blocks, the 0/1 rows about 1 MB at a time."""
    checks = code.x_checks if which == "hx" else code.z_checks
    yield f"gf2matrix v1\n{len(checks)} {code.n_qubits}\n".encode()
    yield from _rows_to_text(checks.ptr, checks.idx, code.n_qubits)


def code_blocks(code: CssCode) -> Iterator[bytes | memoryview]:
    """`code_to_text` as UTF-8 blocks, the 0/1 rows about 1 MB at a time."""
    n, cells = code.n_qubits, code.qubit_cells
    yield f"csscode v1\nnqubits {n} i {code.grading}\n".encode()
    for word, checks in (("HX", code.x_checks), ("HZ", code.z_checks)):
        yield f"{word}\ngf2matrix v1\n{len(checks)} {n}\n".encode()
        if n:  # rows of no columns are bare line breaks, which a section drops
            yield from _rows_to_text(checks.ptr, checks.idx, n)
    # the qubit map's lines: the word "q", j, the word "-> cell", the cell
    fixed = np.column_stack((np.zeros_like(cells), np.arange(len(cells)), np.ones_like(cells), cells))
    yield b"qubitmap\n" + write_lines(["q", "-> cell"], fixed, np.array([True, False, True, False]))


def code_to_text(code: CssCode) -> str:
    return b"".join(code_blocks(code)).decode()


def code_from_text(text: str) -> CssCode:
    """Parse a ``csscode v1`` file; malformed input raises ValueError.

    Lines are read as `str.splitlines` reads them: the text is first given
    "\\n" line breaks (`with_newlines`, which leaves the writer's text as
    it is)."""
    n, i, hx, hz, raw_map = _code_parts(encode(with_newlines(text)))
    if not hx.shape[1] - 1 == n == hz.shape[1] - 1:
        raise ValueError(f"HX and HZ have {hx.shape[1] - 1} and {hz.shape[1] - 1} columns "
                         f"for {n} qubits")
    # the (row, column) of each 1, row by row: the CSR rows come out sorted
    x_checks, z_checks = (Faces.from_pairs(len(m), *np.divmod(np.flatnonzero(m == ord("1")), n + 1))
                          for m in (hx, hz))
    try:
        return CssCode(x_checks, z_checks, i, _read_qubitmap(raw_map, n))
    except AssertionError as err:  # the checks do not commute
        raise ValueError(str(err)) from err


# the first two lines of a text whose line breaks are all "\n"
_HEAD = re.compile(rb"([^\n]*)\n?([^\n]*)")


def _code_parts(raw: bytes):
    """The qubit count, the grading, the HX and HZ rows (`_rows_from_text`
    of each body, a view of `raw`) and the qubit map's bytes of the encoded
    ``csscode v1`` text `raw`, whose line breaks are all "\\n"; malformed
    input raises ValueError."""
    head = _HEAD.match(raw)
    if decode(head[1]).strip() != "csscode v1":
        raise ValueError("not a csscode v1 file")
    toks = decode(head[2]).split()
    if len(toks) != 4 or toks[0] != "nqubits" or toks[2] != "i":
        raise ValueError("csscode v1 line 2 must read 'nqubits <n> i <i>'")
    n, i = int64(toks[1]), int64(toks[3])
    at_hx, at_hz, at_map = (_line_at(raw, word) for word in ("HX", "HZ", "qubitmap"))
    view = memoryview(raw)
    hx = _rows_from_text(view[at_hx + len("HX\n") : at_hz])
    hz = _rows_from_text(view[at_hz + len("HZ\n") : at_map])
    return n, i, hx, hz, raw[at_map + len("qubitmap\n") :]


def _line_at(raw: bytes, word: str) -> int:
    """Where the first line that reads exactly `word` starts, after byte 0."""
    # found by its first letter, which bytes.find scans for fastest and
    # which no 0/1 row of a check matrix holds
    w = word.encode()
    at = raw.find(w[:1], 1)
    while at >= 0 and not (raw[at - 1] == 10 and raw.startswith(w, at)
                           and raw[at + len(w) : at + len(w) + 1] in (b"\n", b"")):
        at = raw.find(w[:1], at + 1)
    if at < 0:
        raise ValueError(f"{word!r} is not in list")
    return at


def _read_qubitmap(raw: bytes, n: int) -> np.ndarray:
    """The cells of the lines ``q <j> -> cell <c>``, the j-th non-blank line
    naming qubit j; malformed input raises ValueError."""
    tok = Tokens(raw)
    lines = len(tok.first)
    ok = ((tok.count == 5) & tok.is_word(tok.column(0), b"q") & tok.is_word(tok.column(2), b"->")
          & tok.is_word(tok.column(3), b"cell"))
    bad = first_false(ok)
    cells = tok.ints(tok.first[:bad] + 4)
    if bad < lines:
        raise ValueError(f"bad qubitmap line {tok.line_text(bad)!r}")
    if lines != n:
        raise ValueError(f"qubitmap has {lines} lines for {n} qubits")
    index = first_false(tok.is_int(tok.column(1), np.arange(n)))
    if index < n:
        raise ValueError(f"expected 'q {index} -> cell <c>', got {tok.line_text(index)!r}")
    return cells
