"""Bit-packed dense linear algebra over GF(2), and the ``gf2matrix v1`` text.

Codes and complexes are sparse (CSR `Faces`); packed words serve
elimination and the few dense views around it: `Gf2Vector`, `Gf2Matrix`
(products, transpose, submatrix, RREF), `rank`, `kernel_basis` and
`in_rowspace`.  Every 0/1 body the package writes, of a `Gf2Matrix` or of
a code's CSR checks, is rendered by one writer of CSR rows
(`_rows_to_text`), and read by `_rows_from_text`.

Matrices are stored row-major with 64 bits per machine word (numpy uint64,
LSB-first within each word).  Padding bits past the last column are kept at
zero.  Elimination returns the reduced row-echelon form, which is unique for
a given matrix, so reduced forms and kernel bases are canonical: they do
not depend on which row the kernel picks as a pivot.
The kernel (`_rref_inplace`) works one 64-column word at a time: it reads
the word column once, keeps the words of the rows with bits in it as a
small vector, jumps to the next pivot by the lowest set bit of the non-pivot
rows' OR, and XORs each pivot row into the other rows from that word on.

A pivot column of an RREF is a unit column, so reducing a vector by an
RREF XORs exactly the pivot rows at whose pivot columns the vector has a
bit: `in_rowspace` reads them off at once and is one such XOR.
Kernel bases are read off the free columns a chunk of words at a time.
Everything here is pure and safe to call from multiple threads.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

import numpy as np

from ._text import decode, encode, first_false, int64, with_newlines

_WORD = 64
# Whole-array steps that could grow with rows x columns work on chunks of
# at most this many words.
_CHUNK_WORDS = 1 << 17


def _n_words(nbits: int) -> int:
    return max(1, (nbits + _WORD - 1) // _WORD)


def _popcount(a: np.ndarray) -> int:
    return int(np.bitwise_count(a).sum())


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack 0/1 values along the last axis into LSB-first uint64 words."""
    packed = np.packbits(bits, axis=-1, bitorder="little")
    out = np.zeros(bits.shape[:-1] + (8 * _n_words(bits.shape[-1]),), dtype=np.uint8)
    out[..., : packed.shape[-1]] = packed
    return out.view("<u8")


def _unpack(words: np.ndarray, nbits: int) -> np.ndarray:
    """The first `nbits` bits of each row of LSB-first words, as 0/1 uint8."""
    bytes_le = words.astype("<u8").view(np.uint8)
    return np.unpackbits(bytes_le, axis=-1, count=nbits, bitorder="little")


class Gf2Vector:
    """A length-`n` bit vector over GF(2), packed into uint64 words."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: np.ndarray | None = None):
        self.n = int(n)
        if data is None:
            self.data = np.zeros(_n_words(self.n), dtype=np.uint64)
        else:
            data = np.ascontiguousarray(data, dtype=np.uint64)
            if data.shape != (_n_words(self.n),):
                raise ValueError(f"vector data of shape {data.shape} for length {self.n}")
            self.data = data

    @classmethod
    def from_indices(cls, n: int, indices) -> "Gf2Vector":
        v = cls(n)
        idx = np.fromiter(indices, dtype=np.int64)
        bad = idx[(idx < 0) | (idx >= v.n)]
        if bad.size:
            raise IndexError(f"bit {bad[0]} out of range for length {v.n}")
        np.bitwise_or.at(v.data, idx >> 6, np.uint64(1) << (idx & 63).astype(np.uint64))
        return v

    @classmethod
    def from_dense(cls, bits) -> "Gf2Vector":
        bits = np.asarray(bits, dtype=np.uint8) & 1
        return cls(len(bits), _pack(bits))

    def copy(self) -> "Gf2Vector":
        return Gf2Vector(self.n, self.data.copy())

    def weight(self) -> int:
        return _popcount(self.data)

    def is_zero(self) -> bool:
        return not self.data.any()

    def indices(self) -> list[int]:
        return np.flatnonzero(_unpack(self.data, self.n)).tolist()

    def dot(self, other: "Gf2Vector") -> int:
        """Parity of the overlap ``<self, other>`` over GF(2)."""
        if self.n != other.n:
            raise ValueError(f"lengths differ: {self.n} and {other.n}")
        return _popcount(self.data & other.data) & 1

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.n != other.n:
            raise ValueError(f"lengths differ: {self.n} and {other.n}")
        return Gf2Vector(self.n, self.data ^ other.data)

    def __ixor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.n != other.n:
            raise ValueError(f"lengths differ: {self.n} and {other.n}")
        self.data ^= other.data
        return self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Vector)
            and self.n == other.n
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.n, self.data.tobytes()))

    def to_dense(self) -> np.ndarray:
        return _unpack(self.data, self.n)

    def __repr__(self):
        return f"Gf2Vector({self.n}, weight={self.weight()})"


class Gf2Matrix:
    """A `rows x cols` matrix over GF(2), one packed row per matrix row."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: np.ndarray | None = None):
        self.rows = int(rows)
        self.cols = int(cols)
        w = _n_words(self.cols)
        if data is None:
            self.data = np.zeros((self.rows, w), dtype=np.uint64)
        else:
            data = np.ascontiguousarray(data, dtype=np.uint64)
            if data.shape != (self.rows, w):
                raise ValueError(
                    f"matrix data of shape {data.shape} for {self.rows} x {self.cols}"
                )
            self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, arr) -> "Gf2Matrix":
        arr = np.asarray(arr, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2D array")
        return cls(*arr.shape, _pack(arr))

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "Gf2Matrix":
        """Build from (row, col) positions, an iterable of pairs or an (m, 2)
        array (an odd number of repeats of a position sets the bit, one
        outside the matrix raises IndexError)."""
        m = cls(rows, cols)
        if not isinstance(entries, np.ndarray):
            entries = list(entries)
        rc = np.asarray(entries, dtype=np.int64).reshape(-1, 2)
        r, c = rc[:, 0], rc[:, 1]
        if r.size and (rc.min() < 0 or r.max() >= m.rows or c.max() >= m.cols):
            raise IndexError(f"an entry out of range for {m.rows} x {m.cols}")
        np.bitwise_xor.at(m.data, (r, c >> 6), np.uint64(1) << (c & 63).astype(np.uint64))
        return m

    # -- access ---------------------------------------------------------

    def row(self, r: int) -> Gf2Vector:
        return Gf2Vector(self.cols, self.data[r].copy())

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) index arrays of the set bits, in row-major order: only
        the nonzero words are unpacked, and searched as bools (fast nonzero)."""
        r, w = np.nonzero(self.data)
        words = self.data[r, w].astype("<u8").view(np.uint8)
        bit = np.flatnonzero(np.unpackbits(words, bitorder="little").view(bool))
        return r[bit >> 6], (w[bit >> 6] << 6) + (bit & 63)

    def copy(self) -> "Gf2Matrix":
        return Gf2Matrix(self.rows, self.cols, self.data.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Gf2Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data.tobytes()))

    def to_dense(self) -> np.ndarray:
        return _unpack(self.data, self.cols)

    # -- structural ops -----------------------------------------------

    def transpose(self) -> "Gf2Matrix":
        return Gf2Matrix.from_entries(self.cols, self.rows, np.column_stack(self.entries()[::-1]))

    def submatrix(self, row_idx, col_idx) -> "Gf2Matrix":
        """Select rows and columns (each a list of indices, order kept)."""
        rows, cols = list(row_idx), list(col_idx)
        bits = _unpack(self.data[rows], self.cols)[:, cols]
        return Gf2Matrix(len(rows), len(cols), _pack(bits))

    # -- arithmetic -----------------------------------------------------

    def matmul_t(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Return ``self @ other^T`` over GF(2): entry (i, j) is the parity of
        the overlap between row i of self and row j of other."""
        if self.cols != other.cols:
            raise ValueError(f"column counts differ: {self.cols} and {other.cols}")
        out = Gf2Matrix(self.rows, other.rows)
        for i in range(self.rows):
            out.data[i] = _pack(np.bitwise_count(self.data[i] & other.data).sum(axis=1) & 1)
        return out

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        if self.cols != other.rows:
            raise ValueError(f"inner sizes differ: {self.cols} and {other.rows}")
        return self.matmul_t(other.transpose())

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["Gf2Matrix", list[int]]:
        """Reduced row-echelon form: (R, pivot_cols), with the pivot rows
        first and zero rows after them.  The RREF is unique, so R and the
        pivots are canonical and downstream kernels deterministic.
        """
        R = self.copy()
        pivots = _rref_inplace(R.data, R.rows, R.cols)
        return R, pivots


def _rref_inplace(data: np.ndarray, rows: int, cols: int) -> list[int]:
    """Reduce ``data`` to its RREF in place; return the pivot columns.

    Word by word as the module docstring says: empty columns cost nothing,
    and a pivot row's words before the current one are zero.  Rows are not
    swapped while eliminating; the pivot rows move into place at the end,
    in one gather (a transient copy of `data`).
    The padding bits past `cols` are zero, so no pivot lands there.
    """
    pivots: list[int] = []
    order: list[int] = []  # row i of R is row order[i] of data
    is_pivot = np.zeros(rows, dtype=bool)
    for w in range(data.shape[1]):
        if len(pivots) == rows:
            break
        idx = np.flatnonzero(data[:, w])
        words = data[idx, w]
        free = ~is_pivot[idx]
        while acc := int(np.bitwise_or.reduce(words, where=free, initial=0)):
            low = acc & -acc
            hit = words & np.uint64(low) != 0
            p = int((hit & free).argmax())
            hit[p] = free[p] = False
            row, targets = int(idx[p]), idx[hit]
            if targets.size:
                data[targets, w:] ^= data[row, w:]
                words[hit] ^= words[p]
            is_pivot[row] = True
            pivots.append((w << 6) + low.bit_length() - 1)
            order.append(row)
    # the non-pivot rows are zero by now and go last
    data[:] = data[order + np.flatnonzero(~is_pivot).tolist()]
    return pivots


def rank(m: Gf2Matrix) -> int:
    """GF(2) row rank; equals rank of the transpose."""
    return _rank_in_place(m.copy())


def _rank_in_place(m: Gf2Matrix) -> int:
    """:func:`rank` of a matrix built for its rank only: it is eliminated
    without a copy and left in its reduced form."""
    return len(_rref_inplace(m.data, m.rows, m.cols))


def kernel_basis(m: Gf2Matrix) -> list[Gf2Vector]:
    """Canonical basis of the right kernel {v : m v = 0}.

    One basis vector per non-pivot column: bit set at the free column plus,
    for every pivot row whose RREF has a 1 in that free column, a bit at the
    pivot column.
    """
    K = _kernel_rows(*m.rref())
    return [Gf2Vector(K.cols, row) for row in K.data]


def _kernel_rows(R: Gf2Matrix, pivots: list[int]) -> Gf2Matrix:
    """The kernel basis of :func:`kernel_basis`, read off a computed RREF
    as the rows of a matrix.  The free columns of the RREF are read
    `_CHUNK_WORDS` words at a time."""
    piv = np.asarray(pivots, dtype=np.int64)
    free = np.ones(R.cols, dtype=bool)
    free[piv] = False
    free = np.flatnonzero(free)
    reduced = R.data[: len(piv)]
    rows, cols = [np.arange(len(free))], [free]
    step = max(1, _CHUNK_WORDS // max(1, len(piv)))
    for s in range(0, len(free), step):
        f = free[s : s + step]
        i, t = np.nonzero((reduced[:, f >> 6] >> (f & 63).astype(np.uint64)) & np.uint64(1))
        rows.append(t + s)
        cols.append(piv[i])
    entries = np.column_stack((np.concatenate(rows), np.concatenate(cols)))
    return Gf2Matrix.from_entries(len(free), R.cols, entries)


def in_rowspace(rref_matrix: Gf2Matrix, pivots: list[int], v: Gf2Vector) -> bool:
    """Membership test against a precomputed RREF (see :meth:`Gf2Matrix.rref`):
    v lies in the row space iff the pivot rows at its pivot bits XOR to v."""
    pivots = np.asarray(pivots, dtype=np.int64)
    at = (v.data[pivots >> 6] >> (pivots & 63).astype(np.uint64)) & np.uint64(1) != 0
    rows = rref_matrix.data[: len(pivots)][at, : len(v.data)]
    return not (v.data ^ np.bitwise_xor.reduce(rows, axis=0)).any()


# -- text format ------------------------------------------------------

# the bytes of 0/1 rows a writer renders, or the smooth-patch rule carries
# into a residue, at a time
_BLOCK_BYTES = 1 << 20


def matrix_to_text(m: Gf2Matrix) -> str:
    """Serialize in the ``gf2matrix v1`` text format."""
    r, c = m.entries()
    body = b"".join(_rows_to_text(np.searchsorted(r, np.arange(m.rows + 1)), c, m.cols))
    return f"gf2matrix v1\n{m.rows} {m.cols}\n" + body.decode("ascii")


def _rows_to_text(ptr: np.ndarray, idx: np.ndarray, cols: int) -> Iterator[memoryview]:
    """The body of a ``gf2matrix v1`` text, written from CSR rows (row r
    has a ``1`` at columns ``idx[ptr[r]:ptr[r + 1]]``): per row, cols
    ``0`` / ``1`` and a line break, in blocks of whole rows of about
    `_BLOCK_BYTES`, each a view of the array it was written in.  Every
    writer of a 0/1 body writes it here."""
    step = max(1, _BLOCK_BYTES // (cols + 1))
    for first in range(0, len(ptr) - 1, step):
        block = ptr[first : first + step + 1]
        rows = np.full((len(block) - 1, cols + 1), ord("0"), dtype=np.uint8)
        rows[:, cols] = ord("\n")
        rows[np.repeat(np.arange(len(rows)), np.diff(block)), idx[block[0] : block[-1]]] = ord("1")
        yield rows.reshape(-1).data


def matrix_from_text(text: str) -> Gf2Matrix:
    """Parse a ``gf2matrix v1`` file; malformed input raises ValueError."""
    grid = _rows_from_text(encode(with_newlines(text)))
    cols = grid.shape[1] - 1
    return Gf2Matrix(len(grid), cols, _pack(grid[:, :cols] == ord("1")))


# the head of a gf2matrix v1 text as the writers write it
_WRITTEN_HEAD = re.compile(rb"gf2matrix v1\n([0-9]{1,18}) ([0-9]{1,18})\n")
# the first two non-blank lines, without the whitespace before them
_MATRIX_HEAD = re.compile(r"\s*([^\n]*)\n?\s*([^\n]*)\n?")
# The most rows of no columns a text may declare, as they take no byte of
# it; no code the package builds has a check on no qubit.
_MAX_EMPTY_ROWS = 1 << 20


def _rows_from_text(raw) -> np.ndarray:
    """The rows of a ``gf2matrix v1`` text given as UTF-8 bytes whose line
    breaks are all "\\n", or a view of them: a (rows, cols + 1) array of
    character codes, cols of ``0`` or ``1``, then the line break.  Rows as
    the writers write them are validated as one view of `raw`; any other
    text is read as `_rows_from_str` reads it.  Malformed input raises
    ValueError."""
    head = _WRITTEN_HEAD.match(raw)
    if head:
        rows, cols = int(head[1]), int(head[2])
        b = np.frombuffer(raw, dtype=np.uint8)[head.end() :]
        if cols and _is_rows(b, rows, cols):
            return b.reshape(rows, cols + 1)
    return _rows_from_str(decode(bytes(raw)))


def _rows_from_str(text: str) -> np.ndarray:
    """`_rows_from_text` for a text given as str that is not in the
    writers' form."""
    head = _MATRIX_HEAD.match(text)
    if head[1].strip() != "gf2matrix v1":
        raise ValueError("not a gf2matrix v1 file")
    try:
        rows, cols = map(int64, head[2].split())
        if rows < 0 or cols < 0:
            raise ValueError
    except ValueError:
        raise ValueError("gf2matrix v1 line 2 must read '<rows> <cols>'") from None
    if not cols and rows > _MAX_EMPTY_ROWS:
        raise ValueError(f"{rows} rows of no columns, more than {_MAX_EMPTY_ROWS}")
    # rows are read stripped, and blank lines skipped
    body = "\n".join(filter(None, map(str.strip, text[head.end() :].split("\n"))))
    if not (cols or body):  # rows of no columns: blank lines, or none at all
        return np.full((rows, 1), ord("\n"), dtype=np.uint8)
    body += "\n" if body else ""
    got = body.count("\n")
    if got != rows:
        raise ValueError(f"expected {rows} data lines, got {got}")
    b = _chars(body)
    if not _is_rows(b, rows, cols):
        ends = np.flatnonzero(b == 10)
        length = np.diff(ends, prepend=-1) - 1
        short = first_false(length == cols)
        at = first_false((b == 48) | (b == 49) | (b == 10))  # not 0, 1 or a line end
        row = int(np.searchsorted(ends, at))
        if short <= row:
            raise ValueError(f"row {short} has length {length[short]}, expected {cols}")
        raise ValueError(f"bad character {body[at]!r} in row {row}")
    return b.reshape(rows, cols + 1)


def _chars(text: str) -> np.ndarray:
    """One byte per character: ``?`` for each that is not ASCII."""
    return np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)


def _is_rows(b: np.ndarray, rows: int, cols: int) -> bool:
    """Whether the characters b are `rows` lines of `cols` 0s and 1s, each
    ending in a line break."""
    if b.size != rows * (cols + 1):
        return False
    grid = b.reshape(rows, cols + 1)
    bits = grid[:, :cols]
    return not rows or bool(bits.min() >= 48 and bits.max() <= 49 and (grid[:, cols] == 10).all())
