"""Bit-packed dense linear algebra over GF(2).

Matrices are stored row-major with 64 bits per machine word (numpy uint64,
LSB-first within each word).  Padding bits past the last column are kept at
zero.  Elimination always runs a full forward+backward pass with
first-nonzero pivoting, so reduced forms, kernels and particular solutions
are canonical: the same input reproduces the same output bit for bit.

This module is the workhorse under every homology and code-parameter
computation in the package; everything here is pure and safe to call from
multiple threads.
"""

from __future__ import annotations

import numpy as np

_WORD = 64


def _n_words(nbits: int) -> int:
    return max(1, (nbits + _WORD - 1) // _WORD)


def _pad_mask(nbits: int) -> np.uint64:
    """Mask selecting the valid bits of the last word."""
    r = nbits % _WORD
    if r == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << r) - 1)


def _popcount(a: np.ndarray) -> int:
    return int(np.bitwise_count(a).sum())


class Gf2Vector:
    """A length-`n` bit vector over GF(2), packed into uint64 words."""

    __slots__ = ("n", "data")

    def __init__(self, n: int, data: np.ndarray | None = None):
        self.n = int(n)
        if data is None:
            self.data = np.zeros(_n_words(self.n), dtype=np.uint64)
        else:
            data = np.ascontiguousarray(data, dtype=np.uint64)
            assert data.shape == (_n_words(self.n),)
            self.data = data

    @classmethod
    def from_indices(cls, n: int, indices) -> "Gf2Vector":
        v = cls(n)
        for i in indices:
            v.set(int(i), 1)
        return v

    @classmethod
    def from_dense(cls, bits) -> "Gf2Vector":
        bits = np.asarray(bits, dtype=np.uint8) & 1
        v = cls(len(bits))
        for i in np.nonzero(bits)[0]:
            v.set(int(i), 1)
        return v

    def copy(self) -> "Gf2Vector":
        return Gf2Vector(self.n, self.data.copy())

    def get(self, i: int) -> int:
        return int((self.data[i >> 6] >> np.uint64(i & 63)) & np.uint64(1))

    def set(self, i: int, value: int) -> None:
        if not 0 <= i < self.n:
            raise IndexError(f"bit {i} out of range for length {self.n}")
        bit = np.uint64(1) << np.uint64(i & 63)
        if value & 1:
            self.data[i >> 6] |= bit
        else:
            self.data[i >> 6] &= ~bit

    def weight(self) -> int:
        return _popcount(self.data)

    def is_zero(self) -> bool:
        return not self.data.any()

    def indices(self) -> list[int]:
        out = []
        for w in range(len(self.data)):
            word = int(self.data[w])
            while word:
                b = word & -word
                out.append((w << 6) + b.bit_length() - 1)
                word ^= b
        return out

    def dot(self, other: "Gf2Vector") -> int:
        """Parity of the overlap ``<self, other>`` over GF(2)."""
        assert self.n == other.n
        return _popcount(self.data & other.data) & 1

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        assert self.n == other.n
        return Gf2Vector(self.n, self.data ^ other.data)

    def __ixor__(self, other: "Gf2Vector") -> "Gf2Vector":
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
        out = np.zeros(self.n, dtype=np.uint8)
        for i in self.indices():
            out[i] = 1
        return out

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
            assert data.shape == (self.rows, w), (data.shape, (self.rows, w))
            self.data = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Gf2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "Gf2Matrix":
        m = cls(n, n)
        for i in range(n):
            m.set(i, i, 1)
        return m

    @classmethod
    def from_dense(cls, arr) -> "Gf2Matrix":
        arr = np.asarray(arr, dtype=np.uint8) & 1
        if arr.ndim != 2:
            raise ValueError("expected a 2D array")
        rows, cols = arr.shape
        m = cls(rows, cols)
        rr, cc = np.nonzero(arr)
        if len(rr):
            np.bitwise_or.at(
                m.data,
                (rr, cc >> 6),
                np.uint64(1) << (cc & 63).astype(np.uint64),
            )
        return m

    @classmethod
    def from_entries(cls, rows: int, cols: int, entries) -> "Gf2Matrix":
        """Build from an iterable of (row, col) positions (an odd number of
        repeats of a position sets the bit)."""
        m = cls(rows, cols)
        rc = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        r, c = rc[:, 0], rc[:, 1]
        np.bitwise_xor.at(m.data, (r, c >> 6), np.uint64(1) << (c & 63).astype(np.uint64))
        return m

    @classmethod
    def from_row_vectors(cls, vecs: list[Gf2Vector], cols: int | None = None) -> "Gf2Matrix":
        if cols is None:
            if not vecs:
                raise ValueError("need cols when the row list is empty")
            cols = vecs[0].n
        m = cls(len(vecs), cols)
        for i, v in enumerate(vecs):
            assert v.n == cols
            m.data[i, :] = v.data
        return m

    # -- element access -----------------------------------------------

    def get(self, r: int, c: int) -> int:
        return int((self.data[r, c >> 6] >> np.uint64(c & 63)) & np.uint64(1))

    def set(self, r: int, c: int, value: int) -> None:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError((r, c, self.rows, self.cols))
        bit = np.uint64(1) << np.uint64(c & 63)
        if value & 1:
            self.data[r, c >> 6] |= bit
        else:
            self.data[r, c >> 6] &= ~bit

    def row(self, r: int) -> Gf2Vector:
        return Gf2Vector(self.cols, self.data[r].copy())

    def row_weight(self, r: int) -> int:
        return _popcount(self.data[r])

    def row_indices(self, r: int) -> list[int]:
        return self.row(r).indices()

    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, col) index arrays of the set bits, in row-major order; only
        the nonzero words are unpacked."""
        r, w = np.nonzero(self.data)
        words = self.data[r, w].astype("<u8").view(np.uint8).reshape(-1, 8)
        i, b = np.nonzero(np.unpackbits(words, axis=1, bitorder="little"))
        return r[i], (w[i] << 6) + b

    def copy(self) -> "Gf2Matrix":
        return Gf2Matrix(self.rows, self.cols, self.data.copy())

    def is_zero(self) -> bool:
        return not self.data.any()

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
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        out[self.entries()] = 1
        return out

    # -- structural ops -----------------------------------------------

    def transpose(self) -> "Gf2Matrix":
        r, c = self.entries()
        return Gf2Matrix.from_entries(self.cols, self.rows, zip(c.tolist(), r.tolist()))

    def submatrix(self, row_idx, col_idx) -> "Gf2Matrix":
        """Select rows and columns (each a list of indices, order kept)."""
        row_idx = list(row_idx)
        col_idx = list(col_idx)
        sub = self.data[row_idx, :] if row_idx else np.zeros((0, self.data.shape[1]), np.uint64)
        out = Gf2Matrix(len(row_idx), len(col_idx))
        if not row_idx or not col_idx:
            return out
        col_idx_arr = np.asarray(col_idx)
        words = col_idx_arr >> 6
        shifts = (col_idx_arr & 63).astype(np.uint64)
        bits = ((sub[:, words] >> shifts) & np.uint64(1)).astype(np.uint64)
        new_pos = np.arange(len(col_idx))
        shifted = bits << (new_pos & 63).astype(np.uint64)
        for w in range(out.data.shape[1]):
            sel = (new_pos >> 6) == w
            if sel.any():
                out.data[:, w] = np.bitwise_xor.reduce(shifted[:, sel], axis=1)
        return out

    def vstack(self, other: "Gf2Matrix") -> "Gf2Matrix":
        assert self.cols == other.cols
        return Gf2Matrix(
            self.rows + other.rows, self.cols, np.vstack([self.data, other.data])
        )

    # -- arithmetic -----------------------------------------------------

    def mul_vec(self, v: Gf2Vector) -> Gf2Vector:
        assert v.n == self.cols
        out = Gf2Vector(self.rows)
        prod = np.bitwise_count(self.data & v.data).sum(axis=1) & 1
        for r in np.nonzero(prod)[0]:
            out.set(int(r), 1)
        return out

    def matmul_t(self, other: "Gf2Matrix") -> "Gf2Matrix":
        """Return ``self @ other^T`` over GF(2): entry (i, j) is the parity of
        the overlap between row i of self and row j of other."""
        assert self.cols == other.cols
        out = Gf2Matrix(self.rows, other.rows)
        for i in range(self.rows):
            par = np.bitwise_count(self.data[i] & other.data).sum(axis=1) & 1
            for j in np.nonzero(par)[0]:
                out.set(i, int(j), 1)
        return out

    def matmul(self, other: "Gf2Matrix") -> "Gf2Matrix":
        assert self.cols == other.rows
        return self.matmul_t(other.transpose())

    # -- elimination ----------------------------------------------------

    def rref(self) -> tuple["Gf2Matrix", list[int]]:
        """Reduced row-echelon form with first-nonzero pivoting.

        Returns (R, pivot_cols).  Both the forward and backward passes run,
        so R is the canonical RREF and downstream kernels/solutions are
        deterministic.
        """
        R = self.copy()
        pivots = _rref_inplace(R.data, R.rows, R.cols)
        return R, pivots


def _rref_inplace(data: np.ndarray, rows: int, cols: int) -> list[int]:
    pivots: list[int] = []
    r = 0
    one = np.uint64(1)
    for c in range(cols):
        if r >= rows:
            break
        w, b = c >> 6, np.uint64(c & 63)
        col_bits = (data[r:, w] >> b) & one
        nz = np.nonzero(col_bits)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            data[[r, p]] = data[[p, r]]
        mask = ((data[:, w] >> b) & one).astype(bool)
        mask[r] = False
        if mask.any():
            data[mask] ^= data[r]
        pivots.append(c)
        r += 1
    return pivots


def rank(m: Gf2Matrix) -> int:
    """GF(2) row rank; equals rank of the transpose."""
    data = m.data.copy()
    return len(_rref_inplace(data, m.rows, m.cols))


def kernel_basis(m: Gf2Matrix) -> list[Gf2Vector]:
    """Canonical basis of the right kernel {v : m v = 0}.

    One basis vector per non-pivot column: bit set at the free column plus,
    for every pivot row whose RREF has a 1 in that free column, a bit at the
    pivot column.
    """
    return _kernel_from_rref(*m.rref())


def _kernel_from_rref(R: Gf2Matrix, pivots: list[int]) -> list[Gf2Vector]:
    """The kernel basis of :func:`kernel_basis`, read off a computed RREF."""
    pivot_set = set(pivots)
    free_cols = [c for c in range(R.cols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        v = Gf2Vector(R.cols)
        v.set(f, 1)
        fw, fb = f >> 6, np.uint64(f & 63)
        for i, p in enumerate(pivots):
            if (R.data[i, fw] >> fb) & np.uint64(1):
                v.set(p, 1)
        basis.append(v)
    return basis


def solve(m: Gf2Matrix, b: Gf2Vector) -> Gf2Vector | None:
    """Solve ``m x = b``; None when unsolvable.

    The returned x is the canonical one from fixed-pivot-order
    back-substitution (free variables zero).
    """
    if b.n != m.rows:
        raise ValueError(f"dimension mismatch: rhs {b.n} != rows {m.rows}")
    aug = Gf2Matrix(m.rows, m.cols + 1)
    aug.data[:, : m.data.shape[1]] = m.data
    for r in range(m.rows):
        if b.get(r):
            aug.set(r, m.cols, 1)
    R, pivots = aug.rref()
    if pivots and pivots[-1] == m.cols:
        return None
    x = Gf2Vector(m.cols)
    for i, p in enumerate(pivots):
        if R.get(i, m.cols):
            x.set(p, 1)
    return x


def in_rowspace(rref_matrix: Gf2Matrix, pivots: list[int], v: Gf2Vector) -> bool:
    """Membership test against a precomputed RREF (see :meth:`Gf2Matrix.rref`)."""
    w = v.copy()
    for i, p in enumerate(pivots):
        if w.get(p):
            w.data ^= rref_matrix.data[i, : len(w.data)]
    return w.is_zero()


class ContainmentError(ValueError):
    """Row-span containment violated; carries a witness row index."""

    def __init__(self, witness_row: int):
        self.witness_row = witness_row
        super().__init__(
            f"subspace row {witness_row} is not contained in the span of the space"
        )


def quotient_dim(space: Gf2Matrix, subspace: Gf2Matrix) -> int:
    """dim(rowspan(space) / rowspan(subspace)), checking containment.

    Raises :class:`ContainmentError` naming a witness row of `subspace`
    outside span(space).
    """
    if space.cols != subspace.cols:
        raise ValueError("column counts differ")
    R, pivots = space.rref()
    for r in range(subspace.rows):
        if not in_rowspace(R, pivots, subspace.row(r)):
            raise ContainmentError(r)
    return len(pivots) - rank(subspace)


# -- text format ------------------------------------------------------

def matrix_to_text(m: Gf2Matrix) -> str:
    """Serialize in the ``gf2matrix v1`` text format."""
    bytes_le = m.data.astype("<u8").view(np.uint8)
    bits = np.unpackbits(bytes_le, axis=1, count=m.cols, bitorder="little")
    body = np.full((m.rows, m.cols + 1), ord("\n"), dtype=np.uint8)
    body[:, : m.cols] = bits + ord("0")
    return f"gf2matrix v1\n{m.rows} {m.cols}\n" + body.tobytes().decode("ascii")


def matrix_from_text(text: str) -> Gf2Matrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "gf2matrix v1":
        raise ValueError("not a gf2matrix v1 file")
    rows, cols = (int(t) for t in lines[1].split())
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
    packed = np.packbits(bits - ord("0"), axis=1, bitorder="little")
    bytes_le = np.zeros((rows, 8 * _n_words(cols)), dtype=np.uint8)
    bytes_le[:, : packed.shape[1]] = packed
    return Gf2Matrix(rows, cols, bytes_le.view("<u8"))
