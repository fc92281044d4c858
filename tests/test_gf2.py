"""GF(2) linear algebra: pinned examples plus randomized invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalcss.gf2 import (
    Gf2Matrix,
    Gf2Vector,
    kernel_basis,
    matrix_from_text,
    matrix_to_text,
    rank,
)

from code_oracles import dense_syndrome
from search_oracles import bit


def _random_matrix(rng, rows, cols, density=0.4):
    return Gf2Matrix.from_dense(rng.random((rows, cols)) < density)


def test_rank_identity():
    assert rank(Gf2Matrix.from_dense(np.eye(3))) == 3


def test_rank_all_ones():
    assert rank(Gf2Matrix.from_dense(np.ones((2, 2)))) == 1


def test_kernel_of_parity_check():
    m = Gf2Matrix.from_dense([[1, 1]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert ker[0].indices() == [0, 1]


def test_kernel_of_identity_is_trivial():
    assert kernel_basis(Gf2Matrix.from_dense(np.eye(3))) == []


def test_rank_nullity_and_transpose_on_200_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(200):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        m = _random_matrix(rng, rows, cols)
        r = rank(m)
        assert r + len(kernel_basis(m)) == cols
        assert r == rank(m.transpose())
        for v in kernel_basis(m):
            assert not dense_syndrome(m, v).any()


def test_rank_transpose_large():
    rng = np.random.default_rng(11)
    m = _random_matrix(rng, 256, 256, density=0.1)
    assert rank(m) == rank(m.transpose())


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 16), st.integers(1, 16), st.integers(0, 2**32 - 1))
def test_matmul_matches_dense(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = _random_matrix(rng, rows, cols)
    b = _random_matrix(rng, cols, rows)
    prod = a.matmul(b)
    ref = (a.to_dense().astype(int) @ b.to_dense().astype(int)) % 2
    assert np.array_equal(prod.to_dense(), ref.astype(np.uint8))


@pytest.mark.parametrize("rows, inner, other", [(3, 5, 0), (0, 5, 3), (2, 1, 64), (4, 70, 65),
                                                (5, 130, 130), (1, 64, 200)])
def test_matmul_t_rows_of_several_words_match_dense(rows, inner, other):
    """Each row of ``a @ b^T`` packed at once: every word of it, and zero
    padding past the last column (so equality with the dense product's
    packing holds word for word)."""
    rng = np.random.default_rng(rows * 10_000 + inner * 100 + other)
    a = _random_matrix(rng, rows, inner)
    b = _random_matrix(rng, other, inner)
    ref = (a.to_dense().astype(int) @ b.to_dense().astype(int).T) % 2
    assert a.matmul_t(b) == Gf2Matrix.from_dense(ref.reshape(rows, other))


@pytest.mark.parametrize("rows,cols", [(0, 5), (5, 0), (1, 1), (3, 64), (70, 130), (129, 65)])
def test_entries_dense_and_transpose_match_numpy(rows, cols):
    dense = (np.random.default_rng(rows * 1000 + cols).random((rows, cols)) < 0.3)
    m = Gf2Matrix.from_dense(dense)
    r, c = m.entries()
    assert np.array_equal(r, np.nonzero(dense)[0]) and np.array_equal(c, np.nonzero(dense)[1])
    assert np.array_equal(m.to_dense(), dense.astype(np.uint8))
    t = m.transpose()
    assert (t.rows, t.cols) == (cols, rows)
    assert np.array_equal(t.to_dense(), dense.T.astype(np.uint8))


def test_submatrix():
    rng = np.random.default_rng(5)
    m = _random_matrix(rng, 9, 70)
    sub = m.submatrix([2, 4, 8], range(3, 69))
    ref = m.to_dense()[[2, 4, 8]][:, 3:69]
    assert np.array_equal(sub.to_dense(), ref)


def test_vector_ops():
    v = Gf2Vector.from_indices(130, [0, 64, 129])
    w = Gf2Vector.from_indices(130, [64])
    assert v.weight() == 3
    assert (v ^ w).indices() == [0, 129]
    assert v.dot(w) == 1
    assert Gf2Vector(10).weight() == 0


@pytest.mark.parametrize("entries", [
    [(0, 5), (1, 1)],  # a column past the last: a padding bit
    [(0, 3)],
    [(2, 0)],
    [(-1, 0)],  # would wrap to the last row
    [(0, -1)],
])
def test_from_entries_rejects_entries_outside_the_matrix(entries):
    with pytest.raises(IndexError, match="out of range for 2 x 3"):
        Gf2Matrix.from_entries(2, 3, entries)
    with pytest.raises(IndexError):
        Gf2Matrix.from_entries(2, 3, np.array(entries))


def test_ixor_rejects_a_vector_of_another_length():
    v = Gf2Vector(60)
    w = Gf2Vector.from_indices(64, [63])
    with pytest.raises(ValueError, match="lengths differ: 60 and 64"):
        v ^= w
    assert v.weight() == 0
    v ^= Gf2Vector.from_indices(60, [59])
    assert v.indices() == [59]


def test_text_roundtrip():
    rng = np.random.default_rng(9)
    m = _random_matrix(rng, 6, 13)
    again = matrix_from_text(matrix_to_text(m))
    assert again == m


def _text_bit_by_bit(m: Gf2Matrix) -> str:
    """Reference writer: one bit read from its packed word at a time."""
    rows = ["".join(str(bit(m.row(r), c)) for c in range(m.cols)) for r in range(m.rows)]
    return "\n".join(["gf2matrix v1", f"{m.rows} {m.cols}", *rows]) + "\n"


@pytest.mark.parametrize("rows,cols", [(0, 5), (1, 1), (3, 63), (4, 64), (5, 65), (7, 130),
                                       (0, 0), (3, 0)])
def test_text_matches_bitwise_reference(rows, cols):
    m = _random_matrix(np.random.default_rng(rows * 1000 + cols), rows, cols)
    text = matrix_to_text(m)
    assert text == _text_bit_by_bit(m)
    assert matrix_from_text(text) == m


@pytest.mark.parametrize("text,message", [
    ("gf2matrix v1\n2 3\n101\n1x1\n", "bad character 'x' in row 1"),
    ("gf2matrix v1\n2 3\n101\n11\n", "row 1 has length 2, expected 3"),
    ("gf2matrix v1\n3 3\n101\n110\n", "expected 3 data lines, got 2"),
    ("gf2matrix v1\n3 0\n\n1\n\n", "expected 3 data lines, got 1"),
])
def test_text_parser_rejects_malformed(text, message):
    with pytest.raises(ValueError, match=message):
        matrix_from_text(text)


def test_rows_of_no_columns_read_from_blank_lines_or_none():
    """A body of R rows of no columns is R bare line breaks as
    `matrix_to_text` writes it; a code file drops them, so any blank body
    reads as R rows."""
    for body in ("\n\n\n", "", "\n", " \n\t\n\n\n\n"):
        assert matrix_from_text("gf2matrix v1\n3 0\n" + body) == Gf2Matrix(3, 0)


def test_torus_boundary_rank_example():
    # d1 of the 2-torus at L=3: 9 vertices, 18 edges, GF(2) rank 8.
    from fractalcss.complexes import build_lattice

    from complex_oracles import boundary_matrix

    cx = build_lattice(2, 3, "torus")
    d1 = boundary_matrix(cx, 1)
    assert (d1.rows, d1.cols) == (9, 18)
    assert rank(d1) == 8
    assert len(kernel_basis(d1)) == 10
