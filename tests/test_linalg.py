import random

import pytest
from hypothesis import given, settings, strategies as st

from lvecdlp.linalg import (
    DIAGONAL,
    LOWER_TRIANGULAR,
    KernelBasis,
    MatrixFq,
    eliminate_block,
    in_row_space,
    left_kernel,
    rref_rows,
    right_kernel_rows,
    row_rank,
)


def random_matrix(rng, p, nrows, ncols):
    return MatrixFq.from_rows(p, [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)])


def mat_vec(m, v):
    return [sum(r * x for r, x in zip(row, v)) % m.p for row in m.rows]


def vec_mat(v, m):
    return [sum(v[r] * m.rows[r][c] for r in range(m.nrows)) % m.p for c in range(m.ncols)]


def test_rref_identity():
    rows, rank, pivots = rref_rows([[1, 0], [0, 1]], 5)
    assert rows == [[1, 0], [0, 1]]
    assert rank == 2
    assert pivots == [0, 1]


def test_rref_dependent_rows():
    rows, rank, _ = rref_rows([[1, 2], [2, 4]], 5)
    assert rows == [[1, 2], [0, 0]]
    assert rank == 1


def test_rref_zero_matrix():
    rows, rank, _ = rref_rows([[0, 0, 0], [0, 0, 0]], 5)
    assert rows == [[0, 0, 0], [0, 0, 0]]
    assert rank == 0


def test_left_kernel_identity_is_empty():
    m = MatrixFq.from_rows(7, [[1, 0], [0, 1]])
    assert left_kernel(m).dim == 0


def test_left_kernel_example_mod5():
    m = MatrixFq.from_rows(5, [[1, 2], [2, 4]])
    kb = left_kernel(m)
    assert kb.dim == 1
    assert in_row_space(kb.vectors, [3, 1], 5)
    for v in kb.vectors:
        assert vec_mat(v, m) == [0, 0]


def test_right_kernel_zero_matrix():
    m = MatrixFq.from_rows(5, [[0, 0, 0], [0, 0, 0]])
    vectors = right_kernel_rows(m.rows, m.ncols, m.p)
    assert len(vectors) == 3
    for v in vectors:
        assert mat_vec(m, v) == [0, 0]


def test_kernel_vectors_annihilate_random_matrices():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice((5, 7, 907))
        m = random_matrix(rng, p, rng.randrange(1, 7), rng.randrange(1, 7))
        for v in left_kernel(m).vectors:
            assert all(x == 0 for x in vec_mat(v, m))
        for v in right_kernel_rows(m.rows, m.ncols, m.p):
            assert all(x == 0 for x in mat_vec(m, v))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_nullity(data):
    p = data.draw(st.sampled_from((5, 7, 17, 907)))
    nrows = data.draw(st.integers(min_value=1, max_value=6))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    entries = data.draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    m = MatrixFq.from_rows(p, entries)
    _, rank, _ = rref_rows(m.rows, p)
    assert left_kernel(m).dim + rank == m.nrows
    assert len(right_kernel_rows(m.rows, m.ncols, p)) + rank == m.ncols


def test_rref_is_canonical_for_kernels():
    m = MatrixFq.from_rows(5, [[1, 2], [2, 4]])
    kb = left_kernel(m)
    again, rank, _ = rref_rows(kb.vector_lists(), 5)
    assert tuple(tuple(r) for r in again) == kb.vectors
    assert rank == kb.dim


def test_eliminate_block_already_diagonal_unchanged():
    kb = KernelBasis(5, 4, ((2, 0, 1, 1), (0, 3, 2, 4)))
    result = eliminate_block(kb, 0, 2, DIAGONAL)
    assert result.basis.vectors == kb.vectors
    assert not result.singular


def test_eliminate_block_worked_example():
    kb = KernelBasis(5, 4, ((1, 1, 1, 0), (0, 1, 1, 1)))
    result = eliminate_block(kb, 0, 2, DIAGONAL)
    assert result.basis.vectors == ((1, 0, 0, 4), (0, 1, 1, 1))


def test_eliminate_block_lower_triangular_shape():
    rng = random.Random(2)
    p = 907
    for _ in range(30):
        l = rng.choice((2, 3, 6))
        ambient = 2 * l
        vectors = []
        while len(vectors) < l:
            row = [rng.randrange(p) for _ in range(ambient)]
            if row_rank(vectors + [row], p) == len(vectors) + 1:
                vectors.append(row)
        kb = KernelBasis(p, ambient, tuple(tuple(v) for v in vectors))
        result = eliminate_block(kb, 0, l, LOWER_TRIANGULAR)
        if result.singular:
            continue
        out = result.basis.vectors
        for r in range(l):
            for c in range(r + 1, l):
                assert out[r][c] == 0
        diag = eliminate_block(result.basis, 0, l, DIAGONAL)
        for r in range(l):
            for c in range(l):
                if r != c:
                    assert diag.basis.vectors[r][c] == 0


def test_eliminate_block_preserves_row_space():
    rng = random.Random(3)
    p = 17
    for _ in range(40):
        l = rng.choice((2, 3))
        ambient = rng.choice((4, 6, 7))
        vectors = []
        while len(vectors) < l:
            row = [rng.randrange(p) for _ in range(ambient)]
            if row_rank(vectors + [row], p) == len(vectors) + 1:
                vectors.append(row)
        kb = KernelBasis(p, ambient, tuple(tuple(v) for v in vectors))
        start = rng.randrange(0, max(1, ambient - l))
        for stage in (LOWER_TRIANGULAR, DIAGONAL):
            result = eliminate_block(kb, start, start + l, stage)
            before, _, _ = rref_rows(kb.vector_lists(), p)
            after, _, _ = rref_rows(result.basis.vector_lists(), p)
            assert before == after


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        MatrixFq.from_rows(5, [[1, 2], [1]])
