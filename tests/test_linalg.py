import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lvecdlp import problem_l
from lvecdlp.attack import AttackConfig, detect_accident, sample_iteration
from lvecdlp.linalg import (
    DIAGONAL,
    LOWER_TRIANGULAR,
    KernelBasis,
    eliminate_block,
    in_row_space,
    left_kernel,
    rref_rows,
    right_kernel_rows,
)
from reference_linalg import reference_right_kernel_rows


def random_rows(rng, p, nrows, ncols):
    return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]


def mat_vec(rows, v, p):
    return [sum(r * x for r, x in zip(row, v)) % p for row in rows]


def vec_mat(v, rows, p):
    return [sum(v[r] * rows[r][c] for r in range(len(rows))) % p for c in range(len(rows[0]))]


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
    assert left_kernel([[1, 0], [0, 1]], 7).dim == 0


def test_left_kernel_example_mod5():
    rows = [[1, 2], [2, 4]]
    kb = left_kernel(rows, 5)
    assert kb.dim == 1
    assert in_row_space(kb.vectors, [3, 1], 5)
    for v in kb.vectors:
        assert vec_mat(v, rows, 5) == [0, 0]


def test_right_kernel_zero_matrix():
    rows = [[0, 0, 0], [0, 0, 0]]
    vectors = right_kernel_rows(rows, 3, 5)
    assert len(vectors) == 3
    for v in vectors:
        assert mat_vec(rows, v, 5) == [0, 0]


def test_kernel_vectors_annihilate_random_matrices():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice((5, 7, 907))
        ncols = rng.randrange(1, 7)
        rows = random_rows(rng, p, rng.randrange(1, 7), ncols)
        for v in left_kernel(rows, p).vectors:
            assert all(x == 0 for x in vec_mat(v, rows, p))
        for v in right_kernel_rows(rows, ncols, p):
            assert all(x == 0 for x in mat_vec(rows, v, p))


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
    _, rank, _ = rref_rows(entries, p)
    assert left_kernel(entries, p).dim + rank == nrows
    assert len(right_kernel_rows(entries, ncols, p)) + rank == ncols


def test_rref_is_canonical_for_kernels():
    kb = left_kernel([[1, 2], [2, 4]], 5)
    again, rank, _ = rref_rows(kb.vector_lists(), 5)
    assert tuple(tuple(r) for r in again) == kb.vectors
    assert rank == kb.dim


def test_eliminate_block_already_diagonal_unchanged():
    kb = KernelBasis(5, 4, ((2, 0, 1, 1), (0, 3, 2, 4)))
    assert eliminate_block(kb, 0, 2, DIAGONAL).vectors == kb.vectors


def test_eliminate_block_worked_example():
    kb = KernelBasis(5, 4, ((1, 1, 1, 0), (0, 1, 1, 1)))
    assert eliminate_block(kb, 0, 2, DIAGONAL).vectors == ((1, 0, 0, 4), (0, 1, 1, 1))


def test_eliminate_block_lower_triangular_shape():
    rng = random.Random(2)
    p = 907
    for _ in range(30):
        l = rng.choice((2, 3, 6))
        ambient = 2 * l
        vectors = []
        while len(vectors) < l:
            row = [rng.randrange(p) for _ in range(ambient)]
            if rref_rows(vectors + [row], p)[1] == len(vectors) + 1:
                vectors.append(row)
        kb = KernelBasis(p, ambient, tuple(tuple(v) for v in vectors))
        if rref_rows([v[:l] for v in vectors], p)[1] < l:
            continue  # singular window: some block position has no pivot
        lower = eliminate_block(kb, 0, l, LOWER_TRIANGULAR)
        for r in range(l):
            for c in range(r + 1, l):
                assert lower.vectors[r][c] == 0
        diag = eliminate_block(lower, 0, l, DIAGONAL)
        for r in range(l):
            for c in range(l):
                if r != c:
                    assert diag.vectors[r][c] == 0


def test_eliminate_block_preserves_row_space():
    rng = random.Random(3)
    p = 17
    for _ in range(40):
        l = rng.choice((2, 3))
        ambient = rng.choice((4, 6, 7))
        vectors = []
        while len(vectors) < l:
            row = [rng.randrange(p) for _ in range(ambient)]
            if rref_rows(vectors + [row], p)[1] == len(vectors) + 1:
                vectors.append(row)
        kb = KernelBasis(p, ambient, tuple(tuple(v) for v in vectors))
        start = rng.randrange(0, max(1, ambient - l))
        for stage in (LOWER_TRIANGULAR, DIAGONAL):
            result = eliminate_block(kb, start, start + l, stage)
            before, _, _ = rref_rows(kb.vector_lists(), p)
            after, _, _ = rref_rows(result.vector_lists(), p)
            assert before == after


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        left_kernel([[1, 2], [1]], 5)


@st.composite
def raw_matrices(draw):
    """(rows, ncols, p): matrices up to 12 x 20 with zero, duplicate and
    unreduced rows, for p from 2 to beyond 64 bits."""
    p = draw(st.sampled_from((2, 3, 5, 17, 907, 65537, 2**61 - 1, 2**89 - 1)))
    ncols = draw(st.integers(min_value=0, max_value=20))
    entry = st.integers(min_value=-2 * p, max_value=3 * p)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=10))
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows, ncols, p


@settings(max_examples=400, deadline=None)
@given(raw_matrices())
@example(([], 0, 2))
@example(([], 4, 907))
@example(([[1, 1, 0], [1, 1, 0], [0, 0, 0]], 3, 2))
@example(([[-1, 909, 0, 5]], 4, 907))
# A slot reaches 100 = (p - 1) p^2, above 2^6: a slot one bit narrower carries.
@example(([[4, 4, 4], [4, 2, 3]], 3, 5))
def test_right_kernel_matches_two_pass_reference(matrix):
    rows, ncols, p = matrix
    assert right_kernel_rows(rows, ncols, p) == reference_right_kernel_rows(rows, ncols, p)


def attack_kernel_inputs(group, n_prime, plain=4, collisions=2):
    """The transposed rows of the first ``plain`` samples and of the first
    ``collisions`` samples with a cross-block point collision."""
    cfg = AttackConfig(group=group, target=group.scalar_mul(123), n_prime=n_prime, seed=1)
    samples = [sample_iteration(cfg, index) for index in range(1, plain + 1)]
    found = 0
    index = plain
    while found < collisions:
        index += 1
        sample = sample_iteration(cfg, index)
        if detect_accident(sample) is not None:
            samples.append(sample)
            found += 1
    return cfg, samples


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_right_kernel_matches_reference_on_attack_matrices(group_p907, monkeypatch, n_prime):
    """The kernel of each sampled matrix; the restriction of the first singular
    set of each line and of every set of corank 2 or more, the sets a scan
    that reduced each offered line would reduce; and every restriction the
    scan does reduce, which are exactly the sets of corank 2 or more."""
    cfg, samples = attack_kernel_inputs(group_p907, n_prime)
    q = group_p907.curve.q
    checked_sets = reduced = 0

    def checked(rows, ncols, p):
        nonlocal reduced
        result = right_kernel_rows(rows, ncols, p)
        assert result == reference_right_kernel_rows(rows, ncols, p), (rows, ncols, p)
        reduced += 1
        return result

    for sample in samples:
        transposed = list(zip(*sample.rows))
        expected = reference_right_kernel_rows(transposed, len(sample.rows), q)
        kernel = left_kernel(sample.rows, q)
        assert [list(v) for v in kernel.vectors] == expected
        lines = set()
        planes = 0
        for zero_set, line in problem_l._singular_zero_sets(kernel.vectors, kernel.ambient, cfg.l, q):
            planes += line is None
            if line is None or line not in lines:
                lines.add(line)
                restricted = [[vec[c] for vec in kernel.vectors] for c in zero_set]
                assert right_kernel_rows(restricted, kernel.dim, q) == reference_right_kernel_rows(
                    restricted, kernel.dim, q
                )
                checked_sets += 1
        reduced = 0
        with monkeypatch.context() as patched:
            patched.setattr(problem_l, "right_kernel_rows", checked)
            assert problem_l.solve_exhaustive(kernel, cfg.l, accept=lambda vec: False) is None
        assert reduced == planes
    assert checked_sets  # some singular sets were checked


@pytest.mark.parametrize("n_prime", [1, 2, 3])
def test_left_kernel_hands_over_the_pivots_of_its_basis(group_p19, group_p907, monkeypatch, n_prime):
    """The pivots ``left_kernel`` hands on, its elimination's free columns,
    are the ones ``_canonical_pivots`` reads off the basis, on attack kernels
    with and without collisions; the scan then uses them without that check,
    and finds what it finds on the same vectors handed over without pivots."""
    groups = [group_p907] + ([group_p19] if 6 * n_prime <= group_p19.order - 1 else [])
    original = problem_l._canonical_pivots
    checked = 0
    for group in groups:
        cfg, samples = attack_kernel_inputs(group, n_prime)
        q = group.curve.q
        for sample in samples:
            kernel = left_kernel(sample.rows, q)
            assert kernel.pivots == tuple(original(kernel.vectors, q))
            bare = KernelBasis(q, kernel.ambient, kernel.vectors)
            assert bare.pivots is None and bare == kernel and hash(bare) == hash(kernel)

            def accept(vec):
                return vec.count(0) == cfg.l and sum(vec) % 3 == 0

            expected = problem_l.solve_exhaustive(bare, cfg.l, accept=accept)
            with monkeypatch.context() as patched:
                patched.setattr(problem_l, "_canonical_pivots", lambda *args: pytest.fail("pivots checked again"))
                assert problem_l.solve_exhaustive(kernel, cfg.l, accept=accept) == expected
            checked += 1
    assert checked == len(groups) * 6
    assert left_kernel([[1, 0], [0, 1]], 5).pivots == ()
    assert left_kernel([[1, 2], [2, 4]], 5).pivots == (0,)
