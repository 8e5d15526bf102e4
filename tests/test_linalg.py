import ast
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lvecdlp import problem_l
from lvecdlp.attack import AttackConfig, curve_monomials, detect_accident, sample_iteration
from lvecdlp.linalg import (
    DIAGONAL,
    LOWER_TRIANGULAR,
    KernelBasis,
    eliminate_block,
    in_row_space,
    left_kernel,
    right_kernel_rows,
)
from lvecdlp.verification import fixture_large
from lvecdlp.veronese import basis
from reference_attack import fraction_free_rank
from reference_linalg import reference_left_kernel, reference_right_kernel_rows, reference_rref
from reference_veronese import reference_evaluate_rows
from scan_helpers import own_rref_pivots, singular_zero_sets

# Three collinear points mod 5, so their degree-1 rows (x, y, 1) have the
# one relation row0 - 2 row1 + row2 = 0.
COLLINEAR_MOD5 = [(0, 0), (1, 1), (2, 2)]


def random_rows(rng, p, nrows, ncols):
    return [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]


def mat_vec(rows, v, p):
    return [sum(r * x for r, x in zip(row, v)) % p for row in rows]


def vec_mat(v, rows, p):
    return [sum(v[r] * rows[r][c] for r in range(len(rows))) % p for c in range(len(rows[0]))]


def test_left_kernel_identity_is_empty():
    # Rows (1, 0, 1), (0, 1, 1), (0, 0, 1) and (0, 1, 0): full rank.
    assert left_kernel(basis(1), [(1, 0), (0, 1), (0, 0)], 7).dim == 0
    assert left_kernel(basis(1), [(1, 0), None, (0, 0)], 7).dim == 0


def test_left_kernel_example_mod5():
    rows = reference_evaluate_rows(basis(1), COLLINEAR_MOD5, 5)
    kb = left_kernel(basis(1), COLLINEAR_MOD5, 5)
    assert kb.dim == 1
    assert in_row_space(kb.vectors, [1, 3, 1], 5)
    for v in kb.vectors:
        assert vec_mat(v, rows, 5) == [0, 0, 0]


def test_right_kernel_zero_matrix():
    rows = [[0, 0, 0], [0, 0, 0]]
    vectors = right_kernel_rows(rows, 3, 5)
    assert len(vectors) == 3
    for v in vectors:
        assert mat_vec(rows, v, 5) == [0, 0]


def random_points(rng, p, count):
    """Pairs mod p, repeats and the identity (None) included."""
    points = [None if rng.random() < 0.1 else (rng.randrange(p), rng.randrange(p)) for _ in range(count)]
    if points and rng.random() < 0.3:
        points.append(rng.choice(points))
    return points


def test_kernel_vectors_annihilate_random_matrices():
    rng = random.Random(1)
    for _ in range(50):
        p = rng.choice((5, 7, 907))
        mb = basis(rng.randrange(1, 4))
        points = random_points(rng, p, rng.randrange(1, 12))
        point_rows = reference_evaluate_rows(mb, points, p)
        for v in left_kernel(mb, points, p).vectors:
            assert all(x == 0 for x in vec_mat(v, point_rows, p))
        ncols = rng.randrange(1, 7)
        rows = random_rows(rng, p, rng.randrange(1, 7), ncols)
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
    assert len(right_kernel_rows(entries, ncols, p)) + fraction_free_rank(entries, p) == ncols
    mb = basis(data.draw(st.integers(min_value=1, max_value=3)))
    coordinate = st.integers(min_value=0, max_value=p - 1)
    points = data.draw(st.lists(st.none() | st.tuples(coordinate, coordinate), min_size=1, max_size=12))
    rank = fraction_free_rank(reference_evaluate_rows(mb, points, p), p)
    assert left_kernel(mb, points, p).dim + rank == len(points)


def test_rref_identity():
    kb = KernelBasis(5, 2, [[1, 0], [0, 1]])
    assert kb.vectors == ((1, 0), (0, 1))
    assert kb.dim == 2
    assert kb.pivots == (0, 1)


def test_rref_dependent_rows():
    kb = KernelBasis(5, 2, [[1, 2], [2, 4]])
    assert kb.vectors == ((1, 2),)
    assert kb.dim == 1


def test_rref_zero_matrix():
    kb = KernelBasis(5, 3, [[0, 0, 0], [0, 0, 0]])
    assert kb.vectors == ()
    assert kb.dim == 0


def test_rref_is_canonical_for_kernels():
    kb = left_kernel(basis(1), COLLINEAR_MOD5, 5)
    assert reference_rref(kb.vectors, 5) == (list(kb.vectors), kb.pivots)


def test_eliminate_block_already_diagonal_unchanged():
    rows = ((2, 0, 1, 1), (0, 3, 2, 4))
    assert eliminate_block(rows, 0, 2, DIAGONAL, 5) == rows


def test_eliminate_block_worked_example():
    assert eliminate_block(((1, 1, 1, 0), (0, 1, 1, 1)), 0, 2, DIAGONAL, 5) == ((1, 0, 0, 4), (0, 1, 1, 1))


def test_eliminate_block_lower_triangular_shape():
    rng = random.Random(2)
    p = 907
    for _ in range(30):
        l = rng.choice((2, 3, 6))
        ambient = 2 * l
        vectors = []
        while len(vectors) < l:
            row = [rng.randrange(p) for _ in range(ambient)]
            if fraction_free_rank(vectors + [row], p) == len(vectors) + 1:
                vectors.append(row)
        if fraction_free_rank([v[:l] for v in vectors], p) < l:
            continue  # singular window: some block position has no pivot
        lower = eliminate_block(vectors, 0, l, LOWER_TRIANGULAR, p)
        for r in range(l):
            for c in range(r + 1, l):
                assert lower[r][c] == 0
        diag = eliminate_block(lower, 0, l, DIAGONAL, p)
        for r in range(l):
            for c in range(l):
                if r != c:
                    assert diag[r][c] == 0


def test_eliminate_block_preserves_row_space():
    rng = random.Random(3)
    p = 17
    for _ in range(40):
        l = rng.choice((2, 3))
        ambient = rng.choice((4, 6, 7))
        vectors = []
        while len(vectors) < l:
            row = [rng.randrange(p) for _ in range(ambient)]
            if fraction_free_rank(vectors + [row], p) == len(vectors) + 1:
                vectors.append(row)
        start = rng.randrange(0, max(1, ambient - l))
        for stage in (LOWER_TRIANGULAR, DIAGONAL):
            result = eliminate_block(vectors, start, start + l, stage, p)
            assert reference_rref(result, p) == reference_rref(vectors, p)


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        right_kernel_rows([[1, 2], [1]], 2, 5)
    with pytest.raises(ValueError):
        right_kernel_rows([[1, 2, 3]], 2, 5)


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


@st.composite
def spanning_rows(draw):
    """(rows, ambient, p) for p in {2, 5, 907}: up to 9 rows with entries
    outside [0, p), and maybe a dependent, a repeated and a zero row."""
    p = draw(st.sampled_from((2, 5, 907)))
    ambient = draw(st.integers(min_value=0, max_value=8))
    entry = st.integers(min_value=-2 * p, max_value=3 * p)
    rows = draw(st.lists(st.lists(entry, min_size=ambient, max_size=ambient), max_size=6))
    if len(rows) > 1 and draw(st.booleans()):
        a, b = draw(st.integers(0, p - 1)), draw(st.integers(0, p - 1))
        rows.insert(draw(st.integers(0, len(rows))), [a * x + b * y for x, y in zip(rows[0], rows[1])])
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ambient)
    return rows, ambient, p


@settings(max_examples=400, deadline=None)
@given(spanning_rows() | raw_matrices())
@example(([], 3, 5))
@example(([[0, 0, 0, 0], [2, 4, 0, 1], [4, 8, 0, 2], [-3, 11, 5, 6], [2, 4, 0, 1]], 4, 5))
@example(([[1, 1, 0], [1, 1, 0], [0, 3, 1]], 3, 2))
def test_kernel_basis_is_the_rref_of_its_rows(matrix):
    """Any rows, ``spanning_rows`` or ``raw_matrices``, construct the RREF
    basis of their span as the reference reduction gives it, entries in
    [0, p), each pivot at its row's first nonzero entry; constructing it
    again from its own vectors changes nothing."""
    rows, ambient, p = matrix
    kb = KernelBasis(p, ambient, rows)
    assert (list(kb.vectors), kb.pivots) == reference_rref(rows, p)
    assert all(0 <= v < p for vec in kb.vectors for v in vec)
    assert kb.pivots == tuple(next(c for c, v in enumerate(vec) if v) for vec in kb.vectors)
    again = KernelBasis(p, ambient, kb.vectors)
    assert (again.vectors, again.pivots) == (kb.vectors, kb.pivots)


def test_kernel_basis_rejects_pivots_and_ragged_rows():
    with pytest.raises(TypeError):
        KernelBasis(5, 2, ((1, 0),), (0,))
    with pytest.raises(ValueError):
        KernelBasis(5, 2, ((1, 0), (1,)))


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


@st.composite
def span_candidates(draw):
    """(rows, candidate, p): a ``raw_matrices`` case and a vector of its row
    length, either a combination of its rows or drawn at random."""
    rows, ncols, p = draw(raw_matrices())
    entry = st.integers(min_value=-2 * p, max_value=3 * p)
    if rows and draw(st.booleans()):
        coefficients = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        return rows, [sum(c * row[j] for c, row in zip(coefficients, rows)) for j in range(ncols)], p
    return rows, draw(st.lists(entry, min_size=ncols, max_size=ncols)), p


@settings(max_examples=300, deadline=None)
@given(span_candidates())
@example(([], [], 2))
@example(([], [0, 5, -10], 5))
@example(([], [0, 1, 0], 5))
@example(([[1, 2], [2, 4]], [3, 6], 5))
@example(([[1, 2], [2, 4]], [1, 3], 5))
def test_in_row_space_matches_fraction_free_rank(case):
    """A candidate is in the span exactly when adding it keeps the rank."""
    rows, candidate, p = case
    in_span = fraction_free_rank(rows, p) == fraction_free_rank(rows + [candidate], p)
    assert in_row_space(rows, candidate, p) == in_span


def test_in_row_space_rejects_a_candidate_of_another_length():
    """Rows and candidate of different lengths raise ValueError, whichever is
    longer; with no rows, zero of any length is in the span and nothing else is."""
    with pytest.raises(ValueError):
        in_row_space([[1, 2]], [1, 2, 0], 5)
    with pytest.raises(ValueError):
        in_row_space([[1, 2, 3]], [1, 2], 5)
    assert in_row_space([], [0, 5], 5) and in_row_space([], [], 5)
    assert not in_row_space([], [0, 1, 0, 0], 5)


def test_references_import_only_kernel_basis_from_linalg():
    """The reference modules share no elimination with the package: from
    ``lvecdlp.linalg`` they import ``KernelBasis``, the type they read, and
    nothing else, nor the module itself."""
    paths = sorted(Path(__file__).parent.glob("reference_*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "lvecdlp.linalg":
                assert {alias.name for alias in node.names} <= {"KernelBasis"}, path.name
            elif isinstance(node, ast.ImportFrom) and node.module == "lvecdlp":
                assert "linalg" not in {alias.name for alias in node.names}, path.name
            elif isinstance(node, ast.Import):
                assert not any(alias.name.startswith("lvecdlp.linalg") for alias in node.names), path.name


def attack_kernel_inputs(group, n_prime, plain=4, collisions=2):
    """The first ``plain`` samples and the first ``collisions`` samples with
    a cross-block point collision."""
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


def seeded_samples(group, n_prime, count, seed):
    """The first ``count`` samples of a seeded run with the accident check
    off, and how many of them have a cross-block point collision."""
    cfg = AttackConfig(group=group, target=group.scalar_mul(77), n_prime=n_prime, seed=seed, accident_check=False)
    samples = [sample_iteration(cfg, index) for index in range(1, count + 1)]
    return cfg.monomials, samples, sum(detect_accident(sample) is not None for sample in samples)


@pytest.mark.parametrize(
    "group_name, n_prime, count, collisions",
    [
        ("group_p907", 1, 400, 3),
        ("group_p907", 2, 150, 3),
        ("group_p907", 3, 60, 9),
        ("group_p19", 1, 150, 57),
        ("group_p19", 2, 60, 58),
    ],
)
def test_left_kernel_of_points_matches_reference_on_attack_samples(request, group_name, n_prime, count, collisions):
    """The kernel ``left_kernel`` takes straight from the sampled points
    equals, vectors and pivots, the two-pass kernel of the transpose of the
    reference rows, on seeded runs, collision samples included."""
    group = request.getfixturevalue(group_name)
    mb, samples, collided = seeded_samples(group, n_prime, count, seed=17)
    assert collided == collisions
    for sample in samples:
        kernel = left_kernel(mb, sample.points, group.curve.q)
        assert (list(kernel.vectors), kernel.pivots) == reference_left_kernel(mb, sample.points, group.curve.q)


def test_left_kernel_of_points_matches_reference_beyond_attack_samples(group_p19):
    """The same on one n' = 3 sample of the order-48,731 group, and on every
    point of the q = 17 curve, the identity included, at degrees 1 to 3."""
    group = fixture_large()
    mb, (sample,), _ = seeded_samples(group, 3, 1, seed=17)
    q = group.curve.q
    kernel = left_kernel(mb, sample.points, q)
    assert (list(kernel.vectors), kernel.pivots) == reference_left_kernel(mb, sample.points, q)
    points = group_p19.curve.points()
    assert None in points
    for degree in (1, 2, 3):
        kernel = left_kernel(basis(degree), points, 17)
        assert kernel.dim == len(points) - 3 * degree
        assert (list(kernel.vectors), kernel.pivots) == reference_left_kernel(basis(degree), points, 17)


@pytest.mark.parametrize("group_name, n_prime, count", [("group_p907", 3, 300), ("large", 3, 100), ("large", 4, 40)])
def test_curve_monomials_keep_the_left_kernel(request, group_p19, group_name, n_prime, count):
    """Leaving out the monomials of x-degree 3 or more keeps every vector and
    pivot of the left kernel: on seeded attack samples, and on every point of
    the q = 17 curve, the identity included."""
    group = fixture_large() if group_name == "large" else request.getfixturevalue(group_name)
    mb, samples, _ = seeded_samples(group, n_prime, count, seed=23)
    assert mb == curve_monomials(n_prime)
    assert (basis(n_prime).size, mb.size) == {3: (10, 9), 4: (15, 12)}[n_prime]
    assert all(i <= 2 for i, _, _ in mb.exponents)
    cases = [(sample.points, group.curve.q) for sample in samples] + [(group_p19.curve.points(), 17)]
    for points, q in cases:
        reduced, full = left_kernel(mb, points, q), left_kernel(basis(n_prime), points, q)
        assert (reduced.vectors, reduced.pivots) == (full.vectors, full.pivots)
    for degree in (1, 2):
        assert curve_monomials(degree) == basis(degree)


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
        kernel = left_kernel(cfg.monomials, sample.points, q)
        assert (list(kernel.vectors), kernel.pivots) == reference_left_kernel(cfg.monomials, sample.points, q)
        lines = set()
        planes = 0
        for zero_set, combos in singular_zero_sets(kernel.vectors, kernel.ambient, cfg.l, q):
            planes += len(combos) >= 2
            if len(combos) >= 2 or combos[0] not in lines:
                lines.add(combos[0])
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
    """``left_kernel`` makes its one elimination and no RREF reduction: the
    vectors and pivots it hands on, its elimination's free columns, are the
    basis as its own RREF and its pivots, what the constructor gives for the
    same vectors, on attack kernels with and without collisions; the scan
    then uses the basis without reducing it, and finds the same on both."""
    groups = [group_p907] + ([group_p19] if 6 * n_prime <= group_p19.order - 1 else [])
    checked = 0
    for group in groups:
        cfg, samples = attack_kernel_inputs(group, n_prime)
        q = group.curve.q
        for sample in samples:
            with monkeypatch.context() as patched:
                patched.setattr(KernelBasis, "__post_init__", lambda self: pytest.fail("left_kernel reduced its basis"))
                kernel = left_kernel(cfg.monomials, sample.points, q)
            assert kernel.pivots == tuple(own_rref_pivots(kernel.vectors, q))
            bare = KernelBasis(q, kernel.ambient, kernel.vectors)
            assert (bare.vectors, bare.pivots) == (kernel.vectors, kernel.pivots)
            assert bare == kernel and hash(bare) == hash(kernel)

            def accept(vec):
                return vec.count(0) == cfg.l and sum(vec) % 3 == 0

            expected = problem_l.solve_exhaustive(bare, cfg.l, accept=accept)
            with monkeypatch.context() as patched:
                patched.setattr(KernelBasis, "__post_init__", lambda self: pytest.fail("basis reduced again"))
                assert problem_l.solve_exhaustive(kernel, cfg.l, accept=accept) == expected
            checked += 1
    assert checked == len(groups) * 6
    assert left_kernel(basis(1), [(1, 0), (0, 1), (0, 0)], 5).pivots == ()
    assert left_kernel(basis(1), COLLINEAR_MOD5, 5).pivots == (0,)
