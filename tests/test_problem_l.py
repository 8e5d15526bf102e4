import gc
import hashlib
import random
import tracemalloc
from itertools import combinations

import pytest

from lvecdlp.attack import AttackConfig, decode_solution, detect_accident, sample_iteration
from lvecdlp.errors import BudgetExceededError
from lvecdlp import problem_l
from lvecdlp.linalg import (
    DIAGONAL,
    LOWER_TRIANGULAR,
    KernelBasis,
    eliminate_block,
    in_row_space,
    left_kernel,
    right_kernel_rows,
    rref_rows,
    span_basis,
)
from lvecdlp.problem_l import _singular_zero_sets, plant_instance, solve_alg2, solve_exhaustive
from reference_attack import first_accepted, flat_singular_zero_sets, fraction_free_rank, projective_span
from reference_linalg import reference_right_kernel_rows


def random_basis(rng, p, l, ambient):
    vectors = []
    while len(vectors) < l:
        row = [rng.randrange(p) for _ in range(ambient)]
        if rref_rows(vectors + [row], p)[1] == len(vectors) + 1:
            vectors.append(row)
    canonical, _, _ = rref_rows(vectors, p)
    return KernelBasis(p, ambient, tuple(tuple(v) for v in canonical))


def test_alg2_finds_basis_vector_at_first_checkpoint():
    kb = KernelBasis(5, 4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    assert solve_alg2(kb, 2) == (1, 0, 0, 0)


def test_alg2_soundness_on_planted_instances():
    rng = random.Random(0)
    for _ in range(150):
        p = rng.choice((11, 101, 907))
        n_prime = rng.choice((1, 2))
        l = 3 * n_prime
        kb, _ = plant_instance(rng, p, n_prime, l)
        vec = solve_alg2(kb, l)
        if vec is not None:
            assert vec.count(0) >= l
            assert in_row_space(kb.vectors, vec, p)


def test_exhaustive_complete_on_planted_instances():
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice((11, 101, 907))
        n_prime = rng.choice((1, 2))
        l = 3 * n_prime
        kb, target = plant_instance(rng, p, n_prime, l)
        assert in_row_space(kb.vectors, target, p)
        vec = solve_exhaustive(kb, l)
        assert vec is not None
        assert any(vec) and vec.count(0) >= l
        assert in_row_space(kb.vectors, vec, p)


def test_exhaustive_agrees_with_full_span_scan():
    rng = random.Random(2)
    for _ in range(80):
        p = rng.choice((5, 7))
        ambient = rng.choice((4, 5, 6))
        kb = random_basis(rng, p, 2, ambient)
        scanned = any(v.count(0) >= 2 for v in projective_span(kb))
        assert (solve_exhaustive(kb, 2) is not None) == scanned


def test_alg2_dominated_by_exhaustive():
    rng = random.Random(3)
    for _ in range(120):
        p = rng.choice((5, 7, 17))
        ambient = rng.choice((4, 6))
        kb = random_basis(rng, p, 2, ambient)
        if solve_alg2(kb, 2) is not None:
            assert solve_exhaustive(kb, 2) is not None


def test_exhaustive_trivial_instance():
    kb = KernelBasis(5, 4, ((1, 1, 0, 0), (0, 0, 1, 1)))
    assert solve_exhaustive(kb, 2) in ((1, 1, 0, 0), (0, 0, 1, 1))


def test_exhaustive_accept_filter():
    kb = KernelBasis(5, 4, ((1, 1, 0, 0), (0, 0, 1, 1)))
    assert solve_exhaustive(kb, 2, accept=lambda v: False) is None
    picky = solve_exhaustive(kb, 2, accept=lambda v: v[3] != 0)
    assert picky is not None and picky[3] != 0


def test_exhaustive_budget_guard():
    rng = random.Random(4)
    kb = random_basis(rng, 907, 6, 12)
    with pytest.raises(BudgetExceededError):
        solve_exhaustive(kb, 6, budget=10)


def test_solvers_return_none_on_empty_basis(monkeypatch):
    def fail(*args):
        raise AssertionError("an empty basis has no zero set to rank")

    monkeypatch.setattr("lvecdlp.problem_l.rref_rows", fail)
    empty = KernelBasis(5, 4, ())
    assert solve_alg2(empty, 2) is None
    assert solve_exhaustive(empty, 2) is None
    assert solve_exhaustive(empty, 2, accept=lambda v: True) is None
    with pytest.raises(BudgetExceededError):
        solve_exhaustive(KernelBasis(5, 18, ()), 9, budget=100)


def attack_samples(group, n_prime, count, seed):
    """The first ``count`` samples of one seeded attack, collision samples included."""
    cfg = AttackConfig(group=group, target=group.scalar_mul(400 + n_prime), n_prime=n_prime, seed=seed)
    return [sample_iteration(cfg, index) for index in range(1, count + 1)]


def corank(kb, zero_set):
    """Dimension of the span members vanishing on ``zero_set``."""
    return kb.dim - fraction_free_rank([[vec[c] for vec in kb.vectors] for c in zero_set], kb.p)


def rref_basis(kb):
    """The same span as its RREF basis."""
    reduced, rank, _ = rref_rows(kb.vector_lists(), kb.p)
    return KernelBasis(kb.p, kb.ambient, tuple(map(tuple, reduced[:rank])))


def reference_line(kb, zero_set, vectors=None):
    """The members of the span vanishing on ``zero_set`` as a line: the
    reference reduction of the RREF basis (``vectors``, else computed)
    restricted to the set, when it has one kernel vector; else None."""
    vectors = rref_basis(kb).vectors if vectors is None else vectors
    kernel = reference_right_kernel_rows([[vec[c] for vec in vectors] for c in zero_set], len(vectors), kb.p)
    return tuple(kernel[0]) if len(kernel) == 1 else None


def scanned_pairs(kb, l):
    """The (zero set, line) pairs ``_singular_zero_sets`` yields, after checking
    each line: on a corank-1 set the member a reduction through the reference
    kernel gives, on a set of corank 2 or more None."""
    found = list(_singular_zero_sets(kb.vector_lists(), kb.ambient, l, kb.p))
    vectors = rref_basis(kb).vectors
    for zero_set, line in found:
        rank_lost = corank(kb, zero_set)
        assert rank_lost >= 1, zero_set
        assert line == reference_line(kb, zero_set, vectors), zero_set
        assert (line is None) == (rank_lost >= 2), zero_set
    return found


def assert_matches_flat_scan(kb, l, accept=None):
    """Same singular sets, Z by Z, with the right lines, and the same returned
    vector as the flat rank scan, which is also the vector returned for the
    span's RREF basis.  Returns the scan's pairs."""
    flat = list(flat_singular_zero_sets(kb, l))
    found = scanned_pairs(kb, l)
    assert [zero_set for zero_set, _ in found] == flat
    assert solve_exhaustive(kb, l) == first_accepted(kb, flat) == solve_exhaustive(rref_basis(kb), l)
    if accept is not None:
        assert solve_exhaustive(kb, l, accept=accept) == first_accepted(kb, flat, accept)
    return found


def assert_scan_covers_alg2(kb, l, decode, found):
    """On a collision-free sample every singular set has corank 1, so the scan
    offers each set's one line, and whenever alg2's vector decodes the scan
    under the decode filter decodes to the same m.  Returns whether alg2's
    vector decoded."""
    assert all(line is not None for _, line in found)
    vector = solve_alg2(kb, l)
    m = None if vector is None else decode(vector)
    if m is not None:
        assert decode(solve_exhaustive(kb, l, accept=lambda vec: decode(vec) is not None)) == m
    return m is not None


def mixed(kb, rng):
    """The same span under a random invertible row mix, so the basis is no longer in RREF."""
    p, dim = kb.p, kb.dim
    while True:
        mixer = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if rref_rows(mixer, p)[1] == dim:
            break
    rows = tuple(
        tuple(sum(mixer[r][k] * kb.vectors[k][c] for k in range(dim)) % p for c in range(kb.ambient))
        for r in range(dim)
    )
    return KernelBasis(p, kb.ambient, rows)


@pytest.mark.parametrize("n_prime, count", [(1, 150), (2, 60), (3, 2)])
def test_minors_scan_matches_flat_scan_on_attack_kernels(group_p907, n_prime, count):
    """Real p = 907 kernels, collision samples included: every one of the
    C(6n', 3n') sets is tested, without and with the decode filter, and at
    n' <= 2 one kernel also as a non-RREF basis of the same span.  On the
    collision-free samples the scan finds every logarithm alg2 finds."""
    p, q, l = group_p907.order, group_p907.curve.q, 3 * n_prime
    rng = random.Random(n_prime)
    collisions = singular = alg2_decoded = 0
    for sample in attack_samples(group_p907, n_prime, count, seed=60 + n_prime):
        kb = left_kernel(sample.rows, q)
        collision = detect_accident(sample) is not None
        collisions += collision

        def decode(vec):
            return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0]

        def accept(vec):
            return decode(vec) is not None

        found = assert_matches_flat_scan(kb, l, accept)
        singular += len(found)
        if not collision:
            alg2_decoded += assert_scan_covers_alg2(kb, l, decode, found)
    assert singular > 0 and alg2_decoded > 0
    if n_prime < 3:
        assert collisions > 0
        assert_matches_flat_scan(mixed(kb, rng), l, accept)


def test_minors_scan_matches_flat_scan_on_planted_and_other_bases():
    rng = random.Random(11)
    # Planted bases, raw and mixed, for p from one byte to beyond 64 bits.
    for p in (11, 907, 65537, 2**61 - 1, 2**89 - 1):
        for n_prime in (1, 2):
            kb, _ = plant_instance(rng, p, n_prime, 3 * n_prime)
            assert list(flat_singular_zero_sets(kb, 3 * n_prime))
            assert_matches_flat_scan(kb, 3 * n_prime)
            assert_matches_flat_scan(mixed(kb, rng), 3 * n_prime)
    # Minors with more free columns than pivots; dim != l and a basis too wide
    # for the face tables (2^38 entries) rank each set instead.
    for dim, l, ambient in ((3, 3, 8), (3, 2, 6), (2, 3, 6), (2, 2, 40)):
        for _ in range(5):
            p = rng.choice((5, 7))
            assert_matches_flat_scan(random_basis(rng, p, dim, ambient), l)
    # Pivots not the first l positions, so every block is computed before any
    # set is yielded: a zero first column, and pivots interleaved with free columns.
    for pivots, ambient in (((1, 2, 3), 7), ((0, 2, 4), 7), ((1, 3, 5, 6), 8), ((2, 3, 4), 6)):
        for _ in range(8):
            p = rng.choice((2, 3, 5, 7))
            kb = echelon_basis(rng, p, pivots, ambient)
            assert rref_rows(kb.vector_lists(), p)[2] == list(pivots)
            assert_matches_flat_scan(kb, len(pivots), hashed_accept(rng.randrange(1 << 30), 96))
            assert_matches_flat_scan(mixed(kb, rng), len(pivots))


@pytest.mark.parametrize("l, width", [(3, 3), (6, 6), (9, 9), (3, 5)])
def test_block_schedule_lists_sets_in_lexicographic_order(l, width):
    """With the pivots first, the empty row mask (the set of the pivots) and
    then the entries of every block, each entry's sets sorted, are the l-sets
    in ``combinations`` order: the scan can yield an entry's singular sets as
    soon as the entry is computed."""
    masks, _ = problem_l._faces(width)
    walked = [tuple(range(l))]
    for _, block in problem_l._blocks(l, width):
        for rows, k in block:
            pivots_in = [r for r in range(l) if not rows >> r & 1]
            walked += sorted(
                tuple(pivots_in + [l + f for f in range(width) if cols >> f & 1]) for cols in masks[k]
            )
    assert walked == list(combinations(range(l + width), l))


@pytest.mark.parametrize("l, width", [(3, 3), (6, 6), (9, 9), (3, 5)])
def test_block_schedule_reads_only_earlier_row_masks(l, width):
    """An entry reads the minors of its rows without t, and ``_line``
    those of its rows without any one row: each such mask is 0 (the empty
    minor) or a mask scheduled earlier, so its list of minors is filled."""
    filled = {0}
    for t, block in problem_l._blocks(l, width):
        for rows, _ in block:
            read = {rows ^ 1 << r for r in range(l) if rows >> r & 1}
            assert rows ^ 1 << t in read and read <= filled and rows not in filled
            filled.add(rows)


# Pivots first; the last row's entry in column 4 is 0.
PIVOTS_FIRST = (
    ((1, 0, 0, 0, 2, 3, 4, 5), (0, 1, 0, 0, 6, 7, 8, 9), (0, 0, 1, 0, 1, 2, 3, 4), (0, 0, 0, 1, 0, 5, 6, 7)),
    (0, 1, 2, 4),
)
# Column 3 is free and comes before the last pivot.
FREE_BEFORE_LAST_PIVOT = (
    ((1, 0, 0, 2, 0, 3, 4, 5), (0, 1, 0, 6, 0, 7, 8, 9), (0, 0, 1, 1, 0, 2, 3, 4), (0, 0, 0, 0, 1, 5, 6, 7)),
    (0, 1, 2, 3),
)


@pytest.mark.parametrize("rows, first", [PIVOTS_FIRST, FREE_BEFORE_LAST_PIVOT])
def test_minors_scan_yields_before_computing_later_blocks(monkeypatch, rows, first):
    """The first singular set is decided by the first block (top row 3), so
    the scan yields it before it computes another block."""
    blocks_computed = []
    schedule = problem_l._blocks

    def recorded(height, width):
        for t, block in schedule(height, width):
            blocks_computed.append(t)
            yield t, block

    monkeypatch.setattr("lvecdlp.problem_l._blocks", recorded)
    kb = KernelBasis(907, 8, rows)
    line = reference_line(kb, first)
    assert next(flat_singular_zero_sets(kb, 4)) == first and line is not None
    assert next(_singular_zero_sets(kb.vector_lists(), 8, 4, 907)) == (first, line)
    assert blocks_computed == [3]


@pytest.mark.parametrize(
    "rows, first, computed",
    [
        # Pivots first; rows 1 and 3 are proportional on columns 4 and 5, so
        # the first singular set is in block 1's entry {1, 3}, which comes
        # before {1, 2} in the lexicographic order but not by mask size.
        (
            (
                (1, 0, 0, 0, 138, 583, 868, 822),
                (0, 1, 0, 0, 783, 65, 262, 121),
                (0, 0, 1, 0, 508, 780, 461, 484),
                (0, 0, 0, 1, 668, 235, 808, 215),
            ),
            (0, 2, 4, 5),
            [0b1000, 0b0100, 0b1100, 0b0010, 0b1010],
        ),
        # Pivots not first: the whole block is computed (block 3 is the one entry {3}).
        (*FREE_BEFORE_LAST_PIVOT, [0b1000]),
    ],
)
def test_minors_scan_yields_before_computing_later_entries(monkeypatch, rows, first, computed):
    """The scan yields the first singular set before it computes a later
    entry (pivots first) or a later block (other pivots): ``computed`` lists
    the row masks of the entries computed by then, in order."""
    recorded = []
    schedule = problem_l._blocks

    def recorded_entries(block):
        for entry in block:
            recorded.append(entry[0])
            yield entry

    def recorded_schedule(height, width):
        for t, block in schedule(height, width):
            yield t, recorded_entries(block)

    monkeypatch.setattr("lvecdlp.problem_l._blocks", recorded_schedule)
    kb = KernelBasis(907, 8, rows)
    line = reference_line(kb, first)
    assert next(flat_singular_zero_sets(kb, 4)) == first and line is not None
    assert next(_singular_zero_sets(kb.vector_lists(), 8, 4, 907)) == (first, line)
    assert recorded == computed


def echelon_basis(rng, p, pivots, ambient):
    """A random RREF basis with the given pivot columns."""
    rows = []
    for r, pivot in enumerate(pivots):
        row = [0] * ambient
        row[pivot] = 1
        for c in range(pivot + 1, ambient):
            if c not in pivots:
                row[c] = rng.randrange(p)
        rows.append(tuple(row))
    return KernelBasis(p, ambient, tuple(rows))


def hashed_accept(salt, threshold):
    """A deterministic filter keyed on sha256, accepting about threshold/256 of all vectors."""

    def accept(vec):
        return hashlib.sha256(repr((salt, vec)).encode()).digest()[0] < threshold

    return accept


def collision_kernels(group, count, seed):
    """(sample, kernel) for the first ``count`` n' = 2 samples with a cross-block collision."""
    cfg = AttackConfig(group=group, target=group.scalar_mul(7), n_prime=2, seed=seed, accident_check=False)
    found = []
    index = 0
    while len(found) < count:
        index += 1
        sample = sample_iteration(cfg, index)
        if detect_accident(sample) is not None:
            found.append((sample, left_kernel(sample.rows, group.curve.q)))
    return found


def offered(solve, kb, l):
    """Every candidate ``solve`` offers to a filter that rejects all, in order of first offer."""
    seen = {}

    def reject(vec):
        seen.setdefault(vec)
        return False

    assert solve(kb, l, reject) is None
    return list(seen)


def flat_solve(kb, l, accept):
    return first_accepted(kb, flat_singular_zero_sets(kb, l), accept)


@pytest.mark.parametrize("group_name, count", [("group_p19", 20), ("group_p907", 6)])
def test_rejected_line_skip_is_exact(request, group_name, count):
    """On n' = 2 collision kernels (q = 17 with its solution planes, and p = 907),
    skipping a corank-1 set that a rejected candidate vanishes on changes
    nothing: every deterministic filter gets the flat scan's answer.  A filter
    sees the candidates in order of first offer, so that order must match too."""
    group = request.getfixturevalue(group_name)
    p = group.order
    for sample, kb in collision_kernels(group, count, seed=17):
        flat = list(flat_singular_zero_sets(kb, 6))

        def decodes(vec):
            return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0] is not None

        filters = [decodes] + [hashed_accept(salt, threshold) for salt in range(3) for threshold in (16, 64)]
        for accept in filters:
            assert solve_exhaustive(kb, 6, accept=accept) == first_accepted(kb, flat, accept)
        assert offered(solve_exhaustive, kb, 6) == offered(flat_solve, kb, 6)


def test_rejected_line_skip_needs_corank_one():
    """Over F_2, the rejected (0, 0, 0, 0, 1, 1) vanishes on {0, 1, 2}, where the
    members vanishing form a plane whose basis offers (0, 0, 1, 0, 0, 1) first.
    A scan that also skipped such sets would offer (0, 0, 1, 0, 1, 0) first."""
    kb = KernelBasis(2, 6, ((0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 1), (0, 0, 0, 0, 1, 1)))
    assert offered(solve_exhaustive, kb, 3) == offered(flat_solve, kb, 3)
    assert solve_exhaustive(kb, 3, accept=lambda v: v[2] == 1) == (0, 0, 1, 0, 0, 1)


def test_early_stopping_scan_matches_lazy_flat_scan_at_n3(group_p907):
    """Real p = 907 n' = 3 kernels, where the scan stops inside a block: the
    returned vector equals the lazy flat scan's under the decode filter and
    two hashed filters."""
    p, q = group_p907.order, group_p907.curve.q
    hits = [0, 0, 0]
    for sample in attack_samples(group_p907, 3, 30, seed=63):
        kb = left_kernel(sample.rows, q)

        def decodes(vec):
            return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0] is not None

        for j, accept in enumerate((decodes, hashed_accept(sample.index, 192), hashed_accept(-sample.index, 128))):
            found = solve_exhaustive(kb, 9, accept)
            assert found == first_accepted(kb, flat_singular_zero_sets(kb, 9), accept)
            hits[j] += found is not None
    assert all(hits), hits


def test_rejected_line_is_not_reduced_again(monkeypatch, group_p907):
    """A p = 907 collision kernel has about 210 singular sets, all of corank 1
    and nearly all on the line of the colliding rows: the scan reads every
    line from its minors, so no restricted matrix is reduced, and each
    distinct line is offered to the filter once."""
    _, kb = collision_kernels(group_p907, 1, seed=17)[0]
    singular = list(flat_singular_zero_sets(kb, 6))
    lines = {line for _, line in scanned_pairs(kb, 6)}
    calls = []
    offers = []

    def counted(*args):
        calls.append(args)
        return right_kernel_rows(*args)

    def reject(vec):
        offers.append(vec)
        return False

    monkeypatch.setattr("lvecdlp.problem_l.right_kernel_rows", counted)
    assert solve_exhaustive(kb, 6, accept=reject) is None
    assert len(singular) > 100 and None not in lines
    assert calls == []
    assert len(offers) == len(set(offers)) == len(lines) < 5


@pytest.mark.parametrize(
    "group_name, n_prime, count, collisions",
    [("group_p907", 1, 4, 2), ("group_p907", 2, 4, 2), ("group_p907", 3, 2, 1), ("group_p19", 2, 2, 4)],
)
def test_scan_lines_match_reference_reduction(request, monkeypatch, group_name, n_prime, count, collisions):
    """Real kernels, clean and with a cross-block collision (p = 907 at n' = 1, 2
    and 3, and q = 17 at n' = 2, whose collision kernels have solution planes):
    every corank-1 set yields the member a reduction of the restricted RREF
    basis through the reference kernel gives, and every set of corank 2 or
    more yields None.  On a collision kernel ``solve_exhaustive`` reduces a
    restricted matrix for exactly the sets of corank 2 or more."""
    group = request.getfixturevalue(group_name)
    q, l = group.curve.q, 3 * n_prime
    cfg = AttackConfig(group=group, target=group.scalar_mul(5), n_prime=n_prime, seed=14, accident_check=False)
    kernels, index = [], 0
    while len(kernels) < count + collisions:
        index += 1
        sample = sample_iteration(cfg, index)
        if (detect_accident(sample) is not None) == (len(kernels) >= count):
            kernels.append(left_kernel(sample.rows, q))
    reduced = []

    def counted(rows, ncols, p):
        reduced.append(rows)
        return right_kernel_rows(rows, ncols, p)

    monkeypatch.setattr("lvecdlp.problem_l.right_kernel_rows", counted)
    lines = planes = 0
    for kb in kernels:
        found = scanned_pairs(kb, l)
        lines += sum(line is not None for _, line in found)
        planes += sum(line is None for _, line in found)
        reduced.clear()
        assert solve_exhaustive(kb, l, accept=lambda vec: False) is None
        assert reduced == [[[vec[c] for vec in kb.vectors] for c in zero_set] for zero_set, line in found if line is None]
    assert lines > 0
    assert (planes > 0) == (group_name == "group_p19")


def test_minors_scan_ranks_no_zero_set(monkeypatch, group_p907):
    """With dim == l the minors test is the only path: no restricted matrix is
    ranked, and a basis from ``left_kernel``, already in RREF, is not reduced again."""

    def fail(*args):
        raise AssertionError("a zero set was ranked or the basis reduced")

    kb = left_kernel(attack_samples(group_p907, 2, 1, seed=5)[0].rows, group_p907.curve.q)
    flat = list(flat_singular_zero_sets(kb, 6))
    monkeypatch.setattr("lvecdlp.problem_l.rref_rows", fail)
    assert [zero_set for zero_set, _ in scanned_pairs(kb, 6)] == flat
    assert solve_exhaustive(kb, 6, accept=lambda v: False) is None


def test_minors_scan_reduces_a_basis_not_in_rref(monkeypatch, group_p907):
    """A basis that is not its own RREF is reduced once, and the scan still
    finds the flat scan's singular sets: a mixed basis, one with a row scaled so
    that its leading entry is not 1, and one with entries outside [0, p)."""
    rng = random.Random(3)
    reduced = []

    def counted(rows, p):
        reduced.append([list(row) for row in rows])
        return rref_rows(rows, p)

    monkeypatch.setattr("lvecdlp.problem_l.rref_rows", counted)
    for n_prime, seed in ((1, 5), (2, 5), (2, 6)):
        kb = left_kernel(attack_samples(group_p907, n_prime, 1, seed=seed)[0].rows, group_p907.curve.q)
        p, l = kb.p, 3 * n_prime
        rows = kb.vector_lists()
        scaled = [row[:] for row in rows]
        scaled[1] = [v * 5 % p for v in scaled[1]]
        shifted = [row[:] for row in rows]
        shifted[0][-1] += p
        shifted[-1][l] -= p
        for other in (mixed(kb, rng), KernelBasis(p, kb.ambient, scaled), KernelBasis(p, kb.ambient, shifted)):
            reduced.clear()
            assert [zero_set for zero_set, _ in scanned_pairs(other, l)] == list(flat_singular_zero_sets(kb, l))
            assert reduced == [other.vector_lists()]


def test_minors_scan_frees_its_memo(group_p907):
    """With the cycle collector off, repeated full scans leave no memo behind:
    the memo must not sit in a reference cycle (a recursive closure does)."""
    kb = left_kernel(attack_samples(group_p907, 2, 1, seed=5)[0].rows, group_p907.curve.q)

    def scan():
        assert solve_exhaustive(kb, 6, accept=lambda v: False) is None

    gc.disable()
    tracemalloc.start()
    try:
        scan()
        scan()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            scan()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert grown < 4096, f"{grown} bytes still traced after 20 scans"


@pytest.mark.parametrize("n_prime", [1, 2])
def test_exhaustive_on_eliminate_block_output_equals_its_span_rref(group_p907, n_prime):
    """``eliminate_block`` never hands on pivots, though its input from
    ``left_kernel`` has them, and its output is in general not in RREF;
    ``solve_exhaustive`` on it returns what it returns on the RREF of its
    span, at each of alg2's four stages, under the decode filter."""
    p = group_p907.order
    l = 3 * n_prime
    not_rref = 0
    for sample in attack_samples(group_p907, n_prime, 20, seed=8):
        kernel = left_kernel(sample.rows, group_p907.curve.q)
        assert kernel.pivots is not None

        def accept(vec):
            return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0] is not None

        current = kernel
        for start, stop in ((0, l), (l, 2 * l)):
            for stage in (LOWER_TRIANGULAR, DIAGONAL):
                current = eliminate_block(current, start, stop, stage)
                assert current.pivots is None
                span_rref = span_basis(current.vectors, current.ambient, current.p)
                assert span_rref.pivots == tuple(problem_l._canonical_pivots(span_rref.vectors, current.p))
                not_rref += current.vectors != span_rref.vectors
                for filter_ in (None, accept):
                    assert solve_exhaustive(current, l, accept=filter_) == solve_exhaustive(span_rref, l, accept=filter_)
                    assert solve_exhaustive(current, l, accept=filter_) == solve_exhaustive(kernel, l, accept=filter_)
    assert not_rref > 0


def test_plant_instance_names_its_pivots():
    """A planted basis is built as its own RREF and hands on its pivot columns."""
    rng = random.Random(11)
    for _ in range(30):
        kb, _target = plant_instance(rng, rng.choice((5, 17, 907)), 1, rng.choice((2, 3)))
        assert kb.pivots == tuple(problem_l._canonical_pivots(kb.vectors, kb.p))


def test_span_basis_names_the_pivots_of_its_rref():
    """``span_basis`` returns the nonzero rows of the RREF of any rows, as
    ``rref_rows`` gives them, with their pivot columns, on spans of every
    rank including dependent and zero rows; a hand-built basis cannot name
    pivots, so the scan checks it."""
    rng = random.Random(12)
    for _ in range(200):
        p = rng.choice((5, 17, 907))
        ambient = rng.randrange(1, 8)
        rows = [[rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(ambient)] for _ in range(rng.randrange(6))]
        if len(rows) > 1 and rng.random() < 0.3:
            rows.append([(a + 2 * b) % p for a, b in zip(rows[0], rows[1])])
        kb = span_basis(rows, ambient, p)
        reduced, rank, pivots = rref_rows(rows, p) if rows else ([], 0, [])
        assert kb.vectors == tuple(map(tuple, reduced[:rank])) and kb.pivots == tuple(pivots)
        assert kb.pivots == tuple(problem_l._canonical_pivots(kb.vectors, p))
    with pytest.raises(TypeError):
        KernelBasis(5, 2, ((1, 0),), (0,))
    assert KernelBasis(5, 2, ((1, 0),)).pivots is None
