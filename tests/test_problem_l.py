import gc
import random
import tracemalloc

import pytest

from lvecdlp.attack import AttackConfig, decode_solution, detect_accident, sample_iteration
from lvecdlp.errors import BudgetExceededError
from lvecdlp.linalg import KernelBasis, in_row_space, left_kernel, row_rank, rref_rows
from lvecdlp.problem_l import _singular_zero_sets, plant_instance, solve_alg2, solve_exhaustive
from reference_attack import first_accepted, flat_singular_zero_sets, projective_span


def random_basis(rng, p, l, ambient):
    vectors = []
    while len(vectors) < l:
        row = [rng.randrange(p) for _ in range(ambient)]
        if row_rank(vectors + [row], p) == len(vectors) + 1:
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

    monkeypatch.setattr("lvecdlp.problem_l.row_rank", fail)
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


def assert_matches_flat_scan(kb, l, accept=None):
    """Same singular sets, Z by Z, and the same returned vector as the flat rank scan."""
    flat = list(flat_singular_zero_sets(kb, l))
    assert list(_singular_zero_sets(kb.vector_lists(), kb.ambient, l, kb.p)) == flat
    assert solve_exhaustive(kb, l) == first_accepted(kb, flat)
    if accept is not None:
        assert solve_exhaustive(kb, l, accept=accept) == first_accepted(kb, flat, accept)
    return flat


def mixed(kb, rng):
    """The same span under a random invertible row mix, so the basis is no longer in RREF."""
    p, dim = kb.p, kb.dim
    while True:
        mixer = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        if row_rank(mixer, p) == dim:
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
    n' <= 2 one kernel also as a non-RREF basis of the same span."""
    p, q, l = group_p907.order, group_p907.curve.q, 3 * n_prime
    rng = random.Random(n_prime)
    collisions = singular = 0
    for sample in attack_samples(group_p907, n_prime, count, seed=60 + n_prime):
        kb = left_kernel(sample.rows, q)
        collisions += detect_accident(sample) is not None

        def accept(vec):
            return decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)[0] is not None

        singular += len(assert_matches_flat_scan(kb, l, accept))
    assert singular > 0
    if n_prime < 3:
        assert collisions > 0
        assert_matches_flat_scan(mixed(kb, rng), l, accept)


def test_minors_scan_matches_flat_scan_on_planted_and_other_bases():
    rng = random.Random(11)
    # Planted bases, raw and mixed; p picks each memo item type: bytes up to 64-bit words, then a list.
    for p in (11, 907, 65537, 2**61 - 1, 2**89 - 1):
        for n_prime in (1, 2):
            kb, _ = plant_instance(rng, p, n_prime, 3 * n_prime)
            assert list(flat_singular_zero_sets(kb, 3 * n_prime))
            assert_matches_flat_scan(kb, 3 * n_prime)
            assert_matches_flat_scan(mixed(kb, rng), 3 * n_prime)
    # Minors with more free columns than pivots; dim != l and a basis too wide
    # for the slot tables (2^38 entries) rank each set instead.
    for dim, l, ambient in ((3, 3, 8), (3, 2, 6), (2, 3, 6), (2, 2, 40)):
        for _ in range(5):
            p = rng.choice((5, 7))
            assert_matches_flat_scan(random_basis(rng, p, dim, ambient), l)


def test_minors_scan_ranks_no_zero_set(monkeypatch, group_p907):
    """With dim == l the minors test is the only path: no restricted matrix is ranked."""

    def fail(*args):
        raise AssertionError("a zero set was ranked")

    kb = left_kernel(attack_samples(group_p907, 2, 1, seed=5)[0].rows, group_p907.curve.q)
    flat = list(flat_singular_zero_sets(kb, 6))
    monkeypatch.setattr("lvecdlp.problem_l.row_rank", fail)
    assert list(_singular_zero_sets(kb.vector_lists(), kb.ambient, 6, kb.p)) == flat
    assert solve_exhaustive(kb, 6, accept=lambda v: False) is None


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
