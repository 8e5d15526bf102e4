import random

import pytest

from lvecdlp.errors import BudgetExceededError
from lvecdlp.linalg import KernelBasis, in_row_space, row_rank, rref_rows
from lvecdlp.problem_l import plant_instance, solve_alg2, solve_exhaustive
from reference_attack import projective_span


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
