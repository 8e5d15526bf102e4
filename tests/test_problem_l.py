import random
from itertools import product

import pytest

from lvecdlp.errors import BudgetExceededError
from lvecdlp.linalg import KernelBasis, in_row_space, row_rank, rref_rows
from lvecdlp.problem_l import (
    ProblemLInstance,
    ZeroPatternSolution,
    plant_instance,
    solve_alg2,
    solve_exhaustive,
)


def random_instance(rng, p, l, ambient):
    vectors = []
    while len(vectors) < l:
        row = [rng.randrange(p) for _ in range(ambient)]
        if row_rank(vectors + [row], p) == len(vectors) + 1:
            vectors.append(row)
    canonical, _, _ = rref_rows(vectors, p)
    return ProblemLInstance(KernelBasis(p, ambient, tuple(tuple(v) for v in canonical)), l)


def span_has_zero_pattern(inst):
    """Scan every span element; only usable at tiny sizes."""
    kb = inst.basis
    for coeffs in product(range(kb.p), repeat=kb.dim):
        if not any(coeffs):
            continue
        v = [
            sum(c * vec[j] for c, vec in zip(coeffs, kb.vectors)) % kb.p
            for j in range(kb.ambient)
        ]
        if sum(1 for x in v if x == 0) >= inst.required_zeros:
            return True
    return False


def test_solution_invariants():
    with pytest.raises(ValueError):
        ZeroPatternSolution((0, 0), (0, 1))
    with pytest.raises(ValueError):
        ZeroPatternSolution((1, 0), (0,))
    sol = ZeroPatternSolution((1, 0, 2, 0), (1, 3))
    assert sol.support == (0, 2)


def test_alg2_finds_basis_vector_at_first_checkpoint():
    kb = KernelBasis(5, 4, ((1, 0, 0, 0), (0, 1, 0, 0)))
    sol = solve_alg2(ProblemLInstance(kb, 2))
    assert sol is not None
    assert sol.vector == (1, 0, 0, 0)


def test_alg2_soundness_on_planted_instances():
    rng = random.Random(0)
    for _ in range(150):
        p = rng.choice((11, 101, 907))
        n_prime = rng.choice((1, 2))
        inst, _ = plant_instance(rng, p, n_prime, 3 * n_prime)
        sol = solve_alg2(inst)
        if sol is not None:
            assert len(sol.zero_positions) >= inst.required_zeros
            assert in_row_space(inst.basis.vectors, sol.vector, p)


def test_exhaustive_complete_on_planted_instances():
    rng = random.Random(1)
    for _ in range(100):
        p = rng.choice((11, 101, 907))
        n_prime = rng.choice((1, 2))
        inst, target = plant_instance(rng, p, n_prime, 3 * n_prime)
        assert in_row_space(inst.basis.vectors, target, p)
        sol = solve_exhaustive(inst)
        assert sol is not None
        assert len(sol.zero_positions) >= inst.required_zeros
        assert in_row_space(inst.basis.vectors, sol.vector, p)


def test_exhaustive_agrees_with_full_span_scan():
    rng = random.Random(2)
    for _ in range(80):
        p = rng.choice((5, 7))
        ambient = rng.choice((4, 5, 6))
        inst = random_instance(rng, p, 2, ambient)
        assert (solve_exhaustive(inst) is not None) == span_has_zero_pattern(inst)


def test_alg2_dominated_by_exhaustive():
    rng = random.Random(3)
    for _ in range(120):
        p = rng.choice((5, 7, 17))
        ambient = rng.choice((4, 6))
        inst = random_instance(rng, p, 2, ambient)
        if solve_alg2(inst) is not None:
            assert solve_exhaustive(inst) is not None


def test_exhaustive_trivial_instance():
    kb = KernelBasis(5, 4, ((1, 1, 0, 0), (0, 0, 1, 1)))
    sol = solve_exhaustive(ProblemLInstance(kb, 2))
    assert sol is not None
    assert sol.vector in ((1, 1, 0, 0), (0, 0, 1, 1))


def test_exhaustive_accept_filter():
    kb = KernelBasis(5, 4, ((1, 1, 0, 0), (0, 0, 1, 1)))
    inst = ProblemLInstance(kb, 2)
    assert solve_exhaustive(inst, accept=lambda v: False) is None
    picky = solve_exhaustive(inst, accept=lambda v: v[3] != 0)
    assert picky is not None and picky.vector[3] != 0


def test_exhaustive_budget_guard():
    rng = random.Random(4)
    inst = random_instance(rng, 907, 6, 12)
    with pytest.raises(BudgetExceededError):
        solve_exhaustive(inst, budget=10)


def test_instance_validation():
    kb = KernelBasis(5, 4, ((1, 0, 0, 0),))
    with pytest.raises(ValueError):
        ProblemLInstance(kb, 0)
    with pytest.raises(ValueError):
        ProblemLInstance(KernelBasis(5, 4, ()), 2)
