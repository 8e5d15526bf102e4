"""Slow references for cross-checking the attack's search and decode steps.

The zero-pattern solvers never see m; the subset-sum oracle does.  It
answers the question the kernel search answers, directly on the
multipliers, and is used only to cross-validate the exhaustive solver's
verdict (AC-3 and ``test_attack.py``).  ``projective_span`` lists every
span member of a small kernel, the full-span scan the exhaustive solver is
checked against (``test_attack.py`` and ``test_problem_l.py``).
"""

from __future__ import annotations

from itertools import combinations, product
from math import comb
from typing import Iterator, Optional

from lvecdlp.errors import BudgetExceededError
from lvecdlp.linalg import KernelBasis


def subset_sum_oracle(
    multipliers_p: tuple[int, ...] | list[int],
    multipliers_q: tuple[int, ...] | list[int],
    m_true: int,
    p: int,
    budget: int = 2_000_000,
) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Scan all 3n'-subsets of the row slots for one whose values sum to 0 mod p.

    Generator slots contribute +r and target slots -m * r'.  A witness must
    touch both blocks and have a nonzero target-block sum.  Returns the first
    witness subset of row indices, in lexicographic order.
    """
    if m_true % p == 0:
        raise ValueError("m_true must be nonzero mod p (the target may not be the identity)")
    n_p = len(multipliers_p)
    n = n_p + len(multipliers_q)
    k = n_p + 1
    if comb(n, k) > budget:
        raise BudgetExceededError(f"C({n}, {k}) exceeds the oracle budget {budget}")
    values = [r % p for r in multipliers_p] + [(-m_true * r) % p for r in multipliers_q]
    for subset in combinations(range(n), k):
        if subset[0] >= n_p or subset[-1] < n_p:
            continue
        if sum(values[i] for i in subset) % p:
            continue
        b = sum(multipliers_q[i - n_p] for i in subset if i >= n_p) % p
        if b == 0:
            continue
        return True, subset
    return False, None


def projective_span(kb: KernelBasis) -> Iterator[tuple[int, ...]]:
    """Every nonzero span member up to a scalar: the first nonzero coefficient is 1."""
    for lead in range(kb.dim):
        for rest in product(range(kb.p), repeat=kb.dim - lead - 1):
            coeffs = (1, *rest)
            yield tuple(
                sum(c * vec[j] for c, vec in zip(coeffs, kb.vectors[lead:])) % kb.p for j in range(kb.ambient)
            )
