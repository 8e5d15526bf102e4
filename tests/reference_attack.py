"""Slow references for cross-checking the attack's search and decode steps.

The zero-pattern solvers never see m; the subset-sum oracle does.  It
answers the question the kernel search answers, directly on the
multipliers, and is used only to cross-validate the exhaustive solver's
verdict (AC-3 and ``test_attack.py``).  ``projective_span`` lists every
span member of a small kernel, the full-span scan the exhaustive solver is
checked against (``test_attack.py`` and ``test_problem_l.py``).
``accident_by_points`` is accident detection on reference points, the
check ``detect_accident`` makes on the sampled ones.
``randrange_multipliers`` is the multiplier draw as the attack first made
it, one ``randrange(1, p)`` per draw, which ``_distinct_multipliers`` must
reproduce from ``getrandbits``, and ``iteration_stream`` the generator each
iteration first drew from, seeded afresh, whose stream the run's one
reseeded generator must give (``test_attack.py``).
``flat_singular_zero_sets`` and ``first_accepted`` are the zero-set scan as
it ran before the minors test, one rank of the restricted basis per l-set:
``solve_exhaustive`` must find the same singular sets and return the same
vector (``test_problem_l.py``).  The rank is a fraction-free elimination
that shares no code with the package, and every restricted kernel is the
two-pass ``reference_right_kernel_rows``, so no reference shares code with
the packed kernel or the scan's cofactor lines.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb
from typing import Callable, Iterable, Iterator, Optional

from lvecdlp.errors import BudgetExceededError
from lvecdlp.linalg import KernelBasis
from reference_linalg import reference_right_kernel_rows


def accident_by_points(multipliers_p, multipliers_q, points_p, points_q) -> Optional[tuple[int, int]]:
    """The first (r, r') with r * P == r' * (-Q), found by comparing points
    the caller computed, as ``detect_accident`` compares the sampled ones."""
    q_index = {pt: multipliers_q[j] for j, pt in enumerate(points_q)}
    for i, pt in enumerate(points_p):
        if pt in q_index:
            return multipliers_p[i], q_index[pt]
    return None


def randrange_multipliers(rng: random.Random, count: int, p: int) -> list[int]:
    """count distinct values drawn from 1..p-1 by ``rng.randrange(1, p)``, repeats skipped."""
    chosen: list[int] = []
    while len(chosen) < count:
        r = rng.randrange(1, p)
        if r not in chosen:
            chosen.append(r)
    return chosen


def iteration_stream(seed: int, index: int) -> random.Random:
    """Iteration index's named substream of a run seeded ``seed``, in a fresh generator."""
    return random.Random(f"{seed}:{index}")


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


def flat_singular_zero_sets(kb: KernelBasis, l: int) -> Iterator[tuple[int, ...]]:
    """Every l-set Z, in lexicographic order, on which the basis restricted to Z loses rank."""
    vectors = kb.vectors
    for zero_set in combinations(range(kb.ambient), l):
        if fraction_free_rank([[vec[c] for vec in vectors] for c in zero_set], kb.p) < kb.dim:
            yield zero_set


def fraction_free_rank(rows: list[list[int]], p: int) -> int:
    """Rank mod p by elimination without inverses, independent of ``linalg``."""
    work = [list(row) for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    rank = 0
    for c in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if work[r][c] % p), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot_vec = work[rank]
        piv = pivot_vec[c] % p
        for r in range(rank + 1, nrows):
            row = work[r]
            entry = row[c] % p
            if entry:
                for j in range(c, ncols):
                    row[j] = (piv * row[j] - entry * pivot_vec[j]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def first_accepted(
    kb: KernelBasis,
    zero_sets: Iterable[tuple[int, ...]],
    accept: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> Optional[tuple[int, ...]]:
    """First accepted combination of the RREF basis vectors vanishing on one of
    ``zero_sets``, in order: the search depends only on the span, which a
    KernelBasis holds as its RREF basis."""
    p, n = kb.p, kb.ambient
    vectors, rank = kb.vectors, kb.dim
    for zero_set in zero_sets:
        restricted = [[vec[c] for vec in vectors] for c in zero_set]
        for combo in reference_right_kernel_rows(restricted, rank, p):
            candidate = [0] * n
            for coeff, vec in zip(combo, vectors):
                if coeff:
                    for j in range(n):
                        candidate[j] = (candidate[j] + coeff * vec[j]) % p
            solution = tuple(candidate)
            if accept is None or accept(solution):
                return solution
    return None
