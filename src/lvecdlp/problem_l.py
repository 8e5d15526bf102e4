"""Zero-pattern search in a subspace of F_p^n.

Given an l-dimensional subspace presented as a kernel basis, find a nonzero
vector with at least l zero coordinates.  Two solvers are provided: the
block-elimination heuristic (fast, incomplete) and an exhaustive zero-set
enumerator (complete, used both as a fallback and as the measurement standard
for the heuristic's conditional success rate).
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from random import Random
from typing import Callable, Optional

from .errors import BudgetExceededError
from .linalg import (
    DIAGONAL,
    LOWER_TRIANGULAR,
    KernelBasis,
    eliminate_block,
    right_kernel_rows,
    row_rank,
    rref_rows,
)

DEFAULT_ENUMERATION_BUDGET = 5_000_000


def _first_row_with_zeros(kb: KernelBasis, want: int) -> Optional[tuple[int, ...]]:
    for row in kb.vectors:
        if any(row) and row.count(0) >= want:
            return row
    return None


def solve_alg2(kb: KernelBasis, l: int) -> Optional[tuple[int, ...]]:
    """Block-elimination solver with four checkpoints.

    The basis matrix is treated as two l-column windows.  Each window is row
    reduced first to lower-triangular and then to diagonal form, and after
    each of the four reductions every row is scanned for at least l zeros.
    The first qualifying row is returned; if no checkpoint fires (or the basis
    is empty) the search stops unresolved, which is a legitimate outcome for
    this solver.
    """
    windows = [(0, min(l, kb.ambient))]
    if kb.ambient > l:
        windows.append((l, min(2 * l, kb.ambient)))
    current = kb
    for start, stop in windows:
        for stage in (LOWER_TRIANGULAR, DIAGONAL):
            current = eliminate_block(current, start, stop, stage)
            found = _first_row_with_zeros(current, l)
            if found is not None:
                return found
    return None


def solve_exhaustive(
    kb: KernelBasis,
    l: int,
    accept: Optional[Callable[[tuple[int, ...]], bool]] = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Optional[tuple[int, ...]]:
    """Complete zero-set enumeration.

    For every l-subset Z of coordinate positions (lexicographic order), test
    whether the span contains a nonzero vector vanishing on Z: that holds iff
    the basis restricted to the columns Z has rank below the basis dimension.
    The first solution found is returned, so a nonzero result is guaranteed
    whenever one exists; an empty basis has none.

    An optional accept predicate filters candidate vectors (the attack layer
    passes its decode conditions); only accepted solutions are returned.
    """
    p = kb.p
    n = kb.ambient
    dim = kb.dim
    if comb(n, l) > budget:
        raise BudgetExceededError(f"C({n}, {l}) exceeds the enumeration budget {budget}")
    if dim == 0:
        return None
    vectors = kb.vector_lists()
    for zero_set in combinations(range(n), l):
        restricted = [[vec[c] for vec in vectors] for c in zero_set]
        if row_rank(restricted, p) == dim:
            continue
        for combo in right_kernel_rows(restricted, dim, p):
            candidate = [0] * n
            for coeff, vec in zip(combo, vectors):
                if coeff:
                    for j in range(n):
                        candidate[j] = (candidate[j] + coeff * vec[j]) % p
            solution = tuple(candidate)
            if accept is None or accept(solution):
                return solution
    return None


def plant_instance(rng: Random, p: int, n_prime: int, l: int) -> tuple[KernelBasis, tuple[int, ...]]:
    """Random instance whose span provably contains a vector with exactly l zeros.

    A hidden target vector with exactly l zero coordinates is embedded in a
    random independent row set, then the rows are mixed by a random invertible
    matrix so no basis row gives the pattern away.
    """
    ambient = 3 * n_prime + l
    zero_positions = sorted(rng.sample(range(ambient), l))
    target = [0] * ambient
    for i in range(ambient):
        if i not in zero_positions:
            target[i] = rng.randrange(1, p)
    rows = [target[:]]
    while len(rows) < l:
        row = [rng.randrange(p) for _ in range(ambient)]
        if row_rank(rows + [row], p) == len(rows) + 1:
            rows.append(row)
    while True:
        mixer = [[rng.randrange(p) for _ in range(l)] for _ in range(l)]
        if row_rank(mixer, p) == l:
            break
    mixed = [
        [sum(mixer[r][k] * rows[k][c] for k in range(l)) % p for c in range(ambient)]
        for r in range(l)
    ]
    canonical, _, _ = rref_rows(mixed, p)
    return KernelBasis(p, ambient, tuple(tuple(v) for v in canonical)), tuple(target)
