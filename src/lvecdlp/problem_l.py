"""Zero-pattern search in a subspace of F_p^n.

Given an l-dimensional subspace presented as a kernel basis, find a nonzero
vector with at least l zero coordinates.  Two solvers are provided: the
block-elimination heuristic (fast, incomplete) and an exhaustive zero-set
enumerator (complete, used both as a fallback and as the measurement standard
for the heuristic's conditional success rate).

The enumerator tests each l-set by one minor.  Write the span's RREF basis
as [I | X] with the pivot columns moved first: a span member vanishes on Z
exactly when the square minor of X on the pivot rows whose pivot is outside
Z and the free columns inside Z is zero.  So Problem L asks whether the code
spanned by the kernel fails to be MDS, since a code with generator [I | X]
is MDS iff every square submatrix of X is nonsingular (MacWilliams and
Sloane, The Theory of Error-Correcting Codes, ch. 11).  The minors come from
a Laplace expansion memoized across sets and computed only when a set is
reached, so a scan that stops early pays only for the minors it touched.
"""

from __future__ import annotations

from array import array
from functools import cache
from itertools import combinations
from math import comb
from random import Random
from typing import Callable, Iterator, Optional

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
    whether the span contains a nonzero vector vanishing on Z: when the basis
    has l independent vectors that holds iff one minor of the RREF basis is
    zero (see the module docstring), and otherwise iff the basis restricted
    to the columns Z has rank below the basis dimension.  The combinations of
    basis vectors that vanish on a singular Z are then tried in turn.  The
    first solution found is returned, so a nonzero result is guaranteed
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
    for zero_set in _singular_zero_sets(vectors, n, l, p):
        restricted = [[vec[c] for vec in vectors] for c in zero_set]
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


def _singular_zero_sets(vectors: list[list[int]], n: int, l: int, p: int) -> Iterator[tuple[int, ...]]:
    """The l-sets Z, in lexicographic order, on which a nonzero span member vanishes.

    With l independent vectors each Z is one minor of X (see the module
    docstring), memoized across sets; the minor's row and column masks have
    equal size, and such pairs correspond one-to-one to the l-sets, so the
    memo has C(n, l) slots.  Numbering the slots takes tables of 2^rank and
    2^width entries.  When those outnumber the sets (a basis much wider than
    tall, with few sets), or the basis does not have l independent vectors,
    the restricted matrix of each set is ranked instead.
    """
    dim = len(vectors)
    reduced, rank, pivots = rref_rows(vectors, p)
    if not (dim == rank == l and (1 << rank) + (1 << (n - rank)) <= comb(n, l)):
        for zero_set in combinations(range(n), l):
            if row_rank([[vec[c] for vec in vectors] for c in zero_set], p) < dim:
                yield zero_set
        return
    free = [c for c in range(n) if c not in pivots]
    X = [[row[c] for c in free] for row in reduced]
    row_base, col_slot = _slots(rank, len(free))
    memo = _zero_memo(p, comb(n, l))
    all_rows = (1 << rank) - 1
    row_bit = {c: 1 << i for i, c in enumerate(pivots)}
    col_bit = {c: 1 << f for f, c in enumerate(free)}
    for zero_set in combinations(range(n), l):
        rows, cols = all_rows, 0
        for c in zero_set:
            if c in row_bit:
                rows ^= row_bit[c]
            else:
                cols |= col_bit[c]
        if _minor(X, memo, row_base, col_slot, p, rows, cols) == 0:
            yield zero_set


@cache
def _slots(height: int, width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(row_base, col_slot): a row mask and a column mask of equal size k have
    memo slot row_base[rows] + col_slot[cols].  The size-k pairs take
    C(height, k) * C(width, k) consecutive slots after the smaller sizes, in
    the increasing order of each mask among those of its size."""
    row_no, col_slot = _numbering(height), _numbering(width)
    start = [0]
    for k in range(height):
        start.append(start[-1] + comb(height, k) * comb(width, k))
    row_base = []
    for rows, number in enumerate(row_no):
        k = rows.bit_count()
        row_base.append(start[k] + number * comb(width, k))
    return tuple(row_base), col_slot


def _numbering(bits: int) -> tuple[int, ...]:
    """Each mask below 1 << bits numbered in increasing order among the masks of its size."""
    count = [0] * (bits + 1)
    numbers = []
    for mask in range(1 << bits):
        k = mask.bit_count()
        numbers.append(count[k])
        count[k] += 1
    return tuple(numbers)


def _zero_memo(p: int, size: int):
    """``size`` zeros in the narrowest unsigned array that holds 1..p, or a list beyond 64 bits."""
    for code in "BHILQ":
        if p >> (8 * array(code).itemsize) == 0:
            return array(code, [0]) * size
    return [0] * size


def _minor(X: list[list[int]], memo, row_base, col_slot, p: int, rows: int, cols: int) -> int:
    """det X[rows, cols] mod p for bit masks of equal size, by Laplace expansion
    along the lowest row.  The memo slot holds the minor + 1, 0 meaning "not
    computed".  Module-level rather than a nested closure, so the memo never
    sits in a reference cycle and is freed when the scan ends."""
    if not rows:
        return 1
    slot = row_base[rows] + col_slot[cols]
    known = memo[slot]
    if known:
        return known - 1
    last = rows.bit_length() - 1
    entries = X[last]
    rest = rows ^ (1 << last)
    negate = rows.bit_count() % 2 == 0
    total = 0
    remaining = cols
    while remaining:
        bit = remaining & -remaining
        remaining ^= bit
        entry = entries[bit.bit_length() - 1]
        if entry:
            term = entry * _minor(X, memo, row_base, col_slot, p, rest, cols ^ bit)
            total = total - term if negate else total + term
        negate = not negate
    det = total % p
    memo[slot] = det + 1
    return det


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
