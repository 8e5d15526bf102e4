"""Zero-pattern search in a subspace of F_p^n.

Given an l-dimensional subspace presented as a kernel basis, find a nonzero
vector with at least l zero coordinates.  Two solvers are provided: the
block-elimination heuristic (incomplete) and an exhaustive zero-set
enumerator (complete: the attack's default solver, and the measurement
standard for the heuristic's conditional success rate).

The enumerator tests each l-set by one minor.  Write the span's RREF basis
as [I | X] with the pivot columns moved first: a span member vanishes on Z
exactly when the square minor of X on the pivot rows whose pivot is outside
Z and the free columns inside Z is zero.  So Problem L asks whether the code
spanned by the kernel fails to be MDS, since a code with generator [I | X]
is MDS iff every square submatrix of X is nonsingular (MacWilliams and
Sloane, The Theory of Error-Correcting Codes, ch. 11).

The minors are computed in blocks by top row, without recursion: for t =
l-1 down to 0, every minor whose top row is t, each expanded along that row
into the minors of the rows below, which earlier blocks hold.  Each row mask
keeps its own list of minors, one per column mask of its size.  One block
entry, a top row t and the rows below it, is one pass of ``map`` over
getters cached per width.  When the pivots are the first l positions,
block t holds exactly the sets that contain 0..t-1 and not t, and its
entries come in the lexicographic order of their sets, so the schedule
lists the l-sets in lexicographic order grouped by row mask: each entry's
singular sets are yielded before the next entry is computed, and a scan
that stops early pays only for the entries it reached.  For other pivots
each block yields the singular sets that no later block can precede.

Each singular set also reports its vanishing member when those members
form a single line (corank 1), read from the minors one size smaller,
which its block and the earlier ones have already computed: the member's
coefficients over the RREF basis are one row of the adjugate of the
singular minor's matrix, a_r = (-1)^pos(r) det X[R - r, C - c0], scaled
so that the first nonzero one is 1.  That is the canonical combination a
reduction of the restricted basis would give, so the enumerator reduces a
restricted basis only for a set of corank 2 or more, which a kernel has
only when two of its points collide.  The enumerator skips a line whose
combination it has already rejected.  This requires the accept filter to
be a deterministic function of the tuple, as the attack's decode filter is.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache
from itertools import combinations, compress
from math import comb
from operator import add, itemgetter, mul, not_, sub
from random import Random
from typing import Callable, Iterator, Optional, Sequence

from .errors import BudgetExceededError
from .linalg import (
    DIAGONAL,
    LOWER_TRIANGULAR,
    KernelBasis,
    eliminate_block,
    right_kernel_rows,
    rref_rows,
    span_basis,
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
    zero, and otherwise iff the basis restricted to the columns Z has rank
    below the basis dimension.  The minors come in blocks by top row (see
    the module docstring), and the singular sets decided so far are tried
    before the next block entry is computed.  The combinations of the RREF
    basis vectors that vanish on a singular Z are tried in turn: the one
    line the scan reads from its minors when Z has corank 1, else the RREF
    basis of the restricted basis's kernel.  The first solution found is
    returned, so a nonzero result is guaranteed whenever one exists; an
    empty basis has none.

    The search runs on the basis's RREF throughout, so the result depends
    only on the span, not on the basis that presents it.  A basis that
    names its pivots (``left_kernel`` hands on those of its elimination,
    ``span_basis`` those of its reduction) is used as it stands; any other
    is checked for RREF and reduced if it is not.

    An optional accept predicate filters candidate vectors (the attack layer
    passes its decode conditions); only accepted solutions are returned.
    Every combination is canonical (its first nonzero coefficient is 1), so
    a line met again on a later Z offers the identical combination, and one
    already rejected is skipped.  The skip therefore requires ``accept`` to
    be a deterministic function of the tuple, as the decode filter is.
    """
    p = kb.p
    n = kb.ambient
    if comb(n, l) > budget:
        raise BudgetExceededError(f"C({n}, {l}) exceeds the enumeration budget {budget}")
    if kb.dim == 0:
        return None
    if kb.pivots is None:
        vectors, pivots = _rref_basis(kb.vectors, p)
    else:
        vectors, pivots = kb.vectors, list(kb.pivots)
    columns = list(zip(*vectors))
    rejected: set[tuple[int, ...]] = set()  # the combinations of the rejected candidates
    for zero_set, line in _scan(vectors, pivots, n, l, p):
        if line is None:
            restricted = [[vec[c] for vec in vectors] for c in zero_set]
            combos = map(tuple, right_kernel_rows(restricted, len(vectors), p))
        else:
            combos = (line,)
        for combo in combos:
            if combo in rejected:
                continue
            solution = tuple(sum(map(mul, combo, column)) % p for column in columns)
            if accept is None or accept(solution):
                return solution
            rejected.add(combo)
    return None


def _singular_zero_sets(
    vectors: Sequence[Sequence[int]], n: int, l: int, p: int
) -> Iterator[tuple[tuple[int, ...], Optional[tuple[int, ...]]]]:
    """(Z, line) for the l-sets Z, in lexicographic order, on which a nonzero span member vanishes.

    ``line`` is the coefficient vector, over the rows of the basis's RREF,
    of the members vanishing on Z when they form one line (corank 1),
    scaled so that its first nonzero entry is 1; it is None when they span
    more.  A basis already in RREF, as ``left_kernel`` returns it, is used
    as it stands; any other basis is reduced first (see ``_scan``).
    """
    return _scan(*_rref_basis(vectors, p), n, l, p)


def _rref_basis(vectors: Sequence[Sequence[int]], p: int) -> tuple[Sequence[Sequence[int]], list[int]]:
    """(rows, pivots): the nonzero rows of the basis's RREF and their pivot columns."""
    pivots = _canonical_pivots(vectors, p)
    if pivots is not None:
        return vectors, pivots
    reduced, rank, pivots = rref_rows(vectors, p)
    return reduced[:rank], pivots


def _scan(
    vectors: Sequence[Sequence[int]], pivots: list[int], n: int, l: int, p: int
) -> Iterator[tuple[tuple[int, ...], Optional[tuple[int, ...]]]]:
    """``_singular_zero_sets`` of the RREF rows ``vectors``, whose pivot columns are ``pivots``.

    With l rows each Z is one minor of X (see the module docstring).  The
    minors are computed by top row: for t = l-1 down to 0, every minor
    whose top row is t, expanded along that row into minors of lower rows,
    which are already known.  ``minors[rows]`` lists the determinants of X
    on the row mask ``rows`` and every column mask of the same size, in
    increasing order of the column masks; ``minors[0]`` is the empty minor
    1.  Row and column masks of equal size correspond one-to-one to the
    l-sets.  A singular Z has corank 1 iff some minor one size smaller inside
    its own is nonzero, all of those lie in its block or an earlier one, and
    they give its line (see ``_line``).

    When the pivots are the first l positions, block t is exactly the
    lexicographic run of sets that contain 0..t-1 and not t, its entries
    come in the order of their sets (see ``_blocks``), and all sets of one
    entry share their pivots: each entry's singular sets are sorted and
    yielded as soon as it is computed, so a scan that stops early pays only
    for the entries it reached.  For other pivots, after block t every set
    that contains pivots[:t] is decided, and the least set still to come is
    the l first positions other than pivots[t-1]: the singular sets below it
    are yielded, in sorted order, before block t-1 is computed.

    The row table and the face tables take 2^rank and about
    width * 2^(width - 1) entries.  When 2^rank + 2^width outnumber the sets
    (a basis much wider than tall, with few sets), or the span's dimension
    is not l, the kernel of the restricted matrix of each set is computed
    instead.
    """
    rank = len(vectors)
    if not (rank == l and (1 << rank) + (1 << (n - rank)) <= comb(n, l)):
        for zero_set in combinations(range(n), l):
            kernel = right_kernel_rows([[vec[c] for vec in vectors] for c in zero_set], rank, p)
            if kernel:
                yield zero_set, tuple(kernel[0]) if len(kernel) == 1 else None
        return
    free = [c for c in range(n) if c not in pivots]
    width = len(free)
    X = [[row[c] for c in free] for row in vectors]
    order = pivots + free
    numbers = _numbering(width)
    masks, faces = _faces(width)
    minors = [None] * (1 << l)
    minors[0] = [1]
    reduce_mod = p.__rmod__
    pivots_first = pivots == list(range(l))
    found = []
    for t, block in _blocks(l, width):
        row = X[t]
        for rows, k in block:
            rest = minors[rows ^ 1 << t]
            total = None
            for j, (columns, sub_numbers) in enumerate(faces[k]):
                terms = map(mul, columns(row), sub_numbers(rest))
                total = terms if total is None else map(sub if j & 1 else add, total, terms)
            minors[rows] = dets = list(map(reduce_mod, total))
            if 0 in dets:
                for number in compress(range(len(dets)), map(not_, dets)):
                    cols = masks[k][number]
                    zero_set = [order[r] for r in range(l) if not rows >> r & 1]
                    zero_set += [order[l + f] for f in range(width) if cols >> f & 1]
                    found.append((tuple(sorted(zero_set)), _line(minors, numbers, rows, cols, l, p)))
                if pivots_first:
                    # Every set of a later entry or block comes after this entry's sets.
                    found.sort()
                    yield from found
                    found.clear()
        if found:
            found.sort()
            cut = len(found)
            if t:
                # Sets still to come miss one of pivots[:t]; the least of them
                # is the l first positions other than pivots[t - 1].
                skipped = pivots[t - 1]
                cut = bisect_left(found, (tuple(c for c in range(l + 1) if c != skipped)[:l],))
            yield from found[:cut]
            del found[:cut]


def _canonical_pivots(rows: Sequence[Sequence[int]], p: int) -> Optional[list[int]]:
    """The pivot columns of rows already in RREF with entries in [0, p), else None.

    Such rows are their own reduction: each leading entry is 1, the leading
    entries sit in increasing columns, each pivot column is zero in the other
    rows, and no entry needs reducing mod p.  Every RREF basis the package
    builds (``left_kernel``, ``span_basis``) names its pivots and skips the
    check, so it runs only on hand-built bases and for ``_singular_zero_sets``
    callers.
    """
    if rows and (min(map(min, rows)) < 0 or max(map(max, rows)) >= p):
        return None
    pivots = []
    for row in rows:
        if 1 not in row:
            return None
        lead = row.index(1)
        if any(row[:lead]) or (pivots and lead <= pivots[-1]):
            return None
        pivots.append(lead)
    # The entries are non-negative and each row has 1 on its own pivot, so the
    # pivot columns are zero elsewhere iff their entries sum to the rank.
    if len(pivots) > 1 and sum(map(sum, map(itemgetter(*pivots), rows))) != len(pivots):
        return None
    return pivots


def _line(
    minors: list, numbers: Sequence[int], rows: int, cols: int, height: int, p: int
) -> Optional[tuple[int, ...]]:
    """The coefficients, one per row of X, of the members vanishing on the
    set of (rows, cols) when they form one line, scaled so that the first
    nonzero one is 1; None when they span more (corank 2 or more).

    A member vanishes on the set iff its coefficients are zero outside
    ``rows`` and, on ``rows``, a left null vector of X[rows, cols].  For a
    column c0 of ``cols``, a_r = (-1)^pos(r) det X[rows - r, cols - c0],
    with pos(r) the position of r among ``rows``, is one row of the
    adjugate, so a null vector; it is nonzero for the first c0 with a
    nonzero minor X[rows - r, cols - c0], and such a minor exists iff the
    corank is 1.  ``minors`` holds the lists of every row mask scheduled
    before ``rows``, and ``numbers`` numbers the column masks as those lists
    are ordered."""
    row_indices = [r for r in range(height) if rows >> r & 1]
    col_bits = cols
    while col_bits:
        col_bit = col_bits & -col_bits
        col_bits ^= col_bit
        number = numbers[cols ^ col_bit]
        cofactors = [minors[rows ^ 1 << r][number] for r in row_indices]
        if any(cofactors):
            break
    else:
        return None
    signed = [-cofactor if pos & 1 else cofactor for pos, cofactor in enumerate(cofactors)]
    scale = pow(next(filter(None, signed)), -1, p)
    coefficients = [0] * height
    for r, cofactor in zip(row_indices, signed):
        coefficients[r] = cofactor * scale % p
    return tuple(coefficients)


@cache
def _blocks(height: int, width: int) -> tuple:
    """The block schedule: for t = height-1 down to 0, (t, entries), one entry
    (rows, size) for each row mask with top row t, up to size ``width``.

    A block lists its masks in the lexicographic order of their sets (with
    the pivots first): reading the bits from row t+1 upwards, at the first
    bit where two masks differ, the one with a 0 there (that row's pivot in
    the set) comes first.  An entry reads the minors of its rows without t,
    from an earlier block, and ``_line`` those of its rows without one
    other bit, a mask earlier in the same block."""
    schedule = []
    for t in reversed(range(height)):
        below = sorted(
            (rest << (t + 1) for rest in range(1 << (height - t - 1))),
            key=lambda rest: [rest >> r & 1 for r in range(t + 1, height)],
        )
        entries = tuple((rest | 1 << t, rest.bit_count() + 1) for rest in below if rest.bit_count() < width)
        schedule.append((t, entries))
    return tuple(schedule)


@cache
def _faces(width: int):
    """(masks, faces): masks[k] lists the size-k column masks in increasing
    order, and faces[k][j] holds two getters that take, for every size-k mask
    in that order, the index of its j-th lowest column from a row of X and the
    minor without that column from the size-(k-1) minors of one row mask."""
    numbers = _numbering(width)
    masks = [[] for _ in range(width + 1)]
    for mask in range(1 << width):
        masks[mask.bit_count()].append(mask)
    faces = []
    for k, size_k in enumerate(masks):
        columns = [[] for _ in range(k)]
        sub_numbers = [[] for _ in range(k)]
        for mask in size_k:
            rest = mask
            for j in range(k):
                bit = rest & -rest
                rest ^= bit
                columns[j].append(bit.bit_length() - 1)
                sub_numbers[j].append(numbers[mask ^ bit])
        faces.append(tuple((_getter(c), _getter(s)) for c, s in zip(columns, sub_numbers)))
    return tuple(tuple(size_k) for size_k in masks), tuple(faces)


def _getter(indices: list[int]) -> Callable:
    """Like itemgetter(*indices), but a tuple also for one index."""
    if len(indices) == 1:
        index = indices[0]
        return lambda seq: (seq[index],)
    return itemgetter(*indices)


@cache
def _numbering(bits: int) -> tuple[int, ...]:
    """Each mask below 1 << bits numbered in increasing order among the masks of its size."""
    count = [0] * (bits + 1)
    numbers = []
    for mask in range(1 << bits):
        k = mask.bit_count()
        numbers.append(count[k])
        count[k] += 1
    return tuple(numbers)


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
        if rref_rows(rows + [row], p)[1] == len(rows) + 1:
            rows.append(row)
    while True:
        mixer = [[rng.randrange(p) for _ in range(l)] for _ in range(l)]
        if rref_rows(mixer, p)[1] == l:
            break
    mixed = [
        [sum(mixer[r][k] * rows[k][c] for k in range(l)) % p for c in range(ambient)]
        for r in range(l)
    ]
    return span_basis(mixed, ambient, p), tuple(target)
