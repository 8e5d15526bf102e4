"""Zero-pattern search in a subspace of F_p^n.

Given an l-dimensional subspace, find a nonzero vector with at least l zero
coordinates.  Two solvers are provided: the block-elimination heuristic
(incomplete), which works on the rows of a basis as they are given, and an
exhaustive zero-set enumerator (complete: the attack's default solver, and
the measurement standard for the heuristic's conditional success rate),
which takes the span as a KernelBasis, its RREF basis.

The enumerator tests each l-set by one minor.  Write the span's RREF basis
as [I | X] with the pivot columns moved first: a span member vanishes on Z
exactly when the square minor of X on the pivot rows whose pivot is outside
Z and the free columns inside Z is zero.  So Problem L asks whether the code
spanned by the kernel fails to be MDS, since a code with generator [I | X]
is MDS iff every square submatrix of X is nonsingular (MacWilliams and
Sloane, The Theory of Error-Correcting Codes, ch. 11).

The attack can settle Problem L before it takes the kernel.  Its kernel is
the left kernel of the points' N x K matrix M, K = 3n' monomial columns and
N = K + l points.  A kernel member vanishes on Z iff its support lies in the
K points outside Z, which exist iff the K x K minor of M on those points is
zero.  So when no maximal minor of M is zero, no l-set is singular: the
[N, K] code spanned by M's columns is MDS, and so is its dual, the kernel
(MacWilliams and Sloane, ch. 11).  At n' = 1 the maximal minors are the
C(N, 3) determinants of three points' (x, y, 1), zero iff the three are
collinear, which on the curve means they sum to O (Semaev's third
summation polynomial, IACR ePrint 2004/031), or two of them are equal.
``in_general_position`` takes them straight from the points and tests
their product; about C(N, 3)/p of the iterations have such a triple,
20/907 at l = 3 and p = 907.  Up to ``GENERATED_POINTS`` = 12 points
(l <= 9) it runs straight-line code generated once per point count, as
``dataclasses`` builds ``__init__``; above that bound, where the generated
source would grow as C(N, 3), a loop whose memory stays flat.  Its time
grows with C(N, 3) = C(N, l), the sets the enumeration budget bounds, so
the attack runs it at n' = 1 at every l within that budget.  On seeded
samples of the p = 907 group (q = 853; 2 vCPU, Python 3.11.7, min of
seven passes in each of two processes) the generated code took 3.3
microseconds per call at l = 3 (the loop 7.1, the kernel path 67-83),
11-16 at l = 6 (loop 25-26) and 25 at l = 9 (loop 55); at l = 10 the loop
takes 64-84 against about 15,000 for the kernel path.

The minors are computed in blocks by top row, without recursion: for t =
l-1 down to 0, every minor whose top row is t, each expanded along that row
into the minors of the rows below, which earlier blocks hold.  Each row mask
keeps its own list of minors, one per column mask of its size.  One block
entry, a top row t and the rows below it, is one pass of ``map`` over
getters cached per width; the entry of row t alone is row t itself, its
1x1 minors.  When the pivots are the first l positions,
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

from .curve import XY
from .errors import BudgetExceededError
from .linalg import (
    DIAGONAL,
    LOWER_TRIANGULAR,
    KernelBasis,
    eliminate_block,
    right_kernel_rows,
)

DEFAULT_ENUMERATION_BUDGET = 5_000_000
# The largest point count whose collinearity test is generated as straight-line
# code (l <= 9 at n' = 1): C(12, 3) = 220 determinants, about 11 KB of source.
GENERATED_POINTS = 12
_FACTORS_PER_REDUCTION = 20


def solve_alg2(rows: Sequence[Sequence[int]], l: int, p: int) -> Optional[tuple[int, ...]]:
    """Block-elimination solver with four checkpoints, on the rows of a basis over F_p.

    The basis matrix is treated as two l-column windows.  Each window is row
    reduced first to lower-triangular and then to diagonal form, and after
    each of the four reductions every row is scanned for at least l zeros.
    The first qualifying row is returned; if no checkpoint fires (or there
    are no rows) the search stops unresolved, which is a legitimate outcome
    for this solver.  Each stage works on the rows the one before it left,
    so the answer depends on the rows given, not only on their span.
    """
    ambient = len(rows[0]) if rows else 0
    windows = [(0, min(l, ambient))]
    if ambient > l:
        windows.append((l, min(2 * l, ambient)))
    for start, stop in windows:
        for stage in (LOWER_TRIANGULAR, DIAGONAL):
            rows = eliminate_block(rows, start, stop, stage, p)
            for row in rows:
                if any(row) and row.count(0) >= l:
                    return row
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

    The search runs on the RREF basis the KernelBasis holds, with the
    pivots it names, so the result depends only on the span.

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
    vectors = kb.vectors
    rejected: set[tuple[int, ...]] = set()  # the combinations of the rejected candidates
    for zero_set, line in _scan(vectors, kb.pivots, n, l, p):
        if line is None:
            restricted = [[vec[c] for vec in vectors] for c in zero_set]
            combos = right_kernel_rows(restricted, len(vectors), p)
        else:
            combos = (line,)
        for combo in combos:
            if combo in rejected:
                continue
            solution = tuple(sum(map(mul, combo, column)) % p for column in zip(*vectors))
            if accept is None or accept(solution):
                return solution
            rejected.add(combo)
    return None


def in_general_position(points: Sequence[XY], q: int) -> bool:
    """Whether no three of the affine points over F_q, coordinates in [0, q),
    lie on a line, two equal points counting as on a line with any third:
    whether every 3 x 3 minor of their (x, y, 1) rows is nonzero mod q (see
    the module docstring for what that certifies).  False when a point is
    None, the identity, whose row (0, 1, 0) is not of that form.

    The determinants (x2 - x1)(y3 - y1) - (x3 - x1)(y2 - y1) of the C(N, 3)
    triples are multiplied together, and q prime makes the product zero
    mod q exactly when one of them is.  Up to ``GENERATED_POINTS`` points this
    runs a straight-line kernel generated once per point count N (see
    ``_general_position_kernel``); above it, where the kernel's source would
    grow as C(N, 3), a loop with flat memory (``_general_position_loop``).
    Both give the same answer for any q, prime or not: they reduce the same
    product mod q, only at different places.
    """
    if None in points:
        return False
    if len(points) <= GENERATED_POINTS:
        return _general_position_kernel(len(points))(points, q)
    return _general_position_loop(points, q)


def _general_position_loop(points: Sequence[XY], q: int) -> bool:
    """``in_general_position`` for any number of points, with flat memory.

    The product is reduced mod q at the end and, after the triples of each
    first point, whenever it has grown past 512 bits, so at a large N it
    stays short."""
    product = 1
    for i in range(len(points) - 2):
        x1, y1 = points[i]
        rest = points[i + 1:]
        for j in range(len(rest) - 1):
            x2, y2 = rest[j]
            dx, dy = x2 - x1, y2 - y1
            for x3, y3 in rest[j + 1:]:
                product *= dx * (y3 - y1) - (x3 - x1) * dy
        if product.bit_length() > 512:
            product %= q
    return product % q != 0


@cache
def _general_position_kernel(n: int) -> Callable[[Sequence[XY], int], bool]:
    """``in_general_position`` for exactly n points, none None, as one
    generated function, built as ``dataclasses`` builds ``__init__``.

    It unpacks the points into locals x0, y0, ..., takes the differences
    dx_i_j = xj - xi and dy_i_j = yj - yi of every pair i < j whose i can
    start a triple, and multiplies the triples' determinants
    dx_i_j * dy_i_k - dx_i_k * dy_i_j in one expression, reduced mod q
    after every ``_FACTORS_PER_REDUCTION`` of them: at q = 853 each factor
    is below 2^21 in absolute value, so a partial product, a residue times
    20 factors, stays below 2^430.  At N = 3 + l that is C(N, 3) factors:
    20 at l = 3, one reduction, and 220 at l = 9 (N = 12, the largest N
    generated), eleven."""
    unpack = ", ".join(f"(x{i}, y{i})" for i in range(n))
    lines = [f"def general_position_{n}(points, q):", f"    [{unpack}] = points"]
    for i in range(n - 2):
        for j in range(i + 1, n):
            lines.append(f"    dx_{i}_{j} = x{j} - x{i}; dy_{i}_{j} = y{j} - y{i}")
    factors = [
        f"(dx_{i}_{j} * dy_{i}_{k} - dx_{i}_{k} * dy_{i}_{j})" for i, j, k in combinations(range(n), 3)
    ]
    chunks = [
        " * ".join(factors[start:start + _FACTORS_PER_REDUCTION])
        for start in range(0, len(factors), _FACTORS_PER_REDUCTION)
    ] or ["1"]
    lines.append(f"    return {' % q * '.join(chunks)} % q != 0")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace[f"general_position_{n}"]


def _scan(
    vectors: Sequence[Sequence[int]], pivots: tuple[int, ...], n: int, l: int, p: int
) -> Iterator[tuple[tuple[int, ...], Optional[tuple[int, ...]]]]:
    """(Z, line) for the l-sets Z, in lexicographic order, on which a nonzero
    member of the span of ``vectors`` vanishes.  ``vectors`` are the nonzero
    rows of an RREF, with entries in [0, p), and ``pivots`` their pivot
    columns.  ``line`` is the coefficient vector, over those rows, of the
    members vanishing on Z when they form one line (corank 1), scaled so
    that its first nonzero entry is 1; it is None when they span more.

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
    shape = _shape(l, n - l) if rank == l else None
    if shape is None:
        for zero_set in combinations(range(n), l):
            kernel = right_kernel_rows([[vec[c] for vec in vectors] for c in zero_set], rank, p)
            if kernel:
                yield zero_set, kernel[0] if len(kernel) == 1 else None
        return
    numbers, masks, faces, first = shape
    free = [c for c in range(n) if c not in pivots]
    width = len(free)
    X = [[row[c] for c in free] for row in vectors]
    order = [*pivots, *free]
    minors = [None] * (1 << l)
    minors[0] = [1]
    reduce_mod = p.__rmod__
    pivots_first = pivots == first
    found = []
    for t, block in _blocks(l, width):
        row = X[t]
        for rows, k in block:
            if k == 1:
                # The 1x1 minors of row t are its entries, already in [0, p).
                minors[rows] = dets = row
            else:
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
def _shape(height: int, width: int) -> Optional[tuple]:
    """(numbers, masks, faces, first) for the minors scan of a basis of
    ``height`` rows and ``width`` free columns, ``first`` the pivots that
    come first; None when the row and face tables would outnumber the sets
    (see ``_scan``)."""
    if (1 << height) + (1 << width) > comb(height + width, height):
        return None
    return (_numbering(width), *_faces(width), tuple(range(height)))


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
    matrix so no basis row gives the pattern away; the instance is their span,
    as a KernelBasis.
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
        if KernelBasis(p, ambient, rows + [row]).dim == len(rows) + 1:
            rows.append(row)
    while True:
        mixer = [[rng.randrange(p) for _ in range(l)] for _ in range(l)]
        if KernelBasis(p, l, mixer).dim == l:
            break
    mixed = [
        [sum(mixer[r][k] * rows[k][c] for k in range(l)) % p for c in range(ambient)]
        for r in range(l)
    ]
    return KernelBasis(p, ambient, mixed), tuple(target)
