"""Dense exact linear algebra over F_p: one elimination behind every kernel,
span, rank and row-space test, and alg2's block elimination.

Every routine but one takes plain rows (a sequence of equal-length integer
sequences) and the modulus p; ``left_kernel`` takes the points whose
monomial rows make the attack's matrix.  The one wrapper is KernelBasis, a
span held as its RREF basis with its pivot columns named.

The one Gauss-Jordan elimination, ``_right_kernel``, works on rows packed
into one int each, a carry-free slot per column.  A right kernel takes it
once (right_kernel_rows, and left_kernel straight from the points); a span's
RREF basis, and so its rank, takes it twice, as the kernel of its kernel
(KernelBasis); a row-space test checks orthogonality to the span's kernel
(in_row_space).  ``eliminate_block`` is alg2's own order-dependent reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from operator import mul
from typing import Sequence

from .curve import XY
from .veronese import MonomialBasis, columns

LOWER_TRIANGULAR = "lower_triangular"
DIAGONAL = "diagonal"


@dataclass(frozen=True)
class KernelBasis:
    """A subspace of F_p^ambient held as its RREF basis: the nonzero rows of
    the RREF, entries in [0, p), and ``pivots``, their pivot columns.

    The constructor takes any rows of equal length ``ambient`` that span the
    subspace (zero, repeated or dependent rows, entries outside [0, p)), and
    ragged rows raise ValueError.  It sets the basis as the kernel of the
    rows' kernel: ``_right_kernel`` on the RREF basis of their right kernel
    gives the span's RREF vectors, and its free columns are their pivots.
    So two bases of one span are equal.  ``pivots`` is not a constructor
    argument; ``left_kernel``, whose elimination already gives the RREF and
    its pivots, hands both on without reducing again.
    """

    p: int
    ambient: int
    vectors: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        kernel = right_kernel_rows(self.vectors, self.ambient, self.p)
        width = _slot_width(self.p, min(len(kernel), self.ambient))
        vectors, pivots = _right_kernel([_pack(vec, width) for vec in kernel], self.ambient, self.p, width)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "pivots", pivots)

    @property
    def dim(self) -> int:
        return len(self.vectors)


def left_kernel(mb: MonomialBasis, points: Sequence[XY], p: int) -> KernelBasis:
    """Canonical (RREF) basis of the left kernel of the points' monomial matrix
    over F_p: the coefficient vectors, one entry per point, of the linear
    relations among the points' rows.

    It is the right kernel of the transpose, whose rows, the matrix's
    columns, are packed straight from their values, with no row built, for
    ``_right_kernel`` to eliminate.  That one elimination gives the RREF
    vectors and their pivots, the free columns, and the basis takes both as
    they are, without the constructor's reduction.
    """
    width = _slot_width(p, min(mb.size, len(points)))
    work = [_pack(column, width) for column in columns(mb, points, p)]
    vectors, free = _right_kernel(work, len(points), p, width)
    kb = object.__new__(KernelBasis)
    vars(kb).update(p=p, ambient=len(points), vectors=vectors, pivots=free)
    return kb


def eliminate_block(
    rows: Sequence[Sequence[int]], start: int, stop: int, stage: str, p: int
) -> tuple[tuple[int, ...], ...]:
    """Row-reduce the column window [start, stop) of a matrix over F_p.

    stage = LOWER_TRIANGULAR clears entries above the block diagonal (pivot
    row t paired with the t-th block column, processed bottom-up); DIAGONAL
    clears everything off the block diagonal.  Only row operations are used,
    so the row span is preserved exactly; the rows returned are in general
    not in RREF, and their order and form are the result.

    When the natural diagonal pivot vanishes, a different unused block column
    is pivoted on instead; a position with no pivot at all is skipped and
    elimination proceeds as far as possible.
    """
    if stage not in (LOWER_TRIANGULAR, DIAGONAL):
        raise ValueError(f"unknown stage {stage!r}")
    vecs = [list(row) for row in rows]
    nrows = len(vecs)
    cols = list(range(max(start, 0), min(stop, len(vecs[0]) if vecs else 0)))
    width = min(nrows, len(cols))
    used: set[int] = set()

    positions = range(width - 1, -1, -1) if stage == LOWER_TRIANGULAR else range(width)
    for t in positions:
        # Prefer the natural diagonal column, then any unused block column.
        candidates = [cols[t]] + [c for c in cols if c != cols[t]]
        search_rows = range(t + 1) if stage == LOWER_TRIANGULAR else range(t, nrows)
        pivot_row = pivot_col = None
        for c in candidates:
            if c in used:
                continue
            for r in search_rows:
                if vecs[r][c]:
                    pivot_row, pivot_col = r, c
                    break
            if pivot_row is not None:
                break
        if pivot_row is None:
            continue
        used.add(pivot_col)
        vecs[t], vecs[pivot_row] = vecs[pivot_row], vecs[t]
        inv = pow(vecs[t][pivot_col], -1, p)
        targets = range(t) if stage == LOWER_TRIANGULAR else (r for r in range(nrows) if r != t)
        pivot_vec = vecs[t]
        for r in targets:
            entry = vecs[r][pivot_col]
            if entry:
                factor = entry * inv % p
                row = vecs[r]
                vecs[r] = [(a - factor * b) % p for a, b in zip(row, pivot_vec)]

    return tuple(map(tuple, vecs))


def in_row_space(vectors: Sequence[Sequence[int]], candidate: Sequence[int], p: int) -> bool:
    """Whether ``candidate`` lies in the span of ``vectors`` over F_p: whether
    it is orthogonal to every vector of their right kernel, the span's
    orthogonal complement.  A candidate whose length differs from the rows'
    raises ValueError; with no rows, only zero is in the span."""
    return not any(sum(map(mul, vec, candidate)) % p for vec in right_kernel_rows(vectors, len(candidate), p))


def right_kernel_rows(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[tuple[int, ...]]:
    """Canonical (RREF) basis of the right kernel of a raw row list, in one elimination.

    Pivots are taken from the rightmost column leftwards, so each pivot row is
    zero right of its pivot and, once reduced, in every other pivot column.
    For a free column f, the kernel vector with 1 at f and 0 at the other free
    columns is then nonzero only at f and at pivot columns right of f: it is
    already the row of the kernel's RREF whose pivot is f.  The rows are
    packed for ``_right_kernel``.
    """
    if rows and set(map(len, rows)) != {ncols}:
        raise ValueError(f"matrix rows must all have length {ncols}")
    width = _slot_width(p, min(len(rows), ncols))
    work = [_pack(list(map(p.__rmod__, row)), width) for row in rows]
    return list(_right_kernel(work, ncols, p, width)[0])


def _pack(values: Sequence[int], width: int) -> int:
    """One int holding the values, the i-th in the ``width``-bit slot at bit i * width."""
    packed = 0
    for value in reversed(values):
        packed = packed << width | value
    return packed


@cache
def _slot_width(p: int, pivots: int) -> int:
    """Bits per slot for an elimination of at most ``pivots`` pivots on residues mod p."""
    return (p ** (pivots + 1) - 1).bit_length()


def _right_kernel(work: list[int], ncols: int, p: int, width: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(vectors, free): the RREF basis of the right kernel of the packed rows
    ``work``, and its pivots, the free columns in increasing order.

    ``work`` holds each row as one int, column c in the ``width``-bit slot at
    bit c * width, every slot a residue in [0, p); it is eliminated in
    place.  A row operation is one multiply-add of ints, ``row + factor *
    lead`` with factor = -entry / pivot in [0, p).  No slot is reduced mod
    p: starting below p, every step multiplies the largest slot value by at
    most p, so after at most min(rows, columns) pivots it stays below
    p^(pivots + 1), and ``width`` (``_slot_width``) is the bit length of that
    bound, so no slot carries into its neighbour.  Residues are read only
    where the elimination branches (the pivot column, top-down until a
    pivot is found, then in every row) and when the kernel vectors are
    written out; the pivot rows are not scaled, so each keeps the inverse of
    its pivot for that.
    """
    nrows = len(work)
    mask = (1 << width) - 1
    pivots: list[int] = []  # pivot column of row 0, 1, ..., decreasing
    neg_invs: list[int] = []  # -1 / (pivot entry) of row 0, 1, ...
    rank = 0
    for c in range(ncols - 1, -1, -1):
        shift = c * width
        for pivot_row in range(rank, nrows):
            entry = (work[pivot_row] >> shift & mask) % p
            if entry:
                break
        else:
            continue
        lead = work[pivot_row]
        work[pivot_row] = work[rank]
        work[rank] = lead
        inv = pow(entry, -1, p)
        for r, row in enumerate(work):
            # A slot that is a nonzero multiple of p adds 0 * lead.
            entry = row >> shift & mask
            if entry and r != rank:
                work[r] = row + -entry * inv % p * lead
        pivots.append(c)
        neg_invs.append(p - inv)
        rank += 1
        if rank == nrows:
            break
    pivot_cols = set(pivots)
    free_cols = tuple(c for c in range(ncols) if c not in pivot_cols)
    vectors = []
    for free in free_cols:
        v = [0] * ncols
        v[free] = 1
        shift = free * width
        for c, row, neg_inv in zip(pivots, work, neg_invs):
            if c < free:
                break
            v[c] = (row >> shift & mask) * neg_inv % p
        vectors.append(tuple(v))
    return tuple(vectors), free_cols
