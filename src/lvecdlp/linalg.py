"""Dense exact linear algebra over F_p: left kernels, block elimination, RREF and rank.

Matrices are small (tens of rows) so everything is plain Gaussian elimination
on lists of residues.  Every routine takes plain rows (a sequence of
equal-length integer sequences) and the modulus p; the one wrapper is
KernelBasis, a basis of a kernel that also names its pivot columns when the
package built it in RREF.

A kernel takes one elimination: with the pivots chosen from the rightmost
column leftwards, the vector that puts 1 on one free column and 0 on the
others is already a row of the kernel's RREF (see right_kernel_rows), so
the basis needs no second reduction.  That elimination packs each row into
one int, a fixed-width slot per column, wide enough (from p and the number
of pivots) that no slot carries into the next: a row operation is one
multiply-add of ints, and residues are read only in the pivot column and
when the kernel vectors are written out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import lshift
from typing import Optional, Sequence

LOWER_TRIANGULAR = "lower_triangular"
DIAGONAL = "diagonal"


@dataclass(frozen=True)
class KernelBasis:
    """Linearly independent kernel vectors, the rows of a basis matrix.

    The vectors are any basis of the span.  ``pivots`` is not a constructor
    argument: only ``left_kernel`` and ``span_basis``, which build the
    vectors as their own RREF with entries in [0, p), set it, to the pivot
    columns of those rows, and the zero-set scan then uses the basis as it
    stands.  On every other basis (hand-built ones, and the results of
    ``eliminate_block``) it is None, and the scan reduces the vectors
    first.  It is not part of the value: equality and hashing compare the
    vectors.
    """

    p: int
    ambient: int
    vectors: tuple[tuple[int, ...], ...]
    pivots: Optional[tuple[int, ...]] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.vectors and set(map(len, self.vectors)) != {self.ambient}:
            raise ValueError("kernel vectors must have the ambient length")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def vector_lists(self) -> list[list[int]]:
        return [list(v) for v in self.vectors]


def left_kernel(rows: Sequence[Sequence[int]], p: int) -> KernelBasis:
    """Canonical (RREF) basis of {v : v^T M = 0}, the right kernel of the transpose.

    Its pivots are the elimination's free columns, handed on with the basis.
    """
    if len(set(map(len, rows))) > 1:
        raise ValueError("matrix rows must all have the same length")
    vectors, free = _right_kernel(list(zip(*rows)), len(rows), p)
    return _in_rref(p, len(rows), vectors, free)


def span_basis(rows: Sequence[Sequence[int]], ambient: int, p: int) -> KernelBasis:
    """The RREF basis of the span of the rows, naming its pivots."""
    reduced, rank, pivots = rref_rows(rows, p)
    return _in_rref(p, ambient, reduced[:rank], pivots)


def _in_rref(p: int, ambient: int, vectors: Sequence[Sequence[int]], pivots: Sequence[int]) -> KernelBasis:
    """A basis of rows that are their own RREF, entries in [0, p), with pivot columns ``pivots``."""
    kb = KernelBasis(p, ambient, tuple(map(tuple, vectors)))
    object.__setattr__(kb, "pivots", tuple(pivots))
    return kb


def eliminate_block(kb: KernelBasis, start: int, stop: int, stage: str) -> KernelBasis:
    """Row-reduce the column window [start, stop) of a kernel-basis matrix.

    stage = LOWER_TRIANGULAR clears entries above the block diagonal (pivot
    row t paired with the t-th block column, processed bottom-up); DIAGONAL
    clears everything off the block diagonal.  Only row operations are used,
    so the row span (the kernel subspace) is preserved exactly.  The result
    is in general not in RREF and carries no pivots.

    When the natural diagonal pivot vanishes, a different unused block column
    is pivoted on instead; a position with no pivot at all is skipped and
    elimination proceeds as far as possible.
    """
    if stage not in (LOWER_TRIANGULAR, DIAGONAL):
        raise ValueError(f"unknown stage {stage!r}")
    p = kb.p
    vecs = kb.vector_lists()
    nrows = len(vecs)
    cols = list(range(max(start, 0), min(stop, kb.ambient)))
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

    return KernelBasis(p, kb.ambient, tuple(tuple(v) for v in vecs))


def in_row_space(vectors: Sequence[Sequence[int]], candidate: Sequence[int], p: int) -> bool:
    """Membership test by rank comparison."""
    base = [list(v) for v in vectors]
    return rref_rows(base, p)[1] == rref_rows(base + [list(candidate)], p)[1]


def rref_rows(rows: Sequence[Sequence[int]], p: int) -> tuple[list[list[int]], int, list[int]]:
    """RREF with unit pivots; returns (rows, rank, pivot column indices)."""
    work = [[v % p for v in row] for row in rows]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    pivots: list[int] = []
    rank = 0
    for c in range(ncols):
        pivot_row = None
        for r in range(rank, nrows):
            if work[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        inv = pow(work[rank][c], -1, p)
        work[rank] = [v * inv % p for v in work[rank]]
        pivot_vec = work[rank]
        for r in range(nrows):
            if r != rank and work[r][c]:
                entry = work[r][c]
                row = work[r]
                work[r] = [(a - entry * b) % p for a, b in zip(row, pivot_vec)]
        pivots.append(c)
        rank += 1
        if rank == nrows:
            break
    return work, rank, pivots


def right_kernel_rows(rows: Sequence[Sequence[int]], ncols: int, p: int) -> list[list[int]]:
    """Canonical (RREF) basis of the right kernel of a raw row list, in one elimination.

    Pivots are taken from the rightmost column leftwards, so each pivot row is
    zero right of its pivot and, once reduced, in every other pivot column.
    For a free column f, the kernel vector with 1 at f and 0 at the other free
    columns is then nonzero only at f and at pivot columns right of f: it is
    already the row of the kernel's RREF whose pivot is f.

    Each row is packed into one int, column c in the slot of ``width`` bits
    at bit c * width, so a row operation is one multiply-add of ints,
    ``row + factor * lead`` with factor = -entry / pivot in [0, p).  No slot
    is reduced mod p: starting below p, every step multiplies the largest
    slot value by at most p, so after at most min(rows, columns) pivots it
    stays below p^(pivots + 1), and ``width`` is the bit length of that
    bound, so no slot carries into its neighbour.  Residues are read only
    where the elimination branches (the pivot column, top-down until a
    pivot is found, then in every row) and when the kernel vectors are
    written out; the pivot rows are not scaled, so each keeps the inverse of
    its pivot for that.
    """
    return _right_kernel(rows, ncols, p)[0]


def _right_kernel(rows: Sequence[Sequence[int]], ncols: int, p: int) -> tuple[list[list[int]], list[int]]:
    """(vectors, free): ``right_kernel_rows`` and the free columns, in increasing
    order, which are the pivot columns of those RREF vectors."""
    nrows = len(rows)
    width = (p ** (min(nrows, ncols) + 1) - 1).bit_length()
    mask = (1 << width) - 1
    shifts = range(0, ncols * width, width)
    reduce_mod = p.__rmod__
    work = [sum(map(lshift, map(reduce_mod, row), shifts)) for row in rows]
    pivots: list[int] = []  # pivot column of row 0, 1, ...
    neg_invs: list[int] = []  # -1 / (pivot entry) of row 0, 1, ...
    for c in range(ncols - 1, -1, -1):
        rank = len(pivots)
        if rank == nrows:
            break
        shift = shifts[c]
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
            if r != rank:
                entry = (row >> shift & mask) % p
                if entry:
                    work[r] = row + (p - entry) * inv % p * lead
        pivots.append(c)
        neg_invs.append(p - inv)
    pivot_cols = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    vectors = []
    for free in free_cols:
        v = [0] * ncols
        v[free] = 1
        shift = shifts[free]
        for c, row, neg_inv in zip(pivots, work, neg_invs):
            if c > free:
                v[c] = (row >> shift & mask) * neg_inv % p
        vectors.append(v)
    return vectors, free_cols
