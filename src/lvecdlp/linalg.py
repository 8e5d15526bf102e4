"""Dense exact linear algebra over F_p: left kernels, block elimination, RREF and rank.

Matrices are small (tens of rows) so everything is plain Gaussian elimination
on lists of residues.  Every routine takes plain rows (a sequence of
equal-length integer sequences) and the modulus p; the one wrapper is
KernelBasis, the canonical RREF basis of a kernel.

A kernel takes one elimination: with the pivots chosen from the rightmost
column leftwards, the vector that puts 1 on one free column and 0 on the
others is already a row of the kernel's RREF (see right_kernel_rows), so
the basis needs no second reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

LOWER_TRIANGULAR = "lower_triangular"
DIAGONAL = "diagonal"


@dataclass(frozen=True)
class KernelBasis:
    """Linearly independent kernel vectors, stored as the RREF of the basis matrix."""

    p: int
    ambient: int
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.vectors and set(map(len, self.vectors)) != {self.ambient}:
            raise ValueError("kernel vectors must have the ambient length")

    @property
    def dim(self) -> int:
        return len(self.vectors)

    def vector_lists(self) -> list[list[int]]:
        return [list(v) for v in self.vectors]


def left_kernel(rows: Sequence[Sequence[int]], p: int) -> KernelBasis:
    """Canonical basis of {v : v^T M = 0}, the right kernel of the transpose."""
    if len(set(map(len, rows))) > 1:
        raise ValueError("matrix rows must all have the same length")
    vectors = right_kernel_rows(list(zip(*rows)), len(rows), p)
    return KernelBasis(p, len(rows), tuple(map(tuple, vectors)))


def eliminate_block(kb: KernelBasis, start: int, stop: int, stage: str) -> KernelBasis:
    """Row-reduce the column window [start, stop) of a kernel-basis matrix.

    stage = LOWER_TRIANGULAR clears entries above the block diagonal (pivot
    row t paired with the t-th block column, processed bottom-up); DIAGONAL
    clears everything off the block diagonal.  Only row operations are used,
    so the row span (the kernel subspace) is preserved exactly.

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
    """
    work = [[v % p for v in row] for row in rows]
    nrows = len(work)
    pivots: list[int] = []  # pivot column of row 0, 1, ...
    for c in range(ncols - 1, -1, -1):
        rank = len(pivots)
        if rank == nrows:
            break
        pivot_row = None
        for r in range(rank, nrows):
            if work[r][c]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        # The pivot row is zero right of c, so scaling it and the row operations
        # change only the columns left of c.  Later steps and the kernel vectors
        # read only columns left of c, so the rows keep their tails as they are.
        lead = work[rank]
        inv = pow(lead[c], -1, p)
        pivot_vec = lead[:c] = [v * inv % p for v in lead[:c]]
        for r in range(nrows):
            row = work[r]
            entry = row[c]
            if entry and r != rank:
                row[:c] = [(a - entry * b) % p for a, b in zip(row, pivot_vec)]
        pivots.append(c)
    pivot_cols = set(pivots)
    vectors = []
    for free in range(ncols):
        if free in pivot_cols:
            continue
        v = [0] * ncols
        v[free] = 1
        for c, row in zip(pivots, work):
            if c > free:
                v[c] = -row[free] % p
        vectors.append(v)
    return vectors
