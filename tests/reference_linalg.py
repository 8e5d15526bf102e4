"""Reference right kernel by two eliminations.

This is ``right_kernel_rows`` as the package had it before the one-pass
version: reduce the rows with pivots taken left to right, build one kernel
vector per free column, then reduce those vectors again to reach the
canonical (RREF) basis.  It is kept only as the independent reference for
the differential tests in ``test_linalg.py``; ``rref_rows`` itself is
checked there too.  ``reference_left_kernel`` applies it to the transpose
of reference monomial rows, the kernel ``left_kernel`` takes straight from
the points.
"""

from __future__ import annotations

from lvecdlp.linalg import rref_rows
from reference_veronese import reference_evaluate_rows


def reference_right_kernel_rows(rows, ncols: int, p: int) -> list[tuple[int, ...]]:
    """Canonical (RREF) basis of the right kernel of a raw row list, one tuple per vector."""
    reduced, _, pivots = rref_rows(rows, p) if rows else ([], 0, [])
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    if not free_cols:
        return []
    vectors = []
    for free in free_cols:
        v = [0] * ncols
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free] % p
        vectors.append(v)
    canonical, _, _ = rref_rows(vectors, p)
    return list(map(tuple, canonical))


def reference_left_kernel(mb, points, p) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """(vectors, pivots): the RREF basis of the left kernel of the points'
    monomial matrix, its rows by ``reference_evaluate_rows``, as the
    two-pass right kernel of the transpose, and the pivot of each vector,
    its first nonzero position."""
    rows = reference_evaluate_rows(mb, points, p)
    vectors = reference_right_kernel_rows([list(column) for column in zip(*rows)], len(points), p)
    return vectors, tuple(next(i for i, v in enumerate(vec) if v) for vec in vectors)
