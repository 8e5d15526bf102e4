"""Reference right kernel by two eliminations.

This is ``right_kernel_rows`` as the package had it before the one-pass
version: reduce the rows with pivots taken left to right, build one kernel
vector per free column, then reduce those vectors again to reach the
canonical (RREF) basis.  It is kept only as the independent reference for
the differential tests in ``test_linalg.py``.  ``reference_left_kernel``
applies it to the transpose of reference monomial rows, the kernel
``left_kernel`` takes straight from the points.  Both reduce by
``reference_rref``, an RREF that shares no code with the package's packed
elimination, and which also checks the basis ``KernelBasis`` makes on
construction.
"""

from __future__ import annotations

from reference_veronese import reference_evaluate_rows


def reference_right_kernel_rows(rows, ncols: int, p: int) -> list[tuple[int, ...]]:
    """Canonical (RREF) basis of the right kernel of a raw row list, one tuple per vector."""
    reduced, pivots = reference_rref(rows, p)
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
    return reference_rref(vectors, p)[0]


def reference_left_kernel(mb, points, p) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """(vectors, pivots): the RREF basis of the left kernel of the points'
    monomial matrix, its rows by ``reference_evaluate_rows``, as the
    two-pass right kernel of the transpose, and the pivot of each vector,
    its first nonzero position."""
    rows = reference_evaluate_rows(mb, points, p)
    vectors = reference_right_kernel_rows([list(column) for column in zip(*rows)], len(points), p)
    return vectors, tuple(next(i for i, v in enumerate(vec) if v) for vec in vectors)


def reference_rref(rows, p: int) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """(vectors, pivots): the nonzero rows of the RREF of ``rows`` over F_p and
    their pivot columns, in two passes: a fraction-free forward elimination
    to echelon form, then, from the last pivot row up, each row scaled by a
    Fermat inverse and cleared from the rows above it."""
    work = [[v % p for v in row] for row in rows]
    echelon, pivots = [], []
    for c in range(len(work[0]) if work else 0):
        lead_index = next((r for r, row in enumerate(work) if row[c]), None)
        if lead_index is None:
            continue
        lead = work.pop(lead_index)
        work = [[(a * lead[c] - row[c] * b) % p for a, b in zip(row, lead)] for row in work]
        echelon.append(lead)
        pivots.append(c)
    for i in reversed(range(len(echelon))):
        c = pivots[i]
        scale = pow(echelon[i][c], p - 2, p)
        echelon[i] = [v * scale % p for v in echelon[i]]
        for j in range(i):
            factor = echelon[j][c]
            echelon[j] = [(a - factor * b) % p for a, b in zip(echelon[j], echelon[i])]
    return list(map(tuple, echelon)), tuple(pivots)
