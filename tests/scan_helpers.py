"""Test helpers around the zero-set scan: its (zero set, combos) stream on any
basis, and the RREF check a basis that names its pivots must pass."""

from lvecdlp import problem_l
from lvecdlp.linalg import KernelBasis
from reference_linalg import reference_rref


def singular_zero_sets(vectors, n, l, p):
    """(Z, combos) for the l-sets Z, in lexicographic order, on which a
    nonzero member of the span of ``vectors`` vanishes: ``problem_l._scan``
    on the span's RREF basis, over whose rows ``combos`` is the RREF basis
    of the members vanishing on Z."""
    kb = KernelBasis(p, n, vectors)
    return problem_l._scan(kb.vectors, kb.pivots, n, l, p)


def own_rref_pivots(vectors, p):
    """The pivot columns of ``vectors`` when they are their own RREF, with
    entries in [0, p), by ``reference_rref``; else None."""
    reduced, pivots = reference_rref(vectors, p)
    return list(pivots) if reduced == list(map(tuple, vectors)) else None
