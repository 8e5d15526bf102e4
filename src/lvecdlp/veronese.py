"""Fixed monomial ordering in (x, y, z) and evaluation of points into matrix columns.

The ordering contract for every matrix column, kernel vector, and dumped
coefficient vector in this package: all monomials of total degree n, sorted
graded-lexicographically with x > y > z, in descending order.  For n = 2 that
reads x^2, xy, xz, y^2, yz, z^2.  A basis may keep only some of them, in the
same order: the attack's matrix drops those of x-degree 3 or more, which are
combinations of the others on the curve (``attack.curve_monomials``).

A point is an affine (x, y) pair, standing for (x : y : 1), or None for the
identity (0 : 1 : 0).  At an affine point the monomial x^i y^j z^k is
x^i * y^j, read from the power tables [1, x, ..., x^n] and [1, y, ..., y^n].
At the identity it is 1 for y^n and 0 for every other monomial.  The
monomials include x z^(n-1), y z^(n-1) and z^n, so distinct points have
distinct rows.

The points' matrix has one row per point and one column per monomial.  Its
left kernel is the right kernel of the transpose, whose rows are the
matrix's columns, so ``columns`` evaluates the points column by column, for
``linalg.left_kernel`` to pack, and no row is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Sequence

from .curve import XY


@dataclass(frozen=True)
class MonomialBasis:
    """Exponent triples (i, j, k), i + j + k = degree, in the fixed order:
    all of them (``basis``) or a subsequence."""

    degree: int
    exponents: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        """Number of monomials, (degree + 1)(degree + 2) / 2 for ``basis(degree)``."""
        return len(self.exponents)


@cache
def basis(degree: int) -> MonomialBasis:
    """The degree-n monomials in the fixed order, built once per degree."""
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    exps = []
    for i in range(degree, -1, -1):
        for j in range(degree - i, -1, -1):
            exps.append((i, j, degree - i - j))
    return MonomialBasis(degree, tuple(exps))


def columns(mb: MonomialBasis, points: Sequence[XY], p: int) -> list[list[int]]:
    """The points' matrix by columns, one per monomial in the fixed order:
    its values at the points, in order, residues in [0, p).

    Each point's x and y are read once, into power tables kept per power
    over all points; a monomial with both x and y is one product of two of
    them, reduced once.  The identity takes x = 0 and y = 1, which gives
    every monomial without z its value there, and its entry is set to 0 in
    the monomials with z.
    """
    reduce_mod = p.__rmod__
    xs = [0 if pt is None else pt[0] for pt in points]
    ys = [1 if pt is None else pt[1] for pt in points]
    x_powers = [[1] * len(points), xs]
    y_powers = [x_powers[0], ys]
    for _ in range(mb.degree - 1):
        x_powers.append(list(map(reduce_mod, map(mul, x_powers[-1], xs))))
        y_powers.append(list(map(reduce_mod, map(mul, y_powers[-1], ys))))
    values = [
        list(map(reduce_mod, map(mul, x_powers[i], y_powers[j]))) if i and j else x_powers[i] if i else y_powers[j]
        for i, j, _ in mb.exponents
    ]
    if None in points:
        values = [
            [0 if pt is None else v for pt, v in zip(points, column)] if k else column
            for column, (_, _, k) in zip(values, mb.exponents)
        ]
    return values
