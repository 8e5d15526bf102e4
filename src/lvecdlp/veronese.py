"""Fixed monomial ordering in (x, y, z) and evaluation of points into matrix rows.

The ordering contract for every matrix column, kernel vector, and dumped
coefficient vector in this package: all monomials of total degree n, sorted
graded-lexicographically with x > y > z, in descending order.  For n = 2 that
reads x^2, xy, xz, y^2, yz, z^2.

Points come in normal form, so z is 1 or 0.  An affine point's row is
x^i * y^j for each monomial x^i y^j z^k, read from the power tables
[1, x, ..., x^n] and [1, y, ..., y^n]; the identity (0 : 1 : 0) has the row
with 1 at y^n and 0 elsewhere.  The monomials include x z^(n-1), y z^(n-1)
and z^n, so distinct points have distinct rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import itemgetter, mul
from typing import Iterable

from .curve import Point


@dataclass(frozen=True)
class MonomialBasis:
    """Exponent triples (i, j, k), i + j + k = degree, in the fixed order."""

    degree: int
    exponents: tuple[tuple[int, int, int], ...]

    @property
    def size(self) -> int:
        """Number of monomials, (degree + 1)(degree + 2) / 2."""
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


def evaluate_rows(
    mb: MonomialBasis, pairs: Iterable[tuple[int, int] | None], p: int
) -> tuple[tuple[int, ...], ...]:
    """Matrix rows, residues in [0, p), of points given as affine (x, y) pairs, None for the identity."""
    x_powers, y_powers = _power_getters(mb.degree)
    steps = range(mb.degree - 1)
    reduce_mod = p.__rmod__
    rows = []
    for xy in pairs:
        if xy is None:
            rows.append(_identity_row(mb.degree))
            continue
        x, y = xy
        xs = [1, x]
        ys = [1, y]
        for _ in steps:
            xs.append(xs[-1] * x % p)
            ys.append(ys[-1] * y % p)
        rows.append(tuple(map(reduce_mod, map(mul, x_powers(xs), y_powers(ys)))))
    return tuple(rows)


def evaluate_row(mb: MonomialBasis, pt: Point, p: int) -> list[int]:
    """Matrix row for a normalized point.

    Normal-form coordinates make rows unique per point, so repeated rows in
    an assembled matrix can be detected by plain equality.  Evaluating at the
    identity (0 : 1 : 0) is legal; the attack never does it because its
    multipliers are drawn from [1, p).
    """
    (row,) = evaluate_rows(mb, (pt.xy,), p)
    return list(row)


@cache
def _power_getters(degree: int) -> tuple[itemgetter, itemgetter]:
    """Getters of the x and of the y exponent of every degree-n monomial, in the fixed order."""
    exponents = basis(degree).exponents
    return itemgetter(*(i for i, _, _ in exponents)), itemgetter(*(j for _, j, _ in exponents))


@cache
def _identity_row(degree: int) -> tuple[int, ...]:
    return tuple(int(exponent == (0, degree, 0)) for exponent in basis(degree).exponents)
