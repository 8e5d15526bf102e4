"""Fixed monomial ordering in (x, y, z) and evaluation of points into matrix rows.

The ordering contract for every matrix column, kernel vector, and dumped
coefficient vector in this package: all monomials of total degree n, sorted
graded-lexicographically with x > y > z, in descending order.  For n = 2 that
reads x^2, xy, xz, y^2, yz, z^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

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


def evaluate_at(mb: MonomialBasis, x: int, y: int, z: int, p: int) -> list[int]:
    """Componentwise monomial evaluation at an arbitrary coordinate triple."""
    return [pow(x, i, p) * pow(y, j, p) * pow(z, k, p) % p for i, j, k in mb.exponents]


def evaluate_row(mb: MonomialBasis, pt: Point, p: int) -> list[int]:
    """Matrix row for a normalized point.

    Normal-form coordinates make rows unique per point, so repeated rows in
    an assembled matrix can be detected by plain equality.  Evaluating at the
    identity (0 : 1 : 0) is legal; the attack never does it because its
    multipliers are drawn from [1, p).
    """
    return evaluate_at(mb, pt.x, pt.y, pt.z, p)
