"""Reference evaluation of monomial rows by the ``pow`` formula.

This is how ``veronese`` evaluated a row before it read the monomials from
power tables of x and y, and, once the package stopped building rows at
all, the row evaluator the tests keep: one modular power per variable and
monomial, at any coordinate triple.  It is slow and kept only as the
independent reference for ``columns`` and ``left_kernel``.
"""

from __future__ import annotations

from lvecdlp.veronese import MonomialBasis


def reference_evaluate_at(mb: MonomialBasis, x: int, y: int, z: int, p: int) -> list[int]:
    """Componentwise monomial evaluation x^i y^j z^k mod p at an arbitrary coordinate triple."""
    return [pow(x, i, p) * pow(y, j, p) * pow(z, k, p) % p for i, j, k in mb.exponents]


def reference_evaluate_rows(mb: MonomialBasis, points, p: int) -> list[list[int]]:
    """One row per point, at its normal form: (x : y : 1) for an affine
    pair, (0 : 1 : 0) for the identity (None)."""
    return [reference_evaluate_at(mb, *((0, 1, 0) if pt is None else (*pt, 1)), p) for pt in points]

