"""Reference evaluation of monomial rows by the ``pow`` formula.

This is how ``veronese`` evaluated a row before it read the monomials from
power tables of x and y: one modular power per variable and monomial, at
any coordinate triple.  It is slow and kept only as the independent
reference for ``test_veronese.py``.
"""

from __future__ import annotations

from lvecdlp.veronese import MonomialBasis


def reference_evaluate_at(mb: MonomialBasis, x: int, y: int, z: int, p: int) -> list[int]:
    """Componentwise monomial evaluation x^i y^j z^k mod p at an arbitrary coordinate triple."""
    return [pow(x, i, p) * pow(y, j, p) * pow(z, k, p) % p for i, j, k in mb.exponents]
