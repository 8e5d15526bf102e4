"""Reference elliptic-curve arithmetic over field-element objects.

This is the arithmetic the package used before ``curve.py`` moved to plain
integers: every residue is a checked ``FieldElement`` and the group law is
written directly in terms of them.  It is slow and kept only as the
independent reference for the differential tests in ``test_curve.py``; the
element arithmetic itself is checked in ``test_field.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from lvecdlp.curve import XY, Curve
from lvecdlp.field import PrimeField


@dataclass(frozen=True)
class FieldElement:
    """Immutable residue in [0, p).  Mixed-modulus arithmetic is rejected."""

    value: int
    field: PrimeField

    def _check(self, other: FieldElement) -> int:
        if self.field.p != other.field.p:
            raise ValueError(f"modulus mismatch: {self.field.p} vs {other.field.p}")
        return self.field.p

    def __add__(self, other: FieldElement) -> FieldElement:
        p = self._check(other)
        return FieldElement((self.value + other.value) % p, self.field)

    def __sub__(self, other: FieldElement) -> FieldElement:
        p = self._check(other)
        return FieldElement((self.value - other.value) % p, self.field)

    def __mul__(self, other: FieldElement) -> FieldElement:
        p = self._check(other)
        return FieldElement(self.value * other.value % p, self.field)

    def __neg__(self) -> FieldElement:
        return FieldElement(-self.value % self.field.p, self.field)

    def inv(self) -> FieldElement:
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.field.p}")
        return FieldElement(pow(self.value, -1, self.field.p), self.field)

    def __truediv__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        return self * other.inv()

    def __repr__(self) -> str:
        return f"{self.value} mod {self.field.p}"


def elem(field: PrimeField, value: int) -> FieldElement:
    """Canonical element of F_p with residue in [0, p)."""
    return FieldElement(value % field.p, field)


def reference_add(curve: Curve, lhs: XY, rhs: XY) -> XY:
    """Chord-tangent group law with None for the identity, on field elements."""
    if lhs is None:
        return rhs
    if rhs is None:
        return lhs
    f = curve.field
    x1, y1 = elem(f, lhs[0]), elem(f, lhs[1])
    x2, y2 = elem(f, rhs[0]), elem(f, rhs[1])
    if x1 == x2 and (y1 + y2).value == 0:
        return None
    if lhs == rhs:
        slope = (elem(f, 3) * x1 * x1 + elem(f, curve.a)) / (elem(f, 2) * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    y3 = slope * (x1 - x3) - y1
    return x3.value, y3.value


def reference_scalar_mul(curve: Curve, k: int, pt: XY) -> XY:
    """k-fold sum by double-and-add, k >= 0."""
    if k < 0:
        raise ValueError("scalar must be non-negative; reduce mod the group order first")
    acc = None
    step = pt
    while k:
        if k & 1:
            acc = reference_add(curve, acc, step)
        step = reference_add(curve, step, step)
        k >>= 1
    return acc
