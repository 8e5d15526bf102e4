"""Short-Weierstrass elliptic curve groups over prime fields, desk scale.

Curves are y^2 z = x^3 + a x z^2 + b z^3 over F_q with q >= 5.  Points are
kept in one of exactly two normal forms: affine (x : y : 1) or the identity
(0 : 1 : 0), so that equal points compare equal and monomial rows built from
them are unique per point.  The group law itself runs on plain ints in
[0, q); a Point is built only for the result.

Scalar multiplication has one routine, ``Curve.scalar_mul``, which splits k
into 4-bit windows and adds up one window entry d * 2^(4i) * pt per nonzero
digit d.  The entries are filled in lazily from the base's doubling chain
[2^j * pt] and kept in a memo keyed by the scalar d * 2^(4i), which also
holds the chain itself.  A base multiplied many times keeps its memo:
``GroupSpec`` keeps the generator's, and the attack's ``AttackConfig`` keeps
the one of -target.  Once the memo is warm, a 10-bit scalar costs at most
two group additions (fixed-base windowing: Brickell, Gordon, McCurley and
Wilson, "Fast exponentiation with precomputation", EUROCRYPT '92).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import BudgetExceededError
from .field import PrimeField, is_prime

DEFAULT_ENUMERATION_LIMIT = 1 << 20

IDENTITY_TOKEN = "O"

_WINDOW_BITS = 4
_DIGIT_MASK = (1 << _WINDOW_BITS) - 1


@dataclass(frozen=True)
class Point:
    """Projective point in normal form: z == 1, or the identity (0, 1, 0)."""

    x: int
    y: int
    z: int

    def __post_init__(self):
        if self.z not in (0, 1):
            raise ValueError("points must be normalized (z = 1) or the identity (z = 0)")
        if self.z == 0 and (self.x, self.y) != (0, 1):
            raise ValueError("the identity point is represented as (0 : 1 : 0)")

    @classmethod
    def affine(cls, x: int, y: int) -> Point:
        return cls(x, y, 1)

    @classmethod
    def identity(cls) -> Point:
        return cls(0, 1, 0)

    @property
    def is_identity(self) -> bool:
        return self.z == 0

    def __repr__(self) -> str:
        if self.is_identity:
            return "Point(O)"
        return f"Point({self.x}, {self.y})"


@dataclass(frozen=True)
class Curve:
    """Nonsingular short-Weierstrass curve over a prime field with q >= 5."""

    field: PrimeField
    a: int
    b: int

    def __post_init__(self):
        q = self.field.p
        if q < 5:
            raise ValueError("characteristic 2 and 3 are not supported; use q >= 5")
        object.__setattr__(self, "a", self.a % q)
        object.__setattr__(self, "b", self.b % q)
        disc = (4 * self.a**3 + 27 * self.b**2) % q
        if disc == 0:
            raise ValueError(f"singular curve: 4a^3 + 27b^2 = 0 mod {q}")

    @property
    def q(self) -> int:
        return self.field.p

    def contains(self, pt: Point) -> bool:
        if pt.is_identity:
            return True
        q = self.q
        return (pt.y * pt.y - (pt.x**3 + self.a * pt.x + self.b)) % q == 0

    def point(self, x: int, y: int) -> Point:
        """Validated affine point constructor."""
        pt = Point.affine(x % self.q, y % self.q)
        if not self.contains(pt):
            raise ValueError(f"({x}, {y}) is not on y^2 = x^3 + {self.a}x + {self.b} over F_{self.q}")
        return pt

    def negate(self, pt: Point) -> Point:
        if pt.is_identity:
            return pt
        return Point.affine(pt.x, -pt.y % self.q)

    def _add_xy(self, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int] | None:
        """Chord-tangent sum of two affine points given as residues in [0, q).

        Returns the affine sum as an (x, y) pair, or None for the identity.
        """
        q = self.field.p
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None
            slope = (3 * x1 * x1 + self.a) * pow(2 * y1, -1, q) % q
        else:
            slope = (y2 - y1) * pow(x2 - x1, -1, q) % q
        x3 = (slope * slope - x1 - x2) % q
        return x3, (slope * (x1 - x3) - y1) % q

    def add(self, lhs: Point, rhs: Point) -> Point:
        """Chord-tangent group law with identity (0 : 1 : 0)."""
        if lhs.is_identity:
            return rhs
        if rhs.is_identity:
            return lhs
        xy = self._add_xy(lhs.x, lhs.y, rhs.x, rhs.y)
        return Point.identity() if xy is None else Point.affine(*xy)

    def scalar_mul(self, k: int, pt: Point, memo: dict | None = None) -> Point:
        """k-fold sum, k >= 0, adding up one memo entry d * 2^(4i) * pt per nonzero 4-bit digit d of k.

        The memo maps a scalar d * 2^(4i), 0 < d < 16, to that multiple of pt
        as an affine (x, y) pair, or None for the identity.  Its powers of two
        are pt's doubling chain.  A missing entry is filled in by ``_window``,
        so a call on an empty memo makes as many group operations as
        double-and-add, and a warm one adds only its nonzero digits.  A caller
        that multiplies one base many times passes the same dict each time
        (empty at first, for that pt only).
        """
        if k < 0:
            raise ValueError("scalar must be non-negative; reduce mod the group order first")
        if pt.is_identity:
            return pt
        if memo is None:
            memo = {}
        add = self._add_xy
        acc = None
        for shift in range(0, k.bit_length(), _WINDOW_BITS):
            part = k & (_DIGIT_MASK << shift)
            if not part:
                continue
            step = memo[part] if part in memo else self._window(part, pt, memo)
            if step is not None:
                acc = step if acc is None else add(acc[0], acc[1], step[0], step[1])
        return Point.identity() if acc is None else Point.affine(*acc)

    def _window(self, part: int, pt: Point, memo: dict) -> tuple[int, int] | None:
        """part * pt for part = d * 2^(4i), 0 < d < 16, stored in the memo.

        The doubling chain is first extended up to part's top bit; once it
        reaches the identity, every later entry is the identity, got without
        doubling.  The chain entries of part's bits are then added from the
        lowest up, and each partial sum, itself a digit of the same window, is
        kept, so a digit met for the first time costs at most popcount(d) - 1
        additions.
        """
        add = self._add_xy
        if not memo:
            memo[1] = (pt.x, pt.y)
        top = 1 << (part.bit_length() - 1)
        known = top
        while known not in memo:
            known >>= 1
        entry = memo[known]
        while known < top:
            if entry is not None:
                entry = add(entry[0], entry[1], entry[0], entry[1])
            known <<= 1
            memo[known] = entry
        acc = None
        done = 0
        rest = part
        while rest:
            bit = rest & -rest
            rest ^= bit
            done |= bit
            if done in memo:
                acc = memo[done]
                continue
            step = memo[bit]
            if step is not None:
                acc = step if acc is None else add(acc[0], acc[1], step[0], step[1])
            memo[done] = acc
        return acc

    def group_order(self, max_field: int = DEFAULT_ENUMERATION_LIMIT) -> int:
        """Number of rational points including the identity, by exhaustive x-sweep.

        Counts square roots of the cubic via Euler's criterion.  Desk scale
        only; guarded by max_field.
        """
        q = self.q
        if q > max_field:
            raise BudgetExceededError(f"point counting limited to q <= {max_field}, got q = {q}")
        half = (q - 1) // 2
        count = 1
        for x in range(q):
            rhs = (x * x * x + self.a * x + self.b) % q
            if rhs == 0:
                count += 1
            elif pow(rhs, half, q) == 1:
                count += 2
        return count

    def points(self, max_field: int = DEFAULT_ENUMERATION_LIMIT) -> list[Point]:
        """All rational points (identity first), enumeration order fixed by x then y."""
        q = self.q
        if q > max_field:
            raise BudgetExceededError(f"point enumeration limited to q <= {max_field}, got q = {q}")
        return [Point.identity()] + [Point.affine(x, y) for x, y in self._affine_xy()]

    def _affine_xy(self):
        """Affine points as (x, y) pairs, x ascending and then y ascending.

        One pass builds the table of square roots, so the sweep is O(q).
        """
        q = self.q
        # root[s] is the smaller square root of s, or None for a non-residue.
        root: list[int | None] = [None] * q
        for y in range((q + 1) // 2):
            root[y * y % q] = y
        for x in range(q):
            y = root[(x * x * x + self.a * x + self.b) % q]
            if y is None:
                continue
            yield x, y
            if y:
                yield x, q - y


@dataclass(frozen=True)
class GroupSpec:
    """A curve, a generator, and the generator's prime order, validated together."""

    curve: Curve
    generator: Point
    order: int

    def __post_init__(self):
        if self.generator.is_identity:
            raise ValueError("generator must not be the identity")
        if not self.curve.contains(self.generator):
            raise ValueError("generator is not on the curve")
        if not is_prime(self.order):
            raise ValueError(f"group order {self.order} is not prime")
        # The generator's window memo, not a field: equality and hashing
        # ignore it.  The order check below builds its chain far enough for any r.
        object.__setattr__(self, "_memo", {})
        if not self.curve.scalar_mul(self.order, self.generator, self._memo).is_identity:
            raise ValueError(f"{self.order} * generator is not the identity")

    def scalar_mul(self, r: int) -> Point:
        return self.curve.scalar_mul(r % self.order, self.generator, self._memo)


def find_prime_order_curve(
    field: PrimeField,
    order_min: int,
    order_max: int,
    max_candidates: int | None = None,
) -> GroupSpec:
    """Deterministic (a, b) scan for the first nonsingular curve whose point
    count is prime and inside [order_min, order_max].

    The generator is the affine point with the smallest x, then smallest y.
    Any non-identity point generates a prime-order group.

    a = 0 and b = 0 are skipped and not counted against ``max_candidates``:
    they are the j-invariant 0 and 1728 families, whose orders take only a few
    values (every a = 0 curve has q + 1 points when q = 2 mod 3), so a scan
    through them can spend q point counts without a hit.

    A range that misses the Hasse interval q + 1 +- isqrt(4q) raises ValueError.
    """
    q = field.p
    hasse = [q + 1 - isqrt(4 * q), q + 1 + isqrt(4 * q)]
    if max(order_min, hasse[0]) > min(order_max, hasse[1]):
        raise ValueError(f"order range [{order_min}, {order_max}] misses the Hasse interval {hasse} for q = {q}")
    tried = 0
    for a in range(1, q):
        for b in range(1, q):
            if (4 * a**3 + 27 * b**2) % q == 0:
                continue
            tried += 1
            if max_candidates is not None and tried > max_candidates:
                raise BudgetExceededError(f"curve scan candidate cap {max_candidates} exceeded")
            curve = Curve(field, a, b)
            n = curve.group_order()
            if order_min <= n <= order_max and is_prime(n):
                gen = _first_affine_point(curve)
                return GroupSpec(curve, gen, n)
    raise BudgetExceededError(
        f"no curve over F_{q} with prime order in [{order_min}, {order_max}]"
    )


def _first_affine_point(curve: Curve) -> Point:
    for x, y in curve._affine_xy():
        return Point.affine(x, y)
    raise BudgetExceededError(f"curve over F_{curve.q} has no affine points")


def point_to_text(pt: Point) -> str:
    """Point text format: 'x y' for affine points, 'O' for the identity."""
    if pt.is_identity:
        return IDENTITY_TOKEN
    return f"{pt.x} {pt.y}"


def curve_to_text(curve: Curve) -> str:
    """Curve text format: 'q a b'."""
    return f"{curve.q} {curve.a} {curve.b}"
