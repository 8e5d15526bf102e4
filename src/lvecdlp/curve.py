"""Short-Weierstrass elliptic curve groups over prime fields, desk scale.

Curves are y^2 z = x^3 + a x z^2 + b z^3 over F_q with q >= 5.  A point is
a plain value: an affine (x, y) pair of ints in [0, q), standing for
(x : y : 1), or None for the identity (0 : 1 : 0).  Each point has exactly
one such value, so equal points compare equal and monomial rows built from
them are unique per point.

A curve's points are enumerated one way, by a sweep over x that reads a
table of square roots mod q; ``points``, ``group_order`` and the fixture
search's generator all come from it, for q <= ``DEFAULT_ENUMERATION_LIMIT``.

The group law reads each chord or tangent slope's inverse from one table
per field, ``_inverses(q)``: the q inverses mod q, built by a linear
recurrence and shared by every curve over the field, for
q <= ``INVERSE_TABLE_LIMIT`` = 2^16, and ``pow(x, -1, q)`` behind the same
subscript above it.

Scalar multiplication has one scheme, the ``FixedBaseTable`` of a base:
with w = ceil(bitlen(bound) / 2), r * base is lo[r mod 2^w] + hi[r >> w],
two entries filled in lazily from the base's doubling chain, so a multiple
whose entries are present costs one group addition (fixed-base
precomputation: Brickell, Gordon, McCurley and Wilson, "Fast exponentiation
with precomputation", EUROCRYPT '92; two digits per multiplier as in Lim
and Lee, "More flexible exponentiation with precomputation", CRYPTO '94).
A base multiplied many times keeps its table: ``GroupSpec`` keeps the
generator's, and the attack's ``AttackConfig`` keeps the one of -target.
``GroupSpec`` also keeps the first ``KEPT_MULTIPLES`` whole multiples of the
generator it returns, since the attack draws its generator multipliers
from [1, order) and on a small group meets the same ones again; a kept
multiple is one dict lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

from .errors import BudgetExceededError
from .field import PrimeField, is_prime

DEFAULT_ENUMERATION_LIMIT = 1 << 20

# Fields up to this size tabulate their inverses: at most 2.3 MiB and about
# 10 ms to build (q = 65,521); larger ones call pow per inverse.
INVERSE_TABLE_LIMIT = 1 << 16

IDENTITY_TOKEN = "O"

# Whole multiples of its generator a GroupSpec keeps: every one of a group of
# order up to 4,097, and about 0.75 MiB of pairs at most on a larger one.
KEPT_MULTIPLES = 1 << 12

# A point: an affine (x, y) pair of residues in [0, q), or None for the identity.
XY = tuple[int, int] | None


@dataclass(frozen=True)
class Curve:
    """Nonsingular short-Weierstrass curve over a prime field with q >= 5.

    ``add`` is the group law; multiples of a point come from its
    ``FixedBaseTable``.  ``points`` and ``group_order`` read one sweep of
    the affine points.  The field's ``_inverses`` table is held as ``_inv``,
    not a field: equality and hashing ignore it.
    """

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
        object.__setattr__(self, "_inv", _inverses(q))

    @property
    def q(self) -> int:
        return self.field.p

    def contains(self, pt: XY) -> bool:
        """Whether pt is a point of the curve: None, or a pair of residues in [0, q) on it."""
        if pt is None:
            return True
        x, y = pt
        q = self.q
        return 0 <= x < q and 0 <= y < q and (y * y - (x**3 + self.a * x + self.b)) % q == 0

    def point(self, x: int, y: int) -> tuple[int, int]:
        """Validated affine point constructor; the coordinates are reduced mod q first."""
        pt = (x % self.q, y % self.q)
        if not self.contains(pt):
            raise ValueError(f"({x}, {y}) is not on y^2 = x^3 + {self.a}x + {self.b} over F_{self.q}")
        return pt

    def negate(self, pt: XY) -> XY:
        if pt is None:
            return None
        x, y = pt
        return x, -y % self.q

    def add(self, lhs: XY, rhs: XY) -> XY:
        """Chord-tangent group law on points of the curve.

        The slope's inverse is read from the field's ``_inverses`` table
        (``pow`` above ``INVERSE_TABLE_LIMIT`` = 2^16); its index is never 0,
        since a chord's x values differ and a tangent here has y != 0.
        """
        if lhs is None:
            return rhs
        if rhs is None:
            return lhs
        x1, y1 = lhs
        x2, y2 = rhs
        q = self.field.p
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None
            slope = (3 * x1 * x1 + self.a) * self._inv[2 * y1 % q] % q
        else:
            slope = (y2 - y1) * self._inv[x2 - x1] % q
        x3 = (slope * slope - x1 - x2) % q
        return x3, (slope * (x1 - x3) - y1) % q

    def group_order(self) -> int:
        """Number of rational points, the identity included."""
        return 1 + sum(1 for _ in self._affine_xy())

    def points(self) -> list[XY]:
        """All rational points (identity first), enumeration order fixed by x then y."""
        return [None, *self._affine_xy()]

    def _affine_xy(self):
        """Affine points as (x, y) pairs, x ascending and then y ascending.

        One pass builds the table of square roots, so the sweep is O(q);
        desk scale only, guarded at q <= ``DEFAULT_ENUMERATION_LIMIT``.
        """
        q = self.q
        if q > DEFAULT_ENUMERATION_LIMIT:
            raise BudgetExceededError(f"point enumeration limited to q <= {DEFAULT_ENUMERATION_LIMIT}, got q = {q}")
        root = _square_roots(q)
        for x in range(q):
            y = root[(x * x * x + self.a * x + self.b) % q]
            if y is None:
                continue
            yield x, y
            if y:
                yield x, q - y


@lru_cache(maxsize=1)
def _square_roots(q: int) -> tuple[int | None, ...]:
    """root[s], the smaller square root of s mod q, or None for a non-residue.

    Only the last q's table is kept: the fixture search counts the points of
    many curves over one field, and each count reads it once."""
    root: list[int | None] = [None] * q
    for y in range((q + 1) // 2):
        root[y * y % q] = y
    return tuple(root)


class _PowInverses:
    """inv[x] = x^-1 mod q by ``pow``, for fields too large to tabulate;
    inv[0] raises ValueError."""

    __slots__ = ("q",)

    def __init__(self, q: int):
        self.q = q

    def __getitem__(self, x: int) -> int:
        return pow(x, -1, self.q)


@lru_cache(maxsize=1)
def _inverses(q: int) -> tuple[int | None, ...] | _PowInverses:
    """inv[x] = x^-1 mod q for 0 < |x| < q: a chord's x difference is read
    as it is, a negative index being its residue mod q.

    For q <= ``INVERSE_TABLE_LIMIT`` a tuple built by the recurrence
    inv[i] = -(q // i) * inv[q mod i] mod q (from q = (q // i) * i + q mod i),
    whose entry 0 is None and fails on use; above it, a ``_PowInverses``.
    Only the last q's is kept, as for ``_square_roots``; each curve holds
    its own field's."""
    if q > INVERSE_TABLE_LIMIT:
        return _PowInverses(q)
    inv: list[int | None] = [None, 1] + [0] * (q - 2)
    for i in range(2, q):
        inv[i] = -(q // i) * inv[q % i] % q
    return tuple(inv)


class FixedBaseTable:
    """Multiples r * base for 0 <= r <= bound, each from two table entries.

    With w = ceil(bitlen(bound) / 2), r * base = lo[r mod 2^w] + hi[r >> w],
    where lo[d] = d * base and hi[e] = e * 2^w * base (the two-digit case of
    Lim and Lee's fixed-base combing).  Both tables are dicts filled lazily,
    so nothing proportional to 2^w is allocated until it is asked for, and
    each entry is made by one group operation from entries already present:
    a power of two doubles the one below it, hi[1] doubles lo[2^(w - 1)],
    and any other index adds its top bit's entry to the entry of the bits
    below it, so its partial sums from the lowest bit up are kept too.  A
    multiple whose two entries are present costs one addition, inlined on
    ints, and none when a digit is 0.  An entry whose index is a multiple of
    the base's order is the identity.  Fills and the inlined addition read
    their slope inverses from the curve's ``_inverses`` table, as
    ``Curve.add`` does (``pow`` above ``INVERSE_TABLE_LIMIT`` = 2^16).
    """

    __slots__ = ("curve", "bound", "_q", "_a", "_inv", "_w", "_mask", "_lo", "_hi")

    def __init__(self, curve: Curve, base: XY, bound: int):
        w = max(1, -(-bound.bit_length() // 2))
        self.curve = curve
        self.bound = bound
        self._q = curve.field.p
        self._a = curve.a
        self._inv = curve._inv
        self._w = w
        self._mask = (1 << w) - 1
        self._lo: dict[int, XY] = {0: None, 1: base}
        self._hi: dict[int, XY] = {0: None}

    def multiple(self, r: int) -> XY:
        """r * base, for 0 <= r <= bound."""
        if not 0 <= r <= self.bound:
            raise ValueError(f"scalar {r} is outside [0, {self.bound}]; reduce mod the group order first")
        lo, hi = self._lo, self._hi
        d, e = r & self._mask, r >> self._w
        try:
            lhs = lo[d]
        except KeyError:
            lhs = self._fill(lo, d)
        try:
            rhs = hi[e]
        except KeyError:
            rhs = self._fill(hi, e)
        if lhs is None:
            return rhs
        if rhs is None:
            return lhs
        # Curve.add, inlined: this runs for every sampled multiple.
        x1, y1 = lhs
        x2, y2 = rhs
        q = self._q
        if x1 == x2:
            if (y1 + y2) % q == 0:
                return None
            slope = (3 * x1 * x1 + self._a) * self._inv[2 * y1 % q] % q
        else:
            slope = (y2 - y1) * self._inv[x2 - x1] % q
        x3 = (slope * slope - x1 - x2) % q
        return x3, (slope * (x1 - x3) - y1) % q

    def _fill(self, entries: dict[int, XY], k: int) -> XY:
        """entries[k] for k > 0, entries being lo or hi, filled in with what it needs."""
        if k in entries:
            return entries[k]
        top = 1 << (k.bit_length() - 1)
        if k != top:
            entry = self.curve.add(self._fill(entries, k ^ top), self._fill(entries, top))
        else:
            half = self._fill(entries, top >> 1) if top > 1 else self._fill(self._lo, 1 << (self._w - 1))
            entry = self.curve.add(half, half)
        entries[k] = entry
        return entry


@dataclass(frozen=True)
class GroupSpec:
    """A curve, a generator, and the generator's prime order, validated together.

    The generator's ``FixedBaseTable``, bounded by the order, gives its
    multiples; the order check reads order * generator from it.
    """

    curve: Curve
    generator: tuple[int, int]
    order: int

    def __post_init__(self):
        if self.generator is None:
            raise ValueError("generator must not be the identity")
        if not self.curve.contains(self.generator):
            raise ValueError("generator is not on the curve")
        if not is_prime(self.order):
            raise ValueError(f"group order {self.order} is not prime")
        # The generator's table and its kept whole multiples, not fields:
        # equality and hashing ignore them.
        object.__setattr__(self, "_table", FixedBaseTable(self.curve, self.generator, self.order))
        object.__setattr__(self, "_multiples", {})
        if self._table.multiple(self.order) is not None:
            raise ValueError(f"{self.order} * generator is not the identity")

    def scalar_mul(self, r: int) -> XY:
        """r * generator.

        The first ``KEPT_MULTIPLES`` distinct r mod order asked for are kept,
        so asking again is one lookup; later ones are computed each time.
        """
        r %= self.order
        multiples = self._multiples
        if r in multiples:
            return multiples[r]
        pt = self._table.multiple(r)
        if len(multiples) < KEPT_MULTIPLES:
            multiples[r] = pt
        return pt


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
                return GroupSpec(curve, next(curve._affine_xy()), n)
    raise BudgetExceededError(
        f"no curve over F_{q} with prime order in [{order_min}, {order_max}]"
    )


def point_to_text(pt: XY) -> str:
    """Point text format: 'x y' for affine points, 'O' for the identity."""
    if pt is None:
        return IDENTITY_TOKEN
    return f"{pt[0]} {pt[1]}"


def curve_to_text(curve: Curve) -> str:
    """Curve text format: 'q a b'."""
    return f"{curve.q} {curve.a} {curve.b}"
