"""Validated prime moduli for F_p and a deterministic primality test.

Field arithmetic itself is done on plain ints in [0, p) by the callers.
"""

from __future__ import annotations

from dataclasses import dataclass

_MAX_MODULUS_BITS = 64

# Witness set making Miller-Rabin deterministic for every n < 3.3 * 10**24,
# which covers all 64-bit inputs.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test (exact for 64-bit inputs)."""
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """A validated prime modulus p for F_p.

    Moduli are runtime values so one process can work over many fields.
    The modulus must fit in 64 bits; everything this package ships is desk
    scale and the contract leaves room for a big-integer backend.
    """

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int):
            raise ValueError(f"modulus must be an integer, got {type(self.p).__name__}")
        if self.p < 2:
            raise ValueError(f"modulus must be >= 2, got {self.p}")
        if self.p.bit_length() > _MAX_MODULUS_BITS:
            raise ValueError(f"modulus {self.p} exceeds the {_MAX_MODULUS_BITS}-bit desk-scale bound")
        if not is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

