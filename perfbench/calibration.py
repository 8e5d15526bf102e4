"""A fixed pure-Python kernel that measures how fast the machine runs right now.

The benchmark shares its machine with other tenants, and back-to-back runs
of identical work have differed by a third in wall time.  The loop runs this
kernel between operations; its mean time, against the time it takes on the
reference machine, gives a speed factor, and every reported time is scaled
by it.  A change to lvecdlp cannot move the kernel, because it imports
nothing from the package: it is a frozen copy of the same kinds of work
(frozen-dataclass field elements, affine point arithmetic, modular row
elimination), so contention slows it about as much as it slows the attack.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# Kernel time on the reference machine (2 vCPU, Python 3.11.7, quiet period).
REFERENCE_MS = 2.1

_Q, _A, _B = 853, 1, 348
_GENERATOR = (1, 297)
_SCALARS = (905, 611, 347, 123, 777, 58, 499, 840)


@dataclass(frozen=True)
class _Elem:
    value: int

    def __add__(self, other: _Elem) -> _Elem:
        return _Elem((self.value + other.value) % _Q)

    def __sub__(self, other: _Elem) -> _Elem:
        return _Elem((self.value - other.value) % _Q)

    def __mul__(self, other: _Elem) -> _Elem:
        return _Elem(self.value * other.value % _Q)

    def __truediv__(self, other: _Elem) -> _Elem:
        return _Elem(self.value * pow(other.value, -1, _Q) % _Q)


def _add(lhs, rhs):
    if lhs is None:
        return rhs
    if rhs is None:
        return lhs
    x1, y1, x2, y2 = _Elem(lhs[0]), _Elem(lhs[1]), _Elem(rhs[0]), _Elem(rhs[1])
    if x1 == x2 and (y1 + y2).value == 0:
        return None
    if lhs == rhs:
        slope = (_Elem(3) * x1 * x1 + _Elem(_A)) / (_Elem(2) * y1)
    else:
        slope = (y2 - y1) / (x2 - x1)
    x3 = slope * slope - x1 - x2
    return (x3.value, (slope * (x1 - x3) - y1).value)


def _scalar_mul(k: int, point):
    acc, step = None, point
    while k:
        if k & 1:
            acc = _add(acc, step)
        step = _add(step, step)
        k >>= 1
    return acc


def _rank(rows: list[list[int]]) -> int:
    work = [row[:] for row in rows]
    rank = 0
    for c in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][c]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], -1, _Q)
        for r in range(rank + 1, len(work)):
            factor = work[r][c] * inv % _Q
            if factor:
                work[r] = [(a - factor * b) % _Q for a, b in zip(work[r], work[rank])]
        rank += 1
    return rank


def kernel() -> int:
    """Fixed work: eight scalar multiplications, then the rank of the 8x6 monomial matrix of the points."""
    points = [_scalar_mul(k, _GENERATOR) for k in _SCALARS]
    rows = [[x * x % _Q, x * y % _Q, x, y * y % _Q, y, 1] for x, y in points]
    return sum(_rank(rows[i:] + rows[:i]) for i in range(len(rows)))


def sample() -> float:
    """Wall time of one kernel call, in ms."""
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1000
