"""Baby-step giant-step: an independent discrete-log oracle for ground truth."""

from __future__ import annotations

from math import isqrt

from .curve import XY, GroupSpec
from .errors import BudgetExceededError

BSGS_ORDER_LIMIT = 1 << 32


def solve_bsgs(group: GroupSpec, target: XY, max_order: int = BSGS_ORDER_LIMIT) -> int:
    """Baby-step giant-step: the unique m in [0, p) with m * generator == target.

    Baby steps are keyed by the point itself, a pair or None, so lookups are exact.
    """
    p = group.order
    if p > max_order:
        raise BudgetExceededError(f"baby-step giant-step limited to order <= {max_order}")
    if not group.curve.contains(target):
        raise ValueError("target point is not on the curve")
    step_count = isqrt(p - 1) + 1
    curve = group.curve
    table: dict[XY, int] = {}
    walker = None
    for j in range(step_count):
        table.setdefault(walker, j)
        walker = curve.add(walker, group.generator)
    giant = curve.negate(group.scalar_mul(step_count))
    current = target
    for i in range(step_count + 1):
        if current in table:
            return (i * step_count + table[current]) % p
        current = curve.add(current, giant)
    raise ValueError("target is not in the group generated by the generator")
