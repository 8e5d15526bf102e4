"""Linear-scan discrete logarithm: the reference that cross-checks baby-step giant-step."""

from lvecdlp.curve import XY, GroupSpec
from lvecdlp.errors import BudgetExceededError

EXHAUSTIVE_ORDER_LIMIT = 100_000


def solve_exhaustive_dlp(group: GroupSpec, target: XY, max_order: int = EXHAUSTIVE_ORDER_LIMIT) -> int:
    """The least m in [0, p) with m * generator == target, by walking the multiples."""
    p = group.order
    if p > max_order:
        raise BudgetExceededError(f"exhaustive discrete log limited to order <= {max_order}")
    if not group.curve.contains(target):
        raise ValueError("target point is not on the curve")
    current = None
    for m in range(p):
        if current == target:
            return m
        current = group.curve.add(current, group.generator)
    raise ValueError("target is not in the group generated by the generator")
