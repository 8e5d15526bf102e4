"""Baby-step giant-step: an independent discrete-log oracle for ground truth.

Each group's baby steps are kept from call to call, as is usual when many
logarithms are taken in one group (Bernstein and Lange, "Computing small
discrete logarithms faster", INDOCRYPT 2012): the group's first call pays
for about sqrt(p) baby steps, every later call only for its giant steps.
The table is built by repeated addition of the generator, not from the
multiples a ``GroupSpec`` keeps for the attack, so the oracle shares no
cache with what it checks.  It is held weakly keyed by the group and goes
with it; equal groups share one table.
"""

from __future__ import annotations

from math import isqrt
from weakref import WeakKeyDictionary

from .curve import XY, GroupSpec
from .errors import BudgetExceededError

BSGS_ORDER_LIMIT = 1 << 32

# Per group: the baby steps {j * generator: j for 0 <= j < T}, T = isqrt(p - 1) + 1,
# and the giant step -T * generator.
_BABY_STEPS: WeakKeyDictionary[GroupSpec, tuple[dict[XY, int], XY]] = WeakKeyDictionary()


def _baby_steps(group: GroupSpec) -> tuple[dict[XY, int], XY]:
    """The group's baby-step table and giant step, built on its first call."""
    kept = _BABY_STEPS.get(group)
    if kept is not None:
        return kept
    curve = group.curve
    table: dict[XY, int] = {}
    walker = None
    for j in range(isqrt(group.order - 1) + 1):
        table.setdefault(walker, j)
        walker = curve.add(walker, group.generator)
    kept = _BABY_STEPS[group] = table, curve.negate(walker)
    return kept


def solve_bsgs(group: GroupSpec, target: XY, max_order: int = BSGS_ORDER_LIMIT) -> int:
    """Baby-step giant-step: the unique m in [0, p) with m * generator == target.

    Baby steps are keyed by the point itself, a pair or None, so lookups are exact.
    """
    p = group.order
    if p > max_order:
        raise BudgetExceededError(f"baby-step giant-step limited to order <= {max_order}")
    if not group.curve.contains(target):
        raise ValueError("target point is not on the curve")
    table, giant = _baby_steps(group)
    step_count = isqrt(p - 1) + 1
    add = group.curve.add
    current = target
    for i in range(step_count + 1):
        if current in table:
            return (i * step_count + table[current]) % p
        current = add(current, giant)
    raise ValueError("target is not in the group generated by the generator")
