"""Baby-step giant-step: an independent discrete-log oracle for ground truth.

Each group's baby steps are kept from call to call, as is usual when many
logarithms are taken in one group (Bernstein and Lange, "Computing small
discrete logarithms faster", INDOCRYPT 2012): the group's first call pays
for about sqrt(p) baby steps, every later call only for its giant steps.
The baby steps use the negation map (Galbraith, *Mathematics of Public Key
Cryptography*, CUP 2012, ch. 13-14): j * G and -j * G share their x, so one
entry keyed by x covers both and the giant stride is 2T - 1 rather than T,
which halves the giant steps per logarithm.
The table is built by repeated addition of the generator, not from the
multiples a ``GroupSpec`` keeps for the attack, so the oracle shares no
cache with what it checks.  It is held weakly keyed by the group and goes
with it; equal groups share one table.
Each baby and giant step is one ``Curve.add``, whose slope inverse is read
from the field's table of inverses (``curve._inverses``: tabulated for
q <= 2^16, ``pow`` above); that table depends only on q, and the attack
reads the same one.
"""

from __future__ import annotations

from math import isqrt
from weakref import WeakKeyDictionary

from .curve import XY, GroupSpec
from .errors import BudgetExceededError

BSGS_ORDER_LIMIT = 1 << 32

# Per group: the baby steps {x(j * generator): (j, y(j * generator)) for 0 < j < T},
# T = isqrt(p - 1) + 1, and the giant step -(2T - 1) * generator.  The x values are
# distinct: j + j' <= 2T - 3 < p for 0 < j < j' < T, so j * G != +-j' * G.
_BABY_STEPS: WeakKeyDictionary[GroupSpec, tuple[dict[int, tuple[int, int]], XY]] = WeakKeyDictionary()


def _baby_steps(group: GroupSpec) -> tuple[dict[int, tuple[int, int]], XY]:
    """The group's baby-step table and giant step, built on its first call."""
    kept = _BABY_STEPS.get(group)
    if kept is not None:
        return kept
    curve = group.curve
    table: dict[int, tuple[int, int]] = {}
    walker = group.generator
    for j in range(1, isqrt(group.order - 1) + 1):
        x, y = walker
        table[x] = j, y
        previous, walker = walker, curve.add(walker, group.generator)
    # walker is T * G and previous (T - 1) * G.
    kept = _BABY_STEPS[group] = table, curve.negate(curve.add(walker, previous))
    return kept


def solve_bsgs(group: GroupSpec, target: XY) -> int:
    """Baby-step giant-step: the unique m in [0, p) with m * generator == target.

    Walks target - i(2T - 1) * generator, T = isqrt(p - 1) + 1, looking each
    point's x up among the baby steps j * generator, 0 < j < T: an x hit is
    +-j * generator, told apart by y, so the answer is i(2T - 1) +- j mod p,
    and the identity gives i(2T - 1).  The walk covers every m in
    [0, p) after at most ceil(p / (2T - 1)) - 1 giant steps.
    """
    p = group.order
    if p > BSGS_ORDER_LIMIT:
        raise BudgetExceededError(f"baby-step giant-step limited to order <= {BSGS_ORDER_LIMIT}")
    if not group.curve.contains(target):
        raise ValueError("target point is not on the curve")
    table, giant = _baby_steps(group)
    add = group.curve.add
    stride = 2 * isqrt(p - 1) + 1  # 2T - 1
    current = target
    for offset in range(0, p, stride):
        if current is None:
            return offset
        x, y = current
        hit = table.get(x)
        if hit is not None:
            j, baby_y = hit
            return (offset + j if y == baby_y else offset - j) % p
        current = add(current, giant)
    raise ValueError("target is not in the group generated by the generator")
