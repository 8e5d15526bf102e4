"""End-to-end Las Vegas discrete-log attack.

Each iteration samples fresh multipliers, takes the left kernel of the
corresponding curve points' monomial matrix, hands it to a zero-pattern
solver, and decodes any qualifying vector into the logarithm.  At n' = 1
it first tests whether three of its points lie on a line, and when none
do it skips the accident check, the kernel and the solver, which could find
nothing: two equal points would be on a line with any third.
Every decoded answer is verified against the target before being returned,
so the attack can fail to answer but can never answer wrongly.

Row layout per iteration: 3n' - 1 points, so rows, from multiples of the
generator, then l + 1 from multiples of the negated target (one more
generator row than target rows, so a full-support block is always mixed).  Multipliers are
distinct within each block; a cross-block point collision is an "accident"
that immediately yields the logarithm and is reported separately.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import count
from math import ceil, comb
from typing import Callable, Iterator, Optional

from .analysis import per_iteration_success, success_model
from .curve import XY, FixedBaseTable, GroupSpec
from .errors import InvariantViolationError
from .linalg import left_kernel
from .problem_l import DEFAULT_ENUMERATION_BUDGET, in_general_position, solve_alg2, solve_exhaustive
from .veronese import MonomialBasis, basis

SOLVER_ALG2 = "alg2"
SOLVER_EXHAUSTIVE = "exhaustive"
SOLVER_CHOICES = (SOLVER_ALG2, SOLVER_EXHAUSTIVE)

REJECT_SUPPORT_SIZE = "support-size"
REJECT_MISSING_BLOCK = "missing-block"
REJECT_ZERO_DENOMINATOR = "zero-denominator"
REJECT_NOT_FOUND = "not-found"
REJECT_UNVERIFIED = "unverified"

FAILURE_BUDGET = "iteration-budget-exhausted"


@dataclass(frozen=True)
class AttackConfig:
    """The settings of one attack run, an immutable value.

    ``l`` defaults to 3 * n_prime and ``max_iterations`` to a budget sized
    from the success model.  Both are resolved once, at construction, as is
    the table of -target that sampling multiplies it from, so every
    iteration of a run uses the same settings.  Assigning a field raises
    ``dataclasses.FrozenInstanceError``; other settings mean a new config.
    """

    group: GroupSpec
    target: XY
    n_prime: int = 1
    l: Optional[int] = None
    solver: str = SOLVER_EXHAUSTIVE
    max_iterations: Optional[int] = None
    seed: int = 0
    accident_check: bool = True
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET

    def __post_init__(self):
        if self.n_prime < 1:
            raise ValueError("n_prime must be >= 1")
        if self.l is None:
            object.__setattr__(self, "l", 3 * self.n_prime)
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.solver not in SOLVER_CHOICES:
            raise ValueError(f"solver must be one of {SOLVER_CHOICES}, got {self.solver!r}")
        p = self.group.order
        if 3 * self.n_prime + self.l > p - 1:
            raise ValueError(
                f"need 3n' + l <= p - 1 distinct multipliers, got {3 * self.n_prime + self.l} > {p - 1}"
            )
        if not self.group.curve.contains(self.target):
            raise ValueError("target point is not on the curve")
        if self.max_iterations is None:
            object.__setattr__(self, "max_iterations", default_max_iterations(p, self.n_prime, self.l, self.solver))
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.enumeration_budget < 1:
            raise ValueError("enumeration_budget must be >= 1")
        # The table of -target, not a field: equality and hashing ignore it.
        neg_target = self.group.curve.negate(self.target)
        object.__setattr__(self, "_neg_target_table", FixedBaseTable(self.group.curve, neg_target, p))

    @property
    def monomials(self) -> MonomialBasis:
        """The matrix's columns: the degree-n' monomials of x-degree at most 2."""
        return curve_monomials(self.n_prime)

    def neg_target_mul(self, r: int) -> XY:
        """r * (-target) for 0 <= r <= order, from the table of -target this config keeps."""
        return self._neg_target_table.multiple(r)


@cache
def curve_monomials(degree: int) -> MonomialBasis:
    """The degree-n monomials of x-degree at most 2, in the fixed order, built once per degree.

    On y^2 z = x^3 + a x z^2 + b z^3 a monomial x^i y^j z^k with i >= 3 takes
    the values of x^(i-3) y^(j+2) z^(k+1) - a x^(i-2) y^j z^(k+2) - b x^(i-3) y^j z^(k+3)
    at every point, the identity included, so its column is a combination of
    columns of lower x-degree.  Dropping those columns leaves the left kernel
    of a curve points' matrix, and so every vector and pivot, as it is: 10 to
    9 columns at n' = 3, 15 to 12 at n' = 4, none fewer at n' <= 2.
    """
    return MonomialBasis(degree, tuple(e for e in basis(degree).exponents if e[0] <= 2))


def default_max_iterations(p: int, n_prime: int, l: int, solver: str) -> int:
    """Budget sized so a default run succeeds with high probability (~1 - e^-10).

    The rate counts only the zero sets that can decode: of the C(3n' + l, l)
    l-sets, the C(l + 1, 3n') whose 3n' points outside lie all in the target
    block leave a vector that ``decode_solution`` rejects (``missing-block``).
    alg2 is then scaled by the model's l^2 / C.
    """
    decodable = comb(3 * n_prime + l, l) - comb(l + 1, 3 * n_prime)
    predicted = per_iteration_success(p, decodable)
    if solver == SOLVER_ALG2:
        predicted *= float(success_model(p, n_prime, l).alg2_conditional)
    predicted = max(predicted, 1e-12)
    return max(1, ceil(10.0 / predicted))


@dataclass(frozen=True)
class IterationSample:
    """One iteration's multipliers and points.

    The points are r * generator for the r of ``multipliers_p`` and then
    r * (-target) for the r of ``multipliers_q``; point i gives row i of the
    matrix whose left kernel the iteration searches.
    """

    index: int
    multipliers_p: tuple[int, ...]
    multipliers_q: tuple[int, ...]
    points: tuple[XY, ...]


@dataclass
class IterationRecord:
    """Per-iteration log entry; solution vectors use the fixed monomial-row ordering."""

    iteration: int
    multipliers_p: tuple[int, ...] = ()
    multipliers_q: tuple[int, ...] = ()
    accident: Optional[tuple[int, int]] = None
    kernel_dim: Optional[int] = None
    found_by: Optional[str] = None
    reject_reasons: list[str] = field(default_factory=list)
    solution_vector: Optional[tuple[int, ...]] = None
    m: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AttackOutcome:
    m: Optional[int]
    iterations_used: int
    records: list[IterationRecord]
    accident: Optional[tuple[int, int]] = None
    failure_reason: Optional[str] = None

    @property
    def succeeded(self) -> bool:
        return self.m is not None


def iteration_rng(seed: int, index: int) -> random.Random:
    """Named substream per (seed, iteration): reproducible regardless of scheduling."""
    return random.Random(f"{seed}:{index}")


def _distinct_multipliers(rng: random.Random, count: int, p: int) -> list[int]:
    """count distinct values drawn from 1..p-1; ValueError if there are fewer.

    Each draw is ``rng.randrange(1, p)``, made by its own rejection rule:
    getrandbits of the bit length of p - 1 until the value is below p - 1.
    """
    if count > p - 1:
        raise ValueError(f"need {count} distinct multipliers, but 1..{p - 1} holds only {p - 1}")
    getrandbits = rng.getrandbits
    width = p - 1
    bits = width.bit_length()
    chosen: list[int] = []
    seen: set[int] = set()
    while len(chosen) < count:
        r = getrandbits(bits)
        if r >= width or r in seen:
            continue
        seen.add(r)
        chosen.append(r + 1)
    return chosen


def sample_iteration(cfg: AttackConfig, index: int) -> IterationSample:
    """Sample I and J (distinct within themselves) and their points.

    Generator multiples come first, then multiples of -target, matching
    the decode layout.  The multiples come from the generator's and
    -target's tables.
    Cross-block collisions are not resampled here; they are the accidents
    handled by detect_accident.
    """
    rng = iteration_rng(cfg.seed, index)
    p = cfg.group.order
    mult_p = _distinct_multipliers(rng, 3 * cfg.n_prime - 1, p)
    mult_q = _distinct_multipliers(rng, cfg.l + 1, p)
    points = (*map(cfg.group.scalar_mul, mult_p), *map(cfg.neg_target_mul, mult_q))
    return IterationSample(index, tuple(mult_p), tuple(mult_q), points)


def detect_accident(sample: IterationSample) -> Optional[tuple[int, int]]:
    """Cross-block point collision r * P == r' * (-Q), reported as (r, r').

    Each point has one value, so the collision is found by comparing the
    points of the two blocks.  It makes two matrix rows identical and
    directly reveals the logarithm as -r * r'^-1 mod p.
    """
    n_p = len(sample.multipliers_p)
    q_index = dict(zip(sample.points[n_p:], sample.multipliers_q))
    for r, pt in zip(sample.multipliers_p, sample.points):
        if pt in q_index:
            return r, q_index[pt]
    return None


def accident_logarithm(r: int, r_prime: int, p: int) -> int:
    return -r * pow(r_prime, -1, p) % p


def decode_solution(
    vector: tuple[int, ...],
    multipliers_p: tuple[int, ...],
    multipliers_q: tuple[int, ...],
    order: int,
) -> tuple[Optional[int], Optional[str]]:
    """Decode a kernel vector into the logarithm, or reject with a reason.

    Accepted vectors have support of size exactly 3n' (the case where the
    interpolation argument pins the point sum), touch both blocks, and have a
    nonzero target-block multiplier sum.  Returns sum(I over support) times
    the inverse of sum(J over support) mod the group order.
    """
    n_p = len(multipliers_p)
    if len(vector) != n_p + len(multipliers_q):
        raise ValueError("vector length does not match the multiplier layout")
    support = [i for i, v in enumerate(vector) if v]
    if len(support) != n_p + 1:
        return None, REJECT_SUPPORT_SIZE
    p_part = [i for i in support if i < n_p]
    q_part = [i - n_p for i in support if i >= n_p]
    if not p_part or not q_part:
        return None, REJECT_MISSING_BLOCK
    a = sum(multipliers_p[i] for i in p_part) % order
    b = sum(multipliers_q[j] for j in q_part) % order
    if b == 0:
        return None, REJECT_ZERO_DENOMINATOR
    return a * pow(b, -1, order) % order, None


def _verified(cfg: AttackConfig, m: int) -> bool:
    return cfg.group.scalar_mul(m) == cfg.target


def execute_iteration(cfg: AttackConfig, index: int) -> IterationRecord:
    """Run one iteration with cfg.solver; record.m is set only after verification.

    alg2's one vector is decoded; the exhaustive scan stops at the first vector
    that decodes.  A decoded m that fails verification rejects its vector with
    reason "unverified".  A miss records the one reason "{solver}:{reason}".

    At n' = 1, when the C(3 + l, l) sets fit the enumeration budget, the
    points are tested first, ahead of the accident check: with no three on
    a line (no maximal minor of their matrix zero), no two points are equal,
    so there is no accident, and no l-set is singular, so the iteration
    records kernel dimension l and "{solver}:not-found" without looking for
    an accident, taking the kernel or calling the solver.  Records are the
    same as with the accident check first.
    """
    sample = sample_iteration(cfg, index)
    record = IterationRecord(
        iteration=index,
        multipliers_p=sample.multipliers_p,
        multipliers_q=sample.multipliers_q,
    )
    p = cfg.group.order
    q = cfg.group.curve.q
    # With no three points on a line, no maximal minor of the points' matrix
    # is zero, no l-set is singular and either solver would find nothing
    # (see problem_l).  The test's C(3 + l, 3) determinants are as many as
    # the scan's sets, so the budget that bounds those bounds it.  Two equal
    # points are on a line with any third, so there is no accident either.
    if (
        cfg.n_prime == 1
        and comb(len(sample.points), cfg.l) <= cfg.enumeration_budget
        and in_general_position(sample.points, q)
    ):
        record.kernel_dim = cfg.l
        record.reject_reasons.append(f"{cfg.solver}:{REJECT_NOT_FOUND}")
        return record
    if cfg.accident_check:
        accident = detect_accident(sample)
        if accident is not None:
            m = accident_logarithm(accident[0], accident[1], p)
            if not _verified(cfg, m):
                raise InvariantViolationError(f"accident logarithm m = {m} failed verification against the target")
            record.accident = accident
            record.found_by = "accident"
            record.m = m
            return record
    kernel = left_kernel(cfg.monomials, sample.points, q)
    record.kernel_dim = kernel.dim
    if kernel.dim == 0:
        record.reject_reasons.append(REJECT_NOT_FOUND)
        return record

    m: Optional[int] = None

    def decode(vec: tuple[int, ...]) -> Optional[str]:
        """Set m to vec's verified logarithm and return None, or return why vec is rejected."""
        nonlocal m
        m, reason = decode_solution(vec, sample.multipliers_p, sample.multipliers_q, p)
        if m is not None and not _verified(cfg, m):
            m, reason = None, REJECT_UNVERIFIED
        return reason

    if cfg.solver == SOLVER_ALG2:
        vector = solve_alg2(kernel.vectors, cfg.l, kernel.p)
        reason = REJECT_NOT_FOUND if vector is None else decode(vector)
    else:
        vector = solve_exhaustive(kernel, cfg.l, accept=lambda vec: decode(vec) is None, budget=cfg.enumeration_budget)
        reason = REJECT_NOT_FOUND if vector is None else None
    if reason is None:
        record.found_by = cfg.solver
        record.solution_vector = vector
        record.m = m
    else:
        record.reject_reasons.append(f"{cfg.solver}:{reason}")
    return record


def run_attack(cfg: AttackConfig, on_record: Optional[Callable[[IterationRecord], None]] = None) -> AttackOutcome:
    """Repeat iterations until a verified logarithm is found or the budget runs out.

    The output is never wrong, only possibly absent: a returned m always
    satisfies m * generator == target.
    """
    if cfg.target is None:
        return AttackOutcome(m=0, iterations_used=0, records=[])
    records: list[IterationRecord] = []
    for index in range(1, cfg.max_iterations + 1):
        record = execute_iteration(cfg, index)
        records.append(record)
        if on_record is not None:
            on_record(record)
        if record.m is not None:
            return AttackOutcome(
                m=record.m,
                iterations_used=index,
                records=records,
                accident=record.accident,
            )
    return AttackOutcome(
        m=None,
        iterations_used=cfg.max_iterations,
        records=records,
        failure_reason=FAILURE_BUDGET,
    )


@dataclass(frozen=True)
class Trial:
    """One independent single-iteration trial on a planted target m * generator."""

    index: int
    m: int
    cfg: AttackConfig
    record: IterationRecord


def planted_trials(
    group: GroupSpec,
    *,
    seed: int,
    fixed_m: Optional[int] = None,
    n_prime: int = 1,
    l: Optional[int] = None,
    solver: str = SOLVER_EXHAUSTIVE,
    accident_check: bool = False,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> Iterator[Trial]:
    """Endless stream of independent trials 1, 2, ...; take a prefix with islice.

    Trial t plants m, drawn from the named substream "{seed}:m:{t}" or given
    as fixed_m (yielded as given, unreduced), and runs iteration t of a
    single-iteration attack on m * generator.  A recovered logarithm that
    differs from the planted one raises InvariantViolationError.  A fixed_m
    that is a multiple of the order plants the identity, which no iteration
    can recover, and raises ValueError.
    """
    p = group.order
    if fixed_m is not None and fixed_m % p == 0:
        raise ValueError(f"fixed m = {fixed_m} is a multiple of the group order {p}")
    for index in count(1):
        m = fixed_m if fixed_m is not None else random.Random(f"{seed}:m:{index}").randrange(1, p)
        cfg = AttackConfig(
            group=group,
            target=group.scalar_mul(m),
            n_prime=n_prime,
            l=l,
            solver=solver,
            max_iterations=1,
            seed=seed,
            accident_check=accident_check,
            enumeration_budget=enumeration_budget,
        )
        record = execute_iteration(cfg, index)
        if record.m is not None and record.m != m % p:
            raise InvariantViolationError(f"trial {index}: recovered {record.m} but planted {m % p}")
        yield Trial(index, m, cfg, record)
