"""Counting and probability layer: partition counts, success model, parameter choice.

The closed-form partition count is implemented exactly as stated and then
audited against an exhaustive counter; the two disagree on small cases and
the closed form even fails to be an integer for some (p, k), so every
downstream probability statement routes through the exhaustive counter and
through direct Monte Carlo instead of the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import BudgetExceededError
from .field import is_prime

DEFAULT_ORACLE_BUDGET = 5_000_000


def _validate_partition_args(p: int, k: int) -> None:
    if k <= 2:
        raise ValueError(f"k must be > 2, got {k}")
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if k >= p:
        raise ValueError(f"k must be < p, got k = {k}, p = {p}")


def partition_count_formula(p: int, k: int) -> Fraction:
    """Closed-form estimate of the number of k-part partitions of m mod p.

    The count is (p-1)(p-2)...(p-k+2) * (p-k) / k! and does not depend on m.
    Evaluated exactly as a Fraction; callers must check .denominator == 1
    before treating it as a count (non-integer values are surfaced as
    anomalies by the audit, never rounded).
    """
    _validate_partition_args(p, k)
    numerator = 1
    for i in range(1, k - 1):
        numerator *= p - i
    numerator *= p - k
    return Fraction(numerator, math.factorial(k))


def partition_count_oracle(p: int, k: int, m: int, budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Exact count of k-subsets of {1, ..., p-1} summing to m mod p.

    Distinct parts, order ignored.  Complete by enumeration; the budget
    guards C(p-1, k).
    """
    _validate_partition_args(p, k)
    if math.comb(p - 1, k) > budget:
        raise BudgetExceededError(f"C({p - 1}, {k}) exceeds the oracle budget {budget}")
    m %= p
    return sum(1 for subset in combinations(range(1, p), k) if sum(subset) % p == m)


@dataclass(frozen=True)
class PartitionAuditRow:
    p: int
    k: int
    m: int
    formula: Fraction
    oracle: int

    @property
    def formula_is_integer(self) -> bool:
        return self.formula.denominator == 1

    @property
    def match(self) -> bool:
        return self.formula_is_integer and self.formula.numerator == self.oracle


@dataclass(frozen=True)
class PartitionAudit:
    rows: tuple[PartitionAuditRow, ...]
    consistency_ok: bool

    @property
    def mismatch_count(self) -> int:
        return sum(1 for row in self.rows if not row.match)

    @property
    def anomaly_count(self) -> int:
        return sum(1 for row in self.rows if not row.formula_is_integer)

    def to_csv(self) -> str:
        lines = ["p,k,m,formula,oracle,match"]
        for row in self.rows:
            lines.append(f"{row.p},{row.k},{row.m},{row.formula},{row.oracle},{int(row.match)}")
        return "\n".join(lines) + "\n"

    def to_summary(self) -> dict:
        return {
            "rows": len(self.rows),
            "oracle_consistency_ok": self.consistency_ok,
            "formula_mismatches": self.mismatch_count,
            "formula_non_integer": self.anomaly_count,
        }


def audit_partition_counts(
    primes: Sequence[int],
    ks: Sequence[int],
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> PartitionAudit:
    """Tabulate formula vs oracle for every m, and self-check the oracle.

    The oracle is authoritative: the audit fails only if the per-m oracle
    counts for some (p, k) do not sum to C(p-1, k).  Formula disagreements
    are reported, never fatal.
    """
    rows: list[PartitionAuditRow] = []
    consistent = True
    for p in primes:
        for k in ks:
            if k >= p or k <= 2:
                continue
            formula = partition_count_formula(p, k)
            counts = [partition_count_oracle(p, k, m, budget) for m in range(p)]
            if sum(counts) != math.comb(p - 1, k):
                consistent = False
            for m, oracle in enumerate(counts):
                rows.append(PartitionAuditRow(p, k, m, formula, oracle))
    return PartitionAudit(tuple(rows), consistent)


@dataclass(frozen=True)
class ProbabilityModel:
    """Success-rate predictions for one parameter choice.

    per_iteration is 1 - (1 - 1/p)^C with C = C(3n' + l, l) the number of
    candidate sub-sums tested at once; it tends to 1 - 1/e when C is matched
    to p.  alg2_conditional is the block solver's heuristic conditional rate
    l^2 / C.  The overall estimates use 0.6 * (log p)^2 / p with the log base
    recorded explicitly (the natural log is the default report).
    """

    p: int
    n_prime: int
    l: int
    subsets: int
    per_iteration: float
    alg2_conditional: Fraction
    overall_product: float
    overall_estimate_ln: float
    overall_estimate_log2: float

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "n_prime": self.n_prime,
            "l": self.l,
            "subsets": self.subsets,
            "per_iteration": self.per_iteration,
            "alg2_conditional": float(self.alg2_conditional),
            "alg2_conditional_exact": f"{self.alg2_conditional.numerator}/{self.alg2_conditional.denominator}",
            "overall_product": self.overall_product,
            "overall_estimate_ln": self.overall_estimate_ln,
            "overall_estimate_log2": self.overall_estimate_log2,
        }


def per_iteration_success(p: int, subsets: int) -> float:
    """1 - (1 - 1/p)^subsets, computed in log space for precision."""
    return -math.expm1(subsets * math.log1p(-1.0 / p))


def success_model(p: int, n_prime: int, l: int) -> ProbabilityModel:
    if p < 3 or n_prime < 1 or l < 1:
        raise ValueError("need p >= 3, n_prime >= 1, l >= 1")
    subsets = math.comb(3 * n_prime + l, l)
    per_iter = per_iteration_success(p, subsets)
    conditional = Fraction(l * l, subsets)
    return ProbabilityModel(
        p=p,
        n_prime=n_prime,
        l=l,
        subsets=subsets,
        per_iteration=per_iter,
        alg2_conditional=conditional,
        overall_product=per_iter * float(conditional),
        overall_estimate_ln=0.6 * math.log(p) ** 2 / p,
        overall_estimate_log2=0.6 * math.log2(p) ** 2 / p,
    )


@dataclass(frozen=True)
class ParameterChoice:
    n_prime: int
    l: int
    subsets: int
    stirling_estimate: float


def select_parameters(p: int) -> ParameterChoice:
    """Smallest n' with l = 3n' and C(6n', 3n') >= p.

    Matching the subset count to p is what pushes the per-iteration rate
    toward 1 - 1/e while keeping the matrix as small as possible.  The
    Stirling value 4^n / sqrt(pi n) (n = 3n') estimates the central binomial.
    """
    if p < 5:
        raise ValueError(f"p must be >= 5, got {p}")
    n_prime = 1
    while math.comb(6 * n_prime, 3 * n_prime) < p:
        n_prime += 1
    n = 3 * n_prime
    return ParameterChoice(
        n_prime=n_prime,
        l=n,
        subsets=math.comb(2 * n, n),
        stirling_estimate=4.0**n / math.sqrt(math.pi * n),
    )


def binomial_confidence_interval(successes: int, trials: int) -> tuple[float, float]:
    """Normal-approximation 95% interval for a binomial rate."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    rate = successes / trials
    half = 1.96 * math.sqrt(max(rate * (1.0 - rate), 0.0) / trials)
    return max(0.0, rate - half), min(1.0, rate + half)
