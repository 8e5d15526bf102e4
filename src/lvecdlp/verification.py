"""Executable verification suites behind the `verify` CLI verb.

Each suite turns one of the structural claims the attack relies on into a
randomized machine check: the degree-1 interpolation law (chord law), the
kernel-dimension law for attack matrices, the partition-count audit, and the
zero-pattern solver contracts.  Suites return a report; the CLI renders it
and maps hard failures to a nonzero exit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import attack as attack_mod
from .analysis import audit_partition_counts
from .curve import Curve, GroupSpec
from .field import PrimeField
from .linalg import in_row_space, left_kernel, rref_rows, span_basis
from .problem_l import plant_instance, solve_alg2, solve_exhaustive
from .veronese import basis, evaluate_row

PARTITION_PRIMES = (5, 7, 11, 13, 17)
PARTITION_KS = (3, 4, 5)


def fixture_small() -> GroupSpec:
    """Order-19 group over F_17 used by the fast checks."""
    curve = Curve(PrimeField(17), 2, 2)
    return GroupSpec(curve, curve.point(5, 1), 19)


# Found by a find_prime_order_curve scan; pinned so suites are reproducible.
MEDIUM_Q = 853
MEDIUM_A = 1
MEDIUM_B = 348
MEDIUM_GX = 1
MEDIUM_GY = 297
MEDIUM_ORDER = 907


def fixture_medium() -> GroupSpec:
    """Group of prime order 907 over F_853, matched to C(12, 6) = 924."""
    curve = Curve(PrimeField(MEDIUM_Q), MEDIUM_A, MEDIUM_B)
    return GroupSpec(curve, curve.point(MEDIUM_GX, MEDIUM_GY), MEDIUM_ORDER)


# The matched group for n' = 3 (C(18, 9) = 48,620; C / order = 0.998), the
# first hit of find_prime_order_curve(PrimeField(48619), 48400, 48840).
LARGE_Q = 48619
LARGE_A = 1
LARGE_B = 55
LARGE_GX = 0
LARGE_GY = 4724
LARGE_ORDER = 48731


def fixture_large() -> GroupSpec:
    """Group of prime order 48,731 over F_48,619, matched to C(18, 9) = 48,620."""
    curve = Curve(PrimeField(LARGE_Q), LARGE_A, LARGE_B)
    return GroupSpec(curve, curve.point(LARGE_GX, LARGE_GY), LARGE_ORDER)


@dataclass
class SuiteReport:
    name: str
    passed: bool
    lines: list[str] = field(default_factory=list)
    details: dict = field(default_factory=dict)


def _triple_rank(group: GroupSpec, scalars: tuple[int, int, int]) -> int:
    mb = basis(1)
    q = group.curve.q
    rows = [evaluate_row(mb, group.scalar_mul(s), q) for s in scalars]
    return rref_rows(rows, q)[1]


def verify_chord_law(group: GroupSpec | None = None, trials: int = 1000, seed: int = 0) -> SuiteReport:
    """Degree-1 interpolation law on random triples.

    Summing triples (A, B, -(A+B)) must give a singular 3x3 monomial matrix
    (the three points are collinear); distinct non-summing triples must give
    a full-rank one.
    """
    group = group or fixture_small()
    p = group.order
    rng = random.Random(f"chord:{seed}")
    summing_ok = 0
    for _ in range(trials):
        while True:
            a = rng.randrange(1, p)
            b = rng.randrange(1, p)
            if a != b and (a + b) % p != 0:
                break
        if _triple_rank(group, (a, b, (-a - b) % p)) < 3:
            summing_ok += 1
    independent_ok = 0
    for _ in range(trials):
        while True:
            scalars = tuple(rng.randrange(1, p) for _ in range(3))
            if len(set(scalars)) == 3 and sum(scalars) % p != 0:
                break
        if _triple_rank(group, scalars) == 3:
            independent_ok += 1
    passed = summing_ok == trials and independent_ok == trials
    return SuiteReport(
        name="theorem1",
        passed=passed,
        lines=[
            f"summing triples singular: {summing_ok}/{trials}",
            f"non-summing triples full rank: {independent_ok}/{trials}",
        ],
        details={"summing_ok": summing_ok, "independent_ok": independent_ok, "trials": trials},
    )


def clean_iteration(cfg: attack_mod.AttackConfig, start_index: int) -> tuple[attack_mod.IterationSample, int, int]:
    """First iteration sample at or after start_index with no cross-block collision.

    Returns (sample, next_index, skipped).  The kernel-dimension law assumes
    distinct points; collision samples solve the logarithm outright instead.
    """
    skipped = 0
    index = start_index
    while True:
        sample = attack_mod.sample_iteration(cfg, index)
        index += 1
        if attack_mod.detect_accident(sample) is None:
            return sample, index, skipped
        skipped += 1


def verify_kernel_dimension(
    group: GroupSpec | None = None,
    degrees: tuple[int, ...] = (1, 2, 3, 4),
    iterations: int = 200,
    seed: int = 0,
) -> SuiteReport:
    """dim(left kernel) == l on matrices built from 3n' + l distinct points."""
    group = group or fixture_medium()
    lines = []
    details = {}
    passed = True
    rng = random.Random(f"kerneldim:{seed}")
    for degree in degrees:
        m_secret = rng.randrange(1, group.order)
        cfg = attack_mod.AttackConfig(
            group=group,
            target=group.scalar_mul(m_secret),
            n_prime=degree,
            seed=seed + degree,
            accident_check=True,
        )
        exact = 0
        skipped_total = 0
        index = 1
        for _ in range(iterations):
            sample, index, skipped = clean_iteration(cfg, index)
            skipped_total += skipped
            if left_kernel(sample.rows, group.curve.q).dim == cfg.l:
                exact += 1
        ok = exact == iterations
        passed = passed and ok
        lines.append(f"n'={degree}: dim == {cfg.l} in {exact}/{iterations} iterations (collision samples skipped: {skipped_total})")
        details[f"degree_{degree}"] = {"exact": exact, "iterations": iterations, "skipped": skipped_total}
    return SuiteReport(name="kernel-dim", passed=passed, lines=lines, details=details)


def verify_partition_counts(budget: int = 5_000_000) -> SuiteReport:
    """Oracle self-consistency is the hard assertion; formula rows are a report."""
    audit = audit_partition_counts(PARTITION_PRIMES, PARTITION_KS, budget)
    summary = audit.to_summary()
    mismatch_examples = [
        f"p={row.p} k={row.k} m={row.m}: formula {row.formula} vs oracle {row.oracle}"
        for row in audit.rows
        if not row.match
    ][:5]
    lines = [
        f"oracle self-consistency: {'ok' if audit.consistency_ok else 'FAILED'}",
        f"formula rows checked: {summary['rows']}, mismatches: {summary['formula_mismatches']}, non-integer: {summary['formula_non_integer']}",
    ]
    lines += [f"  example mismatch: {s}" for s in mismatch_examples]
    details = dict(summary)
    details["csv"] = audit.to_csv()
    return SuiteReport(name="partitions", passed=audit.consistency_ok, lines=lines, details=details)


def verify_problem_l(trials: int = 200, seed: int = 0) -> SuiteReport:
    """Solver contracts on planted and random instances.

    Checks, per instance: both solvers return only in-span vectors with
    enough zeros, the exhaustive solver always finds a solution when one was
    planted, and the block solver never succeeds where the exhaustive one
    fails.  On tiny instances the exhaustive verdict is compared against a
    full scan of every span element.
    """
    rng = random.Random(f"probleml:{seed}")
    sound = True
    planted_found = 0
    alg2_found = 0
    for _ in range(trials):
        p = rng.choice((11, 17, 101, 907))
        n_prime = rng.choice((1, 2))
        l = 3 * n_prime
        kb, _target = plant_instance(rng, p, n_prime, l)
        exhaustive = solve_exhaustive(kb, l)
        if exhaustive is None:
            sound = False
            continue
        planted_found += 1
        if exhaustive.count(0) < l or not in_row_space(kb.vectors, exhaustive, p):
            sound = False
        candidate = solve_alg2(kb, l)
        if candidate is not None:
            alg2_found += 1
            if candidate.count(0) < l or not in_row_space(kb.vectors, candidate, p):
                sound = False

    full_scan_agree = 0
    full_scan_total = 0
    for _ in range(60):
        p = rng.choice((5, 7))
        ambient = rng.choice((4, 5, 6))
        l = 2
        vectors = []
        while len(vectors) < l:
            row = [rng.randrange(p) for _ in range(ambient)]
            if rref_rows(vectors + [row], p)[1] == len(vectors) + 1:
                vectors.append(row)
        kb = span_basis(vectors, ambient, p)
        canonical = kb.vectors
        found = solve_exhaustive(kb, l) is not None
        brute = False
        for c0 in range(p):
            for c1 in range(p):
                if c0 == 0 and c1 == 0:
                    continue
                v = [(c0 * canonical[0][j] + c1 * canonical[1][j]) % p for j in range(ambient)]
                if sum(1 for x in v if x == 0) >= l:
                    brute = True
                    break
            if brute:
                break
        full_scan_total += 1
        if found == brute:
            full_scan_agree += 1

    passed = sound and planted_found == trials and full_scan_agree == full_scan_total
    lines = [
        f"planted instances solved by exhaustive search: {planted_found}/{trials}",
        f"block solver hits (sound, subset of exhaustive): {alg2_found}/{trials}",
        f"tiny-instance full-span agreement: {full_scan_agree}/{full_scan_total}",
    ]
    return SuiteReport(
        name="problem-l",
        passed=passed,
        lines=lines,
        details={
            "planted_found": planted_found,
            "alg2_found": alg2_found,
            "full_scan_agree": full_scan_agree,
            "full_scan_total": full_scan_total,
        },
    )


SUITE_NAMES = ("theorem1", "kernel-dim", "partitions", "problem-l")


def run_suites(name: str, seed: int = 0, scale: float = 1.0) -> list[SuiteReport]:
    """Run one suite or all of them.  scale shrinks trial counts for smoke runs."""
    if name not in SUITE_NAMES + ("all",):
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    chord_trials = max(1, int(1000 * scale))
    kernel_iterations = max(1, int(200 * scale))
    problem_trials = max(1, int(200 * scale))
    reports = []
    if name in ("theorem1", "all"):
        reports.append(verify_chord_law(trials=chord_trials, seed=seed))
    if name in ("kernel-dim", "all"):
        reports.append(verify_kernel_dimension(iterations=kernel_iterations, seed=seed))
    if name in ("partitions", "all"):
        reports.append(verify_partition_counts())
    if name in ("problem-l", "all"):
        reports.append(verify_problem_l(trials=problem_trials, seed=seed))
    return reports
